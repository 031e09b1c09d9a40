"""Per-stage and per-state loops kept as references for the assembled maps.

``reference_etd2_solve_steps`` is the ETD2 method of steps that reads
the delay term at both ends of every step by interpolating the
trajectory, with its exponential weights from ``scipy.linalg.expm`` of
an augmented matrix; ``reference_volterra_terms`` evaluates the delay term node by node; and
``reference_miyadera_estimate`` builds the moved state of every sample
at every quadrature node; ``reference_random_compatible_state`` draws
one state at a time; ``reference_decay_rate`` rebuilds every
sampled state through ``segment`` and ``state_norm``; and
``reference_shift_resolvent_history`` accumulates the shift resolvent
interval by interval from the right.  The package
assembles these linear maps once and applies them in bulk; the tests
compare the two.

``reference_cantor_transform`` and ``reference_cantor_derivative`` are
the level-by-level product form of the Cantor transform, a complex cosh
(and a tanh for the derivative) per level until the factors reach 1; the
package reads the same product in one pass, splitting cosh over the real
and imaginary axes on the top levels and summing the levels below them
as one Taylor polynomial.

Four oracles that the package does not compute at all sit beside them:
``reference_solve_steps`` is the RK4 method of steps, reading the
trajectory the same way at every stage, the accuracy oracle of the
ETD2 step; ``cantor_transform_recursive`` evaluates the Cantor transform by
self-similar subdivision of the measure, the cross-check of the product
formula; ``perturbed_resolvent_bound_check`` tests the perturbed
resolvent inequality by a direct SVD; ``char_det`` is the determinant of
the characteristic matrix by complex LU, the oracle of ``_log_det``.
``reference_find_roots`` and ``reference_count_roots_argument_principle``
are the root search and the contour count over the whole rectangle:
``log det`` on every column of the seed grid, every seed polished, all
four edges integrated; the package evaluates the upper half only and
gets the lower half by conjugation.
``stepped_state`` and ``series_head`` are the two routes to the solution
semigroup as the tests read them: the state (u(t), u_t) of the method
of steps, and the head of a partial sum of the Volterra terms.
``_delay_term`` reads a delay functional on a sampled trajectory by
interpolating it at the atom offsets, apart from the grid weights that
the package reads every sampled history with.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from delaylab import (
    BlowUpError,
    PreconditionError,
    CantorKernel,
    DelayState,
    DensityKernel,
    DiscreteDelays,
    HistoryGrid,
    NoResultError,
    RootReport,
    Trajectory,
    apply,
    cantor_grid_weights,
    char_matrix,
    history_injection,
    nilpotent_shift,
    segment,
    solve_steps,
    state_norm,
    t0_action,
    total_variation,
    volterra_terms,
)
from delaylab.history import interp_uniform
from delaylab.spectral import MERGE_TOL, ROOT_TOL, _log_det, _newton_polish

BLOWUP_GUARD = 1e12


def _fold_instantaneous(model):
    a_eff = model.A.matrix.copy()
    phi = model.phi
    if isinstance(phi, DiscreteDelays) and phi.dim is not None:
        at_zero = phi.delays >= -1e-12
        if at_zero.any():
            a_eff = a_eff + phi.matrices[at_zero].sum(axis=0)
            if at_zero.all():
                return a_eff, None
            phi = DiscreteDelays(phi.matrices[~at_zero], phi.delays[~at_zero])
    if isinstance(phi, DiscreteDelays) and phi.dim is None:
        return a_eff, None
    if isinstance(phi, CantorKernel) and phi.c == 0.0:
        return a_eff, None
    return a_eff, phi


def _delay_term(phi, m):
    if isinstance(phi, DiscreteDelays):
        if phi.dim is None:

            def reduce_empty(vals):
                return np.zeros(vals.shape[1])

            return np.array([-1.0]), reduce_empty
        mats = phi.matrices

        def reduce_discrete(vals):
            return np.einsum("kij,kj->i", mats, vals)

        return phi.delays, reduce_discrete
    if isinstance(phi, CantorKernel):
        offsets = -1.0 + np.arange(m + 1) / m
        w = phi.c * cantor_grid_weights(m, phi.depth)

        def reduce_cantor(vals):
            return w @ vals

        return offsets, reduce_cantor
    if isinstance(phi, DensityKernel):
        offsets = phi.nodes
        w = np.full(phi.m + 1, 1.0 / phi.m)
        w[0] *= 0.5
        w[-1] *= 0.5
        weighted = w[:, None, None] * phi.samples

        def reduce_density(vals):
            return np.einsum("lij,lj->i", weighted, vals)

        return offsets, reduce_density
    raise TypeError(f"unknown functional variant: {type(phi).__name__}")


def _method_of_steps(model, init, T, dt, make_step):
    """Sweep node by node: make_step(a_eff, delayed) gives the map
    (u_j, t_j, cap) -> u_{j+1}, where delayed(s, cap) is the delay term at
    time s read from the nodes up to cap + 1 (zero when Phi has no delay)."""
    inv = 1.0 / dt
    hist_steps = round(inv)
    steps = int(np.ceil(T / dt - 1e-9))
    total = hist_steps + steps + 1
    n = model.n
    vals = np.empty((total, n))
    tgrid = -1.0 + np.arange(hist_steps + 1) * dt
    vals[: hist_steps + 1] = init.history.value_at(tgrid)
    vals[hist_steps] = init.head

    a_eff, phi_red = _fold_instantaneous(model)
    if phi_red is None:

        def delayed(s, cap):
            return np.zeros(n)

    else:
        offsets, reduce_fn = _delay_term(phi_red, init.history.m)

        def delayed(s, cap):
            # delayed values from nodes computed so far; queries past the
            # frontier extrapolate from the last interval
            pos = (s + offsets + 1.0) * inv
            idx = np.minimum(pos.astype(int), cap)
            frac = (pos - idx)[:, None]
            return reduce_fn(vals[idx] * (1.0 - frac) + vals[idx + 1] * frac)

    step = make_step(a_eff, delayed)
    for j in range(hist_steps, total - 1):
        t = -1.0 + j * dt
        new = step(vals[j], t, j - 1)
        if not np.all(np.isfinite(new)) or np.linalg.norm(new) > BLOWUP_GUARD:
            raise BlowUpError(
                f"solution norm exceeded {BLOWUP_GUARD:.0e} at t = {t + dt:.6g}; aborting"
            )
        vals[j + 1] = new

    return Trajectory(vals, dt, m=init.history.m, p=model.p)


def reference_solve_steps(model, init, T, dt):
    """RK4 method of steps with per-stage interpolation of the trajectory."""
    half, sixth = 0.5 * dt, dt / 6.0

    def make_step(a_eff, delayed):
        def step(u, t, cap):
            k1 = a_eff @ u + delayed(t, cap)
            k2 = a_eff @ (u + half * k1) + delayed(t + half, cap)
            k3 = a_eff @ (u + half * k2) + delayed(t + half, cap)
            k4 = a_eff @ (u + dt * k3) + delayed(t + dt, cap)
            return u + sixth * (k1 + 2.0 * (k2 + k3) + k4)

        return step

    return _method_of_steps(model, init, T, dt, make_step)


def reference_etd2_solve_steps(model, init, T, dt):
    """ETD2 method of steps with per-stage interpolation of the trajectory:
    u_{j+1} = E u_j + dt [(P1 - P2) g_j + P2 g_{j+1}], where [E, P1, P2] is the
    top block row of expm([[dt A, I, 0], [0, 0, I], [0, 0, 0]]) of the
    folded A, in u coordinates."""
    n = model.n

    def make_step(a_eff, delayed):
        aug = np.zeros((3 * n, 3 * n))
        aug[:n, :n] = dt * a_eff
        aug[:n, n : 2 * n] = aug[n : 2 * n, 2 * n :] = np.eye(n)
        top = scipy.linalg.expm(aug)[:n]
        e, p1, p2 = top[:, :n], top[:, n : 2 * n], top[:, 2 * n :]

        def step(u, t, cap):
            return e @ u + dt * ((p1 - p2) @ delayed(t, cap) + p2 @ delayed(t + dt, cap))

        return step

    return _method_of_steps(model, init, T, dt, make_step)


def _segment_of_rows(rows, dt, t, m, p):
    nodes = t + (-1.0 + np.arange(m + 1) / m)
    return HistoryGrid(interp_uniform(rows, -1.0, dt, nodes), p)


def reference_volterra_terms(model, N, t, s, dt):
    """Volterra terms with the delay term interpolated node by node."""
    hist_steps = round(1.0 / dt)
    r_steps = round(t / dt)
    n = model.n
    m = s.history.m
    total = hist_steps + r_steps + 1
    tgrid = -1.0 + np.arange(total) * dt

    rows = np.empty((total, n))
    rows[: hist_steps + 1] = s.history.value_at(tgrid[: hist_steps + 1])
    rows[hist_steps] = s.head
    if r_steps > 0:
        rows[hist_steps + 1 :] = model.A.propagate(s.head, tgrid[hist_steps + 1 :])

    terms = [t0_action(model.A, t, s)]
    offsets, reduce_fn = _delay_term(model.phi, m)
    e1 = model.A.expm(dt)
    theta = tgrid[hist_steps:]

    for _ in range(1, N + 1):
        v = np.empty((r_steps + 1, n))
        for j in range(r_steps + 1):
            delayed = interp_uniform(rows, -1.0, dt, theta[j] + offsets)
            v[j] = reduce_fn(delayed)
        new_rows = np.zeros((total, n))
        acc = np.zeros(n)
        for j in range(1, r_steps + 1):
            acc = e1 @ (acc + 0.5 * dt * v[j - 1]) + 0.5 * dt * v[j]
            new_rows[hist_steps + j] = acc
        terms.append(DelayState(new_rows[-1], _segment_of_rows(new_rows, dt, t, m, s.history.p)))
        rows = new_rows
    return terms


def stepped_state(model, t, s, dt):
    """The state (u(t), u_t) of the method of steps at t > 0."""
    traj = solve_steps(model, s, t, dt)
    return DelayState(traj.value_at(t), segment(traj, t))


def series_head(model, t, s, N, dt):
    """Head of the partial sum W_0(t) s + ... + W_N(t) s of the
    Dyson-Phillips series, summed term by term."""
    terms = volterra_terms(model, N, t, s, dt)
    return sum((term.head for term in terms[1:]), terms[0].head)


def reference_random_compatible_state(n, m, p, rng):
    """One random compatible state: the head, then the four cubic
    coefficients, drawn on their own and scaled by ``state_norm``."""
    x = rng.standard_normal(n)
    coeffs = rng.standard_normal((4, n))
    sigma = -1.0 + np.arange(m + 1) / m
    samples = (sigma[:, None] ** np.arange(4)[None, :]) @ coeffs
    samples += x - samples[-1]
    scale = state_norm(DelayState(x, HistoryGrid(samples, p)))
    return DelayState(x / scale, HistoryGrid(samples / scale, p))


def reference_miyadera_estimate(model, t0, samples=200, *, seed=42, r_nodes=65, state_m=64):
    """Smallness constants with every state moved and evaluated on its own."""
    rng = np.random.default_rng(seed)
    rs = np.linspace(0.0, t0, r_nodes)
    w = np.full(r_nodes, rs[1] - rs[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    q_emp = 0.0
    for _ in range(samples):
        state = reference_random_compatible_state(model.n, state_m, model.p, rng)
        vals = np.empty(r_nodes)
        for i, r in enumerate(rs):
            moved = history_injection(r, state.head, model.A, m=state_m, p=model.p) + nilpotent_shift(
                r, state.history
            )
            vals[i] = np.linalg.norm(apply(model.phi, moved))
        q_emp = max(q_emp, float(w @ vals))

    grid_r = np.linspace(0.0, 1.0, 1000)
    sup_norm = 0.0
    for r in grid_r:
        sup_norm = max(sup_norm, float(np.linalg.norm(model.A.expm(r), 2)))
    conj_exponent = 1.0 - 1.0 / model.p
    q_bound = t0**conj_exponent * sup_norm * total_variation(model.phi)
    return q_emp, q_bound


def reference_decay_rate(traj, window, max_points=201):
    """Decay-rate fit with the state at every sample time built on its own."""
    t_lo, t_hi = window
    times = traj.times
    mask = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    idx = np.nonzero(mask)[0]
    if len(idx) > max_points:
        idx = idx[np.linspace(0, len(idx) - 1, max_points).astype(int)]
    norms = np.array([state_norm(DelayState(traj.values[i], segment(traj, times[i]))) for i in idx])
    keep = norms > 0
    return float(np.polyfit(times[idx][keep], np.log(norms[keep]), 1)[0])


def reference_shift_resolvent_history(lam, g):
    """Q_l = e^(lam sigma_l) J_l + e^(-lam h) Q_{l+1} from l = m - 1 down,
    with J_l the cubic-stencil integral of e^(-lam tau) g over interval l."""
    m, h, sigma = g.m, 1.0 / g.m, g.nodes
    factor = np.exp(-lam * sigma)[:, None] * g.samples.astype(complex)
    first = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
    mid = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
    last = np.array([1.0, -5.0, 19.0, 9.0]) / 24.0
    j_local = np.empty((m, g.n), dtype=complex)
    j_local[0] = h * (first @ factor[0:4])
    for l in range(1, m - 1):
        j_local[l] = h * (mid @ factor[l - 1 : l + 3])
    j_local[m - 1] = h * (last @ factor[m - 3 : m + 1])
    out = np.zeros((m + 1, g.n), dtype=complex)
    acc = np.zeros(g.n, dtype=complex)
    for l in range(m - 1, -1, -1):
        acc = np.exp(lam * sigma[l]) * j_local[l] + np.exp(-lam * h) * acc
        out[l] = acc
    return out


def reference_cantor_transform(lams) -> np.ndarray:
    """e^(-lam/2) prod_k cosh(lam / 3^k), truncated once every factor is
    within 1e-16 of 1."""
    lams = np.asarray(lams, dtype=complex)
    prod = np.ones_like(lams)
    for k in range(1, 200):
        factor = np.cosh(lams / 3.0**k)
        prod *= factor
        if np.max(np.abs(factor - 1.0)) < 1e-16:
            break
    return np.exp(-lams / 2.0) * prod


def reference_cantor_derivative(lams) -> np.ndarray:
    """g^'(lam) as g^(lam) times the logarithmic derivative -1/2 + sum_k
    tanh(lam / 3^k) / 3^k, summed until the terms fall below 1e-17."""
    lams = np.asarray(lams, dtype=complex)
    total = np.full_like(lams, -0.5)
    for k in range(1, 200):
        term = np.tanh(lams / 3.0**k) / 3.0**k
        total += term
        if np.max(np.abs(term), initial=0.0) < 1e-17:
            break
    return reference_cantor_transform(lams) * total


def cantor_transform_recursive(lam: complex, depth: int = 30) -> complex:
    """Transform computed purely by self-similar measure subdivision.

    Splits the measure depth times via mu -> (mu o S1^-1 + mu o S2^-1)/2,
    evaluating e^(lam * sigma) at the leaf centers with equal masses, and
    stops early once two consecutive levels agree to relative 1e-16 (the
    increments contract by ~1/9 per level) or 2^22 leaves are reached.
    Independent of the product formula.
    """
    lam = complex(lam)
    centers = np.array([0.5])
    val_prev = None
    for level in range(depth + 1):
        val = complex(np.mean(np.exp(lam * (centers - 1.0))))
        if val_prev is not None and abs(val - val_prev) <= 1e-16 * (1.0 + abs(val)):
            break
        if level == depth or len(centers) >= 2**22:
            break
        centers = np.concatenate((centers / 3.0, centers / 3.0 + 2.0 / 3.0))
        val_prev = val
    return val


def perturbed_resolvent_bound_check(model, lam: complex, delta: float) -> bool:
    """Check ||R(lam, A + D)|| <= (1/delta) ||R(lam, A)|| for the
    characteristic perturbation D = char_matrix(lam).

    Preconditions (lam in the resolvent set of A and ||D|| <= (1 - delta)
    / ||R(lam, A)||) are reported as PreconditionError, distinct from the
    inequality itself failing (return False).
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError("delta must lie in (0, 1)")
    min_sv = model.A.min_singular(lam)
    if min_sv <= 1e-14:
        raise PreconditionError(f"lambda = {lam} is not in the resolvent set of A")
    disturbance = char_matrix(model.phi, lam, dim=model.n)
    dist_norm = float(np.linalg.norm(disturbance, 2))
    if dist_norm > (1.0 - delta) * min_sv * (1.0 + 1e-12):
        raise PreconditionError(
            f"perturbation norm {dist_norm:.3e} exceeds (1 - delta)/||R|| = {(1.0 - delta) * min_sv:.3e}"
        )
    shifted = lam * np.eye(model.n) - model.A.matrix - disturbance
    perturbed_norm = 1.0 / float(np.linalg.svd(shifted, compute_uv=False)[-1])
    return perturbed_norm <= (1.0 / min_sv) / delta


def char_det(model, lam: complex) -> complex:
    """Determinant of lam - A - char_matrix(lam) by complex LU."""
    matrix = lam * np.eye(model.n, dtype=complex) - model.A.matrix - char_matrix(model.phi, lam, dim=model.n)
    return complex(np.linalg.det(matrix))


def reference_find_roots(model, region, spacing=0.05):
    """Seed scan of log|det| on the whole grid, every local minimum
    polished by damped Newton, duplicates merged pairwise."""
    re_count = max(4, int(np.ceil((region.re_max - region.re_min) / spacing)) + 1)
    im_count = max(4, int(np.ceil(2.0 * region.im_max / spacing)) + 1)
    res = np.linspace(region.re_min, region.re_max, re_count)
    ims = np.linspace(-region.im_max, region.im_max, im_count)
    lams = res[:, None] + 1j * ims[None, :]
    level = _log_det(model, lams.real.ravel(), lams.imag.ravel(), derivative=False)[0].reshape(re_count, im_count)
    level[np.isnan(level)] = np.inf
    padded = np.full((re_count + 2, im_count + 2), np.inf)
    padded[1:-1, 1:-1] = level
    is_min = np.ones(level.shape, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                is_min &= level <= padded[1 + di : 1 + di + re_count, 1 + dj : 1 + dj + im_count]
    candidates = [
        (complex(root), float(residual))
        for root, residual in zip(*_newton_polish(model, lams[is_min]))
        if residual <= ROOT_TOL and region.contains(root)
    ]
    candidates.sort(key=lambda pair: pair[1])
    roots, residuals = [], []
    for root, residual in candidates:
        if not any(abs(root - kept) <= MERGE_TOL for kept in roots):
            roots.append(root)
            residuals.append(residual)
    order = sorted(range(len(roots)), key=lambda i: (-roots[i].real, roots[i].imag))
    roots = [roots[i] for i in order]
    return RootReport(roots, [residuals[i] for i in order], region, roots[0] if roots else None)


def reference_count_roots_argument_principle(model, region):
    """Winding of det along all four edges, 2000 trapezoid intervals each."""
    corners = [
        complex(region.re_min, -region.im_max),
        complex(region.re_max, -region.im_max),
        complex(region.re_max, region.im_max),
        complex(region.re_min, region.im_max),
    ]
    total, peak = 0.0 + 0.0j, 0.0
    with np.errstate(invalid="ignore"):
        for a, b in zip(corners, corners[1:] + corners[:1]):
            nodes = a + (b - a) * np.linspace(0.0, 1.0, 2001)
            integrand = _log_det(model, nodes.real, nodes.imag)[1]
            dz = (b - a) / 2000
            total += dz * (0.5 * (integrand[0] + integrand[-1]) + integrand[1:-1].sum())
            peak = max(peak, abs(dz) * float(np.max(np.abs(integrand))))
    if not np.isfinite(total):
        raise NoResultError("argument-principle integral is not finite")
    if peak > 1.0:
        raise NoResultError(f"a root lies within about one node spacing of the contour (|dz| max |D| = {peak:.3g})")
    return int(np.rint((total / (2j * np.pi)).real))
