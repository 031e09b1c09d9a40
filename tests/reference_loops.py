"""Per-stage and per-state loops kept as references for the assembled maps.

``reference_solve_steps`` is the RK4 method of steps that reads every
stage's delayed values by interpolating the trajectory;
``reference_volterra_terms`` evaluates the delay term node by node; and
``reference_miyadera_estimate`` builds the moved state of every sample
at every quadrature node; ``reference_random_compatible_state`` draws
one state at a time; ``reference_decay_rate`` rebuilds every
sampled state through ``segment`` and ``state_norm``; and
``reference_shift_resolvent_history`` accumulates the shift resolvent
interval by interval from the right.  The package
assembles these linear maps once and applies them in bulk; the tests
compare the two.

Two oracles that the package does not compute at all sit beside them:
``cantor_transform_recursive`` evaluates the Cantor transform by
self-similar subdivision of the measure, the cross-check of the product
formula; ``perturbed_resolvent_bound_check`` tests the perturbed
resolvent inequality by a direct SVD.
"""

from __future__ import annotations

import numpy as np

from delaylab import (
    BlowUpError,
    PreconditionError,
    CantorKernel,
    DelayState,
    DensityKernel,
    DiscreteDelays,
    HistoryGrid,
    Trajectory,
    apply,
    cantor_grid_weights,
    history_injection,
    nilpotent_shift,
    segment,
    state_norm,
    t0_action,
    total_variation,
)
from delaylab.history import interp_uniform

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


def reference_solve_steps(model, init, T, dt):
    """RK4 method of steps with per-stage interpolation of the trajectory."""
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
    term = _delay_term(phi_red, init.history.m) if phi_red is not None else None

    half = 0.5 * dt
    sixth = dt / 6.0
    if term is not None:
        offsets, reduce_fn = term

        def rhs(s, y, cap):
            # delayed values from nodes computed so far; queries past the
            # frontier extrapolate from the last interval
            pos = (s + offsets + 1.0) * inv
            idx = np.minimum(pos.astype(int), cap)
            frac = (pos - idx)[:, None]
            delayed = vals[idx] * (1.0 - frac) + vals[idx + 1] * frac
            return a_eff @ y + reduce_fn(delayed)

    for j in range(hist_steps, total - 1):
        t = -1.0 + j * dt
        u = vals[j]

        if term is None:
            k1 = a_eff @ u
            k2 = a_eff @ (u + half * k1)
            k3 = a_eff @ (u + half * k2)
            k4 = a_eff @ (u + dt * k3)
        else:
            cap = j - 1
            k1 = rhs(t, u, cap)
            k2 = rhs(t + half, u + half * k1, cap)
            k3 = rhs(t + half, u + half * k2, cap)
            k4 = rhs(t + dt, u + dt * k3, cap)

        new = u + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if not np.all(np.isfinite(new)) or np.linalg.norm(new) > BLOWUP_GUARD:
            raise BlowUpError(
                f"solution norm exceeded {BLOWUP_GUARD:.0e} at t = {t + dt:.6g}; aborting"
            )
        vals[j + 1] = new

    return Trajectory(vals, dt, m=init.history.m, p=model.p)


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
        terms.append(DelayState(new_rows[-1].copy(), _segment_of_rows(new_rows, dt, t, m, s.history.p)))
        rows = new_rows
    return terms


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
    disturbance = model.char_matrix(lam)
    dist_norm = float(np.linalg.norm(disturbance, 2))
    if dist_norm > (1.0 - delta) * min_sv * (1.0 + 1e-12):
        raise PreconditionError(
            f"perturbation norm {dist_norm:.3e} exceeds (1 - delta)/||R|| = {(1.0 - delta) * min_sv:.3e}"
        )
    shifted = lam * np.eye(model.n) - model.A.matrix - disturbance
    perturbed_norm = 1.0 / float(np.linalg.svd(shifted, compute_uv=False)[-1])
    return perturbed_norm <= (1.0 / min_sv) / delta
