"""Time evolution of u'(t) = A u(t) + Phi(u_t) by two independent routes.

The first route is the method of steps: a classical 4-stage explicit
Runge-Kutta sweep where delayed values come from piecewise-linear
interpolation of the already-computed trajectory.  On the uniform grid
that interpolation is a fixed stencil of lags and weights, so one step is
a constant-coefficient linear recurrence, assembled once and applied in
blocks.  The second route is
the semigroup construction: the unperturbed block action (flowed head,
injected head plus shifted history) composed with the iterated Volterra
terms whose sum is the perturbation series of the full evolution.  Both
produce the same states up to discretisation error, which the test suite
asserts; ``mild_residual`` checks the integrated form of the equation
directly on a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import BlowUpError, BudgetError, PreconditionError
from .functional import DelayFunctional, _as_matrices, _Atoms, _atoms, apply, char_matrix
from .history import (
    COMPAT_TOL,
    DelayState,
    HistoryGrid,
    _trapezoid_weights,
    history_injection,
    interp_uniform,
    nilpotent_shift,
    segment,
    state_norm,
)

#: Abort threshold for the explicit integrator.
BLOWUP_GUARD = 1e12

#: Work cap for the Volterra iteration, in term count times quadrature nodes.
VOLTERRA_BUDGET = 4_000_000


@dataclass
class SpatialOperator:
    """The instantaneous operator A as an n x n matrix.

    ``kind`` tags matrices with analytic structure ("scalar", "diagonal",
    "laplacian1d", or plain "matrix"); when ``eigenvalues`` are supplied
    they must match the matrix spectrum to 1e-8.  Exponentials use the
    symmetric or diagonalisable eigendecomposition when well conditioned
    and scaling-and-squaring otherwise.
    """

    matrix: np.ndarray
    kind: str = "matrix"
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        self.matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("spatial operator must be a square matrix")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("spatial operator has non-finite entries")
        if self.eigenvalues is not None:
            self.eigenvalues = np.asarray(self.eigenvalues, dtype=complex)
            got = np.sort_complex(np.linalg.eigvals(self.matrix))
            tagged = np.sort_complex(self.eigenvalues)
            scale = 1.0 + np.abs(tagged).max() if tagged.size else 1.0
            if len(got) != len(tagged) or np.abs(got - tagged).max() > 1e-8 * scale:
                raise ValueError("tagged eigenvalues do not match the matrix spectrum")
        self._fact = None
        self._eigs = self.eigenvalues

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A: the tagged ones, or eigvals of the matrix once."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvals(self.matrix)
        return self._eigs

    def _factorization(self):
        if self._fact is None:
            a = self.matrix
            if self.n == 1:
                self._fact = ("scalar", float(a[0, 0]))
            elif np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
                w, q = np.linalg.eigh(a)
                self._fact = ("sym", w, q)
            else:
                w, v = np.linalg.eig(a)
                if np.linalg.cond(v) < 1e8:
                    self._fact = ("diag", w, v, np.linalg.inv(v))
                else:
                    self._fact = ("dense",)
        return self._fact

    def propagate(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows of exp(t A) x for each requested t."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        times = np.atleast_1d(np.asarray(times, dtype=float))
        fact = self._factorization()
        if fact[0] == "scalar":
            return np.exp(fact[1] * times)[:, None] * x
        if fact[0] == "sym":
            w, q = fact[1], fact[2]
            coeff = q.T @ x
            return (np.exp(np.outer(times, w)) * coeff) @ q.T
        if fact[0] == "diag":
            w, v, vinv = fact[1], fact[2], fact[3]
            coeff = vinv @ x
            return np.real((np.exp(np.outer(times, w)) * coeff) @ v.T)
        return np.array([scipy.linalg.expm(t * self.matrix) @ x for t in times])

    def expm(self, t) -> np.ndarray:
        """exp(t A); an array of times gives the stack of exponentials,
        shape t.shape + (n, n), from the same cached factorisation."""
        t = np.asarray(t, dtype=float)
        fact = self._factorization()
        if fact[0] == "scalar":
            return np.exp(fact[1] * t)[..., None, None]
        if fact[0] == "sym":
            w, q = fact[1], fact[2]
            return (q * np.exp(t[..., None] * w)[..., None, :]) @ q.T
        if fact[0] == "diag":
            w, v, vinv = fact[1], fact[2], fact[3]
            return np.real((v * np.exp(t[..., None] * w)[..., None, :]) @ vinv)
        stack = [scipy.linalg.expm(s * self.matrix) for s in t.ravel()]
        return np.array(stack).reshape(t.shape + (self.n, self.n))

    def min_singular(self, lam: complex) -> float:
        """Smallest singular value of (lam - A); 1/norm of the resolvent."""
        shifted = lam * np.eye(self.n) - self.matrix
        return float(np.linalg.svd(shifted, compute_uv=False)[-1])


def scalar_operator(a: float) -> SpatialOperator:
    return SpatialOperator(np.array([[float(a)]]), kind="scalar", eigenvalues=np.array([a], dtype=complex))


def diagonal_operator(eigs) -> SpatialOperator:
    eigs = np.atleast_1d(np.asarray(eigs, dtype=float))
    return SpatialOperator(np.diag(eigs), kind="diagonal", eigenvalues=eigs.astype(complex))


@dataclass
class SystemModel:
    """One delay equation: the pair (A, Phi) plus the exponent p."""

    A: SpatialOperator
    phi: DelayFunctional
    p: float = 2.0

    def __post_init__(self):
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"exponent must satisfy 1 <= p < inf, got {self.p}")
        if self.phi.dim is not None and self.phi.dim != self.A.n:
            raise ValueError(
                f"functional dimension {self.phi.dim} does not match operator dimension {self.A.n}"
            )

    @property
    def n(self) -> int:
        return self.A.n

    def char_matrix(self, lam: complex) -> np.ndarray:
        return char_matrix(self.phi, lam, dim=self.n)

    def default_dt(self) -> float:
        # Explicit stepping limit for the diffusive case: dt <= h^2/4.
        if self.A.kind == "laplacian1d":
            h = 1.0 / (self.n + 1)
            raw = min(1e-3, h * h / 4.0)
            return 1.0 / np.ceil(1.0 / raw)
        return 1e-3


@dataclass
class Trajectory:
    """Solution samples at t_j = -1 + j dt; the first 1/dt + 1 rows are
    the initial history.  ``m`` and ``p`` set the grid used by ``segment``."""

    values: np.ndarray
    dt: float
    m: int = 64
    p: float = 2.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        inv = 1.0 / self.dt
        if abs(inv - round(inv)) > 1e-6:
            raise ValueError("1/dt must be an integer so the unit delay is grid aligned")
        if len(self.values) < round(inv) + 1:
            raise ValueError("trajectory must cover at least the initial history [-1, 0]")

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return -1.0 + np.arange(len(self.values)) * self.dt

    @property
    def t_end(self) -> float:
        return -1.0 + (len(self.values) - 1) * self.dt

    @property
    def history_rows(self) -> int:
        return round(1.0 / self.dt) + 1

    def value_at(self, t) -> np.ndarray:
        q = np.atleast_1d(np.asarray(t, dtype=float))
        if q.size and (q.min() < -1.0 - 1e-9 or q.max() > self.t_end + 1e-9):
            raise PreconditionError(
                f"trajectory queried at t outside coverage [-1, {self.t_end:.6g}]"
            )
        out = interp_uniform(self.values, -1.0, self.dt, q)
        return out[0] if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# Method of steps
# ---------------------------------------------------------------------------


def _fold_instantaneous(model: SystemModel, m: int) -> tuple[np.ndarray, _Atoms]:
    """Move any point mass of Phi at delay 0 into the matrix term.

    Returns A_eff and the atoms left to the delay term on the m-node
    history grid, none when their weights all vanish.  Quadrature nodes at
    sigma = 0 stay atoms: they read the frontier like any other node.
    """
    a_eff = model.A.matrix.copy()
    atoms = _atoms(model.phi, m)
    if atoms.point_masses:
        at_zero = atoms.offsets >= -1e-12
        if at_zero.any():
            a_eff = a_eff + atoms.weights[at_zero].sum(axis=0)
            atoms = atoms._replace(offsets=atoms.offsets[~at_zero], weights=atoms.weights[~at_zero])
    if not np.any(atoms.weights):
        atoms = atoms._replace(offsets=atoms.offsets[:0], weights=atoms.weights[:0])
    return a_eff, atoms


def _grid_position(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whole part and fraction of positions measured in grid steps.

    Positions within 1e-9 of an integer snap to it, so a grid-aligned
    delay reads exactly one node whatever the rounding of offset/dt.
    """
    rho = np.asarray(rho, dtype=float)
    nearest = np.rint(rho)
    rho = np.where(np.abs(rho - nearest) <= 1e-9, nearest, rho)
    whole = np.floor(rho)
    return whole.astype(int), rho - whole


#: Offsets of the RK4 stages inside a step, in steps: k1 at 0, k2 and k3
#: at 1/2, k4 at 1.
_RK4_STAGES = (0.0, 0.5, 1.0)


def _delay_stencil(
    atoms: _Atoms, steps_per_unit: int, n: int, stages: tuple[float, ...] = _RK4_STAGES
) -> tuple[np.ndarray, np.ndarray]:
    """Lags and n x n weights with which the atoms of the delay term read a
    uniform trajectory.

    With ``steps_per_unit`` nodes per unit time, the delay term at stage
    offset c of the step leaving node j is sum_l weights[s, l] @ u_{j - lags[l]}
    for c = stages[s]: the piecewise-linear interpolant at position
    j + c + offset * steps_per_unit.  Positions past node j - 1 read the
    interval (j - 1, j) with a fraction above 1, which extrapolates from
    it, so a stage never reads a node that is not yet computed.  Only lags
    that carry a nonzero weight in some stage are kept, in ascending order.
    """
    offsets, mats = atoms.offsets, _as_matrices(atoms.weights, n)
    count = len(offsets)
    lag, coef, atom, stage = [], [], [], []
    for s, c in enumerate(stages):
        whole, frac = _grid_position(c + offsets * steps_per_unit)
        capped = np.minimum(whole, -1)
        frac = frac + (whole - capped)
        lag += [-capped, -capped - 1]
        coef += [1.0 - frac, frac]
        atom += [np.arange(count)] * 2
        stage.append(np.full(2 * count, s))
    lag, coef, atom, stage = (np.concatenate(v) for v in (lag, coef, atom, stage))
    keep = coef != 0.0
    lags, where = np.unique(lag[keep], return_inverse=True)
    weights = np.zeros((len(stages), len(lags), n, n))
    np.add.at(weights, (stage[keep], where), coef[keep, None, None] * mats[atom[keep]])
    return lags, weights


def _step_recurrence(a_eff: np.ndarray, lags: np.ndarray, weights: np.ndarray, dt: float):
    """Lags and matrices C_l of one RK4 step, u_{j+1} = sum_l C_l u_{j-l}.

    The stages are composed as maps of the stored nodes: the current node
    u_j is the identity at lag 0 and the delay stencil supplies each
    stage's delayed values, so the formulas are those of the stage-by-stage
    step.  Lag 0 is always present and comes first.
    """
    n = a_eff.shape[0]
    all_lags = np.union1d(lags, [0])
    delay = np.zeros((len(_RK4_STAGES), len(all_lags), n, n))
    delay[:, np.searchsorted(all_lags, lags)] = weights
    node = np.zeros((len(all_lags), n, n))
    node[0] = np.eye(n)
    half = 0.5 * dt
    k1 = a_eff @ node + delay[0]
    k2 = a_eff @ (node + half * k1) + delay[1]
    k3 = a_eff @ (node + half * k2) + delay[1]
    k4 = a_eff @ (node + dt * k3) + delay[2]
    return all_lags, node + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def solve_steps(model: SystemModel, init: DelayState, T: float, dt: float | None = None) -> Trajectory:
    """Advance the equation by the method of steps with RK4 stages.

    The initial state must satisfy the compatibility condition f(0) = x
    within COMPAT_TOL and 1/dt must be an integer.  Delayed values at
    stage times are read from the piecewise-linear interpolant of the
    already-computed nodes (queries past the frontier extrapolate from
    the last interval).  Any point mass of Phi at delay 0 is folded into
    A before stepping.  Aborts with BlowUpError when the solution norm
    exceeds 1e12, reporting the first node past the guard.

    On the uniform grid every stage reads the same lags with the same
    weights at every step, so one step is the fixed linear map
    u_{j+1} = sum_l C_l u_{j-l}, assembled once from the delay stencil.
    Lags 0 and 1 are applied step by step; the other lags, all at least
    as long as a block, are applied to a whole block of steps with one
    gather and one product, and the guard is checked once per block.  The
    frontier extrapolation is part of the assembled map, so the result is
    that of the stage-by-stage sweep up to rounding.
    """
    if not T > 0:
        raise PreconditionError("horizon T must be positive")
    if dt is None:
        dt = model.default_dt()
    inv = 1.0 / dt
    hist_steps = round(inv)
    if abs(inv - hist_steps) > 1e-6:
        raise PreconditionError(f"1/dt must be an integer, got dt={dt}")
    if init.n != model.n:
        raise ValueError("initial state dimension does not match the model")
    if not init.is_compatible():
        raise PreconditionError(
            f"initial state violates f(0) = x (defect {init.compat_defect():.3e} > {COMPAT_TOL})"
        )
    steps = int(np.ceil(T / dt - 1e-9))
    total = hist_steps + steps + 1
    n = model.n
    vals = np.empty((total, n))
    tgrid = -1.0 + np.arange(hist_steps + 1) * dt
    vals[: hist_steps + 1] = init.history.value_at(tgrid)
    vals[hist_steps] = init.head

    a_eff, atoms = _fold_instantaneous(model, init.history.m)
    lags, weights = _delay_stencil(atoms, hist_steps, n)
    lags, mats = _step_recurrence(a_eff, lags, weights, dt)

    near = lags <= 1
    width = int(lags[near][-1]) + 1
    # [C_{width-1} ... C_0] against the rows u_{j-width+1} ... u_j
    coupled = np.zeros((n, width * n))
    for lag, mat in zip(lags[near], mats[near]):
        coupled[:, (width - 1 - lag) * n : (width - lag) * n] = mat
    far_lags = lags[~near]
    far = mats[~near].transpose(0, 2, 1).reshape(-1, n)
    block = int(far_lags[0]) if far_lags.size else steps

    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(hist_steps, total - 1, block):
            j1 = min(j0 + block, total - 1)
            # far lags only read nodes before the block
            gathered = vals[np.arange(j0, j1)[:, None] - far_lags]
            forcing = gathered.reshape(j1 - j0, len(far)) @ far
            for j in range(j0, j1):
                vals[j + 1] = coupled @ vals[j + 1 - width : j + 1].ravel() + forcing[j - j0]
            rows = vals[j0 + 1 : j1 + 1]
            bad = ~np.isfinite(rows).all(axis=1) | (np.linalg.norm(rows, axis=1) > BLOWUP_GUARD)
            if bad.any():
                t = -1.0 + (j0 + int(np.argmax(bad))) * dt
                raise BlowUpError(
                    f"solution norm exceeded {BLOWUP_GUARD:.0e} at t = {t + dt:.6g}; aborting"
                )

    return Trajectory(vals, dt, m=init.history.m, p=model.p)


def mild_residual(model: SystemModel, traj: Trajectory, t: float) -> float:
    """Defect of the integrated equation at time t.

    Evaluates ||u(t) - x - A * int_0^t u - Phi(int_0^t u_s ds)|| with
    trapezoid quadrature on the trajectory grid; the inner integral of
    the segments is a history-grid-valued quantity.  Requires t to be a
    grid node within the coverage.
    """
    if t < -1e-12 or t > traj.t_end + 1e-9:
        raise PreconditionError(f"residual time {t} outside trajectory coverage")
    hist_rows = traj.history_rows - 1
    jt = (t + 1.0) / traj.dt
    if abs(jt - round(jt)) > 1e-6:
        raise PreconditionError("residual time must be a trajectory grid node")
    jt = round(jt)
    x = traj.values[hist_rows]
    u_t = traj.values[jt]
    count = jt - hist_rows + 1
    if count < 2:
        return float(np.linalg.norm(u_t - x))
    w = _trapezoid_weights(count, traj.dt)
    vals = traj.values
    int_u = w @ vals[hist_rows : jt + 1]
    # Node l of the segment integral, sum_J w_J u(s_J + sigma_l), reads
    # every s_J at the same whole lag and fraction, so it blends two
    # trapezoid sums over windows of the rows; prefix sums give them all.
    whole, frac = _grid_position((-1.0 + np.arange(traj.m + 1) / traj.m) * hist_rows)
    prefix = np.concatenate((np.zeros((1, traj.n)), np.cumsum(vals, axis=0)))

    def window(start):
        inner = prefix[start + count] - prefix[start]
        return traj.dt * inner - 0.5 * traj.dt * (vals[start] + vals[start + count - 1])

    start = hist_rows + whole
    # the clamp only acts on the node at sigma = 0, whose fraction is 0
    upper = np.minimum(start + 1, len(vals) - count)
    seg_integral = (1.0 - frac)[:, None] * window(start) + frac[:, None] * window(upper)
    g = HistoryGrid(seg_integral, traj.p)
    resid = u_t - x - model.A.matrix @ int_u - apply(model.phi, g)
    return float(np.linalg.norm(resid))


# ---------------------------------------------------------------------------
# Semigroup route
# ---------------------------------------------------------------------------


def t0_action(A: SpatialOperator, t: float, s: DelayState) -> DelayState:
    """Unperturbed block action: (exp(tA) x, S_t x + T_0(t) f) evaluated
    literally from the injection and shift building blocks."""
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    if t == 0:
        return s.copy()
    head = A.propagate(s.head, np.array([t]))[0]
    hist = history_injection(t, s.head, A, m=s.history.m, p=s.history.p) + nilpotent_shift(
        t, s.history
    )
    return DelayState(head, hist)


def semigroup_action(model: SystemModel, t: float, s: DelayState, dt: float | None = None) -> DelayState:
    """Full evolution (u(t), u_t) obtained from the method of steps."""
    if t < 0:
        raise PreconditionError("time must be nonnegative")
    if t == 0:
        hist = s.history.copy()
        hist.samples[-1] = s.head
        return DelayState(s.head.copy(), hist)
    traj = solve_steps(model, s, t, dt)
    return DelayState(traj.value_at(t), segment(traj, t))


def _segment_of_rows(rows: np.ndarray, dt: float, t: float, m: int, p: float) -> HistoryGrid:
    nodes = t + (-1.0 + np.arange(m + 1) / m)
    return HistoryGrid(interp_uniform(rows, -1.0, dt, nodes), p)


def volterra_terms(model: SystemModel, N: int, t: float, s: DelayState, dt: float | None = None) -> list[DelayState]:
    """Iterated Volterra terms W_0(t) s, ..., W_N(t) s.

    W_0 is the unperturbed block action and W_k(t) s = int_0^t
    T_0(t - r) B W_{k-1}(r) s dr with B(x, f) = (Phi(f), 0), discretised
    by composite trapezoid with the trajectory step.  The integrals are
    accumulated through the exact one-step propagator exp(dt A), which
    evaluates the same quadrature sums without re-nesting them.

    The delay term of every quadrature node reads the previous term's
    rows through the stage-0 delay stencil of ``solve_steps`` (the
    piecewise-linear interpolant at each node plus offset), assembled once;
    each term gathers the delayed values of all nodes in one product.
    """
    if not t >= 0:
        raise PreconditionError("time must be nonnegative")
    if N < 0:
        raise ValueError("term count must be nonnegative")
    if dt is None:
        dt = model.default_dt()
    inv = 1.0 / dt
    hist_steps = round(inv)
    if abs(inv - hist_steps) > 1e-6:
        raise PreconditionError(f"1/dt must be an integer, got dt={dt}")
    r_steps = round(t / dt)
    if abs(t - r_steps * dt) > 1e-9:
        raise PreconditionError("t must be a multiple of dt for the Volterra quadrature")
    if (N + 1) * max(r_steps, 1) > VOLTERRA_BUDGET:
        raise BudgetError(
            f"Volterra work {(N + 1) * r_steps} exceeds budget {VOLTERRA_BUDGET}"
        )
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
    if N == 0:
        return terms

    lags, weights = _delay_stencil(_atoms(model.phi, m), hist_steps, n, stages=(0.0,))
    reads = (hist_steps + np.arange(r_steps + 1))[:, None] - lags
    stencil = weights[0].transpose(0, 2, 1).reshape(-1, n)
    e1 = model.A.expm(dt)

    for _ in range(1, N + 1):
        v = rows[reads].reshape(r_steps + 1, len(stencil)) @ stencil
        new_rows = np.zeros((total, n))
        acc = np.zeros(n)
        for j in range(1, r_steps + 1):
            acc = e1 @ (acc + 0.5 * dt * v[j - 1]) + 0.5 * dt * v[j]
            new_rows[hist_steps + j] = acc
        terms.append(DelayState(new_rows[-1].copy(), _segment_of_rows(new_rows, dt, t, m, s.history.p)))
        rows = new_rows
    return terms


def volterra_apply(model: SystemModel, k: int, t: float, s: DelayState, dt: float | None = None) -> DelayState:
    """The k-th iterated Volterra term (k >= 1)."""
    if k < 1:
        raise ValueError("term index must be >= 1")
    return volterra_terms(model, k, t, s, dt)[k]


class DysonResult(NamedTuple):
    """Truncated perturbation series with its truncation indicator."""

    state: DelayState
    last_term_norm: float
    term_norms: tuple[float, ...]


def dyson_phillips(model: SystemModel, t: float, s: DelayState, N: int, dt: float | None = None) -> DysonResult:
    """Partial sum of the perturbation series up to the N-th Volterra term.

    The norm of the final term is reported as a truncation indicator.
    """
    terms = volterra_terms(model, N, t, s, dt)
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    norms = tuple(state_norm(term) for term in terms)
    return DysonResult(total, norms[-1], norms)
