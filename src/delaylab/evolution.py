"""Time evolution of u'(t) = A u(t) + Phi(u_t) by two independent routes.

The first route is the method of steps: a classical 4-stage explicit
Runge-Kutta sweep where delayed values come from piecewise-linear
interpolation of the already-computed trajectory.  On the uniform grid
that interpolation is a fixed stencil of lags and weights, so one step is
a constant-coefficient linear recurrence, assembled once and solved a
block of steps at a time by one code path for b independent blocks of
size s: when A has an eigenbasis and the delay weights are multiples of
Id, the n modal coordinates of A are n blocks of size 1, one scalar
equation per mode, and otherwise u is one block of size n.  The
eigendecomposition has one home, cached on ``SpatialOperator``.  The
second route is the semigroup construction: the unperturbed block action
(flowed head, injected head plus shifted history) composed with the
iterated Volterra terms whose sum is the perturbation series of the full
evolution.  Both produce the same states up to discretisation error,
which the test suite asserts; ``mild_residual`` checks the integrated
form of the equation directly on a trajectory.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

logger = logging.getLogger(__name__)

#: Abort threshold for the explicit integrator.
BLOWUP_GUARD = 1e12

#: Work cap for the Volterra iteration, in term count times quadrature nodes.
VOLTERRA_BUDGET = 4_000_000


@dataclass
class SpatialOperator:
    """The instantaneous operator A as an n x n matrix.

    When ``eigenvalues`` are supplied they must match the matrix spectrum
    to 1e-8.  One eigendecomposition of A is computed on first use and
    cached; the spectrum, the exponentials and their norms, the smallest
    singular values of lam - A and the modal coordinates of
    ``solve_steps`` all read it.
    """

    matrix: np.ndarray
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
        self._eig = None

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def _eigen(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None, bool]:
        """A = V diag(mu) V^-1 as (mu, V, V^-1, orthonormal), computed once.

        V is orthonormal for a symmetric A (``eigh``; every 1 x 1 A) and
        for a normal A; then V^-1 = V^H.  For a normal A the ``eig``
        basis is orthonormalised by QR, which keeps the eigenvectors of
        simple eigenvalues and makes those of a repeated one orthonormal,
        and accepted when ||A Q - Q diag(mu)||_2 <= 1e-12 (1 + ||A||_2).
        Otherwise the ``eig`` basis is kept with its inverse when its
        condition number is below 1e8, and dropped (V = V^-1 = None) above,
        where exponentials fall back to scaling and squaring.
        """
        if self._eig is None:
            a = self.matrix
            if np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
                w, q = np.linalg.eigh(a)
                self._eig = (w, q, q.T, True)
            else:
                w, v = np.linalg.eig(a)
                q = np.linalg.qr(v)[0]
                if np.linalg.norm(a @ q - q * w, 2) <= 1e-12 * (1.0 + np.linalg.norm(a, 2)):
                    self._eig = (w, q, q.conj().T, True)
                elif np.linalg.cond(v) < 1e8:
                    self._eig = (w, v, np.linalg.inv(v), False)
                else:
                    self._eig = (w, None, None, False)
        return self._eig

    def modes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(mu, Q) with A = Q diag(mu) Q^H and Q orthonormal, or None when
        A has no such basis (see ``_eigen``)."""
        mu, q, _, orthonormal = self._eigen()
        return (mu, q) if orthonormal else None

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A: the tagged ones, or those of the cached
        decomposition."""
        return self.eigenvalues if self.eigenvalues is not None else self._eigen()[0]

    def propagate(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows of exp(t A) x for each requested t."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        times = np.atleast_1d(np.asarray(times, dtype=float))
        w, v, vinv, _ = self._eigen()
        if v is None:
            import scipy.linalg

            return np.array([scipy.linalg.expm(t * self.matrix) @ x for t in times])
        return np.real((np.exp(np.outer(times, w)) * (vinv @ x)) @ v.T)

    def expm(self, t) -> np.ndarray:
        """exp(t A); an array of times gives the stack of exponentials,
        shape t.shape + (n, n), from the same cached decomposition."""
        t = np.asarray(t, dtype=float)
        w, v, vinv, _ = self._eigen()
        if v is None:
            import scipy.linalg

            stack = [scipy.linalg.expm(s * self.matrix) for s in t.ravel()]
            return np.array(stack).reshape(t.shape + (self.n, self.n))
        return np.real((v * np.exp(t[..., None] * w)[..., None, :]) @ vinv)

    def min_singular(self, lam):
        """Smallest singular value of (lam - A), 1/||R(lam, A)||, for a
        scalar lam or every entry of an array.

        With orthonormal modes it is the distance from lam to the
        spectrum, min_k |lam - mu_k|; otherwise one SVD per lam, in
        batches of about 4M matrix entries.
        """
        lams = np.asarray(lam, dtype=complex)
        flat = lams.ravel()
        if self.modes() is not None:
            out = np.abs(flat[:, None] - self.spectrum()).min(axis=1)
        else:
            out = self._singular_values(flat, lambda z: z[:, None, None] * np.eye(self.n) - self.matrix, -1)
        return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)

    def expm_norm(self, times) -> np.ndarray:
        """||exp(t A)||_2 for every t of a flat array: max_k |e^(t mu_k)| with
        orthonormal modes, otherwise one SVD of exp(t A) per t."""
        t = np.asarray(times, dtype=float).ravel()
        if self.modes() is None:
            return self._singular_values(t, self.expm, 0)
        return np.exp(np.outer(t, self.modes()[0].real)).max(axis=1)

    def _singular_values(self, values: np.ndarray, stack, which: int) -> np.ndarray:
        """Singular value ``which`` of each matrix of stack(values), in batches of about 4M entries."""
        out = np.empty(len(values))
        chunk = max(256, 4_000_000 // (self.n * self.n))
        for start in range(0, len(values), chunk):
            out[start : start + chunk] = np.linalg.svd(stack(values[start : start + chunk]), compute_uv=False)[:, which]
        return out


def scalar_operator(a: float) -> SpatialOperator:
    return SpatialOperator(np.array([[float(a)]]), eigenvalues=np.array([a], dtype=complex))


def diagonal_operator(eigs) -> SpatialOperator:
    eigs = np.atleast_1d(np.asarray(eigs, dtype=float))
    return SpatialOperator(np.diag(eigs), eigenvalues=eigs.astype(complex))


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

    @property
    def scalar_symbol(self) -> bool:
        """Whether every weight of Phi, and so its characteristic matrix,
        is a scalar times Id: whether its atoms hold scalars (``_atoms``;
        the grid only places the Cantor atoms)."""
        return _atoms(self.phi, 1).weights.ndim == 1

    def char_matrix(self, lam: complex) -> np.ndarray:
        return char_matrix(self.phi, lam, dim=self.n)

    def default_dt(self) -> float:
        # Explicit stepping limit dt <= 1/||A||_inf <= 1/rho(A), capped at 1e-3
        # and rounded down to 1/integer; h^2/4 for the Dirichlet Laplacian.
        return 1.0 / np.ceil(max(1000.0, np.abs(self.A.matrix).sum(axis=1).max()))


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


def _fold_instantaneous(atoms: _Atoms) -> tuple[np.ndarray | float, _Atoms]:
    """Split the point masses of Phi at delay 0 off the delay term.

    Returns their summed weight, which joins the instantaneous term (0.0
    when there is none), and the atoms left to the delay term, none when
    their weights all vanish.  Quadrature nodes at sigma = 0 stay atoms:
    they read the frontier like any other node.
    """
    folded = 0.0
    if atoms.point_masses:
        at_zero = atoms.offsets >= -1e-12
        if at_zero.any():
            folded = atoms.weights[at_zero].sum(axis=0)
            atoms = atoms._replace(offsets=atoms.offsets[~at_zero], weights=atoms.weights[~at_zero])
    if not np.any(atoms.weights):
        atoms = atoms._replace(offsets=atoms.offsets[:0], weights=atoms.weights[:0])
    return folded, atoms


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

#: Entries of the block response in ``solve_steps``; the block length is
#: capped so that the response stays about this size.
_BLOCK_ENTRIES = 100_000


def _delay_stencil(
    atoms: _Atoms, steps_per_unit: int, stages: tuple[float, ...] = _RK4_STAGES
) -> tuple[np.ndarray, np.ndarray]:
    """Lags and weights with which the atoms of the delay term read a
    uniform trajectory.

    With ``steps_per_unit`` nodes per unit time, the delay term at stage
    offset c of the step leaving node j is sum_l weights[s, l] u_{j - lags[l]}
    for c = stages[s]: the piecewise-linear interpolant at position
    j + c + offset * steps_per_unit.  Positions past node j - 1 read the
    interval (j - 1, j) with a fraction above 1, which extrapolates from
    it, so a stage never reads a node that is not yet computed.  Only lags
    that carry a nonzero weight in some stage are kept, in ascending order.
    Each weight has the shape of one atom weight: a scalar standing for a
    multiple of Id, or any stack of matrices.
    """
    offsets, values = atoms.offsets, atoms.weights
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
    weights = np.zeros((len(stages), len(lags)) + values.shape[1:])
    scale = coef[keep].reshape((-1,) + (1,) * (values.ndim - 1))
    np.add.at(weights, (stage[keep], where), scale * values[atom[keep]])
    return lags, weights


def _step_recurrence(a_eff: np.ndarray, lags: np.ndarray, weights: np.ndarray, dt: float):
    """Lags and coefficients C_l of one RK4 step, u_{j+1} = sum_l C_l u_{j-l}.

    ``a_eff`` is the instantaneous term of b independent blocks as a
    (b, s, s) stack; the stage weights of the delay stencil broadcast
    against it, and every C_l is such a stack.  The stages are composed as
    maps of the stored nodes: the current node u_j is the identity at lag 0
    and the delay stencil supplies each stage's delayed values, so the
    formulas are those of the stage-by-stage step.  Lag 0 is always
    present and comes first.
    """
    all_lags = np.union1d(lags, [0])
    delay = np.zeros((len(_RK4_STAGES), len(all_lags)) + a_eff.shape, dtype=np.result_type(a_eff, weights))
    delay[:, np.searchsorted(all_lags, lags)] = weights
    node = np.zeros_like(delay[0])
    node[0] = np.eye(a_eff.shape[-1])
    half = 0.5 * dt
    k1 = a_eff @ node + delay[0]
    k2 = a_eff @ (node + half * k1) + delay[1]
    k3 = a_eff @ (node + half * k2) + delay[1]
    k4 = a_eff @ (node + dt * k3) + delay[2]
    return all_lags, node + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _block_response(c0: np.ndarray, c1: np.ndarray, block: int) -> np.ndarray:
    """Response of s_{k+1} = C_0 s_k + C_1 s_{k-1} + f_k over a block.

    C_0 and C_1 are (b, s, s) stacks of independent blocks.  Row k s + i
    of block b holds the coefficients with which entry i of s_{k+1} reads
    entry j of input c of (s_0, s_{-1}, f_0, ..., f_{block-1}), at column
    c s + j.  With P_k and Q_k the responses of s_k to s_0 and to s_{-1},
    s_{k+1} reads f_i through P_{k-i}: the forcing part is the
    lower-triangular Toeplitz of P, whose row k (P_k, ..., P_0, 0, ..., 0)
    is a window of (P_{block-1}, ..., P_0, 0, ..., 0) read backwards.
    """
    # seq[k + 1] = (P_k, Q_k), from P_-1 = 0 and Q_-1 = Id
    seq = np.zeros((block + 2, 2) + c0.shape, dtype=c0.dtype)
    seq[1, 0] = seq[0, 1] = np.eye(c0.shape[-1])
    for k in range(1, block + 1):
        seq[k + 1] = c0 @ seq[k] + c1 @ seq[k - 1]
    reversed_p = np.concatenate((seq[block:0:-1, 0], np.zeros_like(seq[2:-1, 0])))
    toeplitz = sliding_window_view(reversed_p, block, axis=0)[::-1]
    out = np.concatenate((seq[2:], np.moveaxis(toeplitz, -1, 1)), axis=1)
    b, s = c0.shape[:2]
    return out.transpose(2, 0, 3, 1, 4).reshape(b, block * s, (block + 2) * s)


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
    It steps z = V^-1 u as b independent blocks of size s with (b, s, s)
    stacks C_l.  When A = V diag(mu) V^-1 has an eigenbasis (any that
    ``SpatialOperator._eigen`` keeps) and ``SystemModel.scalar_symbol``
    holds, the model decouples into (b, s) = (n, 1) modes; otherwise
    V = Id and (b, s) = (1, n).  The steps run in blocks no longer than
    the shortest lag above 1: those lags only read nodes before the
    block, so their forcing is one gather and one batched product, and
    the precomputed block response to the first two nodes and the forcing
    gives the block's nodes in one more.  Each block is mapped back to
    u = Re(V z), on which the guard is checked.  The frontier
    extrapolation is part of the map, so the result is that of the
    stage-by-stage sweep up to rounding.
    """
    if not 0.0 < T < np.inf:
        raise PreconditionError(f"horizon T must be positive and finite, got {T}")
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
    history = init.history.value_at(-1.0 + np.arange(hist_steps + 1) * dt)
    history[-1] = init.head

    mu, v, vinv, _ = model.A._eigen()
    modal = v is not None and model.scalar_symbol
    rates, v, vinv = (mu[:, None, None], v, vinv) if modal else (model.A.matrix[None], np.eye(n), np.eye(n))
    b, s = rates.shape[:2]
    atoms = _atoms(model.phi, init.history.m)
    # one s x s weight per atom, shared by the b blocks
    folded, atoms = _fold_instantaneous(atoms._replace(weights=_as_matrices(atoms.weights, s)[:, None]))
    lags, weights = _delay_stencil(atoms, hist_steps)
    lags, coefs = _step_recurrence(rates + folded, lags, weights, dt)

    far_lags = lags[lags > 1]
    # f_k = sum_l C_l z_{k-l}: (b, s, L s) against the gathered lags
    far_coefs = coefs[lags > 1].transpose(1, 2, 0, 3).reshape(b, s, -1)
    c1 = coefs[lags == 1].sum(axis=0)  # zero when no stage reads lag 1
    cap = max(1, int(np.sqrt(1.0 + _BLOCK_ENTRIES / (b * s * s)) - 1.0))
    block = min(int(far_lags[0]) if far_lags.size else steps, steps, cap)
    response = _block_response(coefs[0], c1, block)
    logger.debug(
        "solve_steps: %s basis, n = %d, dt = %.6g, steps = %d, block = %d, lags = %d",
        "modal" if modal else "matrix", n, dt, steps, block, len(lags),
    )

    # the last block runs whole; rows past the horizon are dropped
    blocks = -(-steps // block)
    z = np.empty((b, hist_steps + blocks * block + 1, s), dtype=np.result_type(vinv, coefs))
    z[:, : hist_steps + 1] = (history @ vinv.T).reshape(-1, b, s).transpose(1, 0, 2)
    values = np.empty((total, n))
    values[: hist_steps + 1] = history
    # windows[:, r, j, k] = z[:, r + k, j]: a lag reads one window, contiguous when s = 1
    windows = sliding_window_view(z, block, axis=1)
    inputs = np.zeros((b, block + 2, s), dtype=z.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(hist_steps, total - 1, block):
            inputs[:, 0], inputs[:, 1] = z[:, j0], z[:, j0 - 1]
            gathered = windows[:, j0 - far_lags].reshape(b, -1, block)  # empty without far lags
            np.matmul(far_coefs, gathered, out=inputs[:, 2:].transpose(0, 2, 1))
            np.matmul(response, inputs.reshape(b, -1, 1), out=z[:, j0 + 1 : j0 + block + 1].reshape(b, -1, 1))
            stop = min(j0 + block, total - 1) + 1
            rows = np.real(z[:, j0 + 1 : stop].transpose(1, 0, 2).reshape(-1, n) @ v.T)
            values[j0 + 1 : stop] = rows
            # a NaN or infinite row fails the comparison too
            bad = ~(np.linalg.norm(rows, axis=1) <= BLOWUP_GUARD)
            if bad.any():
                t = -1.0 + (j0 + int(np.argmax(bad))) * dt
                raise BlowUpError(
                    f"solution norm exceeded {BLOWUP_GUARD:.0e} at t = {t + dt:.6g}; aborting"
                )
    return Trajectory(values, dt, m=init.history.m, p=model.p)


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
        raise PreconditionError(f"term count must be nonnegative, got N = {N}")
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

    lags, weights = _delay_stencil(_atoms(model.phi, m), hist_steps, stages=(0.0,))
    reads = (hist_steps + np.arange(r_steps + 1))[:, None] - lags
    stencil = _as_matrices(weights[0], n).transpose(0, 2, 1).reshape(-1, n)
    e1 = model.A.expm(dt)

    for _ in range(1, N + 1):
        v = rows[reads].reshape(r_steps + 1, len(stencil)) @ stencil
        new_rows = np.zeros((total, n))
        acc = np.zeros(n)
        for j in range(1, r_steps + 1):
            acc = e1 @ (acc + 0.5 * dt * v[j - 1]) + 0.5 * dt * v[j]
            new_rows[hist_steps + j] = acc
        terms.append(DelayState(new_rows[-1].copy(), segment(Trajectory(new_rows, dt, m, s.history.p), t)))
        rows = new_rows
    return terms


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
