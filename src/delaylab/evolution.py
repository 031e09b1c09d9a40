"""Time evolution of u'(t) = A u(t) + Phi(u_t) by two independent routes.

The first route is the method of steps by the exponential trapezoid ETD2:
exp(dt A) exactly, and the delay term at both ends of each step from the
piecewise-linear interpolant of the computed trajectory, read once per
node, as the end of one step is the start of the next.  The second is the
semigroup construction: the unperturbed block action (flowed head,
injected head plus shifted history) composed with the iterated Volterra
terms whose sum is the perturbation series of the full evolution.  On
the uniform grid both are constant-coefficient linear recurrences, solved
a block of steps per product through the Toeplitz of their impulse
response (``_impulse_toeplitz``) as b independent blocks of size s: the
n modes of A when the route splits (for the method of steps, when
``SystemModel.decoupled`` says so), else u as one block of size n.
Both routes agree up to discretisation error, which the test suite
asserts; ``mild_residual`` checks the integrated equation on a trajectory.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlowUpError, BudgetError, PreconditionError
from .functional import (
    DelayFunctional,
    _as_matrices,
    _Atoms,
    _atoms,
    _delay_stencil,
    _grid_position,
    _real_array,
    apply,
)
from .history import (
    COMPAT_TOL,
    DelayState,
    HistoryGrid,
    _batches,
    _frozen,
    _trapezoid_weights,
    history_injection,
    interp_uniform,
    nilpotent_shift,
    segment,
)

logger = logging.getLogger(__name__)

#: Abort threshold for the method of steps.
BLOWUP_GUARD = 1e12

#: Work cap for the Volterra iteration, in term count times quadrature nodes.
VOLTERRA_BUDGET = 4_000_000

#: Work cap for the method of steps, in trajectory entries (nodes times n).
STEPPING_BUDGET = 50_000_000

#: Off-diagonal part, relative to its largest entry, below which a weight is diagonal in A's eigenbasis.
DIAGONAL_TOL = 1e-10

#: Default step of both time-domain routes, for any n; the m = 64 history nodes lie on its grid.
DEFAULT_DT = 2.0**-10


@dataclass(frozen=True, eq=False)
class SpatialOperator:
    """The instantaneous operator A as an n x n matrix.

    One eigendecomposition of A is computed on first use and cached; the
    spectrum, the exponentials and their norms, the smallest singular
    values of lam - A, the modal coordinates of ``solve_steps`` and the
    check of supplied ``eigenvalues`` at construction (sorted, to 1e-8
    (1 + max |tag|)) all read it; ``spectrum`` returns the tags exactly.
    The matrix and the tags are copied at construction, and they and the
    cached decomposition are read-only.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(np.atleast_2d(_real_array(self.matrix, "spatial operator"))))
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("spatial operator must be a square matrix")
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("spatial operator has non-finite entries")
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", _frozen(np.array(self.eigenvalues, dtype=complex)))
            got = np.sort_complex(self._eigen[0])
            tagged = np.sort_complex(self.eigenvalues)
            scale = 1.0 + np.abs(tagged).max() if tagged.size else 1.0
            if len(got) != len(tagged) or np.abs(got - tagged).max() > 1e-8 * scale:
                raise ValueError("tagged eigenvalues do not match the matrix spectrum")

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @cached_property
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
        a = self.matrix
        if np.allclose(a, a.T, atol=1e-12 * (1.0 + np.abs(a).max())):
            w, q = np.linalg.eigh(a)
            eig = (w, q, q.T, True)
        else:
            w, v = np.linalg.eig(a)
            q = np.linalg.qr(v)[0]
            if np.linalg.norm(a @ q - q * w, 2) <= 1e-12 * (1.0 + np.linalg.norm(a, 2)):
                eig = (w, q, q.conj().T, True)
            elif np.linalg.cond(v) < 1e8:
                eig = (w, v, np.linalg.inv(v), False)
            else:
                eig = (w, None, None, False)
        return tuple(_frozen(x) if isinstance(x, np.ndarray) else x for x in eig)

    def modes(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(mu, Q) with A = Q diag(mu) Q^H and Q orthonormal, or None when
        A has no such basis (see ``_eigen``)."""
        mu, q, _, orthonormal = self._eigen
        return (mu, q) if orthonormal else None

    def spectrum(self) -> np.ndarray:
        """Eigenvalues of A: the tagged ones, or those of the cached
        decomposition."""
        return self.eigenvalues if self.eigenvalues is not None else self._eigen[0]

    def propagate(self, x: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Rows of exp(t A) x for each requested t."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        times = np.atleast_1d(np.asarray(times, dtype=float))
        w, v, vinv, _ = self._eigen
        if v is None:
            import scipy.linalg

            return np.array([scipy.linalg.expm(t * self.matrix) @ x for t in times])
        return np.real((np.exp(np.outer(times, w)) * (vinv @ x)) @ v.T)

    def expm(self, t) -> np.ndarray:
        """exp(t A); an array of times gives the stack of exponentials,
        shape t.shape + (n, n), from the same cached decomposition."""
        t = np.asarray(t, dtype=float)
        w, v, vinv, _ = self._eigen
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
        batches (``_singular_values``).
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
        """Singular value ``which`` of each matrix of stack(values), n^2 entries per matrix to ``_batches``."""
        out = np.empty(len(values))
        for sl in _batches(len(values), self.n * self.n):
            out[sl] = np.linalg.svd(stack(values[sl]), compute_uv=False)[:, which]
        return out


def scalar_operator(a: float) -> SpatialOperator:
    return SpatialOperator(np.array([[float(a)]]), eigenvalues=np.array([a], dtype=complex))


def diagonal_operator(eigs) -> SpatialOperator:
    eigs = np.atleast_1d(_real_array(eigs, "diagonal entries"))
    return SpatialOperator(np.diag(eigs), eigenvalues=eigs.astype(complex))


@dataclass(frozen=True, eq=False)
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

    @cached_property
    def decoupled(self):
        """(mu, V, V^-1, diag) when the equation splits into one scalar delay equation
        per eigenvalue mu_k of A (``_eigen``'s order), else None; computed once, read-only.
        Scalar weights give diag = None, and V = V^-1 = None when A keeps no
        eigenbasis, as det M still factors.  Matrix weights W_i split when A keeps
        an eigenbasis V and every V^-1 W_i V is diagonal up to DIAGONAL_TOL of its
        largest entry: diag[i, k] = (V^-1 W_i V)_kk, read off the grid-free atoms."""
        mu, v, vinv, _ = self.A._eigen
        weights = _atoms(self.phi, 1).weights
        if weights.ndim == 1:
            return mu, v, vinv, None
        if v is not None:
            modal = vinv @ weights @ v
            diag = _frozen(np.diagonal(modal, axis1=1, axis2=2).copy())
            off = np.abs(modal - diag[..., None] * np.eye(self.n)).max(axis=(1, 2))
            if np.all(off <= DIAGONAL_TOL * np.abs(modal).max(axis=(1, 2))):
                return mu, v, vinv, diag
        return None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Solution samples at t_j = -1 + j dt; the first 1/dt + 1 rows are
    the initial history, and 1/dt must be a positive integer (``_unit_steps``).
    ``values`` is a read-only view of the given array, not a copy.
    ``m`` and ``p`` set the grid used by ``segment``."""

    values: np.ndarray
    dt: float
    m: int = 64
    p: float = 2.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", _frozen(values[:, None] if values.ndim == 1 else values.view()))
        if self.dt is None:
            raise PreconditionError("a trajectory needs its step dt")
        if len(self.values) < _unit_steps(self.dt)[1] + 1:
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
    when there is none), and the atoms left to the delay term.  Quadrature
    nodes at sigma = 0 stay atoms: they read the frontier like any other node.
    """
    folded = 0.0
    if atoms.point_masses:
        at_zero = atoms.offsets >= -1e-12
        if at_zero.any():
            folded = atoms.weights[at_zero].sum(axis=0)
            atoms = atoms._replace(offsets=atoms.offsets[~at_zero], weights=atoms.weights[~at_zero])
    return folded, atoms


#: Size of the c k^2-entry map that solves a block of k steps in ``solve_steps``
#: and ``volterra_terms``: k = sqrt(_BLOCK_ENTRIES / c), at most the horizon.
_BLOCK_ENTRIES = 40_000
#: ``solve_steps`` keeps the modal state in a buffer of this many spans of the rows a block reads and writes.
_BUFFER_SPANS = 2

def _phi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e^x, phi_1(x) = (e^x - 1)/x and phi_2(x) = (e^x - 1 - x)/x^2 of a (b, s, s) stack.

    s = 1 elementwise: by exp and expm1 for |x| >= 1/2, below by phi_2 = sum_{j < 15} x^j/(j + 2)!,
    phi_1 = 1 + x phi_2 and e^x = 1 + x phi_1 (exact at x = 0).  s > 1: the top block row of
    exp([[x, I, 0], [0, 0, I], [0, 0, 0]]) (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011).
    """
    s = x.shape[-1]
    if s > 1:
        import scipy.linalg

        aug = np.zeros(x.shape[:-2] + (3 * s, 3 * s), dtype=x.dtype)
        aug[..., :s, :s], aug[..., : 2 * s, s:] = x, np.eye(2 * s)
        return tuple(np.split(scipy.linalg.expm(aug)[..., :s, :], 3, axis=-1))
    small = np.abs(x) < 0.5
    near, far = np.where(small, x, 0.0), np.where(small, 1.0, x)
    phi2 = np.polyval(1.0 / np.cumprod(np.arange(2.0, 17.0))[::-1], near)
    phi1, em1 = 1.0 + near * phi2, np.expm1(far)
    e = np.where(small, 1.0 + near * phi1, np.exp(far))
    return e, np.where(small, phi1, em1 / far), np.where(small, phi2, (em1 - far) / far**2)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:  # x @ y; for 1 x 1 blocks the broadcast product, far faster
    return x * y if x.shape[-1] == 1 else x @ y


def _etd2_block(a_eff: np.ndarray, atoms: _Atoms, per_unit: int, dt: float, block: int):
    """Lags and weights (b', s, L s), b' = 1 or b, of the stage-0 delay read D(p) = sum_l W_l z_{p - lags[l]}, and
    the (b, block s, (block + 3) s) map of ETD2 from [D(j0..j0 + block), z_{j0-1}, z_j0], D read on the nodes up to
    j0, to z_{j0+1..j0+block}.  ETD2 (Cox & Matthews, J. Comput. Phys. 176, 2002) is z_{j+1} = e^x z_j + alpha g_j +
    beta g_{j+1}, x = dt a, alpha = dt (phi_1 - phi_2)(x), beta = dt phi_2(x), g_j = D(j), g_{j+1} = D(j+1) + sum_q
    edge[q] z_{j+1-q}: the frontier atoms (sigma > -dt) extrapolate from (j - 1, j) instead of reading z_{j+1}.
    """
    lags, weights = _delay_stencil(atoms, per_unit)
    front = atoms.offsets * per_unit > -1.0
    front = _Atoms(atoms.offsets[front], atoms.weights[front], False)
    edge = np.zeros((3,) + weights.shape[1:], dtype=weights.dtype)
    q, then = _delay_stencil(front, per_unit, 1.0)
    edge[q + 1] += then
    q, now = _delay_stencil(front, per_unit)
    edge[q] -= now
    e, phi1, phi2 = _phi(dt * a_eff)
    alpha, beta = dt * (phi1 - phi2), dt * phi2
    near = np.stack([_mul(beta, edge[2]), e + _mul(beta, edge[1])])  # of z_{j-1} and z_j
    # z_{j+1} = sum_q C_q z_{j-q}: D(j) reads lag l, D(j+1) lag l - 1 (-1 cancels); lags >= block do not act
    back = np.concatenate((lags, lags - 1, [1, 0]))
    acts = (back >= 0) & (back < block)
    coefs, back = np.concatenate((_mul(alpha, weights), _mul(beta, weights), near))[acts], back[acts]
    b, s = alpha.shape[:2]
    # h[:, (i, a), m] = H_{i-m}[a, :] for m <= block, zero at m = block
    h = _impulse_toeplitz(back, coefs, block + 1).reshape(b, block + 1, -1)[:, :block].reshape(b, block * s, -1, s)
    # D(j0 + p) enters step p by alpha and step p - 1 by beta, z_j0 steps 0 and 1
    ends = np.stack([_mul(h[:, :, 0], near[0]), _mul(h[:, :, 0], near[1]) + _mul(h[:, :, 1], near[0])], axis=2)
    fused = np.concatenate((_mul(h.reshape(b, -1, s), alpha).reshape(h.shape), ends), axis=2)
    fused[:, :, 1 : block + 1] += _mul(h.reshape(b, -1, s), beta).reshape(h.shape)[:, :, :block]
    weights = weights.transpose(1, 2, 0, 3).reshape(weights.shape[1], s, len(lags) * s)
    return lags, weights, fused.reshape(b, block * s, -1)


def _impulse_toeplitz(lags: np.ndarray, coefs: np.ndarray, block: int) -> np.ndarray:
    """Lower-triangular block Toeplitz of the impulse response of
    z_{k+1} = sum_l C_l z_{k - lags[l]} + f_k over a block of steps.

    With C_l the (L, b, s, s) stack ``coefs`` and the nodes before the block
    zero, z_{i+1} = sum_{m <= i} H_{i-m} f_m for H_0 = Id and H_k = sum_l
    C_l H_{k-1-lags[l]}: (b, block s, block s), H_{i-m} at block (i, m).
    By doubling, H_K..H_{2K-1} read H_0..H_{K-1} through the lags and each
    other through the Toeplitz of the first K.
    """
    b, s = coefs.shape[1:3]

    def lower(h, count):  # h ends in a zero block, read above the diagonal
        offset = np.arange(count)[:, None] - np.arange(count)
        return h[np.where(offset >= 0, offset, -1)]

    h = np.zeros((2, b, s, s), dtype=coefs.dtype)
    h[0] = np.eye(s)
    while len(h) <= block:
        known = len(h) - 1
        back = np.arange(known, min(2 * known, block))[:, None] - 1 - lags
        forcing = _mul(coefs, h[np.where((back >= 0) & (back < known), back, -1)]).sum(axis=1)
        h = np.concatenate((h[:-1], _mul(lower(h, len(forcing)), forcing).sum(axis=1), h[-1:]))
    return np.ascontiguousarray(lower(h, block).transpose(2, 0, 3, 1, 4)).reshape(b, block * s, -1)


def _unit_steps(dt: float | None) -> tuple[float, int]:
    """The step (DEFAULT_DT when None) and 1/dt, which must be a positive integer."""
    dt = DEFAULT_DT if dt is None else dt
    inv = 1.0 / dt if dt > 0 else 0.0
    hist_steps = round(inv)
    if hist_steps < 1 or abs(inv - hist_steps) > 1e-6:
        raise PreconditionError(f"1/dt must be an integer, got dt={dt}")
    return dt, hist_steps


def solve_steps(model: SystemModel, init: DelayState, T: float, dt: float | None = None) -> Trajectory:
    """Advance the equation by the method of steps with ETD2 steps.

    The initial state must satisfy f(0) = x within COMPAT_TOL and 1/dt
    must be an integer (DEFAULT_DT when None).  Each step applies exp(dt A)
    exactly and reads the delay term at both ends from the piecewise-linear
    interpolant of the computed nodes (past the frontier it extrapolates
    from the last interval).  Point masses of Phi at delay 0 are folded
    into A.  Aborts with BlowUpError when the solution norm exceeds 1e12,
    reporting the first node past the guard, and with BudgetError, before
    any allocation, past STEPPING_BUDGET entries.

    On the uniform grid the steps are one linear recurrence (``_etd2_block``)
    in z = V^-1 u: (b, s) = (n, 1) modes when ``SystemModel.decoupled`` keeps
    V, else (1, n) with V = Id.  z is time major, zero past the frontier and kept
    for about two units of time (when full, the rows still read move to its front),
    so a block of K steps reads the delay term at its K + 1 nodes in one gather of
    row windows and one product.  Once per unit of time and at the horizon the new
    nodes are mapped back to u = Re(V z) and the guard is checked.  The frontier
    extrapolation is part of the map: the result is the stage-by-stage sweep's up to rounding.
    The block length (``_BLOCK_ENTRIES``) is part of the arithmetic: it moves the result at rounding level.
    """
    if not 0.0 < T < np.inf:
        raise PreconditionError(f"horizon T must be positive and finite, got {T}")
    dt, hist_steps = _unit_steps(dt)
    if init.n != model.n:
        raise ValueError("initial state dimension does not match the model")
    if not init.is_compatible():
        raise PreconditionError(
            f"initial state violates f(0) = x (defect {init.compat_defect():.3e} > {COMPAT_TOL})"
        )
    steps = int(np.ceil(T / dt - 1e-9))
    total = hist_steps + steps + 1
    n = model.n
    if total * n > STEPPING_BUDGET:
        raise BudgetError(f"stepping work {total * n} (nodes x n) exceeds budget {STEPPING_BUDGET}")
    history = init.history.value_at(-1.0 + np.arange(hist_steps + 1) * dt)
    history[-1] = init.head

    split = model.decoupled
    atoms = _atoms(model.phi, init.history.m)
    if split is not None and split[1] is not None:
        basis, rates, v, vinv = "modal", split[0][:, None, None], split[1], split[2]
        # weights (k, b', 1, 1): per mode (b' = n) or shared by the modes (b' = 1)
        weights = (atoms.weights[:, None] if split[3] is None else split[3])[..., None, None]
    else:
        basis, rates, v, vinv = "matrix", model.A.matrix[None], np.eye(n), np.eye(n)
        weights = _as_matrices(atoms.weights, n)[:, None]
    b, s = rates.shape[:2]
    folded, atoms = _fold_instantaneous(atoms._replace(weights=weights))
    block = max(1, min(steps, int(np.sqrt(_BLOCK_ENTRIES / (b * s * s)))))
    lags, weights, fused = _etd2_block(rates + folded, atoms, hist_steps, dt, block)
    shared, per = len(weights), b // len(weights)
    logger.debug("solve_steps: %s basis, n = %d, dt = %.6g, steps = %d, block = %d, lags = %d",
                 basis, n, dt, steps, block, len(lags))

    # z[r] is node base + r; the last block runs whole.  A block reads back max(lags) <= hist_steps + 1 rows, the
    # map-back trails by < hist_steps: a span of hist_steps + block + 2 rows holds what one block reads and writes
    kept = _BUFFER_SPANS * (hist_steps + block + 2)
    z = np.zeros((min(hist_steps + -(-steps // block) * block + 1, kept), n), dtype=np.result_type(vinv, fused))
    z[: hist_steps + 1] = history @ vinv.T
    values = np.empty((total, n))
    values[: hist_steps + 1] = history
    # windows[r] = z[r : r + block + 1], one contiguous run of the flat array
    windows = sliding_window_view(z.reshape(-1), (block + 1) * n)[::n]
    inputs = np.empty((shared, per, block + 3, s), dtype=z.dtype)
    base, done = 0, hist_steps  # node of z[0], rows of values filled
    with np.errstate(over="ignore", invalid="ignore"):
        for j0 in range(hist_steps, total - 1, block):
            if j0 + block + 1 - base > len(z):  # move the rows still read to the front, zero past the frontier
                first = min(j0 - lags.max(initial=1), done + 1)
                z[: j0 + 1 - first], z[j0 + 1 - first :], base = z[first - base : j0 + 1 - base], 0.0, first
            r = j0 - base
            gathered = windows[r - lags].reshape(len(lags), block + 1, shared, per, s).transpose(2, 0, 4, 1, 3)
            reads = weights @ gathered.reshape(shared, len(lags) * s, (block + 1) * per)
            inputs[:, :, : block + 1] = reads.reshape(shared, s, block + 1, per).transpose(0, 3, 2, 1)
            inputs[:, :, block + 1 :] = z[r - 1 : r + 1].reshape(2, shared, per, s).transpose(1, 2, 0, 3)
            new = (fused @ inputs.reshape(b, -1, 1)).reshape(b, block, s)
            z[r + 1 : r + block + 1] = new.transpose(1, 0, 2).reshape(block, n)
            stop = min(j0 + block, total - 1)
            if stop - done < hist_steps and stop < total - 1:
                continue
            rows = np.real(z[done + 1 - base : stop + 1 - base] @ v.T)
            values[done + 1 : stop + 1] = rows
            # a NaN or infinite row fails the comparison too
            bad = ~(np.linalg.norm(rows, axis=1) <= BLOWUP_GUARD)
            if bad.any():
                t = -1.0 + (done + int(np.argmax(bad))) * dt
                raise BlowUpError(f"solution norm exceeded {BLOWUP_GUARD:.0e} at t = {t + dt:.6g}; aborting")
            done = stop
    return Trajectory(values, dt, m=init.history.m, p=model.p)


def mild_residual(model: SystemModel, traj: Trajectory, t: float) -> float:
    """Defect of the integrated equation at time t.

    Evaluates ||u(t) - x - A * int_0^t u - Phi(int_0^t u_s ds)|| with trapezoid
    quadrature on the trajectory grid; the inner integral of the segments is a
    history-grid-valued quantity.  Requires t to be a grid node within the coverage.
    The quadrature error is O(dt^2 ||A||) when the start excites stiff modes, however exact u.
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
        return s
    head = A.propagate(s.head, np.array([t]))[0]
    hist = history_injection(t, s.head, A, m=s.history.m, p=s.history.p) + nilpotent_shift(
        t, s.history
    )
    return DelayState(head, hist)


def volterra_terms(model: SystemModel, N: int, t: float, s: DelayState, dt: float | None = None) -> list[DelayState]:
    """Iterated Volterra terms W_0(t) s, ..., W_N(t) s.

    W_0 is the unperturbed block action and W_k(t) s = int_0^t
    T_0(t - r) B W_{k-1}(r) s dr with B(x, f) = (Phi(f), 0), discretised
    by composite trapezoid with the trajectory step.  The integrals are
    accumulated through the exact one-step propagator E = exp(dt A) as the
    recurrence acc_{k+1} = E acc_k + dt/2 (E v_k + v_{k+1}), which
    evaluates the same quadrature sums without re-nesting them.  The delay
    term v of every node reads the previous term's rows through the
    stage-0 delay stencil of ``solve_steps``, in one product per term.
    Its forcing is then known, and for any Phi, split or not, the recurrence
    decouples into the modes of an eigenbasis that ``_eigen`` keeps; through the impulse
    response E^k of its one lag (``_impulse_toeplitz``) each term is
    solved a block of steps per product, mapped back once per term.
    """
    if not t >= 0:
        raise PreconditionError("time must be nonnegative")
    if N < 0:
        raise PreconditionError(f"term count must be nonnegative, got N = {N}")
    dt, hist_steps = _unit_steps(dt)
    r_steps = round(t / dt)
    if abs(t - r_steps * dt) > 1e-9:
        raise PreconditionError("t must be a multiple of dt for the Volterra quadrature")
    if (N + 1) * max(r_steps, 1) > VOLTERRA_BUDGET:
        raise BudgetError(f"Volterra work {(N + 1) * r_steps} exceeds budget {VOLTERRA_BUDGET}")
    n, m = model.n, s.history.m
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

    lags, weights = _delay_stencil(_atoms(model.phi, m), hist_steps)
    reads = (hist_steps + np.arange(r_steps + 1))[:, None] - lags
    stencil = _as_matrices(weights, n).transpose(0, 2, 1).reshape(-1, n)
    mu, v, vinv, _ = model.A._eigen
    basis, prop = ("modal", np.exp(dt * mu)[:, None, None]) if v is not None else ("matrix", model.A.expm(dt)[None])
    if v is None:
        v = vinv = np.eye(n)
    b, size = prop.shape[:2]
    block = max(1, min(r_steps, int(np.sqrt(_BLOCK_ENTRIES / (b * size * size)))))
    response = _impulse_toeplitz(np.zeros(1, dtype=int), prop[None], block)
    logger.debug(
        "volterra_terms: %s basis, n = %d, dt = %.6g, steps = %d, block = %d, terms = %d",
        basis, n, dt, r_steps, block, N,
    )
    # the last block runs whole on zero forcing; rows past t are dropped
    forcing = np.zeros((b, -(-r_steps // block) * block, size), dtype=np.result_type(prop, vinv))
    for _ in range(1, N + 1):
        w = (rows[reads].reshape(r_steps + 1, -1) @ stencil @ vinv.T).reshape(-1, b, size).transpose(1, 0, 2)
        forcing[:, :r_steps] = 0.5 * dt * (w[:, :-1] @ prop.transpose(0, 2, 1) + w[:, 1:])
        z = np.zeros((b, forcing.shape[1] + 1, size), dtype=forcing.dtype)
        for j0 in range(0, r_steps, block):
            # the node before the block enters as E z_j0 in the first forcing
            forcing[:, j0] += (prop @ z[:, j0, :, None])[..., 0]
            inputs = forcing[:, j0 : j0 + block].reshape(b, -1, 1)
            np.matmul(response, inputs, out=z[:, j0 + 1 : j0 + block + 1].reshape(b, -1, 1))
        rows = np.zeros((total, n))
        rows[hist_steps + 1 :] = np.real(z[:, 1 : r_steps + 1].transpose(1, 0, 2).reshape(-1, n) @ v.T)
        terms.append(DelayState(rows[-1], segment(Trajectory(rows, dt, m, s.history.p), t)))
    return terms
