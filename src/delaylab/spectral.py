"""Frequency-domain analysis of the delay equation.

Covers the characteristic matrix M(lam) = lam - A - T(lam), T(lam) =
Phi(e^(lam .)) the symbol of ``functional._symbol``, built in one place
(``_char_matrix_stack``) from symbol values its caller computes once, root
location by grid-seeded Newton iteration on log det M, an
argument-principle count of the same log-derivative tr(M^-1 M') (Jacobi's
formula; when the model splits, ``SystemModel.decoupled``, both factor
over the eigenvalues mu_k of A into sums of log(lam - T_k(lam) - mu_k)) run beside
the search as an independent oracle (``find_roots`` does not call it;
it refuses to count when a root lies next to the contour), the explicit resolvent of the block delay operator, the integral
smallness estimate for the perturbation, and the frequency-domain
stability certificate that compares the delay term's norm along a
vertical line with the reciprocal resolvent norm of A (for normal A the
distance to its spectrum, with no SVD).

Every model is real (A, the delay weights and the density samples are
float; the constructors reject complex data), so det M(conj lam) = conj
det M(lam) and the roots are closed under conjugation: the root search
and the count evaluate log det only where Im lam >= 0 and get the lower
half-plane by conjugation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, NearSpectrumError, NoResultError, PreconditionError
from .evolution import SystemModel, Trajectory, solve_steps
from .functional import (
    _as_matrices,
    _atoms,
    _complex,
    _exp_axes,
    _grid,
    _grid_batches,
    _grid_weights,
    _symbol,
    apply,
    char_norm_profile,
    total_variation,
)
from .history import (
    DelayState,
    HistoryGrid,
    _batches,
    _lp_integrals,
    _lp_norms,
    _segments,
    _shifted_weights,
    _trapezoid_weights,
    lp_norm,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform samples of [-omega_max, omega_max]; count is odd and at
    least 3, so that omega = 0 is always included."""

    omega_max: float = 200.0
    count: int = 4001

    def __post_init__(self):
        if not 0 < self.omega_max < np.inf:
            raise PreconditionError(f"omega_max must be positive and finite, got {self.omega_max}")
        if self.count < 3 or self.count % 2 == 0:
            raise PreconditionError(f"count must be an odd integer >= 3, got {self.count}")

    @property
    def samples(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.count)


@dataclass(frozen=True)
class Region:
    """Search rectangle [re_min, re_max] x [-im_max, im_max]."""

    re_min: float
    re_max: float
    im_max: float

    def __post_init__(self):
        if not -np.inf < self.re_min < self.re_max < np.inf:
            raise PreconditionError(f"need finite re_min < re_max, got {self.re_min}, {self.re_max}")
        if not 0 < self.im_max < np.inf:
            raise PreconditionError(f"im_max must be positive and finite, got {self.im_max}")

    def contains(self, lam: complex) -> bool:
        """Whether lam lies in the rectangle, widened by 1e-8 on every side."""
        return (
            self.re_min - 1e-8 <= lam.real <= self.re_max + 1e-8
            and abs(lam.imag) <= self.im_max + 1e-8
        )


#: Root search: largest accepted Newton residual, distance below which two
#: roots merge, Newton iterations per seed, and the cap on seed-grid points.
ROOT_TOL = 1e-9
MERGE_TOL = 1e-6
NEWTON_MAX_ITER = 50
ROOT_BUDGET = 400_000


@dataclass(frozen=True)
class RootReport:
    """Characteristic roots found in a region.

    ``residuals`` are Newton residuals |det| / |det'| at each root (the
    determinant normalised by its local gradient, a distance-like
    quantity), computed as 1/|d/dlam log det| from the analytic
    derivative and 0 at an exact zero of det; every listed root
    satisfies residual <= ROOT_TOL and ``rightmost`` maximises the real
    part.
    """

    roots: list[complex]
    residuals: list[float]
    region: Region
    rightmost: complex | None

    def to_dict(self) -> dict:
        return {
            "roots": [[z.real, z.imag] for z in self.roots],
            "residuals": list(self.residuals),
            "region": {"re_min": self.region.re_min, "re_max": self.region.re_max, "im_max": self.region.im_max},
            "rightmost": None if self.rightmost is None else [self.rightmost.real, self.rightmost.imag],
        }


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of the frequency-domain stability certificate at Re = alpha.

    ``lhs`` is the grid supremum of the delay term's characteristic norm,
    ``rhs`` the reciprocal of the supremum of ||R(alpha + i omega, A)||:
    exact, min_k |alpha - Re mu_k|, when A has an orthonormal eigenbasis,
    and read on the frequency grid otherwise; the certificate holds when
    lhs < rhs and every eigenvalue of A lies left of the line.
    ``s0_estimate`` is the real part of the rightmost characteristic root
    found near the line and ``omega0_estimate`` a decay-rate fit from a
    trajectory; ``a_normal`` records whether A has an orthonormal
    eigenbasis, the decision that makes ``rhs`` exact (for non-normal A
    the eigenvalue-based line check is only a surrogate).
    """

    alpha: float
    lhs: float
    rhs: float
    criterion_holds: bool
    s0_estimate: float | None
    omega0_estimate: float | None
    p: float
    lhs_analytic_bound: float
    a_normal: bool

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Characteristic operator
# ---------------------------------------------------------------------------


def _char_matrix_stack(model: SystemModel, lams: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Stack of M(lam) = lam - A - T(lam) over a flat array of lam, from the
    symbol values T(lam) (``_symbol``) the caller has computed."""
    return lams[:, None, None] * np.eye(model.n) - model.A.matrix - _as_matrices(t, model.n)


def _log_det(
    model: SystemModel, re, im, derivative: bool = True, level: bool = True
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """L = log|det M(lam)| = Re log det M(lam) and D = d/dlam log det M(lam)
    = tr(M^-1 M') for every lam = re + i im of the grid the two real parts
    broadcast to (``functional._grid``: an (R, 1) and a (1, C) part give an
    R x C grid, two lists a list), M(lam) = lam - A - T(lam); arrays of
    the grid's shape, L None unless ``level`` and D None unless
    ``derivative``.  Without ``level`` a split model skips the n
    logarithms per lam of L; the slogdet path computes L all the same, as
    its D reads where L is finite.  D is the same bits either way.

    When the model splits (``SystemModel.decoupled``) det M = prod_k g_k,
    g_k = lam - T_k(lam) - mu_k, so L = sum_k log|g_k| and D = sum_k (1 -
    T_k'(lam)) / g_k: O(n) per lam, without overflow.  T_k is the scalar
    symbol (``_symbol``) over ``A.spectrum()``, or sum_i diag[i, k]
    e^(lam sigma_i) over the split's own mu_k.  Otherwise L comes from
    ``slogdet`` of the matrix stack and D from one solve with M' = I -
    T'(lam); D is NaN where M is singular or not finite.  The grid goes to
    ``_batches`` by rows, each lam counting n entries when the model
    splits, else n^2; every exponential is read off the axes of its batch
    (``_exp_axes``), so a value depends neither on its batch nor on the
    grid it came in.
    """
    re, im, shape = _grid(re, im)
    n = model.n
    split = model.decoupled
    L = np.empty(math.prod(shape)) if level or split is None else None
    D = np.empty(math.prod(shape), dtype=complex) if derivative else None
    diag = None if split is None else split[3]
    offsets = None if diag is None else _atoms(model.phi).offsets
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for points, re_rows, im_rows in _grid_batches(re, im, shape, n if split is not None else n * n):
            lam = _complex(re_rows, im_rows).ravel()
            if diag is None:
                t, tp = _symbol(model.phi, re_rows, im_rows, derivative=derivative)
            else:
                # einsum sums each lam in one order, whatever the batch; BLAS does not
                profile = _exp_axes(re_rows, im_rows, offsets).reshape(len(lam), -1)
                t = np.einsum("wi,ik->wk", profile, diag)
                tp = np.einsum("wi,ik->wk", profile * offsets, diag) if derivative else None
            if split is not None:
                gaps = (lam[:, None] - t.reshape(len(lam), -1)) - (model.A.spectrum() if diag is None else split[0])
                if L is not None:
                    L[points] = np.log(np.abs(gaps)).sum(axis=1)
                if derivative:
                    D[points] = ((1.0 - tp.reshape(len(lam), -1)) / gaps).sum(axis=1)
                continue
            stack = _char_matrix_stack(model, lam, t)
            L[points] = np.linalg.slogdet(stack)[1]
            if derivative:
                ok = np.isfinite(L[points])
                d = np.full(len(lam), np.nan, dtype=complex)
                d[ok] = np.trace(np.linalg.solve(stack[ok], np.eye(n) - _as_matrices(tp[ok], n)), axis1=1, axis2=2)
                D[points] = d
    return (L.reshape(shape) if level else None), (None if D is None else D.reshape(shape))


# ---------------------------------------------------------------------------
# Root search
# ---------------------------------------------------------------------------


def _newton_polish(model: SystemModel, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on det from every seed at once, through its
    logarithmic derivative: each step 1/D = det/det' is halved (up to 8
    times) while L = log|det| grows.  Returns the iterates and their
    residuals 1/|D| = |det|/|det'|, which are 0 at an exact zero of det
    and NaN where the iteration failed."""
    lam = np.array(seeds, dtype=complex)
    L, D = _log_det(model, lam.real, lam.imag)
    failed = np.zeros(lam.shape, dtype=bool)
    live = np.ones(lam.shape, dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        live &= (L != -np.inf) & np.isfinite(D) & (D != 0)
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        step = 1.0 / D[idx]
        todo = np.arange(idx.size)
        for _ in range(9):
            trial = lam[idx[todo]] - step[todo]
            trial_L, trial_D = _log_det(model, trial.real, trial.imag)
            better = trial_L <= L[idx[todo]]
            done = idx[todo[better]]
            lam[done] -= step[todo[better]]
            L[done], D[done] = trial_L[better], trial_D[better]
            todo = todo[~better]
            if not todo.size:
                break
            step[todo] *= 0.5
        failed[idx[todo]] = True
        live[idx[todo]] = False
        live[idx[np.abs(step) <= 1e-13 * (1.0 + np.abs(lam[idx]))]] = False
    exact = L == -np.inf
    failed |= ~exact & ~(np.isfinite(D) & (D != 0))
    with np.errstate(divide="ignore"):
        residuals = np.where(exact, 0.0, 1.0 / np.abs(D))
    residuals[failed] = np.nan
    return lam, residuals


def find_roots(model: SystemModel, region: Region, spacing: float = 0.05) -> RootReport:
    """Characteristic roots inside a rectangle.

    The model is real, so det M(conj lam) = conj det M(lam) and the roots
    are closed under conjugation.  The seed grid is exactly symmetric
    about the real axis: log|det| is evaluated on its columns with Im lam
    >= 0 only, passed as their axes (a column of real parts and a row of
    imaginary parts, so every exponential is computed once per axis
    value), and every local minimum of the full grid in these columns
    (their 3 x 3 neighbourhoods read one mirrored lower column) is
    polished by damped Newton.
    Iterates that leave the rectangle or fail ``ROOT_TOL`` are discarded;
    each accepted root off the real axis brings its conjugate with the
    same residual, and one within MERGE_TOL / 2 of the axis is reported
    real, so the listed roots are exactly closed under conjugation.
    Duplicates within ``MERGE_TOL`` merge, the smallest residual kept.
    Roots are sorted by descending real part.
    """
    if not spacing > 0:
        raise PreconditionError(f"seed-grid spacing must be positive, got {spacing}")
    re_count = max(4, int(np.ceil((region.re_max - region.re_min) / spacing)) + 1)
    im_count = max(4, int(np.ceil(2.0 * region.im_max / spacing)) + 1)
    if re_count * im_count > ROOT_BUDGET:
        raise BudgetError(
            f"root search grid {re_count} x {im_count} exceeds budget {ROOT_BUDGET}; "
            "coarsen the spacing or shrink the region"
        )
    # columns half.. have Im >= 0 (the middle one Im = 0 when im_count is
    # odd); column j < half is the mirror of column im_count - 1 - j
    half = im_count // 2
    cols = im_count - half
    res = np.linspace(region.re_min, region.re_max, re_count)
    upper_ims = np.linspace(-region.im_max, region.im_max, im_count)[half:]
    if im_count % 2:
        upper_ims[0] = 0.0
    upper_level = _log_det(model, res[:, None], upper_ims[None, :], derivative=False)[0]
    upper_level[np.isnan(upper_level)] = np.inf

    # the 3 x 3 scan of the upper columns reads one lower column, the mirror
    # of upper column im_count % 2 (for odd im_count the real axis mirrors itself)
    padded = np.full((re_count + 2, cols + 2), np.inf)
    padded[1:-1, 0] = upper_level[:, im_count % 2]
    padded[1:-1, 1:-1] = upper_level
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= center <= padded[1 + di : 1 + di + re_count, 1 + dj : 1 + dj + cols]
    seed_rows, seed_cols = np.nonzero(is_min)
    seeds = res[seed_rows] + 1j * upper_ims[seed_cols]

    # (root, residual, mirrored); a conjugate is listed before its root, as
    # the mirrored seed came first on the full grid, so ties merge as there
    candidates: list[tuple[complex, float, bool]] = []
    dropped = 0
    for seed, root, residual in zip(seeds, *_newton_polish(model, seeds)):
        if np.isnan(residual):
            logger.debug("Newton iteration failed at seed %s; seed dropped", seed)
            dropped += 1
            continue
        if residual > ROOT_TOL:
            logger.debug("seed %s did not converge (residual %.3e); dropped", seed, residual)
            dropped += 1
            continue
        if region.contains(root):
            root = complex(root)
            if 0.0 < abs(root.imag) <= 0.5 * MERGE_TOL:
                root = complex(root.real, 0.0)
            if root.imag:
                candidates.append((root.conjugate(), float(residual), True))
            candidates.append((root, float(residual), False))

    candidates.sort(key=lambda c: c[1])
    points = np.array([c[0] for c in candidates], dtype=complex)
    merged = np.zeros(len(candidates), dtype=bool)
    kept = []
    for i in range(len(candidates)):
        if not merged[i]:
            kept.append(i)
            merged |= np.abs(points - points[i]) <= MERGE_TOL

    kept.sort(key=lambda i: (-candidates[i][0].real, candidates[i][0].imag))
    roots = [candidates[i][0] for i in kept]
    residuals = [candidates[i][1] for i in kept]
    rightmost = roots[0] if roots else None
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "find_roots: %s log det, grid %d x %d, seeds %d, converged %d, dropped %d, mirrored %d, roots %d",
            "factored" if model.decoupled is not None else "slogdet", re_count, im_count,
            len(seeds), len(seeds) - dropped, dropped, sum(candidates[i][2] for i in kept), len(roots),
        )
    return RootReport(roots, residuals, region, rightmost)


def count_roots_argument_principle(model: SystemModel, region: Region) -> int:
    """Number of characteristic roots inside the rectangle, counted with
    multiplicity by the winding of det along the boundary; an oracle
    independent of the Newton search.

    The model is real, so D = det'/det = tr(M^-1 M') satisfies D(conj
    lam) = conj D(lam): the lower half of the contour contributes minus
    the conjugate of the upper half, and the winding is Im(I) / pi, with
    I the integral of D along the upper half only, from (re_max, 0) up
    the right edge, along the top and down the left edge to (re_min, 0),
    each leg read with its fixed coordinate as a scalar.  Trapezoid
    quadrature with 1000, 2000 and 1000 intervals: the node spacing of
    2000 intervals per edge of the whole contour, 4003 nodes.  The count
    reads D only, so ``_log_det`` skips L where it can (``level=False``).

    Raises NoResultError when the boundary integral is not finite, for
    example because a root lies on the contour, and when a root lies
    within about one node spacing of it: where |dz| max |D| exceeds 1 on
    an edge, the trapezoid rule cannot resolve the pole of D and the
    rounded winding may be off by the roots nearby.
    """
    t, u = np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 2001)
    # each leg as (Re lam, Im lam, node step dz), one coordinate fixed
    legs = [
        (region.re_max, region.im_max * t, 1j * region.im_max / 1000),
        (region.re_max + (region.re_min - region.re_max) * u, region.im_max, (region.re_min - region.re_max) / 2000),
        (region.re_min, region.im_max - region.im_max * t, -1j * region.im_max / 1000),
    ]
    total = 0.0 + 0.0j
    peak = 0.0
    with np.errstate(invalid="ignore"):
        for re, im, dz in legs:
            leg = _log_det(model, re, im, level=False)[1]
            total += dz * (0.5 * (leg[0] + leg[-1]) + leg[1:-1].sum())
            peak = max(peak, abs(dz) * float(np.max(np.abs(leg))))
    if not np.isfinite(total):
        raise NoResultError(
            "argument-principle integral is not finite: the integrand d/dlambda log det "
            "is not finite on the contour, for example because a root lies on it"
        )
    if peak > 1.0:
        raise NoResultError(
            f"a root lies within about one node spacing of the contour (|dz| max |D| = {peak:.3g} > 1); "
            "the count is not reliable, move the contour"
        )
    return int(np.rint(total.imag / np.pi))


# ---------------------------------------------------------------------------
# Resolvent of the block operator
# ---------------------------------------------------------------------------


# Integral of the cubic through four uniform nodes over one of its
# intervals, as node weights times h: first interval, either middle
# interval, last interval.
_CUBIC_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_CUBIC_MID = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_CUBIC_LAST = np.array([1.0, -5.0, 19.0, 9.0]) / 24.0


def shift_resolvent_history(lam: complex, g: HistoryGrid) -> np.ndarray:
    """Resolvent of the nilpotent shift generator applied to g.

    Returns the samples of sigma -> integral_sigma^0 e^(lam (sigma - tau))
    g(tau) d tau, that is out_l = e^(lam sigma_l) sum_{k >= l} J_k with
    J_k the integral of e^(-lam tau) g over [sigma_k, sigma_{k+1}], one
    fourth-order cubic stencil per interval, so the quadrature error stays
    smooth across nodes and finite differencing the result does not
    amplify it.  The stencils need four nodes: m >= 3.
    """
    m = g.m
    if m < 3:
        raise PreconditionError(f"the shift resolvent needs a history grid with m >= 3, got m = {m}")
    sigma = g.nodes
    factor = np.exp(-lam * sigma)[:, None] * g.samples.astype(complex)
    # interval l reads nodes start_l .. start_l + 3 with its cubic stencil
    starts = np.clip(np.arange(m) - 1, 0, m - 3)
    stencils = np.vstack((_CUBIC_FIRST, np.tile(_CUBIC_MID, (m - 2, 1)), _CUBIC_LAST))
    j_local = np.einsum("lk,lkn->ln", stencils, factor[starts[:, None] + np.arange(4)]) / m
    out = np.zeros((m + 1, g.n), dtype=complex)
    out[:m] = np.exp(lam * sigma[:m])[:, None] * np.cumsum(j_local[::-1], axis=0)[::-1]
    return out


def resolvent_apply(
    model: SystemModel,
    lam: complex,
    y: np.ndarray,
    g: HistoryGrid,
) -> DelayState:
    """Solve (lam - block operator)(x, f) = (y, g) on the grid.

    First forms q = R(lam, A_0) g on the history grid, then solves the
    head equation (lam - A - char)(x) = y + Phi(q) with the
    characteristic matrix read through the grid, as ``apply`` reads
    e^(lam .) x sampled on it (the analytic ``char_matrix`` differs by the
    O(1/m^2) interpolation error of the profile), and finally assembles
    f = e^(lam .) x + q.  Raises NearSpectrumError when the head matrix
    has condition number above 1e12.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    if y.shape[0] != model.n or g.n != model.n:
        raise ValueError("right-hand side dimensions do not match the model")
    q = shift_resolvent_history(lam, g)
    lams = np.array([lam], dtype=complex)
    head_matrix = _char_matrix_stack(model, lams, _symbol(model.phi, lams.real, lams.imag, g.m)[0])[0]
    svals = np.linalg.svd(head_matrix, compute_uv=False)
    # scale floor keeps the estimate meaningful for 1 x 1 systems, where
    # the plain condition number is identically 1
    sigma_min = float(svals[-1])
    cond = np.inf if sigma_min == 0.0 else max(1.0, float(svals[0])) / sigma_min
    if not np.isfinite(cond) or cond > 1e12:
        raise NearSpectrumError(
            f"characteristic matrix at lambda = {lam:.6g} has condition estimate {cond:.3e}; "
            "lambda near spectrum"
        )
    x = np.linalg.solve(head_matrix, y + apply(model.phi, HistoryGrid(q, g.p)))
    sigma = g.nodes
    f = np.exp(lam * sigma)[:, None] * x + q
    return DelayState(x, HistoryGrid(f, g.p))


def _fd4(samples: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    if len(samples) < 5:
        raise PreconditionError(f"the fourth-order derivative needs a history grid with m >= 4, got m = {len(samples) - 1}")
    f = samples
    d = np.empty_like(f)
    d[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    d[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    d[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    d[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    d[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    return d


def resolvent_defect(model: SystemModel, lam: complex, y: np.ndarray, g: HistoryGrid, state: DelayState) -> float:
    """Forward-application defect of a resolvent solution.

    Applies the discretised block operator to (x, f) (head row A x +
    Phi(f); history row d/d sigma by fourth-order finite differences) and
    returns the product norm of (lam - operator)(x, f) - (y, g).  The
    head component vanishes to machine precision by construction; the
    history component carries the grid differentiation and quadrature
    error.
    """
    y = np.atleast_1d(np.asarray(y, dtype=complex))
    x = state.head
    f = state.history
    head = lam * x - model.A.matrix @ x - apply(model.phi, f) - y
    deriv = _fd4(f.samples, 1.0 / f.m)
    hist = lam * f.samples - deriv - g.samples
    return float(np.linalg.norm(head)) + lp_norm(HistoryGrid(hist, f.p))

# ---------------------------------------------------------------------------
# Stability certificate
# ---------------------------------------------------------------------------


class CriterionProfile(NamedTuple):
    """Per-frequency data behind the stability certificate.

    ``rhs`` is the infimum of the smallest singular value of
    alpha + i omega - A along the line: exact, min_k |alpha - Re mu_k|,
    when A has orthonormal modes, and the grid minimum otherwise.
    """

    omegas: np.ndarray
    char_norms: np.ndarray
    resolvent_norms: np.ndarray
    lhs: float
    lhs_analytic_bound: float
    rhs: float
    holds: bool


def criterion_profile(model: SystemModel, alpha: float, grid: FrequencyGrid) -> CriterionProfile:
    """Evaluate both sides of the certificate along Re = alpha.

    lhs is the grid maximum of the characteristic norm of the delay term;
    rhs is the reciprocal of the supremum of ||R(alpha + i omega, A)||,
    the infimum of the smallest singular value of alpha + i omega - A.
    When A has orthonormal modes that value is the distance to the
    spectrum, min_k |alpha + i omega - mu_k|, whose infimum along the
    whole line is min_k |alpha - Re mu_k|; otherwise it is the grid
    minimum of one SVD per frequency.  Requires alpha <= 0 and the line to stay
    clear of the spectrum of A; holds when lhs < rhs and A's spectrum lies left of it.
    """
    if not alpha <= 0:
        raise PreconditionError("the certificate line must satisfy alpha <= 0")
    re_mu = model.A.spectrum().real
    clearance = float(np.min(np.abs(re_mu - alpha)))
    if clearance < 1e-9:
        raise PreconditionError(f"the line Re = {alpha} intersects the spectrum of A")
    omegas = grid.samples
    char_norms = char_norm_profile(model.phi, alpha, omegas)
    min_sv = model.A.min_singular(alpha + 1j * omegas)
    resolvent_norms = 1.0 / min_sv
    lhs = float(char_norms.max())
    rhs = clearance if model.A.modes() is not None else float(min_sv.min())
    bound = float(np.exp(-min(alpha, 0.0)) * total_variation(model.phi))
    holds = bool(lhs < rhs and re_mu.max() < alpha)
    return CriterionProfile(omegas, char_norms, resolvent_norms, lhs, bound, rhs, holds)


def random_compatible_state(n: int, m: int, p: float, rng: np.random.Generator) -> DelayState:
    """Unit-product-norm state with a Gaussian head and a random cubic
    polynomial history shifted so that f(0) = x holds exactly."""
    heads, histories = _random_compatible_states(1, n, m, p, rng)
    return DelayState(heads[0], HistoryGrid(histories[0], p))


def _random_compatible_states(count: int, n: int, m: int, p: float, rng: np.random.Generator):
    """Heads (count, n) and histories (count, m + 1, n) of ``count`` draws of ``random_compatible_state``."""
    draws = rng.standard_normal((count, 5 * n))
    heads, coeffs = draws[:, :n], draws[:, n:].reshape(count, 4, n)
    samples = ((-1.0 + np.arange(m + 1) / m)[:, None] ** np.arange(4)[None, :]) @ coeffs
    samples += (heads - samples[:, -1])[:, None]
    # rounded as state_norm: the head norm is the root of a dot, the history root a power of a numpy scalar
    scale = np.sqrt(heads[:, None, :] @ heads[:, :, None]).ravel() + [q ** (1.0 / p) for q in _lp_integrals(samples, p)]
    return heads / scale[:, None], samples / scale[:, None, None]


def stability_criterion(
    model: SystemModel,
    alpha: float,
    grid: FrequencyGrid | None = None,
    *,
    seed: int = 42,
    horizon: float = 20.0,
    state_m: int = 100,
    dt: float | None = None,
) -> tuple[StabilityReport, CriterionProfile]:
    """Full stability report along the line Re = alpha, together with the
    certificate profile it was built on.

    Besides the certificate itself the report estimates the rightmost
    characteristic root near the line (grid-seeded Newton in a rectangle
    around alpha, widened right past every eigenvalue of A) and the
    trajectory decay rate of a random compatible state fitted on
    [horizon/2, horizon], the window ``solve`` and
    ``reproduce-rd`` fit on, where the transient of the roots left of the
    rightmost one has died down; on Hilbert-type models (p = 2) the two
    estimates agree up to fitting error.
    """
    grid = grid or FrequencyGrid()
    profile = criterion_profile(model, alpha, grid)
    re_mu = model.A.spectrum().real
    re_min, re_max = max(alpha - 12.0, float(re_mu.min()) - 1.0), max(alpha + 5.0, float(re_mu.max()) + 1.0)
    report_roots = find_roots(model, Region(re_min, re_max, min(grid.omega_max, 20.0)), spacing=0.1)
    s0 = None if report_roots.rightmost is None else float(report_roots.rightmost.real)

    rng = np.random.default_rng(seed)
    state = random_compatible_state(model.n, state_m, model.p, rng)
    traj = solve_steps(model, state, horizon, dt)
    omega0 = decay_rate(traj, (horizon / 2.0, horizon))

    report = StabilityReport(
        alpha=float(alpha),
        lhs=profile.lhs,
        rhs=profile.rhs,
        criterion_holds=profile.holds,
        s0_estimate=s0,
        omega0_estimate=omega0,
        p=model.p,
        lhs_analytic_bound=profile.lhs_analytic_bound,
        a_normal=model.A.modes() is not None,
    )
    return report, profile


# ---------------------------------------------------------------------------
# Integral smallness of the perturbation
# ---------------------------------------------------------------------------


def miyadera_estimate(
    model: SystemModel,
    t0: float | list[float] | np.ndarray,
    samples: int = 200,
    *,
    seed: int = 42,
    r_nodes: int = 65,
    state_m: int = 64,
) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
    """Empirical and analytic smallness constants of the delay term: two
    floats for a float t0, two arrays for a sequence of them.

    q_emp is the maximum over random unit-product-norm compatible states
    of the trapezoid quadrature of r -> ||Phi(S_r x + T_0(r) f)|| over
    [0, t0]; q_bound = t0^(1/p') M |eta| with M the sampled supremum of
    ||exp(r A)|| over [0, 1] (1000 nodes, ``SpatialOperator.expm_norm``)
    and p' the conjugate exponent.  The bound dominates the sample for
    every admissible state.

    The states, the eigenbasis of A and M are computed once per call; per
    t0 the map (x, f) -> Phi(S_r x + T_0(r) f) is assembled for all r at
    once: the node weights of Phi folded through every shift S_r, and the
    head maps sum_l N_l exp((r + sigma_l) A) over the nodes the flowed head
    has entered, through the eigenbasis of A (``expm`` if it has none).
    """
    t0s = np.asarray(t0, dtype=float)
    if not np.all((0.0 < t0s) & (t0s < 1.0)):
        raise PreconditionError("t0 must lie in (0, 1)")
    if samples < 1:
        raise PreconditionError(f"need at least one sample state, got {samples}")
    if r_nodes < 2 or state_m < 2:
        raise PreconditionError(f"need r_nodes >= 2 and state_m >= 2, got {r_nodes} and {state_m}")
    n, m = model.n, state_m
    heads, histories = _random_compatible_states(samples, n, m, model.p, np.random.default_rng(seed))
    node_w = _grid_weights(model.phi, m)
    scalar = node_w.ndim == 1
    node_mats = _as_matrices(node_w, n)
    mu, v, vinv, orthonormal = model.A._eigen
    node_modes = None if v is None else (node_mats @ v).transpose(2, 0, 1)
    sup_norm = float(model.A.expm_norm(np.linspace(0.0, 1.0, 1000)).max())
    eta = total_variation(model.phi)

    q_emp, q_bound = [], []
    for t in np.atleast_1d(t0s).tolist():
        rs = np.linspace(0.0, t, r_nodes)
        w = _trapezoid_weights(r_nodes, rs[1] - rs[0])
        times = rs[:, None] + (-1.0 + np.arange(m + 1) / m)
        # at r = 0 the history already holds x at sigma = 0
        entered = (times >= 0) & (rs[:, None] > 0)
        # Phi(S_r f) = sum_q hist_map[r, q] f(sigma_q), with scalar or n x n weights
        hist_map = _shifted_weights(node_w, rs, m)
        if not scalar:
            hist_map = hist_map.transpose(0, 2, 1, 3).reshape(r_nodes, 1, n, (m + 1) * n)
        if v is None:
            flows = np.zeros((r_nodes, m + 1, n, n))
            flows[entered] = model.A.expm(times[entered])
            head_map = np.einsum("lij,rljk->rik", node_mats, flows)
        else:
            # sum_l (N_l V) diag(growth[r, l]) V^-1: one product per column k of V
            growth = np.exp(np.where(entered, times, 0.0)[..., None] * mu) * entered[..., None]
            summed = growth.transpose(2, 0, 1) @ node_modes
            head_map = np.real(summed.transpose(1, 2, 0) @ vinv)

        best = 0.0
        for sl in _batches(samples, r_nodes * n):
            x, f = heads[sl], histories[sl]
            # products per state (per node and state for matrix weights): no sum depends on the batch
            moved = (head_map.reshape(-1, n) @ x[..., None]).reshape(len(x), r_nodes, n)
            hist = hist_map @ f if scalar else (hist_map @ f.reshape(len(x), -1, 1)).swapaxes(0, 1)
            moved += hist.reshape(moved.shape)
            best = max(best, float(np.max((np.linalg.norm(moved, axis=2) * w).sum(axis=1))))
        q_emp.append(best)
        q_bound.append(t ** (1.0 - 1.0 / model.p) * sup_norm * eta)  # t0^(1/p')
    basis = "expm" if v is None else "modal" if orthonormal else "eigenbasis"
    logger.debug("miyadera_estimate: %s basis, samples = %d, r_nodes = %d, m = %d, chunks = %d",
                 basis, samples, r_nodes, m, len(list(_batches(samples, r_nodes * n))))
    return (q_emp[0], q_bound[0]) if t0s.ndim == 0 else (np.array(q_emp), np.array(q_bound))


# ---------------------------------------------------------------------------
# Growth-rate estimation
# ---------------------------------------------------------------------------


def decay_rate(traj: Trajectory, window: tuple[float, float]) -> float:
    """Least-squares slope of log ||(u(t), u_t)|| over the window.

    The product state norm is sampled at up to 201 grid times inside the
    window; their segments are read as ``segment`` reads them (``_segments``)
    and normed by the ``lp_norm`` rule, (m + 1) n entries each to
    ``_batches``.  An identically zero window is rejected.
    """
    t_lo, t_hi = window
    if t_lo < 0 or t_hi <= t_lo or t_hi > traj.t_end + 1e-9:
        raise PreconditionError(f"window {window} not inside trajectory coverage [0, {traj.t_end:.6g}]")
    # the nodes -1 + j dt inside the window are a run of j, whose ends lie within two nodes of (t + 1) / dt
    ends = [np.clip(round((t + 1.0) / traj.dt) + np.arange(-2, 3), 0, len(traj.values) - 1) for t in (t_lo, t_hi)]
    first = ends[0][-1.0 + ends[0] * traj.dt >= t_lo - 1e-12].min(initial=len(traj.values))
    count = ends[1][-1.0 + ends[1] * traj.dt <= t_hi + 1e-12].max(initial=-1) + 1 - first
    idx = first + (np.linspace(0, count - 1, 201).astype(int) if count > 201 else np.arange(max(count, 0)))
    ts = -1.0 + idx * traj.dt
    norms = np.linalg.norm(traj.values[idx], axis=1)
    for sl in _batches(len(idx), (traj.m + 1) * traj.n):
        norms[sl] += _lp_norms(_segments(traj, ts[sl]), traj.p)
    if np.max(norms) == 0.0:
        raise PreconditionError("trajectory vanishes on the whole window")
    keep = norms > 0
    if keep.sum() < 2:
        raise PreconditionError("not enough nonzero samples in the window")
    slope = np.polyfit(ts[keep], np.log(norms[keep]), 1)[0]
    return float(slope)
