"""Frequency-domain analysis of the delay equation.

Covers the characteristic matrix M(lam) = lam - A - Phi(e^(lam .)), root
location by grid-seeded Newton iteration on log det M, audited by an
argument-principle count of the same log-derivative tr(M^-1 M') (Jacobi's
formula; with a scalar delay symbol s(lam) both factor over the
eigenvalues mu_k of A into sums of log(lam - s(lam) - mu_k)), the explicit
resolvent of the block delay operator, the integral smallness estimate
for the perturbation, and the frequency-domain stability certificate
that compares the delay term's norm along a vertical line with the
reciprocal resolvent norm of A (for normal A the distance to its
spectrum, with no SVD).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BudgetError, NearSpectrumError, NoResultError, PreconditionError
from .evolution import SystemModel, Trajectory, _delay_stencil, solve_steps
from .functional import (
    DelayFunctional,
    _as_matrices,
    _atoms,
    _transform,
    _transform_and_derivative,
    apply,
    char_norm_profile,
    total_variation,
)
from .history import (
    DelayState,
    HistoryGrid,
    _lp_norms,
    _shifted_weights,
    _trapezoid_weights,
    interp_uniform,
    lp_norm,
)

logger = logging.getLogger(__name__)


@dataclass
class FrequencyGrid:
    """Uniform samples of [-omega_max, omega_max]; count is odd so that
    omega = 0 is always included."""

    omega_max: float = 200.0
    count: int = 4001

    def __post_init__(self):
        if not 0 < self.omega_max < np.inf:
            raise PreconditionError(f"omega_max must be positive and finite, got {self.omega_max}")
        if self.count < 1 or self.count % 2 == 0:
            raise PreconditionError(f"count must be a positive odd integer, got {self.count}")

    @property
    def samples(self) -> np.ndarray:
        return np.linspace(-self.omega_max, self.omega_max, self.count)


@dataclass
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


@dataclass
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

    @classmethod
    def from_dict(cls, d: dict) -> "RootReport":
        region = Region(**d["region"])
        roots = [complex(re, im) for re, im in d["roots"]]
        rightmost = None if d["rightmost"] is None else complex(d["rightmost"][0], d["rightmost"][1])
        return cls(roots, list(d["residuals"]), region, rightmost)


@dataclass
class StabilityReport:
    """Outcome of the frequency-domain stability certificate at Re = alpha.

    ``lhs`` is the grid supremum of the delay term's characteristic norm,
    ``rhs`` the reciprocal of the supremum of ||R(alpha + i omega, A)||:
    exact, min_k |alpha - Re mu_k|, when A has an orthonormal eigenbasis,
    and read on the frequency grid otherwise; the certificate holds when
    lhs < rhs.  ``s0_estimate`` is the real part
    of the rightmost characteristic root found near the line and
    ``omega0_estimate`` a decay-rate fit from a trajectory; ``a_normal``
    records whether A has an orthonormal eigenbasis, the decision that
    makes ``rhs`` exact (for non-normal A the eigenvalue-based line check
    is only a surrogate).
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
        return {
            "alpha": self.alpha,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "criterion_holds": self.criterion_holds,
            "s0_estimate": self.s0_estimate,
            "omega0_estimate": self.omega0_estimate,
            "p": self.p,
            "lhs_analytic_bound": self.lhs_analytic_bound,
            "a_normal": self.a_normal,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StabilityReport":
        return cls(**d)


# ---------------------------------------------------------------------------
# Characteristic operator
# ---------------------------------------------------------------------------


def _char_matrix_stack(model: SystemModel, lams: np.ndarray) -> np.ndarray:
    """Stack of lam - A - char_matrix(lam) over a flat array of lam."""
    lams = np.asarray(lams, dtype=complex).ravel()
    base = lams[:, None, None] * np.eye(model.n, dtype=complex) - model.A.matrix
    base -= _as_matrices(_transform(model.phi, lams), model.n)
    return base


def char_det(model: SystemModel, lam: complex) -> complex:
    """Determinant of the characteristic matrix at lam (complex LU)."""
    return complex(np.linalg.det(_char_matrix_stack(model, np.array([lam]))[0]))


def _log_det(model: SystemModel, lams, derivative: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """L = log|det M(lam)| = Re log det M(lam) and D = d/dlam log det M(lam)
    = tr(M^-1 M') for every lam of a flat array, M(lam) = lam - A - T(lam);
    D is None unless ``derivative``.

    With a scalar symbol s(lam) (``SystemModel.scalar_symbol``: every
    weight of Phi a multiple of Id, so that ``_transform`` returns scalars)
    det M = prod_k (z - mu_k) with z = lam - s(lam) over the eigenvalues
    mu_k of A, exactly for any A, so L = sum_k log|z - mu_k| and D =
    (1 - s'(lam)) sum_k 1/(z - mu_k): O(n) per lam, without overflow.
    Otherwise L comes from ``slogdet`` of the matrix stack and D from one
    solve with M' = I - T'(lam); D is NaN where M is singular or not
    finite.  Batches hold about 4M matrix entries.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    n = model.n
    eye = np.eye(n)
    L = np.empty(lams.shape)
    D = np.empty(lams.shape, dtype=complex) if derivative else None
    chunk = max(256, 4_000_000 // (n * n))
    scalar = model.scalar_symbol
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for start in range(0, len(lams), chunk):
            sl = slice(start, start + chunk)
            lam = lams[sl]
            if derivative:
                t, tp = _transform_and_derivative(model.phi, lam)
            else:
                t = _transform(model.phi, lam)
            if scalar:
                gaps = (lam - t)[:, None] - model.A.spectrum()
                L[sl] = np.log(np.abs(gaps)).sum(axis=1)
                if derivative:
                    D[sl] = (1.0 - tp) * (1.0 / gaps).sum(axis=1)
                continue
            stack = lam[:, None, None] * eye - model.A.matrix - t
            L[sl] = np.linalg.slogdet(stack)[1]
            if derivative:
                ok = np.isfinite(L[sl])
                d = np.full(len(lam), np.nan, dtype=complex)
                d[ok] = np.trace(np.linalg.solve(stack[ok], eye - tp[ok]), axis1=1, axis2=2)
                D[sl] = d
    return L, D


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
    L, D = _log_det(model, lam)
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
            trial_L, trial_D = _log_det(model, lam[idx[todo]] - step[todo])
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

    Scans log|det| on a grid of the given seed spacing, polishes every
    local minimum by damped Newton, discards iterates that leave the
    rectangle or fail ``ROOT_TOL``, and merges duplicates within
    ``MERGE_TOL``.  Roots are sorted by descending real part.
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
    res = np.linspace(region.re_min, region.re_max, re_count)
    ims = np.linspace(-region.im_max, region.im_max, im_count)
    lams = res[:, None] + 1j * ims[None, :]
    level = _log_det(model, lams, derivative=False)[0].reshape(re_count, im_count)
    level[np.isnan(level)] = np.inf

    padded = np.full((re_count + 2, im_count + 2), np.inf)
    padded[1:-1, 1:-1] = level
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= center <= padded[1 + di : 1 + di + re_count, 1 + dj : 1 + dj + im_count]
    seeds = lams[is_min]

    candidates: list[tuple[complex, float]] = []
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
            candidates.append((complex(root), float(residual)))

    candidates.sort(key=lambda pair: pair[1])
    roots: list[complex] = []
    residuals: list[float] = []
    for root, residual in candidates:
        if any(abs(root - kept) <= MERGE_TOL for kept in roots):
            continue
        roots.append(root)
        residuals.append(residual)

    order = sorted(range(len(roots)), key=lambda i: (-roots[i].real, roots[i].imag))
    roots = [roots[i] for i in order]
    residuals = [residuals[i] for i in order]
    rightmost = roots[0] if roots else None
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug(
            "find_roots: %s log det, grid %d x %d, seeds %d, converged %d, dropped %d, roots %d",
            "factored" if model.scalar_symbol else "slogdet", re_count, im_count,
            len(seeds), len(seeds) - dropped, dropped, len(roots),
        )
    return RootReport(roots, residuals, region, rightmost)


def count_roots_argument_principle(model: SystemModel, region: Region) -> int:
    """Number of characteristic roots inside the rectangle, counted with
    multiplicity by the winding of det along the boundary: trapezoid
    quadrature of the log-derivative D = det'/det = tr(M^-1 M') with 2000
    intervals per edge; an oracle independent of the Newton search.

    Raises NoResultError when the boundary integral is not finite, for
    example because a root lies on the contour.
    """
    corners = [
        complex(region.re_min, -region.im_max),
        complex(region.re_max, -region.im_max),
        complex(region.re_max, region.im_max),
        complex(region.re_min, region.im_max),
    ]
    total = 0.0 + 0.0j
    with np.errstate(invalid="ignore"):
        for a, b in zip(corners, corners[1:] + corners[:1]):
            _, integrand = _log_det(model, a + (b - a) * np.linspace(0.0, 1.0, 2001))
            dz = (b - a) / 2000
            total += dz * (0.5 * (integrand[0] + integrand[-1]) + integrand[1:-1].sum())
    if not np.isfinite(total):
        raise NoResultError(
            "argument-principle integral is not finite: the integrand d/dlambda log det "
            "is not finite on the contour, for example because a root lies on it"
        )
    return int(np.rint((total / (2j * np.pi)).real))


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
    grid_char = _as_matrices(_transform(model.phi, [lam], g.m), model.n)[0]
    head_matrix = lam * np.eye(model.n) - model.A.matrix - grid_char
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
        raise ValueError("need at least 5 nodes for the 4th-order stencil")
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


def _line_clearance(model: SystemModel, alpha: float) -> float:
    eigs = model.A.spectrum()
    return float(np.min(np.abs(eigs.real - alpha)))


def criterion_profile(model: SystemModel, alpha: float, grid: FrequencyGrid) -> CriterionProfile:
    """Evaluate both sides of the certificate along Re = alpha.

    lhs is the grid maximum of the characteristic norm of the delay term;
    rhs is the reciprocal of the supremum of ||R(alpha + i omega, A)||,
    the infimum of the smallest singular value of alpha + i omega - A.
    When A has orthonormal modes that value is the distance to the
    spectrum, min_k |alpha + i omega - mu_k|, whose infimum along the
    whole line is min_k |alpha - Re mu_k|; otherwise it is the grid
    minimum of one SVD per frequency.  Requires alpha <= 0 and the line
    to stay clear of the spectrum of A.
    """
    if not alpha <= 0:
        raise PreconditionError("the certificate line must satisfy alpha <= 0")
    clearance = _line_clearance(model, alpha)
    if clearance < 1e-9:
        raise PreconditionError(f"the line Re = {alpha} intersects the spectrum of A")
    omegas = grid.samples
    char_norms = char_norm_profile(model.phi, alpha, omegas)
    min_sv = model.A.min_singular(alpha + 1j * omegas)
    resolvent_norms = 1.0 / min_sv
    lhs = float(char_norms.max())
    rhs = clearance if model.A.modes() is not None else float(min_sv.min())
    bound = float(np.exp(-min(alpha, 0.0)) * total_variation(model.phi))
    return CriterionProfile(omegas, char_norms, resolvent_norms, lhs, bound, rhs, bool(lhs < rhs))


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
    # state by state: a norm along an axis may round differently from state_norm
    scale = np.array([np.linalg.norm(x) + _lp_norms(f, p) for x, f in zip(heads, samples)])
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
    around alpha) and the trajectory decay rate of a random compatible
    state fitted on [horizon/2, horizon], the window ``solve`` and
    ``reproduce-rd`` fit on, where the transient of the roots left of the
    rightmost one has died down; on Hilbert-type models (p = 2) the two
    estimates agree up to fitting error.
    """
    grid = grid or FrequencyGrid()
    profile = criterion_profile(model, alpha, grid)
    re_min = max(alpha - 12.0, float(model.A.spectrum().real.min()) - 1.0)
    if re_min >= alpha + 5.0:
        re_min = alpha - 12.0
    report_roots = find_roots(model, Region(re_min, alpha + 5.0, min(grid.omega_max, 20.0)), spacing=0.1)
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


def _grid_node_matrices(phi: DelayFunctional, m: int, n: int) -> np.ndarray:
    """Matrices Q[l] with apply(phi, f) = sum_l Q[l] @ f(sigma_l) for every
    history f sampled on m + 1 nodes: the stage-0 delay stencil with one
    step per grid node, whose lag l reads node m - l."""
    lags, weights = _delay_stencil(_atoms(phi, m), m, stages=(0.0,))
    out = np.zeros((m + 1, n, n))
    out[m - lags] = _as_matrices(weights[0], n)
    return out


#: ``miyadera_estimate`` moves its states in chunks of this many entries (r_nodes x n each).
_MOVED_ENTRIES = 100_000


def miyadera_estimate(
    model: SystemModel,
    t0: float,
    samples: int = 200,
    *,
    seed: int = 42,
    r_nodes: int = 65,
    state_m: int = 64,
) -> tuple[float, float]:
    """Empirical and analytic smallness constants of the delay term.

    q_emp is the maximum over random unit-product-norm compatible states
    of the trapezoid quadrature of r -> ||Phi(S_r x + T_0(r) f)|| over
    [0, t0]; q_bound = t0^(1/p') M |eta| with M the sampled supremum of
    ||exp(r A)|| over [0, 1] (1000 nodes, ``SpatialOperator.expm_norm``)
    and p' the conjugate exponent.  The bound dominates the sample for
    every admissible state.

    The linear map (x, f) -> Phi(S_r x + T_0(r) f) is assembled for all r
    at once: the node weights of Phi folded through every shift S_r, and
    the head maps sum_l N_l exp((r + sigma_l) A) over the nodes the flowed
    head has entered, through the eigenbasis of A (``expm`` if it has none).
    """
    if not (0.0 < t0 < 1.0):
        raise PreconditionError("t0 must lie in (0, 1)")
    if samples < 1:
        raise PreconditionError(f"need at least one sample state, got {samples}")
    if r_nodes < 2 or state_m < 2:
        raise PreconditionError(f"need r_nodes >= 2 and state_m >= 2, got {r_nodes} and {state_m}")
    n, m = model.n, state_m
    heads, histories = _random_compatible_states(samples, n, m, model.p, np.random.default_rng(seed))
    rs = np.linspace(0.0, t0, r_nodes)
    w = _trapezoid_weights(r_nodes, rs[1] - rs[0])
    times = rs[:, None] + (-1.0 + np.arange(m + 1) / m)
    # at r = 0 the history already holds x at sigma = 0
    entered = (times >= 0) & (rs[:, None] > 0)

    scalar = model.scalar_symbol
    node_mats = _grid_node_matrices(model.phi, m, n)
    node_w = node_mats[:, 0, 0] if scalar else node_mats
    # Phi(S_r f) = sum_q hist_map[r, q] f(sigma_q), with scalar or n x n weights
    hist_map = _shifted_weights(node_w, rs, m)
    if not scalar:
        hist_map = hist_map.transpose(0, 2, 1, 3).reshape(r_nodes, 1, n, (m + 1) * n)
    mu, v, vinv, orthonormal = model.A._eigen()
    if v is None:
        flows = np.zeros((r_nodes, m + 1, n, n))
        flows[entered] = model.A.expm(times[entered])
        head_map = np.einsum("lij,rljk->rik", node_mats, flows)
    else:
        # sum_l (N_l V) diag(growth[r, l]) V^-1: one product per column k of V
        growth = np.exp(np.where(entered, times, 0.0)[..., None] * mu) * entered[..., None]
        summed = growth.transpose(2, 0, 1) @ (node_mats @ v).transpose(2, 0, 1)
        head_map = np.real(summed.transpose(1, 2, 0) @ vinv)

    chunk = max(1, _MOVED_ENTRIES // (r_nodes * n))
    q_emp = 0.0
    for start in range(0, samples, chunk):
        x, f = heads[start : start + chunk], histories[start : start + chunk]
        # products per state (per node and state for matrix weights): no sum depends on the chunk
        moved = (head_map.reshape(-1, n) @ x[..., None]).reshape(len(x), r_nodes, n)
        hist = hist_map @ f if scalar else (hist_map @ f.reshape(len(x), -1, 1)).swapaxes(0, 1)
        moved += hist.reshape(moved.shape)
        q_emp = max(q_emp, float(np.max((np.linalg.norm(moved, axis=2) * w).sum(axis=1))))
    basis = "expm" if v is None else "modal" if orthonormal else "eigenbasis"
    logger.debug("miyadera_estimate: %s basis, samples = %d, r_nodes = %d, m = %d, chunks = %d",
                 basis, samples, r_nodes, m, -(-samples // chunk))
    sup_norm = float(model.A.expm_norm(np.linspace(0.0, 1.0, 1000)).max())
    q_bound = t0 ** (1.0 - 1.0 / model.p) * sup_norm * total_variation(model.phi)  # t0^(1/p')
    return q_emp, q_bound


# ---------------------------------------------------------------------------
# Growth-rate estimation
# ---------------------------------------------------------------------------


def decay_rate(traj: Trajectory, window: tuple[float, float]) -> float:
    """Least-squares slope of log ||(u(t), u_t)|| over the window.

    The product state norm is sampled at up to 201 grid times
    inside the window; every sampled segment is interpolated from the
    trajectory in one call, as ``segment`` would, and normed along an
    axis by the ``lp_norm`` rule.  An identically zero window is rejected.
    """
    t_lo, t_hi = window
    if t_lo < 0 or t_hi <= t_lo or t_hi > traj.t_end + 1e-9:
        raise PreconditionError(f"window {window} not inside trajectory coverage [0, {traj.t_end:.6g}]")
    times = traj.times
    mask = (times >= t_lo - 1e-12) & (times <= t_hi + 1e-12)
    idx = np.nonzero(mask)[0]
    if len(idx) > 201:
        idx = idx[np.linspace(0, len(idx) - 1, 201).astype(int)]
    ts = times[idx]
    queries = ts[:, None] + (-1.0 + np.arange(traj.m + 1) / traj.m)
    segments = interp_uniform(traj.values, -1.0, traj.dt, queries.ravel()).reshape(len(idx), traj.m + 1, traj.n)
    norms = np.linalg.norm(traj.values[idx], axis=1) + _lp_norms(segments, traj.p)
    if np.max(norms) == 0.0:
        raise PreconditionError("trajectory vanishes on the whole window")
    keep = norms > 0
    if keep.sum() < 2:
        raise PreconditionError("not enough nonzero samples in the window")
    slope = np.polyfit(ts[keep], np.log(norms[keep]), 1)[0]
    return float(slope)
