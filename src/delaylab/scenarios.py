"""Preset models: the 1D Dirichlet reaction-diffusion equation with a
Cantor-distributed delay, scalar calibration equations, and the scan that
locates the delay coefficient at which stability is lost.

For the reaction-diffusion model the characteristic determinant factors
exactly into scalar per-mode equations lam - lam_k - c * g^(lam) because
the kernel is a scalar multiple of the identity and A is symmetric; the
scan exploits that factorisation, and the factorisation itself is
cross-checked against the full root finder in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import NoResultError, PreconditionError
from .evolution import SpatialOperator, SystemModel, scalar_operator
from .functional import CantorKernel, _cantor_product, single_delay


def dirichlet_lambda1(n: int) -> float:
    """First eigenvalue of the discretised Dirichlet Laplacian on (0, 1)."""
    if n < 1:
        raise PreconditionError(f"need at least one interior grid point, got n = {n}")
    h = 1.0 / (n + 1)
    return -(4.0 / h**2) * np.sin(np.pi * h / 2.0) ** 2


def laplacian_dirichlet_1d(n: int) -> SpatialOperator:
    """Second-order finite-difference Dirichlet Laplacian on (0, 1).

    Tridiagonal (-2, 1, 1) / h^2 with h = 1/(n+1); the analytic tag
    carries the exact eigenvalues -(4/h^2) sin^2(k pi h / 2).
    """
    if n < 1:
        raise PreconditionError(f"need at least one interior grid point, got n = {n}")
    h = 1.0 / (n + 1)
    mat = (np.diag(-2.0 * np.ones(n)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)) / h**2
    k = np.arange(1, n + 1)
    eigs = -(4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2
    return SpatialOperator(mat, eigenvalues=eigs.astype(complex))


def reaction_diffusion_scenario(n: int, c: float, depth: int = 24) -> SystemModel:
    """Reaction-diffusion-with-delay preset: heat flow on (0, 1) with a
    memory source c * integral of the past against the Cantor measure."""
    return SystemModel(laplacian_dirichlet_1d(n), CantorKernel(float(c), depth), p=2.0)


def scalar_dde(a: float, b: float) -> SystemModel:
    """One-dimensional calibration equation u' = a u(t) + b u(t - 1)."""
    return SystemModel(scalar_operator(a), single_delay(np.array([[float(b)]]), -1.0), p=2.0)


# ---------------------------------------------------------------------------
# Stability threshold scan
# ---------------------------------------------------------------------------


def _cantor_coupling(lam: float) -> tuple[float, float]:
    # g^ and g^' on the real axis; overflow far down the axis is capped, the
    # walk down to the root only needs "very large" there
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope = _cantor_product(lam, 0.0, derivative=True)
    return (value.real, slope.real) if np.isfinite(value.real) else (1e300, -1e300)


def _mode_rightmost_real_root(eig: float, coupling, c: float) -> float:
    """Unique real root of q(lam) = lam - eig - c * coupling(lam), c > 0;
    ``coupling`` returns its value and its derivative.

    The coupling, the transform of a positive measure on [-1, 0], is
    positive, decreasing and convex on the real axis, so q is increasing
    (q' >= 1) and concave with q(eig) < 0: Newton from any point left of the
    root climbs to it without overshoot.  It starts at max(0, eig) + 1, or,
    where q is positive there, at the first point of the unit steps down from
    it where q is not, which never evaluates the coupling deep in its
    overflow range.  The coupling is read as very large wherever the Cantor
    product overflows, also above lam ~ 1430, so a root there (n = 15 at
    c = 2e5) is not reached and 200 steps end in NoResultError.
    """

    def q(lam):
        value, slope = coupling(lam)
        return lam - eig - c * value, 1.0 - c * slope

    lam = max(0.0, eig) + 1.0
    value, slope = q(lam)
    while value > 0:
        lam -= 1.0
        value, slope = q(lam)
    for _ in range(200):
        step = -value / slope
        lam += step
        if abs(step) <= 1e-13 + 1e-14 * abs(lam):
            return float(lam)
        value, slope = q(lam)
    raise NoResultError("Newton iteration for the per-mode real root did not converge")


def rd_rightmost_root(n: int, c: float) -> complex:
    """Rightmost characteristic root of the preset at coefficient c > 0.

    The determinant factors into per-mode equations; the real root r of
    mode mu solves r - c * g^(r) = mu, whose left side increases in r (the
    Cantor transform g^ is positive and decreasing on the real axis), so r
    increases with mu and the top eigenvalue, lambda_1, gives the largest
    real root.  For c > 0 the loss of stability happens through a real
    root, so the rightmost root is real.
    """
    if c <= 0:
        raise PreconditionError("the scan handles positive coefficients only")
    return complex(_mode_rightmost_real_root(dirichlet_lambda1(n), _cantor_coupling, c), 0.0)


def threshold_scan(n: int, c_range: tuple[float, float], steps: int = 40) -> float:
    """Bisection on the sign of the rightmost-root real part over c.

    ``c_range`` must bracket the crossing (stable at the lower end,
    unstable at the upper end); raises NoResultError otherwise.  Returns
    the crossing coefficient after ``steps >= 1`` bisection iterations.
    """
    c_lo, c_hi = c_range
    if not (0.0 < c_lo < c_hi < np.inf):
        raise PreconditionError(f"need 0 < c_lo < c_hi < inf, got {c_range}")
    if steps < 1:
        raise PreconditionError(f"need at least one bisection step, got {steps}")
    sign_lo = rd_rightmost_root(n, c_lo).real
    sign_hi = rd_rightmost_root(n, c_hi).real
    if not (sign_lo < 0.0 < sign_hi):
        raise NoResultError(
            f"no sign change of the rightmost root over c in [{c_lo}, {c_hi}] "
            f"(endpoint real parts {sign_lo:.3e}, {sign_hi:.3e})"
        )
    for _ in range(steps):
        c_mid = 0.5 * (c_lo + c_hi)
        if rd_rightmost_root(n, c_mid).real > 0.0:
            c_hi = c_mid
        else:
            c_lo = c_mid
    return 0.5 * (c_lo + c_hi)
