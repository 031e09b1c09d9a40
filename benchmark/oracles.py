"""Reference values computed apart from delaylab.

Nothing here imports the package: every check in the benchmark compares
the program's reports against these closed forms and scalar solves.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import lambertw


def scalar_exact(t: np.ndarray) -> np.ndarray:
    """Exact solution of u' = -u(t - 1) with u = 1 on [-1, 0].

    By the method of steps, u(t) = sum over k <= t + 1 of
    (-1)^k (t - k + 1)^k / k!, a polynomial of degree k on [k - 1, k].
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for k in range(int(math.floor(t.max())) + 2):
        arg = t - k + 1.0
        out += np.where(arg >= 0.0, (-1.0) ** k * np.maximum(arg, 0.0) ** k / math.factorial(k), 0.0)
    return out


def scalar_roots(re_min: float, re_max: float, im_max: float) -> list[complex]:
    """Roots of lam + e^(-lam) = 0 in the rectangle: lam = W_k(-1) for all branches k."""
    roots = []
    k = 0
    while True:
        found = False
        for branch in {k, -k - 1}:
            lam = complex(lambertw(-1.0, branch))
            if abs(lam.imag) <= im_max + 2 * math.pi:
                found = True
            if re_min <= lam.real <= re_max and abs(lam.imag) <= im_max:
                roots.append(lam)
        if not found:
            return roots
        k += 1


def dirichlet_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues -(4/h^2) sin^2(k pi h / 2), k = 1..n, of the Dirichlet Laplacian."""
    h = 1.0 / (n + 1)
    k = np.arange(1, n + 1)
    return -(4.0 / h**2) * np.sin(k * np.pi * h / 2.0) ** 2


def log_cantor_transform(lam: float) -> float:
    """log of e^(-lam/2) prod_{j>=1} cosh(lam / 3^j) for real lam, without overflow."""
    x = np.abs(lam / 3.0 ** np.arange(1, 60))
    log_cosh = np.where(x < 20.0, np.log(np.cosh(np.minimum(x, 20.0))), x - math.log(2.0))
    return -0.5 * lam + float(log_cosh.sum())


def rd_mode_root(eig: float, c: float) -> float:
    """Real root of lam - eig - c * g^(lam) for one Laplacian mode (eig < 0, c > 0).

    In logarithmic form r(lam) = log(lam - eig) - log(c) - log g^(lam) is
    strictly increasing on (eig, inf), negative just right of eig (where
    g^ >= 1) and positive at lam = c (where g^ < 1).
    """
    log_c = math.log(c)

    def r(lam):
        return math.log(lam - eig) - log_c - log_cantor_transform(lam)

    lo = eig + 1e-12 * max(1.0, abs(eig))
    return float(brentq(r, lo, c, xtol=1e-15, maxiter=200))


def rd_rightmost_real_root(n: int, c: float) -> float:
    """Rightmost characteristic root of the reaction-diffusion preset, over all modes."""
    return max(rd_mode_root(float(e), c) for e in dirichlet_eigenvalues(n))
