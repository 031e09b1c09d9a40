"""Delay functionals: the memory term of u'(t) = A u(t) + Phi(u_t).

Three variants are supported:

* ``DiscreteDelays`` -- point evaluations, Phi(f) = sum_k B_k f(h_k);
* ``CantorKernel`` -- the singular kernel c * g * Id with g the Cantor
  function, Phi(f) = c * integral of f against the Cantor measure on
  [-1, 0];
* ``DensityKernel`` -- an absolutely continuous kernel given by matrix
  samples K(sigma), Phi(f) = integral of K(sigma) f(sigma).

Every variant is a Stieltjes measure on [-1, 0] and is read through one
representation, its atoms: offsets sigma_i in [-1, 0] and weights W_i with
Phi(f) ~= sum_i W_i f(sigma_i).  The weights are scalars standing for
multiples of Id whenever every one of them is such a multiple (the Cantor
kernel, an empty functional, any 1 x 1 functional, or b Id stored as a
matrix), and n x n matrices otherwise; the routines that read the atoms
take the scalar path from that shape alone.  The atoms are the delays with
their matrices, the trapezoid nodes of a density kernel's own grid, and the
Cantor grid weights on the history grid.  ``apply``, ``total_variation``
and the characteristic matrices of this module, and the delay stencils of
the time-domain routes, all read the atoms; this is the only module that
tells the variants apart.  The Cantor kernel keeps three exact overrides:
``apply`` contracts the history samples with its grid weights directly,
its total variation is |c|, and its characteristic matrices use the
product form of the transform.  The lam-derivative of the characteristic
stack, which the root search reads, comes from the same atoms (weights
sigma_i W_i) and, for the Cantor kernel, from the logarithmic derivative
of the product form.

The exponential transform of the Cantor measure is its infinite-product
form; the tests check it against recursive self-similar subdivision
mu -> (mu o S1^-1 + mu o S2^-1)/2 with S1(x) = x/3, S2(x) = (x+2)/3 on
[0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import PreconditionError
from .history import HistoryGrid, _trapezoid_weights, interp_uniform

_MAX_DEPTH = 40


@dataclass
class DiscreteDelays:
    """Point-mass functional sum_k B_k f(h_k), delays h_k in [-1, 0]."""

    matrices: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=float)
        self.delays = np.atleast_1d(np.asarray(self.delays, dtype=float))
        if self.matrices.size == 0:
            self.matrices = self.matrices.reshape(0, 0, 0)
            self.delays = self.delays.reshape(0)
            return
        if self.matrices.ndim == 2:
            self.matrices = self.matrices[None]
        if self.matrices.ndim != 3 or self.matrices.shape[1] != self.matrices.shape[2]:
            raise ValueError("delay matrices must be a stack of square matrices")
        if len(self.delays) != len(self.matrices):
            raise ValueError("one delay per matrix required")
        if not np.all(np.isfinite(self.matrices)):
            raise ValueError("delay matrices have non-finite entries")
        if not np.all((self.delays >= -1.0) & (self.delays <= 0.0)):
            raise ValueError("delays must lie in [-1, 0]")

    @property
    def dim(self) -> int | None:
        return None if self.matrices.size == 0 else self.matrices.shape[1]


@dataclass
class CantorKernel:
    """Kernel c * g * Id with g the Cantor function; total variation |c|.

    ``depth`` bounds the recursion depth of the self-similar quadrature;
    it acts componentwise, so the kernel has no intrinsic dimension.
    """

    c: float
    depth: int = 24

    def __post_init__(self):
        self.c = float(self.c)
        self.depth = int(self.depth)
        if not np.isfinite(self.c):
            raise ValueError("Cantor kernel coefficient must be finite")
        if not 1 <= self.depth <= _MAX_DEPTH:
            raise PreconditionError(f"Cantor kernel depth must lie in [1, {_MAX_DEPTH}], got {self.depth}")

    @property
    def dim(self) -> int | None:
        return None


@dataclass
class DensityKernel:
    """Absolutely continuous kernel, Phi(f) = integral K(sigma) f(sigma).

    ``samples[l]`` is the n x n matrix K(sigma_l) on the uniform grid
    sigma_l = -1 + l/m; integrals use the composite trapezoid rule.
    """

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 3 or self.samples.shape[1] != self.samples.shape[2]:
            raise ValueError("density kernel samples must be a (m+1, n, n) stack")
        if len(self.samples) < 3:
            raise ValueError("density kernel needs m >= 2 (at least 3 nodes)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("density kernel samples have non-finite entries")

    @property
    def m(self) -> int:
        return len(self.samples) - 1

    @property
    def dim(self) -> int | None:
        return self.samples.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        return -1.0 + np.arange(self.m + 1) / self.m


DelayFunctional = Union[DiscreteDelays, CantorKernel, DensityKernel]


def single_delay(matrix, delay: float = -1.0) -> DiscreteDelays:
    """One-term functional B f(h)."""
    b = np.atleast_2d(np.asarray(matrix, dtype=float))
    return DiscreteDelays(b[None], np.array([delay]))


# ---------------------------------------------------------------------------
# Cantor measure machinery
# ---------------------------------------------------------------------------

_weights_cache: dict[tuple[int, int], np.ndarray] = {}


def _leaf_centers(depth: int) -> np.ndarray:
    """Centers of the 2^depth self-similar leaves of the Cantor set in [0, 1]."""
    pos = np.array([0.5])
    for _ in range(depth):
        pos = np.concatenate((pos / 3.0, pos / 3.0 + 2.0 / 3.0))
    return pos


def cantor_grid_weights(m: int, depth: int) -> np.ndarray:
    """Node weights w with integral of f dg ~= w @ samples for grid histories.

    Each leaf of the depth-limited subdivision carries mass 2^-depth placed
    at its center (the mean of the restricted measure), and that mass is
    split linearly between the two bracketing grid nodes, which integrates
    the piecewise-linear interpolant exactly against the atomic measure.
    The enumerated depth is capped once leaves resolve below the grid
    spacing, where further subdivision changes the weights by less than
    1e-11.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard ({_MAX_DEPTH})")
    eff = min(depth, max(14, int(np.ceil(np.log2(max(m, 2)))) + 3))
    key = (m, eff)
    cached = _weights_cache.get(key)
    if cached is not None:
        return cached
    pos = _leaf_centers(eff)
    t = pos * m  # node coordinate of sigma = pos - 1 on the grid
    idx = np.clip(np.floor(t).astype(int), 0, m - 1)
    frac = t - idx
    mass = 1.0 / len(pos)
    w = np.zeros(m + 1)
    np.add.at(w, idx, (1.0 - frac) * mass)
    np.add.at(w, idx + 1, frac * mass)
    _weights_cache[key] = w
    return w


def cantor_transform(lam: complex) -> complex:
    """Exponential transform of the Cantor function on [-1, 0].

    Returns g^(lam) = integral of e^(lam * sigma) dg(sigma); the 0-d case
    of ``cantor_transform_grid``.  An entire function of lam with
    g^(0) = 1 and |g^(i omega)| <= 1.
    """
    return complex(cantor_transform_grid(lam))


def cantor_transform_grid(lams: np.ndarray) -> np.ndarray:
    """``cantor_transform`` over an array of arguments (or a scalar): the
    product representation e^(-lam/2) * prod_k cosh(lam / 3^k), truncated
    once every factor is within 1e-16 of 1."""
    lams = np.asarray(lams, dtype=complex)
    prod = np.ones_like(lams)
    for k in range(1, 200):
        factor = np.cosh(lams / 3.0**k)
        prod *= factor
        if np.max(np.abs(factor - 1.0)) < 1e-16:
            break
    return np.exp(-lams / 2.0) * prod


def _cantor_log_derivative(lams: np.ndarray) -> np.ndarray:
    """d/dlam log g^(lam) = -1/2 + sum_k tanh(lam / 3^k) / 3^k, the
    logarithmic derivative of the product form, vectorised; terms are
    summed until they fall below 1e-17."""
    lams = np.asarray(lams, dtype=complex)
    total = np.full_like(lams, -0.5)
    for k in range(1, 200):
        term = np.tanh(lams / 3.0**k) / 3.0**k
        total += term
        if np.max(np.abs(term), initial=0.0) < 1e-17:
            break
    return total


# ---------------------------------------------------------------------------
# Functional application and characteristic data
# ---------------------------------------------------------------------------


class _Atoms(NamedTuple):
    """Phi(f) ~= sum_i W_i f(sigma_i): offsets sigma_i in [-1, 0] and weights
    W_i, k scalars standing for multiples of Id or a (k, n, n) stack of
    matrices.  ``point_masses`` is true when the atoms are the measure
    itself rather than quadrature nodes of it."""

    offsets: np.ndarray
    weights: np.ndarray
    point_masses: bool


def _atoms(phi: DelayFunctional, m: int | None = None) -> _Atoms:
    """Atoms of phi; those of the Cantor kernel sit on the m-node history
    grid, the others do not depend on m.  Matrix weights that are all
    exact multiples of Id, as every 1 x 1 weight is, come back as their
    scalars; ``phi.dim`` still holds the dimension."""
    if isinstance(phi, CantorKernel):
        return _Atoms(-1.0 + np.arange(m + 1) / m, phi.c * cantor_grid_weights(m, phi.depth), False)
    if isinstance(phi, DiscreteDelays):
        if phi.dim is None:
            return _Atoms(np.zeros(0), np.zeros(0), True)
        atoms = _Atoms(phi.delays, phi.matrices, True)
    elif isinstance(phi, DensityKernel):
        atoms = _Atoms(phi.nodes, _trapezoid_weights(phi.m + 1, 1.0 / phi.m)[:, None, None] * phi.samples, False)
    else:
        raise TypeError(f"unknown functional variant: {type(phi).__name__}")
    diagonal = atoms.weights[:, 0, 0]
    if np.array_equal(atoms.weights, diagonal[:, None, None] * np.eye(phi.dim)):
        return atoms._replace(weights=diagonal)
    return atoms


def _as_matrices(weights: np.ndarray, n: int | None) -> np.ndarray:
    """A stack of weights as n x n matrices; scalars become multiples of
    Id, for which n is required.  Matrices must be n x n when n is given."""
    if weights.ndim == 3:
        if n is not None and n != weights.shape[1]:
            raise ValueError(f"dimension {n} does not match functional dimension {weights.shape[1]}")
        return weights
    if n is None:
        raise ValueError("dimension required for a dimension-free functional")
    return weights[:, None, None] * np.eye(n, dtype=weights.dtype)


def _norms(weights: np.ndarray) -> np.ndarray:
    """Spectral norm of every weight in a stack."""
    if weights.ndim == 1:
        return np.abs(weights)
    return np.linalg.svd(weights, compute_uv=False)[:, 0]


def _transform(phi: DelayFunctional, lams, m: int | None = None) -> np.ndarray:
    """sum_i W_i e^(lam sigma_i) for every lam of a flat array: a stack of
    matrices, or scalars standing for multiples of Id.

    With m the exponential is read through its samples on the m-node grid,
    as ``apply`` reads a sampled history; without m the Cantor kernel uses
    the product form of its transform.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if m is None and isinstance(phi, CantorKernel):
        return phi.c * cantor_transform_grid(lams)
    offsets, weights, _ = _atoms(phi, m)
    if m is None:
        profile = np.exp(np.outer(lams, offsets))
    else:
        nodes = -1.0 + np.arange(m + 1) / m
        profile = interp_uniform(np.exp(np.outer(nodes, lams)), -1.0, 1.0 / m, offsets).T
    return _contract(profile, weights)


def _transform_and_derivative(phi: DelayFunctional, lams) -> tuple[np.ndarray, np.ndarray]:
    """``_transform(phi, lams)`` and its lam-derivative sum_i sigma_i W_i
    e^(lam sigma_i); for the Cantor kernel the derivative is the transform
    times ``_cantor_log_derivative``."""
    lams = np.asarray(lams, dtype=complex).ravel()
    if isinstance(phi, CantorKernel):
        value = phi.c * cantor_transform_grid(lams)
        return value, value * _cantor_log_derivative(lams)
    offsets, weights, _ = _atoms(phi)
    profile = np.exp(np.outer(lams, offsets))
    return _contract(profile, weights), _contract(profile * offsets, weights)


def _contract(profile: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i profile[w, i] W_i for every row w of a profile."""
    if weights.ndim == 1:
        return profile @ weights
    return np.einsum("wk,kij->wij", profile, weights.astype(complex))


def apply(phi: DelayFunctional, f: HistoryGrid) -> np.ndarray:
    """Evaluate Phi(f) for a sampled history.

    The atoms read f by piecewise-linear interpolation; the Cantor kernel
    contracts the samples with its grid weights directly.
    """
    if phi.dim not in (None, f.n):
        raise ValueError(f"history dimension {f.n} does not match functional dimension {phi.dim}")
    if isinstance(phi, CantorKernel):
        return phi.c * (cantor_grid_weights(f.m, phi.depth) @ f.samples)
    offsets, weights, _ = _atoms(phi)
    return np.einsum("kij,kj->i", _as_matrices(weights, f.n), f.value_at(offsets))


def total_variation(phi: DelayFunctional) -> float:
    """Mass of the kernel measure on [-1, 0] in the spectral norm: the sum
    of the atom norms, and |c| for the Cantor kernel."""
    if isinstance(phi, CantorKernel):
        return abs(phi.c)
    return float(sum(_norms(_atoms(phi).weights)))


def char_matrix(phi: DelayFunctional, lam: complex, dim: int | None = None) -> np.ndarray:
    """Characteristic contribution Phi applied to the exponential profile.

    Returns the n x n matrix whose action on x equals Phi(sigma ->
    e^(lam * sigma) x): sum_k B_k e^(lam h_k) for discrete delays,
    c * g^(lam) * Id for the Cantor kernel, and the quadrature of
    K(sigma) e^(lam * sigma) for density kernels.  ``dim`` defaults to
    the functional's own dimension; a dimension-free one requires it.
    """
    dim = phi.dim if dim is None else dim
    if phi.dim not in (None, dim):
        raise ValueError(f"dimension {dim} does not match functional dimension {phi.dim}")
    return _as_matrices(_transform(phi, [lam]), dim)[0]


def char_norm_profile(phi: DelayFunctional, alpha: float, omegas: np.ndarray) -> np.ndarray:
    """Spectral norms of char_matrix(alpha + i omega) over the samples."""
    lams = alpha + 1j * np.asarray(omegas, dtype=float)
    if isinstance(phi, CantorKernel):
        return abs(phi.c) * np.abs(cantor_transform_grid(lams))
    return _norms(_transform(phi, lams))
