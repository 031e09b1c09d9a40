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
take the scalar path from that shape alone.  The atoms, all of nonzero weight,
are the delays with their matrices, the trapezoid nodes of a density kernel's
own grid, and the Cantor-weighted history grid nodes.  This is the only module
that tells the variants apart, and it reads the delay term one way per domain:

* on a sampled history through ``_grid_weights``, the weights Q_l with
  Phi(f) = sum_l Q_l f(sigma_l) on the history nodes, built by the stage-0
  delay stencil (``_delay_stencil``, which the time-domain routes read
  with their own stages); ``apply`` contracts the samples with them;
* on exponentials through ``_symbol``, T(lam) = Phi(e^(lam .)) with its
  lam-derivative (weights sigma_i W_i), read from the atoms, or from the
  grid weights when the exponential is sampled on a history grid;
  ``char_matrix`` and ``char_norm_profile`` read it.

The Cantor kernel keeps two exact overrides: its total variation is |c|,
and off the grid its symbol is the product form of its transform.

The exponential transform of the Cantor measure is its infinite-product
form g^(lam) = e^(-lam/2) prod_k cosh(lam / 3^k), read in one pass
together with its derivative: cosh on the few top levels where |lam / 3^k|
is large, the exact triplication cosh 3x = cosh x (4 cosh^2 x - 3) on the
levels below, and the product rule for g^'.  The tests check it against
recursive self-similar subdivision mu -> (mu o S1^-1 + mu o S2^-1)/2 with
S1(x) = x/3, S2(x) = (x+2)/3 on [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple, Union

import numpy as np

from .errors import PreconditionError
from .history import HistoryGrid, _batches, _frozen, _trapezoid_weights

_MAX_DEPTH = 40


def _real_array(values, what: str) -> np.ndarray:
    """A float copy of values.  Complex data is rejected, not cast: the
    cast would drop the imaginary part, and every model is real."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):
        raise ValueError(f"{what} must be real, got complex values")
    return np.array(arr, dtype=float)


@dataclass(frozen=True, eq=False)
class DiscreteDelays:
    """Point-mass functional sum_k B_k f(h_k), delays h_k in [-1, 0]; arrays copied, read-only."""

    matrices: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        matrices = _real_array(self.matrices, "delay matrices")
        delays = np.atleast_1d(_real_array(self.delays, "delays"))
        if matrices.size == 0:
            matrices, delays = matrices.reshape(0, 0, 0), delays.reshape(0)
        elif matrices.ndim == 2:
            matrices = matrices[None]
        object.__setattr__(self, "matrices", _frozen(matrices))
        object.__setattr__(self, "delays", _frozen(delays))
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError("delay matrices must be a stack of square matrices")
        if len(delays) != len(matrices):
            raise ValueError("one delay per matrix required")
        if not np.all(np.isfinite(matrices)):
            raise ValueError("delay matrices have non-finite entries")
        if not np.all((delays >= -1.0) & (delays <= 0.0)):
            raise ValueError("delays must lie in [-1, 0]")

    @property
    def dim(self) -> int | None:
        return None if self.matrices.size == 0 else self.matrices.shape[1]


@dataclass(frozen=True)
class CantorKernel:
    """Kernel c * g * Id with g the Cantor function; total variation |c|.

    ``depth`` bounds the recursion depth of the self-similar quadrature;
    it acts componentwise, so the kernel has no intrinsic dimension.
    """

    c: float
    depth: int = 24

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "depth", int(self.depth))
        if not np.isfinite(self.c):
            raise ValueError("Cantor kernel coefficient must be finite")
        if not 1 <= self.depth <= _MAX_DEPTH:
            raise PreconditionError(f"Cantor kernel depth must lie in [1, {_MAX_DEPTH}], got {self.depth}")

    @property
    def dim(self) -> int | None:
        return None


@dataclass(frozen=True, eq=False)
class DensityKernel:
    """Absolutely continuous kernel, Phi(f) = integral K(sigma) f(sigma).

    ``samples[l]`` is the n x n matrix K(sigma_l) on the uniform grid
    sigma_l = -1 + l/m; integrals use the composite trapezoid rule.  Samples copied, read-only.
    """

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", _frozen(_real_array(self.samples, "density kernel samples")))
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
    return DiscreteDelays(np.atleast_2d(matrix)[None], np.array([delay]))


# ---------------------------------------------------------------------------
# Cantor measure machinery
# ---------------------------------------------------------------------------


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
    1e-11.  The cached array is returned read-only.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds guard ({_MAX_DEPTH})")
    return _cantor_weights(m, min(depth, max(14, int(np.ceil(np.log2(max(m, 2)))) + 3)))


@cache
def _cantor_weights(m: int, depth: int) -> np.ndarray:
    """``cantor_grid_weights`` at the capped depth, once per (m, depth)."""
    pos = _leaf_centers(depth)
    t = pos * m  # node coordinate of sigma = pos - 1 on the grid
    idx = np.clip(np.floor(t).astype(int), 0, m - 1)
    frac = t - idx
    mass = 1.0 / len(pos)
    w = np.zeros(m + 1)
    np.add.at(w, idx, (1.0 - frac) * mass)
    np.add.at(w, idx + 1, frac * mass)
    return _frozen(w)


def cantor_transform(lam):
    """Exponential transform of the Cantor function on [-1, 0].

    Returns g^(lam) = integral of e^(lam * sigma) dg(sigma): an array of
    the same shape for an array, a complex for a scalar lam, computed as an
    array of one so that it equals its entry in any array.  An entire
    function of lam with g^(0) = 1 and |g^(i omega)| <= 1.
    """
    out = _cantor_product(np.reshape(lam, -1)).reshape(np.shape(lam))
    return complex(out) if np.ndim(out) == 0 else out


#: 3^k for every level k a finite lam can reach, inf past the float range.
_POW3 = np.array([3.0**k if k < 647 else np.inf for k in range(666)])
#: Levels of ``_cantor_product`` at |lam| = 1: the first K >= 2 with (3^(1-K))^2 / 2 < 1e-16.
_LEVELS = next(k for k in range(2, 99) if (1.0 / _POW3[k - 1]) ** 2 / 2.0 < 1e-16)


def _cantor_product(lams, derivative: bool = False):
    """g^(lam) = e^(-lam/2) P, P = prod_{k=1..K} c_k, c_k = cosh(x_k), x_k =
    lam / 3^k, over an array of lam (or a scalar); with ``derivative`` also
    g^'(lam) = e^(-lam/2) (P' - P/2).

    Each element has its own counts, so no value depends on the others: its
    top ``direct`` = ceil(log3 |lam|) levels (none for |lam| <= 1 or a
    non-finite lam), where |x_k| > 1/3, take cosh directly, and K = direct +
    _LEVELS, where |x_K|^2 / 2 < 1e-16.  Below them d_k = c_k - 1 climbs from
    d_K = x_K^2 / 2 (exact, as |x_K| < 5e-9) by the triplication cosh 3x =
    cosh x (4 cosh^2 x - 3), d_{k-1} = d_k (3 + 2 d_k)^2, which carries
    relative errors by the factor (3 + 6 d_k) / (3 + 2 d_k), about 1.  P'
    follows by the product rule, with d'_{k-1} = d'_k (3 + 2 d_k)(3 + 6 d_k);
    the top levels carry P' - P 3^-k / 2 instead, through the factor
    derivatives c'_k - c_k / 3^k = -e^(-x_k) / 3^k (1/2 = sum_k 3^-k), which
    leaves no cancellation in P' - P/2 where the c_k are large.
    """
    lams = np.asarray(lams, dtype=complex)
    size = np.abs(lams)
    direct = np.searchsorted(_POW3, np.where(np.isfinite(size), size, 0.0))
    if lams.ndim == 0:
        # numpy scalars: 10x less overhead per operation, but no FMA (only a real lam surely equals its entry)
        both = _cantor_levels(lams[()], int(direct), derivative)
        return both if derivative else both[0]
    flat, direct = lams.reshape(-1), direct.reshape(-1)
    out = np.empty((1 + derivative, flat.size), dtype=complex)
    for sl in _batches(flat.size, 8):
        out[:, sl] = _cantor_levels(flat[sl], direct[sl], derivative)
    out = out.reshape((len(out),) + lams.shape)
    return tuple(out) if derivative else out[0]


def _cantor_levels(lams, direct, derivative: bool):
    """The level loop of ``_cantor_product`` on a batch or a scalar, with the
    ``direct`` counts of its elements: (g^,) or (g^, g^').  Every element
    takes the same _LEVELS - 1 triplications; a top level above an element's
    count leaves it as it is.  The products are out of place: numpy rounds
    an in-place complex product of one element without FMA."""
    three_k = _POW3[direct + _LEVELS]
    x = lams / three_k
    d = x * x / 2.0
    p = d + 1.0
    if derivative:
        dp = x / three_k
        pp = dp + 0.0
    for _ in range(_LEVELS - 1):
        if derivative:
            dp = dp * (d * 6.0 + 3.0)
        t = d * 2.0 + 3.0
        d = d * t * t
        if derivative:
            dp = dp * t
            pp = pp + (pp * d + p * dp)
        p = p + p * d
    if derivative:
        pp = pp - p * (0.5 / _POW3[direct])
    for k in range(np.max(direct), 0, -1):
        c = np.cosh(lams / _POW3[k])
        if derivative:
            pp = np.where(direct >= k, pp * c - p * np.exp(lams / -_POW3[k]) / _POW3[k], pp)
        p = np.where(direct >= k, p * c, p)
    scale = np.exp(lams * -0.5)
    return (p * scale, pp * scale) if derivative else (p * scale,)


# ---------------------------------------------------------------------------
# Functional application and characteristic data
# ---------------------------------------------------------------------------


class _Atoms(NamedTuple):
    """Phi(f) ~= sum_i W_i f(sigma_i): offsets sigma_i in [-1, 0] and weights
    W_i, k scalars standing for multiples of Id or a (k, n, n) stack of
    matrices, each nonzero in some entry.  ``point_masses`` is true when the
    atoms are the measure itself rather than quadrature nodes of it."""

    offsets: np.ndarray
    weights: np.ndarray
    point_masses: bool


def _atoms(phi: DelayFunctional, m: int | None = None) -> _Atoms:
    """Atoms of phi with a weight nonzero in some entry; those of the Cantor
    kernel are the m-node history grid nodes of nonzero grid weight, the
    others do not depend on m.  Matrix weights that are all exact multiples
    of Id, as every 1 x 1 weight is and the empty stack of an all-zero phi,
    come back as scalars; ``phi.dim`` still holds the dimension."""
    if isinstance(phi, CantorKernel):
        atoms = _Atoms(-1.0 + np.arange(m + 1) / m, phi.c * cantor_grid_weights(m, phi.depth), False)
    elif isinstance(phi, DiscreteDelays):
        if phi.dim is None:
            return _Atoms(np.zeros(0), np.zeros(0), True)
        atoms = _Atoms(phi.delays, phi.matrices, True)
    elif isinstance(phi, DensityKernel):
        atoms = _Atoms(phi.nodes, _trapezoid_weights(phi.m + 1, 1.0 / phi.m)[:, None, None] * phi.samples, False)
    else:
        raise TypeError(f"unknown functional variant: {type(phi).__name__}")
    weighted = atoms.weights.reshape(len(atoms.weights), -1).any(axis=1)
    atoms = _Atoms(atoms.offsets[weighted], atoms.weights[weighted], atoms.point_masses)
    if atoms.weights.ndim == 3 and np.array_equal(atoms.weights, atoms.weights[:, :1, :1] * np.eye(phi.dim)):
        return atoms._replace(weights=atoms.weights[:, 0, 0])
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


def _delay_stencil(
    atoms: _Atoms, steps_per_unit: int, stages: tuple[float, ...]
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
    Each weight has the shape and dtype of one atom weight: a scalar
    standing for a multiple of Id, or any stack of matrices.
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
    weights = np.zeros((len(stages), len(lags)) + values.shape[1:], dtype=values.dtype)
    scale = coef[keep].reshape((-1,) + (1,) * (values.ndim - 1))
    np.add.at(weights, (stage[keep], where), scale * values[atom[keep]])
    return lags, weights


def _grid_weights(phi: DelayFunctional, m: int) -> np.ndarray:
    """Weights Q_l with Phi(f) = sum_l Q_l f(sigma_l) for every history f
    sampled on the m + 1 nodes sigma_l = -1 + l/m, scalars or n x n
    matrices as the atom weights are: the stage-0 delay stencil with one
    step per node, whose lag l reads node m - l."""
    lags, weights = _delay_stencil(_atoms(phi, m), m, (0.0,))
    out = np.zeros((m + 1,) + weights.shape[2:])
    out[m - lags] = weights[0]
    return out


def _symbol(phi: DelayFunctional, lams, m: int | None = None, derivative: bool = False):
    """(T, T') with T(lam) = Phi(e^(lam .)) = sum_i W_i e^(lam sigma_i) and
    T'(lam) = sum_i sigma_i W_i e^(lam sigma_i) (None unless ``derivative``)
    for every lam of a flat array: stacks of matrices, or scalars standing
    for multiples of Id.

    With m the exponential is read through its samples on the m-node grid,
    as ``apply`` reads a sampled history (``_grid_weights``); without m
    the Cantor kernel uses the product form of its transform.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    if m is None and isinstance(phi, CantorKernel):
        both = _cantor_product(lams, derivative)
        return (phi.c * both[0], phi.c * both[1]) if derivative else (phi.c * both, None)
    if m is None:
        offsets, weights, _ = _atoms(phi)
    else:
        offsets, weights = -1.0 + np.arange(m + 1) / m, _grid_weights(phi, m)
    profile = np.exp(np.outer(lams, offsets))
    return _contract(profile, weights), (_contract(profile * offsets, weights) if derivative else None)


def _contract(profile: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i profile[w, i] W_i for every row w of a profile."""
    if weights.ndim == 1:
        # einsum sums each row in one order, whatever the rows; BLAS does not
        return np.einsum("wk,k->w", profile, weights)
    return np.einsum("wk,kij->wij", profile, weights.astype(complex))


def apply(phi: DelayFunctional, f: HistoryGrid) -> np.ndarray:
    """Evaluate Phi(f) for a sampled history: its samples contracted with
    the grid weights of Phi (``_grid_weights``)."""
    if phi.dim not in (None, f.n):
        raise ValueError(f"history dimension {f.n} does not match functional dimension {phi.dim}")
    weights = _grid_weights(phi, f.m)
    if weights.ndim == 1:
        return weights @ f.samples
    return np.einsum("lij,lj->i", weights, f.samples)


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
    return _as_matrices(_symbol(phi, [lam])[0], dim)[0]


def char_norm_profile(phi: DelayFunctional, alpha: float, omegas: np.ndarray) -> np.ndarray:
    """Spectral norms of char_matrix(alpha + i omega) over the samples."""
    lams = alpha + 1j * np.asarray(omegas, dtype=float)
    if isinstance(phi, CantorKernel):
        return abs(phi.c) * np.abs(_cantor_product(lams))
    return _norms(_symbol(phi, lams)[0])
