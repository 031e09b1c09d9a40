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

Every lam reaches the symbol as its real and imaginary parts, two real
arrays that broadcast to a grid (``_grid``): an (R, 1) and a (1, C) part
give the R x C grid of a root search, two arrays of one length a list of
points.  Each exponential splits as e^(lam sigma) = e^(sigma Re lam)
(cos(sigma Im lam) + i sin(sigma Im lam)) (``_exp_axes``), so an R x C
grid costs R + C transcendental calls per offset, and the products that
join the axes are real, so a value is the same in a grid and in a list.

The exponential transform of the Cantor measure is its infinite-product
form g^(lam) = e^(-lam/2) prod_k cosh(lam / 3^k), read in one pass
together with its derivative: the few direct levels where |lam / 3^k| > 1/3
by cosh(a + ib) = cosh a cos b + i sinh a sin b from the axes, and the
rest of the product, a function of y = lam / 3^(D+1) with |y| <= 1/3, by
an eight-term Taylor polynomial in y^2 whose coefficients follow from
F(y) = cosh(y) F(y/3).  The tests check it against mpmath, the
level-by-level product and recursive self-similar subdivision mu ->
(mu o S1^-1 + mu o S2^-1)/2 with S1(x) = x/3, S2(x) = (x+2)/3 on [0, 1].
"""

from __future__ import annotations

import math
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
    the same shape for an array, a complex for a scalar lam, equal to its
    entry in any array.  An entire function of lam with g^(0) = 1 and
    |g^(i omega)| <= 1.
    """
    lam = np.asarray(lam)
    out = _cantor_product(lam.real, lam.imag)
    return complex(out) if np.ndim(out) == 0 else out


def _grid(re, im) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Real and imaginary parts of lam = re + i im as float arrays of one
    ndim, at least 1, and the shape of the grid of lam they broadcast to:
    an R x C grid from an (R, 1) and a (1, C) part, a list of N points
    from two parts of length N."""
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    ndim = max(re.ndim, im.ndim, 1)
    re, im = (part.reshape((1,) * (ndim - part.ndim) + part.shape) for part in (re, im))
    return re, im, np.broadcast_shapes(re.shape, im.shape)


def _grid_batches(re, im, shape: tuple[int, ...], point_entries: int):
    """(points, re, im) for each ``_batches`` slice of the rows (first
    axis) of a grid from ``_grid``, point_entries per lam: the slice of
    the flattened grid they hold, and both parts cut to those rows (a part
    of one row serves them all)."""
    width = math.prod(shape[1:])
    for rows in _batches(shape[0], point_entries * max(1, width)):
        points = slice(rows.start * width, rows.stop * width)
        yield points, (re if len(re) == 1 else re[rows]), (im if len(im) == 1 else im[rows])


def _complex(real, imag):
    """real + i imag, broadcast, each entry made of its two parts as given
    (no arithmetic, so no rounding and no 0 * inf); a numpy complex scalar
    for two scalars."""
    if not isinstance(real, np.ndarray) and not isinstance(imag, np.ndarray):
        return np.complex128(complex(real, imag))
    out = np.empty(np.broadcast(real, imag).shape, dtype=complex)
    out.real, out.imag = real, imag
    return out


def _exp_axes(re, im, sigma: np.ndarray) -> np.ndarray:
    """e^(lam sigma) = e^(sigma Re lam) (cos(sigma Im lam) + i sin(sigma Im
    lam)) for every lam = re + i im of the broadcast grid (leading axes)
    and every sigma of a 1-d array (last axis).  The exp runs on the real
    parts and cos and sin on the imaginary parts, each on its own axis, so
    an R x C grid costs (R + C) len(sigma) of them; the rest is real
    products, which round alike in a grid and in a list."""
    magnitude = np.exp(np.asarray(re, dtype=float)[..., None] * sigma)
    angle = np.asarray(im, dtype=float)[..., None] * sigma
    return _complex(magnitude * np.cos(angle), magnitude * np.sin(angle))


#: 3^k for every level k a finite lam can reach, inf past the float range.
_POW3 = np.array([3.0**k if k < 647 else np.inf for k in range(666)])


def _tail_coefficients(tol: float = 1e-18) -> np.ndarray:
    """b_j with F(y) = prod_{m >= 0} cosh(y / 3^m) = sum_j b_j y^(2j).

    F(y) = cosh(y) F(y / 3) gives b_0 = 1 and b_j (1 - 9^-j) = sum_{i=1..j}
    b_{j-i} 9^-(j-i) / (2i)!.  The series stops before the first term
    b_j 9^-j below tol, the largest omitted term at |y| <= 1/3: eight
    terms, the first omitted one about 1.2e-19.
    """
    b = [1.0]
    while b[-1] * 9.0 ** -(len(b) - 1) >= tol:
        j = len(b)
        b.append(sum(b[j - i] * 9.0 ** -(j - i) / math.factorial(2 * i) for i in range(1, j + 1)) / (1.0 - 9.0**-j))
    return np.array(b[:-1])


#: Taylor coefficients in y^2 of the tail F (``_tail_coefficients``) and of F'(y) / y.
_TAIL = _tail_coefficients()
_TAIL_SLOPE = 2.0 * np.arange(1, len(_TAIL)) * _TAIL[1:]


def _horner(coefficients: np.ndarray, x):
    """sum_j coefficients[j] x^j, at least two coefficients."""
    out = x * coefficients[-1] + coefficients[-2]
    for b in coefficients[-3::-1]:
        out = out * x + b
    return out


def _cantor_product(re, im, derivative: bool = False):
    """g^(lam) = e^(-lam/2) prod_{k >= 1} cosh(lam / 3^k) for lam = re + i
    im over the grid the two real parts broadcast to (``_grid``), with
    ``derivative`` also g^'(lam); an array of that shape, or of the
    broadcast shape of the parts as given.

    Each lam has its own count D = ceil(log3 |lam|) of direct levels (none
    for |lam| <= 1 or a non-finite lam), so no value depends on the
    others, nor on its batch, nor on whether it came in a grid or a list:

        g^(lam) = e^(-lam/2) prod_{k <= D} cosh(lam / 3^k) F(lam / 3^(D+1)),

    F(y) = prod_{m >= 0} cosh(y / 3^m) with |y| <= 1/3, a Horner
    polynomial in y^2 (``_TAIL``), and F' another.  e^(-lam/2) and the
    direct levels split as cosh(a + ib) = cosh a cos b + i sinh a sin b,
    their transcendental calls on the real and imaginary axes alone, as
    in ``_exp_axes``.  g^' = e^(-lam/2) (P' - P/2), P the product: the tail
    carries P' - P 3^-D / 2, and each direct level adds its factor
    derivative c'_k - c_k / 3^k = -e^(-lam/3^k) / 3^k (1/2 = sum_k 3^-k),
    which leaves no cancellation where the c_k are large.

    Two 0-d real parts with im = 0 stay numpy scalars, 10x less overhead
    per operation and the same bits as an array on the real axis; complex
    0-d input, whose scalar products would round without FMA, goes
    through an array of one.
    """
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if re.ndim == im.ndim == 0 and im == 0.0:
        both = _cantor_levels(re[()], im[()], derivative)
        return both if derivative else both[0]
    shape = np.broadcast_shapes(re.shape, im.shape)
    re, im, grid = _grid(re, im)
    out = np.empty((1 + derivative, math.prod(grid)), dtype=complex)
    for points, re_rows, im_rows in _grid_batches(re, im, grid, 8):
        out[:, points] = np.reshape(_cantor_levels(re_rows, im_rows, derivative), (len(out), -1))
    out = out.reshape((len(out),) + shape)
    return tuple(out) if derivative else out[0]


def _cantor_levels(re, im, derivative: bool):
    """``_cantor_product`` on one batch of broadcastable parts, or on two
    scalars: (g^,) or (g^, g^').  A direct level above a lam's count
    leaves it as it is; the levels every lam of the batch takes need no
    mask.  Complex values are only multiplied and added, by each other or
    by reals (numpy divides complex values through a reciprocal).  Both
    factors of a complex product are named arrays: numpy computes a product
    with a temporary factor of 256 KiB or more in place, its factors
    swapped, and a complex product with FMA is not commutative in the last
    bit; nor in place on one element, which rounds without FMA."""
    size = np.hypot(re, im)
    direct = _POW3.searchsorted(np.where(np.isfinite(size), size, 0.0))
    three = _POW3[direct + 1]
    y = _complex(re / three, im / three)
    y2 = y * y
    p = _horner(_TAIL, y2)
    if derivative:
        slope = _horner(_TAIL_SLOPE, y2)
        pp = (y * slope - p * 1.5) * (1.0 / three)  # F'(y) / 3^(D+1) - F(y) 3^-D / 2
    levels = int(direct.max(initial=0))
    common = int(direct.min(initial=levels))
    for k in range(levels, 0, -1):
        a, b = re / _POW3[k], im / _POW3[k]
        cos_b, sin_b = np.cos(b), np.sin(b)
        c = _complex(np.cosh(a) * cos_b, np.sinh(a) * sin_b)
        if derivative:
            shrink = np.exp(-a) / _POW3[k]
            drift = _complex(shrink * cos_b, -shrink * sin_b)  # e^(-lam/3^k) / 3^k
            step = pp * c - p * drift
            pp = step if k <= common else np.where(direct >= k, step, pp)
        p = p * c if k <= common else np.where(direct >= k, p * c, p)
    half = np.exp(re * -0.5)
    scale = _complex(half * np.cos(im * 0.5), -half * np.sin(im * 0.5))
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


def _delay_stencil(atoms: _Atoms, steps_per_unit: int, stage: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Lags and weights with which the atoms of the delay term read a
    uniform trajectory.

    With ``steps_per_unit`` nodes per unit time, the delay term at offset
    ``stage`` into the step leaving node j is sum_l weights[l] u_{j - lags[l]}:
    the piecewise-linear interpolant at position j + stage + offset *
    steps_per_unit.  Positions past node j - 1 read the interval (j - 1, j)
    with a fraction above 1, which extrapolates from it, so a stage never
    reads a node that is not yet computed.  Only lags that carry a nonzero
    weight are kept, in ascending order.  Each weight has the shape and
    dtype of one atom weight: a scalar standing for a multiple of Id, or
    any stack of matrices.
    """
    offsets, values = atoms.offsets, atoms.weights
    whole, frac = _grid_position(stage + offsets * steps_per_unit)
    capped = np.minimum(whole, -1)
    frac = frac + (whole - capped)
    lag, coef = np.concatenate((-capped, -capped - 1)), np.concatenate((1.0 - frac, frac))
    atom = np.tile(np.arange(len(offsets)), 2)
    keep = coef != 0.0
    lags, where = np.unique(lag[keep], return_inverse=True)
    weights = np.zeros((len(lags),) + values.shape[1:], dtype=values.dtype)
    scale = coef[keep].reshape((-1,) + (1,) * (values.ndim - 1))
    np.add.at(weights, where, scale * values[atom[keep]])
    return lags, weights


def _grid_weights(phi: DelayFunctional, m: int) -> np.ndarray:
    """Weights Q_l with Phi(f) = sum_l Q_l f(sigma_l) for every history f
    sampled on the m + 1 nodes sigma_l = -1 + l/m, scalars or n x n
    matrices as the atom weights are: the stage-0 delay stencil with one
    step per node, whose lag l reads node m - l."""
    lags, weights = _delay_stencil(_atoms(phi, m), m)
    out = np.zeros((m + 1,) + weights.shape[1:])
    out[m - lags] = weights
    return out


def _symbol(phi: DelayFunctional, re, im, m: int | None = None, derivative: bool = False):
    """(T, T') with T(lam) = Phi(e^(lam .)) = sum_i W_i e^(lam sigma_i) and
    T'(lam) = sum_i sigma_i W_i e^(lam sigma_i) (None unless ``derivative``)
    for every lam = re + i im of the grid the two real parts broadcast to,
    flattened: stacks of matrices, or scalars standing for multiples of Id.

    The exponentials come from the axes of the grid (``_exp_axes``).  With
    m they are read through their samples on the m-node grid, as ``apply``
    reads a sampled history (``_grid_weights``); without m the Cantor
    kernel uses the product form of its transform.
    """
    if m is None and isinstance(phi, CantorKernel):
        both = _cantor_product(re, im, derivative)
        if derivative:
            return phi.c * np.ravel(both[0]), phi.c * np.ravel(both[1])
        return phi.c * np.ravel(both), None
    if m is None:
        offsets, weights, _ = _atoms(phi)
    else:
        offsets, weights = -1.0 + np.arange(m + 1) / m, _grid_weights(phi, m)
    profile = _exp_axes(re, im, offsets)
    profile = profile.reshape(math.prod(profile.shape[:-1]), len(offsets))
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
    lam = complex(lam)
    return _as_matrices(_symbol(phi, lam.real, lam.imag)[0], dim)[0]


def char_norm_profile(phi: DelayFunctional, alpha: float, omegas: np.ndarray) -> np.ndarray:
    """Spectral norms of char_matrix(alpha + i omega) over the samples."""
    return _norms(_symbol(phi, alpha, omegas)[0])
