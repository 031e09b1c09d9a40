"""Discrete history space on the delay interval [-1, 0].

A history is a function f: [-1, 0] -> R^n stored by its samples on the
uniform grid sigma_j = -1 + j/m and interpreted piecewise linearly between
nodes.  Together with a head vector x it forms the product state (x, f)
evolved by the delay solvers.  This module provides the product norm and
the two building blocks of the unperturbed evolution: the nilpotent left
shift of the history and the injection of the flowed head into the
history window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError

if TYPE_CHECKING:
    from .evolution import SpatialOperator, Trajectory

#: Tolerance for the head/history compatibility condition f(0) = x.
#: Solver constructions enforce the identity exactly; this only absorbs
#: round-off.
COMPAT_TOL = 1e-9

#: Entries per temporary of a batch of ``_batches``; each item is computed alone, so no value depends on it.
_BATCH_ENTRIES = 65_536


def _batches(count: int, item_entries: int):
    """Slices of range(count), max(1, _BATCH_ENTRIES // item_entries) items each."""
    size = max(1, _BATCH_ENTRIES // item_entries)
    return (slice(start, start + size) for start in range(0, count, size))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """The array itself, marked read-only."""
    arr.setflags(write=False)
    return arr


def _as_samples(values: np.ndarray) -> np.ndarray:
    """A read-only copy of history samples, one row per node."""
    arr = np.array(values)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError(f"history samples must be a (m+1, n) array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("history samples contain non-finite entries")
    return _frozen(arr)


def interp_uniform(values: np.ndarray, left: float, dx: float, queries: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of uniformly spaced samples.

    ``values`` has one row per node, nodes start at ``left`` with spacing
    ``dx``.  Queries beyond either end are extrapolated from the outermost
    interval.
    """
    q = np.atleast_1d(np.asarray(queries, dtype=float))
    pos = (q - left) / dx
    idx = np.clip(np.floor(pos).astype(int), 0, len(values) - 2)
    frac = pos - idx
    return values[idx] * (1.0 - frac)[:, None] + values[idx + 1] * frac[:, None]


def _trapezoid_weights(count: int, h: float) -> np.ndarray:
    """Composite trapezoid weights for ``count`` nodes with spacing h."""
    w = np.full(count, h)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True, eq=False)
class HistoryGrid:
    """Sampled history on [-1, 0] with integrability exponent p.

    ``samples[j]`` is the value at sigma_j = -1 + j/m; the last row is the
    value at sigma = 0.  Requires m >= 2 and 1 <= p < infinity.  The
    samples are copied at construction and read-only.
    """

    samples: np.ndarray
    p: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "samples", _as_samples(self.samples))
        if len(self.samples) < 3:
            raise ValueError("history grid needs m >= 2 (at least 3 nodes)")
        if not (1.0 <= self.p < np.inf):
            raise ValueError(f"integrability exponent must satisfy 1 <= p < inf, got {self.p}")

    @property
    def m(self) -> int:
        return len(self.samples) - 1

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        return -1.0 + np.arange(self.m + 1) / self.m

    def value_at(self, sigma) -> np.ndarray:
        """Piecewise-linear evaluation at points of [-1, 0]."""
        q = np.atleast_1d(np.asarray(sigma, dtype=float))
        if q.size and (q.min() < -1.0 - 1e-12 or q.max() > 1e-12):
            raise ValueError("history evaluation points must lie in [-1, 0]")
        out = interp_uniform(self.samples, -1.0, 1.0 / self.m, q)
        return out[0] if np.isscalar(sigma) else out

    def __add__(self, other: "HistoryGrid") -> "HistoryGrid":
        if self.m != other.m or self.n != other.n:
            raise ValueError("history grids must share shape to be added")
        if self.p != other.p:
            raise ValueError(f"history grids must share the exponent to be added, got p = {self.p} and {other.p}")
        return HistoryGrid(self.samples + other.samples, self.p)

    def __mul__(self, scalar) -> "HistoryGrid":
        return HistoryGrid(self.samples * scalar, self.p)

    __rmul__ = __mul__

    @classmethod
    def constant(cls, value, m: int, p: float = 2.0) -> "HistoryGrid":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return cls(np.tile(v, (m + 1, 1)), p)

    @classmethod
    def from_function(cls, fn, m: int, p: float = 2.0) -> "HistoryGrid":
        nodes = -1.0 + np.arange(m + 1) / m
        return cls(np.array([np.atleast_1d(fn(s)) for s in nodes], dtype=float), p)


@dataclass(frozen=True, eq=False)
class DelayState:
    """Product state (head, history) with matching dimensions; the head is
    copied at construction and read-only."""

    head: np.ndarray
    history: HistoryGrid

    def __post_init__(self):
        object.__setattr__(self, "head", _frozen(np.array(self.head, ndmin=1)))
        if self.head.ndim != 1:
            raise ValueError("head must be a vector")
        if not np.all(np.isfinite(self.head)):
            raise ValueError("head contains non-finite entries")
        if self.head.shape[0] != self.history.n:
            raise ValueError(
                f"head dimension {self.head.shape[0]} does not match history dimension {self.history.n}"
            )

    @property
    def n(self) -> int:
        return self.head.shape[0]

    def compat_defect(self) -> float:
        """Distance between the history value at 0 and the head."""
        return float(np.linalg.norm(self.history.samples[-1] - self.head))

    def is_compatible(self) -> bool:
        return self.compat_defect() <= COMPAT_TOL

    def __add__(self, other: "DelayState") -> "DelayState":
        return DelayState(self.head + other.head, self.history + other.history)

    def __mul__(self, scalar) -> "DelayState":
        return DelayState(self.head * scalar, self.history * scalar)

    __rmul__ = __mul__


def lp_norm(f: HistoryGrid) -> float:
    """L^p norm of the history, (integral of ||f(sigma)||^p)^(1/p).

    The integral over [-1, 0] uses the composite trapezoid rule on the
    sample grid with the Euclidean norm on values.
    """
    return float(_lp_norms(f.samples, f.p))


def _lp_norms(samples: np.ndarray, p: float) -> np.ndarray:
    """``lp_norm`` of every history in a stack of samples, shape
    (..., m + 1, n)."""
    return _lp_integrals(samples, p) ** (1.0 / p)


def _lp_integrals(samples: np.ndarray, p: float) -> np.ndarray:
    """The integral of ``lp_norm``, before its root, for a stack of samples."""
    g = np.linalg.norm(samples, axis=-1) ** p
    h = 1.0 / (samples.shape[-2] - 1)
    return h * (0.5 * (g[..., 0] + g[..., -1]) + g[..., 1:-1].sum(axis=-1))


def state_norm(s: DelayState) -> float:
    """Product norm ||head|| + ||history||_p."""
    return float(np.linalg.norm(s.head)) + lp_norm(s.history)


def nilpotent_shift(t: float, f: HistoryGrid) -> HistoryGrid:
    """Left shift of the history by t with zero fill from the right.

    Returns g with g(tau) = f(t + tau) where t + tau < 0 and g(tau) = 0
    otherwise; the zero branch wins the tie at t + tau = 0, so the result
    vanishes identically once t >= 1.  Off-grid values of f are obtained
    by piecewise-linear interpolation; t = 0 returns f unchanged.
    """
    if t < 0:
        raise ValueError("shift time must be nonnegative")
    if t == 0:
        return f
    q = t + f.nodes
    out = np.zeros_like(f.samples)
    mask = q < 0
    if mask.any():
        out[mask] = f.value_at(q[mask])
    return HistoryGrid(out, f.p)


def _shifted_weights(weights: np.ndarray, ts: np.ndarray, m: int) -> np.ndarray:
    """sum_l weights[l] g(sigma_l) for g = nilpotent_shift(ts[i], f) as weights
    on f: entry [i, q] weighs f(sigma_q), by the rules of ``nilpotent_shift``
    (identity at t = 0, zero where t + sigma_l >= 0, its interpolation)."""
    q = ts[:, None] + (-1.0 + np.arange(m + 1) / m)
    i, l = np.nonzero((q < 0) & (ts[:, None] > 0))
    pos = (q[i, l] + 1.0) / (1.0 / m)
    idx = np.clip(np.floor(pos).astype(int), 0, m - 1)
    frac = (pos - idx).reshape((-1,) + (1,) * (weights.ndim - 1))
    out = np.zeros(q.shape + weights.shape[1:])
    out[ts == 0] = weights
    np.add.at(out, (i, idx), (1.0 - frac) * weights[l])
    np.add.at(out, (i, idx + 1), frac * weights[l])
    return out


def history_injection(t: float, x: np.ndarray, A: "SpatialOperator", m: int = 64, p: float = 2.0) -> HistoryGrid:
    """History window filled with the flowed head, zero before it enters.

    Returns the grid sampling of tau -> exp((t + tau) A) x on the nodes
    with t + tau >= 0 and zero elsewhere.  For t = 0 the window is empty
    and the result is identically zero; for t >= 1 every node carries the
    flowed value.
    """
    if t < 0:
        raise ValueError("injection time must be nonnegative")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = -1.0 + np.arange(m + 1) / m
    out = np.zeros((m + 1, x.shape[0]))
    if t > 0:
        q = t + nodes
        mask = q >= 0
        if mask.any():
            out[mask] = A.propagate(x, q[mask])
    return HistoryGrid(out, p)


def _segments(traj: "Trajectory", times) -> np.ndarray:
    """Segments u_t on the trajectory's m + 1 history nodes, (len(times), m + 1, n): the rows of
    ``traj.values`` when every query u(t + sigma) lands on a node (the interpolant at fraction 0 is
    the node's value up to the sign of a zero, which no norm reads), else ``Trajectory.value_at``."""
    queries = (np.asarray(times, dtype=float)[:, None] + (-1.0 + np.arange(traj.m + 1) / traj.m)).ravel()
    # the node positions interp_uniform computes, (q - left) / dx with left = -1
    pos = (queries + 1.0) / traj.dt
    if np.array_equal(pos, np.rint(pos)) and 0 <= pos.min() and pos.max() < len(traj.values):
        rows = traj.values[pos.astype(np.intp)]
    else:
        rows = traj.value_at(queries)
    return rows.reshape(-1, traj.m + 1, traj.n)


def segment(traj: "Trajectory", t: float) -> HistoryGrid:
    """History segment u_t(sigma) = u(t + sigma) resampled from a trajectory
    on its grid of ``traj.m`` intervals, with its exponent ``traj.p``.

    The trajectory must cover [t - 1, t], up to the 1e-9 slack of
    ``Trajectory.value_at``; values at off-grid times come from
    piecewise-linear interpolation (``_segments``).
    """
    if t < 0 or t > traj.t_end + 1e-9:
        raise PreconditionError(f"segment time {t} outside trajectory coverage [0, {traj.t_end}]")
    return HistoryGrid(_segments(traj, [t])[0], traj.p)
