"""Scenario documents and report tables.

A scenario is a JSON object with three sections::

    {"model":   {"A": {"kind": ..., "payload": {...}},
                 "phi": {"variant": ..., "payload": {...}},
                 "p": 2.0},
     "initial": {"head": [...],
                 "history": {"kind": ..., "payload": {...}}},
     "run":     {"T": ..., "dt": ..., "m": ...}}

The three tagged sections, ``model.A``, ``model.phi`` and
``initial.history``, are read and written through one table, ``_KINDS``,
which lists their kinds: per kind, the readers of its payload fields, its
builder and the payload of a built object.  A new kind is one table entry
and its builder.  Unknown keys are rejected everywhere.

``scenario_to_dict`` stores no tag: it writes each section as the first
kind whose payload reads back to the same object bit for bit, so a section
is written back as the kind it was read as (a polynomial history as its
samples).  An operator that matches no kind, such as a hand-built tagged
matrix, writes as "matrix" and loses its eigenvalue tags.

CSV output uses a header row, '.' decimals and no locale; every float is
written as its shortest round-trip ``repr``, so fixed inputs give
byte-identical files.  Float tables go through ``write_table``, which
computes that text in numpy a block of rows at a time.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError
from .evolution import SpatialOperator, SystemModel, Trajectory, _unit_steps, scalar_operator
from .functional import CantorKernel, DensityKernel, DiscreteDelays
from .history import DelayState, HistoryGrid, _batches
from .scenarios import laplacian_dirichlet_1d

logger = logging.getLogger(__name__)


def _check_keys(obj, required: set[str], optional: set[str], path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioError(f"{path}: missing required field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioError(f"{path}: unknown field(s) {sorted(unknown)}")
    return obj


def _number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioError(f"{path}: expected a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: expected a finite number, got {value}")
    return value


def _integer(obj, path: str, minimum: int) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < minimum:
        raise ScenarioError(f"{path}: expected an integer >= {minimum}")
    return obj


def _array(obj, path: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{path}: not a numeric array ({exc})") from None
    if arr.ndim != ndim:
        raise ScenarioError(f"{path}: expected a {ndim}-dimensional array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ScenarioError(f"{path}: non-finite entries")
    return arr


def _terms(obj, path: str) -> tuple[list[np.ndarray], list[float]]:
    if not isinstance(obj, list):
        raise ScenarioError(f"{path}: expected a list")
    mats, delays = [], []
    for i, term in enumerate(obj):
        _check_keys(term, {"matrix", "delay"}, set(), f"{path}[{i}]")
        mats.append(_array(term["matrix"], f"{path}[{i}].matrix", 2))
        delays.append(_number(term["delay"], f"{path}[{i}].delay"))
    return mats, delays


# ---------------------------------------------------------------------------
# Tagged sections: one table of kinds, read and written through it
# ---------------------------------------------------------------------------


class _Kind(NamedTuple):
    readers: dict[str, Callable]  # payload field -> its reader (value, path)
    build: Callable  # (field values in order, then the section's context) -> object
    payload: Callable  # object -> its payload, or None when this kind cannot write it
    defaults: dict = {}  # the optional fields and their values when absent


def _polynomial_history(coeffs: np.ndarray, m: int, p: float) -> HistoryGrid:
    sigma = -1.0 + np.arange(m + 1) / m
    return HistoryGrid(sigma[:, None] ** np.arange(len(coeffs))[None, :] @ coeffs, p)


# Per section (named by its path; a history's builder also takes m and p):
# the tag key and the kinds.  The writer tries the kinds in this order, and
# the last one writes whatever none rebuilds.
_KINDS: dict[str, tuple[str, dict[str, _Kind]]] = {
    "model.A": ("kind", {
        # only a tagged operator can be a Laplacian: no Laplacian is built for an untagged matrix
        "laplacian1d": _Kind({"n": partial(_integer, minimum=1)}, laplacian_dirichlet_1d,
                             lambda a: None if a.eigenvalues is None else {"n": a.n}),
        "scalar": _Kind({"a": _number}, scalar_operator, lambda a: {"a": a.matrix.item()} if a.n == 1 else None),
        "matrix": _Kind({"entries": partial(_array, ndim=2)}, SpatialOperator, lambda a: {"entries": a.matrix.tolist()}),
    }),
    "model.phi": ("variant", {
        "discrete": _Kind({"terms": _terms}, lambda terms: DiscreteDelays(*map(np.array, terms)), lambda phi: {
            "terms": [{"matrix": b.tolist(), "delay": float(h)} for b, h in zip(phi.matrices, phi.delays)]
        } if isinstance(phi, DiscreteDelays) else None),
        "cantor": _Kind({"c": _number, "depth": partial(_integer, minimum=1)}, CantorKernel, lambda phi: (
            {"c": phi.c, "depth": phi.depth} if isinstance(phi, CantorKernel) else None), {"depth": 24}),
        "density": _Kind({"samples": partial(_array, ndim=3)}, DensityKernel, lambda phi: (
            {"samples": phi.samples.tolist()} if isinstance(phi, DensityKernel) else None)),
    }),
    "initial.history": ("kind", {
        "constant": _Kind({"value": partial(_array, ndim=1)}, HistoryGrid.constant,
                          lambda h: {"value": h.samples[0].tolist()}),
        "polynomial": _Kind({"coeffs": partial(_array, ndim=2)}, _polynomial_history, lambda h: None),
        "samples": _Kind({"values": partial(_array, ndim=2)}, lambda values, m, p: HistoryGrid(values, p),
                         lambda h: {"values": h.samples.tolist()}),
    }),
}


def _read(doc, section: str, *context):
    """Build a tagged section from its document; every error is a
    ScenarioError that names the path of its field."""
    key, kinds = _KINDS[section]
    _check_keys(doc, {key, "payload"}, set(), section)
    tag = doc[key]
    kind = kinds.get(tag) if isinstance(tag, str) else None
    if kind is None:
        raise ScenarioError(f"{section}.{key}: unknown {key} {tag!r}")
    optional = set(kind.defaults)
    payload = {**kind.defaults, **_check_keys(doc["payload"], set(kind.readers) - optional, optional, f"{section}.payload")}
    values = [read(payload[name], f"{section}.payload.{name}") for name, read in kind.readers.items()]
    try:
        return kind.build(*values, *context)
    except ValueError as exc:
        raise ScenarioError(f"{section}: {exc}") from None


def _bits(obj) -> tuple:
    """The type and field values of a built object, arrays as their bytes."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return (type(obj), *((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values))


def _write(obj, section: str, *context) -> dict:
    """The document of a built section: the first kind whose payload reads
    back to ``obj`` bit for bit, else the last kind's payload ("matrix" for
    an operator, which then loses its eigenvalue tags)."""
    key, kinds = _KINDS[section]
    for tag, kind in kinds.items():
        payload = kind.payload(obj)
        if payload is not None:
            doc = {key: tag, "payload": payload}
            if _bits(_read(doc, section, *context)) == _bits(obj):
                return doc
    if payload is None:
        raise TypeError(f"{section}: no kind writes a {type(obj).__name__}")
    return doc


# ---------------------------------------------------------------------------
# Whole scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunParams:
    T: float
    m: int
    dt: float | None = None


@dataclass(frozen=True, eq=False)
class Scenario:
    model: SystemModel
    initial: DelayState
    run: RunParams


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the model and initial state."""
    _check_keys(doc, {"model", "initial", "run"}, set(), "scenario")
    model_doc = _check_keys(doc["model"], {"A", "phi"}, {"p"}, "model")
    a = _read(model_doc["A"], "model.A")
    phi = _read(model_doc["phi"], "model.phi")
    p = _number(model_doc.get("p", 2.0), "model.p")
    try:
        model = SystemModel(a, phi, p)
    except ValueError as exc:
        raise ScenarioError(f"model: {exc}") from None

    run_doc = _check_keys(doc["run"], {"T", "m"}, {"dt"}, "run")
    T = _number(run_doc["T"], "run.T")
    if T <= 0.0:
        raise ScenarioError(f"run.T: expected a positive horizon, got {T}")
    m = _integer(run_doc["m"], "run.m", 2)
    dt = None if run_doc.get("dt") is None else _number(run_doc["dt"], "run.dt")
    try:
        _unit_steps(dt)
    except ValueError as exc:
        raise ScenarioError(f"run.dt: {exc}") from None

    initial_doc = _check_keys(doc["initial"], {"head", "history"}, set(), "initial")
    head = _array(initial_doc["head"], "initial.head", 1)
    if head.shape[0] != model.n:
        raise ScenarioError(
            f"initial.head: dimension {head.shape[0]} does not match model dimension {model.n}"
        )
    history = _read(initial_doc["history"], "initial.history", m, p)
    if history.samples.shape != (m + 1, model.n):
        (field,) = initial_doc["history"]["payload"]  # every history kind has one payload field
        shape = history.samples.shape
        raise ScenarioError(f"initial.history.payload.{field}: samples of shape {shape}, expected {(m + 1, model.n)}")
    try:
        initial = DelayState(head, history)
    except ValueError as exc:
        raise ScenarioError(f"initial: {exc}") from None
    return Scenario(model, initial, RunParams(T=T, m=m, dt=dt))


def load_scenario(path) -> Scenario:
    """Read and validate a scenario file; JSON syntax errors surface as
    ScenarioError with the line/column of the failure."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    return parse_scenario(doc)


def scenario_to_dict(scenario: Scenario) -> dict:
    """The document of a scenario, each tagged section written through ``_write``."""
    model, history = scenario.model, scenario.initial.history
    return {
        "model": {"A": _write(model.A, "model.A"), "phi": _write(model.phi, "model.phi"), "p": model.p},
        "initial": {
            "head": scenario.initial.head.tolist(),
            "history": _write(history, "initial.history", history.m, history.p),
        },
        "run": {"T": scenario.run.T, "m": scenario.run.m, "dt": scenario.run.dt},
    }


# ---------------------------------------------------------------------------
# Float tables: Python's shortest repr, computed in numpy
# ---------------------------------------------------------------------------
#
# Every float is written as repr writes it: the shortest decimal that reads
# back to the same double, closest to it when several are shortest.  The
# digits come from Schubfach (R. Giulietti, "The Schubfach way to render
# doubles", 2020), vectorised over uint64; its 64 x 64 -> 128-bit products
# run on 32-bit halves.  Every array and constant stays uint64: numpy 1.x
# turns uint64 mixed with int64 into float64.

_U = np.uint64
_M32 = _U(2**32 - 1)
_M63 = _U(2**63 - 1)
_T_MASK = _U(2**52 - 1)
_C_MIN = _U(2**52)
_E_BIAS = 324  # k >= -324 for every double, so k + _E_BIAS indexes the tables
_N_EXP = 650  # room for E + 324, E the decimal exponent of a normal double
# A format class is (decimal exponent E, sign, one digit or several),
# numbered (E + 324, sign, several) in that order.
_N_CLASS = _N_EXP * 2 * 2
# A field is laid out in a row of 48 bytes, six uint64 words, copied from
# the template of its class; its digits are OR'ed in, and the row's NULs
# dropped, leaving the field and its separator:
#   bytes 0-5    the prefix, right-aligned: '-', and '0.' with the zeros of 0.000d
#   bytes 6-7    the first digit and its point slot
#   bytes 8-39   digits 1-16 at the even bytes, each followed by its point slot
#   bytes 40-46  'e', the exponent's sign and its two or three digits
#   byte 47      the separator
# A trailing zero digit is NUL, but the template of a fixed-point field
# holds '0' at digits 1 to E + 1, so that 1200.0 keeps its zeros and its
# '.0': '0' | ('0' + d) is '0' + d.
_ROW = 48


class _Tables(NamedTuple):
    h: np.ndarray  # per (biased exponent, irregular spacing): the shift h,
    k: np.ndarray  # the decimal exponent k + 324,
    g0: np.ndarray  # and g = g1 2^63 + g0
    g1: np.ndarray
    # 0..9999 as four ASCII digits at the even bytes of one word, NUL at the
    # odd ones; entry 10^4 + q writes the trailing zeros of q as NUL
    spread: np.ndarray
    templates: np.ndarray  # per format class: its row; zero until the class is seen


# Allocated at import and filled on first use: importing builds nothing, and
# the tables sit low in the malloc heap.  Allocated mid-run they could sit at
# its top and keep the memory freed below them resident.  The spread table and
# the templates share one zeroed block, in pages resident only where written.
_FORMAT = np.zeros(2 * 10**4 + _N_CLASS * _ROW // 8, dtype=np.uint64)
_TABLES = _Tables(
    h=np.empty(4096, dtype=np.uint64),
    k=np.empty(4096, dtype=np.uint64),
    g0=np.empty(4096, dtype=np.uint64),
    g1=np.empty(4096, dtype=np.uint64),
    spread=_FORMAT[: 2 * 10**4],
    templates=_FORMAT[2 * 10**4 :].reshape(_N_CLASS, _ROW // 8),
)
_FILLED = False


def _tables() -> _Tables:
    """The tables, filled on first use.  g = g1 2^63 + g0 is the 617-entry
    table floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, computed exactly on
    Python ints."""
    global _FILLED
    tables = _TABLES
    if not _FILLED:
        g = []
        for k in range(-_E_BIAS, 293):
            shift = 125 - ((-k * 913_124_641_741) >> 38)  # 125 - floor(log2 10^-k)
            if k <= 0:
                beta = 10**-k << shift if shift >= 0 else 10**-k >> -shift
            else:
                beta = (1 << shift) // 10**k
            g.append(beta + 1)
        q = np.repeat(np.arange(2048, dtype=np.int64) - 1075, 2)
        k = (q * 661_971_961_083 - np.tile([0, 274_743_187_321], 2048)) >> 41
        tables.h[:] = q + ((-k * 913_124_641_741) >> 38) + 2
        tables.k[:] = k + _E_BIAS
        tables.g1[:] = np.array([x >> 63 for x in g], dtype=np.uint64)[k + _E_BIAS]
        tables.g0[:] = np.array([x & (2**63 - 1) for x in g], dtype=np.uint64)[k + _E_BIAS]
        digits = np.arange(10**4, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10
        spread = tables.spread.view(np.uint8).reshape(2, 10**4, 8)
        spread[:, :, ::2] = digits + ord("0")
        spread[1, :, ::2][np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]] = 0
        _FILLED = True
    return tables


def _mul128(a, b):
    """The 128-bit products a b as (high, low) words, on 32-bit halves."""
    ah, al, bh, bl = a >> _U(32), a & _M32, b >> _U(32), b & _M32
    hl, lh = ah * bl, al * bh
    mid = ((al * bl) >> _U(32)) + (hl & _M32) + (lh & _M32)
    return ah * bh + (hl >> _U(32)) + (lh >> _U(32)) + (mid >> _U(32)), a * b


def _shift_product(product, d, j, sign):
    """The 128-bit product (high, low) plus sign d 2^j, 1 <= j <= 5."""
    high, low = product
    step = d << j
    if sign > 0:
        moved = low + step
        return high + (d >> (_U(64) - j)) + (moved < low), moved
    return high - (d >> (_U(64) - j)) - (low < step), low - step


def _rop(g0_product, g1_product):
    """cp g 2^-127 rounded to odd, g = g1 2^63 + g0, from g0 cp and g1 cp;
    the low word of g0 cp is not read."""
    z = (g1_product[1] >> _U(1)) + g0_product[0]
    return (g1_product[0] + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """Schubfach on the bits of finite normal doubles: |x| reads back from
    f 10^(e - 340), f of 17 digits; returns (f, e)."""
    tables = _tables()
    c = bits & _T_MASK
    bq = (bits >> _U(52)) & _U(0x7FF)  # the biased exponent
    row = (bq << _U(1)) | ((c == _U(0)) & (bq > _U(1))).astype(np.uint64)  # odd: irregular spacing
    c |= _C_MIN
    h, g0, g1 = np.take(tables.h, row), np.take(tables.g0, row), np.take(tables.g1, row)
    # v and the bounds of its rounding interval, in units of 2^(q-2) times
    # 10^-k: cp = 4c 2^h and cp -+ 2^(h+1), 2^h below a power of two
    cp = c << (h + _U(2))
    g0_cp, g1_cp = _mul128(g0, cp), _mul128(g1, cp)
    above = h + _U(1)
    below = above - (row & _U(1))
    vb = _rop(g0_cp, g1_cp)
    vbl = _rop(_shift_product(g0_cp, g0, below, -1), _shift_product(g1_cp, g1, below, -1))
    vbr = _rop(_shift_product(g0_cp, g0, above, 1), _shift_product(g1_cp, g1, above, 1))
    odd = c & _U(1)
    vbl += odd
    vbr -= odd
    # one digit fewer: u' = 10 floor(s/10) or w' = u' + 10, when exactly one reads back
    s = vb >> _U(2)
    up = s // _U(10) * _U(10)
    upin = vbl <= up << _U(2)
    one_fewer = upin != (((up + _U(10)) << _U(2)) <= vbr)
    # else u = s or w = s + 1; when both read back, the closer, ties to even
    uin = vbl <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) <= vbr
    mid = (s << _U(2)) + _U(2)
    closer_u = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    s += np.where(uin != win, win, ~closer_u).astype(np.uint64)
    f = np.where(one_fewer, np.where(upin, up, up + _U(10)), s)
    short = (f < _U(10**16)).astype(np.uint64)
    return np.where(short == _U(1), f * _U(10), f), np.take(tables.k, row) + _U(16) - short


def _template(cls: int) -> bytes:
    """The row of one format class (exponent, sign, one digit or several),
    laid out as repr lays it out, with '0' in the first digit's byte."""
    exp, neg, several = cls // 4 - _E_BIAS, cls // 2 % 2, cls % 2
    row = bytearray(_ROW)
    row[6], row[-1] = ord("0"), ord(",")
    prefix = b"-" * neg
    if exp < -4 or exp >= 16:
        row[7] = ord(".") * several
        row[40:47] = f"e{exp:+03d}".encode().ljust(7, b"\0")
    elif exp < 0:
        prefix += b"0." + b"0" * (-exp - 1)
    else:
        row[8 : 10 + 2 * exp : 2] = b"0" * (exp + 1)
        row[7 + 2 * exp] = ord(".")
    row[6 - len(prefix) : 6] = prefix
    return bytes(row)


def _csv_bytes(table: np.ndarray) -> bytes:
    """The rows of a float64 table, each as ",".join(map(repr, row)) + "\n"."""
    tables = _tables()
    rows, cols = table.shape
    bits = np.ascontiguousarray(table, dtype=np.float64).view(np.uint64).ravel()
    exponent = (bits >> _U(52)) & _U(0x7FF)
    # zero, subnormals, inf and nan go to repr; Schubfach would give 5e-324
    # two digits where repr gives one
    special = np.flatnonzero((exponent == _U(0)) | (exponent == _U(0x7FF)))
    if len(special):
        bits = bits.copy()
        bits[special] = _U(0x3FF0000000000000)
    f, e = _shortest(bits)
    # digits 16 down to 1 as four quads: a quad reads the half of the spread
    # table without trailing zeros when every later quad is zero
    words, lead, empty = [], f, True
    for _ in range(4):
        part = lead // _U(10**4)
        quad = lead - part * _U(10**4) + empty * _U(10**4)
        words.append(np.take(tables.spread, quad))
        empty, lead = quad == _U(10**4), part
    cls = (e * _U(2) + (bits >> _U(63))) * _U(2) + ~empty
    for c in set(cls[np.take(tables.templates[:, -1], cls) == _U(0)].tolist()):
        tables.templates[c] = np.frombuffer(_template(c), dtype=np.uint64)
    out = np.take(tables.templates, cls, axis=0)
    for col, word in zip((4, 3, 2, 1), words):
        out[:, col] |= word
    chars = out.view(np.uint8)
    chars[:, 6] |= lead.astype(np.uint8)
    chars[cols - 1 :: cols, -1] = ord("\n")
    for i in special.tolist():
        text = repr(float(table.flat[i])).encode()
        chars[i, :-1] = np.frombuffer(text.ljust(_ROW - 1, b"\0"), dtype=np.uint8)
    return out.tobytes().translate(None, b"\0")


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: list[str], rows) -> None:
    """CSV of a table that mixes floats with bool or integer columns."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_table(path, header: list[str], table) -> None:
    """CSV of a float table, every entry written as its shortest round-trip
    repr.  Rows go out in blocks of ``_batches``, 8 entries per field (a field
    is laid out in a 48-byte row), so that the text never sits in memory whole."""
    table = np.asarray(table, dtype=np.float64)
    with open(path, "wb") as fh:
        size = fh.write((",".join(header) + "\n").encode())
        for sl in _batches(len(table), 8 * len(header)):
            size += fh.write(_csv_bytes(table[sl]))
    logger.debug("write_table: %s, %d x %d, %d bytes, %d of %d template classes filled",
                 path, *table.shape, size, np.count_nonzero(_TABLES.templates[:, -1]), _N_CLASS)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    header = ["t"] + [f"component_{i}" for i in range(traj.n)]
    write_table(path, header, np.column_stack((traj.times, traj.values)))


def write_roots_csv(path, report) -> None:
    roots = np.asarray(report.roots, dtype=complex)
    write_table(path, ["re", "im", "residual"], np.column_stack((roots.real, roots.imag, report.residuals)))


def write_stability_csv(path, profile) -> None:
    header = ["omega", "char_norm", "resolvent_norm"]
    write_table(path, header, np.column_stack((profile.omegas, profile.char_norms, profile.resolvent_norms)))
