"""Scenario documents and report tables.

A scenario is a JSON object with three sections::

    {"model":   {"A": {"kind": ..., "payload": {...}},
                 "phi": {"variant": ..., "payload": {...}},
                 "p": 2.0},
     "initial": {"head": [...],
                 "history": {"kind": ..., "payload": {...}}},
     "run":     {"T": ..., "dt": ..., "m": ...}}

Operator kinds are "matrix" (payload ``entries``), "laplacian1d"
(payload ``n``) and "scalar" (payload ``a``).  Functional variants are
"discrete" (payload ``terms`` of ``{"matrix": ..., "delay": ...}``),
"cantor" (payload ``c``, ``depth``) and "density" (payload ``samples``).
History kinds are "constant" (payload ``value``), "polynomial" (payload
``coeffs``, one coefficient vector per power) and "samples" (payload
``values`` with m+1 rows).  Unknown keys are rejected everywhere.

CSV output uses a header row, '.' decimals and no locale; every float is
written as its shortest round-trip ``repr``, so fixed inputs give
byte-identical files.  Float tables go through ``write_table``, which
computes that text in numpy a block of rows at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ScenarioError
from .evolution import SpatialOperator, SystemModel, Trajectory, scalar_operator
from .functional import CantorKernel, DelayFunctional, DensityKernel, DiscreteDelays
from .history import DelayState, HistoryGrid
from .scenarios import laplacian_dirichlet_1d


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


# ---------------------------------------------------------------------------
# Functional and operator (de)serialisation
# ---------------------------------------------------------------------------


def functional_to_dict(phi: DelayFunctional) -> dict:
    if isinstance(phi, DiscreteDelays):
        terms = [
            {"matrix": b.tolist(), "delay": float(h)} for b, h in zip(phi.matrices, phi.delays)
        ]
        return {"variant": "discrete", "payload": {"terms": terms}}
    if isinstance(phi, CantorKernel):
        return {"variant": "cantor", "payload": {"c": phi.c, "depth": phi.depth}}
    if isinstance(phi, DensityKernel):
        return {"variant": "density", "payload": {"samples": phi.samples.tolist()}}
    raise TypeError(f"unknown functional variant: {type(phi).__name__}")


def functional_from_dict(doc: dict, path: str = "phi") -> DelayFunctional:
    _check_keys(doc, {"variant", "payload"}, set(), path)
    variant = doc["variant"]
    payload = doc["payload"]
    if variant == "discrete":
        _check_keys(payload, {"terms"}, set(), f"{path}.payload")
        terms = payload["terms"]
        if not isinstance(terms, list):
            raise ScenarioError(f"{path}.payload.terms: expected a list")
        if not terms:
            return DiscreteDelays(np.zeros((0, 0, 0)), np.zeros(0))
        mats, delays = [], []
        for i, term in enumerate(terms):
            _check_keys(term, {"matrix", "delay"}, set(), f"{path}.payload.terms[{i}]")
            mats.append(_array(term["matrix"], f"{path}.payload.terms[{i}].matrix", 2))
            delays.append(_number(term["delay"], f"{path}.payload.terms[{i}].delay"))
        try:
            return DiscreteDelays(np.array(mats), np.array(delays))
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    if variant == "cantor":
        _check_keys(payload, {"c"}, {"depth"}, f"{path}.payload")
        try:
            return CantorKernel(
                _number(payload["c"], f"{path}.payload.c"),
                int(_number(payload.get("depth", 24), f"{path}.payload.depth")),
            )
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    if variant == "density":
        _check_keys(payload, {"samples"}, set(), f"{path}.payload")
        try:
            return DensityKernel(_array(payload["samples"], f"{path}.payload.samples", 3))
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    raise ScenarioError(f"{path}.variant: unknown variant {variant!r}")


def operator_to_dict(a: SpatialOperator) -> dict:
    return {"kind": "matrix", "payload": {"entries": a.matrix.tolist()}}


def operator_from_dict(doc: dict, path: str = "A") -> SpatialOperator:
    _check_keys(doc, {"kind", "payload"}, set(), path)
    kind = doc["kind"]
    payload = doc["payload"]
    if kind == "matrix":
        _check_keys(payload, {"entries"}, set(), f"{path}.payload")
        entries = _array(payload["entries"], f"{path}.payload.entries", 2)
        try:
            return SpatialOperator(entries)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from None
    if kind == "laplacian1d":
        _check_keys(payload, {"n"}, set(), f"{path}.payload")
        n = payload["n"]
        if not isinstance(n, int) or n < 1:
            raise ScenarioError(f"{path}.payload.n: expected a positive integer")
        return laplacian_dirichlet_1d(n)
    if kind == "scalar":
        _check_keys(payload, {"a"}, set(), f"{path}.payload")
        return scalar_operator(_number(payload["a"], f"{path}.payload.a"))
    raise ScenarioError(f"{path}.kind: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Whole scenarios
# ---------------------------------------------------------------------------


@dataclass
class RunParams:
    T: float
    m: int
    dt: float | None = None


@dataclass
class Scenario:
    model: SystemModel
    initial: DelayState
    run: RunParams


def _history_from_dict(doc: dict, m: int, n: int, p: float) -> HistoryGrid:
    _check_keys(doc, {"kind", "payload"}, set(), "initial.history")
    kind = doc["kind"]
    payload = doc["payload"]
    if kind == "constant":
        _check_keys(payload, {"value"}, set(), "initial.history.payload")
        value = _array(payload["value"], "initial.history.payload.value", 1)
        if value.shape[0] != n:
            raise ScenarioError("initial.history.payload.value: dimension mismatch")
        return HistoryGrid.constant(value, m, p)
    if kind == "polynomial":
        _check_keys(payload, {"coeffs"}, set(), "initial.history.payload")
        coeffs = _array(payload["coeffs"], "initial.history.payload.coeffs", 2)
        if coeffs.shape[1] != n:
            raise ScenarioError("initial.history.payload.coeffs: dimension mismatch")
        sigma = -1.0 + np.arange(m + 1) / m
        powers = sigma[:, None] ** np.arange(coeffs.shape[0])[None, :]
        return HistoryGrid(powers @ coeffs, p)
    if kind == "samples":
        _check_keys(payload, {"values"}, set(), "initial.history.payload")
        values = _array(payload["values"], "initial.history.payload.values", 2)
        if values.shape != (m + 1, n):
            raise ScenarioError(
                f"initial.history.payload.values: expected shape {(m + 1, n)}, got {values.shape}"
            )
        return HistoryGrid(values, p)
    raise ScenarioError(f"initial.history.kind: unknown kind {kind!r}")


def parse_scenario(doc: dict) -> Scenario:
    """Validate a scenario document and build the model and initial state."""
    _check_keys(doc, {"model", "initial", "run"}, set(), "scenario")
    model_doc = _check_keys(doc["model"], {"A", "phi"}, {"p"}, "model")
    a = operator_from_dict(model_doc["A"], "model.A")
    phi = functional_from_dict(model_doc["phi"], "model.phi")
    p = _number(model_doc.get("p", 2.0), "model.p")
    try:
        model = SystemModel(a, phi, p)
    except ValueError as exc:
        raise ScenarioError(f"model: {exc}") from None

    run_doc = _check_keys(doc["run"], {"T", "m"}, {"dt"}, "run")
    T = _number(run_doc["T"], "run.T")
    m = run_doc["m"]
    if not isinstance(m, int) or m < 2:
        raise ScenarioError("run.m: expected an integer >= 2")
    dt = None if run_doc.get("dt") is None else _number(run_doc["dt"], "run.dt")

    initial_doc = _check_keys(doc["initial"], {"head", "history"}, set(), "initial")
    head = _array(initial_doc["head"], "initial.head", 1)
    if head.shape[0] != model.n:
        raise ScenarioError(
            f"initial.head: dimension {head.shape[0]} does not match model dimension {model.n}"
        )
    history = _history_from_dict(initial_doc["history"], m, model.n, p)
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
    model = scenario.model
    return {
        "model": {
            "A": operator_to_dict(model.A),
            "phi": functional_to_dict(model.phi),
            "p": model.p,
        },
        "initial": {
            "head": scenario.initial.head.tolist(),
            "history": {
                "kind": "samples",
                "payload": {"values": scenario.initial.history.samples.tolist()},
            },
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
# A format class is (decimal exponent, sign, significant digits), numbered
# (E + 324, sign, digits - 1) in that order, so that the classes of one
# exponent sit together.
_N_CLASS = _N_EXP * 2 * 17
# Source row of a field: columns 3..19 hold its 17 digits (the last 16 as
# four 4-byte groups, written as uint32), then the literal characters, then
# its separator; 36 bytes keep the rows 4-byte aligned.
_ALPHABET = "0123456789.e+-"
_SEP = 20 + len(_ALPHABET)
_ROW = 36
_WIDTH = 25  # longest field, '-1.2345678901234567e-308', and its separator
# Fields per block: the pipeline holds about 250 bytes per field at its peak.
_BLOCK_FIELDS = 8192


class _Tables(NamedTuple):
    h: np.ndarray  # per (biased exponent, irregular spacing): the shift h,
    k: np.ndarray  # the decimal exponent k + 324,
    g0: np.ndarray  # and g = g1 2^63 + g0
    g1: np.ndarray
    quads: np.ndarray  # the 4 ASCII digits of 0..9999 as one uint32
    last: np.ndarray  # position 1..4 of the last nonzero digit of 0..9999, 0 for 0
    layouts: np.ndarray  # per format class: its source columns,
    masks: np.ndarray  # and the columns it writes; none until the class is seen


# Allocated at import and filled on first use: importing builds nothing, and
# the tables sit low in the malloc heap (the two zeroed ones in pages of
# their own, resident only where a class is written).  Allocated in the
# middle of a run they could sit at its top and keep the memory freed below
# them resident.
_TABLES = _Tables(
    h=np.empty(4096, dtype=np.uint64),
    k=np.empty(4096, dtype=np.uint64),
    g0=np.empty(4096, dtype=np.uint64),
    g1=np.empty(4096, dtype=np.uint64),
    quads=np.empty(10**4, dtype=np.uint32),
    last=np.empty(10**4, dtype=np.uint64),
    layouts=np.zeros((_N_CLASS, _WIDTH), dtype=np.uint8),
    masks=np.zeros((_N_CLASS, _WIDTH), dtype=bool),
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
        nonzero = digits != 0
        tables.quads[:] = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
        tables.last[:] = np.where(nonzero.any(axis=1), 4 - np.argmax(nonzero[:, ::-1], axis=1), 0)
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


def _layout(cls: int) -> list[int]:
    """Source columns of one format class (exponent, sign, digits), laid out
    as repr lays them out; ends with the separator's column."""
    exp, rest = divmod(cls, 2 * 17)
    neg, n = divmod(rest, 17)
    exp, n = exp - _E_BIAS, n + 1
    digits = list(range(3, 3 + n))
    if exp < -4 or exp >= 16:
        mantissa = digits[:1] + (["."] + digits[1:] if n > 1 else [])
        body = mantissa + ["e", "-" if exp < 0 else "+"] + list(f"{abs(exp):02d}")
    elif exp < 0:
        body = ["0", "."] + ["0"] * (-exp - 1) + digits
    else:
        # digit columns past n hold '0'
        body = list(range(3, 4 + exp)) + ["."] + (digits[exp + 1 :] or ["0"])
    cols = ["-"] * neg + body
    return [c if isinstance(c, int) else 20 + _ALPHABET.index(c) for c in cols] + [_SEP]


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
    source = np.empty((len(bits), _ROW), dtype=np.uint8)
    high, low = f // _U(10**8), f % _U(10**8)
    source[:, 3] = high // _U(10**8) + _U(ord("0"))
    high %= _U(10**8)
    quads = source.view(np.uint32)
    last = np.zeros(len(bits), dtype=np.uint64)  # digits after the first, up to the last nonzero one
    for col, part in enumerate((high // _U(10**4), high % _U(10**4), low // _U(10**4), low % _U(10**4))):
        quads[:, col + 1] = np.take(tables.quads, part)
        in_part = np.take(tables.last, part)
        last = np.where(in_part > _U(0), in_part + _U(4 * col), last)
    source[:, 20:_SEP] = np.frombuffer(_ALPHABET.encode(), dtype=np.uint8)
    source[:, _SEP] = ord(",")
    source[cols - 1 :: cols, _SEP] = ord("\n")
    cls = (e * _U(2) + (bits >> _U(63))) * _U(17) + last
    for c in set(cls[~np.take(tables.masks[:, 0], cls)].tolist()):
        layout = _layout(c)
        tables.layouts[c, : len(layout)] = layout
        tables.masks[c, : len(layout)] = True
    columns = np.take(tables.layouts, cls, axis=0)
    chars = np.empty_like(columns)
    base = np.arange(0, _ROW * len(bits), _ROW)[:, None]
    for i in range(0, len(bits), 2048):  # an int64 index of 2048 fields at a time
        chars[i : i + 2048] = np.take(source.ravel(), columns[i : i + 2048] + base[i : i + 2048])
    mask = np.take(tables.masks, cls, axis=0)
    for i in special.tolist():
        text = repr(float(table.flat[i])).encode() + bytes(source[i, _SEP : _SEP + 1])
        chars[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        mask[i] = np.arange(_WIDTH) < len(text)
    return chars[mask].tobytes()


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
    repr.  Rows go out in blocks so that the text never sits in memory whole."""
    table = np.asarray(table, dtype=np.float64)
    block = min(1024, max(1, _BLOCK_FIELDS // len(header)))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), block):
            fh.write(_csv_bytes(table[start : start + block]))


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
