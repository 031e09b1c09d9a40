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

CSV output uses a header row, '.' decimals via ``repr`` round-trip
formatting and no locale, so fixed inputs give byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(path, traj: Trajectory) -> None:
    # repr of a Python float is the text _fmt writes for a float entry;
    # rows go out in blocks so that the text never sits in memory whole
    table = np.column_stack((traj.times, traj.values))
    with open(path, "w") as fh:
        fh.write(",".join(["t"] + [f"component_{i}" for i in range(traj.n)]) + "\n")
        for start in range(0, len(table), 1024):
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in table[start : start + 1024].tolist()))


def write_roots_csv(path, report) -> None:
    header = ["re", "im", "residual"]
    write_csv(path, header, np.column_stack((np.real(report.roots), np.imag(report.roots), report.residuals)).tolist())


def write_stability_csv(path, profile) -> None:
    header = ["omega", "char_norm", "resolvent_norm"]
    write_csv(path, header, np.column_stack((profile.omegas, profile.char_norms, profile.resolvent_norms)).tolist())
