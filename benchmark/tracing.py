"""Spans around every call into delaylab's public functions.

``install`` wraps each public function of the seven modules and rebinds
the wrapper wherever the package binds the original (``cli`` imports
``solve_steps`` from ``evolution``, ``spectral`` imports ``apply`` from
``functional``, and so on), so calls between modules are recorded too.
It also wraps ``numpy.linalg.det`` to count the matrices the program
hands to it.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time

import numpy as np

LAYERS = ("history", "functional", "evolution", "spectral", "scenarios", "scenario_io", "cli")


def _work_solve_steps(bound, result):
    return len(result.values) - result.history_rows


def _work_char_norm_profile(bound, result):
    return int(np.size(bound.arguments["omegas"]))


def _work_criterion_profile(bound, result):
    return int(bound.arguments["grid"].count)


def _work_miyadera_estimate(bound, result):
    return int(bound.arguments["samples"]) * int(bound.arguments["r_nodes"])


def _work_find_roots(bound, result):
    return len(result.roots)


# Work done by one call, read from its arguments or its result.
WORK = {
    "evolution.solve_steps": _work_solve_steps,
    "functional.char_norm_profile": _work_char_norm_profile,
    "spectral.criterion_profile": _work_criterion_profile,
    "spectral.miyadera_estimate": _work_miyadera_estimate,
    "spectral.find_roots": _work_find_roots,
}


class Tracer:
    """Span store: one row (name id, start, end, parent, dets, work) per call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.rows: list[list] = []
        self._stack: list[int] = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.rows)
        self.rows.append([name_id, time.perf_counter(), 0.0, self._stack[-1], 0, 0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, work: int = 0) -> None:
        row = self.rows[idx]
        row[2] = time.perf_counter()
        row[5] = work
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def count_dets(self, matrices: int) -> None:
        top = self._stack[-1]
        if top >= 0:
            self.rows[top][4] += matrices

    def write(self, path) -> None:
        doc = {
            "columns": ["name", "start", "end", "parent", "dets", "work"],
            "names": self.names,
            "spans": self.rows,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _wrap(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)
    work_fn = WORK.get(name)
    signature = inspect.signature(fn) if work_fn else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name_id)
        work = 0
        try:
            result = fn(*args, **kwargs)
            if work_fn is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                work = work_fn(bound, result)
            return result
        finally:
            tracer.close(idx, work)

    return traced


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and numpy's det, in place."""
    modules = {layer: importlib.import_module(f"delaylab.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                continue
            wrappers[id(value)] = _wrap(tracer, value, f"{layer}.{attr}")
    bindings = list(modules.values()) + [importlib.import_module("delaylab")]
    for module in bindings:
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)

    det = np.linalg.det

    @functools.wraps(det)
    def counted_det(a):
        arr = np.asarray(a)
        tracer.count_dets(arr.size // max(1, arr.shape[-1] * arr.shape[-2]))
        return det(a)

    np.linalg.det = counted_det


# Per-layer metrics: name -> unit.  ``layer_metrics`` fills them per pass.
UNITS = {
    "evolution.us_per_step": "us",
    "evolution.steps": "count",
    "evolution.volterra_s": "s",
    "evolution.mild_residual_s": "s",
    "history.calls": "count",
    "history.self_s": "s",
    "functional.apply_calls": "count",
    "functional.apply_us": "us",
    "functional.char_norm_us_per_freq": "us",
    "functional.cantor_weights_ms": "ms",
    "spectral.find_roots_s": "s",
    "spectral.dets": "count",
    "spectral.dets_per_s": "1/s",
    "spectral.newton_dets_per_root": "count",
    "spectral.argument_principle_s": "s",
    "spectral.criterion_us_per_freq": "us",
    "spectral.miyadera_us_per_sample": "us",
    "spectral.decay_rate_s": "s",
    "scenarios.threshold_scan_s": "s",
    "scenarios.rd_root_us": "us",
    "scenario_io.load_ms": "ms",
    "scenario_io.write_s": "s",
    "scenario_io.bytes_written": "B",
    "cli.self_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, pass_starts: list[int], bytes_per_pass: int) -> dict:
    """Median over passes of each per-layer metric; a layer a workload never
    calls reads 0.  ``pass_starts`` holds the first span index of each pass."""
    rows = np.array(tracer.rows, dtype=float).reshape(-1, 6)
    count = len(rows)
    name, parent = rows[:, 0].astype(int), rows[:, 3].astype(int)
    dur, dets, work = rows[:, 2] - rows[:, 1], rows[:, 4], rows[:, 5]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=count)

    find_id, det_id = tracer.name_id("spectral.find_roots"), tracer.name_id("spectral.char_det")
    span_layer = np.array([tracer.names[i].split(".")[0] for i in name], dtype=object)
    in_find = np.zeros(count, dtype=bool)
    in_newton = np.zeros(count, dtype=bool)
    top_write = np.zeros(count, dtype=bool)
    for i in range(count):
        p = parent[i]
        in_find[i] = name[i] == find_id or (p >= 0 and in_find[p])
        in_newton[i] = name[i] == det_id or (p >= 0 and in_newton[p])
        # a writer called by another writer is already inside that one's span
        top_write[i] = tracer.names[name[i]].startswith("scenario_io.write_") and (
            p < 0 or span_layer[p] != "scenario_io"
        )

    cantor = np.nonzero(name == tracer.name_id("functional.cantor_grid_weights"))[0]
    cantor_first_ms = 1e3 * dur[cantor[0]] if len(cantor) else 0.0

    per_pass = []
    bounds = list(pass_starts) + [count]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        in_pass = np.zeros(count, dtype=bool)
        in_pass[lo:hi] = True

        def of(fn, pass_mask=in_pass):
            return pass_mask & (name == tracer.name_id(fn))

        def total(fn):
            return float(dur[of(fn)].sum())

        def calls(fn):
            return int(of(fn).sum())

        steps = int(work[of("evolution.solve_steps")].sum())
        roots = int(work[of("spectral.find_roots")].sum())
        find_s = total("spectral.find_roots")
        per_pass.append({
            "evolution.us_per_step": 1e6 * _ratio(total("evolution.solve_steps"), steps),
            "evolution.steps": steps,
            "evolution.volterra_s": total("evolution.volterra_terms"),
            "evolution.mild_residual_s": total("evolution.mild_residual"),
            "history.calls": int((in_pass & (span_layer == "history")).sum()),
            "history.self_s": float(self_time[in_pass & (span_layer == "history")].sum()),
            "functional.apply_calls": calls("functional.apply"),
            "functional.apply_us": 1e6 * _ratio(total("functional.apply"), calls("functional.apply")),
            "functional.char_norm_us_per_freq": 1e6 * _ratio(
                total("functional.char_norm_profile"), work[of("functional.char_norm_profile")].sum()),
            "functional.cantor_weights_ms": cantor_first_ms,
            "spectral.find_roots_s": find_s,
            "spectral.dets": int(dets[in_pass].sum()),
            "spectral.dets_per_s": _ratio(dets[in_pass & in_find].sum(), find_s),
            "spectral.newton_dets_per_root": _ratio(dets[in_pass & in_find & in_newton].sum(), roots),
            "spectral.argument_principle_s": total("spectral.count_roots_argument_principle"),
            "spectral.criterion_us_per_freq": 1e6 * _ratio(
                total("spectral.criterion_profile"), work[of("spectral.criterion_profile")].sum()),
            "spectral.miyadera_us_per_sample": 1e6 * _ratio(
                total("spectral.miyadera_estimate"), work[of("spectral.miyadera_estimate")].sum()),
            "spectral.decay_rate_s": total("spectral.decay_rate"),
            "scenarios.threshold_scan_s": total("scenarios.threshold_scan"),
            "scenarios.rd_root_us": 1e6 * _ratio(total("scenarios.rd_rightmost_root"), calls("scenarios.rd_rightmost_root")),
            "scenario_io.load_ms": 1e3 * _ratio(total("scenario_io.load_scenario"), calls("scenario_io.load_scenario")),
            "scenario_io.write_s": float(dur[in_pass & top_write].sum()),
            "scenario_io.bytes_written": int(bytes_per_pass),
            "cli.self_s": float(self_time[in_pass & (span_layer == "cli")].sum()),
        })
    return {
        key: {"value": statistics.median(p[key] for p in per_pass), "unit": unit} for key, unit in UNITS.items()
    }
