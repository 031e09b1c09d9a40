"""delaylab benchmark: one workload, one seed, one process.

Usage (from the repository root):

    python3 benchmark/run.py --workload time_domain --seed 1 --seconds 30 --trace 0

Each run repeats its workload's pass (a fixed list of CLI calls and
public-function calls) until ``--seconds`` is used up, checks the first
pass's reports against values computed apart from the program, checks
that every later pass wrote byte-identical reports, and prints one JSON
object as the last line of standard output.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every public function
of the package is wrapped in a span and the per-layer metrics are printed.
See benchmark/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / "benchmark-out"

# One process with one BLAS thread.  With a second OpenBLAS thread, calls
# such as the 10001-row products in mild_residual wait on a worker thread
# whenever the other core is busy, and one call then takes 0.02 s or 0.8 s.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("time_domain", "frequency_domain", "rd_paper")
SETUP_INTERPRETERS = 5
SCALAR = "scalar_single_delay.json"
RD = "reaction_diffusion_cantor.json"
# Scalar spectrum: 192 roots W_k(-1), each at least 1.5 from the boundary.
SCALAR_REGION = (-8.0, 1.0, 600.0)
# Generated reaction-diffusion scenarios of the frequency_domain workload,
# and those whose roots are also counted by the argument principle, in
# COUNT_REGION.
GENERATED_N = (31, 64, 100)
COUNT_N = (31, 64)
COUNT_REGION = (-3.0, 1.0, 2.0)
# reproduce-rd size: at the README's n = 31 one call takes about 26 s.
REPRODUCE_N = 15


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="delaylab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def generated_scenario(n: int, seed: int) -> dict:
    """Reaction-diffusion scenario with the Cantor kernel at c = |lambda_1|/2.

    The initial state (a Gaussian head with a constant history equal to
    it) comes from the seed; the roots do not depend on it.
    """
    import numpy as np

    from oracles import dirichlet_eigenvalues

    c = 0.5 * abs(float(dirichlet_eigenvalues(n)[0]))
    head = np.random.default_rng([seed, n]).standard_normal(n).tolist()
    return {
        "model": {
            "A": {"kind": "laplacian1d", "payload": {"n": n}},
            "phi": {"variant": "cantor", "payload": {"c": c, "depth": 24}},
            "p": 2.0,
        },
        "initial": {"head": head, "history": {"kind": "constant", "payload": {"value": head}}},
        "run": {"T": 8.0, "dt": None, "m": 64},
    }


def make_inputs(workload: str, seed: int, work: Path) -> list[Path]:
    """Scenario files of the workload; generated ones are written under ``work``."""
    if workload == "time_domain":
        return [SCENARIOS / SCALAR, SCENARIOS / RD]
    if workload == "rd_paper":
        return [SCENARIOS / RD]
    paths = [SCENARIOS / SCALAR]
    for n in GENERATED_N:
        path = work / f"rd_n{n}.json"
        path.write_text(json.dumps(generated_scenario(n, seed), indent=2) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Workload passes
# ---------------------------------------------------------------------------


class Op:
    """One operation of a pass: a CLI call or a call into a public function.

    ``kept_failure`` marks the operation that fails in every run because
    of a known fault; any other failure makes the run incorrect.
    """

    def __init__(self, name, argv=None, call=None, kept_failure=False):
        self.name = name
        self.argv = argv
        self.call = call
        self.kept_failure = kept_failure

    def run(self, out: Path, seed: int) -> int:
        """Run into ``out``; returns the exit code (0 when it succeeded)."""
        out.mkdir(parents=True, exist_ok=True)
        if self.call is not None:
            self.call(out)
            return 0
        import delaylab.cli

        return delaylab.cli.main(self.argv + ["--out", str(out), "--seed", str(seed)])


def count_call(scenario: Path):
    def call(out: Path):
        import delaylab.scenario_io
        import delaylab.spectral

        model = delaylab.scenario_io.load_scenario(scenario).model
        count = delaylab.spectral.count_roots_argument_principle(model, delaylab.spectral.Region(*COUNT_REGION))
        delaylab.scenario_io.write_json(out / "count.json", {"count": count})

    return call


def build_ops(workload: str, inputs: list[Path]) -> list[Op]:
    if workload == "time_domain":
        scalar, rd = (str(p) for p in inputs)
        return [
            Op("solve_scalar", ["solve", "--scenario", scalar]),
            Op("solve_rd", ["solve", "--scenario", rd]),
            Op("dyson_scalar", ["dyson", "--scenario", scalar, "--t", "1.5", "--n-max", "8"]),
            Op("miyadera_rd", ["miyadera", "--scenario", rd, "--t0-grid", "0.1,0.25,0.5", "--samples", "200"]),
        ]
    if workload == "frequency_domain":
        scalar, n31, n64, n100 = inputs
        re_min, re_max, im_max = SCALAR_REGION
        wide = ["--re-min", str(re_min), "--re-max", str(re_max), "--im-max", str(im_max), "--spacing", "0.2"]
        box = ["--re-min", "-3", "--re-max", "1", "--im-max", "8"]
        return [
            Op("spectrum_scalar", ["spectrum", "--scenario", str(scalar)] + wide),
            Op("spectrum_n31", ["spectrum", "--scenario", str(n31)] + box),
            Op("spectrum_n64", ["spectrum", "--scenario", str(n64)] + box),
            Op("count_n31", call=count_call(n31)),
            Op("count_n64", call=count_call(n64)),
            Op(
                "spectrum_n100",
                ["spectrum", "--scenario", str(n100), "--re-min", "-2", "--re-max", "0", "--im-max", "0.5",
                 "--spacing", "0.1"],
                kept_failure=True,
            ),
        ]
    (rd,) = inputs
    return [
        Op("stability_rd", ["stability", "--scenario", str(rd), "--alpha", "0.0"]),
        Op("reproduce_rd_n15", ["reproduce-rd", "--n", str(REPRODUCE_N)]),
    ]


# ---------------------------------------------------------------------------
# Independent checks of the first pass's reports
# ---------------------------------------------------------------------------


def csv_rows(path: Path) -> list[list[str]]:
    """Rows of a report table, without its header."""
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_time_domain(out: Path, inputs: list[Path]) -> None:
    import numpy as np

    from oracles import rd_rightmost_real_root, scalar_exact

    data = np.array(csv_rows(out / "solve_scalar" / "trajectory.csv"), dtype=float)
    err = float(np.max(np.abs(data[:, 1] - scalar_exact(data[:, 0]))))
    check(err <= 1e-6, f"scalar trajectory deviates from the exact solution by {err:.3e}")

    for op in ("solve_scalar", "solve_rd"):
        summary = json.loads((out / op / "summary.json").read_text())
        check(summary["mild_residual"] <= 1e-4, f"{op}: mild residual {summary['mild_residual']:.3e} > 1e-4")
    rd_doc = json.loads(inputs[1].read_text())
    n = rd_doc["model"]["A"]["payload"]["n"]
    root = rd_rightmost_real_root(n, rd_doc["model"]["phi"]["payload"]["c"])
    check_decay("solve_rd decay_rate", json.loads((out / "solve_rd" / "summary.json").read_text())["decay_rate"], root)

    last = csv_rows(out / "dyson_scalar" / "dyson.csv")[-1]
    check(int(last[0]) == 8, "dyson table does not end at N = 8")
    check(float(last[1]) <= 1e-4, f"Dyson head gap at N = 8 is {float(last[1]):.3e} > 1e-4")

    table = np.array(csv_rows(out / "miyadera_rd" / "miyadera.csv"), dtype=float)
    check(np.all(table[:, 1] <= table[:, 2]), "q_emp exceeds q_bound")
    check(np.all(np.diff(table[:, 0]) > 0) and np.all(np.diff(table[:, 1]) >= 0), "q_emp is not non-decreasing in t0")


def check_decay(label: str, fit: float, root: float) -> None:
    check(fit is not None and (fit < 0) == (root < 0), f"{label} {fit} has not the sign of the root {root}")
    check(abs(fit - root) <= 0.05, f"{label} {fit:.6f} is more than 0.05 from the root {root:.6f}")


def check_rd_rightmost(label: str, roots_doc: dict, n: int, c: float) -> None:
    from oracles import rd_rightmost_real_root

    check(roots_doc["rightmost"] is not None, f"{label}: no rightmost root")
    re, im = roots_doc["rightmost"]
    oracle = rd_rightmost_real_root(n, c)
    check(abs(complex(re, im) - oracle) <= 1e-8, f"{label}: rightmost root {re}+{im}j, oracle {oracle}")


def check_frequency_domain(out: Path, inputs: list[Path], failed: set[str]) -> None:
    from oracles import scalar_roots

    roots = json.loads((out / "spectrum_scalar" / "roots.json").read_text())["roots"]
    expected = scalar_roots(*SCALAR_REGION)
    check(len(roots) == len(expected), f"scalar spectrum found {len(roots)} roots, Lambert W gives {len(expected)}")
    gap = max(min(abs(complex(*z) - w) for w in expected) for z in roots)
    check(gap <= 1e-9, f"scalar roots differ from W_k(-1) by up to {gap:.3e}")

    docs = {path.stem: json.loads(path.read_text()) for path in inputs[1:]}
    re_min, re_max, im_max = COUNT_REGION
    for n in GENERATED_N:
        op = f"spectrum_n{n}"
        if op in failed:
            continue
        c = docs[f"rd_n{n}"]["model"]["phi"]["payload"]["c"]
        report = json.loads((out / op / "roots.json").read_text())
        check_rd_rightmost(op, report, n, c)
        if n in COUNT_N:
            inside = [z for z in report["roots"] if re_min <= z[0] <= re_max and abs(z[1]) <= im_max]
            count = json.loads((out / f"count_n{n}" / "count.json").read_text())["count"]
            check(count == len(inside), f"n = {n}: argument principle counts {count}, search found {len(inside)}")


def check_rd_paper(out: Path, inputs: list[Path]) -> None:
    from oracles import dirichlet_eigenvalues, rd_rightmost_real_root

    doc = json.loads(inputs[0].read_text())
    n = doc["model"]["A"]["payload"]["n"]
    c = doc["model"]["phi"]["payload"]["c"]
    lam1 = abs(float(dirichlet_eigenvalues(n)[0]))
    stab = json.loads((out / "stability_rd" / "stability.json").read_text())
    check(abs(stab["lhs"] - abs(c)) <= 1e-9 * abs(c), f"certificate lhs {stab['lhs']} != |c| = {abs(c)}")
    check(abs(stab["rhs"] - lam1) <= 1e-9 * lam1, f"certificate rhs {stab['rhs']} != |lambda_1| = {lam1}")
    check(stab["criterion_holds"] == (c < lam1), "criterion_holds disagrees with c < |lambda_1|")
    root = rd_rightmost_real_root(n, c)
    check(stab["s0_estimate"] is not None and abs(stab["s0_estimate"] - root) <= 1e-8,
          f"s0_estimate {stab['s0_estimate']} != oracle root {root}")
    check_decay("stability omega0_estimate", stab["omega0_estimate"], root)

    n = REPRODUCE_N
    lam1 = abs(float(dirichlet_eigenvalues(n)[0]))
    rd = json.loads((out / "reproduce_rd_n15" / "reproduce_rd.json").read_text())
    width = (1.5 - 0.5) * lam1 / 2**40
    check(abs(rd["c_star"] - lam1) <= width, f"c* = {rd['c_star']} is not within {width:.3e} of |lambda_1| = {lam1}")
    check(rd["criterion_holds_at_half"] is True, "certificate fails at c = |lambda_1|/2")
    for label, factor in (("decay_rate_below", 0.8), ("decay_rate_above", 1.2)):
        check_decay(label, rd[label], rd_rightmost_real_root(n, factor * rd["c_star"]))
    for row in csv_rows(out / "reproduce_rd_n15" / "scan.csv"):
        c_row, re, im, holds = float(row[0]), float(row[1]), float(row[2]), row[3]
        oracle = rd_rightmost_real_root(n, c_row)
        check(abs(re - oracle) <= 1e-9 and im == 0.0, f"scan at c = {c_row}: root {re}, oracle {oracle}")
        if abs(c_row - lam1) > 1e-9 * lam1:
            check((holds == "true") == (c_row < lam1), f"scan at c = {c_row}: criterion_holds = {holds}")


def check_outputs(workload: str, out: Path, inputs: list[Path], failed: set[str]) -> None:
    if workload == "time_domain":
        check_time_domain(out, inputs)
    elif workload == "frequency_domain":
        check_frequency_domain(out, inputs, failed)
    else:
        check_rd_paper(out, inputs)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def digests(out: Path) -> dict[str, str]:
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def source_digest() -> str:
    """Digest of the program and the benchmark, so that reports are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "delaylab").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_against_earlier_runs(workload: str, seed: int, first: dict[str, str]) -> None:
    """Reports of a seed must match those of any earlier run of the same source."""
    store = OUT / "digests" / source_digest()
    store.mkdir(parents=True, exist_ok=True)
    path = store / f"{workload}-{seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        differing = sorted(k for k in set(earlier) | set(first) if earlier.get(k) != first.get(k))
        check(not differing, f"reports differ from an earlier run with seed {seed}: {differing}")
    else:
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(first, indent=1, sort_keys=True))
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def measure_setup(inputs: list[Path], workload: str) -> list[float]:
    """Seconds to import delaylab and load the workload's scenarios, in fresh interpreters."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload] + [str(p) for p in inputs]
    times = []
    for _ in range(SETUP_INTERPRETERS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# Main loop
# ---------------------------------------------------------------------------


def run_pass(ops: list[Op], out: Path, seed: int, tracer, op_times: dict):
    """One pass; returns (seconds, kept failures, unexpected failures).

    The pass time is the sum of the operation times.
    """
    kept, unexpected = set(), set()
    seconds = 0.0
    for op in ops:
        t_op = time.perf_counter()
        try:
            with tracer.span(f"bench.{op.name}") if tracer else contextlib.nullcontext():
                code = op.run(out / op.name, seed)
        except Exception:
            traceback.print_exc()
            code = -1
        op_times.setdefault(op.name, []).append(time.perf_counter() - t_op)
        seconds += op_times[op.name][-1]
        if code != 0:
            if op.kept_failure and code == 3:
                kept.add(op.name)
            else:
                print(f"operation {op.name} failed with exit code {code}", file=sys.stderr)
                unexpected.add(op.name)
    return seconds, kept, unexpected


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delaylab" / "__init__.py").is_file() or not (SCENARIOS / SCALAR).is_file():
        print(f"benchmark: no delaylab sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import delaylab
    import delaylab.cli  # noqa: F401  (the CLI is the entry point the passes time)
    import oracles  # noqa: F401  (imports scipy.special before the memory peak is read)

    if Path(delaylab.__file__).resolve().parent != (SRC / "delaylab").resolve():
        print(f"benchmark: imported delaylab from {delaylab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    inputs = make_inputs(args.workload, args.seed, work)
    ops = build_ops(args.workload, inputs)
    correct = True
    setup_times = []
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        setup_times = measure_setup(inputs, args.workload)

    pass_times, pass_starts, op_times = [], [], {}
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start + 0.5 * statistics.median(pass_times) < args.seconds:
        index = len(pass_times)
        out = work / f"pass{index}"
        pass_starts.append(len(tracer.rows) if tracer else 0)
        seconds, kept, unexpected = run_pass(ops, out, args.seed, tracer, op_times)
        pass_times.append(seconds)
        attempted += len(ops)
        failed += len(kept) + len(unexpected)
        correct &= not unexpected
        if index == 0:
            first = digests(out)
            bytes_per_pass = sum(path.stat().st_size for path in out.rglob("*") if path.is_file())
            try:
                check_outputs(args.workload, out, inputs, kept | unexpected)
                check_against_earlier_runs(args.workload, args.seed, first)
            except (CheckFailed, OSError, KeyError, ValueError, IndexError, TypeError) as exc:
                print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                correct = False
        else:
            if digests(out) != first:
                print(f"pass {index} wrote reports that differ from the first pass", file=sys.stderr)
                correct = False
            shutil.rmtree(out)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer:
        import tracing

        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
        metrics = tracing.layer_metrics(tracer, pass_starts, bytes_per_pass)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(pass_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(f"passes (s): {[round(t, 3) for t in pass_times]}", file=sys.stderr)
    print(f"operation times (s): {({k: [round(t, 3) for t in v] for k, v in op_times.items()})}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
