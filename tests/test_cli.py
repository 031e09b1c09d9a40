import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import lambertw

import delaylab as dl
from delaylab.cli import build_parser, main
from delaylab.scenario_io import load_scenario, parse_scenario, scenario_to_dict
from delaylab.spectral import _log_det

ROOT = Path(__file__).resolve().parent.parent


def scalar_scenario(a, b, T=4.0, dt=1e-3, m=50, head=1.0):
    return {
        "model": {
            "A": {"kind": "scalar", "payload": {"a": a}},
            "phi": {
                "variant": "discrete",
                "payload": {"terms": [{"matrix": [[b]], "delay": -1.0}]},
            },
            "p": 2.0,
        },
        "initial": {"head": [head], "history": {"kind": "constant", "payload": {"value": [head]}}},
        "run": {"T": T, "dt": dt, "m": m},
    }


def cantor_scenario(c=0.8, T=2.0, m=64):
    return {
        "model": {
            "A": {"kind": "scalar", "payload": {"a": -1.0}},
            "phi": {"variant": "cantor", "payload": {"c": c, "depth": 24}},
            "p": 2.0,
        },
        "initial": {"head": [1.0], "history": {"kind": "constant", "payload": {"value": [1.0]}}},
        "run": {"T": T, "dt": 1e-3, "m": m},
    }


def rd_scenario(n=5, c=0.0, T=4.0):
    xs = np.arange(1, n + 1) / (n + 1)
    mode = np.sin(np.pi * xs).tolist()
    return {
        "model": {
            "A": {"kind": "laplacian1d", "payload": {"n": n}},
            "phi": {"variant": "cantor", "payload": {"c": c, "depth": 24}},
            "p": 2.0,
        },
        "initial": {"head": mode, "history": {"kind": "constant", "payload": {"value": mode}}},
        "run": {"T": T, "dt": None, "m": 64},
    }


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def edited(doc, keys, value):
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSolveCommand:
    def test_scalar_decay_summary(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(-1.0, 0.0))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay_rate"] == pytest.approx(-1.0, abs=1e-3)
        assert summary["mild_residual"] < 1e-6
        header, rows = read_csv(out / "trajectory.csv")
        assert header == ["t", "component_0"]
        assert len(rows) == 5001

    def test_heat_equation_decay_matches_eigenvalue(self, tmp_path):
        path = write_scenario(tmp_path, rd_scenario(n=5, c=0.0))
        out = tmp_path / "out"
        assert main(["solve", "--scenario", path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["decay_rate"] == pytest.approx(dl.dirichlet_lambda1(5), rel=0.02)

    def test_malformed_json_exits_1_with_position(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"model": \n  broken}')
        assert main(["solve", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_field_exits_1(self, tmp_path):
        doc = scalar_scenario(-1.0, 0.0)
        doc["extra"] = 1
        path = write_scenario(tmp_path, doc)
        assert main(["solve", "--scenario", path, "--out", str(tmp_path / "o")]) == 1

    def test_incompatible_initial_state_exits_4(self, tmp_path):
        doc = scalar_scenario(-1.0, 0.0)
        doc["initial"]["head"] = [2.0]
        path = write_scenario(tmp_path, doc)
        assert main(["solve", "--scenario", path, "--out", str(tmp_path / "o")]) == 4

    def test_blowup_exits_2(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(40.0, 0.0, T=1.0))
        assert main(["solve", "--scenario", path, "--out", str(tmp_path / "o")]) == 2

    def test_vanishing_trajectory_leaves_no_report(self, tmp_path):
        # the decay fit fails after stepping: no trajectory.csv without its summary
        path = write_scenario(tmp_path, scalar_scenario(-1.0, 0.5, head=0.0))
        out = tmp_path / "o"
        assert main(["solve", "--scenario", path, "--out", str(out)]) == 4
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--scenario", "huge_T.json"],
            ["stability", "--scenario", "scenario.json", "--horizon", "1e12"],
            ["reproduce-rd", "--n", "3", "--decay-horizon", "1e12"],
        ],
        ids=["solve", "stability", "reproduce_rd"],
    )
    def test_huge_horizon_exits_4_on_the_stepping_budget(self, tmp_path, capsys, argv):
        write_scenario(tmp_path, scalar_scenario(-1.0, 0.5, T=1e12), "huge_T.json")
        write_scenario(tmp_path, scalar_scenario(-1.0, 0.5))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 4
        assert "exceeds budget" in capsys.readouterr().err

    def test_laplacian_entries_step_like_the_tagged_laplacian(self, tmp_path):
        # dt: null takes the one default step, tags or not
        n = 31
        tagged = rd_scenario(n=n, c=0.5 * abs(dl.dirichlet_lambda1(n)), T=1.0)
        entries = json.loads(json.dumps(tagged))
        entries["model"]["A"] = {"kind": "matrix", "payload": {"entries": dl.laplacian_dirichlet_1d(n).matrix.tolist()}}
        outs = []
        for name, doc in (("tagged", tagged), ("entries", entries)):
            out = tmp_path / name
            assert main(["solve", "--scenario", write_scenario(tmp_path, doc, name + ".json"), "--out", str(out)]) == 0
            outs.append(out)
        for report in ("trajectory.csv", "summary.json"):
            assert (outs[0] / report).read_bytes() == (outs[1] / report).read_bytes()


DELAY = ["model", "phi", "payload", "terms", 0, "delay"]
MATRIX = ["model", "phi", "payload", "terms", 0, "matrix"]


class TestNonFiniteScenario:
    @pytest.mark.parametrize(
        "command,doc,field",
        [
            ("solve", edited(scalar_scenario(-1.0, 0.5), DELAY, float("nan")), "model.phi.payload.terms[0].delay"),
            ("spectrum", edited(scalar_scenario(-1.0, 0.5), DELAY, float("nan")), "model.phi.payload.terms[0].delay"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), MATRIX, [[float("inf")]]), "model.phi.payload.terms[0].matrix"),
            ("solve", edited(cantor_scenario(), ["model", "phi", "payload", "c"], float("nan")), "model.phi.payload.c"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["run", "T"], float("nan")), "run.T"),
            ("solve", edited(rd_scenario(n=5, c=0.5), ["model", "A", "payload", "n"], True), "model.A.payload.n"),
            ("solve", edited(cantor_scenario(), ["model", "phi", "payload", "depth"], 13.9), "model.phi.payload.depth"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["run", "dt"], 0.3), "run.dt"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["run", "dt"], -0.25), "run.dt"),
            ("spectrum", edited(scalar_scenario(-1.0, 0.5), ["run", "dt"], 0), "run.dt"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["run", "T"], -1.0), "run.T"),
            ("spectrum", edited(scalar_scenario(-1.0, 0.5), ["run", "T"], 0.0), "run.T"),
            # every other reader error: the whole message, which names the path
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["model"], 5), "model: expected an object"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["run"], {"m": 50}), "run: missing required field(s) ['T']"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["model", "A", "payload", "a"], True), "model.A.payload.a: expected a number"),
            ("solve", edited(scalar_scenario(-1.0, 0.5), ["initial", "head"], ["x"]), "initial.head: not a numeric array"),
            (
                "solve", edited(scalar_scenario(-1.0, 0.5), ["initial", "head"], [[1.0]]),
                "initial.head: expected a 1-dimensional array, got shape (1, 1)",
            ),
            (
                "solve", edited(scalar_scenario(-1.0, 0.5), ["model", "phi", "payload", "terms"], {}),
                "model.phi.payload.terms: expected a list",
            ),
            (
                "solve", edited(scalar_scenario(-1.0, 0.5), ["model", "A"], {"kind": "matrix", "payload": {"entries": [[1.0, 2.0]]}}),
                "model.A: spatial operator must be a square matrix",
            ),
            (
                "solve", edited(scalar_scenario(-1.0, 0.5), MATRIX, [[0.5, 0.0], [0.0, 0.5]]),
                "model: functional dimension 2 does not match operator dimension 1",
            ),
            (
                "solve",
                edited(scalar_scenario(-1.0, 0.5, m=100), ["initial", "history"], {"kind": "samples", "payload": {"values": [[1.0]] * 5}}),
                "initial.history.payload.values: samples of shape (5, 1), expected (101, 1)",
            ),
        ],
        ids=[
            "nan_delay_solve", "nan_delay_spectrum", "inf_matrix", "nan_cantor_c", "nan_T", "bool_n", "fractional_depth",
            "non_integer_inverse_dt", "negative_dt", "zero_dt", "negative_T", "zero_T",
            "section_not_object", "missing_field", "bool_for_number", "non_numeric_array", "wrong_ndim", "terms_not_list",
            "non_square_entries", "dimensions_differ", "history_shape",
        ],
    )
    def test_non_finite_value_exits_1(self, tmp_path, capsys, command, doc, field):
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "o"
        assert main([command, "--scenario", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("scenario error:") and field in err
        assert not out.exists()


class TestSpectrumCommand:
    def test_finds_imaginary_pair(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(0.0, -np.pi / 2.0))
        out = tmp_path / "out"
        code = main(
            ["spectrum", "--scenario", path, "--out", str(out), "--re-min", "-1", "--re-max", "1", "--im-max", "4"]
        )
        assert code == 0
        _, rows = read_csv(out / "roots.csv")
        ims = sorted(float(r[1]) for r in rows)
        assert ims == pytest.approx([-np.pi / 2.0, np.pi / 2.0], abs=1e-6)

    def test_scalar_scenario_lists_every_lambert_w_root(self, tmp_path):
        # the 46 x 3001 seed grid (138 k lam) of u' = -u(t - 1), whose roots solve
        # lam e^lam = -1: lam = W_k(-1) on every branch k
        out = tmp_path / "out"
        argv = ["--re-min", "-8", "--re-max", "1", "--im-max", "600", "--spacing", "0.2"]
        assert main(["spectrum", "--scenario", str(ROOT / "scenarios" / "scalar_single_delay.json"), "--out", str(out)] + argv) == 0
        roots = [complex(*z) for z in json.loads((out / "roots.json").read_text())["roots"]]
        branches = [complex(lambertw(-1.0, k)) for k in range(-120, 120)]
        want = [w for w in branches if -8.0 <= w.real <= 1.0 and abs(w.imag) <= 600.0]
        assert len(roots) == len(want) == 192
        assert max(min(abs(z - w) for w in want) for z in roots) <= 1e-9
        assert max(min(abs(z - w) for z in roots) for w in want) <= 1e-9

    def test_empty_region_exits_3(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(0.0, -np.pi / 2.0))
        code = main(
            ["spectrum", "--scenario", path, "--out", str(tmp_path / "o"), "--re-min", "4", "--re-max", "6", "--im-max", "2"]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "options",
        [["--re-min", "1", "--re-max", "-1"], ["--im-max", "0"], ["--spacing", "0"], ["--re-max", "inf"]],
        ids=["reversed_re", "zero_im", "zero_spacing", "infinite_re"],
    )
    def test_bad_range_exits_4(self, tmp_path, capsys, options):
        path = write_scenario(tmp_path, scalar_scenario(0.0, -np.pi / 2.0))
        assert main(["spectrum", "--scenario", path, "--out", str(tmp_path / "o")] + options) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")


# Per subcommand: scenario (None for the presets of reproduce-rd), options
# and the report files that must be byte-identical across runs.
DETERMINISTIC = {
    "stability": (
        cantor_scenario(0.4),
        ["--alpha", "-0.1", "--omega-max", "50", "--count", "501", "--horizon", "6.0"],
        ["stability.json", "stability.csv"],
    ),
    "solve": (cantor_scenario(0.4), [], ["trajectory.csv", "summary.json"]),
    "spectrum": (
        scalar_scenario(0.0, -np.pi / 2.0),
        ["--re-min", "-1", "--re-max", "1", "--im-max", "4"],
        ["roots.json", "roots.csv"],
    ),
    "miyadera": (cantor_scenario(0.4), ["--samples", "25"], ["miyadera.csv"]),
    "dyson": (scalar_scenario(0.0, -1.0, T=2.0), ["--t", "1.5", "--n-max", "8"], ["dyson.csv"]),
    "reproduce-rd": (None, ["--n", "7", "--decay-horizon", "4"], ["scan.csv", "reproduce_rd.json"]),
}


class TestStabilityCommand:
    def test_certified_diffusion_model(self, tmp_path):
        path = write_scenario(tmp_path, rd_scenario(n=5, c=0.5 * abs(dl.dirichlet_lambda1(5)), T=4.0))
        out = tmp_path / "out"
        code = main(
            ["stability", "--scenario", path, "--out", str(out), "--alpha", "0.0", "--omega-max", "100", "--count", "1001", "--horizon", "8.0"]
        )
        assert code == 0
        doc = json.loads((out / "stability.json").read_text())
        assert doc["criterion_holds"] is True
        header, rows = read_csv(out / "stability.csv")
        assert header == ["omega", "char_norm", "resolvent_norm"]
        assert len(rows) == 1001

    def test_alpha_on_eigenvalue_exits_4(self, tmp_path):
        path = write_scenario(tmp_path, rd_scenario(n=5, c=0.0))
        code = main(
            ["stability", "--scenario", path, "--out", str(tmp_path / "o"), "--alpha", repr(float(dl.dirichlet_lambda1(5)))]
        )
        assert code == 4

    @pytest.mark.parametrize(
        "options",
        [["--count", "4000"], ["--count", "1"], ["--omega-max", "-1"], ["--omega-max", "inf"]],
        ids=["even_count", "single_count", "negative_omega_max", "infinite_omega_max"],
    )
    def test_bad_frequency_grid_exits_4(self, tmp_path, capsys, options):
        path = write_scenario(tmp_path, rd_scenario(n=5, c=0.0))
        assert main(["stability", "--scenario", path, "--out", str(tmp_path / "o")] + options) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")

    @pytest.mark.parametrize("option", ["--horizon", "--alpha"])
    def test_nan_option_exits_4(self, tmp_path, capsys, option):
        path = write_scenario(tmp_path, scalar_scenario(-2.0, 0.5))
        assert main(["stability", "--scenario", path, "--out", str(tmp_path / "o"), option, "nan"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")

    @pytest.mark.parametrize("command", list(DETERMINISTIC))
    def test_deterministic_outputs(self, tmp_path, command):
        doc, options, files = DETERMINISTIC[command]
        args = [command] + options + ["--seed", "7"]
        if doc is not None:
            args += ["--scenario", write_scenario(tmp_path, doc)]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestMiyaderaCommand:
    def test_zero_functional_column(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(-1.0, 0.0))
        doc = json.loads(open(path).read())
        doc["model"]["phi"]["payload"]["terms"] = []
        path = write_scenario(tmp_path, doc, "empty.json")
        out = tmp_path / "out"
        code = main(["miyadera", "--scenario", path, "--out", str(out), "--samples", "10"])
        assert code == 0
        _, rows = read_csv(out / "miyadera.csv")
        assert all(float(r[1]) == 0.0 for r in rows)

    def test_cantor_rows_dominated_by_bound(self, tmp_path):
        path = write_scenario(tmp_path, cantor_scenario(0.9))
        out = tmp_path / "out"
        code = main(["miyadera", "--scenario", path, "--out", str(out), "--samples", "25"])
        assert code == 0
        _, rows = read_csv(out / "miyadera.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row[1]) <= float(row[2]) + 1e-8


class TestDysonCommand:
    def test_scalar_discrepancy_table(self, tmp_path):
        path = write_scenario(tmp_path, scalar_scenario(0.0, -1.0, T=2.0))
        out = tmp_path / "out"
        code = main(["dyson", "--scenario", path, "--out", str(out), "--t", "1.5", "--n-max", "8"])
        assert code == 0
        header, rows = read_csv(out / "dyson.csv")
        assert header == ["N", "head_discrepancy", "last_term_norm"]
        assert [r[0] for r in rows] == [str(k) for k in range(9)]
        assert float(rows[-1][1]) <= 1e-4
        # the whole table, from the Volterra terms and the method of steps
        scenario = load_scenario(path)
        terms = dl.volterra_terms(scenario.model, 8, 1.5, scenario.initial, scenario.run.dt)
        head_ref = dl.solve_steps(scenario.model, scenario.initial, 1.5, scenario.run.dt).value_at(1.5)
        partial = np.zeros(scenario.model.n)
        for row, term in zip(rows, terms, strict=True):
            partial = partial + term.head
            assert float(row[1]) == float(repr(float(np.linalg.norm(partial - head_ref))))
            assert float(row[2]) == float(repr(dl.state_norm(term)))

    def test_nan_time_exits_4(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scalar_scenario(0.0, -1.0, T=2.0))
        assert main(["dyson", "--scenario", path, "--out", str(tmp_path / "o"), "--t", "nan"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")


class TestReproduceRdCommand:
    def test_single_point_threshold(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["reproduce-rd", "--out", str(out), "--n", "1", "--c-min", "4", "--c-max", "12", "--decay-horizon", "8.0"]
        )
        assert code == 0
        doc = json.loads((out / "reproduce_rd.json").read_text())
        assert doc["lambda1_abs"] == pytest.approx(8.0, abs=1e-12)
        assert doc["c_star"] == pytest.approx(8.0, rel=0.01)
        assert 0.99 <= doc["c_star_over_lambda1"] <= 1.01
        assert doc["criterion_holds_at_half"] is True
        assert doc["decay_rate_below"] < 0.0 < doc["decay_rate_above"]
        header, rows = read_csv(out / "scan.csv")
        assert header == ["c", "rightmost_re", "rightmost_im", "criterion_holds"]
        assert len(rows) == 9

    def test_reversed_range_is_usage_error(self, tmp_path):
        code = main(["reproduce-rd", "--out", str(tmp_path / "o"), "--n", "1", "--c-min", "12", "--c-max", "4"])
        assert code == 4

    @pytest.mark.parametrize(
        "options",
        [
            ["--n", "0"], ["--n", "-3"], ["--depth", "0"], ["--depth", "99"], ["--steps", "-1"], ["--steps", "0"],
            ["--decay-horizon", "-1"], ["--decay-horizon", "nan"], ["--c-min", "4", "--c-max", "inf"],
        ],
        ids=[
            "zero_n", "negative_n", "zero_depth", "deep_depth", "negative_steps", "zero_steps",
            "negative_horizon", "nan_horizon", "infinite_c_max",
        ],
    )
    def test_out_of_range_option_exits_4(self, tmp_path, capsys, options):
        base = ["reproduce-rd", "--out", str(tmp_path / "o"), "--n", "1", "--decay-horizon", "0"]
        assert main(base + options) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")

    def test_bad_depth_rejected_before_the_scan(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("threshold scan ran before the depth was checked")

        monkeypatch.setattr("delaylab.cli.threshold_scan", no_scan)
        assert main(["reproduce-rd", "--out", str(tmp_path / "o"), "--n", "1", "--depth", "99"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")

    def test_one_decomposition_per_run(self, tmp_path, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        out = tmp_path / "out"
        assert main(["reproduce-rd", "--out", str(out), "--n", "31", "--decay-horizon", "2"]) == 0
        assert calls == [(31, 31)]
        doc = json.loads((out / "reproduce_rd.json").read_text())
        assert doc["decay_rate_below"] < 0.0 < doc["decay_rate_above"]

    def test_n127_decay_rates_match_the_roots(self, tmp_path):
        # the default step does not shrink with n, so the n = 127 trajectories
        # fit in the stepping budget
        out = tmp_path / "out"
        assert main(["reproduce-rd", "--out", str(out), "--n", "127"]) == 0
        doc = json.loads((out / "reproduce_rd.json").read_text())
        for label, factor in (("decay_rate_below", 0.8), ("decay_rate_above", 1.2)):
            assert abs(doc[label] - dl.rd_rightmost_root(127, factor * doc["c_star"]).real) <= 0.05

    def test_range_without_crossing_exits_3(self, tmp_path):
        code = main(["reproduce-rd", "--out", str(tmp_path / "o"), "--n", "1", "--c-min", "1", "--c-max", "3", "--decay-horizon", "0"])
        assert code == 3


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["solve", "--out"], "the following arguments are required: --scenario"),
            (["reproduce-rd", "--n", "abc", "--out"], "argument --n: invalid int value: 'abc'"),
            (["reproduce-rd", "--bogus", "1", "--out"], "unrecognized arguments: --bogus 1"),
        ],
        ids=["missing_scenario", "non_integer_n", "unknown_option"],
    )
    def test_exit_4_not_the_blowup_code(self, tmp_path, capsys, argv, message):
        assert main(argv + [str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("usage: delaylab") and err.endswith(f": error: {message}\n")
        assert not (tmp_path / "o").exists()
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0

    def test_reproduce_rd_range_message_names_plain_numbers(self, tmp_path, capsys):
        assert main(["reproduce-rd", "--out", str(tmp_path / "o"), "--n", "15", "--c-min", "-1"]) == 4
        assert capsys.readouterr().err == "precondition violated: need 0 < c_lo < c_hi < inf, got (-1.0, 14.756904650319015)\n"


class TestOutOfRangeOptions:
    @pytest.mark.parametrize(
        "command,options",
        [
            ("dyson", ["--n-max", "-1"]),
            ("miyadera", ["--samples", "-2"]),
            ("miyadera", ["--samples", "0"]),
            ("miyadera", ["--t0-grid", "0.1,abc"]),
            ("miyadera", ["--t0-grid", ","]),
            ("dyson", ["--t", "inf"]),
            ("stability", ["--horizon", "inf"]),
        ],
        ids=["negative_n_max", "negative_samples", "zero_samples", "non_numeric_t0", "empty_t0", "infinite_t", "infinite_horizon"],
    )
    def test_exits_4(self, tmp_path, capsys, command, options):
        path = write_scenario(tmp_path, scalar_scenario(-2.0, 0.5, T=2.0))
        assert main([command, "--scenario", path, "--out", str(tmp_path / "o")] + options) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")


def kinds_scenario(n):
    """A scenario of dimension n: a non-symmetric matrix A, two discrete
    delays and a constant history."""
    head = np.linspace(1.0, 0.5, n).tolist()
    terms = [
        {"matrix": (0.5 * np.eye(n)).tolist(), "delay": -1.0},
        {"matrix": np.full((n, n), 0.1).tolist(), "delay": -0.3},
    ]
    return {
        "model": {
            "A": {"kind": "matrix", "payload": {"entries": (np.tri(n) / 3.0 - np.eye(n)).tolist()}},
            "phi": {"variant": "discrete", "payload": {"terms": terms}},
            "p": 2.0,
        },
        "initial": {"head": head, "history": {"kind": "constant", "payload": {"value": head}}},
        "run": {"T": 1.0, "dt": 1.0 / 64, "m": 16},
    }


SIGMA = -1.0 + np.arange(17) / 16
DENSITY = (0.3 * np.exp(SIGMA)[:, None, None] * np.eye(2)).tolist()
# both histories end at kinds_scenario(2)'s head, as solve_steps requires
COEFFS = [[1.0, 0.5], [0.25, -0.5], [0.1, 0.0]]
SAMPLES = np.outer(np.cos(3.0 * SIGMA), [1.0, 0.5]).tolist()


def same_bits(x, y) -> bool:
    """Two arrays of the same dtype, shape and bytes, or two Nones."""
    if x is None or y is None:
        return x is y
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_rebuilt_bit_for_bit(scenario, again):
    """The re-read scenario builds the same operator, functional and
    history, trajectory and log det, bit for bit."""
    a, b = scenario.model, again.model
    assert same_bits(a.A.matrix, b.A.matrix) and same_bits(a.A.eigenvalues, b.A.eigenvalues)
    assert type(a.phi) is type(b.phi)
    for f in dataclasses.fields(a.phi):
        x, y = getattr(a.phi, f.name), getattr(b.phi, f.name)
        assert same_bits(x, y) if isinstance(x, np.ndarray) else x == y
    assert same_bits(scenario.initial.history.samples, again.initial.history.samples)
    trajs = [dl.solve_steps(s.model, s.initial, 1.0, s.run.dt).values for s in (scenario, again)]
    assert same_bits(*trajs)
    lams = np.array([0.3 + 1.0j, -0.5 + 2.0j, 1.5])
    (la, da), (lb, db) = _log_det(a, lams.real, lams.imag), _log_det(b, lams.real, lams.imag)
    assert same_bits(la, lb) and same_bits(da, db)


class TestOneParserPerProcess:
    def test_reused_parser_carries_nothing_between_calls(self, tmp_path, capsys):
        # a report, a refused option, another command, then the first report again
        rd = str(ROOT / "scenarios" / "reaction_diffusion_cantor.json")
        assert main(["spectrum", "--scenario", rd, "--out", str(tmp_path / "first")]) == 0
        assert main(["stability", "--scenario", rd, "--out", str(tmp_path / "refused"), "--count", "1"]) == 4
        assert capsys.readouterr().err.startswith("precondition violated:")
        assert main(["solve", "--scenario", rd, "--out", str(tmp_path / "solve")]) == 0
        assert main(["spectrum", "--scenario", rd, "--out", str(tmp_path / "again")]) == 0
        for name in ("roots.json", "roots.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()
        assert build_parser() is build_parser()


class TestScenarioRoundTrip:
    def test_parse_serialise_parse(self, tmp_path):
        doc = cantor_scenario(0.7)
        scenario = parse_scenario(doc)
        doc2 = scenario_to_dict(scenario)
        scenario2 = parse_scenario(doc2)
        assert scenario2.model.phi.c == scenario.model.phi.c
        np.testing.assert_array_equal(scenario2.initial.history.samples, scenario.initial.history.samples)
        assert scenario2.run.T == scenario.run.T

    def test_density_kernel_scenario(self, tmp_path):
        nodes = -1.0 + np.arange(65) / 64
        doc = cantor_scenario(0.0)
        doc["model"]["phi"] = {
            "variant": "density",
            "payload": {"samples": (np.exp(nodes)[:, None, None] * np.eye(1)).tolist()},
        }
        path = write_scenario(tmp_path, doc)
        scenario = load_scenario(path)
        assert isinstance(scenario.model.phi, dl.DensityKernel)

    def test_dimension_mismatch_rejected(self, tmp_path):
        doc = scalar_scenario(-1.0, 0.0)
        doc["initial"]["head"] = [1.0, 2.0]
        with pytest.raises(dl.ScenarioError):
            parse_scenario(doc)

    def test_polynomial_history(self):
        doc = scalar_scenario(-1.0, 0.0)
        doc["initial"]["history"] = {"kind": "polynomial", "payload": {"coeffs": [[1.0], [0.5]]}}
        scenario = parse_scenario(doc)
        sigma = scenario.initial.history.nodes
        np.testing.assert_allclose(scenario.initial.history.samples[:, 0], 1.0 + 0.5 * sigma, atol=1e-14)

    @pytest.mark.parametrize(
        "n,keys,section,tag",
        [
            (2, ["model", "A"], kinds_scenario(2)["model"]["A"], "matrix"),
            (5, ["model", "A"], {"kind": "laplacian1d", "payload": {"n": 5}}, "laplacian1d"),
            (1, ["model", "A"], {"kind": "scalar", "payload": {"a": -0.5}}, "scalar"),
            (2, ["model", "phi"], {"variant": "discrete", "payload": {"terms": []}}, "discrete"),
            (2, ["model", "phi"], {"variant": "cantor", "payload": {"c": 0.65, "depth": 20}}, "cantor"),
            (2, ["model", "phi"], {"variant": "cantor", "payload": {"c": 0.65}}, "cantor"),
            (2, ["model", "phi"], {"variant": "density", "payload": {"samples": DENSITY}}, "density"),
            (2, ["initial", "history"], {"kind": "polynomial", "payload": {"coeffs": COEFFS}}, "samples"),
            (2, ["initial", "history"], {"kind": "samples", "payload": {"values": SAMPLES}}, "samples"),
        ],
        ids=[
            "matrix_discrete_constant", "laplacian1d", "scalar", "empty_discrete", "cantor", "cantor_default_depth",
            "density", "polynomial", "samples",
        ],
    )
    def test_serialisation_round_trip(self, n, keys, section, tag):
        # a polynomial history writes back as its samples
        scenario = parse_scenario(edited(kinds_scenario(n), keys, section))
        written = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert written[keys[0]][keys[1]]["variant" if keys[1] == "phi" else "kind"] == tag
        again = parse_scenario(written)
        assert scenario_to_dict(again) == written
        assert_rebuilt_bit_for_bit(scenario, again)

    @pytest.mark.parametrize("name", ["scalar_single_delay", "reaction_diffusion_cantor"])
    def test_shipped_scenarios_write_back_their_documents(self, name):
        path = ROOT / "scenarios" / f"{name}.json"
        scenario = load_scenario(path)
        written = scenario_to_dict(scenario)
        assert written == json.loads(path.read_text())
        assert_rebuilt_bit_for_bit(scenario, parse_scenario(written))

    def test_tagged_operator_of_no_kind_writes_as_matrix(self):
        scenario = parse_scenario(kinds_scenario(2))
        model = dataclasses.replace(scenario.model, A=dl.diagonal_operator([-1.0, -2.0]))
        written = scenario_to_dict(dataclasses.replace(scenario, model=model))
        assert written["model"]["A"] == {"kind": "matrix", "payload": {"entries": [[-1.0, 0.0], [0.0, -2.0]]}}
        # the eigenvalue tags are lost
        assert parse_scenario(written).model.A.eigenvalues is None

    @pytest.mark.parametrize("tag", [[1], None, {}], ids=["list", "null", "object"])
    @pytest.mark.parametrize(
        "keys", [["model", "A", "kind"], ["model", "phi", "variant"], ["initial", "history", "kind"]],
        ids=["operator", "functional", "history"],
    )
    def test_odd_tag_rejected(self, keys, tag):
        message = f"{'.'.join(keys)}: unknown {keys[-1]} {tag!r}"
        with pytest.raises(dl.ScenarioError, match=re.escape(message)):
            parse_scenario(edited(kinds_scenario(2), keys, tag))


# Imports delaylab and its CLI, runs solve, spectrum, stability,
# reproduce-rd and dyson on the shipped scenarios and prints the scipy modules that
# got loaded, then whether numpy.ma did.
NUMPY_ONLY_RUN = """
import sys
import delaylab, delaylab.cli
scalar, rd, out = sys.argv[1:]
for argv in (
    ["solve", "--scenario", scalar],
    ["spectrum", "--scenario", scalar, "--re-min", "-1", "--re-max", "1", "--im-max", "2"],
    ["stability", "--scenario", rd, "--horizon", "4"],
    ["reproduce-rd", "--n", "15", "--decay-horizon", "0"],
    ["dyson", "--scenario", scalar, "--t", "1.5", "--n-max", "8"],
):
    assert delaylab.cli.main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print("numpy.ma" in sys.modules)
"""


class TestImportFootprint:
    def test_cli_runs_without_scipy(self, tmp_path):
        # pytest itself has scipy loaded, so the check runs in a fresh interpreter
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        scenarios = ROOT / "scenarios"
        done = subprocess.run(
            [sys.executable, "-c", NUMPY_ONLY_RUN, str(scenarios / "scalar_single_delay.json"),
             str(scenarios / "reaction_diffusion_cantor.json"), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "False"]
