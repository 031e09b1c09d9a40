"""Float tables are written as Python's shortest ``repr``, byte for byte.

``scenario_io._csv_bytes`` computes the shortest round-trip digits in
numpy (Schubfach) and lays them out as ``repr`` does; every test compares
its bytes with ``",".join(map(repr, row)) + "\\n"`` over the rows.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylab as dl
from delaylab.scenario_io import (
    _csv_bytes,
    load_scenario,
    write_roots_csv,
    write_stability_csv,
    write_table,
    write_trajectory_csv,
)

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def repr_join(table) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table, dtype=float).tolist()).encode()


def edge_values() -> np.ndarray:
    powers = 2.0 ** np.arange(-1074, 1024)
    values = [
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308],
        [9999999999999998.0, 1e16, 1e-4, 9.999999999999999e-05, 1e-05, 1.7976931348623157e308],
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        -powers,
        np.arange(-5000.0, 5001.0),
        10.0 ** np.arange(23),
        2.0**53 + np.arange(-64.0, 65.0),
        -1.0 + np.arange(4096) / 1024.0,
        -1.0 + np.arange(4096) * 0.001,
    ]
    return np.concatenate([np.asarray(v, dtype=float) for v in values])


class TestShortestRepr:
    @pytest.mark.parametrize("cols", [1, 3, 16])
    def test_edge_table(self, cols):
        values = edge_values()
        table = np.resize(values, (-(-len(values) // cols), cols))
        assert _csv_bytes(table) == repr_join(table)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=24))
    def test_any_float(self, values):
        for table in (np.array(values)[:, None], np.array(values)[None, :]):
            assert _csv_bytes(table) == repr_join(table)

    def test_random_bit_patterns(self, tmp_path):
        bits = np.random.default_rng(20201).integers(0, 2**64, size=200_000, dtype=np.uint64)
        table = bits.view(np.float64).reshape(-1, 16)
        header = [f"c{i}" for i in range(16)]
        write_table(tmp_path / "random.csv", header, table)
        assert (tmp_path / "random.csv").read_bytes() == (",".join(header) + "\n").encode() + repr_join(table)

    def test_empty_table_writes_the_header(self, tmp_path):
        write_table(tmp_path / "empty.csv", ["a", "b"], np.zeros((0, 2)))
        assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"

    def test_import_fills_no_table(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        code = "import delaylab, delaylab.cli, delaylab.scenario_io as io; print(io._FILLED, io._TABLES.masks.any())"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert done.stdout.strip() == "False False", done.stderr


class TestReports:
    def check(self, path, header, table):
        expected = (",".join(header) + "\n").encode() + repr_join(table)
        assert path.read_bytes() == expected

    @pytest.mark.parametrize("name", ["scalar_single_delay.json", "reaction_diffusion_cantor.json"])
    def test_trajectory(self, tmp_path, name):
        scenario = load_scenario(SCENARIOS / name)
        traj = dl.solve_steps(scenario.model, scenario.initial, scenario.run.T, scenario.run.dt)
        write_trajectory_csv(tmp_path / "trajectory.csv", traj)
        header = ["t"] + [f"component_{i}" for i in range(traj.n)]
        self.check(tmp_path / "trajectory.csv", header, np.column_stack((traj.times, traj.values)))

    def test_stability_and_roots_of_the_rd_scenario(self, tmp_path):
        scenario = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json")
        _, profile = dl.stability_criterion(scenario.model, 0.0, state_m=scenario.run.m, dt=scenario.run.dt)
        write_stability_csv(tmp_path / "stability.csv", profile)
        table = np.column_stack((profile.omegas, profile.char_norms, profile.resolvent_norms))
        self.check(tmp_path / "stability.csv", ["omega", "char_norm", "resolvent_norm"], table)

        report = dl.find_roots(scenario.model, dl.Region(-30.0, 1.0, 5.0))
        assert report.roots
        write_roots_csv(tmp_path / "roots.csv", report)
        roots = np.array(report.roots)
        table = np.column_stack((roots.real, roots.imag, report.residuals))
        self.check(tmp_path / "roots.csv", ["re", "im", "residual"], table)
