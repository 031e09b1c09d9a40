import functools
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import delaylab as dl
from delaylab import DelayState, HistoryGrid, evolution
from delaylab.evolution import DEFAULT_DT, _impulse_toeplitz, _phi
from delaylab.functional import _atoms, _delay_stencil
from delaylab.scenario_io import load_scenario
from delaylab.spectral import _log_det
from reference_loops import (
    reference_etd2_solve_steps,
    reference_solve_steps,
    reference_volterra_terms,
    series_head,
    stepped_state,
)
from models import ZOO, named, rotation_operator, select


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


empty_functional = ZOO["empty"].build


def constant_state(value, m=100, p=2.0):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return DelayState(v, HistoryGrid.constant(v, m, p))


def ode_model(a):
    return dl.SystemModel(dl.scalar_operator(a), empty_functional(), 2.0)


class TestSpatialOperator:
    def test_rejects_eigenvalue_tag_mismatch(self):
        with pytest.raises(ValueError):
            dl.SpatialOperator(np.diag([-1.0, -2.0]), eigenvalues=np.array([-1.0, -3.0]))

    def test_tag_check_reads_the_one_decomposition(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        def no_eigvals(a):
            raise AssertionError("the tag check decomposed A a second time")

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        A = dl.laplacian_dirichlet_1d(31)
        assert A.spectrum() is A.eigenvalues
        assert A.modes() is not None
        model = dl.SystemModel(A, dl.CantorKernel(1.0))
        dl.solve_steps(model, dl.random_compatible_state(31, 64, 2.0, np.random.default_rng(0)), 0.05)
        assert calls == [(31, 31)]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dl.SpatialOperator(np.ones((2, 3)))

    def test_rejects_complex_matrix(self):
        # a cast would give [[1.]]: the real part, with the imaginary dropped
        with pytest.raises(ValueError, match="must be real"):
            dl.SpatialOperator(np.array([[1.0 + 2.0j]]))

    @pytest.mark.parametrize("a", [np.array([[-1.0, 0.0], [0.0, -2.0]]), np.array([[-1.0, 0.5], [0.0, -2.0]])])
    def test_caller_array_cannot_change_the_operator(self, a):
        tags = np.array([-1.0, -2.0], dtype=complex)
        op = dl.SpatialOperator(a, eigenvalues=tags)
        np.testing.assert_array_equal(op.spectrum(), [-1.0, -2.0])
        a[0, 0] = 5.0
        tags[0] = 9.0
        assert op.matrix[0, 0] == -1.0
        np.testing.assert_array_equal(op.spectrum(), [-1.0, -2.0])
        arrays = [op.matrix, op.eigenvalues] + [x for x in op._eigen if isinstance(x, np.ndarray)]
        assert len(arrays) == 5
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] *= 2.0

    @pytest.mark.parametrize("seed,symmetric", [(0, True), (1, False), (2, False)])
    def test_propagate_matches_dense_exponential(self, seed, symmetric):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        if symmetric:
            a = 0.5 * (a + a.T)
        op = dl.SpatialOperator(a)
        x = rng.standard_normal(4)
        times = np.array([0.0, 0.3, 1.0, 2.4])
        expected = np.array([scipy.linalg.expm(t * a) @ x for t in times])
        np.testing.assert_allclose(op.propagate(x, times), expected, atol=1e-10)

    @pytest.mark.parametrize("name", ["scalar", "symmetric", "rotation", "double_pair"])
    def test_modes_are_an_orthonormal_eigenbasis(self, name):
        sym = np.random.default_rng(4).standard_normal((4, 4))
        a = {
            "scalar": np.array([[-0.7]]),
            "symmetric": sym + sym.T,
            "rotation": rotation_operator().matrix,
            "double_pair": ZOO["double_pair_delay"].build().A.matrix,
        }[name]
        mu, q = dl.SpatialOperator(a).modes()
        np.testing.assert_allclose(q.conj().T @ q, np.eye(len(a)), rtol=0, atol=1e-12)
        np.testing.assert_allclose((q * mu) @ q.conj().T, a, rtol=0, atol=1e-12)

    def test_non_normal_operator_has_no_modes(self):
        op = ZOO["non_normal3_cantor"].build().A
        assert op.modes() is None
        np.testing.assert_allclose(op.expm(0.7), scipy.linalg.expm(0.7 * op.matrix), atol=1e-12)

    def test_defective_operator_falls_back_to_scaling_and_squaring(self):
        # a Jordan block: the two eig vectors are parallel up to rounding, so
        # the basis is dropped and exponentials come from scipy's expm
        op = dl.SpatialOperator(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        assert op._eigen[1] is None

        def exact(t):
            return np.exp(-t) * np.array([[1.0, t], [0.0, 1.0]])

        times = np.array([0.0, 0.3, 1.0, 2.4])
        np.testing.assert_allclose(op.expm(0.7), exact(0.7), rtol=0, atol=1e-12)
        np.testing.assert_allclose(op.expm(times), [exact(t) for t in times], rtol=0, atol=1e-12)
        x = np.array([0.4, -1.3])
        np.testing.assert_allclose(op.propagate(x, times), [exact(t) @ x for t in times], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["scalar", "symmetric", "rotation"])
    def test_expm_norm_of_modes_matches_svd(self, name):
        sym = np.random.default_rng(4).standard_normal((4, 4))
        a = {"scalar": np.array([[-0.7]]), "symmetric": sym + sym.T, "rotation": rotation_operator().matrix}[name]
        op = dl.SpatialOperator(a)
        assert op.modes() is not None
        times = np.linspace(0.0, 1.0, 1000)
        want = np.linalg.svd(op.expm(times), compute_uv=False)[:, 0]
        np.testing.assert_allclose(op.expm_norm(times), want, rtol=1e-14, atol=0)

    def test_expm_norm_of_non_normal_operator_sees_transient_growth(self):
        # eigenvalues -1 and -2, yet ||exp(tA)|| rises above 2 before it decays
        op = dl.SpatialOperator(np.array([[-1.0, 10.0], [0.0, -2.0]]))
        assert op.modes() is None
        times = np.linspace(0.0, 1.0, 1000)
        got = op.expm_norm(times)
        want = [np.linalg.norm(scipy.linalg.expm(t * op.matrix), 2) for t in times]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got.max() > 2.0 > max(1.0, np.exp(op.spectrum().real.max()))

    def test_expm_matches_scipy(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) * 0.7
        op = dl.SpatialOperator(a)
        np.testing.assert_allclose(op.expm(0.9), scipy.linalg.expm(0.9 * a), atol=1e-10)
        stack = op.expm(np.array([0.0, 0.9]))
        np.testing.assert_allclose(stack, [np.eye(5), scipy.linalg.expm(0.9 * a)], atol=1e-10)


class TestSystemModel:
    def test_dimension_agreement_enforced(self):
        with pytest.raises(ValueError):
            dl.SystemModel(dl.scalar_operator(-1.0), dl.single_delay(np.eye(2), -1.0), 2.0)

    @pytest.mark.parametrize("name", sorted(select()))
    def test_default_step_is_fixed(self, name):
        # exp(dt A) is applied exactly, so the step does not shrink with ||A||
        model = ZOO[name].build()
        init = dl.random_compatible_state(model.n, 64, 2.0, np.random.default_rng(0))
        assert DEFAULT_DT == 2.0**-10
        assert dl.solve_steps(model, init, 0.01).dt == DEFAULT_DT


class TestSolveSteps:
    def test_no_delay_reduces_to_linear_ode(self):
        a = -1.3
        traj = dl.solve_steps(ode_model(a), constant_state(1.0), 1.0, 1e-3)
        assert abs(traj.value_at(1.0)[0] - np.exp(a)) < 1e-8

    def test_history_rows_reproduce_initial_history(self):
        init = constant_state([0.5, -0.5], m=50)
        traj = dl.solve_steps(ode_model_2d(), init, 0.5, 1e-2)
        expected = np.tile([0.5, -0.5], (traj.history_rows, 1))
        np.testing.assert_allclose(traj.values[: traj.history_rows], expected, atol=1e-14)

    def test_neutral_oscillation_stays_bounded(self):
        model = dl.scalar_dde(0.0, -np.pi / 2.0)
        traj = dl.solve_steps(model, constant_state(1.0), 30.0, 1e-3)
        sol = np.abs(traj.values[traj.history_rows - 1 :, 0])
        assert sol.max() <= 10.0
        per_window = sol[: 30 * 1000].reshape(30, 1000).max(axis=1)
        assert per_window.min() >= 0.1

    def test_second_order_self_convergence(self):
        model = dl.scalar_dde(-0.3, -0.8)
        init = constant_state(1.0)
        ref = dl.solve_steps(model, init, 2.0, 1e-5).value_at(2.0)[0]
        errs = [abs(dl.solve_steps(model, init, 2.0, dt).value_at(2.0)[0] - ref) for dt in (4e-3, 2e-3)]
        assert errs[0] / errs[1] >= 3.5

    def test_delay_atom_at_zero_folds_into_matrix(self):
        phi = dl.DiscreteDelays(np.array([[[0.4]]]), np.array([0.0]))
        model = dl.SystemModel(dl.scalar_operator(-1.0), phi, 2.0)
        traj = dl.solve_steps(model, constant_state(1.0), 1.0, 1e-3)
        assert abs(traj.value_at(1.0)[0] - np.exp(-0.6)) < 1e-8

    def test_rejects_incompatible_initial_state(self):
        bad = DelayState(np.array([2.0]), HistoryGrid.constant([1.0], 50, 2.0))
        with pytest.raises(dl.PreconditionError):
            dl.solve_steps(ode_model(-1.0), bad, 1.0)

    def test_rejects_step_not_dividing_unit_delay(self):
        # both time-domain routes share one step-grid rule
        for dt in (0.3, 0.0, -1e-3, 2.0):
            with pytest.raises(dl.PreconditionError, match="1/dt must be an integer"):
                dl.solve_steps(ode_model(-1.0), constant_state(1.0), 1.0, dt)
            with pytest.raises(dl.PreconditionError, match="1/dt must be an integer"):
                dl.volterra_terms(ode_model(-1.0), 2, 0.0, constant_state(1.0), dt)

    def test_blowup_guard(self):
        with pytest.raises(dl.BlowUpError):
            dl.solve_steps(ode_model(40.0), constant_state(1.0), 1.0, 1e-3)

    def test_default_step_is_as_accurate_as_fine_rk4(self):
        # RD n = 15 at 2^-10 against RK4 at 2^-14 on the shared nodes: 2.2e-5
        # of the scale off, where RK4 at 2^-10 is 1.2e-3 off
        model = dl.reaction_diffusion_scenario(15, 4.918968)
        init = dl.random_compatible_state(15, 64, 2.0, np.random.default_rng(1))
        got = dl.solve_steps(model, init, 1.0).values
        want = reference_solve_steps(model, init, 1.0, 2.0**-14).values[::16]
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-4 * np.abs(want).max()


#: models with scalar weights (Cantor kernels on a normal A, a non-normal one and
#: an advection operator with cond(V) = 3.1e4, no delay, one dimension, 0.9 Id at
#: n = 7) and with weights diagonal in the eigenbasis of A, one per mode
MODAL = {
    **named("rotation_cantor", "diagonal3_no_delay", "scalar_-0.3_-0.8", "non_normal3_cantor", "advection_cantor", "scaled_identity"),
    **select("split", "-frontier"),
}
#: dt and horizon where they are not 1e-3 and 2
MODAL_RUNS = {"scalar_-0.3_-0.8": (1e-3, 3.0), "advection_cantor": (1.0 / 1024, 2.0), "delayed_diffusion": (1.0 / 1024, 2.0)}
#: dt and horizon; every horizon crosses at least two compactions of the rolling buffer
#: (a unit lag, the longest read there is, and no lags at all among them)
ROLLING_RUNS = {
    "scalar_-0.3_-0.8": (1.0 / 64, 40.0), "diagonal2_identity_delay": (0.01, 20.0), "ode_-0.5": (1.0 / 64, 30.0),
    "coupled_sub_step": (DEFAULT_DT, 8.0), "reaction_diffusion_cantor": (1.0 / 64, 12.0),
}


#: (zoo name, dt, horizon, history nodes m, seed, path) of the runs that check
#: solve_steps against the stage-by-stage sweep; each asserts the basis that
#: its zoo tag names, and a run picked for a path asserts that path too
SWEEP_RUNS = [
    # the non-normal 2 x 2 operator with weights that couple, at a delay on the
    # grid, off it, inside the first step, at zero and in a density; and the
    # n = 15 Cantor kernel, at the default step
    *[(name, 1e-3, 2.0, 64, 5, None) for name in ("nn2_delay_0.3", "nn2_delay_0.3337", "nn2_sub_step", "nn2_atom_at_zero", "nn2_density")],
    ("rd15_c4.9", DEFAULT_DT, 2.0, 64, 5, None),
    # atoms whose end-of-step read extrapolates past the frontier: each model
    # is built for the step its name ends in
    *[(name, DEFAULT_DT if name.endswith("2^-10") else 1e-3, 2.0, 64, 14, None) for name in select("frontier")],
    # stepping in the eigenbasis of A
    *[(name, *MODAL_RUNS.get(name, (1e-3, 2.0)), 64, 6, None) for name in MODAL],
    # weights that commute with A and still couple: the matrix path
    *[(name, DEFAULT_DT, 1.0, 64, 6, "coupled") for name in select("coupled", "commuting")],
    # horizons that cross at least two moves of the rolling buffer
    *[(name, dt, horizon, 64, 21, "buffer moves") for name, (dt, horizon) in ROLLING_RUNS.items()],
    # blocks longer than the shortest lag above 1.  The off-grid Cantor nodes of
    # the shipped model at m = 100 take 128 lags, the shortest above 1 is 9, and
    # the horizon 0.777 takes 777 steps in blocks of 200
    *[(name, dt, horizon, m, 8, "long blocks") for name, dt, horizon, m in (
        ("reaction_diffusion_cantor", 1.0 / 1024, 2.0, 100), ("nn2_delay_2e-3", 1e-3, 3e-3, 64), ("scalar_short_lag", 1e-3, 0.777, 64),
        ("rotation_cantor", 1e-3, 2.0, 100), ("non_normal3_cantor", 1e-3, 2.0, 100), ("nn2_two_delays", 1e-3, 2.0, 64))],
]
#: (zoo name, dt, horizon, seed or None for the constant history 1 at m = 100,
#: buffer spans or None for the default, message) of the runs whose BlowUpError
#: must report the stage-by-stage sweep's message
BLOWUP_RUNS = [
    *[(name, 1e-3, 3.0, None, None, None) for name in select("blows_up", "discrete")],
    # an orthonormal basis, and one that is not; the guard is checked once
    # per unit of time (blocks of 141 steps, so after 1128, 2256 and 3384
    # steps) and at the horizon: diag(2, 40) trips at t = 0.727, inside
    # the first check, and diag(2, 8) at t = 3.352, inside the third and,
    # with the horizon at 3.36, inside the final partial one
    *[(name, 1e-3, horizon, 7, None, None) for name, horizon in (
        ("diagonal_2_40_cantor3", 4.0), ("diagonal_2_8_cantor3", 3.5), ("diagonal_2_8_cantor3", 3.36),
        ("diagonal_2_9_cantor3", 4.0), ("triangular_2_5_9_cantor3", 4.0))],
    # the shipped n = 15 scenario at c = 40, from the state of `stability --seed 42`,
    # trips at t = 8.447, inside a block of 51 steps that the lags 15, 16, 31, 32,
    # 47 and 48 act in, after several moves of the default buffer (2 spans); one
    # span moves the kept rows before nearly every block, 10**9 hold the whole horizon
    *[("rd15_c40", DEFAULT_DT, 10.0, 42, spans, "solution norm exceeded 1e+12 at t = 8.44727; aborting") for spans in (1, 2, 10**9)],
]
#: (zoo name, dt, terms N, time t, seed or None for the constant history 1 at
#: m = 100, tolerance, whether the head is compared beside the history, debug
#: line) of the runs that check volterra_terms against the node-by-node delay
#: term, at the tolerance of the scale of the compared parts
VOLTERRA_RUNS = [
    ("scalar_single_delay", 1e-3, 6, 1.5, 4, 1e-12, True, None), ("scalar_-1_cantor0.8", 1e-2, 6, 1.5, 4, 1e-12, True, None),
    # the recurrence runs in the eigenbasis of A whatever Phi is; the
    # modal-stepping bound covers cond(V) = 3.1e4 of advection_cantor
    *[(name, MODAL_RUNS.get(name, (1e-3, 2.0))[0], 4, 0.5, 4, 1e-10, True, None) for name in MODAL],
    ("scalar_-0.3_cantor0.8", 1e-3, 8, 1.5, None, 1e-10, False, "modal basis, n = 1, dt = 0.001, steps = 1500, block = 200, terms = 8"),
    # a Jordan block keeps no eigenbasis: one block of size 2
    ("jordan_cantor0.8", 1e-3, 8, 1.5, None, 1e-10, False, "matrix basis, n = 2, dt = 0.001, steps = 1500, block = 100, terms = 8"),
    # t within the 1e-9 grid slack of a node reads its segments there
    ("scalar_single_delay", 1e-3, 2, 1.5 + 5e-10, 4, 1e-12, False, None),
]


def _initial(model, seed, m=64):
    """A random compatible state of the seed on m nodes, or the constant history 1 for no seed."""
    if seed is None:
        return constant_state(np.ones(model.n))
    return dl.random_compatible_state(model.n, m, 2.0, np.random.default_rng(seed))


@functools.cache
def reference_blowup(name, dt, horizon, seed):
    """The BlowUpError message of the stage-by-stage sweep, which reads no buffer spans."""
    model = ZOO[name].build()
    with pytest.raises(dl.BlowUpError) as want:
        reference_etd2_solve_steps(model, _initial(model, seed), horizon, dt)
    return str(want.value)


class TestStageByStageReferences:
    """Each time-domain route against its stage-by-stage reference loop, one table of runs per check."""

    @pytest.mark.parametrize("name,dt,horizon,m,seed,path", SWEEP_RUNS, ids=[f"{r[0]}-seed{r[4]}" for r in SWEEP_RUNS])
    def test_solve_steps_matches_the_sweep(self, name, dt, horizon, m, seed, path, caplog):
        model = ZOO[name].build()
        init = _initial(model, seed, m)
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            got = dl.solve_steps(model, init, horizon, dt).values
        basis, block = re.search(r"(\w+) basis, .* block = (\d+)", caplog.text).groups()
        assert basis in {"modal", "matrix"} & ZOO[name].tags
        if path == "coupled":
            assert model.decoupled is None
        if path == "buffer moves":
            assert len(got) >= 3 * evolution._BUFFER_SPANS * (round(1.0 / dt) + int(block) + 2)
        if path == "long blocks":
            lags = np.union1d(*(_delay_stencil(_atoms(model.phi, m), round(1.0 / dt), stage)[0] for stage in (0.0, 1.0)))
            assert int(block) > lags[lags > 1].min()
        want = reference_etd2_solve_steps(model, init, horizon, dt).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("name,dt,horizon,seed,spans,message", BLOWUP_RUNS, ids=[f"{r[0]}-T{r[2]:g}-spans{r[4]}" for r in BLOWUP_RUNS])
    def test_blowup_reports_the_reference_time(self, name, dt, horizon, seed, spans, message, monkeypatch):
        model = ZOO[name].build()
        init = _initial(model, seed)
        if spans:
            monkeypatch.setattr(evolution, "_BUFFER_SPANS", spans)
        with pytest.raises(dl.BlowUpError) as got:
            dl.solve_steps(model, init, horizon, dt)
        want = reference_blowup(name, dt, horizon, seed)
        assert str(got.value) == want == (message or want)

    @pytest.mark.parametrize("name,dt,N,t,seed,tol,head,line", VOLTERRA_RUNS, ids=[f"{r[0]}-N{r[2]}" for r in VOLTERRA_RUNS])
    def test_volterra_terms_match_node_by_node(self, name, dt, N, t, seed, tol, head, line, caplog):
        model = ZOO[name].build()
        init = _initial(model, seed)
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            got = dl.volterra_terms(model, N, t, init, dt)
        assert line is None or caplog.messages == ["volterra_terms: " + line]
        for g, w in zip(got, reference_volterra_terms(model, N, t, init, dt), strict=True):
            parts = [(g.history.samples, w.history.samples)] + [(g.head, w.head)] * head
            scale = max(max(np.abs(want).max() for _, want in parts), 1e-300)
            assert max(np.abs(part - want).max() for part, want in parts) <= tol * scale


#: Both sides of the switch at |x| = 1/2, x = 0 of the scalar scenario,
#: stiff decay and complex rotation modes.
PHI_POINTS = [0.0, 1e-12, -1e-12, 0.4999, -0.4999, 0.5, -0.5, 0.5001, -0.5001, -1.0, -16.0, -1e4, 0.3 + 2j, -3 + 40j]


class TestPhiFunctions:
    @pytest.mark.parametrize("x", PHI_POINTS)
    def test_matches_augmented_expm(self, x):
        aug = np.zeros((3, 3), dtype=complex)
        aug[0, 0], aug[0, 1], aug[1, 2] = x, 1.0, 1.0
        want = scipy.linalg.expm(aug)[0]
        got = [f[0, 0, 0] for f in _phi(np.array([[[x]]]))]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


class TestModalStepping:
    """Stepping in the eigenbasis of A, as its debug line reports it."""

    def test_logs_the_stepping_path(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            dl.solve_steps(dl.scalar_dde(-0.3, -0.8), constant_state(1.0), 3.0, 1e-3)
        # one stage-0 read, at lag 1000 (the end-of-step read is the same read
        # one node later), and blocks of 200 keep its block map of
        # block (block + 3) entries near 40 000
        assert caplog.messages == [
            "solve_steps: modal basis, n = 1, dt = 0.001, steps = 3000, block = 200, lags = 1"
        ]

    def test_reads_each_weighted_cantor_node_once_per_node(self, caplog):
        # the 36 weighted Cantor nodes at m = 64, each on the step grid; the
        # end-of-step reads are the same lags one node later
        model = dl.reaction_diffusion_scenario(15, 4.918968)
        init = dl.random_compatible_state(15, 64, 2.0, np.random.default_rng(1))
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            dl.solve_steps(model, init, 0.1)
        assert caplog.messages == [
            "solve_steps: modal basis, n = 15, dt = 0.000976562, steps = 103, block = 51, lags = 36"
        ]


class TestSplitDecision:
    """``SystemModel.decoupled``, the one decision that the stepper and the
    determinant read."""

    @pytest.mark.parametrize("name", sorted(select("split", "-frontier")))
    def test_weights_are_the_diagonal_in_the_eigenbasis(self, name):
        model = ZOO[name].build()
        split = model.decoupled
        assert split is model.decoupled
        mu, v, vinv, diag = split
        np.testing.assert_array_equal(mu, model.A._eigen[0])
        weights = _atoms(model.phi, 1).weights
        modal = vinv @ weights @ v
        assert np.abs(modal - diag[..., None] * np.eye(model.n)).max() <= 1e-12 * np.abs(weights).max()
        for arr in split:
            with pytest.raises(ValueError):
                arr[0] *= 2.0

    def test_scalar_weights_split_without_an_eigenbasis(self):
        # a Jordan block keeps no eigenbasis: det still factors over its
        # eigenvalues with a scalar weight, but a matrix weight couples
        jordan = dl.SpatialOperator(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        mu, v, vinv, diag = dl.SystemModel(jordan, dl.CantorKernel(0.8)).decoupled
        np.testing.assert_array_equal(mu, [-1.0, -1.0])
        assert v is None and vinv is None and diag is None
        assert dl.SystemModel(jordan, dl.single_delay(np.diag([0.3, 0.4]))).decoupled is None


def _with_zero_delay(model, delay):
    """The model with one more delay whose matrix is zero."""
    phi, n = model.phi, model.n
    return dl.SystemModel(
        model.A, dl.DiscreteDelays(np.concatenate([phi.matrices, np.zeros((1, n, n))]), np.append(phi.delays, delay))
    )


class TestZeroWeightDelays:
    """A delay with a zero matrix changes no reader of the functional, bit for bit."""

    LAMS = np.array([0.3 + 0.5j, -0.7 + 2.1j, 1.2 - 0.4j, -2.5 + 0.1j])

    @pytest.mark.parametrize("name", ["delayed_diffusion", "nn2_delay_0.3337"])
    def test_every_reader_is_bitwise_unchanged(self, name):
        model = ZOO[name].build()
        padded = _with_zero_delay(model, -0.6123)
        init = dl.random_compatible_state(model.n, 64, 2.0, np.random.default_rng(12))
        np.testing.assert_array_equal(
            dl.solve_steps(padded, init, 2.0, DEFAULT_DT).values, dl.solve_steps(model, init, 2.0, DEFAULT_DT).values
        )
        for got, want in zip(
            dl.volterra_terms(padded, 3, 1.5, init, DEFAULT_DT), dl.volterra_terms(model, 3, 1.5, init, DEFAULT_DT), strict=True
        ):
            np.testing.assert_array_equal(got.head, want.head)
            np.testing.assert_array_equal(got.history.samples, want.history.samples)
        for got, want in zip(_log_det(padded, self.LAMS.real, self.LAMS.imag), _log_det(model, self.LAMS.real, self.LAMS.imag)):
            np.testing.assert_array_equal(got, want)
        region = dl.Region(-2.0, 0.5, 4.0)
        assert dl.find_roots(padded, region).roots == dl.find_roots(model, region).roots
        assert dl.total_variation(padded.phi) == dl.total_variation(model.phi)
        got, want = padded.decoupled, model.decoupled
        assert (got is None) == (want is None)
        for g, w in zip(got or (), want or (), strict=True):
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("a", [ZOO["nn2_delay_0.3"].build().A.matrix, -np.diag([1.0, 3.0])])
    def test_all_zero_delays_act_as_the_empty_functional(self, a):
        zero = dl.SystemModel(dl.SpatialOperator(a), dl.DiscreteDelays(np.zeros((2, 2, 2)), np.array([-1.0, -0.5])))
        empty = dl.SystemModel(dl.SpatialOperator(a), empty_functional())
        init = dl.random_compatible_state(2, 64, 2.0, np.random.default_rng(13))
        np.testing.assert_array_equal(dl.solve_steps(zero, init, 2.0, 1e-3).values, dl.solve_steps(empty, init, 2.0, 1e-3).values)
        region = dl.Region(-4.0, 0.5, 2.0)
        assert dl.find_roots(zero, region).roots == dl.find_roots(empty, region).roots


class TestSteppingBudget:
    def test_checked_on_trajectory_entries(self, monkeypatch):
        model, init = dl.scalar_dde(-0.3, -0.8), constant_state(1.0)
        # 1000 history steps, the node at 0 and 1000 steps: 2001 entries at n = 1
        monkeypatch.setattr(evolution, "STEPPING_BUDGET", 2001)
        assert len(dl.solve_steps(model, init, 1.0, 1e-3).values) == 2001
        with pytest.raises(dl.BudgetError, match="stepping work 2002 "):
            dl.solve_steps(model, init, 1.001, 1e-3)

    def test_huge_horizon_is_rejected_before_allocation(self):
        # 1e15 nodes would ask for 8 PB
        with pytest.raises(dl.BudgetError, match="exceeds budget 50000000"):
            dl.solve_steps(dl.scalar_dde(-0.3, -0.8), constant_state(1.0), 1e12, 1e-3)


class TestRollingBuffer:
    """``solve_steps`` keeps the modal state in a rolling buffer; its length changes no bit."""

    @pytest.mark.parametrize("spans", [1, 10**9])
    @pytest.mark.parametrize("name", sorted(ROLLING_RUNS))
    def test_buffer_length_changes_no_bit(self, name, spans, monkeypatch):
        # one span moves the kept rows before nearly every block; 10**9 spans hold the whole horizon
        model, (dt, horizon) = ZOO[name].build(), ROLLING_RUNS[name]
        init = dl.random_compatible_state(model.n, 64, 2.0, np.random.default_rng(22))
        want = dl.solve_steps(model, init, horizon, dt).values
        monkeypatch.setattr(evolution, "_BUFFER_SPANS", spans)
        np.testing.assert_array_equal(dl.solve_steps(model, init, horizon, dt).values, want)

    def test_working_set_does_not_grow_with_the_horizon(self):
        # past the 8 B x n per node of the returned values, the rolling buffer
        # holds 2 (1024 + 51 + 2) rows (0.26 MB); the block map, the history and
        # one gather of the 36 lags take the rest.  z over the whole horizon
        # would add 2.6 MB at T = 20 and 5 MB at T = 40.
        scenario = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json")
        dl.solve_steps(scenario.model, scenario.initial, 1.0)
        extra = []
        for horizon in (20.0, 40.0):
            tracemalloc.start()
            try:
                values = dl.solve_steps(scenario.model, scenario.initial, horizon).values
                extra.append(tracemalloc.get_traced_memory()[1] - values.nbytes)
            finally:
                tracemalloc.stop()
        assert extra[0] <= 2_000_000
        assert extra[1] <= extra[0] + 16_384


def _block_case(name):
    """(model, initial state, dt): a shipped scenario's own, or a random state at the default step."""
    if "shipped" in ZOO[name].tags:
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        return scenario.model, scenario.initial, scenario.run.dt
    model = ZOO[name].build()
    return model, dl.random_compatible_state(model.n, 64, model.p, np.random.default_rng(28)), None


class TestBlockLength:
    """The block length (``_BLOCK_ENTRIES``) is part of the recurrence's
    arithmetic: another one moves a trajectory at rounding level only."""

    @pytest.mark.parametrize("cap", [1, 1000, 200_000])
    @pytest.mark.parametrize("name", sorted({**select("shipped"), **named("commuting_density", "nearly_commuting_diffusion")}))
    def test_moves_the_trajectory_at_rounding_level(self, name, cap, monkeypatch):
        # the shipped scenarios and a split and a coupled model; one step per block
        # up to 115; never 10**9, which makes the whole horizon one block whose map
        # outgrows the memory
        model, init, dt = _block_case(name)
        want = dl.solve_steps(model, init, 2.0, dt).values
        monkeypatch.setattr(evolution, "_BLOCK_ENTRIES", cap)
        got = dl.solve_steps(model, init, 2.0, dt).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestLongBlocks:
    """Blocks in which short lags act: the impulse response of one block."""

    def test_toeplitz_matches_one_step_at_a_time(self):
        rng = np.random.default_rng(11)
        b, s, block = 3, 2, 16
        lags = np.array([0, 1, 3, 7])

        def draw(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        coefs = 0.4 * draw(len(lags), b, s, s)
        forcing = draw(block, b, s)
        # zero nodes before the block, then z_{k+1} = sum_l C_l z_{k-l} + f_k
        z = np.zeros((lags.max() + 1 + block, b, s), dtype=complex)
        for k in range(block):
            j = lags.max() + k
            z[j + 1] = (coefs @ z[j - lags][..., None])[..., 0].sum(axis=0) + forcing[k]
        want = z[lags.max() + 1 :].transpose(1, 0, 2).reshape(b, -1)
        got = _impulse_toeplitz(lags, coefs, block) @ forcing.transpose(1, 0, 2).reshape(b, -1, 1)
        assert np.abs(got[..., 0] - want).max() <= 1e-12 * np.abs(want).max()


def ode_model_2d():
    return dl.SystemModel(dl.diagonal_operator([-1.0, -2.0]), empty_functional(), 2.0)


class TestMildResidual:
    def test_zero_at_time_zero(self):
        traj = dl.solve_steps(ode_model(-1.0), constant_state(1.0), 1.0, 1e-2)
        assert dl.mild_residual(ode_model(-1.0), traj, 0.0) == 0.0

    def test_exact_exponential_trajectory(self):
        a, dt = -0.9, 1e-3
        model = ode_model(a)
        ts = -1.0 + np.arange(int(3.0 / dt) + 1) * dt
        traj = dl.Trajectory(np.exp(a * ts)[:, None], dt, m=100, p=2.0)
        assert dl.mild_residual(model, traj, 2.0) < 1e-6

    def test_diffusion_with_cantor_delay(self):
        n = 14
        model = dl.reaction_diffusion_scenario(n, 0.5 * abs(dl.dirichlet_lambda1(n)))
        xs = np.arange(1, n + 1) / (n + 1)
        mode = np.sin(np.pi * xs)
        init = DelayState(mode, HistoryGrid.constant(mode, 100, 2.0))
        traj = dl.solve_steps(model, init, 2.0, 1e-3)
        assert dl.mild_residual(model, traj, 2.0) <= 1e-4

    @pytest.mark.parametrize("t,message", [(2.0, "outside trajectory coverage"), (0.505, "must be a trajectory grid node")])
    def test_rejects_uncovered_time(self, t, message):
        traj = dl.solve_steps(ode_model(-1.0), constant_state(1.0), 1.0, 1e-2)
        with pytest.raises(dl.PreconditionError, match=message):
            dl.mild_residual(ode_model(-1.0), traj, t)


class TestBlockAction:
    def test_identity_at_time_zero(self):
        rng = np.random.default_rng(0)
        s = dl.random_compatible_state(3, 64, 2.0, rng)
        a = dl.SpatialOperator(rng.standard_normal((3, 3)))
        out = dl.t0_action(a, 0.0, s)
        np.testing.assert_array_equal(out.head, s.head)
        np.testing.assert_array_equal(out.history.samples, s.history.samples)

    def test_shift_part_gone_after_unit_time(self):
        rng = np.random.default_rng(1)
        s = dl.random_compatible_state(2, 64, 2.0, rng)
        a = dl.SpatialOperator(rng.standard_normal((2, 2)) * 0.4)
        for t in (1.0, 1.8):
            full = dl.t0_action(a, t, s)
            inj = dl.history_injection(t, s.head, a, m=64)
            np.testing.assert_allclose(full.history.samples, inj.samples, atol=1e-14)

    def test_matches_method_of_steps_without_delay(self):
        rng = np.random.default_rng(7)
        a = dl.SpatialOperator(rng.standard_normal((4, 4)) * 0.5)
        model = dl.SystemModel(a, empty_functional(), 2.0)
        s = dl.random_compatible_state(4, 100, 2.0, rng)
        direct = dl.t0_action(a, 0.7, s)
        stepped = stepped_state(model, 0.7, s, 1e-3)
        assert dl.state_norm(direct + (-1.0) * stepped) < 1e-6

    @pytest.mark.parametrize("ks,kt", [(16, 24), (8, 40), (32, 32)])
    def test_composition_law_on_aligned_steps(self, ks, kt):
        rng = np.random.default_rng(1)
        a = dl.SpatialOperator(rng.standard_normal((3, 3)) * 0.5)
        s0 = dl.random_compatible_state(3, 64, 2.0, rng)
        sv, tv = ks / 64, kt / 64
        one = dl.t0_action(a, sv + tv, s0)
        two = dl.t0_action(a, sv, dl.t0_action(a, tv, s0))
        assert dl.state_norm(one + (-1.0) * two) < 1e-12


class TestSemigroupAction:
    def test_semigroup_law_two_legs(self):
        model = dl.scalar_dde(-0.4, 0.3)
        init = constant_state(1.0)
        one = stepped_state(model, 1.25, init, 1e-3)
        two = stepped_state(model, 0.5, stepped_state(model, 0.75, init, 1e-3), 1e-3)
        assert dl.state_norm(one + (-1.0) * two) < 1e-6

    def test_reduces_to_block_action_without_delay(self):
        rng = np.random.default_rng(9)
        a = dl.SpatialOperator(rng.standard_normal((2, 2)) * 0.6)
        model = dl.SystemModel(a, empty_functional(), 2.0)
        s = dl.random_compatible_state(2, 100, 2.0, rng)
        got = stepped_state(model, 0.8, s, 1e-3)
        want = dl.t0_action(a, 0.8, s)
        assert dl.state_norm(got + (-1.0) * want) < 1e-8

    def test_linearity_in_initial_state(self):
        model = dl.scalar_dde(-0.2, -0.5)
        rng = np.random.default_rng(2)
        s1 = dl.random_compatible_state(1, 100, 2.0, rng)
        s2 = dl.random_compatible_state(1, 100, 2.0, rng)
        combo = 2.0 * s1 + (-3.0) * s2
        lhs = stepped_state(model, 0.75, combo, 1e-3)
        parts = 2.0 * stepped_state(model, 0.75, s1, 1e-3) + (-3.0) * stepped_state(model, 0.75, s2, 1e-3)
        assert dl.state_norm(lhs + (-1.0) * parts) < 1e-10

    def test_compatibility_propagates(self):
        model = dl.scalar_dde(-0.5, 0.4)
        out = stepped_state(model, 0.5, constant_state(1.0), 1e-3)
        assert out.compat_defect() <= 1e-12

    def test_exponentially_bounded_growth(self):
        model = dl.scalar_dde(0.1, 0.4)
        init = constant_state(1.0)
        traj = dl.solve_steps(model, init, 5.0, 1e-3)
        ts = np.linspace(0.0, 5.0, 26)
        norms = np.array(
            [dl.state_norm(DelayState(traj.value_at(t), dl.segment(traj, t))) for t in ts]
        )
        logs = np.log(norms)
        slope, intercept = np.polyfit(ts, logs, 1)
        residuals = logs - (slope * ts + intercept)
        assert residuals.max() - residuals.min() < 1.0


class TestVolterraTerms:
    def test_zero_without_delay_term(self):
        model = dl.SystemModel(dl.scalar_operator(-1.0), empty_functional(), 2.0)
        terms = dl.volterra_terms(model, 3, 1.0, constant_state(1.0), 1e-2)
        for term in terms[1:]:
            assert dl.state_norm(term) == 0.0

    def test_zero_before_signal_reaches_functional(self):
        # delay at -1 with zero history: the first term sees only zeros
        # until the head propagation enters the delayed window
        phi = dl.single_delay(np.array([[0.9]]), -1.0)
        model = dl.SystemModel(dl.scalar_operator(-0.4), phi, 2.0)
        zero_hist = DelayState(np.array([0.0]), HistoryGrid.constant([0.0], 64, 2.0))
        term = dl.volterra_terms(model, 1, 0.5, zero_hist, 1e-2)[1]
        assert dl.state_norm(term) == 0.0

    def test_terms_decay_geometrically(self):
        model = dl.SystemModel(dl.scalar_operator(-1.0), dl.CantorKernel(0.8), 2.0)
        norms = [dl.state_norm(term) for term in dl.volterra_terms(model, 8, 1.0, constant_state(1.0), 1e-2)]
        for k in range(2, 8):
            assert norms[k + 1] <= 0.6 * norms[k] + 1e-14

    def test_budget_guard(self):
        model = dl.scalar_dde(-1.0, 0.5)
        with pytest.raises(dl.BudgetError):
            dl.volterra_terms(model, 4000, 2.0, constant_state(1.0), 1e-3)

    @pytest.mark.parametrize("N,t,message", [(-1, 1.0, "term count"), (2, 1.005, "multiple of dt"), (2, -0.5, "nonnegative"), (None, -0.5, "nonnegative")])
    def test_rejects_out_of_range_arguments(self, N, t, message):
        # N = None: the block action of the zeroth term on its own
        model, init = dl.scalar_dde(-1.0, 0.5), constant_state(1.0)
        with pytest.raises(dl.PreconditionError, match=message):
            dl.t0_action(model.A, t, init) if N is None else dl.volterra_terms(model, N, t, init, 1e-2)


class TestDysonPhillips:
    def test_zeroth_partial_sum_is_block_action(self):
        model = dl.scalar_dde(-0.7, 0.3)
        init = constant_state(1.0)
        (got,) = dl.volterra_terms(model, 0, 1.5, init, 1e-2)
        want = dl.t0_action(model.A, 1.5, init)
        assert dl.state_norm(got + (-1.0) * want) == 0.0

    def test_matches_method_of_steps(self):
        model = dl.scalar_dde(0.0, -1.0)
        init = constant_state(1.0)
        head = series_head(model, 1.5, init, 8, 1e-3)
        traj = dl.solve_steps(model, init, 1.5, 1e-3)
        assert abs(head[0] - traj.value_at(1.5)[0]) < 1e-4

    def test_instantaneous_atom_consistent_across_routes(self):
        # the stepping route folds the delay-0 atom into A, the series
        # route keeps it inside the perturbation; both must agree
        phi = dl.DiscreteDelays(np.stack([[[0.3]], [[-0.9]]]), np.array([0.0, -1.0]))
        model = dl.SystemModel(dl.scalar_operator(-0.4), phi, 2.0)
        init = constant_state(1.0)
        traj = dl.solve_steps(model, init, 1.5, 1e-3)
        head = series_head(model, 1.5, init, 8, 1e-3)
        assert abs(head[0] - traj.value_at(1.5)[0]) < 1e-6

    def test_longer_partial_sums_do_not_degrade(self):
        model = dl.scalar_dde(0.0, -1.0)
        init = constant_state(1.0)
        ref = dl.solve_steps(model, init, 1.5, 1e-3).value_at(1.5)[0]
        err4 = abs(series_head(model, 1.5, init, 4, 1e-3)[0] - ref)
        err8 = abs(series_head(model, 1.5, init, 8, 1e-3)[0] - ref)
        assert err8 <= err4 + 1e-12
