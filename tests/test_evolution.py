import logging

import numpy as np
import pytest
import scipy.linalg

import delaylab as dl
from delaylab import DelayState, HistoryGrid
from reference_loops import reference_solve_steps, reference_volterra_terms


def empty_functional():
    return dl.DiscreteDelays(np.zeros((0, 0, 0)), np.zeros(0))


def constant_state(value, m=100, p=2.0):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return DelayState(v, HistoryGrid.constant(v, m, p))


def ode_model(a):
    return dl.SystemModel(dl.scalar_operator(a), empty_functional(), 2.0)


class TestSpatialOperator:
    def test_rejects_eigenvalue_tag_mismatch(self):
        with pytest.raises(ValueError):
            dl.SpatialOperator(np.diag([-1.0, -2.0]), eigenvalues=np.array([-1.0, -3.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            dl.SpatialOperator(np.ones((2, 3)))

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
        rng = np.random.default_rng(4)
        sym = rng.standard_normal((4, 4))
        # double_pair: Q kron(I_2, R) Q^T, the pair -0.01 +- 3.73i twice;
        # eig's basis of the double eigenspaces is not orthonormal
        q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        double_pair = q @ np.kron(np.eye(2), [[-0.01, 3.73], [-3.73, -0.01]]) @ q.T
        a = {
            "scalar": np.array([[-0.7]]),
            "symmetric": sym + sym.T,
            "rotation": _rotation_operator().matrix,
            "double_pair": double_pair,
        }[name]
        mu, q = dl.SpatialOperator(a).modes()
        np.testing.assert_allclose(q.conj().T @ q, np.eye(len(a)), rtol=0, atol=1e-12)
        np.testing.assert_allclose((q * mu) @ q.conj().T, a, rtol=0, atol=1e-12)

    def test_non_normal_operator_has_no_modes(self):
        op = _nonnormal_operator()
        assert op.modes() is None
        np.testing.assert_allclose(op.expm(0.7), scipy.linalg.expm(0.7 * op.matrix), atol=1e-12)

    def test_defective_operator_falls_back_to_scaling_and_squaring(self):
        # a Jordan block: the two eig vectors are parallel up to rounding, so
        # the basis is dropped and exponentials come from scipy's expm
        op = dl.SpatialOperator(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        assert op._eigen()[1] is None

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
        a = {"scalar": np.array([[-0.7]]), "symmetric": sym + sym.T, "rotation": _rotation_operator().matrix}[name]
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

    def test_default_step_for_diffusion(self):
        model = dl.reaction_diffusion_scenario(31, 1.0)
        # the same Laplacian built from its entries alone, without tags
        untagged = dl.SystemModel(dl.SpatialOperator(dl.laplacian_dirichlet_1d(31).matrix), model.phi, model.p)
        h = 1.0 / 32
        for m in (model, untagged):
            assert m.default_dt() <= h * h / 4.0
            assert round(1.0 / m.default_dt()) == pytest.approx(1.0 / m.default_dt())
        assert untagged.default_dt() == model.default_dt() == 1.0 / 4096

    @pytest.mark.parametrize("n", [1, 2, 15, 31, 63, 127])
    def test_default_step_of_laplacian_is_h2_over_4(self, n):
        # ||A||_inf = 4/h^2 reproduces the rule 1/ceil(1/min(1e-3, h^2/4))
        h = 1.0 / (n + 1)
        assert dl.reaction_diffusion_scenario(n, 0.0).default_dt() == 1.0 / np.ceil(1.0 / min(1e-3, h * h / 4.0))

    def test_default_step_scalar(self):
        assert dl.scalar_dde(0.0, -1.0).default_dt() == 1e-3


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
        with pytest.raises(dl.PreconditionError):
            dl.solve_steps(ode_model(-1.0), constant_state(1.0), 1.0, 0.3)

    def test_blowup_guard(self):
        with pytest.raises(dl.BlowUpError):
            dl.solve_steps(ode_model(40.0), constant_state(1.0), 1.0, 1e-3)


def _coupled_operator():
    return dl.SpatialOperator(np.array([[-0.5, 0.3], [0.2, -0.8]]))


def _coupling():
    return np.array([[0.4, -0.6], [0.3, 0.2]])


def _density_kernel():
    # K(sigma) commutes neither with A nor with K at other nodes
    sigma = -1.0 + np.arange(41) / 40
    return dl.DensityKernel(
        np.array([[[0.5 * np.cos(3.0 * s), 0.2], [-0.4 * s, 0.3 * np.sin(2.0 * s)]] for s in sigma])
    )


RECURRENCE_CASES = {
    "aligned_delay": lambda: (dl.SystemModel(_coupled_operator(), dl.single_delay(_coupling(), -0.3)), 1e-3),
    "off_grid_delay": lambda: (dl.SystemModel(_coupled_operator(), dl.single_delay(_coupling(), -0.3337)), 1e-3),
    "sub_step_delay": lambda: (dl.SystemModel(_coupled_operator(), dl.single_delay(_coupling(), -1e-3 / 3)), 1e-3),
    "folded_atom": lambda: (
        dl.SystemModel(
            _coupled_operator(), dl.DiscreteDelays(np.stack([_coupling(), 0.5 * _coupling().T]), np.array([0.0, -1.0]))
        ),
        1e-3,
    ),
    "density_kernel": lambda: (dl.SystemModel(_coupled_operator(), _density_kernel()), 1e-3),
    "cantor_n15": lambda: (dl.reaction_diffusion_scenario(15, 4.9), None),
}


class TestStepRecurrence:
    """The assembled recurrence against the stage-by-stage sweep."""

    @pytest.mark.parametrize("case", sorted(RECURRENCE_CASES))
    def test_matches_stage_by_stage_sweep(self, case):
        model, dt = RECURRENCE_CASES[case]()
        dt = dt or model.default_dt()
        init = dl.random_compatible_state(model.n, 64, 2.0, np.random.default_rng(5))
        got = dl.solve_steps(model, init, 2.0, dt).values
        want = reference_solve_steps(model, init, 2.0, dt).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("model", [ode_model(40.0), dl.scalar_dde(30.0, 2.0)])
    def test_blowup_guard_reports_the_reference_time(self, model):
        init = constant_state(1.0)
        with pytest.raises(dl.BlowUpError) as got:
            dl.solve_steps(model, init, 3.0, 1e-3)
        with pytest.raises(dl.BlowUpError) as want:
            reference_solve_steps(model, init, 3.0, 1e-3)
        assert str(got.value) == str(want.value)


def _rotation_operator():
    # normal but not symmetric: two rotation blocks, complex eigenbasis
    a = np.zeros((4, 4))
    a[:2, :2] = [[-0.3, 2.0], [-2.0, -0.3]]
    a[2:, 2:] = [[-0.7, 0.9], [-0.9, -0.7]]
    return dl.SpatialOperator(a)


def _nonnormal_operator():
    return dl.SpatialOperator(np.array([[-1.0, 2.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -2.0]]))


def _advection_diffusion_operator(n=15, v=20.0):
    # central-difference drift on the Dirichlet Laplacian: non-normal, with
    # an eig basis of condition number about 3.1e4 at n = 15, v = 20
    h = 1.0 / (n + 1)
    drift = (np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)) / (2.0 * h)
    return dl.SpatialOperator(dl.laplacian_dirichlet_1d(n).matrix + v * drift)


# model, dt, horizon and the basis that solve_steps must step in
MODAL_CASES = {
    "cantor_rotation": lambda: (dl.SystemModel(_rotation_operator(), dl.CantorKernel(0.8)), 1e-3, 2.0, "modal"),
    "empty_diagonal": lambda: (
        dl.SystemModel(dl.diagonal_operator([-1.0, -2.5, 0.3]), empty_functional()), 1e-3, 2.0, "modal"
    ),
    "scalar_capped_block": lambda: (dl.scalar_dde(-0.3, -0.8), 1e-3, 3.0, "modal"),
    "cantor_non_normal": lambda: (dl.SystemModel(_nonnormal_operator(), dl.CantorKernel(0.6)), 1e-3, 2.0, "modal"),
    "cantor_advection": lambda: (
        dl.SystemModel(_advection_diffusion_operator(), dl.CantorKernel(50.0)), 1.0 / 1024, 2.0, "modal"
    ),
    "scaled_identity_delay": lambda: (
        dl.SystemModel(dl.laplacian_dirichlet_1d(7), dl.single_delay(0.9 * np.eye(7), -1.0)), 1e-3, 2.0, "modal"
    ),
}


class TestModalStepping:
    """Stepping in the eigenbasis of A against the stage-by-stage sweep."""

    @pytest.mark.parametrize("case", sorted(MODAL_CASES))
    def test_matches_stage_by_stage_sweep(self, case, caplog):
        model, dt, horizon, basis = MODAL_CASES[case]()
        init = dl.random_compatible_state(model.n, 64, 2.0, np.random.default_rng(6))
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            got = dl.solve_steps(model, init, horizon, dt).values
        assert f"{basis} basis" in caplog.text
        want = reference_solve_steps(model, init, horizon, dt).values
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_blowup_message_matches_reference(self):
        init = dl.random_compatible_state(2, 64, 2.0, np.random.default_rng(7))
        # an orthonormal basis, and one that is not
        for a in (np.diag([2.0, 9.0]), np.array([[2.0, 5.0], [0.0, 9.0]])):
            model = dl.SystemModel(dl.SpatialOperator(a), dl.CantorKernel(3.0))
            with pytest.raises(dl.BlowUpError) as got:
                dl.solve_steps(model, init, 4.0, 1e-3)
            with pytest.raises(dl.BlowUpError) as want:
                reference_solve_steps(model, init, 4.0, 1e-3)
            assert str(got.value) == str(want.value)

    def test_logs_the_stepping_path(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="delaylab.evolution"):
            dl.solve_steps(dl.scalar_dde(-0.3, -0.8), constant_state(1.0), 3.0, 1e-3)
        # lags 0, 999 and 1000; the far lags allow blocks of 999 steps and
        # the cap on the block response splits them into blocks of 315
        assert caplog.messages == [
            "solve_steps: modal basis, n = 1, dt = 0.001, steps = 3000, block = 315, lags = 3"
        ]


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

    def test_rejects_uncovered_time(self):
        traj = dl.solve_steps(ode_model(-1.0), constant_state(1.0), 1.0, 1e-2)
        with pytest.raises(dl.PreconditionError):
            dl.mild_residual(ode_model(-1.0), traj, 2.0)


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
        stepped = dl.semigroup_action(model, 0.7, s, 1e-3)
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
    def test_time_zero_projects_compatibility(self):
        f = HistoryGrid.constant([1.0], 50, 2.0)
        s = DelayState(np.array([1.0 + 5e-10]), f)
        out = dl.semigroup_action(dl.scalar_dde(-1.0, 0.2), 0.0, s)
        assert out.compat_defect() == 0.0
        np.testing.assert_array_equal(out.head, s.head)

    def test_semigroup_law_two_legs(self):
        model = dl.scalar_dde(-0.4, 0.3)
        init = constant_state(1.0)
        one = dl.semigroup_action(model, 1.25, init, 1e-3)
        two = dl.semigroup_action(model, 0.5, dl.semigroup_action(model, 0.75, init, 1e-3), 1e-3)
        assert dl.state_norm(one + (-1.0) * two) < 1e-6

    def test_reduces_to_block_action_without_delay(self):
        rng = np.random.default_rng(9)
        a = dl.SpatialOperator(rng.standard_normal((2, 2)) * 0.6)
        model = dl.SystemModel(a, empty_functional(), 2.0)
        s = dl.random_compatible_state(2, 100, 2.0, rng)
        got = dl.semigroup_action(model, 0.8, s, 1e-3)
        want = dl.t0_action(a, 0.8, s)
        assert dl.state_norm(got + (-1.0) * want) < 1e-8

    def test_linearity_in_initial_state(self):
        model = dl.scalar_dde(-0.2, -0.5)
        rng = np.random.default_rng(2)
        s1 = dl.random_compatible_state(1, 100, 2.0, rng)
        s2 = dl.random_compatible_state(1, 100, 2.0, rng)
        combo = 2.0 * s1 + (-3.0) * s2
        lhs = dl.semigroup_action(model, 0.75, combo, 1e-3)
        parts = 2.0 * dl.semigroup_action(model, 0.75, s1, 1e-3) + (-3.0) * dl.semigroup_action(
            model, 0.75, s2, 1e-3
        )
        assert dl.state_norm(lhs + (-1.0) * parts) < 1e-10

    def test_compatibility_propagates(self):
        model = dl.scalar_dde(-0.5, 0.4)
        out = dl.semigroup_action(model, 0.5, constant_state(1.0), 1e-3)
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
        result = dl.dyson_phillips(model, 1.0, constant_state(1.0), 8, 1e-2)
        norms = result.term_norms
        assert norms[-1] == result.last_term_norm
        for k in range(2, 8):
            assert norms[k + 1] <= 0.6 * norms[k] + 1e-14

    def test_budget_guard(self):
        model = dl.scalar_dde(-1.0, 0.5)
        with pytest.raises(dl.BudgetError):
            dl.volterra_terms(model, 4000, 2.0, constant_state(1.0), 1e-3)

    @pytest.mark.parametrize(
        "model,dt",
        [
            (dl.scalar_dde(0.0, -1.0), 1e-3),
            (dl.SystemModel(dl.scalar_operator(-1.0), dl.CantorKernel(0.8), 2.0), 1e-2),
        ],
    )
    def test_matches_node_by_node_delay_term(self, model, dt):
        init = dl.random_compatible_state(1, 64, 2.0, np.random.default_rng(4))
        got = dl.volterra_terms(model, 6, 1.5, init, dt)
        want = reference_volterra_terms(model, 6, 1.5, init, dt)
        for g, w in zip(got, want, strict=True):
            scale = max(np.abs(w.head).max(), np.abs(w.history.samples).max(), 1e-300)
            np.testing.assert_allclose(g.head, w.head, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(g.history.samples, w.history.samples, rtol=0, atol=1e-12 * scale)

    def test_time_off_the_grid_by_rounding_accepted(self):
        # t within the 1e-9 grid slack of a node reads its segments there
        model, t = dl.scalar_dde(0.0, -1.0), 1.5 + 5e-10
        init = dl.random_compatible_state(1, 64, 2.0, np.random.default_rng(4))
        got = dl.volterra_terms(model, 2, t, init, 1e-3)
        want = reference_volterra_terms(model, 2, t, init, 1e-3)
        for g, w in zip(got, want, strict=True):
            scale = max(np.abs(w.history.samples).max(), 1e-300)
            np.testing.assert_allclose(g.history.samples, w.history.samples, rtol=0, atol=1e-12 * scale)

    def test_rejects_nonpositive_index(self):
        model = dl.scalar_dde(-1.0, 0.5)
        with pytest.raises(ValueError):
            dl.volterra_terms(model, -1, 1.0, constant_state(1.0), 1e-2)


class TestDysonPhillips:
    def test_zeroth_partial_sum_is_block_action(self):
        model = dl.scalar_dde(-0.7, 0.3)
        init = constant_state(1.0)
        got = dl.dyson_phillips(model, 1.5, init, 0, 1e-2).state
        want = dl.t0_action(model.A, 1.5, init)
        assert dl.state_norm(got + (-1.0) * want) == 0.0

    def test_matches_method_of_steps(self):
        model = dl.scalar_dde(0.0, -1.0)
        init = constant_state(1.0)
        result = dl.dyson_phillips(model, 1.5, init, 8, 1e-3)
        traj = dl.solve_steps(model, init, 1.5, 1e-3)
        assert abs(result.state.head[0] - traj.value_at(1.5)[0]) < 1e-4

    def test_instantaneous_atom_consistent_across_routes(self):
        # the stepping route folds the delay-0 atom into A, the series
        # route keeps it inside the perturbation; both must agree
        phi = dl.DiscreteDelays(np.stack([[[0.3]], [[-0.9]]]), np.array([0.0, -1.0]))
        model = dl.SystemModel(dl.scalar_operator(-0.4), phi, 2.0)
        init = constant_state(1.0)
        traj = dl.solve_steps(model, init, 1.5, 1e-3)
        result = dl.dyson_phillips(model, 1.5, init, 8, 1e-3)
        assert abs(result.state.head[0] - traj.value_at(1.5)[0]) < 1e-6

    def test_longer_partial_sums_do_not_degrade(self):
        model = dl.scalar_dde(0.0, -1.0)
        init = constant_state(1.0)
        ref = dl.solve_steps(model, init, 1.5, 1e-3).value_at(1.5)[0]
        err4 = abs(dl.dyson_phillips(model, 1.5, init, 4, 1e-3).state.head[0] - ref)
        err8 = abs(dl.dyson_phillips(model, 1.5, init, 8, 1e-3).state.head[0] - ref)
        assert err8 <= err4 + 1e-12
