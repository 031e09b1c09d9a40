import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylab as dl
from delaylab import DelayState, HistoryGrid


def cubic_history(coeffs, m=64, p=2.0):
    coeffs = np.asarray(coeffs, dtype=float)
    sigma = -1.0 + np.arange(m + 1) / m
    powers = sigma[:, None] ** np.arange(coeffs.shape[0])[None, :]
    return HistoryGrid(powers @ coeffs, p)


class TestLpNorm:
    def test_constant_one_p2(self):
        f = HistoryGrid.constant([1.0], 64, 2.0)
        assert dl.lp_norm(f) == pytest.approx(1.0, abs=1e-14)

    def test_linear_profile_p2(self):
        # integral of sigma^2 over [-1, 0] is 1/3
        f = HistoryGrid.from_function(lambda s: np.array([s]), 64, 2.0)
        assert dl.lp_norm(f) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-4)

    def test_random_smooth_matches_fine_grid_oracle(self):
        fn = lambda s: np.array([np.sin(3.0 * s) + 0.4 * s**2, np.cos(s) - 0.2 * s])
        coarse = dl.lp_norm(HistoryGrid.from_function(fn, 64, 2.0))
        fine = dl.lp_norm(HistoryGrid.from_function(fn, 4096, 2.0))
        assert abs(coarse - fine) < 1e-4

    def test_quadrature_second_order(self):
        fn = lambda s: np.array([np.sin(2.0 * s) + 0.5])
        reference = dl.lp_norm(HistoryGrid.from_function(fn, 8192, 2.0))
        errs = [abs(dl.lp_norm(HistoryGrid.from_function(fn, m, 2.0)) - reference) for m in (16, 32, 64)]
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, np.inf])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            HistoryGrid(np.ones((5, 1)), p)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            HistoryGrid(np.ones((2, 1)), 2.0)

    @given(scale=st.floats(-20.0, 20.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_absolute_homogeneity(self, scale):
        f = cubic_history([[0.3, -1.0], [1.2, 0.5], [-0.7, 0.2], [0.1, 0.9]])
        assert dl.lp_norm(scale * f) == pytest.approx(abs(scale) * dl.lp_norm(f), abs=1e-12, rel=1e-12)


class TestStateNorm:
    def test_zero_state(self):
        s = DelayState(np.zeros(2), HistoryGrid.constant([0.0, 0.0], 16, 2.0))
        assert dl.state_norm(s) == 0.0

    def test_pythagorean_head(self):
        s = DelayState(np.array([3.0, 4.0]), HistoryGrid.constant([0.0, 0.0], 16, 2.0))
        assert dl.state_norm(s) == pytest.approx(5.0, abs=1e-14)

    def test_sum_of_parts(self):
        rng = np.random.default_rng(11)
        f = cubic_history(rng.standard_normal((4, 3)))
        s = DelayState(rng.standard_normal(3), f)
        assert dl.state_norm(s) == pytest.approx(np.linalg.norm(s.head) + dl.lp_norm(f), abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            DelayState(np.ones(2), HistoryGrid.constant([1.0], 16, 2.0))


class TestNilpotentShift:
    def test_zero_time_is_identity(self):
        f = cubic_history([[1.0], [2.0], [0.5], [-0.3]])
        g = dl.nilpotent_shift(0.0, f)
        np.testing.assert_array_equal(g.samples, f.samples)

    @pytest.mark.parametrize("t", [1.0, 1.3, 2.0])
    def test_vanishes_from_unit_time(self, t):
        f = cubic_history([[1.0], [2.0], [0.5], [-0.3]])
        assert np.all(dl.nilpotent_shift(t, f).samples == 0.0)

    @pytest.mark.parametrize("ks,kt", [(8, 16), (0, 40), (31, 1), (20, 20)])
    def test_composition_on_aligned_steps(self, ks, kt):
        m = 64
        f = cubic_history([[1.0], [-0.8], [0.5], [0.2]], m=m)
        s, t = ks / m, kt / m
        two = dl.nilpotent_shift(s, dl.nilpotent_shift(t, f))
        one = dl.nilpotent_shift(s + t, f)
        assert np.abs(two.samples - one.samples).max() <= 1e-12

    @given(
        t=st.floats(0.0, 2.0),
        c0=st.floats(-2.0, 2.0),
        c1=st.floats(-2.0, 2.0),
        c2=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_lp_contractive_up_to_quadrature(self, t, c0, c1, c2):
        f = cubic_history([[c0], [c1], [c2], [0.0]])
        shifted = dl.nilpotent_shift(t, f)
        assert dl.lp_norm(shifted) <= dl.lp_norm(f) + 5e-3 * (1.0 + dl.lp_norm(f))

    def test_rejects_negative_time(self):
        f = HistoryGrid.constant([1.0], 16, 2.0)
        with pytest.raises(ValueError):
            dl.nilpotent_shift(-0.1, f)

    @pytest.mark.parametrize("matrix_weights", [False, True])
    def test_shifted_weights_read_the_shifted_history(self, matrix_weights):
        from delaylab.history import _shifted_weights

        # t = 0 (identity), t + sigma = 0 on a node (t = 0.25), off-grid t, t >= 1
        m, ts = 64, np.array([0.0, 0.25, 0.3117, 0.9, 1.0, 1.4])
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((m + 1, 2, 2) if matrix_weights else m + 1)
        f = HistoryGrid(rng.standard_normal((m + 1, 2)), 2.0)
        got = _shifted_weights(weights, ts, m)
        for t, on_f in zip(ts, got):
            g = dl.nilpotent_shift(t, f).samples
            if matrix_weights:
                want, read = np.einsum("lij,lj->i", weights, g), np.einsum("qij,qj->i", on_f, f.samples)
            else:
                want, read = weights @ g, on_f @ f.samples
            np.testing.assert_allclose(read, want, rtol=0, atol=1e-13)


class TestHistoryInjection:
    def test_zero_time_window_is_empty(self):
        a = dl.scalar_operator(-1.0)
        g = dl.history_injection(0.0, np.array([2.0]), a, m=32)
        assert np.all(g.samples == 0.0)

    def test_zero_operator_gives_indicator(self):
        # closed-window convention: the node at t + tau = 0 carries x
        a = dl.SpatialOperator(np.zeros((2, 2)))
        x = np.array([1.0, -2.0])
        g = dl.history_injection(0.5, x, a, m=32)
        nodes = g.nodes
        inside = 0.5 + nodes >= 0
        np.testing.assert_allclose(g.samples[inside], np.tile(x, (inside.sum(), 1)), atol=1e-15)
        assert np.all(g.samples[~inside] == 0.0)

    def test_scalar_closed_form_at_unit_time(self):
        a_val = -0.7
        a = dl.scalar_operator(a_val)
        x = np.array([1.3])
        g = dl.history_injection(1.0, x, a, m=64)
        expected = np.exp(a_val * (1.0 + g.nodes))[:, None] * x
        np.testing.assert_allclose(g.samples, expected, atol=1e-12)

    @pytest.mark.parametrize("t", [1.0, 1.5, 2.5])
    def test_no_zero_part_from_unit_time(self, t):
        rng = np.random.default_rng(4)
        a = dl.SpatialOperator(rng.standard_normal((3, 3)) * 0.5)
        x = rng.standard_normal(3)
        g = dl.history_injection(t, x, a, m=48)
        expected = a.propagate(x, t + g.nodes)
        np.testing.assert_allclose(g.samples, expected, atol=1e-12)
        assert np.all(np.linalg.norm(g.samples, axis=1) > 0.0)


class TestSegment:
    def test_at_zero_recovers_initial_history_on_aligned_grids(self):
        m, dt = 50, 0.01
        f = cubic_history([[0.4], [1.1], [-0.6], [0.2]], m=m)
        rows = np.concatenate([f.value_at(-1.0 + np.arange(101) * dt), np.zeros((0, 1))])
        traj = dl.Trajectory(rows, dt, m=m, p=2.0)
        seg = dl.segment(traj, 0.0)
        np.testing.assert_allclose(seg.samples, f.samples, atol=1e-14)

    def test_constant_trajectory(self):
        v = np.array([2.0, -1.0])
        rows = np.tile(v, (301, 1))
        traj = dl.Trajectory(rows, 0.01, m=20, p=2.0)
        seg = dl.segment(traj, 1.5)
        np.testing.assert_allclose(seg.samples, np.tile(v, (21, 1)), atol=1e-15)

    def test_exponential_trajectory_oracle(self):
        a, dt = -0.8, 1e-3
        ts = -1.0 + np.arange(int(3.0 / dt) + 1) * dt
        traj = dl.Trajectory(np.exp(a * ts)[:, None], dt, m=64, p=2.0)
        seg = dl.segment(traj, 2.0)
        expected = np.exp(a * (2.0 + seg.nodes))[:, None]
        assert np.abs(seg.samples - expected).max() < 10.0 * dt**2

    @pytest.mark.parametrize("read", [dl.segment, dl.Trajectory.value_at], ids=["segment", "value_at"])
    def test_rejects_uncovered_time(self, read):
        traj = dl.Trajectory(np.ones((101, 1)), 0.01, m=10, p=2.0)
        with pytest.raises(dl.PreconditionError):
            read(traj, 0.5)


class TestTrajectory:
    @pytest.mark.parametrize("dt", [-0.25, 0.0, 0.3])
    def test_step_must_divide_the_unit_delay(self, dt):
        with pytest.raises(dl.PreconditionError, match="1/dt must be an integer"):
            dl.Trajectory(np.zeros((5, 1)), dt)

    def test_step_is_required(self):
        with pytest.raises(dl.PreconditionError):
            dl.Trajectory(np.zeros((5, 1)), None)

    def test_values_are_a_read_only_view(self):
        rows = np.zeros((5, 2))
        traj = dl.Trajectory(rows, 0.25)
        assert np.shares_memory(traj.values, rows) and traj.t_end == 0.0
        with pytest.raises(ValueError):
            traj.values[0, 0] = 1.0


class TestDelayState:
    def test_compatibility_flag(self):
        f = HistoryGrid.constant([1.0], 16, 2.0)
        assert DelayState(np.array([1.0]), f).is_compatible()
        assert not DelayState(np.array([1.5]), f).is_compatible()

    def test_compat_defect_value(self):
        f = HistoryGrid.constant([1.0], 16, 2.0)
        assert DelayState(np.array([1.25]), f).compat_defect() == pytest.approx(0.25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_head(self, bad):
        f = HistoryGrid.constant([1.0, 2.0], 16, 2.0)
        with pytest.raises(ValueError, match="head contains non-finite entries"):
            DelayState(np.array([1.0, bad]), f)

    def test_head_and_samples_are_read_only_copies(self):
        head, samples = np.array([1.0]), np.ones((17, 1))
        s = DelayState(head, HistoryGrid(samples, 2.0))
        head[0] = samples[0, 0] = 5.0
        assert s.head[0] == 1.0 and s.history.samples[0, 0] == 1.0
        with pytest.raises(ValueError):
            s.head[0] = 2.0
        with pytest.raises(ValueError):
            s.history.samples[0, 0] = 2.0

    def test_sums_require_one_exponent_in_either_order(self):
        a = DelayState(np.array([1.0]), HistoryGrid.constant([1.0], 16, 2.0))
        b = DelayState(np.array([1.0]), HistoryGrid.constant([1.0], 16, 3.0))
        for left, right in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="exponent"):
                left + right
            with pytest.raises(ValueError, match="exponent"):
                left.history + right.history
        assert (b + b).history.p == 3.0
