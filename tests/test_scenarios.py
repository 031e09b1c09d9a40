import numpy as np
import pytest

import delaylab as dl
from delaylab import DelayState, HistoryGrid
from delaylab.scenarios import _cantor_coupling, _mode_rightmost_real_root
from reference_loops import char_det


def _delay_coupling(lam):
    """e^(-lam), the transform of a unit delay at -1, and its derivative
    -e^(-lam), capped like the Cantor coupling where they overflow."""
    with np.errstate(over="ignore"):
        value = np.exp(-lam)
    return (value, -value) if np.isfinite(value) else (1e300, -1e300)


class TestLaplacian:
    def test_single_point_matrix(self):
        op = dl.laplacian_dirichlet_1d(1)
        np.testing.assert_array_equal(op.matrix, [[-8.0]])

    def test_eigenvalues_match_dense_solver(self):
        op = dl.laplacian_dirichlet_1d(31)
        dense = np.sort(np.linalg.eigvalsh(op.matrix))
        tagged = np.sort(np.real(op.eigenvalues))
        assert np.abs(dense - tagged).max() < 1e-9 * np.abs(tagged).max()

    def test_first_eigenvalue_approaches_continuum(self):
        assert abs(abs(dl.dirichlet_lambda1(127)) - np.pi**2) < 5e-4 * np.pi**2


class TestReactionDiffusion:
    def test_pure_heat_decay_matches_first_eigenvalue(self):
        n = 9
        model = dl.reaction_diffusion_scenario(n, 0.0)
        rng = np.random.default_rng(2)
        init = dl.random_compatible_state(n, 32, 2.0, rng)
        traj = dl.solve_steps(model, init, 12.0)
        lam1 = dl.dirichlet_lambda1(n)
        assert dl.decay_rate(traj, (6.0, 12.0)) == pytest.approx(lam1, rel=0.02)

    def test_small_coupling_is_certified_stable(self):
        n = 15
        model = dl.reaction_diffusion_scenario(n, 0.5 * abs(dl.dirichlet_lambda1(n)))
        profile = dl.criterion_profile(model, 0.0, dl.FrequencyGrid(100.0, 2001))
        assert profile.holds

    def test_large_coupling_has_unstable_root(self):
        n = 9
        c = 1.5 * abs(dl.dirichlet_lambda1(n))
        assert dl.rd_rightmost_root(n, c).real > 0.0
        model = dl.reaction_diffusion_scenario(n, c)
        report = dl.find_roots(model, dl.Region(-1.0, 3.0, 4.0), spacing=0.05)
        assert report.rightmost is not None
        assert report.rightmost.real > 0.0


class TestScalarCalibration:
    def test_plain_decay(self):
        model = dl.scalar_dde(-1.0, 0.0)
        init = DelayState(np.array([1.0]), HistoryGrid.constant([1.0], 50, 2.0))
        traj = dl.solve_steps(model, init, 8.0)
        assert dl.decay_rate(traj, (2.0, 8.0)) == pytest.approx(-1.0, abs=1e-3)

    def test_borderline_oscillator_roots(self):
        report = dl.find_roots(dl.scalar_dde(0.0, -np.pi / 2.0), dl.Region(-1.0, 1.0, 4.0))
        assert report.rightmost.real == pytest.approx(0.0, abs=1e-6)
        assert abs(abs(report.rightmost.imag) - np.pi / 2.0) < 1e-6

    def test_rightmost_root_against_independent_newton(self):
        mpmath = pytest.importorskip("mpmath")
        oracle = mpmath.findroot(lambda z: z + mpmath.exp(-z), mpmath.mpc(-0.3, 1.3))
        report = dl.find_roots(dl.scalar_dde(0.0, -1.0), dl.Region(-1.0, 1.0, 4.0))
        assert report.rightmost.real == pytest.approx(float(oracle.real), abs=1e-9)
        assert report.rightmost.real == pytest.approx(-0.3181, abs=1e-3)


class TestModeDecoupling:
    def test_determinant_factors_into_modes(self):
        n = 5
        c = 0.6 * abs(dl.dirichlet_lambda1(n))
        model = dl.reaction_diffusion_scenario(n, c)
        eigs = np.real(model.A.eigenvalues)
        rng = np.random.default_rng(4)
        for _ in range(12):
            lam = complex(rng.uniform(-3.0, 2.0), rng.uniform(-4.0, 4.0))
            factored = np.prod(lam - eigs - c * dl.cantor_transform(lam))
            full = char_det(model, lam)
            assert abs(full - factored) <= 1e-8 * max(1.0, abs(factored))

    # from c = 1e4 on the root lies far right of 0 (near 228.6 there): Newton
    # from the left of it climbs there from max(0, lambda_1) + 1 = 1
    @pytest.mark.parametrize("n,c", [(5, 0.6 * abs(dl.dirichlet_lambda1(5))), (15, 40.0), (15, 1e4), (15, 2e4), (15, 1e5)])
    def test_per_mode_roots_reproduced_by_full_finder(self, n, c):
        model = dl.reaction_diffusion_scenario(n, c)
        rightmost = dl.rd_rightmost_root(n, c).real
        report = dl.find_roots(
            model, dl.Region(rightmost - 0.5, rightmost + 0.5, 1.0), spacing=0.02
        )
        assert report.rightmost is not None
        assert abs(report.rightmost - rightmost) <= 1e-9 * abs(report.rightmost)

    @pytest.mark.parametrize("kernel", ["cantor", "single_delay"])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.4])
    @pytest.mark.parametrize("n", [15, 31])
    def test_top_mode_gives_the_rightmost_root(self, n, ratio, kernel):
        # any positive coupling decreasing on the real axis makes the top
        # mode's root the rightmost; the preset reads the Cantor one
        c = ratio * abs(dl.dirichlet_lambda1(n))
        coupling = _cantor_coupling if kernel == "cantor" else _delay_coupling
        eigs = np.real(dl.laplacian_dirichlet_1d(n).eigenvalues)
        every_mode = max(_mode_rightmost_real_root(float(e), coupling, c) for e in eigs)
        top_mode = _mode_rightmost_real_root(dl.dirichlet_lambda1(n), coupling, c)
        assert top_mode == every_mode
        if kernel == "cantor":
            assert dl.rd_rightmost_root(n, c) == complex(every_mode, 0.0)


    @pytest.mark.parametrize("kernel", ["cantor", "single_delay"])
    @pytest.mark.parametrize("n", [15, 31])
    def test_newton_roots_match_brentq(self, n, kernel):
        brentq = pytest.importorskip("scipy.optimize").brentq
        coupling = _cantor_coupling if kernel == "cantor" else _delay_coupling
        lam1 = abs(dl.dirichlet_lambda1(n))
        for eig in np.real(dl.laplacian_dirichlet_1d(n).eigenvalues):
            for c in (0.5 * lam1, lam1, 1.4 * lam1):
                root = _mode_rightmost_real_root(float(eig), coupling, c)
                ref = brentq(lambda lam: lam - eig - c * coupling(lam)[0], root - 0.5, root + 0.5, xtol=1e-15)
                assert abs(root - ref) <= 1e-13 * max(1.0, abs(ref))


class TestThresholdScan:
    def test_cantor_crossing_at_first_eigenvalue(self):
        n = 31
        lam1 = abs(dl.dirichlet_lambda1(n))
        c_star = dl.threshold_scan(n, (0.5 * lam1, 1.5 * lam1), steps=45)
        assert abs(c_star / lam1 - 1.0) <= 0.01

    def test_single_delay_crossing_at_first_eigenvalue(self):
        # lam - lam1 - c e^(-lam) vanishes at lam = 0 exactly when c = |lam1|
        lam1 = dl.dirichlet_lambda1(15)
        below, at, above = (
            _mode_rightmost_real_root(lam1, _delay_coupling, ratio * abs(lam1)) for ratio in (0.99, 1.0, 1.01)
        )
        assert below < 0.0 < above
        assert abs(at) <= 1e-9

    def test_range_without_crossing_rejected(self):
        n = 15
        lam1 = abs(dl.dirichlet_lambda1(n))
        with pytest.raises(dl.NoResultError):
            dl.threshold_scan(n, (0.1 * lam1, 0.5 * lam1), steps=10)

    def test_threshold_consistent_across_representations(self):
        # root-based crossing vs decay-rate sign flip on long trajectories
        n = 9
        lam1 = abs(dl.dirichlet_lambda1(n))
        c_root = dl.threshold_scan(n, (0.5 * lam1, 1.5 * lam1), steps=45)
        rng = np.random.default_rng(10)
        init = dl.random_compatible_state(n, 32, 2.0, rng)

        def trajectory_rate(c):
            model = dl.reaction_diffusion_scenario(n, c)
            traj = dl.solve_steps(model, init, 40.0)
            return dl.decay_rate(traj, (20.0, 40.0))

        c_lo, c_hi = 0.9 * lam1, 1.1 * lam1
        assert trajectory_rate(c_lo) < 0.0 < trajectory_rate(c_hi)
        for _ in range(4):
            c_mid = 0.5 * (c_lo + c_hi)
            if trajectory_rate(c_mid) > 0.0:
                c_hi = c_mid
            else:
                c_lo = c_mid
        c_traj = 0.5 * (c_lo + c_hi)
        assert abs(c_root / lam1 - 1.0) <= 0.02
        assert abs(c_traj / c_root - 1.0) <= 0.02
        assert abs(c_traj / lam1 - 1.0) <= 0.02


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: dl.laplacian_dirichlet_1d(0), "at least one interior grid point"),
        (lambda: dl.rd_rightmost_root(15, 0.0), "positive coefficients"),
        (lambda: dl.rd_rightmost_root(15, -4.9), "positive coefficients"),
    ],
    ids=["laplacian_n0", "root_c0", "root_negative_c"],
)
def test_presets_reject_out_of_range_arguments(call, message):
    with pytest.raises(dl.PreconditionError, match=message):
        call()
