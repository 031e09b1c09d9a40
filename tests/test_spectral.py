import logging
from pathlib import Path

import numpy as np
import pytest

import delaylab as dl
from delaylab import DelayState, HistoryGrid
from delaylab.spectral import _char_matrix_stack, _log_det
from delaylab.scenario_io import load_scenario
from reference_loops import (
    perturbed_resolvent_bound_check,
    reference_decay_rate,
    reference_miyadera_estimate,
    reference_random_compatible_state,
    reference_shift_resolvent_history,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def empty_functional():
    return dl.DiscreteDelays(np.zeros((0, 0, 0)), np.zeros(0))


def constant_state(value, m=100, p=2.0):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return DelayState(v, HistoryGrid.constant(v, m, p))


def smooth_history(m, n, seed, p=2.0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((4, n))
    sigma = -1.0 + np.arange(m + 1) / m
    powers = sigma[:, None] ** np.arange(4)[None, :]
    return HistoryGrid(powers @ coeffs, p)


class TestFrequencyGrid:
    def test_zero_frequency_always_sampled(self):
        grid = dl.FrequencyGrid(30.0, 301)
        assert 0.0 in grid.samples

    @pytest.mark.parametrize("omega_max,count", [(0.0, 101), (-1.0, 101), (10.0, 100), (10.0, 0)])
    def test_rejects_bad_parameters(self, omega_max, count):
        with pytest.raises(ValueError):
            dl.FrequencyGrid(omega_max, count)


class TestCharacteristicOperator:
    def test_eigenvector_annihilated_without_delay(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        out = _char_matrix_stack(model, [-1.0])[0] @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        model = dl.scalar_dde(0.0, 0.7)
        for lam in (0.3, 1.0 + 2.0j, -0.5 - 1.0j):
            got = (_char_matrix_stack(model, [lam])[0] @ np.array([1.0]))[0]
            assert got == pytest.approx(lam - 0.7 * np.exp(-lam), abs=1e-14)

    def test_linearity_in_vector(self):
        model = dl.scalar_dde(-1.0, 0.4)
        lam = 0.2 + 0.9j
        x1, x2 = np.array([1.7]), np.array([-0.6])
        m = _char_matrix_stack(model, [lam])[0]
        lhs = m @ (2.0 * x1 + 3.0 * x2)
        rhs = 2.0 * (m @ x1) + 3.0 * (m @ x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_det_is_characteristic_polynomial_without_delay(self):
        eigs = np.array([-1.0, -2.5, -4.0])
        model = dl.SystemModel(dl.diagonal_operator(eigs), empty_functional(), 2.0)
        for lam in (0.0, 1.0 + 1.0j, -2.0 + 0.3j):
            expected = np.prod(lam - eigs)
            assert dl.char_det(model, lam) == pytest.approx(expected, rel=1e-12)

    def test_det_scalar_at_origin(self):
        model = dl.scalar_dde(-1.5, 0.6)
        assert dl.char_det(model, 0.0) == pytest.approx(1.5 - 0.6, abs=1e-14)

    def test_det_conjugate_symmetry(self):
        model = dl.scalar_dde(-0.5, -0.9)
        lam = 0.4 + 1.3j
        assert dl.char_det(model, np.conj(lam)) == pytest.approx(
            np.conj(dl.char_det(model, lam)), rel=1e-12
        )


def log_det_models():
    """Scalar symbols (Cantor kernel at n = 15, a non-normal triangular A),
    a matrix symbol (non-commuting 2 x 2 delays) and a scalar symbol
    stored as a matrix (0.9 Id at n = 7)."""
    yield dl.reaction_diffusion_scenario(15, 0.5 * abs(dl.dirichlet_lambda1(15)))
    a = np.array([[-1.0, 2.0, -0.5], [0.0, -2.0, 3.0], [0.0, 0.0, -0.5]])
    yield dl.SystemModel(dl.SpatialOperator(a), dl.CantorKernel(0.7), 2.0)
    b = np.array([[[0.0, 0.6], [0.0, 0.0]], [[0.0, 0.0], [-0.4, 0.3]]])
    a = np.array([[-1.0, 0.5], [0.2, -2.0]])
    yield dl.SystemModel(dl.SpatialOperator(a), dl.DiscreteDelays(b, np.array([-1.0, -0.3337])), 2.0)
    yield dl.SystemModel(dl.laplacian_dirichlet_1d(7), dl.single_delay(0.9 * np.eye(7), -1.0), 2.0)


class TestLogDet:
    LAMS = np.array([0.3 + 0.5j, -0.7 + 2.1j, 1.2 - 0.4j, -2.5 + 0.1j])

    @pytest.mark.parametrize(
        "model", list(log_det_models()), ids=["cantor_n15", "triangular", "delays", "scaled_identity"]
    )
    def test_matches_slogdet_and_difference_of_char_det(self, model):
        L, D = _log_det(model, self.LAMS)
        np.testing.assert_allclose(L, np.linalg.slogdet(_char_matrix_stack(model, self.LAMS))[1], rtol=1e-10)
        # fourth-order central difference of the LU determinant; h balances
        # the O(h^4) truncation against the LU rounding divided by h
        h = 2e-3
        det = np.vectorize(lambda z: dl.char_det(model, z))
        diff = (det(self.LAMS - 2 * h) - 8 * det(self.LAMS - h) + 8 * det(self.LAMS + h) - det(self.LAMS + 2 * h)) / (12 * h)
        np.testing.assert_allclose(D, diff / det(self.LAMS), rtol=1e-10)


class TestFindRoots:
    def test_recovers_eigenvalues_without_delay(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        report = dl.find_roots(model, dl.Region(-4.0, 0.5, 2.0))
        assert len(report.roots) == 2
        assert abs(report.roots[0] - (-1.0)) < 1e-8
        assert abs(report.roots[1] - (-3.0)) < 1e-8
        assert report.rightmost == report.roots[0]

    def test_purely_imaginary_pair(self):
        model = dl.scalar_dde(0.0, -np.pi / 2.0)
        report = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0))
        got = sorted(report.roots, key=lambda z: z.imag)
        assert len(got) == 2
        assert abs(got[0] - (-1j * np.pi / 2.0)) < 1e-6
        assert abs(got[1] - (1j * np.pi / 2.0)) < 1e-6

    def test_count_matches_argument_principle(self):
        model = dl.scalar_dde(0.0, -np.pi / 2.0)
        for region in (dl.Region(-1.0, 1.0, 4.0), dl.Region(-1.0, 1.0, 7.5), dl.Region(-3.0, 1.0, 9.0)):
            report = dl.find_roots(model, region)
            assert len(report.roots) == dl.count_roots_argument_principle(model, region)

    def test_count_where_det_overflows(self):
        # at n = 100 det(lam - A - c g(lam)) overflows on this contour; the
        # one root inside is -1.0337, the second mode's real root -3.0059
        # lies just left of it
        model = dl.reaction_diffusion_scenario(100, 0.5 * abs(dl.dirichlet_lambda1(100)))
        assert dl.count_roots_argument_principle(model, dl.Region(-3.0, 1.0, 2.0)) == 1

    def test_root_on_contour_is_reported(self):
        # the left edge samples lam = -1, an eigenvalue of A, exactly
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        with pytest.raises(dl.NoResultError, match="not finite"):
            dl.count_roots_argument_principle(model, dl.Region(-1.0, 0.5, 2.0))

    @pytest.mark.parametrize("n", [120, 300])
    def test_large_n_matches_per_mode_root(self, n):
        c = 0.5 * abs(dl.dirichlet_lambda1(n))
        model = dl.reaction_diffusion_scenario(n, c)
        region = dl.Region(-3.0, 1.0, 2.0)
        report = dl.find_roots(model, region)
        assert abs(report.rightmost - dl.rd_rightmost_root(n, c)) <= 1e-9
        assert len(report.roots) == dl.count_roots_argument_principle(model, region)

    def test_exact_zero_on_seed_grid(self):
        # the seed grid holds lam = -1 and lam = -3 exactly: residual 0
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        report = dl.find_roots(model, dl.Region(-4.0, 0.5, 2.0))
        assert report.roots == [-1.0, -3.0]
        assert report.residuals == [0.0, 0.0]

    def test_roots_come_in_conjugate_pairs(self):
        rng = np.random.default_rng(12)
        b = rng.standard_normal((3, 3)) * 0.4
        model = dl.SystemModel(
            dl.SpatialOperator(np.diag([-0.5, -1.0, -2.0])), dl.single_delay(b, -1.0), 2.0
        )
        report = dl.find_roots(model, dl.Region(-3.0, 1.0, 6.0))
        assert report.roots
        for z in report.roots:
            assert any(abs(np.conj(z) - w) < 1e-6 for w in report.roots)

    def test_residuals_below_tolerance(self):
        model = dl.scalar_dde(0.0, -np.pi / 2.0)
        report = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0))
        assert all(r <= 1e-9 for r in report.residuals)

    def test_budget_guard(self):
        model = dl.scalar_dde(0.0, -1.0)
        with pytest.raises(dl.BudgetError):
            dl.find_roots(model, dl.Region(-100.0, 100.0, 100.0), spacing=0.01)

    @pytest.mark.parametrize(
        "name,path", [("scalar", "factored"), ("delays", "slogdet"), ("scaled_identity", "factored")]
    )
    def test_debug_line_names_log_det_path(self, caplog, name, path):
        if name == "scalar":
            model = load_scenario(SCENARIOS / "scalar_single_delay.json").model
        elif name == "delays":
            model = list(log_det_models())[2]  # non-commuting 2 x 2 delays
        else:
            model = list(log_det_models())[3]  # 0.9 Id stored as a 7 x 7 matrix
        with caplog.at_level("DEBUG", logger="delaylab.spectral"):
            report = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_roots:")]
        assert len(lines) == 1
        assert lines[0].startswith(f"find_roots: {path} log det, grid 41 x 161, seeds ")
        assert lines[0].endswith(f", roots {len(report.roots)}")


class TestResolvent:
    def test_zero_history_gives_pure_exponential(self):
        model = dl.scalar_dde(-2.0, 0.5)
        g = HistoryGrid.constant([0.0], 64, 2.0)
        lam = 1.0 + 0.7j
        out = dl.resolvent_apply(model, lam, np.array([1.0]), g)
        expected = np.exp(lam * g.nodes)[:, None] * out.head
        np.testing.assert_allclose(out.history.samples, expected, atol=1e-14)

    def test_eigenvector_without_delay(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        g = HistoryGrid.constant([0.0, 0.0], 64, 2.0)
        lam = 0.5
        y = np.array([1.0, 0.0])
        out = dl.resolvent_apply(model, lam, y, g)
        np.testing.assert_allclose(out.head, y / (lam + 1.0), atol=1e-13)

    def test_forward_defect_small_away_from_spectrum(self):
        model = dl.SystemModel(dl.scalar_operator(-2.0), dl.CantorKernel(0.5), 2.0)
        g = smooth_history(256, 1, seed=5)
        rng = np.random.default_rng(6)
        roots = dl.find_roots(model, dl.Region(-4.0, 2.5, 6.0)).roots
        checked = 0
        while checked < 5:
            lam = complex(rng.uniform(-1.0, 2.0), rng.uniform(-2.0, 2.0))
            if roots and min(abs(lam - z) for z in roots) < 0.5:
                continue
            y = rng.standard_normal(1) + 1j * rng.standard_normal(1)
            state = dl.resolvent_apply(model, lam, y, g)
            assert dl.resolvent_defect(model, lam, y, g, state) <= 1e-6
            checked += 1

    def test_guard_trips_at_a_root(self):
        model = dl.scalar_dde(0.0, -np.pi / 2.0)
        root = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0)).rightmost
        g = HistoryGrid.constant([0.0], 32, 2.0)
        with pytest.raises(dl.NearSpectrumError):
            dl.resolvent_apply(model, root, np.array([1.0]), g)

    def test_dimension_mismatch(self):
        model = dl.scalar_dde(-1.0, 0.2)
        with pytest.raises(ValueError):
            dl.resolvent_apply(model, 1.0, np.array([1.0, 2.0]), HistoryGrid.constant([0.0], 16, 2.0))

    @pytest.mark.parametrize("m", [3, 4, 64, 256])
    def test_shift_resolvent_matches_right_to_left_loop(self, m):
        g = smooth_history(m, 2, seed=m)
        for lam in (0.0, 1.0 + 0.7j, -2.5 + 4.0j, 3.0):
            got = dl.shift_resolvent_history(lam, g)
            want = reference_shift_resolvent_history(lam, g)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("m", [3, 8])
    def test_shift_resolvent_exact_on_cubics(self, m):
        # at lam = 0 the cubic stencils integrate a cubic history exactly:
        # out_l = integral of g over [sigma_l, 0]
        coeffs = np.array([0.7, -1.2, 0.4, 2.1])
        g = HistoryGrid.from_function(lambda s: np.polyval(coeffs, s), m)
        antiderivative = np.polyint(coeffs)
        want = np.polyval(antiderivative, 0.0) - np.polyval(antiderivative, g.nodes)
        got = dl.shift_resolvent_history(0.0, g)[:, 0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_shift_resolvent_needs_four_nodes(self):
        with pytest.raises(dl.PreconditionError, match="m >= 3"):
            dl.shift_resolvent_history(0.5, HistoryGrid.constant([1.0], 2, 2.0))


GRID_FUNCTIONALS = {
    "discrete": dl.DiscreteDelays(
        np.array([[[0.4, -0.6], [0.3, 0.2]], [[0.2, 0.15], [-0.3, 0.1]]]), np.array([-0.3337, 0.0])
    ),
    "cantor": dl.CantorKernel(0.7),
    # a kernel on its own m = 40 grid, read from m = 64 histories
    "density": dl.DensityKernel(
        np.array([[[np.cos(3.0 * s), 0.2], [-0.4 * s, 0.3]] for s in -1.0 + np.arange(41) / 40])
    ),
    "empty": empty_functional(),
}


class TestGridPaths:
    """The grid characteristic matrix of ``resolvent_apply`` and the node
    matrices of ``miyadera_estimate`` are assembled from the atoms, apart
    from ``apply``; both must reproduce it on the history grid."""

    @pytest.mark.parametrize("name", list(GRID_FUNCTIONALS))
    def test_grid_char_matrix_matches_apply(self, name):
        from delaylab.functional import _as_matrices, _transform

        phi, m = GRID_FUNCTIONALS[name], 64
        x = np.array([0.8, -1.3])
        nodes = -1.0 + np.arange(m + 1) / m
        for lam in (0.3 + 1.7j, -1.2 - 0.4j, 2.0):
            got = _as_matrices(_transform(phi, [lam], m), 2)[0] @ x
            want = dl.apply(phi, HistoryGrid(np.exp(lam * nodes)[:, None] * x, 2.0))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", list(GRID_FUNCTIONALS))
    def test_node_matrices_match_apply(self, name):
        from delaylab.spectral import _grid_node_matrices

        phi, m = GRID_FUNCTIONALS[name], 64
        node_mats = _grid_node_matrices(phi, m, 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            f = HistoryGrid(rng.standard_normal((m + 1, 2)), 2.0)
            got = np.einsum("lij,lj->i", node_mats, f.samples)
            np.testing.assert_allclose(got, dl.apply(phi, f), rtol=0.0, atol=1e-12)


_ROTATION_373 = np.array([[-0.01, 3.73], [-3.73, -0.01]])


def _double_pair_matrix():
    """Q kron(I_2, R) Q^T with R the 3.73 rotation block and Q a random
    orthogonal matrix: normal, with the pair -0.01 +- 3.73i twice."""
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
    return q @ np.kron(np.eye(2), _ROTATION_373) @ q.T


class TestStabilityCriterion:
    def test_no_delay_certificate_and_root_estimate(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        report, _ = dl.stability_criterion(model, -0.1, dl.FrequencyGrid(50.0, 1001), horizon=15.0)
        assert report.lhs == 0.0
        assert report.criterion_holds
        assert report.s0_estimate == pytest.approx(-1.0, abs=1e-6)
        assert abs(report.omega0_estimate - report.s0_estimate) <= 0.05
        assert report.a_normal

    def test_diffusion_with_small_cantor_delay_certified(self):
        n = 15
        model = dl.reaction_diffusion_scenario(n, 0.5 * abs(dl.dirichlet_lambda1(n)))
        profile = dl.criterion_profile(model, 0.0, dl.FrequencyGrid(200.0, 4001))
        assert profile.holds
        assert profile.lhs == pytest.approx(0.5 * abs(dl.dirichlet_lambda1(n)), rel=1e-9)

    def test_normal_operator_resolvent_identity(self):
        n = 15
        model = dl.reaction_diffusion_scenario(n, 0.0)
        profile = dl.criterion_profile(model, 0.0, dl.FrequencyGrid(200.0, 4001))
        lam1 = abs(dl.dirichlet_lambda1(n))
        assert profile.resolvent_norms.max() == pytest.approx(1.0 / lam1, rel=0.01)
        assert profile.rhs == pytest.approx(lam1, rel=0.01)

    def test_certificate_implies_no_roots_right_of_line(self):
        rng = np.random.default_rng(0)
        n = 6
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = -rng.uniform(0.5, 6.0, n)
        a = dl.SpatialOperator(q @ np.diag(eigs) @ q.T, eigenvalues=np.sort(eigs).astype(complex))
        b = rng.standard_normal((n, n))
        b *= 0.4 * np.abs(eigs).min() / np.linalg.norm(b, 2)
        model = dl.SystemModel(a, dl.single_delay(b, -1.0), 2.0)
        profile = dl.criterion_profile(model, 0.0, dl.FrequencyGrid(200.0, 4001))
        assert profile.holds
        report = dl.find_roots(model, dl.Region(0.0, 5.0, 50.0), spacing=0.1)
        assert all(z.real < 0.0 for z in report.roots)

    @pytest.mark.parametrize("name", ["rd_n15", "rotation"])
    def test_distance_to_spectrum_matches_svd(self, name):
        # normal A: sigma_min(lam - A) = min_k |lam - mu_k|
        if name == "rd_n15":
            model, alpha = dl.reaction_diffusion_scenario(15, 4.9), 0.0
        else:
            # rotation blocks whose eigenvalues sit between grid samples
            a = np.zeros((4, 4))
            a[:2, :2] = [[-0.3, 2.03], [-2.03, -0.3]]
            a[2:, 2:] = [[-0.7, 0.93], [-0.93, -0.7]]
            model, alpha = dl.SystemModel(dl.SpatialOperator(a), dl.CantorKernel(0.1)), -0.1
        grid = dl.FrequencyGrid(50.0, 1001)
        profile = dl.criterion_profile(model, alpha, grid)
        lams = alpha + 1j * grid.samples
        svd = np.linalg.svd(lams[:, None, None] * np.eye(model.n) - model.A.matrix, compute_uv=False)[:, -1]
        np.testing.assert_allclose(1.0 / profile.resolvent_norms, svd, rtol=1e-12, atol=0)
        # the exact infimum along the line is attained at omega = Im mu_k
        mu = model.A.spectrum()
        k = np.argmin(np.abs(mu.real - alpha))
        at_min = np.linalg.svd((alpha + 1j * mu[k].imag) * np.eye(model.n) - model.A.matrix, compute_uv=False)[-1]
        assert profile.rhs == pytest.approx(at_min, rel=1e-12)
        assert profile.rhs <= svd.min() * (1.0 + 1e-12)
        if name == "rotation":
            assert profile.rhs < svd.min() - 1e-3

    @pytest.mark.parametrize("name", ["rotation", "double_pair"])
    def test_normal_operator_minimum_between_grid_samples(self, name):
        # the minimum of sigma_min(i omega - A) is 0.01 at omega = 3.73,
        # between the default grid samples 3.7 and 3.8 (which read 0.0316);
        # "double_pair" repeats the eigenvalue pair, where the eig basis
        # of the double eigenspaces is not orthonormal
        a = dl.SpatialOperator(_double_pair_matrix() if name == "double_pair" else _ROTATION_373)
        model = dl.SystemModel(a, dl.single_delay(-0.015 * np.eye(a.n), -1.0))
        report, _ = dl.stability_criterion(model, 0.0)
        assert report.a_normal
        assert report.rhs == pytest.approx(0.01, rel=1e-12)
        assert report.lhs == pytest.approx(0.015, rel=1e-12)
        assert not report.criterion_holds
        assert report.s0_estimate > 0.0

    @pytest.mark.parametrize("seed", [39, 55, 61])
    def test_decay_fit_on_second_half_matches_rightmost_root(self, seed):
        # on [2, 20] these states still carry the transient of the roots
        # left of the rightmost one: the fit missed it by 0.056-0.076
        model = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json").model
        report, _ = dl.stability_criterion(model, 0.0, seed=seed, state_m=64)
        assert abs(report.omega0_estimate - report.s0_estimate) <= 0.05

    def test_line_on_eigenvalue_rejected(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        with pytest.raises(dl.PreconditionError):
            dl.criterion_profile(model, -1.0, dl.FrequencyGrid(10.0, 101))

    def test_positive_alpha_rejected(self):
        model = dl.scalar_dde(-1.0, 0.1)
        with pytest.raises(dl.PreconditionError):
            dl.criterion_profile(model, 0.5, dl.FrequencyGrid(10.0, 101))


class TestPerturbedResolventBound:
    def test_trivial_zero_perturbation(self):
        model = dl.SystemModel(dl.diagonal_operator([-2.0, -1.0]), empty_functional(), 2.0)
        assert perturbed_resolvent_bound_check(model, 1.0 + 1.0j, 0.5)

    def test_scalar_samples_against_direct_inequality(self):
        rng = np.random.default_rng(21)
        a, delta = -2.0, 0.4
        for _ in range(20):
            lam = complex(rng.uniform(-1.0, 2.0), rng.uniform(-2.0, 2.0))
            margin = (1.0 - delta) * abs(lam - a)
            b = rng.uniform(-1.0, 1.0) * margin * np.exp(lam.real)  # |b e^(-lam)| <= margin
            phi = dl.single_delay(np.array([[b]]), -1.0)
            model = dl.SystemModel(dl.scalar_operator(a), phi, 2.0)
            assert perturbed_resolvent_bound_check(model, lam, delta)
            direct = abs(1.0 / (lam - a - b * np.exp(-lam))) <= (1.0 / delta) * abs(1.0 / (lam - a))
            assert direct

    def test_random_normal_matrix(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = dl.SpatialOperator(q @ np.diag([-1.0, -2.0, -3.0, -4.0]) @ q.T)
        lam, delta = 1.0, 0.5
        b = rng.standard_normal((4, 4))
        b *= 0.9 * (1.0 - delta) * a.min_singular(lam) / np.linalg.norm(b, 2)
        model = dl.SystemModel(a, dl.single_delay(b, 0.0), 2.0)
        assert perturbed_resolvent_bound_check(model, lam, delta)

    def test_oversized_perturbation_rejected_distinctly(self):
        model = dl.scalar_dde(-1.0, 5.0)
        with pytest.raises(dl.PreconditionError):
            perturbed_resolvent_bound_check(model, 0.5, 0.9)


_NON_NORMAL_2X2 = np.array([[-0.5, 0.3], [0.2, -0.8]])

# model and the basis that miyadera_estimate reads A in
MIYADERA_MODELS = {
    "discrete": lambda: (
        dl.SystemModel(
            dl.SpatialOperator(_NON_NORMAL_2X2),
            dl.DiscreteDelays(
                np.array([[[0.4, -0.6], [0.3, 0.2]], [[0.2, 0.15], [-0.3, 0.1]]]), np.array([-0.31, -1.0])
            ),
            2.0,
        ),
        "eigenbasis",
    ),
    "cantor": lambda: (dl.SystemModel(dl.SpatialOperator(_NON_NORMAL_2X2), dl.CantorKernel(0.9), 3.0), "eigenbasis"),
    "density": lambda: (
        dl.SystemModel(
            dl.SpatialOperator(_NON_NORMAL_2X2),
            dl.DensityKernel(
                np.array([[[np.cos(3.0 * s), 0.2], [-0.4 * s, 0.3]] for s in -1.0 + np.arange(41) / 40])
            ),
            1.0,
        ),
        "eigenbasis",
    ),
    "laplacian_cantor": lambda: (dl.SystemModel(dl.laplacian_dirichlet_1d(7), dl.CantorKernel(0.9), 2.0), "modal"),
    # 0.7 Id stored as a matrix: the matrix-weight path in the modes of A
    "rotation_delay": lambda: (
        dl.SystemModel(dl.SpatialOperator([[-0.3, 2.0], [-2.0, -0.3]]), dl.single_delay(0.7 * np.eye(2), -0.4), 2.0),
        "modal",
    ),
    "scalar_n1": lambda: (dl.scalar_dde(-0.6, 0.8), "modal"),
    # a Jordan block has no usable eigenbasis
    "jordan_cantor": lambda: (
        dl.SystemModel(dl.SpatialOperator([[-1.0, 1.0], [0.0, -1.0]]), dl.CantorKernel(0.5), 2.0),
        "expm",
    ),
}


class TestMiyaderaEstimate:
    def test_zero_functional_gives_zero(self):
        model = dl.SystemModel(dl.scalar_operator(-1.0), empty_functional(), 2.0)
        q_emp, q_bound = dl.miyadera_estimate(model, 0.25, samples=10)
        assert q_emp == 0.0
        assert q_bound == 0.0

    def test_single_delay_holder_bound_per_sample(self):
        b = 0.8
        model = dl.SystemModel(dl.scalar_operator(-1.0), dl.single_delay(np.array([[b]]), -1.0), 2.0)
        t0, r_nodes, m = 0.4, 129, 64
        rng = np.random.default_rng(13)
        rs = np.linspace(0.0, t0, r_nodes)
        w = np.full(r_nodes, rs[1] - rs[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        for _ in range(30):
            state = dl.random_compatible_state(1, m, 2.0, rng)
            vals = [
                np.linalg.norm(
                    dl.apply(
                        model.phi,
                        dl.history_injection(r, state.head, model.A, m=m)
                        + dl.nilpotent_shift(r, state.history),
                    )
                )
                for r in rs
            ]
            integral = float(w @ vals)
            holder = t0**0.5 * b * dl.lp_norm(state.history)
            assert integral <= holder + 1e-6

    def test_cantor_kernel_dominated_by_bound(self):
        model = dl.SystemModel(dl.scalar_operator(-1.0), dl.CantorKernel(0.9), 2.0)
        q_emp, q_bound = dl.miyadera_estimate(model, 0.25, samples=50)
        assert q_emp <= q_bound + 1e-8

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_conjugate_exponent_outside_hilbert_case(self, p):
        model = dl.SystemModel(dl.scalar_operator(-1.0), dl.CantorKernel(0.8), p)
        bounds = {}
        for t0 in (0.25, 0.5):
            q_emp, q_bound = dl.miyadera_estimate(model, t0, samples=60, seed=3)
            assert q_emp <= q_bound
            bounds[t0] = q_bound
        # the bound scales like t0^(1/p'); for p = 1 it is t0-independent
        assert bounds[0.5] / bounds[0.25] == pytest.approx(2.0 ** (1.0 - 1.0 / p), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MIYADERA_MODELS))
    def test_matches_per_state_loop(self, name, caplog):
        model, basis = MIYADERA_MODELS[name]()
        with caplog.at_level(logging.DEBUG, logger="delaylab.spectral"):
            got = dl.miyadera_estimate(model, 0.25, samples=20, seed=3)
        assert f"{basis} basis" in caplog.text
        want = reference_miyadera_estimate(model, 0.25, samples=20, seed=3)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)

    @pytest.mark.parametrize("name", ["laplacian_cantor", "discrete"])
    def test_chunks_give_the_same_estimate(self, name, monkeypatch):
        model = MIYADERA_MODELS[name]()[0]
        whole = dl.miyadera_estimate(model, 0.25, samples=20, seed=3)
        # 7 states per chunk, then one state per chunk
        for entries in (7 * 65 * model.n, 1):
            monkeypatch.setattr("delaylab.spectral._MOVED_ENTRIES", entries)
            assert dl.miyadera_estimate(model, 0.25, samples=20, seed=3) == whole

    def test_logs_basis_and_chunks(self, caplog):
        model = MIYADERA_MODELS["laplacian_cantor"]()[0]
        with caplog.at_level(logging.DEBUG, logger="delaylab.spectral"):
            dl.miyadera_estimate(model, 0.25, samples=400, state_m=32)
        # 100_000 // (65 nodes x n = 7) = 219 states per chunk
        assert caplog.messages == [
            "miyadera_estimate: modal basis, samples = 400, r_nodes = 65, m = 32, chunks = 2"
        ]

    def test_rejects_bad_window(self):
        model = dl.scalar_dde(-1.0, 0.1)
        for t0 in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(dl.PreconditionError):
                dl.miyadera_estimate(model, t0, samples=1)
        for sizes in ({"r_nodes": 1}, {"r_nodes": 0}, {"state_m": 1}):
            with pytest.raises(dl.PreconditionError):
                dl.miyadera_estimate(model, 0.25, samples=1, **sizes)


class TestDecayRate:
    def test_exact_exponential(self):
        dt = 1e-3
        ts = -1.0 + np.arange(int(4.0 / dt) + 1) * dt
        traj = dl.Trajectory(np.exp(-ts)[:, None], dt, m=100, p=2.0)
        assert dl.decay_rate(traj, (1.0, 3.0)) == pytest.approx(-1.0, abs=1e-6)

    def test_dominant_mode_wins(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        init = DelayState(np.array([1.0, 1.0]), HistoryGrid.constant([1.0, 1.0], 100, 2.0))
        traj = dl.solve_steps(model, init, 15.0, 1e-3)
        assert dl.decay_rate(traj, (5.0, 15.0)) == pytest.approx(-1.0, abs=0.02)

    @pytest.mark.parametrize("name", ["scalar_single_delay", "reaction_diffusion_cantor"])
    def test_matches_per_sample_loop(self, name):
        scenario = load_scenario(SCENARIOS / f"{name}.json")
        traj = dl.solve_steps(scenario.model, scenario.initial, scenario.run.T, scenario.run.dt)
        window = (traj.t_end / 2.0, traj.t_end)
        want = reference_decay_rate(traj, window)
        assert dl.decay_rate(traj, window) == pytest.approx(want, rel=1e-12, abs=0)

    def test_rejects_zero_window(self):
        traj = dl.Trajectory(np.zeros((3001, 1)), 1e-3, m=50, p=2.0)
        with pytest.raises(dl.PreconditionError):
            dl.decay_rate(traj, (0.5, 1.5))


class TestRandomCompatibleState:
    @pytest.mark.parametrize("n,m,p", [(1, 100, 2.0), (4, 100, 2.0), (15, 64, 2.0), (31, 64, 3.0)])
    def test_batch_equals_sequential_draws(self, n, m, p):
        from delaylab.spectral import _random_compatible_states

        heads, histories = _random_compatible_states(200, n, m, p, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        want = [reference_random_compatible_state(n, m, p, rng) for _ in range(200)]
        assert np.array_equal(heads, [s.head for s in want])
        assert np.array_equal(histories, [s.history.samples for s in want])
        one = dl.random_compatible_state(n, m, p, np.random.default_rng(9))
        assert np.array_equal(one.head, want[0].head)
        assert np.array_equal(one.history.samples, want[0].history.samples)

    def test_unit_norm_and_compatibility(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = dl.random_compatible_state(3, 64, 2.0, rng)
            assert dl.state_norm(s) == pytest.approx(1.0, abs=1e-12)
            assert s.compat_defect() <= 1e-12
