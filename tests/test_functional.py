import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delaylab as dl
from delaylab import CantorKernel, DensityKernel, DiscreteDelays, HistoryGrid, history
from delaylab.functional import _atoms, _cantor_product, _delay_stencil, cantor_grid_weights
from delaylab.scenarios import _cantor_coupling
from models import CANTOR_POINTS
from reference_loops import cantor_transform_recursive, reference_cantor_derivative, reference_cantor_transform


def cantor_product(lams, derivative=False):
    """``_cantor_product`` on the real and imaginary parts of lams."""
    return _cantor_product(np.real(lams), np.imag(lams), derivative)


def _cantor_accuracy_sets():
    """Arguments of the product's accuracy checks: a sample of the seed
    grid of ``stability`` at alpha = 0, the imaginary axis, the real axis
    and a disk of radius 700."""
    rng = np.random.default_rng(14)
    seeds = np.linspace(-12.0, 5.0, 171)[:, None] + 1j * np.linspace(-20.0, 20.0, 401)[None, :]
    radius, angle = 700.0 * np.sqrt(rng.uniform(0.0, 1.0, 200)), rng.uniform(0.0, 2.0 * np.pi, 200)
    return {
        "stability_seeds": rng.choice(seeds.ravel(), 200, replace=False),
        "imaginary_axis": 1j * np.linspace(-50.0, 50.0, 201),
        "real_axis": np.linspace(-60.0, 5.0, 131).astype(complex),
        "disk_700": radius * np.exp(1j * angle),
    }


def _mpmath_cantor(lam):
    """g^ and g^' by the product over 80 levels in 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam = mpmath.mpc(lam)
        prod, log_slope = mpmath.mpf(1), mpmath.mpf(-0.5)
        for k in range(1, 80):
            prod *= mpmath.cosh(lam / 3**k)
            log_slope += mpmath.tanh(lam / 3**k) / 3**k
        value = mpmath.exp(-lam / 2) * prod
        return complex(value), complex(value * log_slope)


def _cantor_errors(got, want, lams):
    """|got - want| in units of g^(Re lam) for values and |g^'(Re lam)| for
    derivatives: the integrals of |e^(lam sigma)| and |sigma e^(lam sigma)|
    against the measure, which bound |g^| and |g^'| and equal them on the
    real axis.  A plain relative error is unbounded near the zeros of g^ on
    the imaginary axis, for any rounding of lam / 3^k."""
    scale = [np.abs(reference_cantor_transform(lams.real)), np.abs(reference_cantor_derivative(lams.real))]
    return [np.abs(g - w) / s for g, w, s in zip(got, want, scale)]


def empty_functional():
    return DiscreteDelays(np.zeros((0, 0, 0)), np.zeros(0))


def smooth_history(m=64, n=2, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((4, n))
    sigma = -1.0 + np.arange(m + 1) / m
    powers = sigma[:, None] ** np.arange(4)[None, :]
    return HistoryGrid(powers @ coeffs, 2.0)


class TestConstruction:
    def test_rejects_delay_outside_interval(self):
        with pytest.raises(ValueError):
            DiscreteDelays(np.eye(2)[None], np.array([-1.5]))
        with pytest.raises(ValueError):
            DiscreteDelays(np.eye(2)[None], np.array([0.1]))

    def test_rejects_non_finite_entries(self):
        nodes = -1.0 + np.arange(17) / 16
        with pytest.raises(ValueError):
            DiscreteDelays(np.eye(2)[None], np.array([np.nan]))
        with pytest.raises(ValueError):
            DiscreteDelays(np.array([[[np.inf]]]), np.array([-1.0]))
        with pytest.raises(ValueError):
            CantorKernel(np.nan)
        with pytest.raises(ValueError):
            DensityKernel(np.where(nodes > -0.5, np.inf, nodes)[:, None, None] * np.ones((1, 1)))

    def test_discrete_delays_reject_complex_matrices(self):
        # a cast would keep the real part 1 and drop the imaginary 2
        with pytest.raises(ValueError, match="must be real"):
            DiscreteDelays(np.array([[[1.0 + 2.0j]]]), np.array([-1.0]))
        with pytest.raises(ValueError, match="must be real"):
            dl.single_delay(np.array([[1.0 + 2.0j]]), -1.0)

    def test_density_kernel_rejects_complex_samples(self):
        with pytest.raises(ValueError, match="must be real"):
            DensityKernel(np.full((5, 1, 1), 1.0 + 2.0j))

    def test_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            CantorKernel(1.0, 0)
        with pytest.raises(ValueError):
            CantorKernel(1.0, 41)

    def test_caller_arrays_cannot_change_the_functional(self):
        mats, delays = np.array([[[0.5, 0.1], [0.0, -0.3]]]), np.array([-0.5])
        samples = np.ones((5, 2, 2))
        phis = [DiscreteDelays(mats, delays), dl.single_delay(mats[0], -0.5), DensityKernel(samples)]
        mats *= 2.0
        delays[0] = -1.0
        samples[0] = 7.0
        for phi in phis[:2]:
            np.testing.assert_array_equal(phi.matrices, [[[0.5, 0.1], [0.0, -0.3]]])
            np.testing.assert_array_equal(phi.delays, [-0.5])
        np.testing.assert_array_equal(phis[2].samples, np.ones((5, 2, 2)))
        for arr in (phis[0].matrices, phis[0].delays, phis[1].matrices, phis[2].samples):
            with pytest.raises(ValueError):
                arr[0] *= 2.0

    def test_total_variation_by_variant(self):
        b1, b2 = 2.0 * np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])
        phi = DiscreteDelays(np.stack([b1, b2]), np.array([-1.0, -0.5]))
        assert dl.total_variation(phi) == pytest.approx(3.0, abs=1e-12)
        assert dl.total_variation(CantorKernel(-0.7)) == pytest.approx(0.7)
        nodes = -1.0 + np.arange(65) / 64
        kernel = DensityKernel(np.exp(nodes)[:, None, None] * np.eye(1))
        assert dl.total_variation(kernel) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-4)


class TestApply:
    def test_single_delay_point_evaluation(self):
        phi = dl.single_delay(np.eye(2), -1.0)
        v = np.array([0.7, -1.2])
        f = HistoryGrid.constant(v, 32, 2.0)
        np.testing.assert_allclose(dl.apply(phi, f), v, atol=1e-15)

    def test_cantor_constant_history(self):
        phi = CantorKernel(0.6)
        v = np.array([2.0, 1.0])
        f = HistoryGrid.constant(v, 64, 2.0)
        np.testing.assert_allclose(dl.apply(phi, f), 0.6 * v, atol=1e-12)

    def test_cantor_exponential_matches_transform(self):
        # fine grid so interpolation error sits below the 1e-10 target
        m = 2**18
        f = HistoryGrid(np.exp(2.0 * (-1.0 + np.arange(m + 1) / m))[:, None], 2.0)
        got = dl.apply(CantorKernel(1.0, depth=30), f)[0]
        assert abs(got - dl.cantor_transform(2.0).real) < 1e-10

    def test_density_kernel_quadrature(self):
        nodes = -1.0 + np.arange(129) / 128
        kernel = DensityKernel(np.exp(nodes)[:, None, None] * np.eye(1))
        f = HistoryGrid(np.exp(nodes)[:, None], 2.0)
        expected = (1.0 - np.exp(-2.0)) / 2.0  # integral of e^(2 sigma)
        assert dl.apply(kernel, f)[0] == pytest.approx(expected, abs=1e-4)

    def test_dimension_mismatch(self):
        phi = dl.single_delay(np.eye(3), -0.5)
        with pytest.raises(ValueError):
            dl.apply(phi, HistoryGrid.constant([1.0, 2.0], 16, 2.0))

    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_linearity(self, a, b):
        f = smooth_history(seed=1)
        h = smooth_history(seed=2)
        for phi in (
            dl.single_delay(np.array([[0.3, -1.0], [0.2, 0.1]]), -0.37),
            CantorKernel(0.9),
        ):
            lhs = dl.apply(phi, a * f + b * h)
            rhs = a * dl.apply(phi, f) + b * dl.apply(phi, h)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_bounded_by_total_variation(self):
        f = smooth_history(seed=3)
        sup_f = np.linalg.norm(f.samples, axis=1).max()
        for phi in (
            DiscreteDelays(
                np.stack([0.5 * np.eye(2), np.array([[0.1, 0.4], [-0.3, 0.2]])]),
                np.array([-1.0, -0.25]),
            ),
            CantorKernel(1.3),
        ):
            bound = dl.total_variation(phi) * sup_f
            assert np.linalg.norm(dl.apply(phi, f)) <= bound + 1e-9


class TestAtoms:
    """Every atom carries a weight that is nonzero in some entry."""

    @pytest.mark.parametrize("m, count", [(64, 36), (100, 44), (256, 86)])
    def test_cantor_atoms_are_the_weighted_grid_nodes(self, m, count):
        offsets, weights, _ = _atoms(CantorKernel(0.8), m)
        grid = cantor_grid_weights(m, 24)
        assert len(offsets) == count and np.all(weights != 0.0)
        np.testing.assert_array_equal(offsets, (-1.0 + np.arange(m + 1) / m)[grid != 0.0])
        np.testing.assert_array_equal(weights, 0.8 * grid[grid != 0.0])

    def test_zero_delay_matrix_is_dropped(self):
        b, corner = np.array([[0.4, -0.6], [0.3, 0.2]]), np.array([[0.0, 1e-300], [0.0, 0.0]])
        phi = DiscreteDelays(np.stack([b, np.zeros((2, 2)), corner]), np.array([-1.0, -0.5, -0.3]))
        offsets, weights, _ = _atoms(phi)
        np.testing.assert_array_equal(offsets, [-1.0, -0.3])
        np.testing.assert_array_equal(weights, [b, corner])

    def test_density_nodes_where_samples_vanish_are_dropped(self):
        nodes = -1.0 + np.arange(17) / 16
        b = np.array([[0.5, 0.2], [-0.4, 0.3]])
        offsets, weights, _ = _atoms(DensityKernel(np.where(nodes < -0.5, 0.0, np.cos(nodes))[:, None, None] * b))
        np.testing.assert_array_equal(offsets, nodes[8:])
        assert weights.shape == (9, 2, 2) and np.all(np.any(weights != 0.0, axis=(1, 2)))

    def test_all_zero_functional_has_the_empty_atoms(self):
        offsets, weights, point_masses = _atoms(DiscreteDelays(np.zeros((2, 3, 3)), np.array([-1.0, -0.5])))
        empty = _atoms(empty_functional())
        assert offsets.shape == weights.shape == empty.weights.shape == (0,) and point_masses

    def test_rd_stencil_reads_only_weighted_lags(self):
        # 130 lags when the 29 zero-weight Cantor nodes are read too
        rd = dl.reaction_diffusion_scenario(15, 4.9)
        stages = [_delay_stencil(_atoms(rd.phi, 64), 1024, stage) for stage in (0.0, 1.0)]
        assert len(np.union1d(*(lags for lags, _ in stages))) == 72
        assert all(np.all(weights != 0.0) for _, weights in stages)


class TestCantorTransform:
    def test_unit_mass_at_zero(self):
        assert dl.cantor_transform(0.0) == 1.0

    def test_probability_transform_bounded_on_axis(self):
        omegas = np.arange(-100, 101, dtype=float)
        vals = np.abs(dl.cantor_transform(1j * omegas))
        assert np.all(vals <= 1.0 + 1e-14)

    @pytest.mark.parametrize("lam", CANTOR_POINTS)
    def test_product_formula_vs_recursive_subdivision(self, lam):
        assert abs(dl.cantor_transform(lam) - cantor_transform_recursive(lam, 30)) < 1e-10

    def test_grid_weights_have_unit_mass(self):
        w = dl.cantor_grid_weights(64, 24)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.all(w >= 0.0)

    def test_cached_grid_weights_are_read_only(self):
        w = dl.cantor_grid_weights(64, 24)
        with pytest.raises(ValueError):
            w *= 2.0
        assert dl.cantor_grid_weights(64, 24).sum() == pytest.approx(1.0, abs=1e-13)


class TestCantorProduct:
    @pytest.mark.parametrize("name", list(_cantor_accuracy_sets()))
    def test_matches_mpmath_and_reference_loops(self, name):
        lams = _cantor_accuracy_sets()[name]
        got = cantor_product(lams, derivative=True)
        exact = np.array([_mpmath_cantor(lam) for lam in lams]).T
        loops = reference_cantor_transform(lams), reference_cantor_derivative(lams)
        for err in _cantor_errors(got, exact, lams) + _cantor_errors(got, loops, lams):
            assert err.max() <= 1e-13
        # as accurate as the level-by-level loops: the errors of both are
        # mostly the rounding of lam / 3^k, about eps |lam| / 2, so their
        # maxima differ by a few percent either way
        for new, old in zip(_cantor_errors(got, exact, lams), _cantor_errors(loops, exact, lams)):
            assert new.max() <= 1.25 * old.max()

    def test_value_path_matches_derivative_path(self):
        lams = _cantor_accuracy_sets()["disk_700"]
        np.testing.assert_array_equal(cantor_product(lams), cantor_product(lams, derivative=True)[0])

    def test_exact_at_zero(self):
        for lam in (0.0, np.zeros(3)):
            value, slope = cantor_product(lam, derivative=True)
            assert np.all(value == 1.0) and np.all(slope == -0.5)
        assert dl.cantor_transform(np.zeros((2, 2))).shape == (2, 2)

    def test_non_finite_entries_stay_local(self):
        lams = np.array([1.0 + 1.0j, np.nan, -3.0, np.inf, 40.0j, complex(0.0, -np.inf)])
        with np.errstate(invalid="ignore", over="ignore"):
            value, slope = cantor_product(lams, derivative=True)
        assert np.isnan(value[1]) and np.isnan(slope[1])
        assert not np.isfinite(value[[3, 5]]).any()
        clean = cantor_product(lams[[0, 2, 4]], derivative=True)
        np.testing.assert_array_equal(value[[0, 2, 4]], clean[0])
        np.testing.assert_array_equal(slope[[0, 2, 4]], clean[1])

    def test_overflow_far_down_the_real_axis_is_capped(self):
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(cantor_product(-3000.0))
            assert not np.isfinite(reference_cantor_transform(-3000.0))
        assert _cantor_coupling(-3000.0) == (1e300, -1e300)

    def test_entry_independent_of_its_array(self):
        lams = _cantor_accuracy_sets()["stability_seeds"][:40]
        alone = np.array([cantor_product(lam, derivative=True) for lam in lams]).T
        with_large = cantor_product(np.append(lams, 700.0j), derivative=True)
        for err in _cantor_errors([part[:-1] for part in with_large], alone, lams):
            assert err.max() <= 1e-14

    @pytest.mark.parametrize("size", [1, 10**9])
    def test_every_entry_equals_its_value_alone(self, size, monkeypatch):
        # 0, 1e-9, moduli near 1 (where the level counts step) and up to 3e3 (past
        # overflow on the left), in every direction; 542 of these 600 entries
        # moved with the largest |lam| of their array while it set the counts
        rng = np.random.default_rng(26)
        radius = np.concatenate([[0.0, 1e-9], rng.uniform(0.9, 1.1, 98), 10.0 ** rng.uniform(-3.0, np.log10(3e3), 500)])
        lams = radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 600))
        with np.errstate(over="ignore", invalid="ignore"):
            value, slope = cantor_product(lams, derivative=True)
            whole = dl.cantor_transform(lams)
            monkeypatch.setattr(history, "_BATCH_ENTRIES", size)
            np.testing.assert_array_equal(cantor_product(lams, derivative=True), (value, slope))
            for k, lam in enumerate(lams):
                np.testing.assert_array_equal(cantor_product(lams[k : k + 1], derivative=True), ([value[k]], [slope[k]]))
                np.testing.assert_array_equal(dl.cantor_transform(lam), whole[k])
            # the grid of their real and imaginary parts holds each lam on its diagonal
            grid = _cantor_product(lams.real[:, None], lams.imag[None, :], derivative=True)
            np.testing.assert_array_equal(np.diagonal(grid[0]), value)
            np.testing.assert_array_equal(np.diagonal(grid[1]), slope)
            # complex scalars go through an array of one, real ones keep numpy's
            # scalar arithmetic, exact on the real axis
            for k, lam in enumerate(lams):
                np.testing.assert_array_equal(cantor_product(lam, derivative=True), (value[k], slope[k]))
            reals = cantor_product(lams.real, derivative=True)
            for k, lam in enumerate(lams.real):
                np.testing.assert_array_equal(cantor_product(lam, derivative=True), (reals[0][k], reals[1][k]))


class TestCharMatrix:
    def test_discrete_at_zero_sums_matrices(self):
        b1, b2 = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.5, 0.0], [1.0, -1.0]])
        phi = DiscreteDelays(np.stack([b1, b2]), np.array([-1.0, -0.3]))
        np.testing.assert_allclose(dl.char_matrix(phi, 0.0), b1 + b2, atol=1e-15)

    def test_cantor_at_zero_scales_identity(self):
        np.testing.assert_allclose(dl.char_matrix(CantorKernel(0.4), 0.0, dim=3), 0.4 * np.eye(3), atol=1e-15)

    def test_single_delay_closed_form(self):
        # the second input is a multiple of Id, whose atoms are scalars
        for b in (np.array([[0.2, -0.7], [1.1, 0.4]]), 0.9 * np.eye(3)):
            phi = dl.single_delay(b, -1.0)
            np.testing.assert_allclose(dl.char_matrix(phi, 1.0), b * np.exp(-1.0), atol=1e-14)

    def test_conjugate_symmetry_for_real_data(self):
        phi = dl.single_delay(np.array([[0.2, -0.7], [1.1, 0.4]]), -0.6)
        lam = 0.4 + 1.7j
        np.testing.assert_allclose(
            dl.char_matrix(phi, np.conj(lam)), np.conj(dl.char_matrix(phi, lam)), atol=1e-14
        )
        np.testing.assert_allclose(
            dl.char_matrix(CantorKernel(0.8), np.conj(lam), dim=1),
            np.conj(dl.char_matrix(CantorKernel(0.8), lam, dim=1)),
            atol=1e-14,
        )

    def test_density_matches_closed_form(self):
        nodes = -1.0 + np.arange(257) / 256
        kernel = DensityKernel(np.exp(nodes)[:, None, None] * np.eye(1))
        lam = 0.5
        expected = (1.0 - np.exp(-(1.0 + lam))) / (1.0 + lam)
        assert dl.char_matrix(kernel, lam)[0, 0] == pytest.approx(expected, abs=1e-5)

    def test_dimension_required_for_cantor(self):
        with pytest.raises(ValueError):
            dl.char_matrix(CantorKernel(1.0), 0.0)


class TestSupCharNorm:
    """The grid supremum of the characteristic norm, the ``lhs`` of
    ``criterion_profile``, and its cap e^(-alpha) TV, its
    ``lhs_analytic_bound``."""

    def test_zero_functional(self):
        grid = dl.FrequencyGrid(10.0, 101)
        assert dl.char_norm_profile(empty_functional(), 0.0, grid.samples).max() == 0.0
        assert dl.char_norm_profile(CantorKernel(0.0), 0.0, grid.samples).max() == 0.0

    def test_single_delay_modulus_is_frequency_independent(self):
        phi = dl.single_delay(0.7 * np.eye(2), -1.0)
        got = dl.char_norm_profile(phi, 0.0, dl.FrequencyGrid(30.0, 301).samples).max()
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_cantor_attains_maximum_at_zero_frequency(self):
        phi = CantorKernel(0.85)
        grid = dl.FrequencyGrid(50.0, 1001)
        profile = dl.char_norm_profile(phi, 0.0, grid.samples)
        assert profile.max() == pytest.approx(0.85, abs=1e-12)
        assert np.argmax(profile) == grid.count // 2

    def test_nonincreasing_in_alpha(self):
        grid = dl.FrequencyGrid(50.0, 501)
        for phi in (CantorKernel(0.85), dl.single_delay(np.array([[0.7]]), -1.0)):
            values = [dl.char_norm_profile(phi, a, grid.samples).max() for a in (-2.0, -1.0, -0.5, 0.0)]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_analytic_bound_dominates(self):
        grid = dl.FrequencyGrid(80.0, 801)
        phi = CantorKernel(1.2)
        for alpha in (-1.5, -0.5, 0.0):
            got = dl.char_norm_profile(phi, alpha, grid.samples).max()
            assert got <= np.exp(-alpha) * dl.total_variation(phi) + 1e-12
