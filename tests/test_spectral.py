import functools
import logging
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import delaylab as dl
from delaylab import DelayState, HistoryGrid
from delaylab.functional import _symbol
from delaylab.history import _lp_norms, interp_uniform
from delaylab.spectral import _char_matrix_stack, _log_det
from delaylab.scenario_io import load_scenario
from reference_loops import (
    _delay_term,
    char_det,
    perturbed_resolvent_bound_check,
    reference_count_roots_argument_principle,
    reference_decay_rate,
    reference_find_roots,
    reference_miyadera_estimate,
    reference_random_compatible_state,
    reference_shift_resolvent_history,
)
from models import ZOO, named, select

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def char_stack(model, lams):
    """lam - A - T(lam) over lams, with T read by ``_symbol``."""
    lams = np.asarray(lams, dtype=complex)
    return _char_matrix_stack(model, lams, _symbol(model.phi, lams.real, lams.imag)[0])


empty_functional = ZOO["empty"].build


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

    @pytest.mark.parametrize("omega_max,count", [(0.0, 101), (-1.0, 101), (10.0, 100), (10.0, 0), (10.0, 1)])
    def test_rejects_bad_parameters(self, omega_max, count):
        with pytest.raises(ValueError):
            dl.FrequencyGrid(omega_max, count)


class TestCharacteristicOperator:
    def test_eigenvector_annihilated_without_delay(self):
        model = dl.SystemModel(dl.diagonal_operator([-1.0, -3.0]), empty_functional(), 2.0)
        out = char_stack(model, [-1.0])[0] @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, 0.0, atol=1e-14)

    def test_scalar_closed_form(self):
        model = dl.scalar_dde(0.0, 0.7)
        for lam in (0.3, 1.0 + 2.0j, -0.5 - 1.0j):
            got = (char_stack(model, [lam])[0] @ np.array([1.0]))[0]
            assert got == pytest.approx(lam - 0.7 * np.exp(-lam), abs=1e-14)

    def test_linearity_in_vector(self):
        model = dl.scalar_dde(-1.0, 0.4)
        lam = 0.2 + 0.9j
        x1, x2 = np.array([1.7]), np.array([-0.6])
        m = char_stack(model, [lam])[0]
        lhs = m @ (2.0 * x1 + 3.0 * x2)
        rhs = 2.0 * (m @ x1) + 3.0 * (m @ x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)

    def test_det_is_characteristic_polynomial_without_delay(self):
        eigs = np.array([-1.0, -2.5, -4.0])
        model = dl.SystemModel(dl.diagonal_operator(eigs), empty_functional(), 2.0)
        for lam in (0.0, 1.0 + 1.0j, -2.0 + 0.3j):
            expected = np.prod(lam - eigs)
            assert char_det(model, lam) == pytest.approx(expected, rel=1e-12)

    def test_det_scalar_at_origin(self):
        model = dl.scalar_dde(-1.5, 0.6)
        assert char_det(model, 0.0) == pytest.approx(1.5 - 0.6, abs=1e-14)

    def test_det_conjugate_symmetry(self):
        model = dl.scalar_dde(-0.5, -0.9)
        lam = 0.4 + 1.3j
        assert char_det(model, np.conj(lam)) == pytest.approx(
            np.conj(char_det(model, lam)), rel=1e-12
        )


#: the models whose weights commute with A: split, or coupled all the same
COMMUTING = select("commuting", "-frontier")
#: the lam of the LU oracles
LU_LAMS = np.array([0.3 + 0.5j, -0.7 + 2.1j, 1.2 - 0.4j, -2.5 + 0.1j])


def fd4(f, z, h):
    """Fourth-order central difference of f at z."""
    return (f(z - 2 * h) - 8 * f(z - h) + 8 * f(z + h) - f(z + 2 * h)) / (12 * h)


def char(model, z):
    return z * np.eye(model.n) - model.A.matrix - dl.char_matrix(model.phi, z, dim=model.n)


#: the oracles of D = (log det M)' at a lam: the difference of the LU
#: determinant, whose h balances the O(h^4) truncation against the LU rounding
#: divided by h, and tr(M^-1 M') by LU, M' the difference of M = lam - A -
#: char_matrix(lam), whose entries stay smooth where det of the stiff models does not
D_ORACLES = {
    "det": lambda model, z: fd4(functools.partial(char_det, model), z, 2e-3) / char_det(model, z),
    "matrix": lambda model, z: np.trace(np.linalg.solve(char(model, z), fd4(functools.partial(char, model), z, 1e-3))),
}
#: (zoo name, the oracles of D that hold at rtol 1e-10, path) of the models whose
#: log det is checked: L against slogdet of M and against the LU determinant, D
#: against its oracles, slogdet taken if and only if the model is coupled or
#: the path forces it, conjugate symmetry, and D read without L.  A model that
#: splits is read as built and by slogdet, with ``decoupled`` forced to None; a
#: coupled one takes slogdet as built
LOG_DET_RUNS = [(name, oracles, path) for name, oracles in [
    # scalar symbols (Cantor kernel at n = 15, a non-normal triangular A), a matrix
    # symbol (non-commuting 2 x 2 delays), a scalar symbol stored as a matrix,
    # and the shipped scalar model and a coupled density of the upper-half search
    *[(name, "det matrix") for name in ("rd15_c0.5lam1", "triangular3_cantor", "coupled_delays", "scaled_identity", "scalar_single_delay",
                                        "coupled_density")],
    # weights that commute with A; the difference of det misses D of the stiff ones by 2e-10 to 2e-8
    *[(name, "det matrix" if name in ("commuting_density", "commuting_atom_at_zero", "swap_on_identity") else "matrix") for name in COMMUTING],
    # the Cantor kernel at n = 64, where both differences miss D by 1e-10 to 1e-9
    ("rd64_c0.5lam1", ""),
] for path in ("as built",) + ("slogdet",) * ("coupled" not in ZOO[name].tags)]


class TestLogDet:
    @pytest.mark.parametrize("name,oracles,path", LOG_DET_RUNS, ids=[f"{r[0]}-{r[2]}" for r in LOG_DET_RUNS])
    def test_matches_its_oracles(self, name, oracles, path, monkeypatch):
        model = ZOO[name].build()
        if path == "slogdet":
            monkeypatch.setattr(dl.SystemModel, "decoupled", property(lambda self: None))
        with mock.patch.object(np.linalg, "slogdet", wraps=np.linalg.slogdet) as slogdet:
            L, D = _log_det(model, LU_LAMS.real, LU_LAMS.imag)
        assert slogdet.called == ("coupled" in ZOO[name].tags or path == "slogdet")
        np.testing.assert_allclose(L, np.linalg.slogdet(char_stack(model, LU_LAMS))[1], rtol=1e-10)
        np.testing.assert_allclose(L, np.log(np.abs([char_det(model, z) for z in LU_LAMS])), rtol=1e-10)
        for oracle in oracles.split():
            np.testing.assert_allclose(D, [D_ORACLES[oracle](model, z) for z in LU_LAMS], rtol=1e-10)
        # the model is real: det M(conj lam) = conj det M(lam)
        rng = np.random.default_rng(22)
        lams = rng.uniform(-3.0, 1.0, 50) + 1j * rng.uniform(0.05, 9.0, 50)
        L, D = _log_det(model, lams.real, lams.imag)
        conj_L, conj_D = _log_det(model, lams.real, -lams.imag)
        np.testing.assert_allclose(conj_L, L, rtol=1e-12)
        np.testing.assert_allclose(conj_D, np.conj(D), rtol=1e-12)
        # without L, D is the same on the count's three legs on (-3, 1, 8): up the
        # right edge, along the top, down the left edge
        t, u = np.linspace(0.0, 1.0, 1001), np.linspace(0.0, 1.0, 2001)
        for re, im in ((1.0, 8.0 * t), (1.0 - 4.0 * u, 8.0), (-3.0, 8.0 - 8.0 * t)):
            L, D = _log_det(model, re, im)
            no_L, same_D = _log_det(model, re, im, level=False)
            assert L is not None and no_L is None
            assert np.array_equal(same_D.view(np.int64), D.view(np.int64))  # bit for bit, NaNs included


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

    @pytest.mark.parametrize("eps", [1e-4, 1e-6, -1e-4, 3e-3])
    def test_root_next_to_contour_is_reported(self, eps):
        # the left edge passes eps right of the pair W_0(-1) = -0.3181315 +- 1.3372357i,
        # where the rounded winding reads 1 for a true count of 0 (eps > 0) or 2
        model = dl.scalar_dde(0.0, -1.0)
        with pytest.raises(dl.NoResultError, match="within about one node spacing"):
            dl.count_roots_argument_principle(model, dl.Region(-0.3181315052047641 + eps, 1.0, 4.0))

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

    @pytest.mark.parametrize("name", sorted({**COMMUTING, **named("scalar_single_delay", "coupled_delays", "scaled_identity")}))
    def test_debug_line_names_log_det_path(self, caplog, name):
        model, path = ZOO[name].build(), "slogdet" if "coupled" in ZOO[name].tags else "factored"
        with caplog.at_level("DEBUG", logger="delaylab.spectral"):
            report = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0))
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("find_roots:")]
        assert len(lines) == 1
        assert lines[0].startswith(f"find_roots: {path} log det, grid 41 x 161, seeds ")
        # on these models every root below the axis is the mirror of one polished above it
        mirrored = sum(z.imag < 0 for z in report.roots)
        assert lines[0].endswith(f", mirrored {mirrored}, roots {len(report.roots)}")

    def test_split_roots_match_the_matrix_path(self, monkeypatch):
        # delayed diffusion: per-mode factors against slogdet Newton at n = 15
        model = ZOO["delayed_diffusion"].build()
        region = dl.Region(-3.0, 1.0, 8.0)
        factored = dl.find_roots(model, region)
        monkeypatch.setattr(dl.SystemModel, "decoupled", property(lambda self: None))
        matrix = dl.find_roots(ZOO["delayed_diffusion"].build(), region)
        assert len(factored.roots) == len(matrix.roots) > 0
        np.testing.assert_allclose(factored.roots, matrix.roots, rtol=0, atol=1e-10)


#: the models the upper-half search is checked on: the shipped scalar one, Cantor kernels
#: at n = 15 and 64, non-commuting 2 x 2 delays and density (the slogdet path), delayed diffusion
HALF_PLANE = named("scalar_single_delay", "rd15_c0.5lam1", "rd64_c0.5lam1", "coupled_delays", "coupled_density", "delayed_diffusion")

#: every search rectangle of TestFindRoots but the budget guard's, and two
#: whose seed grids have an even column count (162 and 322), so no row on the
#: real axis; (-3, 1, 8) and (-3, 1, 8.025) are one rectangle at both parities
HALF_PLANE_REGIONS = [
    (-4.0, 0.5, 2.0),
    (-1.0, 1.0, 4.0),
    (-1.0, 1.0, 7.5),
    (-3.0, 1.0, 9.0),
    (-3.0, 1.0, 2.0),
    (-1.0, 0.5, 2.0),
    (-3.0, 1.0, 6.0),
    (-3.0, 1.0, 8.0),
] + [(-0.3181315052047641 + eps, 1.0, 4.0) for eps in (1e-4, 1e-6, -1e-4, 3e-3)] + [(-1.0, 1.0, 4.01), (-3.0, 1.0, 8.025)]


class TestUpperHalfPlane:
    """The model is real: det M(conj lam) = conj det M(lam), and the search
    and the count read log det on the upper half-plane only."""

    @pytest.mark.parametrize("region", HALF_PLANE_REGIONS, ids=str)
    @pytest.mark.parametrize("name", sorted(HALF_PLANE))
    def test_roots_and_count_match_the_full_plane_references(self, name, region):
        model, region = ZOO[name].build(), dl.Region(*region)
        got = dl.find_roots(model, region)
        want = reference_find_roots(model, region)
        # the oracle polishes the lower root of a pair on its own, so its real
        # part, and the order of the pair, may differ in the last bit
        def paired(roots):
            return sorted(roots, key=lambda z: (-round(z.real, 9), z.imag))

        assert len(got.roots) == len(want.roots)
        np.testing.assert_allclose(paired(got.roots), paired(want.roots), rtol=0, atol=1e-12)
        assert {(z.real, z.imag) for z in got.roots} == {(z.real, -z.imag) for z in got.roots}
        try:
            want_count = reference_count_roots_argument_principle(model, region)
        except dl.NoResultError:
            with pytest.raises(dl.NoResultError):
                dl.count_roots_argument_principle(model, region)
        else:
            count = dl.count_roots_argument_principle(model, region)
            assert count == want_count
            # the search may miss roots that the count sees (ROADMAP item 2), never list more
            assert len(got.roots) <= count

    @pytest.mark.parametrize("im_max,im_count", [(4.0, 161), (4.01, 162)])
    def test_log_det_reads_the_upper_half_only(self, monkeypatch, im_max, im_count):
        model = ZOO["scalar_single_delay"].build()
        region = dl.Region(-1.0, 1.0, im_max)
        calls = []
        log_det = dl.spectral._log_det

        def counted(model, re, im, **kwargs):
            calls.append(((np.asarray(re) + 1j * np.asarray(im)).ravel(), kwargs))
            return log_det(model, re, im, **kwargs)

        monkeypatch.setattr(dl.spectral, "_log_det", counted)
        dl.find_roots(model, region)
        scans = [lams for lams, kwargs in calls if not kwargs.get("derivative", True)]
        assert len(scans) == 1
        assert scans[0].size == 41 * (im_count - im_count // 2)
        assert scans[0].imag.min() == 0.0 if im_count % 2 else scans[0].imag.min() > 0.0
        calls.clear()
        dl.count_roots_argument_principle(model, region)
        assert sum(lams.size for lams, _ in calls) == 4003
        assert all(lams.imag.min() >= 0.0 for lams, _ in calls)
        # the count reads D only
        assert calls and all(kwargs == {"level": False} for _, kwargs in calls)


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

    @pytest.mark.parametrize("m,bound", [(2, 3), (3, 4)])
    def test_resolvent_needs_enough_nodes(self, m, bound):
        # the shift resolvent's cubic stencils read four nodes, the defect's
        # fourth-order derivative five: at m = 3 the state comes, its defect not
        model, y, g = dl.scalar_dde(-1.0, 0.2), np.array([1.0]), HistoryGrid.constant([1.0], m, 2.0)
        with pytest.raises(dl.PreconditionError, match=f"m >= {bound}, got m = {m}"):
            dl.resolvent_defect(model, 0.5, y, g, dl.resolvent_apply(model, 0.5, y, g))


class TestGridPaths:
    """The grid weights of ``apply`` and ``miyadera_estimate`` and the grid
    symbol of ``resolvent_apply`` come from the delay stencil; both must
    reproduce the reference reader, which interpolates the history at the
    atom offsets."""

    @staticmethod
    def reference(phi, f):
        offsets, reduce_fn = _delay_term(phi, f.m)
        return reduce_fn(interp_uniform(f.samples, -1.0, 1.0 / f.m, offsets))

    @pytest.mark.parametrize("name", sorted(select("functional")))
    def test_grid_char_matrix_matches_apply(self, name):
        from delaylab.functional import _as_matrices

        phi, m = ZOO[name].build(), 64
        x = np.array([0.8, -1.3])
        nodes = -1.0 + np.arange(m + 1) / m
        for lam in (0.3 + 1.7j, -1.2 - 0.4j, 2.0):
            got = _as_matrices(_symbol(phi, np.real(lam), np.imag(lam), m)[0], 2)[0] @ x
            want = self.reference(phi, HistoryGrid(np.exp(lam * nodes)[:, None] * x, 2.0))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(select("functional")))
    def test_node_matrices_match_apply(self, name):
        from delaylab.functional import _as_matrices, _grid_weights

        phi, m = ZOO[name].build(), 64
        node_mats = _as_matrices(_grid_weights(phi, m), 2)
        rng = np.random.default_rng(8)
        for _ in range(5):
            f = HistoryGrid(rng.standard_normal((m + 1, 2)), 2.0)
            got = np.einsum("lij,lj->i", node_mats, f.samples)
            np.testing.assert_allclose(got, self.reference(phi, f), rtol=0.0, atol=1e-12)


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

    @pytest.mark.parametrize("name,alpha", [("rd15_c4.9", 0.0), ("rotation_between_samples", -0.1)])
    def test_distance_to_spectrum_matches_svd(self, name, alpha):
        # normal A: sigma_min(lam - A) = min_k |lam - mu_k|
        model = ZOO[name].build()
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
        if name == "rotation_between_samples":
            assert profile.rhs < svd.min() - 1e-3

    @pytest.mark.parametrize("name", ["rotation373_delay", "double_pair_delay"])
    def test_normal_operator_minimum_between_grid_samples(self, name):
        # the minimum of sigma_min(i omega - A) is 0.01 at omega = 3.73,
        # between the default grid samples 3.7 and 3.8 (which read 0.0316);
        # the double pair repeats the eigenvalue pair, where the eig basis
        # of the double eigenspaces is not orthonormal
        model = ZOO[name].build()
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

    def test_eigenvalue_of_a_right_of_line_refutes_certificate(self):
        # u' = 0.5 u + 0.1 u(t - 1): lhs = 0.1 < rhs = 0.5, yet the rightmost root is +0.557
        report, profile = dl.stability_criterion(dl.scalar_dde(0.5, 0.1), 0.0, dl.FrequencyGrid(50.0, 1001), horizon=2.0)
        assert profile.lhs < profile.rhs
        assert not profile.holds and not report.criterion_holds
        assert report.s0_estimate > 0.5

    def test_root_search_reaches_past_eigenvalue_of_a(self):
        # the root beside the eigenvalue 10 of A lies right of alpha + 5
        model = dl.scalar_dde(10.0, 0.1)
        report, _ = dl.stability_criterion(model, 0.0, dl.FrequencyGrid(50.0, 1001), horizon=2.0)
        rightmost = dl.find_roots(model, dl.Region(9.0, 11.0, 5.0), spacing=0.1).rightmost
        assert abs(report.s0_estimate - rightmost.real) <= 1e-8

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


#: an operator in each basis that miyadera_estimate reads A in (modes, an eigenbasis,
#: none for a Jordan block) and a functional of each variant, at p = 1, 2 and 3
MIYADERA = named("nn2_two_weights", "nn2_cantor_p3", "nn2_density41_p1", "rd7_c0.9", "rotation2_identity_delay", "scalar_-0.6_0.8",
                 "reaction_diffusion_cantor", "jordan_cantor")


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
        assert isinstance(q_emp, float) and isinstance(q_bound, float)
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

    @pytest.mark.parametrize("name", sorted(MIYADERA))
    def test_matches_per_state_loop(self, name, caplog):
        model, tags = ZOO[name].build(), ZOO[name].tags
        basis = "expm" if "defective" in tags else "eigenbasis" if "non_normal" in tags else "modal"
        with caplog.at_level(logging.DEBUG, logger="delaylab.spectral"):
            got = dl.miyadera_estimate(model, 0.25, samples=20, seed=3)
        assert f"{basis} basis" in caplog.text
        want = reference_miyadera_estimate(model, 0.25, samples=20, seed=3)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        assert got[1] == pytest.approx(want[1], rel=1e-12)

    def test_logs_basis_and_chunks(self, caplog):
        model = ZOO["rd7_c0.9"].build()
        with caplog.at_level(logging.DEBUG, logger="delaylab.spectral"):
            dl.miyadera_estimate(model, 0.25, samples=400, state_m=32)
        # 65_536 // (65 nodes x n = 7) = 144 states per chunk
        assert caplog.messages == [
            "miyadera_estimate: modal basis, samples = 400, r_nodes = 65, m = 32, chunks = 3"
        ]

    def test_rejects_bad_window(self):
        model = dl.scalar_dde(-1.0, 0.1)
        for t0 in (0.0, 1.0, 1.5, -0.2, [0.1, 0.5, 1.5], [0.25, np.nan]):
            with pytest.raises(dl.PreconditionError):
                dl.miyadera_estimate(model, t0, samples=1)
        for sizes in ({"r_nodes": 1}, {"r_nodes": 0}, {"state_m": 1}):
            with pytest.raises(dl.PreconditionError):
                dl.miyadera_estimate(model, 0.25, samples=1, **sizes)


def interpolated_decay_rate(traj, window):
    """``decay_rate`` with every segment interpolated through ``interp_uniform``,
    in one batch; ``decay_rate`` reads the segments off the nodes when they lie on them."""
    times = traj.times
    idx = np.flatnonzero((times >= window[0] - 1e-12) & (times <= window[1] + 1e-12))
    if len(idx) > 201:
        idx = idx[np.linspace(0, len(idx) - 1, 201).astype(int)]
    ts = -1.0 + idx * traj.dt
    queries = (ts[:, None] + (-1.0 + np.arange(traj.m + 1) / traj.m)).ravel()
    segments = interp_uniform(traj.values, -1.0, traj.dt, queries).reshape(-1, traj.m + 1, traj.n)
    norms = np.linalg.norm(traj.values[idx], axis=1) + _lp_norms(segments, traj.p)
    keep = norms > 0
    return float(np.polyfit(ts[keep], np.log(norms[keep]), 1)[0])


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

    @pytest.mark.parametrize("name,p", [("scalar_single_delay", None), ("reaction_diffusion_cantor", None),
                                        *[("reaction_diffusion_cantor", p) for p in (1.5, 2.0, 3.0)]],
                             ids=["scalar_single_delay", "reaction_diffusion_cantor", "p1.5", "p2", "p3"])
    def test_matches_per_sample_loop(self, name, p):
        # the shipped run, or the shipped model at p from the state of seed 23 to t = 6
        if p is None:
            scenario = load_scenario(SCENARIOS / f"{name}.json")
            traj = dl.solve_steps(scenario.model, scenario.initial, scenario.run.T, scenario.run.dt)
        else:
            rd = ZOO[name].build()
            traj = dl.solve_steps(dl.SystemModel(rd.A, rd.phi, p), dl.random_compatible_state(15, 64, p, np.random.default_rng(23)), 6.0)
        window = (traj.t_end / 2.0, traj.t_end)
        want = reference_decay_rate(traj, window)
        assert dl.decay_rate(traj, window) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name", ["scalar_single_delay", "reaction_diffusion_cantor", "random_T20"])
    def test_node_reads_equal_the_interpolated_slope(self, name):
        # dt = 2^-10 and m = 64 put every query of the RD runs on a node; the
        # scalar scenario (dt = 1e-3, m = 100) interpolates
        if name == "random_T20":
            model = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json").model
            traj = dl.solve_steps(model, dl.random_compatible_state(15, 64, 2.0, np.random.default_rng(31)), 20.0)
        else:
            scenario = load_scenario(SCENARIOS / f"{name}.json")
            traj = dl.solve_steps(scenario.model, scenario.initial, scenario.run.T, scenario.run.dt)
        window = (traj.t_end / 2.0, traj.t_end)
        assert dl.decay_rate(traj, window) == interpolated_decay_rate(traj, window)

    def test_queries_between_nodes_are_interpolated(self):
        # m = 100 at dt = 2^-10: 1 / (m dt) = 10.24, so most queries fall between nodes
        rd = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json").model
        model = dl.SystemModel(rd.A, rd.phi, 2.0)
        traj = dl.solve_steps(model, dl.random_compatible_state(15, 100, 2.0, np.random.default_rng(32)), 6.0, 2.0**-10)
        assert traj.m == 100
        assert dl.decay_rate(traj, (3.0, 6.0)) == pytest.approx(reference_decay_rate(traj, (3.0, 6.0)), rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "window", [(0.5, 1.5), (0.5 - 5e-13, 1.5 + 5e-13), (0.5 + 2e-12, 1.5 - 2e-12), (0.0, 0.0015), (1.9, 3.0), (2.9985, 3.0)]
    )
    def test_samples_the_nodes_inside_the_window(self, window):
        # dt = 1e-3 puts the nodes -1 + j dt off the binary grid: edges on a
        # node, within 1e-12 of one, just inside one, and windows of two to 1101 nodes
        dt = 1e-3
        ts = -1.0 + np.arange(4001) * dt
        traj = dl.Trajectory(np.stack([np.exp(-0.7 * ts) * (1.2 + np.sin(5.0 * ts)), np.cos(ts)], axis=1), dt, m=50, p=2.0)
        assert dl.decay_rate(traj, window) == pytest.approx(reference_decay_rate(traj, window), rel=1e-12, abs=0)

    def test_scratch_does_not_grow_with_the_trajectory(self):
        # 201 samples in batches of about _BATCH_ENTRIES entries, whatever the
        # length; a time for every node (8 B each) would grow fourfold
        scenario = load_scenario(SCENARIOS / "reaction_diffusion_cantor.json")
        peaks = []
        for horizon in (20.0, 80.0):
            traj = dl.solve_steps(scenario.model, scenario.initial, horizon)
            tracemalloc.start()
            try:
                dl.decay_rate(traj, (horizon / 2.0, horizon))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 16_384

    @pytest.mark.parametrize(
        "spike,window,message",
        [(0.0, (0.5, 1.5), "vanishes on the whole window"), (1.0, (0.5, 1.0), "not enough nonzero samples"), (0.0, (0.5, 2.5), "not inside")],
        ids=["zero", "one_nonzero_sample", "past_the_end"],
    )
    def test_rejects_unreadable_window(self, spike, window, message):
        # zero but for the spike at t = 1, which no segment before t = 1 reads
        values = np.zeros((3001, 1))
        values[2000] = spike
        with pytest.raises(dl.PreconditionError, match=message):
            dl.decay_rate(dl.Trajectory(values, 1e-3, m=50, p=2.0), window)


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
