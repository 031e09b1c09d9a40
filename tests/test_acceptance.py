"""Acceptance suite.

One test per release criterion; each prints a single PASS line (visible
with ``pytest -s`` or in the failure report) and asserts the criterion at
its stated tolerance.
"""

import time

import numpy as np
import pytest

import delaylab as dl
from delaylab import DelayState, HistoryGrid
from reference_loops import cantor_transform_recursive

CANTOR_POINTS = [0.0, 1.0, -1.0, 2.0, -2.0, 3.0j, 1.0 + 5.0j]


def _report(name, detail):
    print(f"[acceptance] {name}: PASS ({detail})")


def constant_state(value, m=100, p=2.0):
    v = np.atleast_1d(np.asarray(value, dtype=float))
    return DelayState(v, HistoryGrid.constant(v, m, p))


def smooth_history(m, n, rng, p=2.0):
    coeffs = rng.standard_normal((4, n))
    sigma = -1.0 + np.arange(m + 1) / m
    powers = sigma[:, None] ** np.arange(4)[None, :]
    return HistoryGrid(powers @ coeffs, p)


def random_stable_symmetric(rng, n, lo=-6.0, hi=-0.5):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(lo, hi, n)
    return dl.SpatialOperator(q @ np.diag(eigs) @ q.T, eigenvalues=np.sort(eigs).astype(complex))


def test_criterion_1_reaction_diffusion_threshold():
    start = time.time()
    n = 31
    lam1 = abs(dl.dirichlet_lambda1(n))
    c_star = dl.threshold_scan(n, (0.5 * lam1, 1.5 * lam1), steps=50)
    ratio = c_star / lam1
    assert abs(ratio - 1.0) <= 0.01

    lam1_fine = abs(dl.dirichlet_lambda1(127))
    assert abs(lam1_fine - np.pi**2) <= 5e-4 * np.pi**2

    elapsed = time.time() - start
    assert elapsed <= 120.0
    _report(
        "1 reaction-diffusion threshold",
        f"c*/|lam1| = {ratio:.6f}, |lam1(127)| = {lam1_fine:.6f} vs pi^2 = {np.pi**2:.6f}, {elapsed:.1f}s",
    )


def test_criterion_2_certificate_soundness():
    rng = np.random.default_rng(2024)
    grid = dl.FrequencyGrid(200.0, 4001)
    held = violations = 0
    for i in range(10):
        n = int(rng.integers(2, 9))
        a = random_stable_symmetric(rng, n)
        alpha = 0.0 if i % 3 else -0.2
        clearance = float(np.min(np.abs(np.real(a.eigenvalues) - alpha)))
        scale = (0.4 if i % 2 == 0 else 1.4) * clearance
        if i % 2 == 1 and i % 4 == 1:
            phi = dl.CantorKernel(scale)
        else:
            b = rng.standard_normal((n, n))
            phi = dl.single_delay(b * scale / np.linalg.norm(b, 2), -1.0)
        model = dl.SystemModel(a, phi, 2.0)
        profile = dl.criterion_profile(model, alpha, grid)
        if not profile.holds:
            continue
        held += 1
        report = dl.find_roots(model, dl.Region(alpha, alpha + 5.0, 50.0), spacing=0.1)
        violations += sum(1 for z in report.roots if z.real >= alpha)
    assert held >= 3  # the certificate must actually fire on several models
    assert violations == 0
    _report("2 certificate soundness", f"{held}/10 certified, 0 root violations")


def _resolvent_models():
    rng = np.random.default_rng(7)
    scalar_cantor = dl.SystemModel(dl.scalar_operator(-2.0), dl.CantorKernel(0.5), 2.0)
    b1, b2 = rng.standard_normal((3, 3)) * 0.3, rng.standard_normal((3, 3)) * 0.2
    three_dim = dl.SystemModel(
        dl.SpatialOperator(rng.standard_normal((3, 3)) * 0.4 - np.eye(3)),
        dl.DiscreteDelays(np.stack([b1, b2]), np.array([-1.0, -0.37])),
        2.0,
    )
    nodes = -1.0 + np.arange(65) / 64
    kernel = dl.DensityKernel(np.exp(nodes)[:, None, None] * (0.3 * rng.standard_normal((2, 2))))
    density = dl.SystemModel(dl.SpatialOperator(np.diag([-1.0, -2.0])), kernel, 2.0)
    rd = dl.reaction_diffusion_scenario(8, 0.3 * abs(dl.dirichlet_lambda1(8)))
    return [scalar_cantor, three_dim, density, rd]


def test_criterion_3_resolvent_formula():
    rng = np.random.default_rng(99)
    m = 256
    worst = 0.0
    for model in _resolvent_models():
        roots = dl.find_roots(model, dl.Region(-8.0, 3.0, 6.0), spacing=0.1).roots
        checked = 0
        while checked < 20:
            lam = complex(rng.uniform(-1.0, 2.0), rng.uniform(-2.0, 2.0))
            if roots and min(abs(lam - z) for z in roots) < 0.5:
                continue
            y = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
            g = smooth_history(m, model.n, rng)
            state = dl.resolvent_apply(model, lam, y, g)
            defect = dl.resolvent_defect(model, lam, y, g, state)
            worst = max(worst, defect)
            assert defect <= 1e-6
            checked += 1
    _report("3 resolvent formula", f"worst forward defect {worst:.3e} over 80 draws at m={m}")


def test_criterion_4_solver_cross_validation():
    dt = 1e-3
    worst_head = worst_resid = 0.0

    scalar = dl.scalar_dde(0.0, -1.0)
    init_scalar = constant_state(1.0)

    rng = np.random.default_rng(5)
    a4 = random_stable_symmetric(rng, 4, lo=-2.0, hi=-0.5)
    b4 = rng.standard_normal((4, 4))
    model4 = dl.SystemModel(a4, dl.single_delay(0.4 * b4 / np.linalg.norm(b4, 2), -1.0), 2.0)
    init4 = dl.random_compatible_state(4, 100, 2.0, rng)

    for model, init in ((scalar, init_scalar), (model4, init4)):
        traj = dl.solve_steps(model, init, 2.5, dt)
        for t in (0.5, 1.5, 2.5):
            series = dl.dyson_phillips(model, t, init, 8, dt)
            gap = float(np.linalg.norm(series.state.head - traj.value_at(t)))
            worst_head = max(worst_head, gap)
            assert gap <= 1e-4
        resid = dl.mild_residual(model, traj, 2.5)
        worst_resid = max(worst_resid, resid)
        assert resid <= 1e-4

    n = 14
    rd = dl.reaction_diffusion_scenario(n, 0.5 * abs(dl.dirichlet_lambda1(n)))
    xs = np.arange(1, n + 1) / (n + 1)
    mode = np.sin(np.pi * xs)
    init_rd = DelayState(mode, HistoryGrid.constant(mode, 100, 2.0))
    traj_rd = dl.solve_steps(rd, init_rd, 2.0, dt)
    resid = dl.mild_residual(rd, traj_rd, 2.0)
    worst_resid = max(worst_resid, resid)
    assert resid <= 1e-4
    _report(
        "4 solver cross-validation",
        f"max head gap {worst_head:.3e}, max mild residual {worst_resid:.3e} at dt={dt}",
    )


def test_criterion_5_integral_smallness_bound():
    rng = np.random.default_rng(17)
    a2 = random_stable_symmetric(rng, 2, lo=-3.0, hi=-0.5)
    variants = {
        "discrete": dl.DiscreteDelays(
            np.stack([0.5 * np.eye(2), np.array([[0.1, 0.4], [-0.3, 0.2]])]),
            np.array([-1.0, -0.4]),
        ),
        "cantor": dl.CantorKernel(0.9),
        "density": dl.DensityKernel(
            np.exp(-1.0 + np.arange(65) / 64)[:, None, None] * np.array([[0.4, 0.1], [0.0, 0.3]])
        ),
    }
    lines = []
    for name, phi in variants.items():
        model = dl.SystemModel(a2, phi, 2.0)
        q_by_t0 = {}
        for t0 in (0.02, 0.1, 0.25, 0.5):
            q_emp, q_bound = dl.miyadera_estimate(model, t0, samples=200, seed=31, r_nodes=49)
            assert q_emp <= q_bound
            q_by_t0[t0] = q_emp
        assert q_by_t0[0.02] <= q_by_t0[0.1] <= q_by_t0[0.25] <= q_by_t0[0.5]
        assert q_by_t0[0.02] <= 0.35 * q_by_t0[0.5]  # vanishing small-time limit
        lines.append(f"{name} q_emp(0.5)={q_by_t0[0.5]:.3f}")
    _report("5 integral smallness bound", "; ".join(lines))


def test_criterion_6_scalar_calibration():
    mpmath = pytest.importorskip("mpmath")
    oracle = mpmath.findroot(lambda z: z + mpmath.exp(-z), mpmath.mpc(-0.3, 1.3))
    model = dl.scalar_dde(0.0, -1.0)
    report = dl.find_roots(model, dl.Region(-1.0, 1.0, 4.0))
    rightmost = report.rightmost
    assert abs(rightmost.real - float(oracle.real)) <= 1e-9
    assert abs(rightmost.real - (-0.3181)) <= 1e-3

    traj = dl.solve_steps(model, constant_state(1.0), 40.0, 1e-3)
    fitted = dl.decay_rate(traj, (10.0, 40.0))
    assert abs(fitted - rightmost.real) <= 0.01

    osc = dl.find_roots(dl.scalar_dde(0.0, -np.pi / 2.0), dl.Region(-1.0, 1.0, 4.0))
    for target in (1j * np.pi / 2.0, -1j * np.pi / 2.0):
        assert min(abs(z - target) for z in osc.roots) <= 1e-6
    _report(
        "6 scalar calibration",
        f"rightmost {rightmost.real:.5f} (oracle {float(oracle.real):.5f}), decay fit {fitted:.5f}",
    )


def test_criterion_7_growth_rate_matches_resolvent_bound():
    cases = [
        (dl.scalar_dde(0.0, -1.0), -0.05),
        (dl.scalar_dde(-1.0, 0.3), 0.0),
        (dl.reaction_diffusion_scenario(9, 0.5 * abs(dl.dirichlet_lambda1(9))), 0.0),
        (
            dl.SystemModel(
                dl.diagonal_operator([-1.0, -3.0]), dl.single_delay(0.25 * np.eye(2), -1.0), 2.0
            ),
            0.0,
        ),
    ]
    gaps = []
    for model, alpha in cases:
        report, _ = dl.stability_criterion(model, alpha, horizon=40.0, seed=11)
        assert report.p == 2.0
        assert report.s0_estimate is not None and report.omega0_estimate is not None
        assert np.sign(report.omega0_estimate) == np.sign(report.s0_estimate)
        gap = abs(report.omega0_estimate - report.s0_estimate)
        gaps.append(gap)
        assert gap <= 0.05
    _report("7 growth rate vs root estimate", f"gaps {['%.4f' % g for g in gaps]}")


def test_criterion_8_cantor_transform():
    assert dl.cantor_transform(0.0) == 1.0
    worst = 0.0
    for lam in CANTOR_POINTS:
        gap = abs(dl.cantor_transform(lam) - cantor_transform_recursive(lam, depth=30))
        worst = max(worst, gap)
        assert gap <= 1e-10
    _report("8 Cantor transform agreement", f"worst gap {worst:.3e} over {len(CANTOR_POINTS)} points")
