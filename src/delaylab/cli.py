"""Command-line front end.

One subcommand per experiment; every command reads a JSON scenario (except
``reproduce-rd``, which builds its own presets), writes CSV/JSON reports
into the ``--out`` directory, and keeps all randomness behind ``--seed``.

Exit codes: 0 ok, 1 scenario parse error, 2 numerical blow-up, 3 empty
result, 4 violated precondition (including work-budget rejections).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import BlowUpError, BudgetError, NoResultError, PreconditionError, ScenarioError
from .evolution import mild_residual, solve_steps, volterra_terms
from .history import DelayState, segment, state_norm
from .scenario_io import (
    load_scenario,
    write_csv,
    write_json,
    write_roots_csv,
    write_stability_csv,
    write_table,
    write_trajectory_csv,
)
from .scenarios import dirichlet_lambda1, rd_rightmost_root, reaction_diffusion_scenario, threshold_scan
from .spectral import (
    FrequencyGrid,
    Region,
    criterion_profile,
    decay_rate,
    find_roots,
    miyadera_estimate,
    random_compatible_state,
    stability_criterion,
)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    scenario = load_scenario(args.scenario)
    traj = solve_steps(scenario.model, scenario.initial, scenario.run.T, scenario.run.dt)
    out = _out_dir(args)
    write_trajectory_csv(out / "trajectory.csv", traj)
    t_end = traj.t_end
    final_state = DelayState(traj.value_at(t_end), segment(traj, t_end))
    window = (t_end / 2.0, t_end)
    summary = {
        "T": t_end,
        "dt": traj.dt,
        "final_norm": state_norm(final_state),
        "decay_rate": decay_rate(traj, window),
        "decay_window": list(window),
        "mild_residual": mild_residual(scenario.model, traj, t_end),
    }
    write_json(out / "summary.json", summary)
    return 0


def cmd_spectrum(args) -> int:
    scenario = load_scenario(args.scenario)
    region = Region(args.re_min, args.re_max, args.im_max)
    report = find_roots(scenario.model, region, spacing=args.spacing)
    out = _out_dir(args)
    write_json(out / "roots.json", report.to_dict())
    write_roots_csv(out / "roots.csv", report)
    if not report.roots:
        print("no roots found in the requested region", file=sys.stderr)
        return 3
    return 0


def cmd_stability(args) -> int:
    scenario = load_scenario(args.scenario)
    grid = FrequencyGrid(args.omega_max, args.count)
    report, profile = stability_criterion(
        scenario.model,
        args.alpha,
        grid,
        seed=args.seed,
        horizon=args.horizon,
        state_m=scenario.run.m,
        dt=scenario.run.dt,
    )
    out = _out_dir(args)
    write_json(out / "stability.json", report.to_dict())
    write_stability_csv(out / "stability.csv", profile)
    return 0


def cmd_miyadera(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        t0_values = [float(v) for v in args.t0_grid.split(",") if v.strip()]
    except ValueError:
        raise PreconditionError(f"t0 grid must be comma-separated numbers, got {args.t0_grid!r}") from None
    if not t0_values:
        raise PreconditionError("empty t0 grid")
    rows = []
    for t0 in sorted(t0_values):
        q_emp, q_bound = miyadera_estimate(
            scenario.model, t0, args.samples, seed=args.seed, state_m=scenario.run.m
        )
        rows.append([t0, q_emp, q_bound])
    out = _out_dir(args)
    write_table(out / "miyadera.csv", ["t0", "q_emp", "q_bound"], rows)
    return 0


def cmd_dyson(args) -> int:
    scenario = load_scenario(args.scenario)
    dt = scenario.run.dt or scenario.model.default_dt()
    t = args.t
    traj = solve_steps(scenario.model, scenario.initial, t, dt)
    head_ref = traj.value_at(t)
    terms = volterra_terms(scenario.model, args.n_max, t, scenario.initial, dt)
    rows = []
    partial = np.zeros(scenario.model.n)
    for k, term in enumerate(terms):
        partial = partial + term.head
        rows.append([k, float(np.linalg.norm(partial - head_ref)), state_norm(term)])
    out = _out_dir(args)
    write_csv(out / "dyson.csv", ["N", "head_discrepancy", "last_term_norm"], rows)
    return 0


def cmd_reproduce_rd(args) -> int:
    lam1 = abs(dirichlet_lambda1(args.n))
    if not 0.0 <= args.decay_horizon < np.inf:
        raise PreconditionError(f"decay horizon must be finite and nonnegative, got {args.decay_horizon}")
    c_min = args.c_min if args.c_min is not None else 0.5 * lam1
    c_max = args.c_max if args.c_max is not None else 1.5 * lam1
    # built first so that a bad depth is rejected before any root solve
    half_model = reaction_diffusion_scenario(args.n, 0.5 * lam1, args.depth)
    c_star = threshold_scan(args.n, (c_min, c_max), args.steps)

    grid = FrequencyGrid(50.0, 1001)
    rows = []
    for c in np.linspace(c_min, c_max, 9):
        rightmost = rd_rightmost_root(args.n, float(c))
        profile = criterion_profile(reaction_diffusion_scenario(args.n, float(c), args.depth), 0.0, grid)
        rows.append([float(c), rightmost.real, rightmost.imag, profile.holds])

    summary = {
        "n": args.n,
        "depth": args.depth,
        "lambda1_abs": lam1,
        "c_star": c_star,
        "c_star_over_lambda1": c_star / lam1,
        "criterion_holds_at_half": bool(criterion_profile(half_model, 0.0, grid).holds),
    }

    if args.decay_horizon > 0:
        rng = np.random.default_rng(args.seed)
        horizon = args.decay_horizon
        for label, c in (("decay_rate_below", 0.8 * c_star), ("decay_rate_above", 1.2 * c_star)):
            model = reaction_diffusion_scenario(args.n, c, args.depth)
            state = random_compatible_state(model.n, 64, model.p, rng)
            traj = solve_steps(model, state, horizon)
            summary[label] = decay_rate(traj, (horizon / 2.0, horizon))

    out = _out_dir(args)
    write_csv(out / "scan.csv", ["c", "rightmost_re", "rightmost_im", "criterion_holds"], rows)
    write_json(out / "reproduce_rd.json", summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaylab",
        description="Delay-equation experiments: solve, locate characteristic roots, "
        "certify stability, and reproduce the reaction-diffusion threshold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True):
        if scenario:
            p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        p.add_argument("--out", required=True, help="output directory for reports")
        p.add_argument("--seed", type=int, default=42, help="seed for all randomness")

    p = sub.add_parser("solve", help="integrate the equation and summarise the trajectory")
    common(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("spectrum", help="locate characteristic roots in a rectangle")
    common(p)
    p.add_argument("--re-min", type=float, default=-2.0)
    p.add_argument("--re-max", type=float, default=1.0)
    p.add_argument("--im-max", type=float, default=8.0)
    p.add_argument("--spacing", type=float, default=0.05, help="seed-grid spacing")
    p.set_defaults(handler=cmd_spectrum)

    p = sub.add_parser("stability", help="frequency-domain stability certificate")
    common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--omega-max", type=float, default=200.0)
    p.add_argument("--count", type=int, default=4001, help="odd number of frequency samples")
    p.add_argument("--horizon", type=float, default=20.0, help="trajectory length, decay fitted on its second half")
    p.set_defaults(handler=cmd_stability)

    p = sub.add_parser("miyadera", help="empirical vs analytic smallness of the delay term")
    common(p)
    p.add_argument("--t0-grid", default="0.1,0.25,0.5", help="comma-separated t0 values in (0, 1)")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(handler=cmd_miyadera)

    p = sub.add_parser("dyson", help="perturbation-series vs method-of-steps table")
    common(p)
    p.add_argument("--t", type=float, default=1.5, help="comparison time (multiple of dt)")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(handler=cmd_dyson)

    p = sub.add_parser("reproduce-rd", help="reaction-diffusion stability threshold scan")
    common(p, scenario=False)
    p.add_argument("--n", type=int, default=31, help="interior grid points of the Laplacian")
    p.add_argument("--depth", type=int, default=24, help="Cantor kernel recursion depth")
    p.add_argument("--c-min", type=float, default=None)
    p.add_argument("--c-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=40, help="bisection iterations")
    p.add_argument(
        "--decay-horizon",
        type=float,
        default=20.0,
        help="trajectory length for the decay cross-check (0 disables it)",
    )
    p.set_defaults(handler=cmd_reproduce_rd)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"numerical blow-up: {exc}", file=sys.stderr)
        return 2
    except NoResultError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return 3
    except (PreconditionError, BudgetError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
