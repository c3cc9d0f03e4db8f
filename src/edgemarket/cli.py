"""Command-line entry points.

Commands: solve (market fixed point), bench (all four methods side by side),
sweep (one axis, replicated), validate (property suite), emit-plots (plot
scripts + the CSVs they read are produced by sweep).

Exit codes: 0 success, 1 input/setup error, 2 solve finished without
converging (outputs are still written).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from edgemarket import benchmarks, experiments, market
from edgemarket.contracts import check_ic_ir, menu_to_obj, optimize_menu_with_profile
from edgemarket.contracts import menu_objective, violation_profile
from edgemarket.errors import DomainError, SetupError
from edgemarket.queueing import StageParams, ViolationModel, sample_sojourn, violation_prob
from edgemarket.scenario import Scenario, load_scenario

_TRACE_CSV_VERSION = "# edgemarket trace v1"


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _matching_csv(probs: np.ndarray) -> str:
    buf = io.StringIO()
    n_ops = probs.shape[1] - 1
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["type", "opt_out"] + [f"op_{m + 1}" for m in range(n_ops)])
    for n, row in enumerate(probs):
        writer.writerow([n + 1] + [repr(float(x)) for x in row])
    return buf.getvalue()


def _trace_csv(outcome: market.MarketOutcome, n_ops: int) -> str:
    buf = io.StringIO()
    buf.write(_TRACE_CSV_VERSION + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["iteration", "temperature", "matching_residual", "menu_residual"]
        + [f"omega_{m + 1}" for m in range(n_ops)]
        + [f"objective_{m + 1}" for m in range(n_ops)]
    )
    for rec in outcome.trace:
        writer.writerow(
            [rec.iteration, repr(rec.temperature), repr(rec.matching_residual),
             repr(rec.menu_residual)]
            + [repr(w) for w in rec.shadow_prices]
            + [repr(v) for v in rec.objectives]
        )
    return buf.getvalue()


def cmd_solve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, tuple(args.set), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outcome = market.run_fixed_point(scenario)
    caps = np.array([
        market.effective_capacity(spec, scenario.task, scenario.solver.safety)
        for spec in scenario.operators
    ])
    assignment = market.project_matching(
        outcome.matching, caps, scenario.population,
        scenario.task.arrival_rate_per_user,
    )
    mixed = market.evaluate_matching(outcome.matching.probs, outcome.menus, scenario)
    projected = market.evaluate_matching(assignment, outcome.menus, scenario)
    report = market.verify_selection_equilibrium(assignment, outcome.menus, scenario)

    _write_json(out / "menus.json",
                {"menus": [menu_to_obj(menu) for menu in outcome.menus]})
    _write_text(out / "matching.csv", _matching_csv(outcome.matching.probs))
    _write_json(out / "assignment.json", {
        "columns": ["opt_out"] + [f"op_{m + 1}" for m in range(len(caps))],
        "assignment": [[int(x) for x in row] for row in assignment],
    })
    _write_text(out / "trace.csv", _trace_csv(outcome, len(caps)))
    _write_json(out / "metrics.json", {
        "converged": bool(outcome.converged),
        "iterations": int(outcome.iterations),
        "shadow_prices": [float(w) for w in outcome.shadow_prices.omegas],
        "mixed": {
            "total_operator_utility": mixed.total_operator_utility,
            "social_welfare": mixed.social_welfare,
            "per_operator_utility": list(mixed.per_operator_utility),
        },
        "projected": {
            "total_operator_utility": projected.total_operator_utility,
            "social_welfare": projected.social_welfare,
            "per_operator_utility": list(projected.per_operator_utility),
            "max_user_regret": float(report.max_regret),
            "max_operator_gain_ratio": float(report.max_gain_ratio),
        },
    })
    if not outcome.converged:
        print(
            f"warning: no convergence in {outcome.iterations} iterations "
            f"(best matching residual kept)", file=sys.stderr,
        )
        return 2
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, tuple(args.set), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {name: benchmarks.run_method(scenario, name)
               for name in benchmarks.METHODS}
    for name, result in results.items():
        _write_json(out / f"bench_{name.lower()}.json",
                    benchmarks.result_to_obj(result))

    # Comparison table: one row per type; the fixed point as probabilities,
    # the one-shot mechanisms as the matched operator index (0 = opt out).
    ours = results["OURS"]
    n_ops = len(scenario.operators)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["type", "ours_opt_out"]
        + [f"ours_op_{m + 1}" for m in range(n_ops)]
        + ["ct", "mc", "gsmc"]
    )
    for n in range(scenario.n_types):
        row = [n + 1]
        row += [repr(float(x)) for x in ours.mixed_matching[n]]
        for name in ("CT", "MC", "GSMC"):
            row.append(int(np.argmax(results[name].assignment[n])))
        writer.writerow(row)
    _write_text(out / "comparison.csv", buf.getvalue())
    _write_json(out / "totals.json", {
        name: {
            "total_operator_utility": float(results[name].total_operator_utility),
            "social_welfare": float(results[name].social_welfare),
            "converged": bool(results[name].converged),
        }
        for name in benchmarks.METHODS
    })
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario, tuple(args.set), args.seed)
    axis, sep, raw_values = args.sweep.partition("=")
    if not sep or not raw_values:
        raise DomainError("--sweep must look like AXIS=v1,v2,...")
    values = tuple(float(v) for v in raw_values.split(","))
    spec = experiments.SweepSpec(
        axis=axis.strip(), values=values, replicates=args.replicates
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = experiments.run_sweep(scenario, spec)
    experiments.write_detail_csv(rows, out / f"sweep_{spec.axis}.csv")
    experiments.write_mean_csv(
        experiments.aggregate_rows(rows), out / f"sweep_{spec.axis}_mean.csv"
    )
    return 0


def _validate_bound_dominance(rng: np.random.Generator) -> tuple[bool, str]:
    worst = np.inf
    n_samples = 200_000
    for _ in range(20):
        stages = tuple(
            StageParams(
                servers=int(rng.integers(1, 9)),
                unit_rate=float(rng.uniform(0.5, 50.0)),
                arrival_rate=0.0,
            )
            for _ in range(3)
        )
        stages = tuple(
            StageParams(s.servers, s.unit_rate,
                        float(rng.uniform(0.1, 0.95)) * s.servers * s.unit_rate)
            for s in stages
        )
        zeta = float(rng.uniform(0.5, 0.95))
        model = ViolationModel.from_stages(stages, zeta)
        total = sum(
            sample_sojourn(s, int(rng.integers(0, 2**31)), n_samples)
            for s in stages
        )
        for t in np.linspace(0.0, 4.0 * model.mean_total(), 20):
            emp = float(np.mean(total > t))
            sigma = (emp * (1.0 - emp) / n_samples) ** 0.5
            worst = min(worst, violation_prob(model, float(t)) - (emp - 3.0 * sigma))
    return worst >= 0.0, f"worst margin {worst:.3e}"


def _validate_menu_ic_ir(scenario: Scenario) -> tuple[bool, str]:
    menus, design = benchmarks.posted_menus(scenario)
    worst = np.inf
    for m, spec in enumerate(scenario.operators):
        profile = violation_profile(spec, scenario.task, design[m],
                                    scenario.solver.zeta)
        report = check_ic_ir(menus[m], scenario.population, spec.quality,
                             spec.refund, profile)
        worst = min(worst, report.ic_slack, report.ir_slack)
    return worst >= -1e-9, f"worst constraint slack {worst:.3e}"


def _validate_small_menu_oracle(scenario: Scenario) -> tuple[bool, str]:
    pop = scenario.population
    if pop.n_types < 3:
        return True, "skipped (fewer than 3 types)"
    from edgemarket.contracts import UserTypePopulation

    small = UserTypePopulation(
        betas=pop.betas[:3], counts=pop.counts[:3] or (10, 10, 10),
        alpha_worst=pop.alpha_worst,
    )
    spec = scenario.operators[0]
    delta = scenario.task.arrival_rate_per_user
    masses = [c * delta for c in small.counts]
    congestion = np.cumsum(masses)
    profile = violation_profile(spec, scenario.task, congestion, scenario.solver.zeta)
    bounds = scenario.solver.latency_bounds
    menu = optimize_menu_with_profile(small, spec, masses, profile, bounds)
    solved = menu_objective(menu.latencies, small, spec, masses, profile)
    grid = np.linspace(bounds[0], bounds[1], 40)
    best = -np.inf
    for i in range(40):
        for j in range(i, 40):
            for k in range(j, 40):
                lats = (grid[i], grid[j], grid[k])
                best = max(best, menu_objective(lats, small, spec, masses, profile))
    gap = (best - solved) / max(abs(best), 1e-12)
    return gap <= 1e-3, f"objective gap {gap:.3e} vs 40-point grid"


def cmd_validate(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    scenario = load_scenario(args.scenario, tuple(args.set), args.seed)
    try:
        market.check_floor_feasible(scenario)
        checks.append(("floor-stability", True, "all operators stable at the demand floor"))
    except SetupError as exc:
        checks.append(("floor-stability", False, str(exc)))
        _print_checks(checks)
        return 1
    checks.append(("bound-dominance",) + _validate_bound_dominance(
        np.random.default_rng(scenario.seed)
    ))
    checks.append(("menu-ic-ir",) + _validate_menu_ic_ir(scenario))
    checks.append(("small-menu-oracle",) + _validate_small_menu_oracle(scenario))
    _print_checks(checks)
    return 0 if all(ok for _, ok, _ in checks) else 1


def _print_checks(checks: list[tuple[str, bool, str]]) -> None:
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


_PLOT_FAMILIES = {
    "plot_market_structure.py": ("total_users", "num_types"),
    "plot_economics.py": ("refund_scale", "violation_cost_scale"),
    "plot_robustness.py": ("dirichlet_alpha", "zeta"),
}

_PLOT_TEMPLATE = '''"""Comparison panels over {axes}; reads sweep_<axis>_mean.csv next to this file."""

import csv
from pathlib import Path

import matplotlib.pyplot as plt

AXES = {axes!r}
METHODS = ("OURS", "CT", "MC", "GSMC")
HERE = Path(__file__).resolve().parent


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def main():
    present = [a for a in AXES if (HERE / f"sweep_{{a}}_mean.csv").exists()]
    if not present:
        raise SystemExit(f"no sweep_<axis>_mean.csv found for axes {{AXES}} in {{HERE}}")
    fig, axes_grid = plt.subplots(2, len(present), figsize=(6 * len(present), 8),
                                  squeeze=False)
    for col, axis in enumerate(present):
        rows = read_rows(HERE / f"sweep_{{axis}}_mean.csv")
        for metric, ax in zip(
            ("total_operator_utility", "social_welfare"), axes_grid[:, col]
        ):
            for method in METHODS:
                pts = sorted(
                    (float(r["value"]), float(r[metric]))
                    for r in rows if r["method"] == method
                )
                if pts:
                    ax.plot(*zip(*pts), marker="o", label=method)
            ax.set_xlabel(axis)
            ax.set_ylabel(metric.replace("_", " "))
            ax.legend()
            ax.grid(True, alpha=0.3)
    fig.tight_layout()
    out = HERE / "{stem}.png"
    fig.savefig(out, dpi=150)
    print(f"wrote {{out}}")


if __name__ == "__main__":
    main()
'''


def cmd_emit_plots(args: argparse.Namespace) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for filename, axes in _PLOT_FAMILIES.items():
        text = _PLOT_TEMPLATE.format(axes=tuple(axes), stem=Path(filename).stem)
        _write_text(out / filename, text)
    _write_text(out / "PLOTS.txt", (
        "Run `edgemarket sweep --sweep AXIS=v1,v2,... --out <this dir>` for the\n"
        "axes you want, then run each plot_*.py here with matplotlib installed.\n"
        f"Families: {json.dumps({k: list(v) for k, v in _PLOT_FAMILIES.items()}, indent=2)}\n"
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgemarket",
        description="Contract-menu market solver for competing edge AI operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--scenario", help="scenario JSON file (defaults apply when omitted)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path scenario override, repeatable")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p_solve = sub.add_parser("solve", help="run the market fixed point")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="run OURS, CT, MC and GSMC side by side")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = sub.add_parser("sweep", help="sweep one axis with replicates")
    common(p_sweep)
    p_sweep.add_argument("--sweep", required=True, metavar="AXIS=v1,v2,...",
                         help=f"axis and values; axes: {', '.join(experiments.SWEEP_AXES)}")
    p_sweep.add_argument("--replicates", type=int, default=5)
    p_sweep.set_defaults(func=cmd_sweep)

    p_validate = sub.add_parser("validate", help="run the property suite")
    common(p_validate, needs_out=False)
    p_validate.set_defaults(func=cmd_validate)

    p_plots = sub.add_parser("emit-plots", help="write plot scripts for sweep outputs")
    p_plots.add_argument("--out", required=True, help="output directory")
    p_plots.set_defaults(func=cmd_emit_plots)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
