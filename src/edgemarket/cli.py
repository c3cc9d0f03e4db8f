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
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from edgemarket import benchmarks, experiments, market
from edgemarket.contracts import check_ic_ir, menu_grid_gap, menu_to_obj
from edgemarket.errors import DomainError, SetupError
from edgemarket.queueing import bound_dominance_margin
from edgemarket.scenario import Scenario, load_scenario

_TRACE_CSV_VERSION = "# edgemarket trace v1"
_SWEEP_CSV_VERSION = "# edgemarket sweep v1"
_DETAIL_FIELDS = (
    "axis", "value", "method", "replicate", "seed",
    "total_operator_utility", "social_welfare", "converged", "runtime_s",
)
_MEAN_FIELDS = (
    "axis", "value", "method", "replicates",
    "total_operator_utility", "social_welfare", "converged_share", "runtime_s",
)


def _cell(value):
    # Floats as repr, so a CSV round-trips bit for bit; flags as 0/1.
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"out of range float value {value!r}")
        return repr(float(value))
    return value


def _csv_text(header, rows, version: str = "", row_end: str = "\n") -> str:
    buf = io.StringIO()
    if version:
        buf.write(version + "\n")
    writer = csv.writer(buf, lineterminator=row_end)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(value) for value in row])
    return buf.getvalue()


def _write_outputs(out: Path, files: dict) -> None:
    """Serialize every file (a `.json` one from an object, strict; a `.csv`
    one from `_csv_text`'s arguments; any other from its text), then write
    each atomically. A non-finite number stops it before any file is written."""
    texts = {}
    for name, content in files.items():
        try:
            if name.endswith(".json"):
                texts[name] = json.dumps(content, indent=2, allow_nan=False) + "\n"
            elif name.endswith(".csv"):
                texts[name] = _csv_text(*content)
            else:
                texts[name] = content
        except ValueError as exc:
            raise DomainError(
                f"{out / name} would hold a non-finite number ({exc})"
            ) from None
    for name, text in texts.items():
        tmp = out / (name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, out / name)


def _scenario(args: argparse.Namespace) -> Scenario:
    return load_scenario(args.scenario, tuple(args.set), args.seed)


def _out_dir(args: argparse.Namespace) -> Path:
    # Made before any solve, so an unwritable --out fails at once.
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _totals(metrics: market.MatchingMetrics) -> dict:
    return {
        "total_operator_utility": metrics.total_operator_utility,
        "social_welfare": metrics.social_welfare,
        "per_operator_utility": list(metrics.per_operator_utility),
    }


def cmd_solve(args: argparse.Namespace) -> int:
    scenario, out = _scenario(args), _out_dir(args)
    outcome = market.run_fixed_point(scenario)
    caps = market.capacities(scenario)
    n_ops = len(caps)
    columns = ["opt_out"] + [f"op_{m + 1}" for m in range(n_ops)]
    assignment = market.project_matching(
        outcome.matching, caps, scenario.population,
        scenario.task.arrival_rate_per_user,
    )
    mixed = market.evaluate_matching(outcome.matching.probs, outcome.menus, scenario)
    projected = market.evaluate_matching(assignment, outcome.menus, scenario)
    report = market.verify_selection_equilibrium(assignment, outcome.menus, scenario)
    # An operator that serves nobody but could gain has an infinite ratio,
    # which JSON has no number for: it is written as null.
    gain_ratio = float(report.max_gain_ratio)

    _write_outputs(out, {
        "menus.json": {"menus": [menu_to_obj(menu) for menu in outcome.menus]},
        "matching.csv": (
            ["type", *columns],
            ([n + 1, *row] for n, row in enumerate(outcome.matching.probs)),
        ),
        "assignment.json": {
            "columns": columns,
            "assignment": [[int(x) for x in row] for row in assignment],
        },
        "trace.csv": (
            ["iteration", "temperature", "matching_residual", "menu_residual"]
            + [f"omega_{m + 1}" for m in range(n_ops)]
            + [f"objective_{m + 1}" for m in range(n_ops)],
            ([rec.iteration, rec.temperature, rec.matching_residual,
              rec.menu_residual, *rec.shadow_prices, *rec.objectives]
             for rec in outcome.trace),
            _TRACE_CSV_VERSION,
        ),
        "metrics.json": {
            "converged": bool(outcome.converged),
            "iterations": int(outcome.iterations),
            "shadow_prices": [float(w) for w in outcome.shadow_prices.omegas],
            "mixed": _totals(mixed),
            "projected": {
                **_totals(projected),
                "max_user_regret": float(report.max_regret),
                "max_operator_gain_ratio":
                    gain_ratio if math.isfinite(gain_ratio) else None,
            },
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
    scenario, out = _scenario(args), _out_dir(args)
    results = {name: benchmarks.run_method(scenario, name)
               for name in benchmarks.METHODS}
    files = {f"bench_{name.lower()}.json": benchmarks.result_to_obj(result)
             for name, result in results.items()}
    # Comparison table: one row per type; the fixed point as probabilities,
    # the one-shot mechanisms as the matched operator index (0 = opt out).
    baselines = benchmarks.METHODS[1:]
    files["comparison.csv"] = (
        ["type", "ours_opt_out"]
        + [f"ours_op_{m + 1}" for m in range(scenario.n_operators)]
        + [name.lower() for name in baselines],
        ([n + 1, *results["OURS"].mixed_matching[n]]
         + [int(np.argmax(results[name].assignment[n])) for name in baselines]
         for n in range(scenario.n_types)),
    )
    files["totals.json"] = {
        name: {
            "total_operator_utility": float(result.total_operator_utility),
            "social_welfare": float(result.social_welfare),
            "converged": bool(result.converged),
        }
        for name, result in results.items()
    }
    _write_outputs(out, files)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    axis, sep, raw_values = args.sweep.partition("=")
    if not sep or not raw_values:
        raise DomainError("--sweep must look like AXIS=v1,v2,...")
    try:
        values = tuple(float(v) for v in raw_values.split(","))
    except ValueError as exc:
        raise DomainError(f"--sweep values must be numbers ({exc})") from None
    spec = experiments.SweepSpec(
        axis=axis.strip(), values=values, replicates=args.replicates
    )
    scenario, out = _scenario(args), _out_dir(args)
    rows = experiments.run_sweep(scenario, spec)
    tables = {
        f"sweep_{spec.axis}.csv": (_DETAIL_FIELDS, [vars(row) for row in rows]),
        f"sweep_{spec.axis}_mean.csv":
            (_MEAN_FIELDS, experiments.aggregate_rows(rows)),
    }
    # The sweep CSVs end their rows in "\r\n", the csv module's default.
    _write_outputs(out, {
        name: (fields, [[record[f] for f in fields] for record in records],
               _SWEEP_CSV_VERSION, "\r\n")
        for name, (fields, records) in tables.items()
    })
    return 0


def _validate_menu_ic_ir(scenario: Scenario) -> tuple[bool, str]:
    posted, _, profiles = benchmarks.posted_menus(scenario)
    worst = np.inf
    for menu, spec, profile in zip(posted.menus(), scenario.operators, profiles):
        report = check_ic_ir(menu, scenario.population, spec.quality,
                             spec.refund, profile)
        worst = min(worst, report.ic_slack, report.ir_slack)
    return worst >= -1e-9, f"worst constraint slack {worst:.3e}"


def _validate_small_menu_oracle(scenario: Scenario) -> tuple[bool, str]:
    pop = scenario.population
    k = min(3, pop.n_types)
    # The leading types may all be empty; then solve an even split.
    counts = pop.counts[:k] if any(pop.counts[:k]) else (10,) * k
    gap = menu_grid_gap(
        replace(pop, betas=pop.betas[:k], counts=counts), scenario.operators[0],
        scenario.task, scenario.solver.zeta, scenario.solver.latency_bounds,
    )
    return gap <= 1e-3, f"objective gap {gap:.3e} vs 40-point grid"


def cmd_validate(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool, str]] = []
    scenario = _scenario(args)
    try:
        market.check_floor_feasible(scenario)
        checks.append(("floor-stability", True, "all operators stable at the demand floor"))
    except SetupError as exc:
        checks.append(("floor-stability", False, str(exc)))
        _print_checks(checks)
        return 1
    margin = bound_dominance_margin(np.random.default_rng(scenario.seed), 20, 200_000)
    checks.append(("bound-dominance", margin >= 0.0, f"worst margin {margin:.3e}"))
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
METHODS = ({methods})
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
    methods = ", ".join(json.dumps(name) for name in benchmarks.METHODS)
    files = {
        filename: _PLOT_TEMPLATE.format(axes=tuple(axes), methods=methods,
                                        stem=Path(filename).stem)
        for filename, axes in _PLOT_FAMILIES.items()
    }
    files["PLOTS.txt"] = (
        "Run `edgemarket sweep --sweep AXIS=v1,v2,... --out <this dir>` for the\n"
        "axes you want, then run each plot_*.py here with matplotlib installed.\n"
        f"Families: {json.dumps({k: list(v) for k, v in _PLOT_FAMILIES.items()}, indent=2)}\n"
    )
    _write_outputs(_out_dir(args), files)
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
    except (DomainError, SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
