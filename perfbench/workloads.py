"""Workload cells, the timed pipelines, output checks and behaviour fingerprints.

Importing this module puts the `src/` directory next to `perfbench/` first on
`sys.path`, so the benchmark always measures the sources of its own checkout
and never an installed copy. Without those sources the import fails.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "edgemarket" / "__init__.py").is_file():
    raise ImportError(f"no edgemarket sources under {SRC}")
sys.path.insert(0, str(SRC))

import edgemarket  # noqa: E402
from edgemarket import benchmarks, contracts, experiments, market, scenario  # noqa: E402
from edgemarket.errors import DomainError, SetupError  # noqa: E402

if Path(edgemarket.__file__).resolve().parent != SRC / "edgemarket":
    raise ImportError(f"edgemarket resolved to {edgemarket.__file__}, not {SRC}")

WORKLOADS = ("types256", "fleet100", "congested")
CONGESTED_USERS = (200, 300, 400, 500, 600)
# About one composition in 40 leaves the 256-type fixed point at its 50-iteration
# cap, three times the usual cost; the median over four cells' medians leaves
# such a cell out, where over two cells it would double the result.
TYPES256_SEEDS = 4
FLEET_SCALE = 100
FLEET_USERS = 15_000  # the default 150 users times the server scale: same utilisation

# Tolerances of the output checks: the same 1e-9 the screening report and the
# 0/1 projection use.
IC_IR_TOL = 1e-9
CAPACITY_TOL = 1e-9

CELL_ERRORS = (DomainError, SetupError)


@dataclass(frozen=True)
class Cell:
    id: str
    scenario: scenario.Scenario


def _fleet_overrides() -> tuple[str, ...]:
    operators = scenario.default_scenario_obj()["operators"]
    return tuple(
        f"operators.{m}.{stage}.servers={op[stage]['servers'] * FLEET_SCALE}"
        for m, op in enumerate(operators)
        for stage in ("uplink", "processing", "downlink")
    )


def build_cells(workload: str, seed: int) -> list[Cell]:
    """The workload's scenarios; compositions are drawn at `seed`, `seed + 1`, ..."""
    seeds = (seed, seed + 1)
    if workload == "types256":
        base = scenario.load_scenario(None)
        return [
            Cell(f"types256/seed={s}",
                 experiments.scenario_for_cell(base, "num_types", 256, s))
            for s in range(seed, seed + TYPES256_SEEDS)
        ]
    if workload == "fleet100":
        base = scenario.load_scenario(None, _fleet_overrides())
        return [
            Cell(f"fleet100/seed={s}",
                 experiments.scenario_for_cell(base, "total_users", FLEET_USERS, s))
            for s in seeds
        ]
    if workload == "congested":
        base = scenario.load_scenario(None)
        return [
            Cell(f"congested/users={users}/seed={s}",
                 experiments.scenario_for_cell(base, "total_users", users, s))
            for users in CONGESTED_USERS
            for s in seeds
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


# ---------------------------------------------------------------------------
# the two pipelines the CLI runs, without file output


@dataclass(frozen=True)
class SolveOutput:
    outcome: market.MarketOutcome
    assignment: np.ndarray
    mixed: market.MatchingMetrics
    projected: market.MatchingMetrics
    report: market.EquilibriumReport


def capacities(sc: scenario.Scenario) -> np.ndarray:
    return np.array([
        market.effective_capacity(spec, sc.task, sc.solver.safety)
        for spec in sc.operators
    ])


def run_solve(sc: scenario.Scenario) -> SolveOutput:
    """What `edgemarket solve` computes before it writes its files."""
    outcome = market.run_fixed_point(sc)
    assignment = market.project_matching(
        outcome.matching, capacities(sc), sc.population,
        sc.task.arrival_rate_per_user,
    )
    mixed = market.evaluate_matching(outcome.matching.probs, outcome.menus, sc)
    projected = market.evaluate_matching(assignment, outcome.menus, sc)
    report = market.verify_selection_equilibrium(assignment, outcome.menus, sc)
    return SolveOutput(outcome, assignment, mixed, projected, report)


def run_bench(sc: scenario.Scenario) -> dict[str, benchmarks.BenchmarkResult]:
    """What `edgemarket bench` (and one sweep cell) computes."""
    return {name: benchmarks.run_method(sc, name) for name in benchmarks.METHODS}


# ---------------------------------------------------------------------------
# output checks


def _menu_problems(label, menus, design, sc) -> list[str]:
    problems = []
    for m, (menu, spec) in enumerate(zip(menus, sc.operators)):
        profile = contracts.violation_profile(spec, sc.task, design[m], sc.solver.zeta)
        report = contracts.check_ic_ir(
            menu, sc.population, spec.quality, spec.refund, profile
        )
        if report.ic_slack < -IC_IR_TOL or report.ir_slack < -IC_IR_TOL:
            problems.append(
                f"{label} menu {m + 1} breaks IC/IR: ic {report.ic_slack:.3e} "
                f"ir {report.ir_slack:.3e}"
            )
    return problems


def _assignment_problems(label, assignment, sc) -> list[str]:
    a = np.asarray(assignment)
    n_ops = sc.n_operators
    if a.shape != (sc.n_types, n_ops + 1):
        return [f"{label} assignment has shape {a.shape}"]
    problems = []
    if not np.isin(a, (0, 1)).all() or not (a.sum(axis=1) == 1).all():
        problems.append(f"{label} assignment does not hold exactly one 1 per row")
    counts = np.asarray(sc.population.counts, dtype=float)
    loads = (counts[:, None] * a[:, 1:] * sc.task.arrival_rate_per_user).sum(axis=0)
    caps = capacities(sc)
    for m in np.flatnonzero(loads > caps + CAPACITY_TOL):
        problems.append(
            f"{label} assignment loads operator {m + 1} with {loads[m]:.6g} "
            f"above capacity {caps[m]:.6g}"
        )
    return problems


def check_cell(sc: scenario.Scenario, solve: SolveOutput, bench: dict) -> list[str]:
    """Every check the benchmark makes on one cell's outputs; [] when all pass."""
    outcome = solve.outcome
    problems = _menu_problems("fixed point", outcome.menus, outcome.congestion.loads, sc)
    problems += _assignment_problems("solve", solve.assignment, sc)
    for name, result in bench.items():
        problems += _menu_problems(name, result.menus, result.design_congestion, sc)
        problems += _assignment_problems(name, result.assignment, sc)
        fresh = market.evaluate_matching(result.assignment, result.menus, sc)
        if (fresh.social_welfare != result.social_welfare
                or fresh.total_operator_utility != result.total_operator_utility):
            problems.append(f"{name} stored totals differ from a fresh evaluation")
    return problems


# ---------------------------------------------------------------------------
# fingerprints and quality


def fingerprint(solve: SolveOutput, bench: dict) -> dict:
    """Iterations, converged flag and each method's welfare to 12 digits."""
    return {
        "iterations": int(solve.outcome.iterations),
        "converged": bool(solve.outcome.converged),
        "welfare": {name: f"{r.social_welfare:.12g}" for name, r in bench.items()},
    }


def output_digest(solve: SolveOutput, bench: dict) -> str:
    """Hash of every number the two pipelines return, for exact repeat checks."""
    h = hashlib.sha256()

    def add(values) -> None:
        h.update(np.ascontiguousarray(values, dtype=float).tobytes())

    outcome = solve.outcome
    add(outcome.matching.probs)
    add([outcome.iterations, outcome.converged])
    for menu in outcome.menus:
        add(menu.latencies + menu.prices)
    add(solve.assignment)
    add([solve.mixed.social_welfare, solve.projected.social_welfare,
         solve.report.max_regret, solve.report.max_gain_ratio])
    for result in bench.values():
        add(result.assignment)
        add(result.design_congestion)
        add([result.social_welfare, result.total_operator_utility])
        for menu in result.menus:
            add(menu.latencies + menu.prices)
    return h.hexdigest()


@dataclass(frozen=True)
class Quality:
    converged: bool
    welfare_ours: float
    welfare_gap_rel: float  # (OURS - best of CT/MC/GSMC) / |best|


def quality(solve: SolveOutput, bench: dict) -> Quality:
    ours = bench["OURS"].social_welfare
    best = max(bench[name].social_welfare for name in ("CT", "MC", "GSMC"))
    return Quality(
        converged=bool(solve.outcome.converged),
        welfare_ours=float(ours),
        welfare_gap_rel=float((ours - best) / abs(best)),
    )
