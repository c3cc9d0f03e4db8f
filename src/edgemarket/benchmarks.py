"""Benchmark mechanisms the market fixed point is compared against.

All three share the contracts and queueing cores, so outcome differences
isolate the coordination mechanism:

- CT: operators design once assuming they serve the whole market; users then
  pick greedily in priority order; no redesign.
- MC: users select under the CT posted menus; each operator re-solves exactly
  once against the loads it actually attracted.
- GSMC: deferred acceptance (types propose) under capacity quotas, with
  preferences read off the posted menus; one redesign after matching.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from edgemarket.contracts import (
    ContractMenu,
    MenuSolve,
    item_utility_rows,
    menu_from_obj,
    menu_to_obj,
    stage_params_for,
    user_utility,
)
from edgemarket.errors import DomainError
from edgemarket.market import (
    MarketOutcome,
    capacities,
    evaluate_matching,
    menus_for,
    profiles_at,
    project_matching,
    run_fixed_point,
)
from edgemarket.queueing import ViolationModel, ViolationProfile, violation_prob
from edgemarket.scenario import Scenario

METHODS = ("OURS", "CT", "MC", "GSMC")

# Utilities that differ by less than this are economic ties (the worst type
# nets exactly zero everywhere, up to summation noise); ties must collapse to
# the documented lowest-index preference or determinism is lost.
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class BenchmarkResult:
    """A deterministic assignment plus the menus it was evaluated under.

    Stored totals are always recomputable from assignment + menus; OURS
    additionally carries the mixed matching the assignment was projected from.
    """

    name: str
    assignment: np.ndarray             # N x (M+1) 0/1, column 0 = opt-out
    menus: tuple[ContractMenu, ...]
    design_congestion: np.ndarray      # M x N loads the menus were designed under
    total_operator_utility: float
    social_welfare: float
    converged: bool = True
    mixed_matching: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.name not in METHODS:
            raise DomainError(f"name must be one of {METHODS}, got {self.name!r}")


def posted_menus(
    scenario: Scenario,
) -> tuple[MenuSolve, np.ndarray, list[ViolationProfile]]:
    """No-competition menus: each operator designs as if it served everyone.

    Returns the posted menus as a `MenuSolve` (`.menus()` builds them), the
    M x N design loads and each operator's violation profile at those loads.
    """
    full_masses = (np.asarray(scenario.population.counts, dtype=float)
                   * scenario.task.arrival_rate_per_user)
    per_operator = (scenario.n_operators, 1)
    design = np.tile(np.cumsum(full_masses), per_operator)
    masses = np.tile(full_masses, per_operator)
    profiles = profiles_at(scenario, design)
    return menus_for(scenario, masses, profiles), design, profiles


def greedy_selection(
    scenario: Scenario, menus: tuple[ContractMenu, ...]
) -> np.ndarray:
    """One deterministic pass in priority order over posted menus.

    Priority order is the type index, since `UserTypePopulation` keeps the
    latency sensitivities nonincreasing. Each type joins the operator giving
    it the highest utility at the congestion it would actually experience
    (higher-priority traffic already placed plus its own), skipping operators
    it would overload; it opts out only when every affordable operator falls
    below the opt-out utility.
    """
    pop = scenario.population
    task = scenario.task
    cfg = scenario.solver
    delta = task.arrival_rate_per_user
    n_ops = len(scenario.operators)
    caps = capacities(scenario)
    assigned = np.zeros(n_ops)
    out = np.zeros((pop.n_types, n_ops + 1), dtype=int)
    # (operator, load) -> its violation model, or None where a stage is
    # overloaded; types that add no traffic meet the same loads again.
    models: dict[tuple[int, float], ViolationModel | None] = {}
    for n in range(pop.n_types):
        traffic = pop.counts[n] * delta
        best_m, best_u = None, None
        for m, spec in enumerate(scenario.operators):
            if assigned[m] + traffic > caps[m] + 1e-9:
                continue
            latency = menus[m].latencies[n]
            key = (m, float(assigned[m] + traffic))
            if key not in models:
                stages = stage_params_for(spec, task, key[1])
                models[key] = (ViolationModel.from_stages(stages, cfg.zeta)
                               if all(s.is_stable for s in stages) else None)
            model = models[key]
            if model is not None:
                viol = violation_prob(model, latency)
            else:
                viol = 1.0  # an overloaded stage pins the bound, as in a profile
            u = user_utility(latency, menus[m].prices[n], pop.betas[n],
                             pop.alpha_worst, spec.quality, viol, spec.refund)
            if best_u is None or u > best_u + _TIE_TOL:
                best_m, best_u = m, u
        if best_u is not None and best_u >= cfg.opt_out_utility - _TIE_TOL:
            out[n, best_m + 1] = 1
            assigned[best_m] += traffic
        else:
            out[n, 0] = 1
    return out


def redesign_at_assignment(
    scenario: Scenario, assignment: np.ndarray
) -> tuple[tuple[ContractMenu, ...], np.ndarray]:
    """Each operator re-solves once against the loads it was matched."""
    counts = np.asarray(scenario.population.counts, dtype=float)
    a = np.asarray(assignment, dtype=float)
    demand = (counts[:, None] * a[:, 1:] * scenario.task.arrival_rate_per_user).T
    design = np.cumsum(demand, axis=1)
    menus = menus_for(scenario, demand, profiles_at(scenario, design)).menus()
    return menus, design


def _finish(
    name: str,
    scenario: Scenario,
    assignment: np.ndarray,
    menus: tuple[ContractMenu, ...],
    design_congestion: np.ndarray,
    converged: bool = True,
    mixed: np.ndarray | None = None,
) -> BenchmarkResult:
    m = evaluate_matching(assignment, menus, scenario)
    return BenchmarkResult(
        name=name,
        assignment=np.asarray(assignment, dtype=int),
        menus=menus,
        design_congestion=np.asarray(design_congestion, dtype=float),
        total_operator_utility=m.total_operator_utility,
        social_welfare=m.social_welfare,
        converged=converged,
        mixed_matching=mixed,
    )


def run_ct(scenario: Scenario) -> BenchmarkResult:
    posted, design, _ = posted_menus(scenario)
    menus = posted.menus()
    assignment = greedy_selection(scenario, menus)
    return _finish("CT", scenario, assignment, menus, design)


def run_mc(scenario: Scenario) -> BenchmarkResult:
    assignment = greedy_selection(scenario, posted_menus(scenario)[0].menus())
    new_menus, design = redesign_at_assignment(scenario, assignment)
    return _finish("MC", scenario, assignment, new_menus, design)


def run_gsmc(scenario: Scenario) -> BenchmarkResult:
    """Deferred acceptance with user-count quotas, then one redesign."""
    pop = scenario.population
    cfg = scenario.solver
    delta = scenario.task.arrival_rate_per_user
    specs = scenario.operators
    n_ops = len(specs)
    posted = posted_menus(scenario)[0]

    # Preferences from the posted menus at their design congestion.
    utilities = item_utility_rows(
        pop, specs, posted.latencies, posted.prices, posted.violations
    ).T
    cost = np.array([spec.violation_cost for spec in specs])
    exec_cost = np.array([spec.exec_cost_per_task for spec in specs])
    margins = (np.asarray(pop.counts, dtype=float) * delta
               * (posted.prices - cost[:, None] * posted.violations
                  - exec_cost[:, None]))

    # Quantize before ranking so summation noise cannot scramble ties.
    utilities = np.round(utilities / _TIE_TOL) * _TIE_TOL
    margins = np.round(margins / _TIE_TOL) * _TIE_TOL
    type_prefs = []
    for n in range(pop.n_types):
        ranked = sorted(range(n_ops), key=lambda m: (-utilities[n, m], m))
        type_prefs.append(
            [m for m in ranked if utilities[n, m] >= cfg.opt_out_utility]
        )
    # rank[m][n]: position of type n in operator m's list (lower = preferred)
    op_rank = []
    for m in range(n_ops):
        ranked = sorted(range(pop.n_types), key=lambda n: (-margins[m, n], n))
        op_rank.append({n: i for i, n in enumerate(ranked)})

    quotas = [int(cap // delta) for cap in capacities(scenario)]
    holds: list[set[int]] = [set() for _ in range(n_ops)]
    held = [0] * n_ops  # users each operator holds, kept as holds change
    next_choice = [0] * pop.n_types
    free = list(range(pop.n_types))
    while free:
        n = free.pop(0)
        if next_choice[n] >= len(type_prefs[n]):
            continue  # exhausted every acceptable operator: opts out
        m = type_prefs[n][next_choice[n]]
        next_choice[n] += 1
        holds[m].add(n)
        held[m] += pop.counts[n]
        while held[m] > quotas[m]:
            worst = max(holds[m], key=lambda j: op_rank[m][j])
            holds[m].discard(worst)
            held[m] -= pop.counts[worst]
            free.append(worst)

    assignment = np.zeros((pop.n_types, n_ops + 1), dtype=int)
    for m, members in enumerate(holds):
        for n in members:
            assignment[n, m + 1] = 1
    assignment[assignment.sum(axis=1) == 0, 0] = 1

    new_menus, design = redesign_at_assignment(scenario, assignment)
    return _finish("GSMC", scenario, assignment, new_menus, design)


def run_ours(scenario: Scenario) -> tuple[BenchmarkResult, MarketOutcome]:
    """Market fixed point, projected to a deterministic assignment.

    For the head-to-head comparison the projected assignment gets the same
    single menu redesign at its served loads that MC and GSMC receive;
    otherwise menus tuned for the mixed state are graded on a deterministic
    assignment they were not designed for. The returned MarketOutcome keeps
    the untouched fixed-point menus.
    """
    outcome = run_fixed_point(scenario)
    assignment = project_matching(
        outcome.matching, capacities(scenario), scenario.population,
        scenario.task.arrival_rate_per_user,
    )
    menus, design = redesign_at_assignment(scenario, assignment)
    result = _finish(
        "OURS", scenario, assignment, menus, design,
        converged=outcome.converged,
        mixed=np.array(outcome.matching.probs),
    )
    return result, outcome


def run_method(scenario: Scenario, name: str) -> BenchmarkResult:
    if name == "OURS":
        return run_ours(scenario)[0]
    if name == "CT":
        return run_ct(scenario)
    if name == "MC":
        return run_mc(scenario)
    if name == "GSMC":
        return run_gsmc(scenario)
    raise DomainError(f"unknown method {name!r}; expected one of {METHODS}")


def result_to_obj(result: BenchmarkResult) -> dict:
    obj = {
        "name": result.name,
        "assignment": [[int(x) for x in row] for row in result.assignment],
        "menus": [menu_to_obj(menu) for menu in result.menus],
        "design_congestion": [
            [float(x) for x in row] for row in result.design_congestion
        ],
        "total_operator_utility": float(result.total_operator_utility),
        "social_welfare": float(result.social_welfare),
        "converged": bool(result.converged),
    }
    if result.mixed_matching is not None:
        obj["mixed_matching"] = [
            [float(x) for x in row] for row in result.mixed_matching
        ]
    return obj


def result_from_obj(obj: dict) -> BenchmarkResult:
    mixed = obj.get("mixed_matching")
    return BenchmarkResult(
        name=obj["name"],
        assignment=np.array(obj["assignment"], dtype=int),
        menus=tuple(menu_from_obj(m) for m in obj["menus"]),
        design_congestion=np.array(obj["design_congestion"], dtype=float),
        total_operator_utility=float(obj["total_operator_utility"]),
        social_welfare=float(obj["social_welfare"]),
        converged=bool(obj.get("converged", True)),
        mixed_matching=None if mixed is None else np.array(mixed, dtype=float),
    )
