"""Benchmark mechanisms the market fixed point is compared against.

All three share the contracts and queueing cores, so outcome differences
isolate the coordination mechanism:

- CT: operators design once assuming they serve the whole market; users then
  pick greedily in priority order; no redesign.
- MC: users select under the CT posted menus; each operator re-solves exactly
  once against the loads it actually attracted.
- GSMC: deferred acceptance (types propose) under capacity quotas, with
  preferences read off the posted menus; one redesign after matching.

Greedy selection prices an item at the load its operator would carry: one
stage table per call gives each new (operator, load) its violation curve
through the scalar Erlang-C lane (`violation_curve`), equal bit for bit to a
checked `ViolationModel`, and loads met again are looked up. Deferred
acceptance ranks both sides with one sort each and keeps each operator's held
types in a heap keyed by its rank, so a rejection pops the held type the
operator ranks lowest instead of scanning them all. MC, GSMC and OURS
evaluate their assignment at the loads their redesign was solved at, so
their totals come from that solve's violations, with no second profile
build; CT, which is not redesigned, is evaluated from scratch.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.contracts import (
    ContractMenu,
    ItemUtilities,
    MenuSolve,
    menu_to_obj,
    stage_table,
)
from edgemarket.errors import DomainError
from edgemarket.market import (
    CAPACITY_SLACK,
    MarketOutcome,
    MatchingMetrics,
    capacities,
    check_menus,
    evaluate_matching,
    matching_totals,
    menus_for,
    profiles_at,
    project_matching,
    run_fixed_point,
    type_traffic,
)
from edgemarket.queueing import ViolationProfile, violation_curve
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

    Each operator's violation curve at a new load comes from one stage table
    (`violation_curve`, the scalar `ViolationModel`'s eta and g bit for bit),
    and the utility is `user_utility`'s arithmetic.
    """
    check_menus(menus, scenario)
    pop = scenario.population
    cfg = scenario.solver
    delta = scenario.task.arrival_rate_per_user
    specs = scenario.operators
    n_ops = len(specs)
    lanes = stage_table(specs, scenario.task).lanes
    bars = [cap + CAPACITY_SLACK for cap in capacities(scenario).tolist()]
    worth = [pop.alpha_worst * spec.quality for spec in specs]
    refunds = [spec.refund for spec in specs]
    floor = cfg.opt_out_utility - _TIE_TOL
    exp = math.exp
    assigned = [0.0] * n_ops
    # Per operator: load -> its (eta, g); types that add no traffic meet the
    # same loads again.
    curves: list[dict[float, tuple[float, float]]] = [{} for _ in specs]
    # Row n: type n's item at every operator.
    latency_rows = zip(*[menu.latencies for menu in menus])
    price_rows = zip(*[menu.prices for menu in menus])
    choices = []
    for count, beta, latencies, prices in zip(pop.counts, pop.betas,
                                              latency_rows, price_rows):
        traffic = count * delta
        best_m, best_u = -1, None
        for m, (latency, price) in enumerate(zip(latencies, prices)):
            load = assigned[m] + traffic
            if load > bars[m]:
                continue
            seen = curves[m]
            if load in seen:
                eta, g = seen[load]
            else:
                eta, g = seen[load] = violation_curve(lanes[m], load, cfg.zeta)
            # An overloaded stage pins the curve (eta 0, g 1), so the bound is 1.
            viol = g * exp(-eta * latency)
            if not viol < 1.0:
                viol = 1.0
            u = worth[m] - beta * latency - price + refunds[m] * viol
            if best_u is None or u > best_u + _TIE_TOL:
                best_m, best_u = m, u
        if best_u is not None and best_u >= floor:
            assigned[best_m] += traffic
            choices.append(best_m + 1)
        else:
            choices.append(0)
    out = np.zeros((pop.n_types, n_ops + 1), dtype=int)
    out[np.arange(pop.n_types), choices] = 1
    return out


def redesign_at_assignment(
    scenario: Scenario, assignment: np.ndarray
) -> tuple[MenuSolve, np.ndarray, np.ndarray]:
    """Each operator re-solves once against the loads it was matched.

    Returns the menu solve, the M x N design loads, which are the cumulative
    loads the assignment induces, and the N x M per-type traffic they sum: the
    solve's violations are the ones `evaluate_matching` reads for the new menus
    at this assignment.
    """
    per_type = type_traffic(np.asarray(assignment, dtype=float),
                            scenario.population.counts,
                            scenario.task.arrival_rate_per_user)
    demand = per_type.T
    design = np.cumsum(demand, axis=1)
    solve = menus_for(scenario, demand, profiles_at(scenario, design))
    return solve, design, per_type


def _result(
    name: str,
    scenario: Scenario,
    assignment: np.ndarray,
    menus: tuple[ContractMenu, ...],
    design_congestion: np.ndarray,
    totals: MatchingMetrics,
    converged: bool = True,
    mixed: np.ndarray | None = None,
) -> BenchmarkResult:
    return BenchmarkResult(
        name=name,
        assignment=np.asarray(assignment, dtype=int),
        menus=menus,
        design_congestion=np.asarray(design_congestion, dtype=float),
        total_operator_utility=totals.total_operator_utility,
        social_welfare=totals.social_welfare,
        converged=converged,
        mixed_matching=mixed,
    )


def _redesigned(
    name: str,
    scenario: Scenario,
    assignment: np.ndarray,
    converged: bool = True,
    mixed: np.ndarray | None = None,
) -> BenchmarkResult:
    """The result of one redesign at the assignment, evaluated from that
    solve: its design loads are the loads the assignment induces, so its
    violations are the ones a fresh `evaluate_matching` would build."""
    solve, design, per_type = redesign_at_assignment(scenario, assignment)
    menus = solve.menus()
    totals = matching_totals(np.asarray(assignment, dtype=float), per_type, menus,
                             scenario, solve.violations.tolist())
    return _result(name, scenario, assignment, menus, design, totals,
                   converged, mixed)


def run_ct(scenario: Scenario) -> BenchmarkResult:
    posted, design, _ = posted_menus(scenario)
    menus = posted.menus()
    assignment = greedy_selection(scenario, menus)
    totals = evaluate_matching(assignment, menus, scenario)
    return _result("CT", scenario, assignment, menus, design, totals)


def run_mc(scenario: Scenario) -> BenchmarkResult:
    assignment = greedy_selection(scenario, posted_menus(scenario)[0].menus())
    return _redesigned("MC", scenario, assignment)


def run_gsmc(scenario: Scenario) -> BenchmarkResult:
    """Deferred acceptance with user-count quotas, then one redesign."""
    pop = scenario.population
    delta = scenario.task.arrival_rate_per_user
    specs = scenario.operators
    posted = posted_menus(scenario)[0]

    # Preferences from the posted menus at their design congestion.
    utilities = ItemUtilities(pop, specs).rows(
        posted.latencies, posted.prices, posted.violations
    ).T
    cost = np.array([spec.violation_cost for spec in specs])
    exec_cost = np.array([spec.exec_cost_per_task for spec in specs])
    margins = (np.asarray(pop.counts, dtype=float) * delta
               * (posted.prices - cost[:, None] * posted.violations
                  - exec_cost[:, None]))

    # Quantize before ranking so summation noise cannot scramble ties.
    utilities = np.round(utilities / _TIE_TOL) * _TIE_TOL
    margins = np.round(margins / _TIE_TOL) * _TIE_TOL
    quotas = [int(cap // delta) for cap in capacities(scenario)]
    assignment = deferred_acceptance(
        utilities, margins, pop.counts, quotas, scenario.solver.opt_out_utility
    )
    return _redesigned("GSMC", scenario, assignment)


def _ranked(keys: np.ndarray) -> np.ndarray:
    """Each row's column indices by descending key, lower index first on ties."""
    index = np.broadcast_to(np.arange(keys.shape[1]), keys.shape)
    return np.lexsort((index, -keys), axis=1)


def deferred_acceptance(
    utilities: np.ndarray,
    margins: np.ndarray,
    counts: Sequence[int],
    quotas: Sequence[int],
    opt_out_utility: float,
) -> np.ndarray:
    """Type-proposing deferred acceptance under user-count quotas.

    utilities[n, m] is type n's utility at operator m and margins[m, n]
    operator m's margin from type n; both rank higher first, the lower index
    first on ties. A type proposes to the operators it ranks at or above
    opt_out_utility, in order; an operator over its quota rejects the held
    type it ranks lowest until it fits. Ranks are unique per operator, so
    each holds its types in a heap keyed by rank and a rejection pops the
    heap's root. Returns the N x (M+1) 0/1 assignment, column 0 the opt-out.
    """
    n_types, n_ops = utilities.shape
    acceptable = (utilities >= opt_out_utility).tolist()
    type_prefs = [
        [m for m in row if ok[m]]
        for row, ok in zip(_ranked(utilities).tolist(), acceptable)
    ]
    # rank[m][n]: position of type n in operator m's list (lower = preferred)
    rank = np.empty((n_ops, n_types), dtype=int)
    np.put_along_axis(rank, _ranked(margins), np.arange(n_types)[None, :], axis=1)
    rank = rank.tolist()

    # holds[m]: (-rank, type) of every type operator m holds; its root is the
    # held type operator m ranks lowest.
    holds: list[list[tuple[int, int]]] = [[] for _ in range(n_ops)]
    held = [0] * n_ops  # users each operator holds, kept as holds change
    next_choice = [0] * n_types
    free = deque(range(n_types))
    while free:
        n = free.popleft()
        prefs = type_prefs[n]
        if next_choice[n] >= len(prefs):
            continue  # exhausted every acceptable operator: opts out
        m = prefs[next_choice[n]]
        next_choice[n] += 1
        heapq.heappush(holds[m], (-rank[m][n], n))
        held[m] += counts[n]
        while held[m] > quotas[m]:
            _, worst = heapq.heappop(holds[m])
            held[m] -= counts[worst]
            free.append(worst)

    assignment = np.zeros((n_types, n_ops + 1), dtype=int)
    for m, members in enumerate(holds):
        for _, n in members:
            assignment[n, m + 1] = 1
    assignment[assignment.sum(axis=1) == 0, 0] = 1
    return assignment


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
    result = _redesigned("OURS", scenario, assignment, converged=outcome.converged,
                         mixed=np.array(outcome.matching.probs))
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

