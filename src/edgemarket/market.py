"""Competitive market fixed point over contract menus and a mixed matching.

Operators repeatedly redesign their menus against the congestion a mixed
user-to-operator matching induces; users respond with a softmax over
shadow-price-adjusted utilities (annealed toward hard selection); shadow
prices climb where an operator's attracted demand exceeds its effective
capacity. The loop damps the matching update and stops when both the
matching and the menus stop moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from edgemarket.contracts import (
    ContractMenu,
    ItemUtilities,
    MenuSolve,
    OperatorSpec,
    TaskSpec,
    UserTypePopulation,
    menu_objective,
    operator_utility,
    optimize_menus,
    social_welfare,
    stage_params_for,
    stage_table,
)
from edgemarket.errors import DomainError, SetupError
from edgemarket.queueing import ViolationProfile, build_profiles, left_sum, libm_exp
from edgemarket.scenario import Scenario


# ---------------------------------------------------------------------------
# market-state types


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MixedMatching:
    """Row-stochastic N x (M+1) matrix; column 0 is the opt-out option."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen_array(self.probs)
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise DomainError(
                f"matching must be N x (M+1) with M >= 1, got shape {arr.shape}"
            )
        # min and max carry a NaN through, so NaN fails each test.
        if not (arr.min(initial=0.0) >= -1e-12
                and arr.max(initial=1.0) <= 1.0 + 1e-12):
            raise DomainError("matching probabilities must lie in [0, 1]")
        if not np.abs(arr.sum(axis=1) - 1.0).max(initial=0.0) <= 1e-9:
            raise DomainError("matching rows must sum to 1")
        object.__setattr__(self, "probs", arr)

    @property
    def n_types(self) -> int:
        return self.probs.shape[0]

    @property
    def n_operators(self) -> int:
        return self.probs.shape[1] - 1


def _finite_nonnegative(arr: np.ndarray) -> bool:
    # min and max carry a NaN through, so NaN fails both tests.
    return arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < math.inf


@dataclass(frozen=True)
class ShadowPrices:
    omegas: np.ndarray  # one nonnegative congestion price per operator

    def __post_init__(self) -> None:
        arr = _frozen_array(self.omegas)
        if arr.ndim != 1:
            raise DomainError(f"omegas must be a vector, got shape {arr.shape}")
        if not _finite_nonnegative(arr):
            raise DomainError("omegas must be >= 0 and finite")
        object.__setattr__(self, "omegas", arr)


@dataclass(frozen=True)
class CongestionVector:
    """Per-operator, per-type cumulative arrival rates (priority order)."""

    loads: np.ndarray  # M x N

    def __post_init__(self) -> None:
        arr = _frozen_array(self.loads)
        if arr.ndim != 2:
            raise DomainError(f"loads must be M x N, got shape {arr.shape}")
        if not _finite_nonnegative(arr):
            raise DomainError("loads must be >= 0 and finite")
        if np.any(np.diff(arr, axis=1) < -1e-9):
            raise DomainError("loads must be cumulative (nondecreasing per operator)")
        object.__setattr__(self, "loads", arr)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    temperature: float
    matching_residual: float
    menu_residual: float
    shadow_prices: tuple[float, ...]
    objectives: tuple[float, ...]


@dataclass(frozen=True)
class MarketOutcome:
    menus: tuple[ContractMenu, ...]
    matching: MixedMatching
    shadow_prices: ShadowPrices
    congestion: CongestionVector       # cumulative loads under the final matching
    converged: bool
    iterations: int
    trace: tuple[IterationRecord, ...]
    user_side_ops: int                 # array entries the user-side updates wrote
    history: tuple[tuple[tuple[ContractMenu, ...], np.ndarray], ...] = ()

    @property
    def ops_per_iteration(self) -> float:
        return self.user_side_ops / max(self.iterations, 1)


# ---------------------------------------------------------------------------
# elementary market operations


def effective_capacity(spec: OperatorSpec, task: TaskSpec, safety: float) -> float:
    """Admissible arrival rate: safety share of the bottleneck stage capacity."""
    if not 0.0 < safety <= 1.0:
        raise DomainError(f"safety must be in (0, 1], got {safety}")
    stages = stage_params_for(spec, task, 0.0)
    return safety * min(s.service_capacity for s in stages)


# An assignment fits an operator while its load stays at most the capacity
# plus this slack: the 0/1 projection and greedy selection both admit by it.
CAPACITY_SLACK = 1e-9


def capacities(scenario: Scenario) -> np.ndarray:
    """Every operator's effective capacity under the scenario's safety share."""
    return np.array([
        effective_capacity(spec, scenario.task, scenario.solver.safety)
        for spec in scenario.operators
    ])


def profiles_at(scenario: Scenario, loads: np.ndarray) -> list[ViolationProfile]:
    """Every operator's violation profile at its row of an M x N load matrix."""
    return build_profiles(stage_table(scenario.operators, scenario.task), loads,
                          scenario.solver.zeta)


def menus_for(
    scenario: Scenario, masses: np.ndarray, profiles: list[ViolationProfile]
) -> MenuSolve:
    """Every operator's optimal menu for its row of M x N demand masses, as
    arrays; `.menus()` builds the `ContractMenu`s."""
    return optimize_menus(
        scenario.population, scenario.operators, masses, profiles,
        scenario.solver.latency_bounds,
    )


def _check_rows(probs: np.ndarray, n_types: int) -> None:
    if probs.shape[0] != n_types:
        raise DomainError(
            f"matching has {probs.shape[0]} rows, population has {n_types} types"
        )


def type_traffic(probs: np.ndarray, counts, delta: float) -> np.ndarray:
    """Each type's task rate to every operator, N x M, from the N x (M+1)
    matching matrix and the N user counts: (counts x probs) x delta, in that
    order."""
    counts = np.asarray(counts, dtype=float)
    _check_rows(probs, counts.shape[0])
    return counts[:, None] * probs[:, 1:] * delta


def cumulative_load(per_type: np.ndarray) -> np.ndarray:
    """M x N load each type's priority class carries: its own traffic plus all
    higher-priority traffic routed to the same operator, from the N x M
    per-type traffic."""
    return np.cumsum(per_type, axis=0).T


def mixed_response(
    adjusted: np.ndarray, opt_out_utility: float, temperature: float
) -> np.ndarray:
    """N x (M+1) softmax over opting out and each operator's adjusted utility."""
    if not temperature > 0.0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    utils = np.asarray(adjusted, dtype=float)
    if utils.ndim != 2 or utils.shape[1] < 1:
        raise DomainError(
            f"adjusted utilities must be N x M with M >= 1, got shape {utils.shape}"
        )
    scores = np.empty((utils.shape[0], utils.shape[1] + 1))
    scores[:, 0] = opt_out_utility
    scores[:, 1:] = utils
    # The largest magnitude over the temperature bounds every scaled score,
    # and twice it every difference of two: where that is finite, no step
    # below overflows or meets inf - inf. A NaN fails the test as well.
    if not 2.0 * (float(np.abs(scores).max()) / temperature) < math.inf:
        raise DomainError(
            "adjusted utilities must be finite after dividing by the temperature"
        )
    scores /= temperature
    scores -= scores.max(axis=1, keepdims=True)
    # `math.exp`'s bits, so the matching does not depend on numpy's CPU
    # dispatch.
    weights = libm_exp(scores)
    # Each row's largest weight is exp(0) = 1, so every total is at least 1
    # and the quotients form a matching (each in [0, 1], rows summing to 1 up
    # to rounding).
    return weights / weights.sum(axis=1, keepdims=True)


def damp(previous: np.ndarray, response: np.ndarray, damping: float) -> np.ndarray:
    """The N x (M+1) blend of the previous matching and the response."""
    if not 0.0 < damping <= 1.0:
        raise DomainError(f"damping must be in (0, 1], got {damping}")
    if previous.shape != response.shape:
        raise DomainError(
            f"matching shapes differ: {previous.shape} vs {response.shape}"
        )
    return (1.0 - damping) * previous + damping * response


def update_shadow_prices(
    omegas: np.ndarray,
    demand: np.ndarray,
    capacities: np.ndarray,
    price_step: float,
) -> np.ndarray:
    """Projected subgradient step on each operator's relative excess demand."""
    if not price_step > 0.0:
        raise DomainError(f"price_step must be > 0, got {price_step}")
    caps = np.asarray(capacities, dtype=float)
    if not (caps > 0.0).all():  # NaN fails this too
        raise DomainError("capacities must be > 0")
    omegas = np.maximum(0.0, omegas + price_step * (demand - caps) / caps)
    # np.maximum keeps every price >= 0 and carries a NaN through.
    if not omegas.max(initial=0.0) < math.inf:
        raise DomainError("shadow prices must stay finite")
    return omegas


def demand_mass(probs: np.ndarray, traffic: np.ndarray, floor: float) -> np.ndarray:
    """M x N design demand per operator and type, never below the floor share,
    from the N x (M+1) matching matrix and each type's task rate."""
    if not 0.0 < floor < 1.0:
        raise DomainError(f"floor must be in (0, 1), got {floor}")
    _check_rows(probs, traffic.shape[0])
    return (traffic[:, None] * ((1.0 - floor) * probs[:, 1:] + floor)).T


def anneal(schedule: tuple[float, float], k: int, total: int) -> float:
    """Geometric interpolation from schedule[0] at k=0 to schedule[1] at k=total."""
    start, end = schedule
    if not end > 0.0 or start < end:
        raise DomainError(
            f"temperature schedule must satisfy start >= end > 0, got {schedule}"
        )
    if total < 1:
        raise DomainError(f"total must be >= 1, got {total}")
    if not 0 <= k <= total:
        raise DomainError(f"k must be in [0, {total}], got {k}")
    return start * (end / start) ** (k / total)


# ---------------------------------------------------------------------------
# fixed-point engine


def _floor_congestion(scenario: Scenario) -> np.ndarray:
    counts = np.asarray(scenario.population.counts, dtype=float)
    delta = scenario.task.arrival_rate_per_user
    return scenario.solver.demand_floor * np.cumsum(counts * delta)


def check_floor_feasible(scenario: Scenario) -> None:
    """Every operator must be stable when carrying the demand floor alone."""
    floor_total = float(_floor_congestion(scenario)[-1])
    for m, spec in enumerate(scenario.operators):
        stages = stage_params_for(spec, scenario.task, floor_total)
        for s in stages:
            if not s.is_stable:
                raise SetupError(
                    f"operator {m + 1} is unstable under the demand floor: "
                    f"{floor_total:.6g} tasks/s against stage capacity "
                    f"{s.service_capacity:.6g}"
                )


def run_fixed_point(scenario: Scenario, keep_history: bool = False) -> MarketOutcome:
    """Anneal the mixed matching against per-iteration menu redesigns.

    Each state carries its redesign: its cumulative loads and every
    operator's menu solve at its demand masses. A round reads the redesign of
    the state it starts from and ends with the one at the state it produced,
    so the returned menus answer the returned matching's congestion.
    Non-convergence within max_iters is not an error: the iterate with the
    smallest matching residual is returned, with its redesign, and
    converged=False.

    The round's state is plain arrays: the matching matrix, the shadow prices
    and each type's traffic to every operator, which prices the shadow step
    and gives the cumulative loads. The stage table, the capacities and the
    per-type constants are built once per solve; the checked `MixedMatching`,
    `ShadowPrices` and `CongestionVector` are built once, for the returned
    outcome.
    """
    cfg = scenario.solver
    check_floor_feasible(scenario)
    pop = scenario.population
    n_ops = scenario.n_operators
    delta = scenario.task.arrival_rate_per_user
    counts = np.asarray(pop.counts, dtype=float)
    traffic = counts * delta  # each type's task rate
    caps = capacities(scenario)
    per_capacity = caps[None, :]
    utility = ItemUtilities(pop, scenario.operators)
    # Every round's profiles come from one stage table.
    table = stage_table(scenario.operators, scenario.task)

    def redesign(probs, per_type) -> tuple[np.ndarray, MenuSolve]:
        """The cumulative loads and every operator's menu solve at a state."""
        loads = cumulative_load(per_type)
        masses = demand_mass(probs, traffic, cfg.demand_floor)
        return loads, menus_for(scenario, masses,
                                build_profiles(table, loads, cfg.zeta))

    # Initial menus: no-competition design against the demand floor alone.
    floor_loads = np.tile(_floor_congestion(scenario), (n_ops, 1))
    floor_masses = np.tile(cfg.demand_floor * counts * delta, (n_ops, 1))
    solve = menus_for(scenario, floor_masses,
                      build_profiles(table, floor_loads, cfg.zeta))
    latencies = solve.latencies
    probs = np.full((pop.n_types, n_ops + 1), 1.0 / (n_ops + 1))
    omegas = np.zeros(n_ops)
    per_type = type_traffic(probs, counts, delta)

    user_side_ops = 0
    trace: list[IterationRecord] = []
    history: list[tuple[tuple[ContractMenu, ...], np.ndarray]] = []
    if keep_history:
        history.append((solve.menus(), floor_loads))

    loads, solve = redesign(probs, per_type)
    converged = False
    best_residual = math.inf
    best = (probs, omegas, loads, solve)

    for k in range(1, cfg.max_iters + 1):
        temperature = anneal(cfg.temp_schedule, k, cfg.max_iters)
        menu_res = float(np.max(np.abs(solve.latencies - latencies)))

        utilities = utility.rows(solve.latencies, solve.prices, solve.violations).T
        adjusted = utilities - omegas[None, :] * traffic[:, None] / per_capacity
        response = mixed_response(adjusted, cfg.opt_out_utility, temperature)
        new_probs = damp(probs, response, cfg.damping)
        matching_res = float(np.max(np.abs(new_probs - probs)))
        per_type = type_traffic(new_probs, counts, delta)
        omegas = update_shadow_prices(omegas, per_type.sum(axis=0), caps,
                                      cfg.price_step)
        # The round's loads and masses are M x N each.
        user_side_ops += (2 * loads.size + adjusted.size
                          + response.size + new_probs.size + omegas.size)

        trace.append(IterationRecord(
            iteration=k,
            temperature=temperature,
            matching_residual=matching_res,
            menu_residual=menu_res,
            shadow_prices=tuple(omegas.tolist()),
            objectives=tuple(solve.profits.tolist()),
        ))
        if keep_history:
            history.append((solve.menus(), np.array(loads)))

        latencies = solve.latencies
        probs = new_probs
        converged = matching_res < cfg.matching_tol and menu_res < cfg.menu_tol
        improved = matching_res < best_residual
        # Only a state that the next round or the outcome reads is redesigned.
        if converged or improved or k < cfg.max_iters:
            loads, solve = redesign(probs, per_type)
        if improved:
            best_residual = matching_res
            best = (probs, omegas, loads, solve)
        if converged:
            break

    if not converged:
        probs, omegas, loads, solve = best
    menus = solve.menus()
    if keep_history:
        history.append((menus, np.array(loads)))

    return MarketOutcome(
        menus=menus,
        matching=MixedMatching(probs),
        shadow_prices=ShadowPrices(omegas),
        congestion=CongestionVector(loads),
        converged=converged,
        iterations=len(trace),
        trace=tuple(trace),
        user_side_ops=user_side_ops,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# projection to a deterministic matching and equilibrium audit


def project_matching(
    matching: MixedMatching,
    capacities: np.ndarray,
    population: UserTypePopulation,
    delta: float,
) -> np.ndarray:
    """Round the mixed matching to a capacity-feasible 0/1 assignment.

    Types are processed in priority order, which is the type index since
    `UserTypePopulation` keeps the latency sensitivities nonincreasing; each
    takes its highest-probability option that still fits, preferring
    lower operator indices on ties and opting out only after operators.
    """
    caps = np.asarray(capacities, dtype=float)
    if matching.n_operators != caps.shape[0]:
        raise DomainError(
            f"matching has {matching.n_operators} operators, capacities has "
            f"{caps.shape[0]}"
        )
    _check_rows(matching.probs, population.n_types)
    n_types, n_ops = matching.n_types, matching.n_operators
    # Every row's options by probability, then operator index, with the
    # opt-out (column 0) last among equals: one sort for the whole matrix.
    tie_rank = np.arange(n_ops + 1)
    tie_rank[0] = n_ops + 1
    order = np.lexsort(
        (np.broadcast_to(tie_rank, matching.probs.shape), -matching.probs), axis=1
    )
    assigned = [0.0] * n_ops
    bars = [cap + CAPACITY_SLACK for cap in caps.tolist()]
    choices = []
    for count, candidates in zip(population.counts, order.tolist()):
        traffic = count * delta
        for c in candidates:
            if c == 0:
                break
            load = assigned[c - 1] + traffic
            if load <= bars[c - 1]:
                assigned[c - 1] = load
                break
        choices.append(c)
    out = np.zeros((n_types, n_ops + 1), dtype=int)
    out[np.arange(n_types), choices] = 1
    return out


@dataclass(frozen=True)
class EquilibriumReport:
    """User-side regret and operator-side best-response audit of an assignment."""

    regrets: tuple[float, ...]          # per type; 0 for opted-out types
    max_regret: float
    worst_pair: tuple[int, int] | None  # 1-based (type, operator) of max regret
    max_gain_ratio: float               # best-response gain / |operator utility|


def check_menus(menus: tuple[ContractMenu, ...], scenario: Scenario) -> None:
    """One menu per operator, with one item per type."""
    n_ops, n_types = scenario.n_operators, scenario.n_types
    if len(menus) < n_ops:
        raise DomainError(
            f"operator {len(menus) + 1} has no menu: got {len(menus)} menus for "
            f"{n_ops} operators"
        )
    if len(menus) > n_ops:
        raise DomainError(
            f"menu {n_ops + 1} has no operator: got {len(menus)} menus for "
            f"{n_ops} operators"
        )
    for m, menu in enumerate(menus):
        if len(menu.latencies) != n_types:
            raise DomainError(
                f"operator {m + 1}'s menu has {len(menu.latencies)} items, "
                f"expected one per type ({n_types})"
            )


def verify_selection_equilibrium(
    assignment: np.ndarray,
    menus: tuple[ContractMenu, ...],
    scenario: Scenario,
) -> EquilibriumReport:
    """Audit a deterministic assignment against unilateral deviations.

    User side: every matched type must weakly prefer its item over the same
    type's item at any rival (evaluated at the congestion this assignment
    induces) and over zero. Operator side: re-running the menu solve at the
    assignment's demand must not improve the objective materially.
    """
    check_menus(menus, scenario)
    a = MixedMatching(np.asarray(assignment, dtype=float)).probs
    pop = scenario.population
    per_type = type_traffic(a, pop.counts, scenario.task.arrival_rate_per_user)
    mixed = np.flatnonzero((a != 0.0) & (a != 1.0))
    if mixed.size:
        n, j = divmod(int(mixed[0]), a.shape[1])
        raise DomainError(
            f"assignment must hold only 0 and 1: type {n + 1} has "
            f"{float(a[n, j])!r} in column {j}"
        )
    profiles = profiles_at(scenario, cumulative_load(per_type))
    viols = [profile.probs(menu.latencies) for menu, profile in zip(menus, profiles)]
    utilities = ItemUtilities(pop, scenario.operators).rows(
        np.array([menu.latencies for menu in menus]),
        np.array([menu.prices for menu in menus]),
        np.array(viols),
    ).T

    regrets = []
    blamed = []  # operator column (1-based) behind each type's regret
    for matched, row in zip(a.argmax(axis=1).tolist(), utilities.tolist()):
        if matched == 0:
            regrets.append(0.0)
            blamed.append(0)
            continue
        achieved = row[matched - 1]
        rival_best, rival = -math.inf, matched
        for m, utility in enumerate(row):
            if m != matched - 1 and utility > rival_best:
                rival_best, rival = utility, m + 1
        # IR shortfalls blame the matched operator itself
        if -achieved > rival_best - achieved:
            regrets.append(max(-achieved, 0.0))
            blamed.append(matched)
        else:
            regrets.append(max(rival_best - achieved, 0.0))
            blamed.append(rival)

    demand = per_type.T
    # Each operator's profit from re-solving its menu at this demand.
    improved = menus_for(scenario, demand, profiles).profits.tolist()
    gains, op_utils = [], []
    for m, (spec, profile) in enumerate(zip(scenario.operators, profiles)):
        current = menu_objective(menus[m].latencies, pop, spec, demand[m], profile)
        gains.append(improved[m] - current)
        op_utils.append(operator_utility(menus[m], demand[m].tolist(), spec, viols[m]))

    gain_ratios = [
        g / abs(u) if abs(u) > 0.0 else (0.0 if g <= 0.0 else math.inf)
        for g, u in zip(gains, op_utils)
    ]
    max_regret = max(regrets) if regrets else 0.0
    worst_pair = None
    if max_regret > 0.0:
        worst_n = int(np.argmax(regrets))
        worst_pair = (worst_n + 1, blamed[worst_n])
    return EquilibriumReport(
        regrets=tuple(regrets),
        max_regret=max_regret,
        worst_pair=worst_pair,
        max_gain_ratio=max(gain_ratios) if gain_ratios else 0.0,
    )


# ---------------------------------------------------------------------------
# outcome evaluation


@dataclass(frozen=True)
class MatchingMetrics:
    total_operator_utility: float
    social_welfare: float
    per_operator_utility: tuple[float, ...]


def evaluate_matching(
    matching_probs: np.ndarray,
    menus: tuple[ContractMenu, ...],
    scenario: Scenario,
) -> MatchingMetrics:
    """Recompute utilities and welfare from first principles for any matching
    matrix (mixed or 0/1)."""
    check_menus(menus, scenario)
    probs = MixedMatching(np.asarray(matching_probs, dtype=float)).probs
    per_type = type_traffic(probs, scenario.population.counts,
                            scenario.task.arrival_rate_per_user)
    profiles = profiles_at(scenario, cumulative_load(per_type))
    viols = [profile.probs(menu.latencies) for menu, profile in zip(menus, profiles)]
    return matching_totals(probs, per_type, menus, scenario, viols)


def matching_totals(
    probs: np.ndarray,
    per_type: np.ndarray,
    menus: tuple[ContractMenu, ...],
    scenario: Scenario,
    violations: list[list[float]],
) -> MatchingMetrics:
    """`evaluate_matching`'s totals from the N x (M+1) matching matrix it has
    checked, its N x M `type_traffic` and each operator's violations at its own
    items, at the loads the matching induces (`violations[m][n]` for operator
    m's item n)."""
    pop = scenario.population
    per_op = [
        operator_utility(menu, op_loads, spec, op_viols)
        for menu, op_loads, spec, op_viols in zip(
            menus, per_type.T.tolist(), scenario.operators, violations)
    ]
    welfare = social_welfare(
        menus, probs, pop, scenario.task, scenario.operators, violations,
        scenario.solver.opt_out_utility,
    )
    return MatchingMetrics(
        total_operator_utility=float(left_sum(per_op)),
        social_welfare=float(welfare),
        per_operator_utility=tuple(float(x) for x in per_op),
    )
