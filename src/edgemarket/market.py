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
from dataclasses import dataclass, field

import numpy as np

from edgemarket.contracts import (
    ContractMenu,
    OperatorSpec,
    TaskSpec,
    UserTypePopulation,
    menu_objective,
    operator_utility,
    optimize_menu_with_profile,
    social_welfare,
    stage_params_for,
    user_utility,
    violation_profile,
)
from edgemarket.errors import DomainError, SetupError
from edgemarket.queueing import ViolationProfile
from edgemarket.scenario import Scenario, SolverConfig


# ---------------------------------------------------------------------------
# market-state types


def _frozen_array(values, shape: tuple[int, ...] | None = None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if shape is not None and arr.shape != shape:
        raise DomainError(f"expected array of shape {shape}, got {arr.shape}")
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
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise DomainError("matching probabilities must lie in [0, 1]")
        row_sums = arr.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise DomainError("matching rows must sum to 1")
        object.__setattr__(self, "probs", arr)

    @classmethod
    def uniform(cls, n_types: int, n_operators: int) -> MixedMatching:
        return cls(np.full((n_types, n_operators + 1), 1.0 / (n_operators + 1)))

    @property
    def n_types(self) -> int:
        return self.probs.shape[0]

    @property
    def n_operators(self) -> int:
        return self.probs.shape[1] - 1


@dataclass(frozen=True)
class ShadowPrices:
    omegas: np.ndarray  # one nonnegative congestion price per operator

    def __post_init__(self) -> None:
        arr = _frozen_array(self.omegas)
        if arr.ndim != 1:
            raise DomainError(f"omegas must be a vector, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise DomainError("omegas must be >= 0")
        object.__setattr__(self, "omegas", arr)

    @classmethod
    def zeros(cls, n_operators: int) -> ShadowPrices:
        return cls(np.zeros(n_operators))


@dataclass(frozen=True)
class CongestionVector:
    """Per-operator, per-type cumulative arrival rates (priority order)."""

    loads: np.ndarray  # M x N

    def __post_init__(self) -> None:
        arr = _frozen_array(self.loads)
        if arr.ndim != 2:
            raise DomainError(f"loads must be M x N, got shape {arr.shape}")
        if np.any(arr < 0.0):
            raise DomainError("loads must be >= 0")
        if np.any(np.diff(arr, axis=1) < -1e-9):
            raise DomainError("loads must be cumulative (nondecreasing per operator)")
        object.__setattr__(self, "loads", arr)


@dataclass
class OpCounter:
    """User-side elementary operation counts (matrix entries touched)."""

    utility_evals: int = 0
    response_entries: int = 0
    damp_updates: int = 0
    load_entries: int = 0
    mass_entries: int = 0
    price_updates: int = 0

    @property
    def total(self) -> int:
        return (self.utility_evals + self.response_entries + self.damp_updates
                + self.load_entries + self.mass_entries + self.price_updates)


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
    demand_masses: np.ndarray          # M x N design demand under the final matching
    converged: bool
    iterations: int
    trace: tuple[IterationRecord, ...]
    counter: OpCounter
    history: tuple[tuple[tuple[ContractMenu, ...], np.ndarray], ...] = ()

    @property
    def ops_per_iteration(self) -> float:
        return self.counter.total / max(self.iterations, 1)


# ---------------------------------------------------------------------------
# elementary market operations


def effective_capacity(spec: OperatorSpec, task: TaskSpec, safety: float) -> float:
    """Admissible arrival rate: safety share of the bottleneck stage capacity."""
    if not 0.0 < safety <= 1.0:
        raise DomainError(f"safety must be in (0, 1], got {safety}")
    stages = stage_params_for(spec, task, 0.0)
    return safety * min(s.service_capacity for s in stages)


def cumulative_load(
    matching: MixedMatching, population: UserTypePopulation, delta: float
) -> CongestionVector:
    """Load each type's priority class carries: its own traffic plus all
    higher-priority traffic routed to the same operator."""
    if matching.n_types != population.n_types:
        raise DomainError(
            f"matching has {matching.n_types} rows, population has "
            f"{population.n_types} types"
        )
    counts = np.asarray(population.counts, dtype=float)
    per_type = counts[:, None] * matching.probs[:, 1:] * delta  # N x M
    return CongestionVector(np.cumsum(per_type, axis=0).T)


def adjusted_utility(
    utility: float, omega: float, type_traffic: float, capacity: float
) -> float:
    """Utility net of the operator's congestion price on this type's traffic."""
    if not capacity > 0.0:
        raise DomainError(f"capacity must be > 0, got {capacity}")
    return utility - omega * type_traffic / capacity


def mixed_response(
    adjusted: np.ndarray, opt_out_utility: float, temperature: float
) -> MixedMatching:
    """Softmax over opting out and each operator's adjusted utility."""
    if not temperature > 0.0:
        raise DomainError(f"temperature must be > 0, got {temperature}")
    utils = np.asarray(adjusted, dtype=float)
    if utils.ndim != 2:
        raise DomainError(f"adjusted utilities must be N x M, got shape {utils.shape}")
    scores = np.column_stack([np.full(utils.shape[0], opt_out_utility), utils])
    scores = scores / temperature
    scores -= scores.max(axis=1, keepdims=True)
    weights = np.exp(scores)
    return MixedMatching(weights / weights.sum(axis=1, keepdims=True))


def damp(
    previous: MixedMatching, response: MixedMatching, damping: float
) -> MixedMatching:
    if not 0.0 < damping <= 1.0:
        raise DomainError(f"damping must be in (0, 1], got {damping}")
    if previous.probs.shape != response.probs.shape:
        raise DomainError(
            f"matching shapes differ: {previous.probs.shape} vs "
            f"{response.probs.shape}"
        )
    return MixedMatching(
        (1.0 - damping) * previous.probs + damping * response.probs
    )


def update_shadow_prices(
    prices: ShadowPrices,
    matching: MixedMatching,
    population: UserTypePopulation,
    delta: float,
    capacities: np.ndarray,
    price_step: float,
) -> ShadowPrices:
    """Projected subgradient step on relative excess demand."""
    if not price_step > 0.0:
        raise DomainError(f"price_step must be > 0, got {price_step}")
    caps = np.asarray(capacities, dtype=float)
    if np.any(caps <= 0.0):
        raise DomainError("capacities must be > 0")
    counts = np.asarray(population.counts, dtype=float)
    demand = (counts[:, None] * matching.probs[:, 1:] * delta).sum(axis=0)
    return ShadowPrices(
        np.maximum(0.0, prices.omegas + price_step * (demand - caps) / caps)
    )


def demand_mass(
    matching: MixedMatching,
    population: UserTypePopulation,
    delta: float,
    floor: float,
) -> np.ndarray:
    """Design demand per operator and type, never below the floor share."""
    if not 0.0 < floor < 1.0:
        raise DomainError(f"floor must be in (0, 1), got {floor}")
    counts = np.asarray(population.counts, dtype=float)
    return (counts[:, None] * delta
            * ((1.0 - floor) * matching.probs[:, 1:] + floor)).T


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


def _utility_matrix(
    menus: tuple[ContractMenu, ...],
    profiles: list[ViolationProfile],
    scenario: Scenario,
) -> np.ndarray:
    pop = scenario.population
    out = np.empty((pop.n_types, len(menus)))
    for m, (menu, spec) in enumerate(zip(menus, scenario.operators)):
        viols = profiles[m].probs(menu.latencies)
        for n in range(pop.n_types):
            out[n, m] = user_utility(
                menu.items[n], pop.betas[n], pop.alpha_worst, spec.quality,
                viols[n], spec.refund,
            )
    return out


def _menu_residual(
    old: tuple[ContractMenu, ...], new: tuple[ContractMenu, ...]
) -> float:
    return max(
        abs(a - b)
        for old_menu, new_menu in zip(old, new)
        for a, b in zip(old_menu.latencies, new_menu.latencies)
    )


def run_fixed_point(
    scenario: Scenario,
    config: SolverConfig | None = None,
    keep_history: bool = False,
) -> MarketOutcome:
    """Anneal the mixed matching against per-iteration menu redesigns.

    Non-convergence within max_iters is not an error: the iterate with the
    smallest matching residual is returned with converged=False.
    """
    cfg = config if config is not None else scenario.solver
    check_floor_feasible(scenario)
    pop = scenario.population
    task = scenario.task
    specs = scenario.operators
    n_ops = len(specs)
    n_types = pop.n_types
    delta = task.arrival_rate_per_user
    counts = np.asarray(pop.counts, dtype=float)
    caps = np.array([effective_capacity(s, task, cfg.safety) for s in specs])

    # Initial menus: no-competition design against the demand floor alone.
    floor_cong = _floor_congestion(scenario)
    floor_masses = cfg.demand_floor * counts * delta
    menus = tuple(
        optimize_menu_with_profile(
            pop, spec, floor_masses,
            violation_profile(spec, task, floor_cong, cfg.zeta),
            cfg.latency_bounds,
        )
        for spec in specs
    )
    matching = MixedMatching.uniform(n_types, n_ops)
    prices = ShadowPrices.zeros(n_ops)

    counter = OpCounter()
    trace: list[IterationRecord] = []
    history: list[tuple[tuple[ContractMenu, ...], np.ndarray]] = []
    if keep_history:
        history.append((menus, floor_cong[None, :].repeat(n_ops, axis=0)))

    converged = False
    iterations = 0
    best_residual = math.inf
    best_state: tuple = (matching, menus, prices)

    for k in range(1, cfg.max_iters + 1):
        iterations = k
        temperature = anneal(cfg.temp_schedule, k, cfg.max_iters)

        congestion = cumulative_load(matching, pop, delta)
        counter.load_entries += n_ops * n_types
        masses = demand_mass(matching, pop, delta, cfg.demand_floor)
        counter.mass_entries += n_ops * n_types

        profiles = [
            violation_profile(spec, task, congestion.loads[m], cfg.zeta)
            for m, spec in enumerate(specs)
        ]
        new_menus = tuple(
            optimize_menu_with_profile(
                pop, spec, masses[m], profiles[m], cfg.latency_bounds
            )
            for m, spec in enumerate(specs)
        )
        menu_res = _menu_residual(menus, new_menus)

        utilities = _utility_matrix(new_menus, profiles, scenario)
        adjusted = utilities - prices.omegas[None, :] * (
            counts[:, None] * delta
        ) / caps[None, :]
        counter.utility_evals += n_ops * n_types
        response = mixed_response(adjusted, cfg.opt_out_utility, temperature)
        counter.response_entries += (n_ops + 1) * n_types
        new_matching = damp(matching, response, cfg.damping)
        counter.damp_updates += (n_ops + 1) * n_types
        matching_res = float(np.max(np.abs(new_matching.probs - matching.probs)))
        prices = update_shadow_prices(
            prices, new_matching, pop, delta, caps, cfg.price_step
        )
        counter.price_updates += n_ops

        objectives = tuple(
            menu_objective(new_menus[m].latencies, pop, spec, masses[m], profiles[m])
            for m, spec in enumerate(specs)
        )
        trace.append(IterationRecord(
            iteration=k,
            temperature=temperature,
            matching_residual=matching_res,
            menu_residual=menu_res,
            shadow_prices=tuple(float(w) for w in prices.omegas),
            objectives=objectives,
        ))
        if keep_history:
            history.append((new_menus, np.array(congestion.loads)))

        menus = new_menus
        matching = new_matching
        if matching_res < best_residual:
            best_residual = matching_res
            best_state = (matching, menus, prices)
        if matching_res < cfg.matching_tol and menu_res < cfg.menu_tol:
            converged = True
            break

    if not converged:
        matching, menus, prices = best_state

    # Final redesign against the converged congestion so the returned menus
    # are each operator's best response to the returned matching.
    final_congestion = cumulative_load(matching, pop, delta)
    final_masses = demand_mass(matching, pop, delta, cfg.demand_floor)
    final_profiles = [
        violation_profile(spec, task, final_congestion.loads[m], cfg.zeta)
        for m, spec in enumerate(specs)
    ]
    menus = tuple(
        optimize_menu_with_profile(
            pop, spec, final_masses[m], final_profiles[m], cfg.latency_bounds
        )
        for m, spec in enumerate(specs)
    )
    if keep_history:
        history.append((menus, np.array(final_congestion.loads)))

    return MarketOutcome(
        menus=menus,
        matching=matching,
        shadow_prices=prices,
        congestion=final_congestion,
        demand_masses=final_masses,
        converged=converged,
        iterations=iterations,
        trace=tuple(trace),
        counter=counter,
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

    Types are processed in priority order (descending latency sensitivity);
    each takes its highest-probability option that still fits, preferring
    lower operator indices on ties and opting out only after operators.
    """
    caps = np.asarray(capacities, dtype=float)
    if matching.n_operators != caps.shape[0]:
        raise DomainError(
            f"matching has {matching.n_operators} operators, capacities has "
            f"{caps.shape[0]}"
        )
    if matching.n_types != population.n_types:
        raise DomainError(
            f"matching has {matching.n_types} rows, population has "
            f"{population.n_types} types"
        )
    n_types, n_ops = matching.n_types, matching.n_operators
    order = np.argsort(
        -np.asarray(population.betas, dtype=float), kind="stable"
    )
    assigned = np.zeros(n_ops)
    out = np.zeros((n_types, n_ops + 1), dtype=int)
    for n in order:
        row = matching.probs[n]
        # opt-out ranks after every operator when probabilities tie
        candidates = sorted(
            range(n_ops + 1),
            key=lambda c: (-row[c], n_ops + 1 if c == 0 else c),
        )
        traffic = population.counts[n] * delta
        for c in candidates:
            if c == 0:
                out[n, 0] = 1
                break
            if assigned[c - 1] + traffic <= caps[c - 1] + 1e-9:
                assigned[c - 1] += traffic
                out[n, c] = 1
                break
        else:
            out[n, 0] = 1
    return out


@dataclass(frozen=True)
class EquilibriumReport:
    """User-side regret and operator-side best-response audit of an assignment."""

    regrets: tuple[float, ...]          # per type; 0 for opted-out types
    max_regret: float
    worst_pair: tuple[int, int] | None  # 1-based (type, operator) of max regret
    best_response_gains: tuple[float, ...]   # objective gain per operator
    operator_utilities: tuple[float, ...]
    max_gain_ratio: float               # gain relative to |operator utility|


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
    a = np.asarray(assignment, dtype=float)
    pop = scenario.population
    task = scenario.task
    cfg = scenario.solver
    matching = MixedMatching(a)
    congestion = cumulative_load(matching, pop, task.arrival_rate_per_user)
    profiles = [
        violation_profile(spec, task, congestion.loads[m], cfg.zeta)
        for m, spec in enumerate(scenario.operators)
    ]
    utilities = _utility_matrix(tuple(menus), profiles, scenario)

    regrets = []
    blamed = []  # operator column (1-based) behind each type's regret
    for n in range(pop.n_types):
        matched = np.argmax(a[n])
        if matched == 0:
            regrets.append(0.0)
            blamed.append(0)
            continue
        achieved = utilities[n, matched - 1]
        rival_best, rival = -math.inf, int(matched)
        for m in range(len(menus)):
            if m != matched - 1 and utilities[n, m] > rival_best:
                rival_best, rival = utilities[n, m], m + 1
        # IR shortfalls blame the matched operator itself
        if -achieved > rival_best - achieved:
            regrets.append(max(-achieved, 0.0))
            blamed.append(int(matched))
        else:
            regrets.append(max(rival_best - achieved, 0.0))
            blamed.append(rival)

    delta = task.arrival_rate_per_user
    gains, op_utils = [], []
    for m, spec in enumerate(scenario.operators):
        demand = np.asarray(pop.counts, dtype=float) * a[:, m + 1] * delta
        current = menu_objective(menus[m].latencies, pop, spec, demand, profiles[m])
        resolved = optimize_menu_with_profile(
            pop, spec, demand, profiles[m], cfg.latency_bounds
        )
        improved = menu_objective(resolved.latencies, pop, spec, demand, profiles[m])
        gains.append(improved - current)
        viols = profiles[m].probs(menus[m].latencies)
        op_utils.append(operator_utility(menus[m], demand, spec, viols))

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
        best_response_gains=tuple(gains),
        operator_utilities=tuple(op_utils),
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
    pop = scenario.population
    task = scenario.task
    cfg = scenario.solver
    matching = MixedMatching(np.asarray(matching_probs, dtype=float))
    congestion = cumulative_load(matching, pop, task.arrival_rate_per_user)
    delta = task.arrival_rate_per_user
    profiles = [
        violation_profile(spec, task, congestion.loads[m], cfg.zeta)
        for m, spec in enumerate(scenario.operators)
    ]
    per_op = []
    for m, spec in enumerate(scenario.operators):
        viols = profiles[m].probs(menus[m].latencies)
        loads = [
            pop.counts[n] * matching.probs[n, m + 1] * delta
            for n in range(pop.n_types)
        ]
        per_op.append(operator_utility(menus[m], loads, spec, viols))
    welfare = social_welfare(
        menus, matching.probs, pop, task, scenario.operators, profiles,
        cfg.opt_out_utility,
    )
    return MatchingMetrics(
        total_operator_utility=float(sum(per_op)),
        social_welfare=float(welfare),
        per_operator_utility=tuple(float(x) for x in per_op),
    )
