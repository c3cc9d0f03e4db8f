"""Latency/price contract menus for a single operator.

An operator posts one contract item per user type: an agreed latency and a
price, with a fixed refund paid back whenever the latency agreement is
violated. Types are ordered by nonincreasing latency sensitivity, so item n
is meant for type n; the design must keep every type picking its own item
(incentive compatibility) and willing to participate (individual rationality).

The solve follows the classical screening route: prices drop out through the
binding constraints, leaving a latency-only objective that separates into one
scalar problem per type. Ironing (pooling adjacent types at a shared latency)
restores monotonicity, and prices are recovered afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.errors import DomainError
from edgemarket.queueing import StageParams, ViolationProfile, stage_rate

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# data model


@dataclass(frozen=True)
class TaskSpec:
    """Per-task resource demands plus each user's task arrival rate."""

    input_size_mb: float
    workload_flops: float
    output_size_mb: float
    arrival_rate_per_user: float  # tasks/s one subscribed user generates

    def __post_init__(self) -> None:
        for name in ("input_size_mb", "workload_flops", "output_size_mb",
                     "arrival_rate_per_user"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class StageResources:
    servers: int
    unit_throughput: float  # Mb/s per channel for transfers, FLOPS per server for compute

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DomainError(f"servers must be >= 1, got {self.servers}")
        if not self.unit_throughput > 0.0:
            raise DomainError(
                f"unit_throughput must be > 0, got {self.unit_throughput}"
            )


@dataclass(frozen=True)
class OperatorSpec:
    """One operator: staged resources, service quality, and cost structure."""

    uplink: StageResources
    processing: StageResources
    downlink: StageResources
    quality: float             # perceived service quality of the model served
    exec_cost_per_task: float  # operating cost per admitted task
    violation_cost: float      # operator-side cost per violated agreement
    refund: float              # compensation per violated agreement

    def __post_init__(self) -> None:
        if not self.quality > 0.0:
            raise DomainError(f"quality must be > 0, got {self.quality}")
        for name in ("exec_cost_per_task", "violation_cost", "refund"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class UserTypePopulation:
    """User types ordered by nonincreasing latency sensitivity."""

    betas: tuple[float, ...]   # USD per second of agreed latency, type by type
    counts: tuple[int, ...]    # users of each type
    alpha_worst: float = 1.0   # smallest quality sensitivity in the market

    def __post_init__(self) -> None:
        if len(self.betas) != len(self.counts):
            raise DomainError(
                f"betas and counts must match in length, got "
                f"{len(self.betas)} vs {len(self.counts)}"
            )
        if not self.betas:
            raise DomainError("betas must be non-empty")
        for b in self.betas:
            if not b > 0.0:
                raise DomainError(f"betas must be strictly positive, got {b}")
        for prev, cur in zip(self.betas, self.betas[1:]):
            if cur > prev:
                raise DomainError("betas must be nonincreasing")
        for c in self.counts:
            if c < 0:
                raise DomainError(f"counts must be >= 0, got {c}")
        if not any(self.counts):
            raise DomainError("counts must include at least one positive entry")
        if not self.alpha_worst > 0.0:
            raise DomainError(f"alpha_worst must be > 0, got {self.alpha_worst}")

    @property
    def n_types(self) -> int:
        return len(self.betas)

    @property
    def total_users(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ContractItem:
    latency: float  # agreed latency, seconds
    price: float    # USD per task

    def __post_init__(self) -> None:
        if not self.latency > 0.0 or not math.isfinite(self.latency):
            raise DomainError(f"latency must be positive and finite, got {self.latency}")
        if not math.isfinite(self.price):
            raise DomainError(f"price must be finite, got {self.price}")


@dataclass(frozen=True)
class ContractMenu:
    items: tuple[ContractItem, ...]

    def __post_init__(self) -> None:
        if not self.items:
            raise DomainError("menu must contain at least one item")

    @property
    def latencies(self) -> tuple[float, ...]:
        return tuple(item.latency for item in self.items)

    @property
    def prices(self) -> tuple[float, ...]:
        return tuple(item.price for item in self.items)


def menu_to_obj(menu: ContractMenu) -> list[dict]:
    """JSON-ready form; floats pass through untouched so round-trips are exact."""
    return [
        {"type_index": n + 1, "latency_s": item.latency, "price_usd": item.price}
        for n, item in enumerate(menu.items)
    ]


def menu_from_obj(obj: Sequence[dict]) -> ContractMenu:
    rows = sorted(obj, key=lambda row: row["type_index"])
    for n, row in enumerate(rows):
        if row["type_index"] != n + 1:
            raise DomainError(f"type_index values must be 1..N, got {row['type_index']}")
    return ContractMenu(
        tuple(ContractItem(row["latency_s"], row["price_usd"]) for row in rows)
    )


# ---------------------------------------------------------------------------
# violation profiles


def stage_params_for(
    spec: OperatorSpec, task: TaskSpec, arrival_rate: float
) -> tuple[StageParams, StageParams, StageParams]:
    """The three M/M/c stages one operator presents to a given arrival stream."""
    return (
        StageParams(spec.uplink.servers,
                    stage_rate(task.input_size_mb, spec.uplink.unit_throughput),
                    arrival_rate),
        StageParams(spec.processing.servers,
                    stage_rate(task.workload_flops, spec.processing.unit_throughput),
                    arrival_rate),
        StageParams(spec.downlink.servers,
                    stage_rate(task.output_size_mb, spec.downlink.unit_throughput),
                    arrival_rate),
    )


def violation_profile(
    spec: OperatorSpec,
    task: TaskSpec,
    congestion: Sequence[float],
    zeta: float,
) -> ViolationProfile:
    """Per-type (eta, g) violation bounds at the given cumulative loads.

    Types whose load leaves any stage unstable are pinned at 1, so downstream
    solves and selections can still evaluate an overloaded operator.
    """
    stages = stage_params_for(spec, task, 0.0)
    return ViolationProfile.at_loads(
        tuple(s.servers for s in stages),
        tuple(s.unit_rate for s in stages),
        congestion,
        zeta,
    )


def _check_profile(profile: ViolationProfile, n_types: int) -> None:
    if len(profile) != n_types:
        raise DomainError(
            f"violation profile must have {n_types} entries, got {len(profile)}"
        )


# ---------------------------------------------------------------------------
# utilities and constraint checks


def user_utility(
    item: ContractItem,
    beta: float,
    alpha_worst: float,
    quality: float,
    violation: float,
    refund: float,
) -> float:
    """Type utility from one item: quality value less latency disutility and
    price, plus the expected refund."""
    return alpha_worst * quality - beta * item.latency - item.price + refund * violation


def operator_utility(
    menu: ContractMenu,
    loads: Sequence[float],
    spec: OperatorSpec,
    violations: Sequence[float],
) -> float:
    """Revenue net of expected violation costs and execution costs, per second."""
    if len(loads) != len(menu.items) or len(violations) != len(menu.items):
        raise DomainError("loads and violations must match the menu length")
    total = 0.0
    for item, load, viol in zip(menu.items, loads, violations):
        total += load * (item.price - spec.violation_cost * viol - spec.exec_cost_per_task)
    return total


def recover_rewards(
    latencies: Sequence[float],
    population: UserTypePopulation,
    quality: float,
    refund: float,
    profile: ViolationProfile,
) -> list[float]:
    """Prices that bind participation at type 1 and each downward-adjacent
    incentive constraint exactly, given a nondecreasing latency schedule."""
    lats = [float(x) for x in latencies]
    if len(lats) != population.n_types:
        raise DomainError(
            f"latencies must have {population.n_types} entries, got {len(lats)}"
        )
    for prev, cur in zip(lats, lats[1:]):
        if cur < prev:
            raise DomainError("latencies must be nondecreasing")
    _check_profile(profile, population.n_types)
    viols = profile.probs(lats)
    betas = population.betas
    prices = [population.alpha_worst * quality - betas[0] * lats[0]
              + refund * viols[0]]
    for n in range(1, population.n_types):
        prices.append(
            prices[n - 1]
            - betas[n] * (lats[n] - lats[n - 1])
            + refund * (viols[n] - viols[n - 1])
        )
    return prices


def _utility_matrix(
    menu: ContractMenu,
    population: UserTypePopulation,
    quality: float,
    refund: float,
    profile: ViolationProfile,
) -> list[list[float]]:
    # u[n][j]: type n's utility from item j; the violation level belongs to the
    # item (it is a property of the priority class serving it).
    viols = profile.probs(menu.latencies)
    return [
        [
            user_utility(menu.items[j], population.betas[n], population.alpha_worst,
                         quality, viols[j], refund)
            for j in range(len(menu.items))
        ]
        for n in range(population.n_types)
    ]


@dataclass(frozen=True)
class FeasibilityReport:
    """Slack of each sufficient feasibility condition (negative = violated)."""

    monotone_slack: float
    ir_worst_slack: float
    ic_down_slack: float
    ic_up_slack: float
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return all(
            s >= -self.tol
            for s in (self.monotone_slack, self.ir_worst_slack,
                      self.ic_down_slack, self.ic_up_slack)
        )


def check_feasibility(
    menu: ContractMenu,
    population: UserTypePopulation,
    quality: float,
    refund: float,
    profile: ViolationProfile,
) -> FeasibilityReport:
    """Sufficient conditions: monotone latencies, participation of the most
    latency-sensitive type, and both adjacent incentive directions."""
    if len(menu.items) != population.n_types:
        raise DomainError("menu length must match the number of types")
    _check_profile(profile, population.n_types)
    u = _utility_matrix(menu, population, quality, refund, profile)
    n_types = population.n_types
    lats = menu.latencies
    monotone = min(
        (lats[n + 1] - lats[n] for n in range(n_types - 1)), default=0.0
    )
    ic_down = min(
        (u[n][n] - u[n][n - 1] for n in range(1, n_types)), default=0.0
    )
    ic_up = min(
        (u[n][n] - u[n][n + 1] for n in range(n_types - 1)), default=0.0
    )
    return FeasibilityReport(
        monotone_slack=monotone,
        ir_worst_slack=u[0][0],
        ic_down_slack=ic_down,
        ic_up_slack=ic_up,
    )


@dataclass(frozen=True)
class ScreeningReport:
    """Worst incentive and participation slack over the whole menu."""

    ic_slack: float
    ic_pair: tuple[int, int] | None  # (type, item) achieving the worst slack
    ir_slack: float
    ir_type: int
    tol: float = 1e-9

    @property
    def passed(self) -> bool:
        return self.ic_slack >= -self.tol and self.ir_slack >= -self.tol


def check_ic_ir(
    menu: ContractMenu,
    population: UserTypePopulation,
    quality: float,
    refund: float,
    profile: ViolationProfile,
) -> ScreeningReport:
    """Exhaustive check over all N(N-1) incentive pairs and N participation
    constraints."""
    if len(menu.items) != population.n_types:
        raise DomainError("menu length must match the number of types")
    _check_profile(profile, population.n_types)
    u = _utility_matrix(menu, population, quality, refund, profile)
    n_types = population.n_types
    ic_slack, ic_pair = math.inf, None
    for n in range(n_types):
        for j in range(n_types):
            if j == n:
                continue
            slack = u[n][n] - u[n][j]
            if slack < ic_slack:
                ic_slack, ic_pair = slack, (n, j)
    if n_types == 1:
        ic_slack = 0.0
    ir_slack, ir_type = min((u[n][n], n) for n in range(n_types))
    return ScreeningReport(
        ic_slack=ic_slack, ic_pair=ic_pair, ir_slack=ir_slack, ir_type=ir_type
    )


# ---------------------------------------------------------------------------
# menu optimization


def _minimize_scalar(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-8,
    prescan: int = 64,
) -> float:
    """Bounded scalar minimization: coarse pre-scan, then golden section.

    The pre-scan locates the global basin (the clamped violation curve makes
    objectives flat-then-dipping, so pure golden section could lock onto the
    wrong side); golden section then narrows the bracket to `tol`.
    """
    if not hi > lo:
        raise DomainError(f"latency bounds must satisfy lo < hi, got ({lo}, {hi})")
    step = (hi - lo) / (prescan - 1)
    xs = [lo + i * step for i in range(prescan)]
    xs[-1] = hi
    vals = [f(x) for x in xs]
    best = min(range(prescan), key=vals.__getitem__)
    a = xs[best - 1] if best > 0 else lo
    b = xs[best + 1] if best < prescan - 1 else hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x if f(x) <= vals[best] else xs[best]


def _isotonic_minimize(
    terms: list[Callable[[float], float]],
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> list[float]:
    """Minimize a separable sum subject to nondecreasing arguments.

    Left-to-right pool-adjacent-violators: each new scalar solution that
    undercuts the block before it is pooled into that block and the pooled
    sum is re-solved, so members of one block share an identical float.
    """
    blocks: list[tuple[list[int], float]] = []
    for n, term in enumerate(terms):
        members = [n]
        value = _minimize_scalar(term, lo, hi, tol)
        while blocks and value < blocks[-1][1]:
            prev_members, _ = blocks.pop()
            members = prev_members + members
            pooled = [terms[i] for i in members]
            value = _minimize_scalar(
                lambda x: sum(f(x) for f in pooled), lo, hi, tol
            )
        blocks.append((members, value))
    out = [0.0] * len(terms)
    for members, value in blocks:
        for i in members:
            out[i] = value
    return out


def _resolve_masses(
    demand_masses: Sequence[float], population: UserTypePopulation
) -> list[float]:
    masses = [float(x) for x in demand_masses]
    if len(masses) != population.n_types:
        raise DomainError(
            f"demand_masses must have {population.n_types} entries, got {len(masses)}"
        )
    for x in masses:
        if x < 0.0:
            raise DomainError(f"demand_masses must be >= 0, got {x}")
    if not any(masses):
        # No demand to weight the trade-off; fall back to the population
        # composition (only relative masses matter to the argmin).
        return [float(c) for c in population.counts]
    return masses


def _latency_terms(
    population: UserTypePopulation,
    spec: OperatorSpec,
    masses: list[float],
    profile: ViolationProfile,
) -> list[Callable[[float], float]]:
    """Per-type scalar objectives whose sum the negated menu profit reduces to.

    With prices substituted out through the binding constraints, maximizing
    expected profit equals minimizing sum_n A_n L_n + d_n (cost - refund) p_n(L_n),
    where A_n = beta_n D_n - beta_{n+1} D_{n+1} and D_n is the tail mass
    sum_{j>=n} d_j.
    """
    n_types = population.n_types
    tail = [0.0] * (n_types + 1)
    for n in range(n_types - 1, -1, -1):
        tail[n] = tail[n + 1] + masses[n]
    betas = list(population.betas) + [0.0]
    margin = spec.violation_cost - spec.refund
    terms = []
    for n, (eta, g) in enumerate(zip(profile.eta.tolist(), profile.g.tolist())):
        linear = betas[n] * tail[n] - betas[n + 1] * tail[n + 1]
        terms.append(_latency_term(linear, masses[n] * margin, eta, g))
    return terms


def _latency_term(a: float, w: float, eta: float, g: float) -> Callable[[float], float]:
    # a*x + w*min(1, g*exp(-eta*x)) with ViolationProfile.prob inlined: the
    # minimiser evaluates terms millions of times per solve.
    def term(x: float) -> float:
        value = g * math.exp(-eta * x)
        return a * x + w * (1.0 if value > 1.0 else value)

    return term


def menu_objective(
    latencies: Sequence[float],
    population: UserTypePopulation,
    spec: OperatorSpec,
    demand_masses: Sequence[float],
    profile: ViolationProfile,
) -> float:
    """Expected profit rate of the menu a latency schedule induces.

    Direct evaluation (recover prices, then sum demand-weighted margins);
    used both by the optimizer's tests and by best-response audits.
    """
    masses = _resolve_masses(demand_masses, population)
    lats = [float(x) for x in latencies]
    prices = recover_rewards(lats, population, spec.quality, spec.refund, profile)
    viols = profile.probs(lats)
    total = 0.0
    for n in range(population.n_types):
        total += masses[n] * (prices[n] - spec.violation_cost * viols[n])
    return total


def optimize_menu(
    population: UserTypePopulation,
    spec: OperatorSpec,
    task: TaskSpec,
    demand_masses: Sequence[float],
    congestion: Sequence[float],
    latency_bounds: tuple[float, float] = (1e-3, 10.0),
    zeta: float = 0.9,
) -> ContractMenu:
    """Profit-maximizing feasible menu for one operator at fixed congestion.

    congestion holds the per-type cumulative arrival rates the violation
    curves are evaluated at; demand_masses holds the per-type traffic the
    objective weights by.
    """
    profile = violation_profile(spec, task, congestion, zeta)
    return optimize_menu_with_profile(
        population, spec, demand_masses, profile, latency_bounds
    )


def optimize_menu_with_profile(
    population: UserTypePopulation,
    spec: OperatorSpec,
    demand_masses: Sequence[float],
    profile: ViolationProfile,
    latency_bounds: tuple[float, float] = (1e-3, 10.0),
) -> ContractMenu:
    """Same solve with the violation profile already built (hot path in the
    market loop)."""
    lo, hi = latency_bounds
    if not 0.0 < lo < hi:
        raise DomainError(f"latency bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    masses = _resolve_masses(demand_masses, population)
    _check_profile(profile, population.n_types)
    terms = _latency_terms(population, spec, masses, profile)
    lats = _isotonic_minimize(terms, lo, hi)
    prices = recover_rewards(lats, population, spec.quality, spec.refund, profile)
    return ContractMenu(
        tuple(ContractItem(lat, price) for lat, price in zip(lats, prices))
    )


# ---------------------------------------------------------------------------
# welfare


def social_welfare(
    menus: Sequence[ContractMenu],
    matching: np.ndarray,
    population: UserTypePopulation,
    task: TaskSpec,
    specs: Sequence[OperatorSpec],
    profiles: Sequence[ViolationProfile],
    opt_out_utility: float = 0.0,
) -> float:
    """Operator surplus plus user surplus under a (possibly mixed) matching.

    matching is N x (M+1) with the opt-out column first; profiles holds each
    operator's violation profile at the loads the matching induces. User
    utility accrues per task, so each type's surplus is weighted by its served
    task rate and prices cancel between the two sides.
    """
    z = np.asarray(matching, dtype=float)
    n_types = population.n_types
    delta = task.arrival_rate_per_user
    if z.shape != (n_types, len(menus) + 1):
        raise DomainError(
            f"matching must be {(n_types, len(menus) + 1)}, got {z.shape}"
        )
    if len(profiles) != len(menus):
        raise DomainError(
            f"profiles must have {len(menus)} entries, got {len(profiles)}"
        )
    total = 0.0
    for m, (menu, spec, profile) in enumerate(zip(menus, specs, profiles)):
        _check_profile(profile, n_types)
        viols = profile.probs(menu.latencies)
        loads = [population.counts[n] * z[n, m + 1] * delta for n in range(n_types)]
        total += operator_utility(menu, loads, spec, viols)
        for n in range(n_types):
            u = user_utility(menu.items[n], population.betas[n],
                             population.alpha_worst, spec.quality, viols[n],
                             spec.refund)
            total += loads[n] * u
    for n in range(n_types):
        total += population.counts[n] * z[n, 0] * delta * opt_out_utility
    return total
