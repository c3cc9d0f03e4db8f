"""Latency/price contract menus for a single operator.

An operator posts one contract item per user type: an agreed latency and a
price, with a fixed refund paid back whenever the latency agreement is
violated. Types are ordered by nonincreasing latency sensitivity, so item n
is meant for type n; the design must keep every type picking its own item
(incentive compatibility) and willing to participate (individual rationality).

The solve follows the classical screening route: prices drop out through the
binding constraints, leaving a latency-only objective that separates into one
term a*L + w*min(1, g*exp(-eta*L)) per type. Each term is linear up to its
kink ln(g)/eta and a decaying exponential after it, so its minimum has a
closed form. Ironing (pooling adjacent types at a shared latency, by
pool-adjacent-violators) restores monotonicity; a pooled block is convex
between its members' kinks and is minimised exactly over its kinks, bounds
and per-segment Newton roots. Prices are recovered afterwards.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.errors import DomainError
from edgemarket.queueing import StageParams, ViolationProfile, stage_rate

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


def _term_value(term: tuple[float, float, float, float], x: float) -> float:
    # a*x + w*min(1, g*exp(-eta*x)), the clamp read as ViolationProfile.prob.
    a, w, eta, g = term
    value = g * math.exp(-eta * x)
    return a * x + w * (1.0 if value > 1.0 else value)


def _term_argmin(
    term: tuple[float, float, float, float], lo: float, hi: float
) -> float:
    """Exact minimiser of one term a*x + w*min(1, g*exp(-eta*x)) on [lo, hi].

    With a >= 0 the term is nondecreasing on the clamped branch (x up to the
    kink ln(g)/eta), so lo is the best point there. With w > 0 it is convex on
    the decaying branch, whose best point is the stationary point
    ln(w*eta*g/a)/eta clipped to [max(lo, kink), hi]. With w <= 0, or a curve
    that never decays, the whole term is nondecreasing and lo is exact.
    """
    a, w, eta, g = term
    if not (w > 0.0 and eta > 0.0 and g > 0.0):
        return lo
    left = max(lo, math.log(g) / eta) if g > 1.0 else lo
    if left >= hi:
        return lo
    rate = w * eta * g
    if a == 0.0:
        x = hi
    elif rate > a:
        x = min(max(math.log(rate / a) / eta, left), hi)
    else:
        x = left
    return x if _term_value(term, x) < _term_value(term, lo) else lo


def _block_argmin(
    block: list[tuple[float, float, float, float]], lo: float, hi: float
) -> float:
    """Exact minimiser of a pooled block's summed terms on [lo, hi].

    The members' kinks split [lo, hi] into segments on which every term is
    either clamped (linear) or decaying. All w share one sign (w = d*margin
    with d >= 0): with w <= 0 every term is nondecreasing and lo is exact;
    with w > 0 each segment is convex, so its minimum is an edge or the root
    of the slope A - sum w*eta*g*exp(-eta*x) over the decaying members. That
    slope is increasing and concave, so Newton started left of the root
    climbs to it without overshooting. The best candidate wins, the smallest
    latency on ties.
    """
    if not any(w > 0.0 for _, w, _, _ in block):
        return lo
    slope0 = sum(a for a, _, _, _ in block)
    # (kink, w*eta*g, eta) for every member that decays somewhere.
    curves = sorted(
        (math.log(g) / eta if g > 1.0 else -math.inf, w * eta * g, eta)
        for _, w, eta, g in block
        if w > 0.0 and eta > 0.0 and g > 0.0
    )
    edges = [lo] + [k for k, _, _ in curves if lo < k < hi] + [hi]
    candidates = list(edges)
    for left, right in zip(edges, edges[1:]):
        active = [(rate, eta) for k, rate, eta in curves if k <= left]
        if not active or slope0 - sum(
            rate * math.exp(-eta * right) for rate, eta in active
        ) <= 0.0:
            continue
        # Each member alone has its root at ln(rate/A)/eta, left of the sum's.
        x = max([left] + [math.log(rate / slope0) / eta for rate, eta in active
                          if rate > slope0])
        while x < right:
            slope, curvature = slope0, 0.0
            for rate, eta in active:
                decay = rate * math.exp(-eta * x)
                slope -= decay
                curvature += eta * decay
            if slope >= 0.0 or not curvature > 0.0:
                break
            step = x - slope / curvature
            if not step > x:
                break
            x = step
        # An iterate at or past the right edge leaves that edge as the best.
        if left < x < right:
            candidates.append(x)
    best, best_value = lo, math.inf
    for x in sorted(candidates):
        value = sum(_term_value(term, x) for term in block)
        if value < best_value:
            best, best_value = x, value
    return best


def _isotonic_minimize(
    terms: list[tuple[float, float, float, float]],
    lo: float,
    hi: float,
) -> list[float]:
    """Minimize a separable sum subject to nondecreasing arguments.

    Left-to-right pool-adjacent-violators: each new scalar solution that
    undercuts the block before it is pooled into that block and the pooled
    sum is re-solved, so members of one block share an identical float.
    """
    blocks: list[tuple[list[int], float]] = []
    for n, term in enumerate(terms):
        members = [n]
        value = _term_argmin(term, lo, hi)
        while blocks and value < blocks[-1][1]:
            prev_members, _ = blocks.pop()
            members = prev_members + members
            value = _block_argmin([terms[i] for i in members], lo, hi)
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
) -> list[tuple[float, float, float, float]]:
    """Per-type (a_n, w_n, eta_n, g_n) of the terms the negated menu profit
    reduces to.

    With prices substituted out through the binding constraints, maximizing
    expected profit equals minimizing sum_n a_n L_n + w_n min(1, g_n e^(-eta_n L_n)),
    where a_n = beta_n D_n - beta_{n+1} D_{n+1} >= 0, D_n is the tail mass
    sum_{j>=n} d_j and w_n = d_n (cost - refund). Each term is linear up to its
    kink ln(g_n)/eta_n and a decaying exponential after it, so its minimum and
    that of a pooled sum have closed forms or a one-dimensional Newton root.
    """
    n_types = population.n_types
    tail = [0.0] * (n_types + 1)
    for n in range(n_types - 1, -1, -1):
        tail[n] = tail[n + 1] + masses[n]
    betas = list(population.betas) + [0.0]
    margin = spec.violation_cost - spec.refund
    return [
        (betas[n] * tail[n] - betas[n + 1] * tail[n + 1], masses[n] * margin, eta, g)
        for n, (eta, g) in enumerate(zip(profile.eta.tolist(), profile.g.tolist()))
    ]


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
