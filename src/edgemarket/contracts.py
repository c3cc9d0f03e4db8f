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

`optimize_menu_with_profile` solves one operator. `optimize_menus` solves a
market's M operators together and returns the M x N latencies, prices and
violations and each operator's profit. From _ARRAY_MIN_ENTRIES operator-type
entries on, it runs the closed forms, the pooling, the price recovery and the
profits over arrays, with the same float operations in the same order, so it
returns the per-operator floats bit for bit.

Two utility matrices answer the two questions asked of posted menus.
One menu's N x N table u[n][j], type n's utility from item j, answers the
screening question: does every type prefer its own item and participate?
`check_ic_ir` reads all of it, in blocks of whole rows of at most
_SCREENING_BLOCK entries, and never holds the whole table. `ItemUtilities.rows`
is the market's M x N table of each type's utility from its own item at each
operator, and answers the selection question: which operator does a type
prefer? The fixed point, the equilibrium audit, GSMC's preferences and
`social_welfare` read it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.errors import DomainError
from edgemarket.queueing import (
    StageParams,
    StageTable,
    ViolationProfile,
    build_profiles,
    left_sum,
    libm_exp,
    libm_log,
    stage_rate,
)

# Defaults of the menu solve, stated once; `scenario.SolverConfig` reads them.
LATENCY_BOUNDS = (1e-3, 10.0)  # seconds; agreed latencies live in [lo, hi]
ZETA = 0.9                     # share of the rate slack used as the bound exponent

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
            if not 0.0 < b < math.inf:
                raise DomainError(f"betas must be positive and finite, got {b}")
        for prev, cur in zip(self.betas, self.betas[1:]):
            if cur > prev:
                raise DomainError("betas must be nonincreasing")
        for c in self.counts:
            if c < 0:
                raise DomainError(f"counts must be >= 0, got {c}")
        if not any(self.counts):
            raise DomainError("counts must include at least one positive entry")
        if not 0.0 < self.alpha_worst < math.inf:
            raise DomainError(
                f"alpha_worst must be positive and finite, got {self.alpha_worst}"
            )

    @property
    def n_types(self) -> int:
        return len(self.betas)

    @property
    def total_users(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ContractMenu:
    """One operator's menu: item n is (latencies[n], prices[n]), type n's
    agreed latency in seconds and its price in USD per task."""

    latencies: tuple[float, ...]
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        lats, prices = tuple(self.latencies), tuple(self.prices)
        if not lats:
            raise DomainError("menu must contain at least one item")
        if len(lats) != len(prices):
            raise DomainError(
                f"latencies and prices must match in length, got "
                f"{len(lats)} vs {len(prices)}"
            )
        for lat, price in zip(lats, prices):
            if not 0.0 < lat < math.inf:
                raise DomainError(f"latency must be positive and finite, got {lat}")
            if not -math.inf < price < math.inf:
                raise DomainError(f"price must be finite, got {price}")
        object.__setattr__(self, "latencies", lats)
        object.__setattr__(self, "prices", prices)


def menu_to_obj(menu: ContractMenu) -> list[dict]:
    """JSON-ready form; floats pass through untouched so round-trips are exact."""
    return [
        {"type_index": n + 1, "latency_s": lat, "price_usd": price}
        for n, (lat, price) in enumerate(zip(menu.latencies, menu.prices))
    ]


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


def stage_table(specs: Sequence[OperatorSpec], task: TaskSpec) -> StageTable:
    """Every operator's uplink, processing and downlink stages as one checked
    `StageTable`, for any number of `build_profiles` builds."""
    stages = [stage_params_for(spec, task, 0.0) for spec in specs]
    return StageTable(
        [[s.servers for s in row] for row in stages],
        [[s.unit_rate for s in row] for row in stages],
    )


def violation_profile(
    spec: OperatorSpec,
    task: TaskSpec,
    congestion: Sequence[float],
    zeta: float,
) -> ViolationProfile:
    """One operator's per-type (eta, g) violation bounds at the given
    cumulative loads; types whose load leaves any stage unstable are pinned
    at 1, so downstream solves can still evaluate an overloaded operator."""
    return build_profiles(stage_table((spec,), task), [congestion], zeta)[0]


def _check_profile(profile: ViolationProfile, n_types: int) -> None:
    if len(profile) != n_types:
        raise DomainError(
            f"violation profile must have {n_types} entries, got {len(profile)}"
        )


# ---------------------------------------------------------------------------
# utilities and constraint checks


def user_utility(
    latency: float,
    price: float,
    beta: float,
    alpha_worst: float,
    quality: float,
    violation: float,
    refund: float,
) -> float:
    """Type utility from one item (latency, price): quality value less latency
    disutility and price, plus the expected refund."""
    return alpha_worst * quality - beta * latency - price + refund * violation


class ItemUtilities:
    """Each type's utility from its own item at every operator, for one
    population and fleet, with the betas and each operator's quality worth and
    refund converted once. `rows` reads row m of the M x N latencies, prices
    and violations as operator m's menu (violations[m][n] the bound of type
    n's priority class at item n's latency) and returns row m as its types'
    utilities, in `user_utility`'s float operations."""

    def __init__(
        self, population: UserTypePopulation, specs: Sequence[OperatorSpec]
    ) -> None:
        self.worth = np.array([population.alpha_worst * spec.quality
                               for spec in specs])[:, None]
        self.betas = np.asarray(population.betas)
        self.refund = np.array([spec.refund for spec in specs])[:, None]

    def rows(
        self, latencies: np.ndarray, prices: np.ndarray, violations: np.ndarray
    ) -> np.ndarray:
        return (self.worth - self.betas * latencies - prices
                + self.refund * violations)


def operator_utility(
    menu: ContractMenu,
    loads: Sequence[float],
    spec: OperatorSpec,
    violations: Sequence[float],
) -> float:
    """Revenue net of expected violation costs and execution costs, per second."""
    if not len(loads) == len(violations) == len(menu.prices):
        raise DomainError("loads and violations must match the menu length")
    return left_sum(
        load * (price - spec.violation_cost * viol - spec.exec_cost_per_task)
        for price, load, viol in zip(menu.prices, loads, violations)
    )


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
    _check_schedule(lats, population, profile)
    return _prices(lats, profile.probs(lats), population, quality, refund)


def _check_schedule(
    lats: list[float], population: UserTypePopulation, profile: ViolationProfile
) -> None:
    # `recover_rewards`' checks: one nondecreasing latency per profiled type.
    if len(lats) != population.n_types:
        raise DomainError(
            f"latencies must have {population.n_types} entries, got {len(lats)}"
        )
    for prev, cur in zip(lats, lats[1:]):
        if cur < prev:
            raise DomainError("latencies must be nondecreasing")
    _check_profile(profile, population.n_types)


def _prices(
    lats: list[float],
    viols: list[float],
    population: UserTypePopulation,
    quality: float,
    refund: float,
) -> list[float]:
    # `recover_rewards` past its checks: one price per type.
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


# Slack below -SCREENING_TOL is a violated constraint.
SCREENING_TOL = 1e-9


@dataclass(frozen=True)
class ScreeningReport:
    """A menu's incentive (IC) and participation (IR) slack, negative where a
    constraint is violated.

    ic_slack and ir_slack are the worst over all N(N-1) incentive pairs and N
    participation constraints; `passed` reads only these two. The rest are the
    sufficient conditions of the textbook screening solution: monotone_slack,
    the smallest step between adjacent latencies; ir_first_slack, type 1's
    utility from its own item, which price recovery binds at 0; and
    ic_down_slack and ic_up_slack, the worst adjacent incentive constraints
    toward item n - 1 (which recovery binds at 0) and item n + 1.
    """

    ic_slack: float
    ic_pair: tuple[int, int] | None  # (type, item) achieving the worst slack
    ir_slack: float
    ir_type: int
    monotone_slack: float
    ir_first_slack: float
    ic_down_slack: float
    ic_up_slack: float

    @property
    def passed(self) -> bool:
        return self.ic_slack >= -SCREENING_TOL and self.ir_slack >= -SCREENING_TOL


# Entries of the type x item table `check_ic_ir` holds at a time, in whole rows:
# its memory stays flat in N, while each numpy call still covers enough entries
# to amortise its fixed cost.
_SCREENING_BLOCK = 16384


def _first_min(values: np.ndarray) -> int:
    """Index of the first smallest entry, as a loop from values[0] that keeps
    the first strict minimum finds it: np.argmin's, except that NaN is below
    nothing, so a NaN after values[0] is passed over."""
    k = int(values.argmin())  # argmin stops at the first NaN
    if k and math.isnan(values[k]):
        k = int(np.where(np.isnan(values), np.inf, values).argmin())
    return k


def _least(values: np.ndarray) -> float:
    # builtin min(values, default=0.0) over an array
    return float(values[_first_min(values)]) if values.size else 0.0


def check_ic_ir(
    menu: ContractMenu,
    population: UserTypePopulation,
    quality: float,
    refund: float,
    profile: ViolationProfile,
) -> ScreeningReport:
    """Every incentive and participation slack of one menu.

    Entry (n, j) of the type x item table is type n's utility from item j in
    `user_utility`'s float operations, with item j's violation bound. The table
    is read in blocks of whole rows of at most _SCREENING_BLOCK entries, so a
    check costs O(N) memory. ic_pair is the first (type, item) in row-major
    order that attains ic_slack, and ir_type the first type that attains
    ir_slack."""
    if len(menu.latencies) != population.n_types:
        raise DomainError("menu length must match the number of types")
    _check_profile(profile, population.n_types)
    n_types = population.n_types
    worth = population.alpha_worst * quality
    lats = np.array(menu.latencies, dtype=float)
    prices = np.array(menu.prices, dtype=float)
    refunds = refund * np.array(profile.probs(menu.latencies))
    betas = np.array(population.betas, dtype=float)
    rows = max(1, _SCREENING_BLOCK // n_types)
    # buf[0] holds the worst slack so far, so _first_min moves off it only to a
    # strictly smaller slack: blocks in row order then give the first strict
    # minimum of one row-major loop.
    buf = np.empty(1 + rows * n_types)
    ic_slack, ic_pair = math.inf, None
    # Python floats overflow to inf, and inf - inf gives NaN, without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        own = worth - betas * lats - prices + refunds  # the table's diagonal
        for r0 in range(0, n_types, rows):
            r1 = min(r0 + rows, n_types)
            view = buf[:1 + (r1 - r0) * n_types]
            block = view[1:].reshape(r1 - r0, n_types)
            np.multiply(betas[r0:r1, None], lats, out=block)
            np.subtract(worth, block, out=block)
            block -= prices
            block += refunds
            np.subtract(own[r0:r1, None], block, out=block)
            view[1 + r0::n_types + 1] = math.inf  # (n, n) is no incentive constraint
            view[0] = ic_slack
            k = _first_min(view)
            if k:
                ic_slack = float(view[k])
                ic_pair = (r0 + (k - 1) // n_types, (k - 1) % n_types)
        down = own[1:] - (worth - betas[1:] * lats[:-1] - prices[:-1] + refunds[:-1])
        up = own[:-1] - (worth - betas[:-1] * lats[1:] - prices[1:] + refunds[1:])
    if n_types == 1:
        ic_slack = 0.0
    ir_type = _first_min(own)
    return ScreeningReport(
        ic_slack=ic_slack,
        ic_pair=ic_pair,
        ir_slack=float(own[ir_type]),
        ir_type=ir_type,
        monotone_slack=_least(lats[1:] - lats[:-1]),
        ir_first_slack=float(own[0]),
        ic_down_slack=_least(down),
        ic_up_slack=_least(up),
    )


# ---------------------------------------------------------------------------
# menu optimization


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
    # The term at x and at lo, its clamp read as ViolationProfile.prob reads it.
    bound_x = g * math.exp(-eta * x)
    bound_lo = g * math.exp(-eta * lo)
    value_x = a * x + w * (1.0 if bound_x > 1.0 else bound_x)
    value_lo = a * lo + w * (1.0 if bound_lo > 1.0 else bound_lo)
    return x if value_x < value_lo else lo


def _block_argmin(block: Sequence[Sequence[float]], lo: float, hi: float) -> float:
    """Exact minimiser of a pooled block's summed terms on [lo, hi].

    The members' kinks split [lo, hi] into segments on which every term is
    either clamped (linear) or decaying. All w share one sign (w = d*margin
    with d >= 0): with w <= 0 every term is nondecreasing and lo is exact;
    with w > 0 each segment is convex, so its minimum is an edge or the root
    of the slope A - sum w*eta*g*exp(-eta*x) over the decaying members. That
    slope is increasing and concave, so Newton started left of the root
    climbs to it without overshooting. The best candidate wins, the smallest
    latency on ties.

    Every sum runs left to right from 0.0, inline for speed, as `left_sum`
    adds.
    """
    exp, log = math.exp, math.log
    slope0 = 0.0
    positive = False
    # (kink, w*eta*g, eta) for every member that decays somewhere.
    curves = []
    for a, w, eta, g in block:
        slope0 += a
        if w > 0.0:
            positive = True
            if eta > 0.0 and g > 0.0:
                curves.append((log(g) / eta if g > 1.0 else -math.inf,
                               w * eta * g, eta))
    if not positive:
        return lo
    curves.sort()
    edges = [lo]
    for kink, _, _ in curves:
        if lo < kink < hi:
            edges.append(kink)
    edges.append(hi)
    candidates = list(edges)
    # The members decaying on a segment are those with kink <= its left edge:
    # a prefix of the kink-sorted curves, which grows as the segments move right.
    active: list[tuple[float, float]] = []
    n_curves, i = len(curves), 0
    for left, right in zip(edges, edges[1:]):
        while i < n_curves and curves[i][0] <= left:
            active.append(curves[i][1:])
            i += 1
        if not active:
            continue
        decay = 0.0
        for rate, eta in active:
            decay += rate * exp(-eta * right)
        if slope0 - decay <= 0.0:
            continue
        # Each member alone has its root at ln(rate/A)/eta, left of the sum's.
        x = left
        for rate, eta in active:
            if rate > slope0:
                root = log(rate / slope0) / eta
                if root > x:
                    x = root
        while x < right:
            slope, curvature = slope0, 0.0
            for rate, eta in active:
                decay = rate * exp(-eta * x)
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
        # a*x + w*min(1, g*exp(-eta*x)) summed over the members.
        value = 0.0
        for a, w, eta, g in block:
            bound = g * exp(-eta * x)
            value += a * x + w * (1.0 if bound > 1.0 else bound)
        if value < best_value:
            best, best_value = x, value
    return best


def _isotonic_minimize(
    terms: Sequence[Sequence[float]],
    argmins: list[float],
    lo: float,
    hi: float,
) -> list[float]:
    """Minimize a separable sum subject to nondecreasing arguments.

    argmins[n] is terms[n]'s own minimiser on [lo, hi]. Left-to-right
    pool-adjacent-violators: each one that undercuts the block before it is
    pooled into that block and the pooled sum is re-solved, so members of
    one block share an identical float.

    No minimiser lies below lo, so a block at lo is never pooled again: it
    leaves the stack at once, and a type at lo with no block before it costs
    one comparison. The blocks left on the stack are adjacent and end at the
    last type; every type before them is at lo.
    """
    starts: list[int] = []
    values: list[float] = []
    for n, value in enumerate(argmins):
        start = n
        while values and value < values[-1]:
            values.pop()
            start = starts.pop()
            value = _block_argmin(terms[start:n + 1], lo, hi)
        if value != lo:
            starts.append(start)
            values.append(value)
    out = [lo] * (starts[0] if starts else len(argmins))
    for start, stop, value in zip(starts, starts[1:] + [len(argmins)], values):
        out += [value] * (stop - start)
    return out


class _ListedRows:
    """One operator's (a, w, eta, g) terms as the rows of an N x 4 array,
    sliced as lists of Python floats: the array pass lists only the blocks
    that pool."""

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows

    def __getitem__(self, index: slice) -> list[list[float]]:
        return self.rows[index].tolist()


def _resolve_masses(
    demand_masses: Sequence[float], population: UserTypePopulation
) -> list[float]:
    masses = [float(x) for x in demand_masses]
    if len(masses) != population.n_types:
        raise DomainError(
            f"demand_masses must have {population.n_types} entries, got {len(masses)}"
        )
    for x in masses:
        if not 0.0 <= x < math.inf:
            raise DomainError(f"demand_masses must be >= 0 and finite, got {x}")
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


def menu_profit(
    prices: Sequence[float],
    violations: Sequence[float],
    population: UserTypePopulation,
    spec: OperatorSpec,
    demand_masses: Sequence[float],
) -> float:
    """Expected profit rate sum_n d_n (price_n - violation_cost * v_n) of a
    priced menu; all-zero masses fall back to the population composition."""
    return _profit(_resolve_masses(demand_masses, population), prices, violations,
                   spec.violation_cost)


def _profit(
    masses: Sequence[float],
    prices: Sequence[float],
    violations: Sequence[float],
    violation_cost: float,
) -> float:
    # Run per operator every round, so `left_sum`'s loop is inline here.
    total = 0.0
    for mass, price, viol in zip(masses, prices, violations):
        total += mass * (price - violation_cost * viol)
    return total


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
    lats = [float(x) for x in latencies]
    _check_schedule(lats, population, profile)
    # `recover_rewards` then `menu_profit`, with the violations evaluated once.
    viols = profile.probs(lats)
    prices = _prices(lats, viols, population, spec.quality, spec.refund)
    return menu_profit(prices, viols, population, spec, demand_masses)


def optimize_menu(
    population: UserTypePopulation,
    spec: OperatorSpec,
    task: TaskSpec,
    demand_masses: Sequence[float],
    congestion: Sequence[float],
    latency_bounds: tuple[float, float] = LATENCY_BOUNDS,
    zeta: float = ZETA,
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
    latency_bounds: tuple[float, float] = LATENCY_BOUNDS,
) -> ContractMenu:
    """Same solve with the violation profile already built (hot path in the
    market loop).

    The menu also carries, outside its value, what `optimize_menus` reads of
    the solve: `_violations`, each type's bound at its own item's latency,
    and `_profit`, the `menu_profit` at the resolved demand masses.
    """
    lo, hi = latency_bounds
    if not 0.0 < lo < hi:
        raise DomainError(f"latency bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    masses = _resolve_masses(demand_masses, population)
    _check_profile(profile, population.n_types)
    terms = _latency_terms(population, spec, masses, profile)
    lats = _isotonic_minimize(
        terms, [_term_argmin(term, lo, hi) for term in terms], lo, hi
    )
    # Pool-adjacent-violators returns one nondecreasing latency per type, so
    # the prices skip `recover_rewards`' checks of the schedule.
    viols = profile.probs(lats)
    prices = _prices(lats, viols, population, spec.quality, spec.refund)
    menu = ContractMenu(tuple(lats), tuple(prices))
    object.__setattr__(menu, "_violations", viols)
    object.__setattr__(menu, "_profit",
                       _profit(masses, prices, viols, spec.violation_cost))
    return menu


@dataclass(frozen=True)
class MenuSolve:
    """Every operator's optimal menu as M x N arrays: row m holds operator
    m's latencies, prices and violations (each type's bound at its own item's
    latency); profits[m] is its `menu_profit` at the masses it was solved for.
    """

    latencies: np.ndarray
    prices: np.ndarray
    violations: np.ndarray
    profits: np.ndarray

    def menus(self) -> tuple[ContractMenu, ...]:
        """The rows as checked `ContractMenu`s."""
        return tuple(
            ContractMenu(tuple(lats), tuple(prices))
            for lats, prices in zip(self.latencies.tolist(), self.prices.tolist())
        )


# From this many operator-type entries (M x N) on, `optimize_menus` solves
# every operator in one array pass; below it, operator by operator. The array
# pass pays about 40 numpy calls whatever the size, the per-operator path a
# fixed cost per operator. Each benchmark workload runs one side (README,
# "Size gates"; Intel Xeon, 2 vCPU, Python 3.11, numpy 2.4; median over the
# calls a seed-0 solve and bench make, best of 9 each): at 3 x 8 entries the
# per-operator solve takes 152 us against the array pass's 232 us on
# congested's calls and 135 against 196 us on fleet100's, and at 3 x 256 the
# array pass takes 630 us against 1 534 us on types256's. At M = 3 the paths
# cross between 66 and 72 entries on the default fleet's final masses and
# between 72 and 96 on types256's inputs cut to their first types (near 100
# entries at M = 1 and 48 at M = 6 on the default fleet); no workload runs
# between the gate and either crossover.
# `queueing._ARRAY_MIN_LANES` gates profile building the same way.
_ARRAY_MIN_ENTRIES = 60


def optimize_menus(
    population: UserTypePopulation,
    specs: Sequence[OperatorSpec],
    demand_masses: Sequence[Sequence[float]],
    profiles: Sequence[ViolationProfile],
    latency_bounds: tuple[float, float] = LATENCY_BOUNDS,
) -> MenuSolve:
    """`optimize_menu_with_profile` for every operator, with each menu's
    violations and `menu_profit`: specs[m], row m of the M x N demand_masses
    and profiles[m] are operator m's inputs.

    Below _ARRAY_MIN_ENTRIES entries it solves operator by operator. From it
    on it runs the same float operations in the same order over arrays: each
    type's closed-form minimiser for every operator at once, with
    `math.log`'s and `math.exp`'s bits from `libm_log` and `libm_exp`;
    pool-adjacent-violators per operator, calling
    `_block_argmin` only where types pool; and the prices of
    `recover_rewards` as one sequential `cumsum`. Both paths return the
    per-operator solve's floats bit for bit.
    """
    lo, hi = latency_bounds
    if not 0.0 < lo < hi:
        raise DomainError(f"latency bounds must satisfy 0 < lo < hi, got ({lo}, {hi})")
    n_ops, n_types = len(specs), population.n_types
    if len(profiles) != n_ops or len(demand_masses) != n_ops:
        raise DomainError(
            f"profiles and demand_masses must have {n_ops} rows, got "
            f"{len(profiles)} and {len(demand_masses)}"
        )
    if n_ops * n_types < _ARRAY_MIN_ENTRIES:
        # Rows as plain lists: iterating a numpy row yields numpy scalars.
        if isinstance(demand_masses, np.ndarray):
            demand_masses = demand_masses.tolist()
        menus = [
            optimize_menu_with_profile(population, spec, row, profile, latency_bounds)
            for spec, row, profile in zip(specs, demand_masses, profiles)
        ]
        lats, prices, viols = np.array([
            [menu.latencies for menu in menus],
            [menu.prices for menu in menus],
            [menu._violations for menu in menus],
        ])
        profits = np.array([menu._profit for menu in menus])
        return MenuSolve(lats, prices, viols, profits)

    for profile in profiles:
        _check_profile(profile, n_types)
    masses = np.array(demand_masses, dtype=float)
    if masses.shape != (n_ops, n_types):
        raise DomainError(
            f"demand_masses must be {n_ops} x {n_types}, got shape {masses.shape}"
        )
    finite = (masses >= 0.0) & (masses < math.inf)  # NaN fails both
    if not finite.all():
        raise DomainError(
            f"demand_masses must be >= 0 and finite, got {masses[~finite][0]}"
        )
    # Rows without demand fall back to the population composition, as in
    # `_resolve_masses`.
    for m in np.flatnonzero(~masses.any(axis=1)):
        masses[m] = population.counts
    eta = np.array([profile.eta for profile in profiles])
    g = np.array([profile.g for profile in profiles])
    betas = np.array(population.betas)
    # `_latency_terms` for every operator; tail[:, n] = tail[:, n + 1] +
    # masses[:, n], summed right to left from 0.0.
    tail = np.zeros((n_ops, n_types + 1))
    tail[:, 1:] = masses[:, ::-1]
    tail = np.cumsum(tail, axis=1)[:, ::-1]
    weighted = np.append(betas, 0.0) * tail
    a = weighted[:, :-1] - weighted[:, 1:]
    margin = np.array([spec.violation_cost - spec.refund for spec in specs])
    w = masses * margin[:, None]
    # Every type's bound at lo: the closed forms compare against it, and the
    # types the solve leaves at lo keep it as their violation.
    at_lo = _bounds(eta, g, lo)
    argmins = _term_argmins(a, w, eta, g, at_lo, lo, hi).tolist()
    terms = np.stack((a, w, eta, g), axis=2)
    lats = np.array([
        _isotonic_minimize(_ListedRows(rows), row_argmins, lo, hi)
        for rows, row_argmins in zip(terms, argmins)
    ])
    viols = at_lo.copy()
    moved = lats != lo
    viols[moved] = _bounds(eta[moved], g[moved], lats[moved])
    # `recover_rewards`: price n is price n - 1, less beta_n (L_n - L_{n-1}),
    # plus refund (v_n - v_{n-1}); one cumsum over the interleaved steps.
    refund = np.array([spec.refund for spec in specs])
    steps = np.empty((n_ops, 2 * n_types - 1))
    steps[:, 0] = (np.array([population.alpha_worst * spec.quality for spec in specs])
                   - population.betas[0] * lats[:, 0] + refund * viols[:, 0])
    steps[:, 1::2] = -(betas[1:] * np.diff(lats, axis=1))
    steps[:, 2::2] = refund[:, None] * np.diff(viols, axis=1)
    prices = np.cumsum(steps, axis=1)[:, ::2]
    # `menu_profit` per operator, summed left to right from 0.0.
    cost = np.array([spec.violation_cost for spec in specs])
    margins = np.zeros((n_ops, n_types + 1))
    margins[:, 1:] = masses * (prices - cost[:, None] * viols)
    return MenuSolve(lats, prices, viols, np.cumsum(margins, axis=1)[:, -1])


def _bounds(eta: np.ndarray, g: np.ndarray, x: np.ndarray | float) -> np.ndarray:
    """min(1, g*exp(-eta*x)) per element, as `ViolationProfile.prob` reads it."""
    value = g * libm_exp(-eta * x)
    return np.where(value > 1.0, 1.0, value)


def _term_argmins(
    a: np.ndarray, w: np.ndarray, eta: np.ndarray, g: np.ndarray,
    at_lo: np.ndarray, lo: float, hi: float,
) -> np.ndarray:
    """`_term_argmin` for every term (a, w, eta, g) of equal-shape arrays,
    with at_lo = _bounds(eta, g, lo)."""
    out = np.full(a.shape, lo)
    # Terms that never decay, or whose kink lies at or past hi, keep lo.
    idx = np.flatnonzero((w > 0.0) & (eta > 0.0) & (g > 0.0))
    a, w, eta, g = a.ravel()[idx], w.ravel()[idx], eta.ravel()[idx], g.ravel()[idx]
    left = np.full(idx.size, lo)
    kinked = g > 1.0
    left[kinked] = np.maximum(lo, libm_log(g[kinked]) / eta[kinked])
    keep = left < hi
    idx, left = idx[keep], left[keep]
    a, w, eta, g = a[keep], w[keep], eta[keep], g[keep]
    rate = w * eta * g
    x = np.where(a == 0.0, hi, left)
    rising = (a != 0.0) & (rate > a)
    x[rising] = np.minimum(
        np.maximum(libm_log(rate[rising] / a[rising]) / eta[rising], left[rising]), hi
    )
    at_x = a * x
    value_lo = a * lo + w * at_lo.ravel()[idx]
    # w > 0 and a bound >= 0 make a*x a lower bound of the term at x, rounding
    # included: where it already reaches the term at lo, x cannot win and its
    # bound is not evaluated.
    open_ = np.flatnonzero(at_x < value_lo)
    better = ((at_x[open_] + w[open_] * _bounds(eta[open_], g[open_], x[open_]))
              < value_lo[open_])
    np.put(out, idx[open_[better]], x[open_[better]])
    return out


def menu_grid_gap(
    population: UserTypePopulation,
    spec: OperatorSpec,
    task: TaskSpec,
    zeta: float,
    latency_bounds: tuple[float, float],
) -> float:
    """(grid best - solved) / max(|grid best|, 1e-12) for one operator's menu.

    Masses are counts times the per-user arrival rate, and the profile is built
    at their cumulative sums. Grid best is the largest `menu_objective` over
    every nondecreasing schedule on 40 evenly spaced latencies in
    latency_bounds, so an optimal solve gives a gap of at most 0 up to
    rounding. The scan costs C(39 + N, N) objective calls: meant for N <= 3.
    """
    masses = np.asarray(population.counts, float) * task.arrival_rate_per_user
    profile = violation_profile(spec, task, np.cumsum(masses), zeta)
    menu = optimize_menu_with_profile(population, spec, masses, profile, latency_bounds)
    solved = menu_objective(menu.latencies, population, spec, masses, profile)
    grid = np.linspace(latency_bounds[0], latency_bounds[1], 40)
    best = max(
        menu_objective(lats, population, spec, masses, profile)
        for lats in itertools.combinations_with_replacement(grid, population.n_types)
    )
    return (best - solved) / max(abs(best), 1e-12)


# ---------------------------------------------------------------------------
# welfare


def social_welfare(
    menus: Sequence[ContractMenu],
    matching: np.ndarray,
    population: UserTypePopulation,
    task: TaskSpec,
    specs: Sequence[OperatorSpec],
    violations: Sequence[Sequence[float]],
    opt_out_utility: float = 0.0,
) -> float:
    """Operator surplus plus user surplus under a (possibly mixed) matching.

    matching is N x (M+1) with the opt-out column first; violations[m][n] is
    operator m's violation bound at item n's latency, at the loads the
    matching induces. User utility accrues per task, so each type's surplus
    is weighted by its served task rate and prices cancel between the two
    sides.
    """
    z = np.asarray(matching, dtype=float)
    n_types = population.n_types
    delta = task.arrival_rate_per_user
    if z.shape != (n_types, len(menus) + 1):
        raise DomainError(
            f"matching must be {(n_types, len(menus) + 1)}, got {z.shape}"
        )
    if not len(specs) == len(violations) == len(menus):
        raise DomainError(
            f"specs and violations must have {len(menus)} rows, got "
            f"{len(specs)} and {len(violations)}"
        )
    for viols in violations:
        if len(viols) != n_types:
            raise DomainError(
                f"violations must have {n_types} entries per row, got {len(viols)}"
            )
    utilities = ItemUtilities(population, specs).rows(
        np.array([menu.latencies for menu in menus]),
        np.array([menu.prices for menu in menus]),
        np.array(violations, dtype=float),
    ).tolist()
    # Each type's task rate into every column, opt-out first.
    served = np.asarray(population.counts, dtype=float)[:, None] * z * delta
    # Each operator's surplus, then its users', interleaved: `left_sum`'s
    # order, inline.
    total = 0.0
    for menu, spec, viols, loads, row in zip(menus, specs, violations,
                                             served[:, 1:].T.tolist(), utilities):
        total += operator_utility(menu, loads, spec, viols)
        for load, u in zip(loads, row):
            total += load * u
    for load in served[:, 0].tolist():
        total += load * opt_out_utility
    return total
