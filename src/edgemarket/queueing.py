"""Multi-server queueing tails and an exponential upper bound on end-to-end latency.

Each service stage is an M/M/c queue. A task traverses three stages in
sequence (uplink transfer, processing, downlink transfer); the probability
that the summed sojourn time exceeds an agreed latency is bounded with a
Chernoff/MGF argument sharing one exponent across stages.

Every stage's wait probability comes from `erlang_c`, which evaluates the
Poisson pmf at c in saddle-point form and sums the Poisson tail ratio, so a
call costs O(sqrt(c)) steps at most, not c, with relative error about 1e-12.

`build_profiles` makes every violation profile: for a `StageTable` of
operators and every priority-class load it computes eta, the excess
capacities, the wait probabilities and g in one numpy pass. The table checks
the stages once and holds their per-stage constants, so a caller that builds
many profiles for one market builds it once. `erlang_c`'s float operations
after its input checks are `_erlang_c_lane`; `build_profiles` runs it once per
run of equal loads of an operator and stage, per lane on small calls and, from
_ARRAY_MIN_LANES (operator, stage, type) triples on, `_erlang_c_lanes`, which
runs the same float operations in the same order over arrays. Both return
`erlang_c`'s floats bit for bit, so every profile equals the scalar
`ViolationModel` exactly.

`libm_exp` and `libm_log` give `math.exp`'s and `math.log`'s bits over
arrays, through numpy's per-element loop rather than its SIMD loops; the
array paths here and in `contracts` take every exp and log through them.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.errors import DomainError

# Relative width of the removed neighbourhood around the excess-capacity /
# service-rate resonance in the two-exponential sojourn tail.
_DEGENERATE_REL_TOL = 1e-9
_DEGENERATE_NUDGE = 1e-6

_TWO_PI = 2.0 * math.pi
_LN_SQRT_2PI = 0.5 * math.log(_TWO_PI)
_EPS = 2.0**-53
# Stirling-series coefficients of stirlerr(n) for n > 15.
_S0, _S1, _S2, _S3, _S4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188


@dataclass(frozen=True)
class StageParams:
    """One M/M/c service stage: c servers, per-server rate, Poisson arrivals."""

    servers: int
    unit_rate: float   # tasks/s one server completes
    arrival_rate: float  # tasks/s offered to the stage

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise DomainError(f"servers must be >= 1, got {self.servers}")
        if not self.unit_rate > 0.0:
            raise DomainError(f"unit_rate must be > 0, got {self.unit_rate}")
        if self.arrival_rate < 0.0:
            raise DomainError(f"arrival_rate must be >= 0, got {self.arrival_rate}")

    @property
    def service_capacity(self) -> float:
        return self.servers * self.unit_rate

    @property
    def excess_capacity(self) -> float:
        """Drain rate of the queue seen by a waiting task: c*mu - lambda."""
        return self.service_capacity - self.arrival_rate

    @property
    def is_stable(self) -> bool:
        return self.arrival_rate < self.service_capacity


@dataclass(frozen=True)
class StageTail:
    """Sufficient statistics of one stage's sojourn-time tail."""

    wait_prob: float        # probability an arriving task queues
    unit_rate: float        # mu
    excess_capacity: float  # r = c*mu - lambda, possibly nudged off r == mu

    @classmethod
    def from_params(cls, params: StageParams) -> StageTail:
        if not params.is_stable:
            raise DomainError(
                f"arrival_rate {params.arrival_rate} is not below service capacity "
                f"{params.service_capacity} (unstable stage)"
            )
        mu = params.unit_rate
        r = params.excess_capacity
        # The tail mixes exp(-mu t) and exp(-r t) with weights ~ 1/(r - mu);
        # nudge r off the resonance so the signed weights stay finite.
        if abs(r - mu) < _DEGENERATE_REL_TOL * mu:
            r = mu * (1.0 + _DEGENERATE_NUDGE)
        return cls(
            wait_prob=erlang_c(params.servers, params.arrival_rate, params.unit_rate),
            unit_rate=mu,
            excess_capacity=r,
        )

    def survival(self, t: float) -> float:
        """P(sojourn > t): two-exponential mixture with signed weights."""
        if t < 0.0:
            raise DomainError(f"t must be >= 0, got {t}")
        if t == 0.0:
            return 1.0  # sojourn is a.s. positive; avoids w - w cancellation
        mu, r = self.unit_rate, self.excess_capacity
        w = self.wait_prob * mu / (r - mu)
        value = (1.0 + w) * math.exp(-mu * t) - w * math.exp(-r * t)
        # Exact in reals; guard rounding at the ends of the range.
        return min(1.0, max(0.0, value))

    def mean_sojourn(self) -> float:
        return 1.0 / self.unit_rate + self.wait_prob / self.excess_capacity


def erlang_c(servers: int, arrival_rate: float, unit_rate: float) -> float:
    """Probability an arriving task waits in an M/M/c queue.

    With offered load a = arrival_rate / unit_rate and X ~ Poisson(a), the
    Erlang-B blocking probability is B = pi_c / (1 - pi_c * S), where
    pi_c = P(X = c) and S = P(X > c) / pi_c = sum_{i>=1} prod_{l=1..i} a/(c+l).
    Erlang-C follows as B / (1 - rho (1 - B)).

    pi_c uses Loader's saddle-point form exp(-stirlerr(c) - bd0(c, a)) /
    sqrt(2 pi c) (C. Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000): no factorial to overflow, and no cancellation
    between large lgamma and log terms.
    S is summed until a term no longer moves 1 - pi_c * S, i.e. until
    pi_c * term < 2**-53 * P(X <= c). Its terms shrink at least like rho**i
    and like exp(-i**2 / 2c), so a call costs O(1) steps where pi_c is
    negligible and at most about 9 sqrt(c) + 10 where it is not, instead of
    the c steps of the Erlang-B recurrence.

    Error bound: the exponent of pi_c is accurate to a few ulps of bd0, and
    bd0 < 746 wherever pi_c does not underflow, so pi_c and the result carry
    a relative error of at most about 1e-12, and an absolute error of about
    1e-16 (the denominator is summed from nonnegative terms, so it stays
    accurate as rho -> 1). Against a 50-digit Erlang-B recurrence on the same
    offered load, c up to 20 000 and rho in [0.05, 0.999], the measured worst
    cases are 2.2e-16 absolute and 2.4e-13 relative. When pi_c underflows
    the result is exactly 0.0.
    """
    if servers < 1:
        raise DomainError(f"servers must be >= 1, got {servers}")
    if not unit_rate > 0.0:
        raise DomainError(f"unit_rate must be > 0, got {unit_rate}")
    if arrival_rate < 0.0:
        raise DomainError(f"arrival_rate must be >= 0, got {arrival_rate}")
    if arrival_rate == 0.0:
        return 0.0
    if arrival_rate >= servers * unit_rate:
        raise DomainError(
            f"arrival_rate {arrival_rate} must stay below servers*unit_rate "
            f"{servers * unit_rate} for a stable queue"
        )
    return _erlang_c_lane(servers, arrival_rate / unit_rate, _stirlerr(servers),
                          math.sqrt(_TWO_PI * servers))


def _erlang_c_lane(servers: int, offered: float, stirlerr: float, root: float) -> float:
    """`erlang_c` past its input checks, for one stable lane: offered load
    0 < offered < servers, stirlerr = _stirlerr(servers) and
    root = math.sqrt(2 pi servers)."""
    pmf = math.exp(-stirlerr - _bd0(servers, offered)) / root
    if pmf == 0.0:
        return 0.0
    k = servers + 1
    tail = term = offered / k
    while pmf * term >= _EPS * (1.0 - pmf * tail):
        k += 1
        term *= offered / k
        tail += term
    blocking = pmf / (1.0 - pmf * tail)
    # 1 - rho (1 - B) as a sum of nonnegative terms: accurate near rho = 1,
    # and never below B, so the result stays in [0, 1].
    idle = (servers - offered) / servers
    return blocking / (blocking + idle * (1.0 - blocking))


def _stirlerr(n: int) -> float:
    """ln(n!) - ln(sqrt(2 pi n) (n/e)**n), the remainder of Stirling's formula."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - _LN_SQRT_2PI
    nn = float(n) * n
    return (_S0 - (_S1 - (_S2 - (_S3 - _S4 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, m: float) -> float:
    """x ln(x/m) + m - x, the Poisson deviance term, for 0 < m < x.

    Loader's series in v = (x - m)/(x + m) sums positive terms, so it is
    accurate to a few ulps; it runs for m > x/2 (v < 1/3), where it needs
    at most about 17 terms. For m <= x/2, bd0 >= (ln 2 - 1/2) x, so the
    direct formula loses at most a few more ulps of bd0 to the rounding of
    x/m and to cancellation.
    """
    if m > 0.5 * x:
        v = (x - m) / (x + m)
        s = (x - m) * v
        ej = 2.0 * x * v
        v *= v
        j = 1
        while True:
            ej *= v
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                return s1
            s = s1
            j += 1
    return x * math.log(x / m) + m - x


def libm_exp(x: np.ndarray) -> np.ndarray:
    """`math.exp` of every element of x, bit for bit, in an array of x's shape.

    Where numpy 2.4 runs float64 exp on AVX-512, a contiguous `np.exp`
    differs from `math.exp` in the last bit on about one argument in 25.
    numpy's SIMD loops do not take an input with a negative stride: numpy
    sends it to its per-element loop, which calls the C library's exp, the
    function `math.exp` calls. So x is made contiguous, flattened to 1-D and
    passed reversed, and the result is reversed back. Flattening matters: a
    2-D array with reversed rows keeps a positive inner stride and reaches
    the SIMD loop, as does a view such as x[::2]. Beyond `math.exp`'s range
    numpy's overflow to inf stands in for `OverflowError`; the callers'
    arguments are all at most 0.
    """
    flat = np.ascontiguousarray(x, dtype=float).reshape(-1)
    return np.exp(flat[::-1])[::-1].reshape(np.shape(x))


def libm_log(x: np.ndarray) -> np.ndarray:
    """`math.log` of every element of x, bit for bit, in an array of x's shape.

    `libm_exp`'s loop selection for log: a contiguous `np.log` differs from
    `math.log` on some arguments, mostly near 1, under numpy's AVX-512
    dispatch. At or below 0 numpy's -inf or NaN stands in for `ValueError`;
    the callers' arguments are all above 1.
    """
    flat = np.ascontiguousarray(x, dtype=float).reshape(-1)
    return np.log(flat[::-1])[::-1].reshape(np.shape(x))


def left_sum(values: Iterable[float]) -> float:
    """The float sum of values, added left to right from 0.0.

    Every sum on an output path adds this way. Builtin `sum()` compensates
    float rounding from Python 3.12 on (Neumaier 1974), and `math.fsum`
    rounds once at the end, so either would make the outputs depend on the
    Python version; loops too hot for a call here add in the same order.
    """
    total = 0.0
    for x in values:
        total += x
    return total


# Series terms taken per numpy pass in `_erlang_c_lanes`: its temporaries are
# (_BLOCK + 1) x (lanes still summing) floats. The tail ratio's lanes that
# outlast a block are those near capacity, whose terms shrink slowest, so its
# later blocks widen by half a block each.
_BLOCK = 16


def _erlang_c_lanes(
    c: np.ndarray,
    offered: np.ndarray,
    stirlerr: np.ndarray,
    root: np.ndarray,
) -> np.ndarray:
    """`_erlang_c_lane` on arrays of lanes, equal to it bit for bit.

    Lane i has c[i] servers at offered load offered[i], with
    stirlerr[i] = _stirlerr(c[i]) and root[i] = math.sqrt(2 pi c[i]). Every
    lane runs the scalar code's float operations in its order: elementwise
    numpy arithmetic rounds as Python floats do, `libm_log` and `libm_exp`
    give `math.log`'s and `math.exp`'s bits, and the two series advance every
    lane by one term per numpy call, stopping each lane at the index the
    scalar loop stops at.
    """
    bd0 = np.empty_like(offered)
    series = offered > 0.5 * c
    direct = ~series
    x, m = c[direct], offered[direct]
    bd0[direct] = x * libm_log(x / m) + m - x
    bd0[series] = _bd0_lanes(c[series], offered[series])
    log_pmf = -stirlerr - bd0
    pmf = libm_exp(log_pmf) / root
    # Where the pmf underflows, blocking and the result are exactly 0.0, the
    # scalar code's early return.
    blocking = pmf / (1.0 - pmf * _tail_ratio_lanes(c, offered, pmf))
    idle = (c - offered) / c
    return blocking / (blocking + idle * (1.0 - blocking))


# A block holds one row per term and one column per lane, and its running
# products (op np.multiply) and sums (np.add) advance one row per numpy call
# over every lane: `np.cumprod`/`np.cumsum` along a short axis cost several
# times as much per element. Both run left to right, as the scalar loops do.
def _accumulate_rows(op: np.ufunc, block: np.ndarray) -> None:
    rows = list(block)
    for before, row in zip(rows, rows[1:]):
        op(before, row, out=row)


def _bd0_lanes(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """`_bd0`'s series branch per lane (m > x/2), in blocks of _BLOCK terms."""
    v = (x - m) / (x + m)
    s = (x - m) * v
    ej = 2.0 * x * v
    v = v * v
    out = np.empty_like(x)
    lanes = np.arange(x.size)
    j = 1.0
    while lanes.size:
        # Row k of `ejs` is ej after k more factors v; row k of `sums` is s
        # after k more terms ej / (2 j + 1).
        ejs = np.empty((_BLOCK + 1, lanes.size))
        ejs[0] = ej
        ejs[1:] = v
        _accumulate_rows(np.multiply, ejs)
        sums = np.empty_like(ejs)
        sums[0] = s
        np.divide(ejs[1:], 2.0 * np.arange(j, j + _BLOCK)[:, None] + 1.0,
                  out=sums[1:])
        _accumulate_rows(np.add, sums)
        stop = sums[1:] == sums[:-1]
        done = stop.any(axis=0)
        out[lanes[done]] = sums[stop[:, done].argmax(axis=0) + 1, done]
        more = ~done
        lanes, s, ej, v = lanes[more], sums[-1, more], ejs[-1, more], v[more]
        j += _BLOCK
    return out


def _tail_ratio_lanes(
    c: np.ndarray, offered: np.ndarray, pmf: np.ndarray
) -> np.ndarray:
    """`erlang_c`'s tail ratio S per lane, in blocks of _BLOCK terms and
    more."""
    term = offered / (c + 1.0)
    out = term.copy()  # tail = term after the first term
    # Most lanes stop at the first term; only the rest enter the blocks.
    lanes = np.flatnonzero(pmf * term >= _EPS * (1.0 - pmf * term))
    c, offered, pmf = c[lanes], offered[lanes], pmf[lanes]
    term = term[lanes]
    tail = term
    k, width = 2.0, _BLOCK  # the next term's index past c; terms per block
    while lanes.size:
        # Row i of `terms` is the term i factors offered / (c + k) later,
        # row i of `tails` the tail i terms later.
        terms = np.empty((width + 1, lanes.size))
        terms[0] = term
        np.divide(offered, c + np.arange(k, k + width)[:, None], out=terms[1:])
        _accumulate_rows(np.multiply, terms)
        tails = terms.copy()
        tails[0] = tail
        _accumulate_rows(np.add, tails)
        stop = pmf * terms[:-1] < _EPS * (1.0 - pmf * tails[:-1])
        done = stop.any(axis=0)
        out[lanes[done]] = tails[stop[:, done].argmax(axis=0), done]
        more = ~done
        lanes, c, offered, pmf = lanes[more], c[more], offered[more], pmf[more]
        term, tail = terms[-1, more], tails[-1, more]
        k += width
        width += _BLOCK // 2
    return out


def stage_rate(per_task: float, unit_throughput: float) -> float:
    """Per-server completion rate: unit throughput divided by per-task demand."""
    if not per_task > 0.0:
        raise DomainError(f"per_task must be > 0, got {per_task}")
    if not unit_throughput > 0.0:
        raise DomainError(f"unit_throughput must be > 0, got {unit_throughput}")
    return unit_throughput / per_task


def chernoff_eta(stages: tuple[StageParams, ...], zeta: float) -> float:
    """Shared bound exponent: zeta times the tightest per-server rate slack."""
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"zeta must be in (0, 1), got {zeta}")
    if not stages:
        raise DomainError("stages must be non-empty")
    slacks = []
    for s in stages:
        if not s.is_stable:
            raise DomainError(
                f"arrival_rate {s.arrival_rate} is not below service capacity "
                f"{s.service_capacity} (unstable stage)"
            )
        slacks.append(s.unit_rate - s.arrival_rate / s.servers)
    return zeta * min(slacks)


def chernoff_g(stage: StageTail, eta: float) -> float:
    """MGF of one stage's sojourn at eta; equals 1 at eta = 0."""
    if eta < 0.0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    mu, r = stage.unit_rate, stage.excess_capacity
    if eta >= mu or eta >= r:
        raise DomainError(
            f"eta {eta} must stay below unit_rate {mu} and excess_capacity {r}"
        )
    p = stage.wait_prob
    return ((1.0 - p) + p * r / (r - eta)) * mu / (mu - eta)


@dataclass(frozen=True)
class ViolationModel:
    """Bound on P(three-stage latency > t): min(1, g_product * exp(-eta t))."""

    stages: tuple[StageTail, StageTail, StageTail]
    eta: float
    zeta: float
    g_product: float

    def __post_init__(self) -> None:
        if not self.eta > 0.0:
            raise DomainError(f"eta must be > 0, got {self.eta}")
        for s in self.stages:
            if self.eta >= s.unit_rate or self.eta >= s.excess_capacity:
                raise DomainError(
                    f"eta {self.eta} must stay below every stage's unit_rate "
                    f"and excess_capacity"
                )

    @classmethod
    def from_stages(
        cls, stages: tuple[StageParams, StageParams, StageParams], zeta: float
    ) -> ViolationModel:
        if len(stages) != 3:
            raise DomainError(f"expected 3 stages, got {len(stages)}")
        eta = chernoff_eta(stages, zeta)
        tails = tuple(StageTail.from_params(s) for s in stages)
        g_product = 1.0
        for tail in tails:
            g_product *= chernoff_g(tail, eta)
        return cls(stages=tails, eta=eta, zeta=zeta, g_product=g_product)

    def mean_total(self) -> float:
        return left_sum(stage.mean_sojourn() for stage in self.stages)


def violation_prob(model: ViolationModel, t: float) -> float:
    """Chernoff bound on the end-to-end latency tail, clamped into [0, 1]."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    return min(1.0, model.g_product * math.exp(-model.eta * t))


def _check_curves(eta: np.ndarray, g: np.ndarray) -> None:
    if not ((eta >= 0.0).all() and (g >= 0.0).all()):
        raise DomainError("eta and g must be >= 0")


@dataclass(frozen=True, eq=False)
class ViolationProfile:
    """Per-type bounds min(1, g_n * exp(-eta_n t)) at one operator's loads.

    A pinned type (some stage unstable at its load) has eta 0 and g 1, so its
    bound is 1 at every latency. Curves are read with `math.exp` on Python
    floats, the arithmetic `violation_prob` does on a `ViolationModel`.
    """

    eta: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        eta = np.array(self.eta, dtype=float)
        g = np.array(self.g, dtype=float)
        if eta.ndim != 1 or eta.shape != g.shape:
            raise DomainError(
                f"eta and g must be vectors of one length, got shapes "
                f"{eta.shape} and {g.shape}"
            )
        _check_curves(eta, g)
        eta.setflags(write=False)
        g.setflags(write=False)
        self._hold(eta, g)

    def _hold(self, eta: np.ndarray, g: np.ndarray) -> None:
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "g", g)

    @classmethod
    def _rows(cls, eta: np.ndarray, g: np.ndarray) -> list[ViolationProfile]:
        """One profile per row of M x N arrays eta and g that the caller has
        checked; each profile holds read-only views of its rows."""
        eta.setflags(write=False)
        g.setflags(write=False)
        profiles = []
        for row_eta, row_g in zip(eta, g):
            profile = object.__new__(cls)
            profile._hold(row_eta, row_g)
            profiles.append(profile)
        return profiles

    def __len__(self) -> int:
        return len(self.eta)

    def prob(self, n: int, t: float) -> float:
        """Type n's violation bound at agreed latency t."""
        value = float(self.g[n]) * math.exp(-float(self.eta[n]) * t)
        return 1.0 if value > 1.0 else value

    def probs(self, latencies: Sequence[float]) -> list[float]:
        """Each type's bound at its own latency: type n at latencies[n]."""
        if len(latencies) != len(self.eta):
            raise DomainError(
                f"latencies must have {len(self.eta)} entries, one per type, "
                f"got {len(latencies)}"
            )
        out = []
        for eta, g, t in zip(self.eta.tolist(), self.g.tolist(), latencies):
            value = g * math.exp(-eta * t)
            out.append(1.0 if value > 1.0 else value)
        return out


class StageTable:
    """M operators' S service stages, checked once, with the per-stage
    constants every `build_profiles` call reads.

    Row m of servers and unit_rates lists operator m's stages: server counts
    (>= 1) and per-server rates (> 0). The table keeps them as M x S arrays,
    plus each stage's capacity c*mu, each operator's smallest capacity, the
    resonance test's width and nudged rate, and the constants `erlang_c`
    derives from c on every call: _stirlerr(c) and math.sqrt(2 pi c).
    `lanes[m]` holds operator m's stages as (c, mu, stirlerr, root) tuples of
    Python numbers, the arguments `_erlang_c_lane` takes.
    """

    def __init__(
        self, servers: Sequence[Sequence[int]], unit_rates: Sequence[Sequence[float]]
    ) -> None:
        n_servers = np.array(servers, dtype=np.int64)
        rates = np.array(unit_rates, dtype=float)
        if n_servers.ndim != 2 or n_servers.shape != rates.shape:
            raise DomainError(
                f"servers and unit_rates must be M x S tables of one shape, got "
                f"shapes {n_servers.shape} and {rates.shape}"
            )
        if not (n_servers >= 1).all():
            raise DomainError(f"servers must be >= 1, got {n_servers.min()}")
        if not (rates > 0.0).all():
            raise DomainError(f"unit_rate must be > 0, got {rates.min()}")
        self.servers = n_servers
        self.unit_rates = rates
        # M x S x 1, to broadcast against M x 1 x N loads.
        self.c = n_servers.astype(float)[:, :, None]
        self.mu = rates[:, :, None]
        self.capacity = self.c * self.mu
        self.min_capacity = self.capacity.min(axis=1)
        self.resonance = _DEGENERATE_REL_TOL * self.mu
        self.nudged = self.mu * (1.0 + _DEGENERATE_NUDGE)
        per_stage = n_servers.tolist()
        self.stirlerr = np.array([[_stirlerr(c) for c in row] for row in per_stage])
        self.root = np.array([[math.sqrt(_TWO_PI * c) for c in row]
                              for row in per_stage])
        self.lanes = [list(zip(*row)) for row in zip(
            per_stage, rates.tolist(), self.stirlerr.tolist(), self.root.tolist()
        )]

    @property
    def n_operators(self) -> int:
        return self.servers.shape[0]


def violation_curve(
    stages: Sequence[tuple[int, float, float, float]], load: float, zeta: float
) -> tuple[float, float]:
    """`ViolationModel.from_stages`' (eta, g_product) for one operator's stages
    carrying one load >= 0; pinned (eta 0, g 1) where some stage is unstable,
    as in a profile.

    stages is a `StageTable.lanes` row. The float operations and their order
    are those of `chernoff_eta`, `StageTail.from_params`, `erlang_c` and
    `chernoff_g`, and every check of theirs that a stable load can fail
    raises the same `DomainError`, so `min(1, g * exp(-eta t))` equals
    `violation_prob` on the scalar model bit for bit.
    """
    for c, mu, _, _ in stages:
        if not load < c * mu:
            return 0.0, 1.0
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"zeta must be in (0, 1), got {zeta}")
    eta = zeta * min([mu - load / c for c, mu, _, _ in stages])
    if eta < 0.0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    g = 1.0
    for c, mu, stirlerr, root in stages:
        r = c * mu - load
        if abs(r - mu) < _DEGENERATE_REL_TOL * mu:
            r = mu * (1.0 + _DEGENERATE_NUDGE)
        if eta >= mu or eta >= r:
            raise DomainError(
                f"eta {eta} must stay below unit_rate {mu} and excess_capacity {r}"
            )
        p = _erlang_c_lane(c, load / mu, stirlerr, root) if load > 0.0 else 0.0
        g *= ((1.0 - p) + p * r / (r - eta)) * mu / (mu - eta)
    if not eta > 0.0:
        raise DomainError(f"eta must be > 0, got {eta}")
    return eta, g


# Below this many (operator, stage, type) triples in a `build_profiles` call,
# `_erlang_c_table` walks the loads as Python lists and runs `_erlang_c_lane`
# per load that differs from the type before's; from it on, it runs those
# same loads through `_erlang_c_lanes`, whose fixed cost of ~80 numpy calls
# outweighs its lower per-lane cost on small calls. Each benchmark workload
# runs one side (README, "Size gates"; Intel Xeon, 2 vCPU, Python 3.11,
# numpy 2.4; median over the calls a seed-0 solve and bench make, best of 9
# each): at 72 triples the list path takes 218 us against the array path's
# 332 us on congested's calls and 97 against 144 us on fleet100's, and at
# 2 304 triples the array path takes 571 us against 2 321 us on types256's.
# The paths cross near 126 triples on the default fleet's final loads and
# between 288 and 360 on types256's loads cut to their first types; no
# workload runs between the gate and either crossover.
# `contracts._ARRAY_MIN_ENTRIES` gates the menu solve the same way.
_ARRAY_MIN_LANES = 144


def build_profiles(
    table: StageTable, loads: Sequence[Sequence[float]], zeta: float
) -> list[ViolationProfile]:
    """`ViolationModel.from_stages` for every operator and load, in one array pass.

    Row m of the M x N loads matrix holds the load all of the table's
    operator m's stages carry, type by type. The float operations and their
    order are those of `chernoff_eta`, `StageTail.from_params`, `chernoff_g`
    and `erlang_c`, so every stable type's eta and g equal the scalar model's
    bit for bit. Erlang-C runs once per run of equal nonzero loads of an
    operator and stage, which for cumulative loads is once per distinct load;
    a type some stage cannot carry is pinned (eta 0, g 1).
    """
    if not 0.0 < zeta < 1.0:
        raise DomainError(f"zeta must be in (0, 1), got {zeta}")
    lam = np.asarray(loads, dtype=float)
    if lam.ndim != 2:
        raise DomainError(f"loads must be an M x N matrix, got shape {lam.shape}")
    if not (lam >= 0.0).all():  # NaN fails this too
        raise DomainError(f"loads must be >= 0, got {lam.min()}")
    if lam.shape[0] != table.n_operators:
        raise DomainError(
            f"loads must have one row per operator of the stage table "
            f"({table.n_operators}), got {lam.shape[0]}"
        )
    c, mu = table.c, table.mu
    # Below every stage's capacity iff below the smallest one. Pinned types
    # are evaluated at load 0, where every step is finite, and then reset.
    stable = lam < table.min_capacity
    lam = np.where(stable, lam, 0.0)
    per_stage = lam[:, None, :]
    eta = zeta * (mu - per_stage / c).min(axis=1)
    r = table.capacity - per_stage
    r = np.where(np.abs(r - mu) < table.resonance, table.nudged, r)
    p = _erlang_c_table(table, lam)
    eta_s = eta[:, None, :]
    below_r, below_mu = r - eta_s, mu - eta_s
    stage_g = ((1.0 - p) + p * r / below_r) * mu / below_mu
    # The product over stages, multiplied in stage order.
    g = stage_g.prod(axis=1)
    # A difference of finite floats is positive iff the first is larger;
    # min carries a NaN through, so a NaN eta fails the first test.
    if not (eta.min(initial=math.inf) > 0.0
            and below_mu.min(initial=math.inf) > 0.0
            and below_r.min(initial=math.inf) > 0.0):
        raise DomainError(
            "eta must stay positive and below every stage's unit_rate and "
            "excess_capacity"
        )
    # Past that check every stage's factor of g is positive (p in [0, 1],
    # eta below mu and r), so the curves need no further check.
    return ViolationProfile._rows(np.where(stable, eta, 0.0), np.where(stable, g, 1.0))


def _erlang_c_table(table: StageTable, lam: np.ndarray) -> np.ndarray:
    """Erlang-C as an M x S x N array: operator, stage, load.

    lam holds the M x N loads, each below its operator's smallest stage
    capacity. Each run of equal nonzero loads in a row becomes one lane per
    stage; a zero load waits with probability 0. The table has checked every
    input `erlang_c` checks, so the lanes skip those checks and read the
    table's per-stage constants.

    Cumulative loads repeat only next to each other (where a type adds no
    traffic), so each distinct load runs once. Below _ARRAY_MIN_LANES
    (operator, stage, type) triples the loads are walked as Python lists,
    type by type: a load equal to the type before's takes its wait, any
    other runs `_erlang_c_lane`, and one array is built from the waits. From
    the gate on, the first load of each run becomes a lane of
    `_erlang_c_lanes`, and every load reads its run's waits by one fancy
    index.
    """
    n_ops, n_types = lam.shape
    n_stages = table.servers.shape[1]
    if n_ops * n_types * n_stages < _ARRAY_MIN_LANES:
        waits = []
        for stages, row in zip(table.lanes, lam.tolist()):
            for c, mu, stirlerr, root in stages:
                previous = wait = 0.0
                for x in row:
                    if x != previous:
                        previous = x
                        # erlang_c's offered load is arrival_rate / unit_rate.
                        wait = (_erlang_c_lane(c, x / mu, stirlerr, root)
                                if x > 0.0 else 0.0)
                    waits.append(wait)
        return np.array(waits).reshape(n_ops, n_stages, n_types)
    # First load of each run of equal nonzero loads, type by type.
    first = lam > 0.0
    first[:, 1:] &= lam[:, 1:] != lam[:, :-1]
    # Row k >= 1 of `waits` holds the k-th run's lanes; row 0 is zero.
    slot = np.where(lam > 0.0, np.cumsum(first, axis=None).reshape(lam.shape), 0)
    owner = np.nonzero(first)[0]
    # erlang_c's arrival_rate / unit_rate, lane by lane.
    offered = lam[first][:, None] / table.unit_rates[owner]
    waits = np.zeros((owner.size + 1, n_stages))
    waits[1:] = _erlang_c_lanes(
        table.c[owner, :, 0].ravel(), offered.ravel(),
        table.stirlerr[owner].ravel(), table.root[owner].ravel(),
    ).reshape(offered.shape)
    return waits[slot].transpose(0, 2, 1)


def sample_sojourn(params: StageParams, rng_seed: int, n: int) -> np.ndarray:
    """Draw n i.i.d. sojourn times for one stable M/M/c stage.

    Inverse-transform sampling of the exact distribution: the queueing delay
    (atom at zero, exponential tail at the excess-capacity rate) and the
    service time are each inverted in closed form and summed, so the sample
    survival function is the same signed two-exponential mixture
    `StageTail.survival` evaluates.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    tail = StageTail.from_params(params)
    rng = np.random.default_rng(rng_seed)
    u_wait = rng.random(n)
    u_serve = rng.random(n)
    wait = np.zeros(n)
    queued = u_wait < tail.wait_prob
    wait[queued] = -np.log(u_wait[queued] / tail.wait_prob) / tail.excess_capacity
    service = -np.log1p(-u_serve) / tail.unit_rate
    return wait + service


def bound_dominance_margin(
    rng: np.random.Generator, n_configs: int, n_samples: int
) -> float:
    """Worst margin by which the Chernoff bound dominates sampled latency tails.

    Draws n_configs pipelines from rng (per stage: 1-8 servers, unit rate in
    [0.5, 50), utilisation in [0.1, 0.95); then zeta in [0.5, 0.95); then one
    `sample_sojourn` seed per stage), samples n_samples end-to-end sojourns
    each and returns the minimum of violation_prob(t) - (empirical tail -
    3 sigma) over the 20-point grid of [0, 4 * mean] without t = 0. At t = 0
    the bound is min(1, g) = 1 (g is a product of MGFs at eta > 0, so g >= 1)
    and so is the tail: the margin there is 0 whatever the bound.
    """
    worst = math.inf
    for _ in range(n_configs):
        stages = []
        for _ in range(3):
            servers = int(rng.integers(1, 9))
            unit_rate = float(rng.uniform(0.5, 50.0))
            utilization = float(rng.uniform(0.1, 0.95))
            stages.append(StageParams(
                servers, unit_rate, utilization * servers * unit_rate
            ))
        model = ViolationModel.from_stages(tuple(stages), float(rng.uniform(0.5, 0.95)))
        total = sum(
            sample_sojourn(s, int(rng.integers(0, 2**31)), n_samples)
            for s in stages
        )
        for t in np.linspace(0.0, 4.0 * model.mean_total(), 20)[1:]:
            emp = float(np.mean(total > t))
            sigma = (emp * (1.0 - emp) / n_samples) ** 0.5
            worst = min(worst, violation_prob(model, float(t)) - (emp - 3.0 * sigma))
    return worst
