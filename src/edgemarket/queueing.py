"""Multi-server queueing tails and an exponential upper bound on end-to-end latency.

Each service stage is an M/M/c queue. A task traverses three stages in
sequence (uplink transfer, processing, downlink transfer); the probability
that the summed sojourn time exceeds an agreed latency is bounded with a
Chernoff/MGF argument sharing one exponent across stages.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from edgemarket.errors import DomainError

# Relative width of the removed neighbourhood around the excess-capacity /
# service-rate resonance in the two-exponential sojourn tail.
_DEGENERATE_REL_TOL = 1e-9
_DEGENERATE_NUDGE = 1e-6


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

    Evaluated through the Erlang-B recurrence instead of the factorial series,
    so large server counts neither overflow nor lose precision.
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
    offered = arrival_rate / unit_rate
    blocking = 1.0
    for k in range(1, servers + 1):
        t = offered * blocking
        blocking = t / (k + t)
        if blocking == 0.0:
            break  # underflowed: every later step maps 0 to 0
    rho = offered / servers
    return blocking / (1.0 - rho * (1.0 - blocking))


def stage_rate(per_task: float, unit_throughput: float) -> float:
    """Per-server completion rate: unit throughput divided by per-task demand."""
    if not per_task > 0.0:
        raise DomainError(f"per_task must be > 0, got {per_task}")
    if not unit_throughput > 0.0:
        raise DomainError(f"unit_throughput must be > 0, got {unit_throughput}")
    return unit_throughput / per_task


def stage_tail(params: StageParams, t: float) -> float:
    """P(single-stage sojourn > t) for a stable M/M/c stage."""
    return StageTail.from_params(params).survival(t)


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
        return sum(s.mean_sojourn() for s in self.stages)


def violation_prob(model: ViolationModel, t: float) -> float:
    """Chernoff bound on the end-to-end latency tail, clamped into [0, 1]."""
    if t < 0.0:
        raise DomainError(f"t must be >= 0, got {t}")
    return min(1.0, model.g_product * math.exp(-model.eta * t))


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
        if not ((eta >= 0.0).all() and (g >= 0.0).all()):
            raise DomainError("eta and g must be >= 0")
        eta.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "_curves", tuple(zip(eta.tolist(), g.tolist())))

    def __len__(self) -> int:
        return len(self._curves)

    def prob(self, n: int, t: float) -> float:
        """Type n's violation bound at agreed latency t."""
        eta, g = self._curves[n]
        value = g * math.exp(-eta * t)
        return 1.0 if value > 1.0 else value

    def probs(self, latencies: Sequence[float]) -> list[float]:
        """Each type's bound at its own latency: type n at latencies[n]."""
        return [self.prob(n, t) for n, t in enumerate(latencies)]

    @classmethod
    def at_loads(
        cls,
        servers: Sequence[int],
        unit_rates: Sequence[float],
        loads: Sequence[float],
        zeta: float,
    ) -> ViolationProfile:
        """`ViolationModel.from_stages` for every load, in one pass over arrays.

        Stage s has servers[s] servers of rate unit_rates[s], and every stage
        carries the same load. The float operations and their order are those
        of `chernoff_eta`, `StageTail.from_params` and `chernoff_g`, so each
        stable type's eta and g equal the scalar model's bit for bit. Erlang-C
        runs once per distinct nonzero load and stage.
        """
        if not 0.0 < zeta < 1.0:
            raise DomainError(f"zeta must be in (0, 1), got {zeta}")
        lam = np.asarray(loads, dtype=float)
        if lam.ndim != 1:
            raise DomainError(f"loads must be a vector, got shape {lam.shape}")
        if (lam < 0.0).any():
            raise DomainError(f"loads must be >= 0, got {lam.min()}")
        c = np.array(servers, dtype=float)[:, None]
        mu = np.array(unit_rates, dtype=float)[:, None]
        capacity = c * mu
        # Below every stage's capacity iff below the smallest one. Pinned types
        # are evaluated at load 0, where every step is finite, and then reset.
        stable = lam < capacity.min()
        lam = np.where(stable, lam, 0.0)
        eta = zeta * (mu - lam / c).min(axis=0)
        r = capacity - lam
        r = np.where(np.abs(r - mu) < _DEGENERATE_REL_TOL * mu,
                     mu * (1.0 + _DEGENERATE_NUDGE), r)
        p = _wait_probs(servers, unit_rates, lam)
        stage_g = ((1.0 - p) + p * r / (r - eta)) * mu / (mu - eta)
        g = stage_g[0]
        for row in stage_g[1:]:
            g = g * row
        if not ((eta > 0.0).all() and (eta < mu).all() and (eta < r).all()):
            raise DomainError(
                "eta must stay positive and below every stage's unit_rate and "
                "excess_capacity"
            )
        return cls(eta=np.where(stable, eta, 0.0), g=np.where(stable, g, 1.0))


def _wait_probs(
    servers: Sequence[int], unit_rates: Sequence[float], lam: np.ndarray
) -> np.ndarray:
    """Erlang-C per stage (rows) and load (columns), once per distinct load."""
    by_load = {0.0: (0.0,) * len(servers)}
    columns = []
    for load in lam.tolist():
        waits = by_load.get(load)
        if waits is None:
            waits = by_load[load] = tuple(
                erlang_c(c, load, mu) for c, mu in zip(servers, unit_rates)
            )
        columns.append(waits)
    return np.array(columns, dtype=float).T


def sample_sojourn(params: StageParams, rng_seed: int, n: int) -> np.ndarray:
    """Draw n i.i.d. sojourn times for one stable M/M/c stage.

    Inverse-transform sampling of the exact distribution: the queueing delay
    (atom at zero, exponential tail at the excess-capacity rate) and the
    service time are each inverted in closed form and summed, so the sample
    survival function is the same signed two-exponential mixture `stage_tail`
    evaluates.
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
