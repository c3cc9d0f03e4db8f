"""Sweep experiments comparing the market fixed point with the benchmarks.

One axis is varied at a time; every (value, replicate) cell re-draws the
user composition from its own seed and runs all four methods. Its rows are
reproducible bit-for-bit from (scenario, seed); `edgemarket sweep` writes them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields
from typing import Iterable

from edgemarket.benchmarks import METHODS, run_method
from edgemarket.errors import DomainError
from edgemarket.queueing import left_sum
from edgemarket.scenario import Scenario, scenario_from_obj, scenario_to_obj

SWEEP_AXES = (
    "total_users",
    "num_types",
    "refund_scale",
    "violation_cost_scale",
    "dirichlet_alpha",
    "zeta",
)


def scenario_for_cell(
    base: Scenario, axis: str, value: float, seed: int
) -> Scenario:
    """Apply one sweep-axis value; the composition is re-drawn at `seed`."""
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    obj = scenario_to_obj(base)
    obj["seed"] = seed
    population = obj["population"]
    population["counts"] = None
    if axis == "total_users":
        population["total_users"] = value
    elif axis == "num_types":
        population.update(n_types=value, betas=None)
    elif axis in ("refund_scale", "violation_cost_scale"):
        key = axis.removesuffix("_scale")
        for op in obj["operators"]:
            op[key] *= value
    elif axis == "dirichlet_alpha":
        obj["dirichlet_alpha"] = value
    elif axis == "zeta":
        obj["solver"]["zeta"] = value
    return scenario_from_obj(obj)


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple[float, ...]
    replicates: int = 5

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise DomainError(
                f"unknown sweep axis {self.axis!r}; expected one of {SWEEP_AXES}"
            )
        if not self.values:
            raise DomainError("sweep values must be non-empty")
        for value in self.values:
            if not math.isfinite(value):
                raise DomainError(f"{self.axis} values must be finite, got {value!r}")
            if (self.axis in ("total_users", "num_types")
                    and not float(value).is_integer()):
                raise DomainError(f"{self.axis} values must be integers, got {value!r}")
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    method: str
    replicate: int
    seed: int
    total_operator_utility: float
    social_welfare: float
    converged: bool
    runtime_s: float


# The columns of `sweep_<axis>.csv`, in order.
SWEEP_FIELDS = tuple(f.name for f in fields(SweepRow))


def run_sweep(base: Scenario, spec: SweepSpec) -> list[SweepRow]:
    rows: list[SweepRow] = []
    for value in spec.values:
        for rep in range(spec.replicates):
            seed = base.seed + rep
            scenario = scenario_for_cell(base, spec.axis, value, seed)
            for method in METHODS:
                started = time.perf_counter()
                result = run_method(scenario, method)
                elapsed = time.perf_counter() - started
                rows.append(SweepRow(
                    axis=spec.axis,
                    value=float(value),
                    method=method,
                    replicate=rep,
                    seed=seed,
                    total_operator_utility=result.total_operator_utility,
                    social_welfare=result.social_welfare,
                    converged=result.converged,
                    runtime_s=elapsed,
                ))
    return rows


def _mean(values: list[float]) -> float:
    return left_sum(values) / len(values)


# The keys of `aggregate_rows`' records: the columns of
# `sweep_<axis>_mean.csv`, in order.
MEAN_FIELDS = (
    "axis", "value", "method", "replicates",
    "total_operator_utility", "social_welfare", "converged_share", "runtime_s",
)


def aggregate_rows(rows: Iterable[SweepRow]) -> list[dict]:
    """Mean totals per (axis value, method), replicates collapsed."""
    grouped: dict[tuple[str, float, str], list[SweepRow]] = {}
    for row in rows:
        grouped.setdefault((row.axis, row.value, row.method), []).append(row)
    out = []
    for (axis, value, method), group in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], kv[0][1], METHODS.index(kv[0][2]))
    ):
        k = len(group)
        out.append(dict(zip(MEAN_FIELDS, (
            axis, value, method, k,
            _mean([r.total_operator_utility for r in group]),
            _mean([r.social_welfare for r in group]),
            sum(1 for r in group if r.converged) / k,
            _mean([r.runtime_s for r in group]),
        ), strict=True)))
    return out
