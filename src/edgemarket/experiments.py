"""Sweep experiments comparing the market fixed point with the benchmarks.

One axis is varied at a time; every (value, replicate) cell re-draws the
user composition from its own seed and runs all four methods. Emitted CSV
rows are reproducible bit-for-bit from (scenario, seed).
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from edgemarket.benchmarks import METHODS, run_method
from edgemarket.errors import DomainError
from edgemarket.queueing import left_sum
from edgemarket.scenario import (
    Scenario,
    default_betas,
    dirichlet_composition,
)

SWEEP_AXES = (
    "total_users",
    "num_types",
    "refund_scale",
    "violation_cost_scale",
    "dirichlet_alpha",
    "zeta",
)

_SWEEP_CSV_VERSION = "# edgemarket sweep v1"
_DETAIL_FIELDS = (
    "axis", "value", "method", "replicate", "seed",
    "total_operator_utility", "social_welfare", "converged", "runtime_s",
)
_MEAN_FIELDS = (
    "axis", "value", "method", "replicates",
    "total_operator_utility", "social_welfare", "converged_share", "runtime_s",
)


def scenario_for_cell(
    base: Scenario, axis: str, value: float, seed: int
) -> Scenario:
    """Apply one sweep-axis value; the composition is re-drawn at `seed`."""
    if axis not in SWEEP_AXES:
        raise DomainError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    pop = base.population
    alpha = base.dirichlet_alpha
    betas = pop.betas
    total = pop.total_users
    operators = base.operators
    solver = base.solver
    if axis == "total_users":
        total = int(value)
    elif axis == "num_types":
        betas = default_betas(int(value))
    elif axis == "refund_scale":
        operators = tuple(replace(op, refund=op.refund * value) for op in operators)
    elif axis == "violation_cost_scale":
        operators = tuple(
            replace(op, violation_cost=op.violation_cost * value) for op in operators
        )
    elif axis == "dirichlet_alpha":
        alpha = float(value)
    elif axis == "zeta":
        solver = replace(solver, zeta=float(value))
    counts = dirichlet_composition(alpha, len(betas), total, seed)
    return Scenario(
        task=base.task,
        operators=operators,
        population=replace(pop, betas=betas, counts=counts),
        solver=solver,
        seed=seed,
        dirichlet_alpha=alpha,
    )


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
        out.append({
            "axis": axis,
            "value": value,
            "method": method,
            "replicates": k,
            "total_operator_utility": _mean([r.total_operator_utility for r in group]),
            "social_welfare": _mean([r.social_welfare for r in group]),
            "converged_share": sum(1 for r in group if r.converged) / k,
            "runtime_s": _mean([r.runtime_s for r in group]),
        })
    return out


def _cell(value):
    # Floats as repr, so a CSV round-trips bit for bit; flags as 0/1.
    if isinstance(value, bool):
        return int(value)
    return repr(float(value)) if isinstance(value, float) else value


def _write_csv(records: Iterable[dict], fieldnames: tuple[str, ...],
               path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_SWEEP_CSV_VERSION + "\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for record in records:
            writer.writerow({name: _cell(record[name]) for name in fieldnames})


def write_detail_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    _write_csv((vars(row) for row in rows), _DETAIL_FIELDS, path)


def write_mean_csv(means: Iterable[dict], path: str | Path) -> None:
    _write_csv(means, _MEAN_FIELDS, path)
