"""Scenario configuration: defaults, population composition, persistence.

A scenario bundles the task profile, the operator fleet, the user-type
population and the solver knobs. Everything is overridable from a JSON file
or dotted-path command-line overrides; unspecified keys keep the defaults
below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from edgemarket.contracts import (
    OperatorSpec,
    StageResources,
    TaskSpec,
    UserTypePopulation,
)
from edgemarket.errors import DomainError


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the market fixed point and the menu solves inside it."""

    damping: float = 0.35        # step size blending old and new matchings
    price_step: float = 0.5      # subgradient step for shadow prices
    # A constant schedule by default: under 0.35 damping any decaying schedule
    # keeps the response drifting faster than the convergence tolerances.
    temp_start: float = 0.002    # softmax temperature at the first iteration
    temp_end: float = 0.002      # softmax temperature at the last iteration
    demand_floor: float = 0.05   # share of every type's traffic always in the design demand
    safety: float = 0.95         # effective capacity as a share of the bottleneck stage
    zeta: float = 0.9            # share of the rate slack used as the bound exponent
    max_iters: int = 50
    opt_out_utility: float = 0.0
    matching_tol: float = 1e-4   # max-abs matching change declaring convergence
    menu_tol: float = 1e-6       # max-abs latency change declaring convergence
    latency_lo: float = 1e-3     # seconds; agreed latencies live in [lo, hi]
    latency_hi: float = 10.0

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise DomainError(f"damping must be in (0, 1], got {self.damping}")
        if not self.price_step > 0.0:
            raise DomainError(f"price_step must be > 0, got {self.price_step}")
        if not self.temp_end > 0.0 or self.temp_start < self.temp_end:
            raise DomainError(
                f"temperature schedule must satisfy temp_start >= temp_end > 0, "
                f"got ({self.temp_start}, {self.temp_end})"
            )
        if not 0.0 < self.demand_floor < 1.0:
            raise DomainError(
                f"demand_floor must be in (0, 1), got {self.demand_floor}"
            )
        if not 0.0 < self.safety <= 1.0:
            raise DomainError(f"safety must be in (0, 1], got {self.safety}")
        if not 0.0 < self.zeta < 1.0:
            raise DomainError(f"zeta must be in (0, 1), got {self.zeta}")
        if self.max_iters < 1:
            raise DomainError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.matching_tol > 0.0:
            raise DomainError(f"matching_tol must be > 0, got {self.matching_tol}")
        if not self.menu_tol > 0.0:
            raise DomainError(f"menu_tol must be > 0, got {self.menu_tol}")
        if not 0.0 < self.latency_lo < self.latency_hi:
            raise DomainError(
                f"latency bounds must satisfy 0 < latency_lo < latency_hi, "
                f"got ({self.latency_lo}, {self.latency_hi})"
            )

    @property
    def latency_bounds(self) -> tuple[float, float]:
        return (self.latency_lo, self.latency_hi)

    @property
    def temp_schedule(self) -> tuple[float, float]:
        return (self.temp_start, self.temp_end)


@dataclass(frozen=True)
class Scenario:
    task: TaskSpec
    operators: tuple[OperatorSpec, ...]
    population: UserTypePopulation
    solver: SolverConfig
    seed: int = 0
    dirichlet_alpha: float = 10.0  # concentration used when counts are generated

    def __post_init__(self) -> None:
        if not self.operators:
            raise DomainError("operators must be non-empty")
        if not self.dirichlet_alpha > 0.0:
            raise DomainError(
                f"dirichlet_alpha must be > 0, got {self.dirichlet_alpha}"
            )

    @property
    def n_operators(self) -> int:
        return len(self.operators)

    @property
    def n_types(self) -> int:
        return self.population.n_types


def dirichlet_composition(
    alpha: float, n_types: int, total: int, seed: int
) -> tuple[int, ...]:
    """Split `total` users over `n_types` types with Dirichlet(alpha) shares.

    Largest-remainder rounding keeps the counts summing exactly to `total`;
    remainder ties go to the lower type index so draws are reproducible.
    """
    if not alpha > 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if n_types < 1:
        raise DomainError(f"n_types must be >= 1, got {n_types}")
    if total < 0:
        raise DomainError(f"total must be >= 0, got {total}")
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.full(n_types, alpha))
    raw = shares * total
    counts = np.floor(raw).astype(int)
    remainder = raw - counts
    leftover = total - int(counts.sum())
    order = np.argsort(-remainder, kind="stable")
    counts[order[:leftover]] += 1
    return tuple(int(c) for c in counts)


def default_betas(n_types: int) -> tuple[float, ...]:
    """Evenly spaced latency sensitivities, most sensitive type first."""
    if n_types < 1:
        raise DomainError(f"n_types must be >= 1, got {n_types}")
    return tuple((n_types - i) * 1e-4 for i in range(n_types))


# Default fleet: per-stage server counts per operator; shared unit throughputs
# chosen so the processing stage is the fleet bottleneck (aggregate processing
# 5200 tasks/s against a 3600 tasks/s full market) and operator capacity is
# strictly ordered 1 > 2 > 3 at every stage.
_DEFAULT_SERVERS = ((48, 24, 194), (43, 16, 172), (28, 12, 115))
_UPLINK_MBPS = 9.0
_PROCESSING_FLOPS = 3.6e13
_DOWNLINK_MBPS = 5.4


def default_scenario_obj() -> dict:
    """Fully expanded default configuration (the documented file schema)."""
    return {
        "seed": 0,
        "dirichlet_alpha": 10.0,
        "task": {
            "input_size_mb": 0.18,
            "workload_flops": 3.6e11,
            "output_size_mb": 0.27,
            "arrival_rate_per_user": 24.0,
        },
        "population": {
            "n_types": 8,
            "total_users": 150,
            "alpha_worst": 1.0,
            "betas": None,   # default: (n_types - i) * 1e-4
            "counts": None,  # default: Dirichlet(dirichlet_alpha) draw at `seed`
        },
        "operators": [
            {
                "uplink": {"servers": servers[0], "unit_throughput": _UPLINK_MBPS},
                "processing": {"servers": servers[1], "unit_throughput": _PROCESSING_FLOPS},
                "downlink": {"servers": servers[2], "unit_throughput": _DOWNLINK_MBPS},
                "quality": 1.5,
                "exec_cost_per_task": 8e-6,
                "violation_cost": 1.2e-3,
                "refund": 1.2e-4,
            }
            for servers in _DEFAULT_SERVERS
        ],
        "solver": {
            "damping": 0.35,
            "price_step": 0.5,
            "temp_start": 0.002,
            "temp_end": 0.002,
            "demand_floor": 0.05,
            "safety": 0.95,
            "zeta": 0.9,
            "max_iters": 50,
            "opt_out_utility": 0.0,
            "matching_tol": 1e-4,
            "menu_tol": 1e-6,
            "latency_lo": 1e-3,
            "latency_hi": 10.0,
        },
    }


def _operator_from_obj(obj: dict) -> OperatorSpec:
    def stage(d: dict) -> StageResources:
        return StageResources(servers=int(d["servers"]),
                              unit_throughput=float(d["unit_throughput"]))

    return OperatorSpec(
        uplink=stage(obj["uplink"]),
        processing=stage(obj["processing"]),
        downlink=stage(obj["downlink"]),
        quality=float(obj["quality"]),
        exec_cost_per_task=float(obj["exec_cost_per_task"]),
        violation_cost=float(obj["violation_cost"]),
        refund=float(obj["refund"]),
    )


def scenario_from_obj(obj: dict) -> Scenario:
    seed = int(obj["seed"])
    alpha = float(obj["dirichlet_alpha"])
    pop_obj = obj["population"]
    betas = pop_obj.get("betas")
    if betas is None:
        betas = default_betas(int(pop_obj["n_types"]))
    betas = tuple(float(b) for b in betas)
    counts = pop_obj.get("counts")
    if counts is None:
        counts = dirichlet_composition(
            alpha, len(betas), int(pop_obj["total_users"]), seed
        )
    counts = tuple(int(c) for c in counts)
    task_obj = obj["task"]
    return Scenario(
        task=TaskSpec(
            input_size_mb=float(task_obj["input_size_mb"]),
            workload_flops=float(task_obj["workload_flops"]),
            output_size_mb=float(task_obj["output_size_mb"]),
            arrival_rate_per_user=float(task_obj["arrival_rate_per_user"]),
        ),
        operators=tuple(_operator_from_obj(o) for o in obj["operators"]),
        population=UserTypePopulation(
            betas=betas, counts=counts, alpha_worst=float(pop_obj["alpha_worst"])
        ),
        solver=SolverConfig(**obj["solver"]),
        seed=seed,
        dirichlet_alpha=alpha,
    )


def scenario_to_obj(scenario: Scenario) -> dict:
    """Round-trippable form with counts pinned (no re-draw on load)."""
    return {
        "seed": scenario.seed,
        "dirichlet_alpha": scenario.dirichlet_alpha,
        "task": {
            "input_size_mb": scenario.task.input_size_mb,
            "workload_flops": scenario.task.workload_flops,
            "output_size_mb": scenario.task.output_size_mb,
            "arrival_rate_per_user": scenario.task.arrival_rate_per_user,
        },
        "population": {
            "n_types": scenario.population.n_types,
            "total_users": scenario.population.total_users,
            "alpha_worst": scenario.population.alpha_worst,
            "betas": list(scenario.population.betas),
            "counts": list(scenario.population.counts),
        },
        "operators": [
            {
                "uplink": {"servers": op.uplink.servers,
                           "unit_throughput": op.uplink.unit_throughput},
                "processing": {"servers": op.processing.servers,
                               "unit_throughput": op.processing.unit_throughput},
                "downlink": {"servers": op.downlink.servers,
                             "unit_throughput": op.downlink.unit_throughput},
                "quality": op.quality,
                "exec_cost_per_task": op.exec_cost_per_task,
                "violation_cost": op.violation_cost,
                "refund": op.refund,
            }
            for op in scenario.operators
        ],
        "solver": {
            "damping": scenario.solver.damping,
            "price_step": scenario.solver.price_step,
            "temp_start": scenario.solver.temp_start,
            "temp_end": scenario.solver.temp_end,
            "demand_floor": scenario.solver.demand_floor,
            "safety": scenario.solver.safety,
            "zeta": scenario.solver.zeta,
            "max_iters": scenario.solver.max_iters,
            "opt_out_utility": scenario.solver.opt_out_utility,
            "matching_tol": scenario.solver.matching_tol,
            "menu_tol": scenario.solver.menu_tol,
            "latency_lo": scenario.solver.latency_lo,
            "latency_hi": scenario.solver.latency_hi,
        },
    }


def default_scenario(
    seed: int = 0,
    total_users: int = 150,
    n_types: int = 8,
    dirichlet_alpha: float = 10.0,
) -> Scenario:
    """The reference three-operator, eight-type market."""
    obj = default_scenario_obj()
    obj["seed"] = seed
    obj["dirichlet_alpha"] = dirichlet_alpha
    obj["population"]["total_users"] = total_users
    obj["population"]["n_types"] = n_types
    return scenario_from_obj(obj)


def _deep_merge(base: dict, override: dict) -> dict:
    # Dicts merge recursively; everything else (including lists) replaces.
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value
    return base


def apply_override(obj: dict, dotted_key: str, raw_value: str) -> None:
    """Apply one `a.b.0.c=value` style override onto a scenario object."""
    try:
        value: Any = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    parts = dotted_key.split(".")
    target: Any = obj
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(target, list):
            try:
                index = int(part)
            except ValueError:
                raise DomainError(
                    f"scenario key {dotted_key!r}: {part!r} must be a list index"
                ) from None
            if not 0 <= index < len(target):
                raise DomainError(
                    f"scenario key {dotted_key!r}: index {index} out of range"
                )
            if last:
                target[index] = value
            else:
                target = target[index]
        elif isinstance(target, dict):
            if part not in target:
                raise DomainError(f"unknown scenario key {dotted_key!r} (at {part!r})")
            if last:
                target[part] = value
            else:
                target = target[part]
        else:
            raise DomainError(
                f"scenario key {dotted_key!r}: {part!r} does not address a container"
            )


def load_scenario(
    path: str | Path | None,
    overrides: tuple[str, ...] = (),
    seed: int | None = None,
) -> Scenario:
    """Defaults, then the file (if any), then dotted overrides, then the seed flag."""
    obj = default_scenario_obj()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            file_obj = json.load(fh)
        if not isinstance(file_obj, dict):
            raise DomainError("scenario file must contain a JSON object")
        _deep_merge(obj, file_obj)
    for item in overrides:
        key, sep, raw_value = item.partition("=")
        if not sep:
            raise DomainError(f"override {item!r} must look like KEY=VALUE")
        apply_override(obj, key.strip(), raw_value)
    if seed is not None:
        obj["seed"] = seed
    return scenario_from_obj(obj)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_obj(scenario), indent=2) + "\n", encoding="utf-8"
    )
