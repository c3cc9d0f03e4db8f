"""Scenario configuration: defaults, population composition, persistence.

A scenario bundles the task profile, the operator fleet, the user-type
population and the solver knobs. Everything is overridable from a JSON file
or dotted-path command-line overrides; unspecified keys keep the defaults
below.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any

import numpy as np

from edgemarket.contracts import (
    LATENCY_BOUNDS,
    ZETA,
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
    zeta: float = ZETA
    max_iters: int = 50
    opt_out_utility: float = 0.0
    matching_tol: float = 1e-4   # max-abs matching change declaring convergence
    menu_tol: float = 1e-6       # max-abs latency change declaring convergence
    latency_lo: float = LATENCY_BOUNDS[0]
    latency_hi: float = LATENCY_BOUNDS[1]

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
        raise DomainError(f"dirichlet_alpha must be > 0, got {alpha}")
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
_N_TYPES = 8
_TOTAL_USERS = 150


def default_scenario_obj() -> dict:
    """Fully expanded default configuration (the documented file schema)."""
    return {
        "seed": Scenario.seed,
        "dirichlet_alpha": Scenario.dirichlet_alpha,
        "task": {
            "input_size_mb": 0.18,
            "workload_flops": 3.6e11,
            "output_size_mb": 0.27,
            "arrival_rate_per_user": 24.0,
        },
        "population": {
            "n_types": _N_TYPES,
            "total_users": _TOTAL_USERS,
            "alpha_worst": UserTypePopulation.alpha_worst,
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
        "solver": asdict(SolverConfig()),
    }


def _get(obj: dict, key: str, kind: type | None = None) -> Any:
    """The value at dotted `key`, converted to `kind` (int or float) if given.

    A missing key, a value that does not convert, a non-integral value for
    an integer field and a non-finite value for a float field raise
    DomainError naming the key.
    """
    value: Any = obj
    for part in key.split("."):
        try:
            value = value[int(part) if isinstance(value, (list, tuple)) else part]
        except (KeyError, IndexError, TypeError, ValueError):
            raise DomainError(f"scenario key {key!r} is missing") from None
    if kind is None:
        return value
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(
            f"scenario key {key!r}: expected {kind.__name__}, got {value!r}"
        ) from None
    if kind is int and not isinstance(value, int) and out != float(value):
        raise DomainError(f"scenario key {key!r}: expected an integer, got {value!r}")
    if kind is float and not math.isfinite(out):
        raise DomainError(
            f"scenario key {key!r}: expected a finite number, got {value!r}"
        )
    return out


def _list(obj: dict, key: str, kind: type | None, default) -> tuple:
    """The list at dotted `key`, each entry read by `_get`; `default()` if null."""
    values = _get(obj, key)
    if values is None:
        return default()
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"scenario key {key!r}: expected a list, got {values!r}")
    return tuple(_get(obj, f"{key}.{i}", kind) for i in range(len(values)))


def _read(cls: type, obj: dict, key: str) -> Any:
    """Dataclass `cls` from the object at dotted `key`, field by field."""
    kinds = {"int": int, "float": float}
    return cls(**{
        f.name: (_read(StageResources, obj, f"{key}.{f.name}")
                 if f.type == "StageResources"
                 else _get(obj, f"{key}.{f.name}", kinds[f.type]))
        for f in fields(cls)
    })


def scenario_from_obj(obj: dict) -> Scenario:
    seed = _get(obj, "seed", int)
    alpha = _get(obj, "dirichlet_alpha", float)
    betas = _list(obj, "population.betas", float,
                  lambda: default_betas(_get(obj, "population.n_types", int)))
    counts = _list(obj, "population.counts", int, lambda: dirichlet_composition(
        alpha, len(betas), _get(obj, "population.total_users", int), seed
    ))
    operators = _list(obj, "operators", None, tuple)
    return Scenario(
        task=_read(TaskSpec, obj, "task"),
        operators=tuple(_read(OperatorSpec, obj, f"operators.{m}")
                        for m in range(len(operators))),
        population=UserTypePopulation(
            betas=betas, counts=counts,
            alpha_worst=_get(obj, "population.alpha_worst", float),
        ),
        solver=_read(SolverConfig, obj, "solver"),
        seed=seed,
        dirichlet_alpha=alpha,
    )


def scenario_to_obj(scenario: Scenario) -> dict:
    """Round-trippable form with counts pinned (no re-draw on load)."""
    obj = asdict(scenario)
    obj["population"].update(n_types=scenario.n_types,
                             total_users=scenario.population.total_users)
    return obj


def default_scenario(
    seed: int = Scenario.seed,
    total_users: int = _TOTAL_USERS,
    n_types: int = _N_TYPES,
    dirichlet_alpha: float = Scenario.dirichlet_alpha,
) -> Scenario:
    """The reference three-operator, eight-type market."""
    obj = default_scenario_obj()
    obj["seed"] = seed
    obj["dirichlet_alpha"] = dirichlet_alpha
    obj["population"]["total_users"] = total_users
    obj["population"]["n_types"] = n_types
    return scenario_from_obj(obj)


def _deep_merge(base: dict, override: dict, prefix: str = "") -> None:
    # Only keys the base has are accepted.
    for key, value in override.items():
        dotted = prefix + key
        _put(base, _key(base, key, dotted), value, dotted)


def _put(target: dict | list, key: str | int, value: Any, dotted: str) -> None:
    """Set `target[key]` to `value` as a scenario file does.

    A dict merges into a dict key by key; anything else (including a list)
    replaces. Each entry of a replacing operator list is merged into a fresh
    default operator just to check its keys.
    """
    if isinstance(value, dict) and isinstance(target[key], dict):
        _deep_merge(target[key], value, dotted + ".")
        return
    if dotted == "operators" and isinstance(value, list):
        for m, entry in enumerate(value):
            if isinstance(entry, dict):
                _deep_merge(default_scenario_obj()["operators"][0], entry,
                            f"operators.{m}.")
    target[key] = value


def _key(target: Any, part: str, dotted_key: str) -> str | int:
    """`part` as a key of `target`: an in-range list index or a known dict key."""
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
        return index
    if isinstance(target, dict):
        if part not in target:
            raise DomainError(f"unknown scenario key {dotted_key!r} (at {part!r})")
        return part
    raise DomainError(
        f"scenario key {dotted_key!r}: {part!r} does not address a container"
    )


def apply_override(obj: dict, dotted_key: str, raw_value: str) -> None:
    """Set `a.b.0.c` to `raw_value` (JSON, else a string) as a scenario file
    holding that value at that key would."""
    try:
        value: Any = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    *path, last = dotted_key.split(".")
    target: Any = obj
    for part in path:
        target = target[_key(target, part, dotted_key)]
    _put(target, _key(target, last, dotted_key), value, dotted_key)


def load_scenario(
    path: str | Path | None,
    overrides: tuple[str, ...] = (),
    seed: int | None = None,
) -> Scenario:
    """Defaults, then the file (if any), then dotted overrides, then the seed flag."""
    obj = default_scenario_obj()
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                file_obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DomainError(
                f"scenario file {str(path)!r} is not UTF-8 JSON ({exc})"
            ) from None
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
    """Write `scenario` as a file `load_scenario` reads back; a non-finite
    number, which that file could not hold, raises DomainError instead."""
    try:
        text = json.dumps(scenario_to_obj(scenario), indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(
            f"scenario file {str(path)!r} would hold a non-finite number ({exc})"
        ) from None
    Path(path).write_text(text + "\n", encoding="utf-8")
