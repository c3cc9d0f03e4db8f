"""Outside-in layer tracing: timing wrappers around edgemarket's public functions.

`Tracer.install()` replaces each traced function with a wrapper in every
`edgemarket` module namespace that holds a reference to it (modules import
these functions by name, so `market.violation_profile` and
`contracts.violation_profile` are separate references), and `uninstall()` puts
the originals back. Each call becomes one span: name, start, end, parent span,
cell id and the counts measured at that boundary. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from edgemarket import benchmarks, contracts, experiments, market, queueing, scenario


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _menu_counts(args, kwargs, menu) -> dict:
    lats = menu.latencies
    return {
        "types": _arg(args, kwargs, 0, "population").n_types,
        "blocks": 1 + sum(a != b for a, b in zip(lats, lats[1:])),
    }


def _fixed_point_counts(args, kwargs, outcome) -> dict:
    return {"iterations": outcome.iterations, "converged": int(outcome.converged)}


def _audit_values(args, kwargs, report) -> dict:
    # The ratio is infinite when an operator with zero utility could gain;
    # such audits are counted instead, so the maximum stays a number.
    ratio = report.max_gain_ratio
    if math.isinf(ratio):
        return {"max_regret": report.max_regret, "infinite_gain_ratios": 1}
    return {"max_regret": report.max_regret, "max_gain_ratio": ratio}


def _erlang_steps(args, kwargs, result) -> dict:
    return {"steps": _arg(args, kwargs, 0, "servers")}


# (span name, module defining the function, attribute, counts at the boundary)
TARGETS = (
    ("queueing.erlang_c", queueing, "erlang_c", _erlang_steps),
    ("contracts.violation_profile", contracts, "violation_profile", None),
    ("contracts.optimize_menu", contracts, "optimize_menu_with_profile", _menu_counts),
    ("contracts.menu_objective", contracts, "menu_objective", None),
    ("contracts.social_welfare", contracts, "social_welfare", None),
    ("market.fixed_point", market, "run_fixed_point", _fixed_point_counts),
    ("market.response", market, "mixed_response", None),
    ("market.response", market, "damp", None),
    ("market.response", market, "update_shadow_prices", None),
    ("market.response", market, "cumulative_load", None),
    ("market.response", market, "demand_mass", None),
    ("market.project", market, "project_matching", None),
    ("market.audit", market, "verify_selection_equilibrium", _audit_values),
    ("market.evaluate", market, "evaluate_matching", None),
    ("benchmarks.posted_menus", benchmarks, "posted_menus", None),
    ("benchmarks.greedy", benchmarks, "greedy_selection", None),
    ("benchmarks.gsmc", benchmarks, "run_gsmc", None),
    ("benchmarks.redesign", benchmarks, "redesign_at_assignment", None),
    ("scenario.build", experiments, "scenario_for_cell", None),
    ("scenario.build", scenario, "load_scenario", None),
)
# `ViolationModel.from_stages` is a classmethod; it is wrapped on the class.
VIOLATION_MODEL = "queueing.violation_model"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    cell: str
    counts: dict | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    cell: str = ""
    _current: int | None = None
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._current, tracer.cell)
            tracer.spans.append(span)
            parent, tracer._current = tracer._current, len(tracer.spans) - 1
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._current = parent
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if key == "edgemarket" or key.startswith("edgemarket.")]
        for name, home, attr, measure in TARGETS:
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, measure)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)
        model = queueing.ViolationModel
        original = vars(model)["from_stages"]
        self._patched.append((model, "from_stages", original))
        model.from_stages = classmethod(
            self._wrap(VIOLATION_MODEL, original.__func__, None)
        )

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    @contextmanager
    def root(self, name: str, cell: str) -> Iterator[Span]:
        """A span with no parent around one pipeline call of one cell."""
        if self._current is not None:
            raise RuntimeError("a root span is already open")
        self.cell = cell
        span = Span(name, perf_counter(), 0.0, None, cell)
        self.spans.append(span)
        self._current = len(self.spans) - 1
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._current = None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its direct children's (which never overlap)."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans: list[Span], own: list[float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time, summed counts and largest `max_*`."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span, own_s in zip(spans, own):
        entry = totals[span.name]
        entry["calls"] += 1
        entry["self_s"] += own_s
        for key, value in (span.counts or {}).items():
            if not key.startswith("max_"):
                entry[key] += value
            elif key not in entry or value > entry[key]:
                entry[key] = value
    return totals
