"""The benchmark's layer tracer (perfbench/spans.py) wraps edgemarket functions
by name; every name it wraps must exist, so a renamed or deleted function
fails here rather than in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from edgemarket import default_scenario, queueing
from edgemarket.benchmarks import METHODS, run_method
from edgemarket.market import run_fixed_point

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_wraps_existing_functions_and_restores_them():
    spans = _load_spans()
    missing = [f"{home.__name__}.{attr}" for _, home, attr, _ in spans.TARGETS
               if not hasattr(home, attr)]
    assert not missing, f"traced functions that no longer exist: {missing}"
    originals = [(home, attr, getattr(home, attr))
                 for _, home, attr, _ in spans.TARGETS]
    from_stages = vars(queueing.ViolationModel)["from_stages"]

    tracer = spans.Tracer()
    tracer.install()
    try:
        for home, attr, original in originals:
            assert getattr(home, attr).__wrapped__ is original, (home, attr)
        # The wrappers measure what the functions return; one small solve and
        # bench pass must get through them.
        scn = default_scenario(total_users=24, n_types=3)
        with tracer.root("solve", "small"):
            run_fixed_point(scn)
        with tracer.root("bench", "small"):
            for name in METHODS:
                run_method(scn, name)
        # At the default size (N = 8, M = 3) every menu solve goes through the
        # wrapped per-operator solve: the floor design, one per round and the
        # final redesign.
        default = default_scenario()
        with tracer.root("solve", "default"):
            outcome = run_fixed_point(default)
    finally:
        tracer.uninstall()

    for home, attr, original in originals:
        assert getattr(home, attr) is original, (home, attr)
    assert vars(queueing.ViolationModel)["from_stages"] is from_stages
    traced = {span.name for span in tracer.spans}
    assert {"market.fixed_point", "contracts.optimize_menu",
            "benchmarks.posted_menus", "benchmarks.gsmc"} <= traced
    assert (default.n_types, default.n_operators) == (8, 3)
    menu_spans = [span for span in tracer.spans
                  if span.cell == "default" and span.name == "contracts.optimize_menu"]
    assert len(menu_spans) == default.n_operators * (outcome.iterations + 2)
