"""Tests of the benchmark itself: python3 -m pytest perfbench

They run the `congested` workload with no timed window (one untraced and one
traced pass), so each run takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from edgemarket import market, queueing

ROOT = Path(__file__).resolve().parent.parent


def _traced(seed: int):
    result, tracer = run.run_workload("congested", seed, seconds=0, trace=True)
    metrics = run.layer_metrics(result, tracer)
    counts = {name: value for name, (value, unit) in metrics.items() if unit == "count"}
    return result, counts


def test_same_seed_repeats_counts_and_quality():
    fixed_point = market.run_fixed_point
    from_stages = vars(queueing.ViolationModel)["from_stages"]
    first, first_counts = _traced(0)
    second, second_counts = _traced(0)
    assert first.failed == 0 and not first.accounting_errors
    assert first_counts and first_counts == second_counts
    assert run.quality_metrics(first) == run.quality_metrics(second)
    assert first.fingerprints == second.fingerprints
    # uninstall puts every original back
    assert market.run_fixed_point is fixed_point
    assert vars(queueing.ViolationModel)["from_stages"] is from_stages


def test_seed_changes_the_compositions():
    for workload in workloads.WORKLOADS:
        at_0 = [c.scenario.population.counts for c in workloads.build_cells(workload, 0)]
        at_1 = [c.scenario.population.counts for c in workloads.build_cells(workload, 1)]
        assert at_0 != at_1
        assert at_0 == [c.scenario.population.counts
                        for c in workloads.build_cells(workload, 0)]


def _last_json(args: list[str], cwd: Path) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def test_command_prints_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        code, result = _last_json(
            ["--workload", "congested", "--seed", "3", "--seconds", "0",
             "--trace", trace], ROOT,
        )
        assert code == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result = _last_json(
        ["--workload", "congested", "--seed", "0", "--seconds", "1", "--trace", "0"],
        tmp_path,
    )
    assert code != 0 and result is None
