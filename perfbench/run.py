"""edgemarket benchmark: solve and bench time, memory and outcome quality.

Run from the root of a checkout:

    python3 perfbench/run.py --workload types256 --seed 0 --seconds 35 --trace 0

The workload's cells are built from `--seed` and run round-robin for
`--seconds`: the first run of each cell is checked, and each later run must
reproduce it exactly. `--trace 0` reports the end-to-end metrics,
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones. The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`. See
README.md next to this file for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads  # first: puts the checkout's src/ on sys.path
import spans

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"
# Set-up is timed in fresh interpreters, one every SETUP_EVERY_S seconds between
# cell runs so that its median covers the same stretch of time as the cell
# timings; at least SETUP_PROBES of them. Set-up takes a fraction of a second,
# so a handful of probes in a row would all land in one fast or slow phase of
# a shared machine.
SETUP_PROBES = 5
SETUP_EVERY_S = 2.0
# Tolerance of the trace accounting check: self times summed over thousands of
# spans against the wall time of the cell's root spans.
ACCOUNTING_TOL_S = 1e-6


class SetupProbe:
    """Wall time from a fresh interpreter to every scenario of the workload built."""

    def __init__(self, workload: str, seed: int) -> None:
        code = (
            f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"workloads.build_cells({workload!r}, {seed})"
        )
        self.command = [sys.executable, "-c", code]
        self.times: list[float] = []
        self._last = perf_counter()
        self._time()  # unmeasured: the first import in a new checkout compiles bytecode

    def _time(self) -> float:
        start = perf_counter()
        subprocess.run(self.command, cwd=HERE.parent, check=True)
        self._last = perf_counter()
        return self._last - start

    def between_cells(self) -> None:
        if perf_counter() - self._last >= SETUP_EVERY_S:
            self.times.append(self._time())

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.times.append(self._time())
        return self.times


def _per_cell_samples() -> dict[str, dict[str, list[float]]]:
    return {"solve_s": defaultdict(list), "bench_s": defaultdict(list)}


@dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    attempted: int = 0
    failed: int = 0
    qualities: list = field(default_factory=list)
    fingerprints: dict = field(default_factory=dict)
    # metric -> cell id -> run times, untraced and traced
    samples: dict = field(default_factory=lambda: _per_cell_samples())
    traced_samples: dict = field(default_factory=lambda: _per_cell_samples())
    traced_passes: list = field(default_factory=list)  # (first, end) span index per pass
    accounting_errors: list = field(default_factory=list)

    def fail(self, cell_id: str, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems:
            print(f"FAIL {cell_id}: {problem}")


def _timed(tracer, name, cell, fn):
    if tracer is None:
        start = perf_counter()
        out = fn(cell.scenario)
        return out, perf_counter() - start
    with tracer.root(name, cell.id) as span:
        out = fn(cell.scenario)
    return out, span.end - span.start


def run_pass(run: Run, cells, tracer, digests, deadline=None, probe=None) -> list:
    """Solve then bench each cell; returns the cells to keep for later passes.

    The first run of a cell is checked; every later run must reproduce it
    exactly. With a deadline the pass stops early, after at least one cell,
    and the cells it did not reach come first in the next pass.
    """
    keep = []
    for index, cell in enumerate(cells):
        if deadline is not None and index and perf_counter() >= deadline:
            return cells[index:] + keep
        run.attempted += 1
        try:
            solve, solve_s = _timed(tracer, "cell.solve", cell, workloads.run_solve)
            bench, bench_s = _timed(tracer, "cell.bench", cell, workloads.run_bench)
        except workloads.CELL_ERRORS as exc:
            run.fail(cell.id, [f"{type(exc).__name__}: {exc}"])
            continue
        digest = workloads.output_digest(solve, bench)
        if cell.id not in digests:
            problems = workloads.check_cell(cell.scenario, solve, bench)
            if problems:
                run.fail(cell.id, problems)
                continue
            digests[cell.id] = digest
            run.fingerprints[cell.id] = workloads.fingerprint(solve, bench)
            run.qualities.append(workloads.quality(solve, bench))
        elif digest != digests[cell.id]:
            run.fail(cell.id, ["outputs differ from the first pass"])
            continue
        samples = run.samples if tracer is None else run.traced_samples
        samples["solve_s"][cell.id].append(solve_s)
        samples["bench_s"][cell.id].append(bench_s)
        keep.append(cell)
        if probe is not None:
            probe.between_cells()
    return keep


def run_workload(workload: str, seed: int, seconds: float, trace: bool, probe=None):
    """Passes over the cells for `seconds`, and at least two.

    Untraced: a full first pass, then passes that may stop at the deadline.
    Traced: untraced and traced passes alternate, and traced passes are always
    full, so their per-pass counts compare across runs.
    """
    tracer = spans.Tracer() if trace else None
    if tracer is None:
        cells = workloads.build_cells(workload, seed)
    else:
        tracer.install()
        try:
            with tracer.root("setup", "setup"):
                cells = workloads.build_cells(workload, seed)
        finally:
            tracer.uninstall()
    run = Run()
    digests: dict[str, str] = {}
    deadline = perf_counter() + seconds
    passes = 0
    while cells and (passes < 2 or perf_counter() < deadline):
        traced = trace and passes % 2 == 1
        if not traced:
            cells = run_pass(run, cells, None, digests, deadline if passes else None,
                             probe)
        else:
            first = len(tracer.spans)
            tracer.install()
            try:
                cells = run_pass(run, cells, tracer, digests)
            finally:
                tracer.uninstall()
            run.traced_passes.append((first, len(tracer.spans)))
        passes += 1
    return run, tracer


# ---------------------------------------------------------------------------
# reporting


def cell_median(per_cell: dict[str, list[float]]) -> float:
    """Median over cells of each cell's median time.

    A cell that costs several times the others (a fixed point stopped at its
    iteration cap) then moves the result by at most one rank, however many of
    the run's samples it holds.
    """
    return statistics.median(statistics.median(v) for v in per_cell.values())


def describe(name: str, unit: str, per_cell: dict[str, list[float]]) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    samples = [x for values in per_cell.values() for x in values]
    n = len(samples)
    line = f"{name:<12} median {cell_median(per_cell):.6g} {unit}  n={n}"
    if len(per_cell) > 1:
        line += f" over {len(per_cell)} cells"
    p = math.floor(100 * (n - 10) / n) if n > 10 else 0
    if p > 50:
        value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
        line += f"  p{p} {value:.6g} {unit}"
    else:
        line += "  (too few samples for a tail percentile)"
    return line


def quality_metrics(run: Run) -> dict[str, float]:
    q = run.qualities
    return {
        "converged_share": sum(x.converged for x in q) / len(q),
        "welfare_ours": statistics.fmean(x.welfare_ours for x in q),
        "welfare_gap_rel": statistics.fmean(x.welfare_gap_rel for x in q),
        "failed_share": run.failed / run.attempted,
    }


def report_fingerprints(run: Run) -> None:
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["fingerprints"]
    missing = 0
    for cell_id, fp in run.fingerprints.items():
        print(f"fingerprint {cell_id} {json.dumps(fp, sort_keys=True)}")
        if cell_id not in recorded:
            missing += 1
        elif recorded[cell_id] != fp:
            print(f"FINGERPRINT CHANGED {cell_id}: recorded "
                  f"{json.dumps(recorded[cell_id], sort_keys=True)}")
    if missing:
        print(f"{missing} cells have no recorded fingerprint in {BASELINE.name}")


# Span name -> the keys reported for it as `<span name>.<key>`. Keys other than
# `self_s` and `max_*` are counts per pass.
LAYER_METRICS = {
    "queueing.erlang_c": ("calls", "steps", "self_s"),
    "queueing.violation_model": ("calls", "self_s"),
    "contracts.violation_profile": ("calls", "self_s"),
    "contracts.optimize_menu": ("calls", "types", "blocks", "self_s"),
    "contracts.menu_objective": ("calls", "self_s"),
    "contracts.social_welfare": ("calls", "self_s"),
    "market.fixed_point": ("calls", "iterations", "converged", "self_s"),
    "market.response": ("calls", "self_s"),
    "market.project": ("self_s",),
    "market.audit": ("self_s", "max_regret", "max_gain_ratio"),
    "market.evaluate": ("calls", "self_s"),
    "benchmarks.posted_menus": ("self_s",),
    "benchmarks.greedy": ("self_s",),
    "benchmarks.gsmc": ("self_s",),
    "benchmarks.redesign": ("self_s",),
}
UNITS = {"self_s": "s", "max_regret": "USD/task", "max_gain_ratio": "ratio"}


def check_accounting(run: Run, all_spans: list, own: list[float]) -> list[float]:
    """Per traced pass, the time no layer span covers.

    For every cell and pass the self times of all its spans must add up to the
    wall time of its root spans; each mismatch is recorded in the run.
    """
    unattributed = []
    for a, b in run.traced_passes:
        wall: dict[str, float] = {}
        summed: dict[str, float] = {}
        root_self = 0.0
        for span, own_s in zip(all_spans[a:b], own[a:b]):
            summed[span.cell] = summed.get(span.cell, 0.0) + own_s
            if span.parent is None:
                wall[span.cell] = wall.get(span.cell, 0.0) + span.end - span.start
                root_self += own_s
        for cell_id, total in wall.items():
            if abs(summed[cell_id] - total) > ACCOUNTING_TOL_S:
                run.accounting_errors.append(
                    f"{cell_id}: self times sum to {summed[cell_id]:.9f} s, "
                    f"wall {total:.9f} s"
                )
        unattributed.append(root_self)
    return unattributed


def layer_metrics(run: Run, tracer: spans.Tracer) -> dict[str, tuple[float, str]]:
    """Per traced pass: counts (which repeat exactly) and median self times."""
    all_spans = tracer.spans
    own = spans.self_times(all_spans)
    per_pass = [spans.layer_totals(all_spans[a:b], own[a:b])
                for a, b in run.traced_passes]
    out: dict[str, tuple[float, str]] = {}
    for layer, keys in LAYER_METRICS.items():
        for key in keys:
            values = [totals[layer][key] for totals in per_pass]
            if key != "self_s" and len(set(values)) > 1:
                print(f"WARNING {layer}.{key} differs between traced passes: {values}")
            if key == "self_s":
                value = statistics.median(values)
            elif key.startswith("max_"):
                value = values[0]
            else:
                value = int(values[0])
            out[f"{layer}.{key}"] = (value, UNITS.get(key, "count"))
    infinite = per_pass[0]["market.audit"].get("infinite_gain_ratios", 0)
    if infinite:
        print(f"market.audit: {int(infinite)} audits per pass have an infinite gain "
              f"ratio (an operator with zero utility could gain); max_gain_ratio "
              f"is the largest finite one")
    out["scenario.build.self_s"] = (sum(
        own_s for span, own_s in zip(all_spans, own)
        if span.cell == "setup" and span.name == "scenario.build"
    ), "s")
    out["trace.unattributed_s"] = (
        statistics.median(check_accounting(run, all_spans, own)), "s"
    )
    for key in ("solve_s", "bench_s"):
        ratio = cell_median(run.traced_samples[key]) / cell_median(run.samples[key])
        out[f"trace.{key.split('_')[0]}_ratio"] = (ratio, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    probe = None if args.trace else SetupProbe(args.workload, args.seed)
    run, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               probe)
    if not run.qualities:
        print("no cell of the workload ran cleanly", file=sys.stderr)
        return 1
    quality = quality_metrics(run)
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} cell runs, "
          f"{run.failed} failed")
    report_fingerprints(run)

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = {"setup": probe.finish()}
        print(describe("setup_s", "s", setup))
        for key, samples in run.samples.items():
            print(describe(key, "s", samples))
        metrics = {
            "setup_s": (cell_median(setup), "s"),
            "solve_s": (cell_median(run.samples["solve_s"]), "s"),
            "bench_s": (cell_median(run.samples["bench_s"]), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "welfare_ours": (quality["welfare_ours"], "USD/s"),
        }
        for key in ("converged_share", "welfare_gap_rel", "failed_share"):
            print(f"{key:<16} {quality[key]:.6g} ratio")
    else:
        for key in ("solve_s", "bench_s"):
            print(describe(key, "s", run.samples[key]) + "  (untraced)")
            print(describe(key, "s", run.traced_samples[key]) + "  (traced)")
        metrics = layer_metrics(run, tracer)
        for key in ("converged_share", "welfare_gap_rel", "failed_share"):
            metrics[key] = (quality[key], "ratio")
        for problem in run.accounting_errors:
            print(f"ACCOUNTING {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:.6g} {unit}")

    correct = run.failed == 0 and not run.accounting_errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
