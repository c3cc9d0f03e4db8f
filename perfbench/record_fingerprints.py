"""Record the behaviour fingerprint of every cell that run seeds 0-19 build.

    python3 perfbench/record_fingerprints.py

Rewrites the `fingerprints` of baseline.json next to this file; `run.py`
prints each cell whose fingerprint differs from the recorded one.
"""

from __future__ import annotations

import json

import workloads  # first: puts the checkout's src/ on sys.path
from run import BASELINE

SEEDS = 20


def main() -> None:
    fingerprints = {}
    for workload in workloads.WORKLOADS:
        for seed in range(SEEDS):
            for cell in workloads.build_cells(workload, seed):
                if cell.id in fingerprints:
                    continue
                solve = workloads.run_solve(cell.scenario)
                bench = workloads.run_bench(cell.scenario)
                fingerprints[cell.id] = workloads.fingerprint(solve, bench)
                print(cell.id, json.dumps(fingerprints[cell.id], sort_keys=True))
    BASELINE.write_text(
        json.dumps({"fingerprints": fingerprints}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
