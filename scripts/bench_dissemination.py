#!/usr/bin/env python3
"""Warning dissemination cost on the benchmark's two grid-city workloads.

    python3 scripts/bench_dissemination.py [--seed 100] [--repeat 5] [--out BENCH_dissemination.json]

Generates ``city-commute`` and ``city-compare`` with ``perfbench/grid_city.py``
and runs each workload's entry point (targeted ``run`` or ``compare``) in
this process.  One run wraps ``dissemination.distribute``,
``dissemination.is_relevant`` and ``dissemination.predict_trajectory`` to
count ``distribute`` calls, the devices they are handed, the
``is_relevant`` calls they make (one per device handed), the trajectories
those build and the devices they notify; counts repeat exactly.  Then ``--repeat`` runs, each on a freshly
loaded scenario, wrap ``distribute`` alone and time it (``time.perf_counter``,
no reference scaling); ``distribute_s`` is the median of their totals.

Writes the report to ``--out`` (default: ``BENCH_dissemination.json`` at the
repo root) and prints it.  Stdlib only; not part of any gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import grid_city  # noqa: E402
from mitsim import dissemination, simulation  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402


def run_workload(workload: str, seed: int) -> None:
    scenario = load_scenario(grid_city.generate(workload, seed))
    if grid_city.WORKLOADS[workload].entry == "run":
        simulation.run(scenario)
    else:
        simulation.compare(scenario)


def count(workload: str, seed: int) -> dict:
    """One run of ``workload`` with ``distribute``, ``is_relevant`` and
    ``predict_trajectory`` counted."""
    counts = {"distribute_calls": 0, "devices_seen": 0, "is_relevant_calls": 0,
              "predict_trajectory_calls": 0, "notified": 0}
    distribute, is_relevant = dissemination.distribute, dissemination.is_relevant
    predict_trajectory = dissemination.predict_trajectory

    def counted_distribute(w, devices, *args):
        devices = list(devices)
        record = distribute(w, devices, *args)
        counts["distribute_calls"] += 1
        counts["devices_seen"] += len(devices)
        counts["notified"] += len(record.notified)
        return record

    def counted_is_relevant(scope, device):
        counts["is_relevant_calls"] += 1
        return is_relevant(scope, device)

    def counted_predict_trajectory(device, net, now):
        counts["predict_trajectory_calls"] += 1
        return predict_trajectory(device, net, now)

    dissemination.distribute = counted_distribute
    dissemination.is_relevant = counted_is_relevant
    dissemination.predict_trajectory = counted_predict_trajectory
    try:
        run_workload(workload, seed)
    finally:
        dissemination.distribute, dissemination.is_relevant = distribute, is_relevant
        dissemination.predict_trajectory = predict_trajectory
    return counts


def seconds(workload: str, seed: int) -> float:
    """Plain seconds spent in ``distribute`` during one run of ``workload``."""
    total = [0.0]
    distribute = dissemination.distribute

    def timed_distribute(*args):
        start = time.perf_counter()
        try:
            return distribute(*args)
        finally:
            total[0] += time.perf_counter() - start

    dissemination.distribute = timed_distribute
    try:
        run_workload(workload, seed)
    finally:
        dissemination.distribute = distribute
    return total[0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_dissemination.json")
    args = parser.parse_args()
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for workload in grid_city.WORKLOADS:
        out = count(workload, args.seed)
        runs = [seconds(workload, args.seed) for _ in range(args.repeat)]
        out["distribute_s"] = round(statistics.median(runs), 6)
        report["workloads"][workload] = out
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
