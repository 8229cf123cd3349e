#!/usr/bin/env python3
"""Per-event cost of the simulator's event loop on the benchmark's two workloads.

    python3 scripts/bench_events.py [--seed 100] [--repeat 5] [--out BENCH_events.json]

Generates ``city-commute`` and ``city-compare`` with ``perfbench/grid_city.py``
and runs each workload's entry point (targeted ``run`` or ``compare``) in
this process.  One run counts the event-log lines written (``_Sim.log``),
the ``arrive`` events handled (``_Sim.handle_arrive``), the ``route()``
calls and how many of them the search store already held; counts repeat
exactly.  Then ``--repeat`` runs, each on a freshly loaded scenario, time
every ``_Sim.log`` call (``time.perf_counter``, no reference scaling);
``log_line_us`` is the median over those runs of the mean microseconds per
line.

Writes the report to ``--out`` (default: ``BENCH_events.json`` at the repo
root) and prints it.  Stdlib only; not part of any gate.
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
from mitsim import routing, simulation  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402


def run_workload(workload: str, seed: int) -> None:
    scenario = load_scenario(grid_city.generate(workload, seed))
    if grid_city.WORKLOADS[workload].entry == "run":
        simulation.run(scenario)
    else:
        simulation.compare(scenario)


def _patch_route(replacement) -> list:
    """Binds ``replacement`` wherever a mitsim module holds ``routing.route``;
    returns the patched modules."""
    route = routing.route
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("mitsim") and getattr(m, "route", None) is route]
    for module in modules:
        module.route = replacement
    return modules


def count(workload: str, seed: int) -> dict:
    """One run of ``workload`` with log lines, arrivals and routes counted."""
    counts = {"log_lines": 0, "arrive_events": 0, "route_calls": 0, "store_hits": 0}
    log, handle_arrive, route = simulation._Sim.log, simulation._Sim.handle_arrive, routing.route

    def counted_log(self, t, record):
        counts["log_lines"] += 1
        log(self, t, record)

    def counted_arrive(self, *args):
        counts["arrive_events"] += 1
        handle_arrive(self, *args)

    def counted_route(origin, dest, depart, prefs, state):
        counts["route_calls"] += 1
        counts["store_hits"] += (origin, dest, prefs) in state.searches()
        return route(origin, dest, depart, prefs, state)

    simulation._Sim.log, simulation._Sim.handle_arrive = counted_log, counted_arrive
    patched = _patch_route(counted_route)
    try:
        run_workload(workload, seed)
    finally:
        simulation._Sim.log, simulation._Sim.handle_arrive = log, handle_arrive
        for module in patched:
            module.route = route
    return counts


def log_seconds(workload: str, seed: int) -> tuple[float, int]:
    """Plain seconds spent in ``_Sim.log`` during one run, and its calls."""
    total = [0.0, 0]
    log = simulation._Sim.log

    def timed_log(self, t, record):
        start = time.perf_counter()
        try:
            log(self, t, record)
        finally:
            total[0] += time.perf_counter() - start
            total[1] += 1

    simulation._Sim.log = timed_log
    try:
        run_workload(workload, seed)
    finally:
        simulation._Sim.log = log
    return total[0], total[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_events.json")
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
        runs = [log_seconds(workload, args.seed) for _ in range(args.repeat)]
        if any(lines != out["log_lines"] for _seconds, lines in runs):
            raise RuntimeError(f"{workload}: log line counts differ between runs")
        per_line = statistics.median(seconds / lines for seconds, lines in runs)
        out["log_line_us"] = round(1e6 * per_line, 3)
        report["workloads"][workload] = out
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
