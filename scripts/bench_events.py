#!/usr/bin/env python3
"""Per-event cost of the simulator's event loop on the benchmark's two workloads.

    python3 scripts/bench_events.py [--seed 100] [--repeat 5] [--out BENCH_events.json]

Generates ``city-commute`` and ``city-compare`` with ``perfbench/grid_city.py``
and runs each workload's entry point (targeted ``run`` or ``compare``) in
this process.  One run counts the event-log lines written (``_Sim.log``),
the ``arrive`` events handled (``_Sim.handle_arrive``), the ``route()``
calls and how many of them the search store already held, and the entries
``setup`` scheduled (``setup_entries``, summed over the workload's runs);
``heap_len_median`` is the median length of the heap of entries scheduled
during the run, read as each entry reaches its handler.  Counts repeat
exactly.  Then ``--repeat`` runs, each on a freshly loaded scenario, time
every ``_Sim.log`` call, and ``--repeat`` more every ``_Sim.handle_arrive``
call (``time.perf_counter``, no reference scaling); ``log_line_us`` and
``arrive_us`` are the medians over those runs of the mean microseconds per
call.

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


def _patch_handlers(before) -> dict:
    """Wraps every ``_Sim.handle_*`` so that ``before(sim, name)`` runs
    first; returns the originals by name."""
    originals = {name: getattr(simulation._Sim, name) for name in dir(simulation._Sim)
                 if name.startswith("handle_")}

    def wrapped(name, handler):
        def call(self, *args):
            before(self, name)
            return handler(self, *args)
        return call

    for name, handler in originals.items():
        setattr(simulation._Sim, name, wrapped(name, handler))
    return originals


def count(workload: str, seed: int) -> dict:
    """One run of ``workload`` with log lines, arrivals, routes, setup
    entries and heap lengths counted."""
    counts = {"log_lines": 0, "arrive_events": 0, "route_calls": 0, "store_hits": 0,
              "setup_entries": 0}
    heap_lens: list[int] = []
    log, setup, route = simulation._Sim.log, simulation._Sim.setup, routing.route

    def counted_log(self, t, record):
        counts["log_lines"] += 1
        log(self, t, record)

    def counted_setup(self):
        setup(self)
        counts["setup_entries"] += len(self.setup_entries)

    def counted_route(origin, dest, depart, prefs, state):
        counts["route_calls"] += 1
        counts["store_hits"] += (origin, dest, prefs) in state.searches()
        return route(origin, dest, depart, prefs, state)

    def before_handler(sim, name):
        heap_lens.append(len(sim.heap))
        counts["arrive_events"] += name == "handle_arrive"

    simulation._Sim.log, simulation._Sim.setup = counted_log, counted_setup
    handlers = _patch_handlers(before_handler)
    patched = _patch_route(counted_route)
    try:
        run_workload(workload, seed)
    finally:
        simulation._Sim.log, simulation._Sim.setup = log, setup
        for name, handler in handlers.items():
            setattr(simulation._Sim, name, handler)
        for module in patched:
            module.route = route
    counts["heap_len_median"] = statistics.median(heap_lens)
    return counts


def timed_seconds(workload: str, seed: int, method: str) -> tuple[float, int]:
    """Plain seconds spent in ``_Sim.<method>`` during one run, and its calls."""
    total = [0.0, 0]
    original = getattr(simulation._Sim, method)

    def timed(self, *args):
        start = time.perf_counter()
        try:
            original(self, *args)
        finally:
            total[0] += time.perf_counter() - start
            total[1] += 1

    setattr(simulation._Sim, method, timed)
    try:
        run_workload(workload, seed)
    finally:
        setattr(simulation._Sim, method, original)
    return total[0], total[1]


def per_call_us(workload: str, seed: int, method: str, repeat: int, calls: int) -> float:
    """Median over ``repeat`` runs of the mean microseconds per
    ``_Sim.<method>`` call; every run must make ``calls`` calls."""
    runs = [timed_seconds(workload, seed, method) for _ in range(repeat)]
    if any(n != calls for _seconds, n in runs):
        raise RuntimeError(f"{workload}: {method} call counts differ between runs")
    return round(1e6 * statistics.median(seconds / n for seconds, n in runs), 3)


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
        out["log_line_us"] = per_call_us(workload, args.seed, "log", args.repeat,
                                         out["log_lines"])
        out["arrive_us"] = per_call_us(workload, args.seed, "handle_arrive", args.repeat,
                                       out["arrive_events"])
        report["workloads"][workload] = out
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
