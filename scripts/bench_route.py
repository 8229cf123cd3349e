#!/usr/bin/env python3
"""Route search cost on the benchmark's two grid-city workloads.

    python3 scripts/bench_route.py [--seed 100] [--repeat 5] [--out BENCH_route.json]

Generates ``city-commute`` and ``city-compare`` with ``perfbench/grid_city.py``,
runs each workload's entry point (targeted ``run`` or ``compare``) in this
process, and wraps ``routing._search`` to count searches, the states each
one settles and its plain time (``time.perf_counter``, no reference
scaling).  Searches made for ``free_flow_path`` are reported apart from
those made for ``route``.  Counts repeat exactly; times are the median of
``--repeat`` runs, each on a freshly loaded scenario, so the first search
of a run also builds the network's landmark tables.

A state counts as settled when the search reads ``net.multimodal_nodes``
for it, which the search does once for each state it expands, plus one for
the destination when a plan is found.

Writes the report to ``--out`` (default: ``BENCH_route.json`` at the repo
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
from mitsim.network import MultiLayerNetwork  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402


class _CountingNodes(dict):
    """``multimodal_nodes`` that counts ``get`` calls while ``counting``."""

    counting = False
    gets = 0

    def get(self, key, default=None):
        if self.counting:
            self.gets += 1
        return super().get(key, default)


def measure(workload: str, seed: int) -> dict:
    """One run of ``workload``: per-kind search counts, settled states, seconds."""
    scenario = load_scenario(grid_city.generate(workload, seed))
    net = scenario.net
    nodes = net.multimodal_nodes = _CountingNodes(net.multimodal_nodes)
    stats = {kind: {"searches": 0, "settled": 0, "seconds": 0.0}
             for kind in ("route", "free_flow_path")}
    kind = ["route"]
    search, free_flow_path = routing._search, MultiLayerNetwork.free_flow_path

    def timed_search(*args):
        nodes.counting, nodes.gets = True, 0
        start = time.perf_counter()
        try:
            found = search(*args)
        finally:
            elapsed = time.perf_counter() - start
            nodes.counting = False
        st = stats[kind[-1]]
        st["searches"] += 1
        st["settled"] += nodes.gets + (found is not None)
        st["seconds"] += elapsed
        return found

    def flagged_free_flow_path(self, *args):
        kind.append("free_flow_path")
        try:
            return free_flow_path(self, *args)
        finally:
            kind.pop()

    routing._search, MultiLayerNetwork.free_flow_path = timed_search, flagged_free_flow_path
    try:
        if grid_city.WORKLOADS[workload].entry == "run":
            simulation.run(scenario)
        else:
            simulation.compare(scenario)
    finally:
        routing._search, MultiLayerNetwork.free_flow_path = search, free_flow_path
    return stats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_route.json")
    args = parser.parse_args()
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for workload in grid_city.WORKLOADS:
        runs = [measure(workload, args.seed) for _ in range(args.repeat)]
        out = {}
        for kind, first in runs[0].items():
            if any(run[kind]["searches"] != first["searches"]
                   or run[kind]["settled"] != first["settled"] for run in runs):
                raise RuntimeError(f"{workload}: {kind} counts differ between runs")
            searches = first["searches"]
            seconds = statistics.median(run[kind]["seconds"] for run in runs)
            out[kind] = {
                "searches": searches,
                "settled_per_search": round(first["settled"] / searches, 2) if searches else None,
                "search_s": round(seconds, 6),
                "per_search_ms": round(1000.0 * seconds / searches, 4) if searches else None,
            }
        report["workloads"][workload] = out
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
