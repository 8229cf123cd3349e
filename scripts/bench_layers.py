#!/usr/bin/env python3
"""Per-layer counts and times on the benchmark's two grid-city workloads.

    python3 scripts/bench_layers.py [--seed 100] [--repeat 5] [--out BENCH_layers.json]

Generates ``city-commute`` and ``city-compare`` with ``perfbench/grid_city.py``
and runs each workload's entry point (targeted ``run`` or ``compare``) in
this process, on a freshly loaded scenario each time.

One run per workload counts: ``calls`` holds the calls of every span of
``perfbench/tracer.py`` (``SPANS``) and of ``EXTRA`` below, and ``counts``
what a ``Probe`` sees beside them: searches made for ``route`` and for
``free_flow_path`` and the states each settles (a search reads
``net.multimodal_nodes`` once per state it expands; a found plan adds its
destination), ``route()``'s store hits, the devices ``distribute`` is handed
and notifies, overlay writes, the entries ``setup`` schedules, the median
heap length as each entry reaches its handler, the cone travelers that
``compare``'s partial leave-one-out runs simulate, and the leave-one-out runs
that fall back to a full run.  Then each span in ``TIMED``
is timed over ``--repeat`` runs with that span alone installed, so no nested
span adds to it, each making the counted calls; ``seconds`` holds the median
total and the mean per call (``time.perf_counter``), and ``per_call_ref_us``,
the mean per call in reference microseconds: before each repetition this
process times the work of ``perfbench/reference.py``, divides the
repetition's total by it and multiplies by ``perfbench/run.py``'s
``REFERENCE_S``, so figures from two regenerations on a host whose speed
drifts can be compared.

Writes the report to ``--out`` (default: ``BENCH_layers.json`` at the repo
root) and prints it.  Stdlib only.  CI runs it with ``--repeat 1`` and fails
on any count (not ``seconds``) that differs from the committed
``BENCH_layers.json``, so a change that moves a count regenerates that file.
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
import reference  # noqa: E402
from mitsim import scenario as scenario_module, simulation  # noqa: E402
from run import REFERENCE_S  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402

# Spans beyond the tracer's own: (report name, module, attribute).
EXTRA = (
    ("routing._search", "mitsim.routing", "_search"),
    ("network.free_flow_path", "mitsim.network", "MultiLayerNetwork.free_flow_path"),
    ("simulation._Sim.log", "mitsim.simulation", "_Sim.log"),
    ("simulation._Sim.handle_arrive", "mitsim.simulation", "_Sim.handle_arrive"),
)
WHERE = {name: (module, attr) for name, module, attr in SPANS + EXTRA}
TIMED = ("routing.route", "routing._search", "network.free_flow_path", "state.traversal_time",
         "dissemination.distribute", "simulation._Sim.log", "simulation._Sim.handle_arrive")


class CountingNodes(dict):
    """``multimodal_nodes`` counting its ``get`` calls, which only ``_search`` makes."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


class Probe:
    """The counts spans cannot give; each hook wraps a function for ``Tracer._patch``."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(("route_searches", "route_settled", "free_flow_path_searches",
                                     "free_flow_path_settled", "store_hits", "setup_entries",
                                     "devices_seen", "notified", "cone_travelers",
                                     "leave_one_out_fallbacks"), 0)
        self.kind = ["route"]
        self.heap_lens: list[int] = []
        self.nodes = CountingNodes()

    def search(self, fn):
        def counted(*args):
            self.nodes.gets = 0
            found = fn(*args)
            kind = self.kind[-1]
            self.counts[kind + "_searches"] += 1
            self.counts[kind + "_settled"] += self.nodes.gets + (found is not None)
            return found
        return counted

    def free_flow_path(self, fn):
        def marked(*args):
            self.kind.append("free_flow_path")
            try:
                return fn(*args)
            finally:
                self.kind.pop()
        return marked

    def route(self, fn):
        def counted(origin, dest, depart, prefs, state):
            self.counts["store_hits"] += (origin, dest, prefs) in state.searches()
            return fn(origin, dest, depart, prefs, state)
        return counted

    def distribute(self, fn):
        def counted(w, devices, *args):
            record = fn(w, devices, *args)
            self.counts["devices_seen"] += len(devices)
            self.counts["notified"] += len(record.notified)
            return record
        return counted

    def setup(self, fn):
        def counted(sim):
            fn(sim)
            self.counts["setup_entries"] += len(sim.setup_entries)
            if isinstance(sim, simulation.LeaveOneOut):
                self.counts["cone_travelers"] += len(sim.world.travelers)
        return counted

    def partial_trips(self, fn):
        def counted(*args):
            trips = fn(*args)
            self.counts["leave_one_out_fallbacks"] += trips is None
            return trips
        return counted

    def handler(self, fn):
        def probed(sim, *args):
            self.heap_lens.append(len(sim.heap))
            return fn(sim, *args)
        return probed


def run_workload(workload: str, seed: int, tracer: Tracer, probe=None) -> None:
    """One run of ``workload`` through ``tracer``'s wrappers, which it then removes."""
    try:  # mitsim functions are read from their modules, where the wrappers sit
        scenario = scenario_module.load_scenario(grid_city.generate(workload, seed))
        if probe is not None:
            net = scenario.net
            probe.nodes = net.multimodal_nodes = CountingNodes(net.multimodal_nodes)
        getattr(simulation, grid_city.WORKLOADS[workload].entry)(scenario)
    finally:
        tracer.uninstall()


def count(workload: str, seed: int) -> dict:
    """Every span's calls and the probe's counts over one run of ``workload``."""
    tracer, probe = Tracer(), Probe()
    tracer.install()
    for name, module, attr in EXTRA:
        tracer._patch(module, attr, lambda fn, name=name: tracer.span(name, fn))
    for name, hook in (("routing._search", probe.search), ("routing.route", probe.route),
                       ("network.free_flow_path", probe.free_flow_path),
                       ("dissemination.distribute", probe.distribute)):
        tracer._patch(*WHERE[name], hook)
    handlers = [(n, probe.handler) for n in vars(simulation._Sim) if n.startswith("handle_")]
    for attr, hook in [("setup", probe.setup)] + handlers:
        tracer._patch("mitsim.simulation", "_Sim." + attr, hook)
    tracer._patch("mitsim.simulation", "partial_trips", probe.partial_trips)
    run_workload(workload, seed, tracer, probe)
    counts = probe.counts
    for kind in ("route", "free_flow_path"):
        settled, searches = counts.pop(kind + "_settled"), counts[kind + "_searches"]
        counts[kind + "_settled_per_search"] = round(settled / searches, 2) if searches else None
    counts["heap_len_median"] = statistics.median(probe.heap_lens)
    counts["writes"] = tracer.writes
    calls = {name: st.calls for name, st in sorted(tracer.stats.items())}
    return {"calls": calls, "counts": counts}


def reference_seconds() -> float:
    """Seconds the work of ``perfbench/reference.py`` takes in this process now."""
    start = time.perf_counter()
    adj = reference.build_grid(reference.GRID)
    for k in range(reference.SOURCES):
        reference.distances(adj, (k % reference.GRID, (k * 7) % reference.GRID))
    return time.perf_counter() - start


def seconds(workload: str, seed: int, name: str, calls: int) -> float:
    """Plain seconds in ``name`` over one run with that span alone installed."""
    tracer = Tracer()
    tracer._patch(*WHERE[name], lambda fn: tracer.span(name, fn))
    run_workload(workload, seed, tracer)
    st = tracer.stats[name]
    if st.calls != calls:
        raise RuntimeError(f"{workload}: {name} made {st.calls} calls, counted {calls}")
    return st.total_s


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = parser.parse_args()
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    for workload in grid_city.WORKLOADS:
        out = report["workloads"][workload] = count(workload, args.seed)
        out["seconds"] = {}
        for name in TIMED:
            calls = out["calls"][name]
            totals, scaled = [], []
            for _ in range(args.repeat):
                ref = reference_seconds()
                totals.append(seconds(workload, args.seed, name, calls))
                scaled.append(totals[-1] / ref * REFERENCE_S)
            total, ref_total = statistics.median(totals), statistics.median(scaled)
            out["seconds"][name] = {
                "total_s": round(total, 6),
                "per_call_us": round(1e6 * total / calls, 3) if calls else None,
                "per_call_ref_us": round(1e6 * ref_total / calls, 3) if calls else None,
            }
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
