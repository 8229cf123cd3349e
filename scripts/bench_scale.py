#!/usr/bin/env python3
"""Counts and output digests of ``mitsim run`` and ``mitsim compare`` on
city-sized grids.

    python3 scripts/bench_scale.py [--seed 100] [--repeat 3] [--out BENCH_scale.json]

The cities (``CITIES``) are ``perfbench/grid_city.py``'s ``city-compare``
workload grown to an n x n grid, with devices in proportion to n^2, and
registered under the names ``scale-<n>`` (the name seeds the city).  On
each city, each operation (``run`` in targeted mode, ``compare``) runs
once through the CLI with spans installed, writing its output files to a
temporary directory, and reports:

- ``entries``: the event-loop entries handled, by kind, over every run the
  operation makes (``compare``'s partial leave-one-out runs included);
- ``calls``: ``routing.evaluate_moves`` and ``routing._search`` calls;
- ``sha256``: the digest of every output file the CLI writes;
- ``seconds``: the median over ``--repeat`` plain runs of the operation's
  wall time, load excluded (``time.perf_counter``, in this process).

Writes the report to ``--out`` (default: ``BENCH_scale.json`` at the repo
root) and prints it.  Stdlib only.  CI runs it with ``--repeat 1`` and fails
on any value outside ``seconds`` that differs from the committed
``BENCH_scale.json``, so every output byte at scale is checked.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import grid_city  # noqa: E402
from mitsim import cli, simulation  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

# name -> (grid side, device-bound travelers, idle OBUs, events)
CITIES = {
    "scale-20": (20, 300, 600, 5),
    "scale-30": (30, 600, 1200, 6),
}
OPERATIONS = ("run", "compare")
CALLS = (("routing.evaluate_moves", "mitsim.routing", "evaluate_moves"),
         ("routing._search", "mitsim.routing", "_search"))


def register(name: str) -> None:
    """Adds city ``name`` to ``grid_city.WORKLOADS``."""
    n, travelers, idle_obus, events = CITIES[name]
    grid_city.WORKLOADS[name] = dataclasses.replace(
        grid_city.WORKLOADS["city-compare"], grid=n, travelers=travelers,
        idle_obus=idle_obus, events=events, od_span=max(6, n // 2), rsus=max(5, n * n // 60),
        bus_routes=max(2, n // 8), signals=max(8, n), cavs=max(3, n // 5))


def counted(raw: dict, operation: str) -> dict:
    """One CLI ``operation`` on the scenario ``raw`` with its entries and
    calls counted; the counts and the digest of each file it writes."""
    tracer, entries = Tracer(), Counter()
    for name, module, attr in CALLS:
        tracer._patch(module, attr, lambda fn, name=name: tracer.span(name, fn))

    def counting(kind):
        def hook(fn):
            def handled(sim, *args):
                entries[kind] += 1
                return fn(sim, *args)
            return handled
        return hook

    for attr in vars(simulation._Sim):
        if attr.startswith("handle_"):
            tracer._patch("mitsim.simulation", "_Sim." + attr,
                          counting(attr[len("handle_"):]))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(raw), encoding="utf-8")
        out = Path(tmp) / "out"
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([operation, str(scenario), "--out", str(out)])
        finally:
            tracer.uninstall()
        if code != 0:
            raise RuntimeError(f"mitsim {operation} exited with {code}")
        digests = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in sorted(out.rglob("*")) if path.is_file()}
    return {"entries": dict(sorted(entries.items())),
            "calls": {name: tracer.stats[name].calls for name, _module, _attr in CALLS},
            "sha256": digests}


def seconds(raw: dict, operation: str) -> float:
    """Plain wall seconds of one ``operation`` on a fresh load of ``raw``."""
    scenario = load_scenario(raw)
    start = time.perf_counter()
    getattr(simulation, operation)(scenario)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args()
    report = {
        "seed": args.seed,
        "repeat": args.repeat,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "processor": platform.processor(), "cpus": os.cpu_count()},
        "cities": {},
        "workloads": {},
    }
    for name in CITIES:
        register(name)
        report["cities"][name] = dataclasses.asdict(grid_city.WORKLOADS[name])
        raw = grid_city.generate(name, args.seed)
        for operation in OPERATIONS:
            out = report["workloads"][f"{name} {operation}"] = counted(raw, operation)
            wall = statistics.median(seconds(raw, operation) for _ in range(args.repeat))
            out["seconds"] = {"wall_s": round(wall, 6)}
    text = json.dumps(report, indent=2, sort_keys=True)
    args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
