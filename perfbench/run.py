"""Grid-city benchmark: one command that measures, checks and reports.

    python3 perfbench/run.py --workload city-commute --seed 1 --seconds 30 --trace 0

Generates the workload's scenario from the seed, then repeats one cold
operation (``perfbench/worker.py`` in a fresh single-threaded process,
one at a time) until ``--seconds`` have passed.  Every operation loads
the scenario file, calls ``run`` or ``compare`` once, and checks its
outputs.  Just before each operation ``perfbench/reference.py`` times a
fixed piece of pure-Python work, which tells how fast the host is then.
With ``--trace 1`` one more operation runs with every mitsim layer
wrapped in spans, and the per-layer figures are reported instead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``--trace 0``: the end-to-end metrics, each the
median over the run's operations, timings in reference seconds as
``REFERENCE_S`` defines them; ``--trace 1``: the per-layer metrics, in
plain seconds).
Lines before it show the checked simulation answers and output digest.
It must be run from a checkout that holds ``src/mitsim``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import grid_city  # noqa: E402
import tracer  # noqa: E402

MIN_OPERATIONS = 5
OPERATION_TIMEOUT_S = 120.0
# On a shared host the speed of a cold operation changes by up to 1.8x for
# minutes at a time, as other tenants come and go.  Each operation's times
# are therefore divided by the time of the reference work measured just
# before it, and multiplied by REFERENCE_S, the reference's time on a
# 2-core Xeon at 2.0 GHz with Python 3.11.7 when that host ran fastest.
# The result reads as the operation's seconds on that host at that speed.
# A change to mitsim moves it as it moves the plain time, since the
# reference never runs mitsim code.
REFERENCE_S = 0.08

# Layers each workload must exercise: a traced run where one of them
# shows zero calls means the tracer missed a binding or the generator
# lost the workload's defining property.
COMMON = ("scenario.load_scenario", "simulation.run", "routing.route",
          "state.residual", "state.traversal_time", "state.mode_arcs",
          "dissemination.distribute", "dissemination.is_relevant",
          "messages.make_warning", "messages.encode", "messages.decode",
          "adaptation.plan", "disturbance.direct_effects", "disturbance.detect")
EXERCISED = {
    "city-commute": COMMON,
    "city-compare": tuple(name for name, _module, _attr in tracer.SPANS),
}
METRIC_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_s": "s",
                "tail_s": "s", "writes": "count", "overhead_s": "s"}


def child(cmd: list[str]) -> dict:
    """Runs one benchmark process to its end; returns its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *cmd], capture_output=True, text=True,
                              cwd=ROOT, timeout=OPERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": [f"{Path(cmd[0]).name} exceeded {OPERATION_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"failed": [f"{Path(cmd[0]).name} exited with {proc.returncode}"]}
    return json.loads(lines[-1])


def operation(scenario: Path, out_dir: Path, entry: str, trace: bool) -> dict:
    """The reference, then one worker; returns the worker's report with
    ``reference_s`` added, or a report of the failure."""
    reference = child([str(HERE / "reference.py")])
    if "failed" in reference:
        return reference
    cmd = [str(HERE / "worker.py"), str(scenario), str(out_dir), entry]
    try:
        report = child(cmd + ["--trace"] if trace else cmd)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report["reference_s"] = reference["reference_s"]
    return report


def layer_unit(name: str) -> str:
    return METRIC_UNITS.get(name.rsplit(".", 1)[1], "ratio")


def layer_names() -> list[str]:
    """Every per-layer metric name, in the order the traced run reports them."""
    names = []
    for name, _module, _attr in tracer.SPANS:
        names += [f"{name}.calls", f"{name}.total_s", f"{name}.self_s"]
        if name in tracer.SAMPLED:
            names += [f"{name}.p50_s", f"{name}.tail_s"]
    return names + ["routing.replan_adopt_ratio", "state.writes",
                    "state.route_calls_per_write", "dissemination.notify_ratio",
                    "dissemination.messages_per_baseline", "trace.overhead_s"]


def end_to_end(reports: list[dict]) -> dict:
    """The end-to-end metrics of a run's successful operations: medians,
    timings in reference seconds (see ``REFERENCE_S``)."""
    def reference_seconds(key):
        return statistics.median(r[key] / r["reference_s"] for r in reports) * REFERENCE_S

    return {
        "wall_s": {"value": reference_seconds("wall_s"), "unit": "s"},
        "setup_s": {"value": reference_seconds("setup_s"), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reports),
                        "unit": "MiB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(grid_city.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mitsim" / "__init__.py").is_file():
        print(f"no mitsim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    entry = grid_city.WORKLOADS[args.workload].entry
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        scenario = work / "scenario.json"
        scenario.write_bytes(grid_city.scenario_bytes(args.workload, args.seed))
        reports = []
        deadline = time.monotonic() + args.seconds
        while len(reports) < MIN_OPERATIONS or time.monotonic() < deadline:
            reports.append(operation(scenario, work / f"op{len(reports)}", entry, False))
        traced = operation(scenario, work / "traced", entry, True) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = [f for r in reports for f in r["failed"]]
    good = [r for r in reports if not r["failed"]]
    digests = {r["digest"] for r in good}
    if len(digests) > 1:
        problems.append(f"output digest differs between operations: {sorted(digests)}")
    if traced is not None:
        problems += [f"traced: {f}" for f in traced["failed"]]
        if not traced["failed"]:
            if traced["digest"] not in digests:
                problems.append("traced output digest differs from the untraced one")
            if traced["self_in_wall_s"] > traced["wall_s"]:
                problems.append("span self times exceed the traced wall time")
            for name in EXERCISED[args.workload]:
                if traced["layers"][f"{name}.calls"] == 0:
                    problems.append(f"traced: {name} was never called")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if good:
        print(f"answers: {json.dumps(good[0]['answers'], sort_keys=True)}")
        print(f"digest: {good[0]['digest']}")
        for key in ("setup_s", "wall_s", "reference_s"):
            values = sorted(r[key] for r in good)
            print(f"measured {key}: min {values[0]:.6f} median {statistics.median(values):.6f} "
                  f"max {values[-1]:.6f} over {len(values)} operations")
    attempted = len(reports) + (traced is not None)
    failed = sum(1 for r in reports if r["failed"]) + bool(traced and traced["failed"])
    if traced is not None and not traced["failed"] and good:
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (traced["wall_s"]
                                      - statistics.median(r["wall_s"] for r in good))
        metrics = {name: {"value": values[name], "unit": layer_unit(name)}
                   for name in layer_names()}
    elif not args.trace and good:
        metrics = end_to_end(good)
    else:
        metrics = {}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
