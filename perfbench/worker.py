"""One cold benchmark operation in a fresh process.

Usage: python3 perfbench/worker.py SCENARIO OUT_DIR {run,compare} [--trace]

Loads the scenario file (timed as set-up), calls the workload's entry
point once (timed as wall time), writes the run's outputs the way
``mitsim run`` does, checks them, and prints one JSON object on stdout.
With ``--trace`` every public mitsim layer is wrapped in spans first and
the JSON also carries the per-layer statistics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from mitsim import messages, simulation  # noqa: E402
from mitsim.scenario import load_scenario_file  # noqa: E402

from tracer import Tracer, percentile, tail_percentile  # noqa: E402

RESULT_FILES = ("metrics.json", "events.log", "warnings.log", "actions.log")


def write_result(result, out_dir: Path) -> None:
    """The four files ``mitsim run`` writes, byte for byte.

    Written here rather than through the CLI's private helper, so the
    benchmark calls only mitsim's public API.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(result.metrics_json() + "\n", encoding="utf-8")
    for name, lines in (("events.log", result.event_log),
                        ("warnings.log", result.warning_log),
                        ("actions.log", result.action_log)):
        (out_dir / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def check_result(result, label: str, targeted: bool) -> list[str]:
    """Output invariants of one run; returns the failed checks."""
    m = result.metrics
    failed = []
    if m.trips_total != m.trips_completed + m.trips_abandoned + m.trips_in_progress:
        failed.append(f"{label}: trips_total != completed + abandoned + in_progress")
    if targeted and m.messages_sent_total > m.broadcast_baseline_total:
        failed.append(f"{label}: messages_sent_total > broadcast_baseline_total")
    return failed


def check_codec(out_dir: Path, label: str) -> list[str]:
    """Every warnings.log line decodes and re-encodes to the same bytes."""
    failed = []
    for n, line in enumerate((out_dir / "warnings.log").read_bytes().splitlines()):
        if messages.encode(messages.decode(line)) != line:
            failed.append(f"{label}: warnings.log line {n + 1} does not round-trip")
    return failed


def digest(out_dirs: list[Path]) -> str:
    h = hashlib.sha256()
    for out_dir in out_dirs:
        for name in RESULT_FILES:
            h.update(name.encode("utf-8") + b"\0")
            h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def layer_report(tracer: Tracer, results: list) -> dict:
    out: dict = {}
    for name, st in sorted(tracer.stats.items()):
        out[f"{name}.calls"] = st.calls
        out[f"{name}.total_s"] = st.total_s
        out[f"{name}.self_s"] = st.self_s
        if st.samples is not None:
            values = sorted(st.samples)
            out[f"{name}.p50_s"] = percentile(values, 50.0)
            out[f"{name}.tail_s"] = percentile(values, tail_percentile(len(values)))
    route_calls = tracer.stats["routing.route"].calls
    setup_routes = sum(len(r.trips) for r in results)
    replans = sum(1 for r in results for line in r.event_log if '"type":"replan"' in line)
    out["routing.replan_adopt_ratio"] = replans / max(route_calls - setup_routes, 1)
    out["state.writes"] = tracer.writes
    out["state.route_calls_per_write"] = route_calls / max(tracer.writes, 1)
    records = [rec for r in results if not r.config.broadcast for rec in r.records]
    notified = sum(len(rec.notified) for rec in records)
    out["dissemination.notify_ratio"] = (
        notified / max(tracer.stats["dissemination.is_relevant"].calls, 1))
    out["dissemination.messages_per_baseline"] = (
        sum(rec.messages_sent for rec in records) / max(sum(rec.baseline for rec in records), 1))
    return out


def main(argv: list[str]) -> int:
    scenario_path, out_root, entry = argv[0], Path(argv[1]), argv[2]
    tracer = None
    results: list = []
    if "--trace" in argv[3:]:
        tracer = Tracer()
        tracer.install()
        # keep every RunResult so logs of runs compare() discards can be read
        traced_run = simulation.run

        def keep(*args, **kwargs):
            result = traced_run(*args, **kwargs)
            results.append(result)
            return result

        simulation.run = keep

    start = time.perf_counter()
    scenario = load_scenario_file(scenario_path)
    loaded = time.perf_counter()
    self_before = tracer.self_sum() if tracer else 0.0
    if entry == "run":
        targeted = simulation.run(scenario)
        runs = {"targeted": targeted}
    else:
        report = simulation.compare(scenario)
        runs = {"no_adapt": report.no_adapt, "broadcast": report.broadcast,
                "targeted": report.targeted}
        targeted = report.targeted
    done = time.perf_counter()
    self_in_wall = tracer.self_sum() - self_before if tracer else 0.0

    failed: list[str] = []
    out_dirs = []
    for label, result in runs.items():
        out_dir = out_root / label
        write_result(result, out_dir)
        out_dirs.append(out_dir)
        failed += check_result(result, label, targeted=label == "targeted")
        failed += check_codec(out_dir, label)
    m = targeted.metrics
    answers = {
        "messages_saved_ratio": (1.0 - m.messages_sent_total / m.broadcast_baseline_total
                                 if m.broadcast_baseline_total else None),
        "total_delay_s": m.total_delay_s,
    }
    if entry == "compare":
        answers["delay_mitigated_s"] = (report.no_adapt.metrics.total_delay_s
                                        - m.total_delay_s)
        answers["relevance_precision"] = report.precision
        answers["relevance_recall"] = report.recall
        # None is the simulator's answer when nothing was notified (precision)
        # or no device was affected (recall); any number must be a share.
        for key in ("relevance_precision", "relevance_recall"):
            value = answers[key]
            if value is not None and not 0.0 <= value <= 1.0:
                failed.append(f"{key} = {value} is outside [0, 1]")
    out = {
        "setup_s": loaded - start,
        "wall_s": done - loaded,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest(out_dirs),
        "answers": answers,
        "failed": failed,
    }
    if tracer is not None:
        out["layers"] = layer_report(tracer, results)
        out["self_in_wall_s"] = self_in_wall
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
