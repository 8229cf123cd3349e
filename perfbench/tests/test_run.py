"""BENCHMARK.json names exactly the metrics run.py prints, and run.py
scales timings by the reference work.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import grid_city  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_match_the_generator():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(grid_city.WORKLOADS)
    assert set(run.EXERCISED) == set(grid_city.WORKLOADS)


def test_per_layer_metrics_match_the_traced_report():
    assert [(m["name"], m["unit"]) for m in CONTRACT["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.layer_names()]


def test_end_to_end_metrics():
    assert [m["name"] for m in CONTRACT["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]


def test_timings_follow_the_program_not_the_host():
    ops = [{"wall_s": 0.4 + k / 100, "setup_s": 0.002, "reference_s": 0.05 + k / 1000,
            "peak_rss_mb": 20.0 + k} for k in range(5)]
    base = run.end_to_end(ops)
    slow_host = run.end_to_end([dict(op, wall_s=2 * op["wall_s"], setup_s=2 * op["setup_s"],
                                     reference_s=2 * op["reference_s"]) for op in ops])
    slow_program = run.end_to_end([dict(op, wall_s=2 * op["wall_s"]) for op in ops])
    for name in ("wall_s", "setup_s"):
        assert math.isclose(slow_host[name]["value"], base[name]["value"])
    assert math.isclose(slow_program["wall_s"]["value"], 2 * base["wall_s"]["value"])
    assert base["peak_rss_mb"]["value"] == 22.0


def test_reference_runs_alone():
    proc = subprocess.run([sys.executable, str(BENCH / "reference.py")],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout)["reference_s"] > 0
