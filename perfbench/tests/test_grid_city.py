"""The generator is deterministic and each workload has its defining property.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import grid_city  # noqa: E402
from mitsim import simulation  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(grid_city.WORKLOADS)


def scenario(workload, seed):
    return load_scenario(json.loads(grid_city.scenario_bytes(workload, seed)))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_equal_inputs_give_byte_identical_files(workload):
    first = grid_city.scenario_bytes(workload, 7)
    assert grid_city.scenario_bytes(workload, 7) == first
    assert grid_city.scenario_bytes(workload, 8) != first


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_scenarios_validate(workload, seed):
    sc = scenario(workload, seed)
    w = grid_city.WORKLOADS[workload]
    assert len(sc.net.nodes) == w.grid * w.grid
    assert len(sc.events) == w.events


@pytest.mark.parametrize("seed", [1, 2])
def test_commute_has_no_device_bound_travelers(seed):
    sc = scenario("city-commute", seed)
    assert not any("trip" in spec for spec in sc.device_specs)
    assert sc.arrivals


@pytest.mark.parametrize("seed", [1, 2])
def test_compare_revises_warnings_and_plans_bus_diversions(seed):
    tracer = Tracer()
    tracer.install()
    try:
        metrics = simulation.run(scenario("city-compare", seed)).metrics
    finally:
        tracer.uninstall()
    assert metrics.warnings_issued == grid_city.WORKLOADS["city-compare"].events
    assert metrics.revisions_issued == metrics.warnings_issued
    assert tracer.stats["adaptation.bus_diversion_favorable"].calls >= 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_commute_streams_span_a_fixed_distance(seed):
    w = grid_city.WORKLOADS["city-commute"]
    for stream in grid_city.generate("city-commute", seed)["demand"]["arrivals"]:
        (r1, c1), (r2, c2) = (map(int, stream[end][1:].split("_")) for end in ("origin", "dest"))
        assert abs(r1 - r2) + abs(c1 - c2) == w.od_span


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_commute_events_block_stream_paths(seed):
    doc = grid_city.generate("city-commute", seed)
    segments = doc["network"]["segments"]
    for stream, event in zip(doc["demand"]["arrivals"], doc["disturbances"]):
        path = grid_city._free_flow_path(segments, stream["origin"], stream["dest"])
        assert event["segments"][0] in path
        assert event["start"] + event["estimated_duration"] <= grid_city.DEMAND_WINDOW
