import json
import random

import pytest

from mitsim.demo import demo_scenario
from mitsim.scenario import load_scenario
from mitsim.simulation import (
    MODE_BROADCAST,
    MODE_NO_ADAPT,
    MODE_TARGETED,
    compare,
    ground_truth_affected,
    run,
)

from generators import (
    idle_obu_grid_scenario_dict,
    rail_line_scenario_dict,
    random_scenario_dict,
    run_outputs,
)


def mini_scenario(kind="D1", block=1.0, start=150.0, est=1800.0, true=None,
                  sources=True, latency=(0.0, 0.0), dest="v2", depart=100.0,
                  patience=None, end_time=14400.0):
    """3-node car line; tv0 drives v0->dest; the event sits on s1."""
    defaults = {}
    if patience is not None:
        defaults["patience"] = patience
    return {
        "seed": 11,
        "end_time": end_time,
        "network": {
            "modes": [{"mode_id": "car", "name": "car", "category": "private-car",
                       "agile": False, "maas_member": False}],
            "networks": [{"network_id": "net", "name": "net"}],
            "usage_matrix": [["car", "net"]],
            "nodes": ["v0", "v1", "v2"],
            "segments": [
                {"segment_id": "s0", "network_id": "net", "from_node": "v0",
                 "to_node": "v1", "length": 1000, "class": "major",
                 "usage": [{"mode_id": "car", "direction": "both",
                            "base_capacity": 1000, "free_flow_time": 100}]},
                {"segment_id": "s1", "network_id": "net", "from_node": "v1",
                 "to_node": "v2", "length": 1000, "class": "major",
                 "usage": [{"mode_id": "car", "direction": "both",
                            "base_capacity": 1000, "free_flow_time": 100}]},
            ],
            "multimodal_nodes": [],
        },
        "demand": {"trips": [], "arrivals": [], "ev_modifiers": []},
        "disturbances": [
            {"event_id": "e0", "kind": kind, "segments": ["s1"],
             "start": start, "estimated_duration": est,
             "true_duration": true if true is not None else est,
             "severity": {"capacity_reduction": block}},
        ],
        "detection_sources": ([
            {"source_kind": "cits-v2i", "applicable_kinds": [kind],
             "detect_probability": 1.0,
             "latency_min": latency[0], "latency_max": latency[1]},
        ] if sources else []),
        "devices": [
            {"device_id": "rsu0", "role": "roadside-unit",
             "position": {"node": "v1"}, "comm_range": 100000.0},
            {"device_id": "tv0", "role": "traveler-app",
             "position": {"node": "v0"}, "comm_range": 1000.0,
             "trip": {"origin": "v0", "dest": dest, "depart": depart,
                      "prefs": {"allowed_modes": ["car"]}}},
        ],
        "policies": {"rsu_links": [], "pt_routes": [], "defaults": defaults},
    }


def logs_by_type(result):
    out = {}
    for line in result.event_log:
        record = json.loads(line)
        out.setdefault(record["type"], []).append(record)
    return out


# -- lifecycle basics -------------------------------------------------------------


def test_no_disturbances_free_flow():
    raw = mini_scenario()
    raw["disturbances"] = []
    result = run(load_scenario(raw))
    m = result.metrics
    assert m.warnings_issued == 0 and m.actions_applied == 0
    assert m.trips_completed == m.trips_total == 1
    assert m.total_delay_s == 0.0
    assert result.warning_log == [] and result.action_log == []


def test_undetectable_event_delays_silently():
    raw = mini_scenario(sources=False, true=600.0)
    result = run(load_scenario(raw))
    m = result.metrics
    assert result.warning_log == []
    assert m.warnings_issued == 0
    assert m.total_delay_s > 0.0  # waited the blockage out at v1
    assert m.trips_completed == 1


def test_blocked_traveler_waits_then_resumes():
    raw = mini_scenario(sources=False, true=600.0)
    result = run(load_scenario(raw))
    tv = result.trips["tv0"]
    # enters s0 at 100, hits the blockage at 200, resumes at 750, +100 travel
    assert tv.arrival == 850.0
    assert result.metrics.total_delay_s == 550.0
    kinds = logs_by_type(result)
    assert "blocked" in kinds and "event_end" in kinds


def test_patience_exhaustion_abandons():
    raw = mini_scenario(sources=False, true=7200.0, patience=600.0)
    result = run(load_scenario(raw))
    assert result.metrics.trips_abandoned == 1
    assert result.metrics.trips_completed == 0
    kinds = logs_by_type(result)
    assert kinds["trip_abandoned"][0]["reason"] == "patience exhausted"


def test_lifecycle_order_and_causality():
    raw = mini_scenario(latency=(5.0, 5.0), true=600.0)
    result = run(load_scenario(raw))
    kinds = logs_by_type(result)
    inject = kinds["inject"][0]
    detect = kinds["detect"][0]
    warn = kinds["warn"][0]
    dissemination = kinds["dissemination"][0]
    assert inject["t"] <= detect["detect_time"] <= warn["t"]
    assert warn["t"] <= dissemination["t"]
    for line in result.action_log:
        action = json.loads(line)
        assert action["activation"] >= warn["t"]
    # warning encodes an integer issue time at/after detection
    from mitsim.messages import decode

    w = decode(result.warning_log[0].encode())
    assert w.issue_time >= detect["detect_time"]


def test_conservation_counts():
    raw = mini_scenario(true=600.0)
    m = run(load_scenario(raw)).metrics
    assert m.trips_completed + m.trips_abandoned + m.trips_in_progress == m.trips_total


def test_overlay_restored_after_expiries():
    raw = mini_scenario(true=600.0)
    scenario = load_scenario(raw)
    sim_result = run(scenario)
    assert sim_result.metrics.trips_total == 1
    # replay manually to inspect the final overlay
    from mitsim.simulation import _Sim

    sim = _Sim(scenario, MODE_TARGETED)
    out = sim.run()
    assert out.metrics.trips_total == 1
    assert sim.world.overlay.pristine()
    assert sim.world.overlay.residual_map() == {
        k: 1.0 for k in sim.world.overlay.residual_map()}


def test_determinism_and_seed_sensitivity():
    raw = mini_scenario(latency=(10.0, 90.0), true=600.0)
    a = run(load_scenario(raw))
    b = run(load_scenario(raw))
    assert a.event_log == b.event_log
    assert a.warning_log == b.warning_log
    assert a.action_log == b.action_log
    assert a.metrics_json() == b.metrics_json()
    raw2 = dict(raw, seed=12)
    c = run(load_scenario(raw2))
    assert a.event_log != c.event_log


# -- revisions and escalations ------------------------------------------------------


def test_duration_revision_when_event_outlasts_estimate():
    raw = mini_scenario(est=600.0, true=1200.0)
    result = run(load_scenario(raw))
    assert result.metrics.revisions_issued == 1
    from mitsim.messages import decode

    first = decode(result.warning_log[0].encode())
    second = decode(result.warning_log[1].encode())
    assert (first.revision, second.revision) == (0, 1)
    assert second.estimated_end == 150 + 1200
    assert second.warning_id == first.warning_id


def test_d3_escalates_to_d2_in_run():
    raw = mini_scenario(kind="D3", est=3600.0, true=3600.0)
    raw["disturbances"][0]["specifics"] = {
        "details_at": 700.0, "registered_duration": 1800.0}
    result = run(load_scenario(raw))
    kinds = logs_by_type(result)
    esc = kinds["escalation"][0]
    assert (esc["from"], esc["to"]) == ("D3", "D2")
    assert result.metrics.revisions_issued == 1  # registry duration adopted


def test_d4_escalates_after_extension_threshold():
    raw = mini_scenario(kind="D4", est=8 * 3600.0, true=8 * 3600.0,
                        end_time=12 * 3600.0)
    raw["policies"]["defaults"]["d4_extension_threshold"] = 1800.0
    result = run(load_scenario(raw))
    kinds = logs_by_type(result)
    esc = kinds["escalation"][0]
    assert (esc["from"], esc["to"]) == ("D4", "D2")
    assert esc["t"] > 150.0 + 1800.0


# -- demand modifiers ------------------------------------------------------------------


def test_ev_modifier_scales_arrivals():
    raw = mini_scenario(kind="EV", est=3600.0, true=3600.0, start=0.0)
    raw["disturbances"][0]["severity"] = {"displaced_volume": 100.0}
    raw["demand"]["arrivals"] = [{
        "origin": "v0", "dest": "v1", "rate_per_hour": 10.0,
        "start": 0.0, "end": 3600.0, "prefs": {"allowed_modes": ["car"]}}]
    raw["demand"]["ev_modifiers"] = [
        {"event_id": "e0", "multiplier": 4.0, "nodes": ["v0"]}]
    boosted = run(load_scenario(raw)).metrics.trips_total
    without = dict(raw)
    without["demand"] = dict(raw["demand"], ev_modifiers=[])
    plain = run(load_scenario(without)).metrics.trips_total
    assert boosted > plain


# -- ground truth ------------------------------------------------------------------------


def test_ground_truth_empty_when_nobody_approaches():
    raw = mini_scenario(dest="v1", true=600.0)  # trip ends before the blockage
    scenario = load_scenario(raw)
    assert ground_truth_affected(scenario.events[0], scenario) == set()


def test_ground_truth_single_car_through_blockage():
    raw = mini_scenario(true=600.0)
    scenario = load_scenario(raw)
    assert ground_truth_affected(scenario.events[0], scenario) == {"tv0"}


def test_ground_truth_traversal_only():
    # partial reduction: cost changes via congestion, traversal also counts
    raw = mini_scenario(block=0.5, true=600.0)
    scenario = load_scenario(raw)
    assert ground_truth_affected(scenario.events[0], scenario) == {"tv0"}


# -- compare -----------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    demo_scenario,
    lambda: idle_obu_grid_scenario_dict(random.Random(1)),
    lambda: rail_line_scenario_dict(random.Random(1)),
], ids=["demo", "idle-1", "rail-1"])
def test_runs_after_compare_equal_runs_on_a_fresh_load(make):
    """What compare leaves on the shared network changes no later run."""
    text = json.dumps(make())
    served = load_scenario(json.loads(text))
    assert served.events
    compare(served)
    for config in (MODE_NO_ADAPT, MODE_BROADCAST, MODE_TARGETED):
        fresh = load_scenario(json.loads(text))
        assert run_outputs(run(served, config)) == run_outputs(run(fresh, config))


def test_compare_no_disturbances_identical():
    raw = mini_scenario()
    raw["disturbances"] = []
    report = compare(load_scenario(raw))
    a = report.no_adapt.metrics.to_dict()
    b = report.broadcast.metrics.to_dict()
    c = report.targeted.metrics.to_dict()
    for key in ("trips_total", "trips_completed", "total_delay_s"):
        assert a[key] == b[key] == c[key]
    assert report.precision is None and report.recall is None


def test_compare_demo_relationships(demo):
    report = compare(demo)
    d = report.to_dict()
    assert d["targeted"]["total_delay_s"] == d["broadcast"]["total_delay_s"]
    assert (d["targeted"]["messages_sent_total"]
            < d["targeted"]["broadcast_baseline_total"])
    assert d["targeted"]["total_delay_s"] < d["no_adapt"]["total_delay_s"]
    assert report.recall == 1.0


def test_recall_below_one_when_horizon_too_short(demo):
    raw = json.loads(json.dumps(demo.raw))
    # a stingy policy: no look-ahead to speak of, no area, no actors
    raw["policies"]["relevance"] = {
        "horizon": 1.0,
        "area_radius": {"critical": 1.0, "major": 1.0, "inferior": 1.0, "minor": 1.0},
        "include_adaptation_actors": False,
    }
    report = compare(load_scenario(raw))
    assert report.recall is not None and report.recall < 1.0


# -- randomized invariants -----------------------------------------------------------------


def test_randomized_scenarios_conserve_and_restore():
    for seed in range(40):
        rng = random.Random(123000 + seed)
        raw = random_scenario_dict(rng)
        scenario = load_scenario(raw)
        from mitsim.simulation import _Sim

        sim = _Sim(scenario, MODE_TARGETED)
        result = sim.run()
        m = result.metrics
        assert (m.trips_completed + m.trips_abandoned + m.trips_in_progress
                == m.trips_total)
        assert sim.world.overlay.pristine()
        # causality: warnings never precede detection, actions never precede warnings
        kinds = logs_by_type(result)
        detects = {r["event"]: r["detect_time"] for r in kinds.get("detect", [])}
        warn_times = {}
        for r in kinds.get("warn", []):
            warn_times.setdefault(r["event"], r["t"])
            assert r["t"] >= detects[r["event"]]
        for line in result.action_log:
            action = json.loads(line)
            assert action["activation"] >= warn_times[action["event_id"]]


# -- fleet integration -------------------------------------------------------------------


def rail_city_scenario():
    """Road q0-q1-q2 with a metro q0-q2; a broken metro triggers replacement."""
    return {
        "seed": 5,
        "end_time": 14400.0,
        "network": {
            "modes": [
                {"mode_id": "bus", "name": "bus", "category": "bus",
                 "agile": False, "maas_member": False},
                {"mode_id": "metro", "name": "metro", "category": "metro",
                 "agile": False, "maas_member": False},
            ],
            "networks": [{"network_id": "road", "name": "road"},
                         {"network_id": "rail", "name": "rail"}],
            "usage_matrix": [["bus", "road"], ["metro", "rail"]],
            "nodes": ["q0", "q1", "q2"],
            "segments": [
                {"segment_id": "g0", "network_id": "road", "from_node": "q0",
                 "to_node": "q1", "length": 1200, "class": "major",
                 "usage": [{"mode_id": "bus", "direction": "both",
                            "base_capacity": 300, "free_flow_time": 120}]},
                {"segment_id": "g1", "network_id": "road", "from_node": "q1",
                 "to_node": "q2", "length": 1200, "class": "major",
                 "usage": [{"mode_id": "bus", "direction": "both",
                            "base_capacity": 300, "free_flow_time": 120}]},
                {"segment_id": "k0", "network_id": "rail", "from_node": "q0",
                 "to_node": "q2", "length": 2400, "class": "major",
                 "usage": [{"mode_id": "metro", "direction": "both",
                            "base_capacity": 600, "free_flow_time": 150}]},
            ],
            "multimodal_nodes": [
                {"node_id": "q0",
                 "attachments": [["bus", "road"], ["metro", "rail"]],
                 "services": ["pt-stop", "rail-station"]},
                {"node_id": "q2",
                 "attachments": [["bus", "road"], ["metro", "rail"]],
                 "services": ["pt-stop", "rail-station"]},
            ],
        },
        "demand": {"trips": [], "arrivals": [], "ev_modifiers": []},
        "disturbances": [
            {"event_id": "railcut", "kind": "D6", "segments": ["k0"],
             "start": 100.0, "estimated_duration": 3600.0,
             "true_duration": 3600.0,
             "severity": {"capacity_reduction": 1.0}},
        ],
        "detection_sources": [
            {"source_kind": "rail-dispatch", "applicable_kinds": ["D6", "D7"],
             "detect_probability": 1.0, "latency_min": 0.0, "latency_max": 0.0},
        ],
        "devices": [
            {"device_id": "rsu0", "role": "roadside-unit",
             "position": {"node": "q1"}, "comm_range": 100000.0},
            {"device_id": "rider", "role": "traveler-app",
             "position": {"node": "q0"}, "comm_range": 1000.0,
             "trip": {"origin": "q0", "dest": "q2", "depart": 400.0,
                      "prefs": {"allowed_modes": ["metro"]}}},
        ],
        "policies": {"rsu_links": [], "pt_routes": [], "defaults": {}},
    }


def test_replacement_service_carries_stranded_riders():
    result = run(load_scenario(rail_city_scenario()))
    assert result.action_log, "expected a replacement action"
    actions = [json.loads(line) for line in result.action_log]
    assert any(a["type"] == "replacement" for a in actions)
    rider = result.trips["rider"]
    assert rider.status == "completed"
    ridden = [seg for seg, _enter, _exit in rider.traversals]
    assert ridden == ["g0", "g1"]  # the road bridge, in the metro's stead
    # slower than the metro it replaces, but far better than waiting it out
    assert 0 < result.metrics.total_delay_s < 3600.0 - 400.0


def test_bus_diversion_applies_and_restores_in_run():
    raw = rail_city_scenario()
    # add a parallel road so the bus can go around a blocked g1
    raw["network"]["segments"].append(
        {"segment_id": "g3", "network_id": "road", "from_node": "q1",
         "to_node": "q2", "length": 4000, "class": "minor",
         "usage": [{"mode_id": "bus", "direction": "both",
                    "base_capacity": 300, "free_flow_time": 400}]})
    raw["network"]["multimodal_nodes"].append(
        {"node_id": "q1", "attachments": [["bus", "road"]],
         "services": ["pt-stop"]})
    raw["policies"]["pt_routes"] = [
        {"route_id": "B", "mode_id": "bus", "stops": ["q0", "q1", "q2"],
         "segments": ["g0", "g1"], "headway": 600}]
    raw["disturbances"] = [
        {"event_id": "roadcut", "kind": "D1", "segments": ["g1"],
         "start": 100.0, "estimated_duration": 3600.0, "true_duration": 3600.0,
         "severity": {"capacity_reduction": 1.0}}]
    raw["detection_sources"][0]["applicable_kinds"] = ["D1"]
    raw["devices"][1]["trip"]["prefs"]["allowed_modes"] = ["bus"]
    scenario = load_scenario(raw)
    from mitsim.simulation import _Sim

    sim = _Sim(scenario, MODE_TARGETED)
    result = sim.run()
    actions = [json.loads(line) for line in result.action_log]
    diversions = [a for a in actions if a["type"] == "bus_diversion"]
    assert diversions and diversions[0]["params"]["detour_segments"] == ["g3"]
    # expiry put the route chain back
    assert sim.world.pt_routes["B"].segments == ("g0", "g1")
    assert result.trips["rider"].status == "completed"
