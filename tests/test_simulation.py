import dataclasses
import json
import math
import random
import struct
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mitsim import scenario as scenario_module, simulation
from mitsim.errors import ValidationError
from mitsim.scenario import load_scenario
from mitsim.simulation import (
    MODE_BROADCAST,
    MODE_NO_ADAPT,
    MODE_TARGETED,
    Metrics,
    RunResult,
    _json,
    _num,
    _replan_line,
    _Sim,
    _spawn_line,
    _trip_complete_line,
    compare,
    ground_truth_affected,
    run,
)

from conftest import demo_scenario
from generators import (
    idle_obu_grid_scenario_dict,
    rail_line_scenario_dict,
    random_scenario_dict,
    run_outputs,
    tie_scenario_dict,
)
from oracles import (PerArrivalSim, brute_force_canon, brute_force_flows, per_arrival_mode,
                     brute_force_residual_map)


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
    # Ended while still blocked: a missed event prints null and a run
    # without completed trips an integer 0 total.
    cut = run(load_scenario(mini_scenario(sources=False, end_time=300.0)))
    assert cut.metrics_json() == (
        '{"actions_applied":0,"broadcast_baseline_total":0,"detection":{"e0":null},'
        '"infrastructure_notified_total":0,"mean_delay_s":0.0,"messages_sent_total":0,'
        '"relevance_precision":null,"relevance_recall":null,"revisions_issued":0,'
        '"total_delay_s":0,"trips_abandoned":0,"trips_completed":0,"trips_in_progress":1,'
        '"trips_total":1,"warnings_issued":0}')


@pytest.mark.parametrize("true, est, latency", [
    (600.0, 1800.0, 600.0),  # detected at the true end, 750 s
    # detected at 750.2 s, before the estimated end (750.5 s), and issued at
    # 751 s = ceil(750.5), when the warning's window would be empty
    (1800.0, 600.5, 600.2),
], ids=["at-true-end", "issued-at-estimated-end"])
def test_a_late_detection_issues_no_warning_and_no_action(true, est, latency):
    raw = mini_scenario(true=true, est=est, latency=(latency, latency))
    result = run(load_scenario(raw))
    logs = logs_by_type(result)
    assert [r["event"] for r in logs["late_detection"]] == ["e0"]
    assert "warn" not in logs and "dissemination" not in logs
    assert result.warning_log == [] and result.action_log == []
    assert result.metrics.warnings_issued == result.metrics.actions_applied == 0
    assert result.metrics.detection["e0"]["latency"] == latency
    # One second earlier the warning goes out.
    early = run(load_scenario(mini_scenario(true=true, est=est,
                                            latency=(latency - 1, latency - 1))))
    assert "late_detection" not in logs_by_type(early)
    assert early.metrics.warnings_issued == 1


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
    assert sim.world.overlay.active_contributions() == []
    residuals = brute_force_residual_map(sim.world.overlay)
    assert residuals == {k: 1.0 for k in residuals}


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


def test_revision_reaches_the_actors_of_the_actions_planned_at_issue():
    """tv0 departs long after the event, so the tight horizon and radii
    leave it relevant only as the reroute's target, for both revisions."""
    raw = mini_scenario(est=600.0, true=1200.0, depart=5000.0)
    raw["policies"]["relevance"] = {
        "horizon": 60.0,
        "area_radius": dict.fromkeys(("critical", "major", "inferior", "minor"), 100.0),
    }
    result = run(load_scenario(raw))
    (action,) = [json.loads(line) for line in result.action_log]
    assert action["type"] == "reroute" and action["params"]["targets"] == ["tv0"]
    first, revision = result.records
    for record in (first, revision):
        assert record.notified == {"tv0"}
        assert record.reasons == {"adaptation-actor": 1}


def reserved_car_lane(raw):
    raw["network"]["segments"][1]["usage"][0]["reserved"] = True
    return raw


@pytest.mark.parametrize("make, outcome", [
    (lambda: mini_scenario(sources=False, est=600.0, true=1200.0), None),
    # the event spares the only (reserved) lane, so no mode is hit
    (lambda: reserved_car_lane(mini_scenario(est=600.0, true=1200.0)), "warning_suppressed"),
], ids=["undetected", "suppressed"])
def test_event_without_a_warning_writes_no_revision(make, outcome):
    result = run(load_scenario(make()))
    assert result.warning_log == [] and result.metrics.revisions_issued == 0
    kinds = logs_by_type(result)
    assert "warn" not in kinds and "dissemination" not in kinds
    assert (outcome in kinds) if outcome else ("detect" not in kinds)


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


def test_a_stream_at_rate_zero_spawns_nobody():
    """It loads, draws nothing and leaves every output as without it."""
    raw = mini_scenario()
    plain = run(load_scenario(raw))
    raw["demand"]["arrivals"] = [{
        "origin": "v0", "dest": "v2", "rate_per_hour": 0,
        "start": 0.0, "end": 3600.0, "prefs": {"allowed_modes": ["car"]}}]
    scenario = load_scenario(raw)
    assert scenario.arrivals[0].rate_per_hour == 0.0
    result = run(scenario)
    assert list(result.trips) == ["tv0"]
    assert run_outputs(result) == run_outputs(plain)


def test_stream_cap_counts_ev_multipliers():
    raw = mini_scenario(kind="EV", est=3600.0, true=3600.0, start=0.0)
    raw["demand"]["arrivals"] = [{
        "origin": "v0", "dest": "v1", "rate_per_hour": 10.0,
        "start": 0.0, "end": 3600.0, "prefs": {"allowed_modes": ["car"]}}]
    # another event's kind does not scale the stream
    raw["demand"]["ev_modifiers"] = [{"event_id": "other", "multiplier": 1e300}]
    load_scenario(raw)
    for multipliers in ([1e300], [1e200, 1e200]):
        raw["demand"]["ev_modifiers"] = [
            {"event_id": "e0", "multiplier": m, "nodes": ["v0"]} for m in multipliers]
        with pytest.raises(ValidationError, match="arrivals 0: the peak rate draws more than"):
            load_scenario(raw)


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


def test_ground_truth_seed_override_reuses_the_parse(monkeypatch):
    raw = demo_scenario()
    scenario = load_scenario(raw)
    raw["seed"] = scenario.seed + 1
    reloaded = load_scenario(raw)
    monkeypatch.setattr(scenario_module, "load_scenario",
                        lambda doc: pytest.fail("scenario parsed again"))
    for event in scenario.events:
        assert (ground_truth_affected(event, scenario.with_seed(raw["seed"]))
                == ground_truth_affected(event, reloaded))


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


@pytest.mark.parametrize("make", [
    demo_scenario,
    lambda: idle_obu_grid_scenario_dict(random.Random(1)),
], ids=["demo", "idle-1"])
def test_compare_equals_compare_with_a_fresh_fleet_per_run(make, monkeypatch):
    """Every run of compare shares the one fleet the load built, copying
    only its travelers' devices; the answer is the one runs on freshly
    loaded devices give."""
    text = json.dumps(make())
    shared = compare(load_scenario(json.loads(text)))

    class FreshFleet(simulation._Sim):
        def __init__(self, scenario, config):
            fleet = load_scenario(json.loads(text)).devices
            super().__init__(dataclasses.replace(scenario, devices=fleet), config)

    monkeypatch.setattr(simulation, "_Sim", FreshFleet)
    fresh = compare(load_scenario(json.loads(text)))
    assert json.dumps(shared.to_dict()) == json.dumps(fresh.to_dict())
    for label in ("no_adapt", "broadcast", "targeted"):
        assert (run_outputs(getattr(shared, label))
                == run_outputs(getattr(fresh, label))), label


def test_compare_no_disturbances_identical():
    raw = mini_scenario()
    raw["disturbances"] = []
    report = compare(load_scenario(raw))
    a, b, c = (json.loads(result.metrics_json())
               for result in (report.no_adapt, report.broadcast, report.targeted))
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
    raw = demo_scenario()
    # a stingy policy: no look-ahead to speak of, no area, no actors
    raw["policies"]["relevance"] = {
        "horizon": 1.0,
        "area_radius": {"critical": 1.0, "major": 1.0, "inferior": 1.0, "minor": 1.0},
        "include_adaptation_actors": False,
    }
    report = compare(load_scenario(raw))
    assert report.recall is not None and report.recall < 1.0


def test_total_delay_adds_trip_delays_in_traveler_order():
    """The same bits on every Python version: trip delays are added one by
    one in traveler id order, not by the compensated sum() of 3.12+."""
    checked = 0
    # Rail seeds 7, 13, 15, 26 and 29 give another last bit under sum() on 3.12.
    for seed in range(30):
        result = run(load_scenario(rail_line_scenario_dict(random.Random(seed))))
        total = 0
        for tid in sorted(result.trips):
            tv = result.trips[tid]
            if tv.status == "completed":
                total = total + ((tv.arrival - tv.depart) - (tv.baseline_cost or 0.0))
                checked += 1
        assert repr(result.metrics.total_delay_s) == repr(total)
    assert checked >= 100


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
        assert sim.world.overlay.active_contributions() == []
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


class HandlerStateSim(_Sim):
    """Asserts the traveler states ``handle_arrive`` and
    ``handle_retry_flagged`` rely on without checking, then delegates.

    A traveler has at most one pending ``arrive``, and while it is pending
    nothing changes its status (flags, patience and retries act only on
    waiting travelers).  It arrives either from a segment, its last
    traversal, which ends then at the node (its ``node`` is None on the
    way), or at the node it stands at, after a boarding wait or a
    transfer.  A flagged traveler was waiting, so it stands at a node, and
    the flag set it moving."""

    def __init__(self, scenario, config):
        super().__init__(scenario, config)
        self.seen = Counter()

    def handle_arrive(self, t, tv, node):
        assert tv.status == "moving", (t, tv.tid, tv.status)
        if tv.node is None:
            seg_id, _mode, _enter, exit_t = tv.traversals[-1]
            seg = self.net.segments[seg_id]
            assert exit_t == t and node in (seg.from_node, seg.to_node), (t, tv.tid, node)
            self.seen["arrive"] += 1
        else:
            assert node == tv.node, (t, tv.tid, node, tv.node)
            self.seen["arrive at the node"] += 1
        super().handle_arrive(t, tv, node)

    def handle_retry_flagged(self, t, tv):
        assert tv.status == "moving", (t, tv.tid, tv.status)
        assert tv.node is not None, (t, tv.tid)
        self.seen["retry_flagged"] += 1
        super().handle_retry_flagged(t, tv)


# (generator, seeds, whether a warning flags a waiting traveler on them:
# random seeds 120 and 190 and tie seeds 57 and 88 do)
@pytest.mark.parametrize("make, seeds, flags", [
    (random_scenario_dict, range(200), True),
    (tie_scenario_dict, range(100), True),
    (rail_line_scenario_dict, range(3), False),
    (idle_obu_grid_scenario_dict, range(3), False),
], ids=["random", "tie", "rail", "idle-obu"])
def test_arrivals_and_flagged_retries_find_the_states_they_rely_on(make, seeds, flags):
    seen = Counter()
    for seed in seeds:
        raw = make(random.Random(seed))
        for config in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
            sim = HandlerStateSim(load_scenario(raw), config)
            assert run_outputs(sim.run()) == run_outputs(run(load_scenario(raw), config))
            seen += sim.seen
    assert seen["arrive"] > 0
    assert (seen["retry_flagged"] > 0) == flags


def test_flows_equal_a_scan_of_every_traversal_in_runs():
    """Each ``flows`` call a replacement plan makes mid-run equals a scan of
    every traveler's traversals, anonymous travelers included, on rail
    lines broken by a D7 (a train line) or a D6 (the same line as metro),
    under flow windows short and long."""
    seen = Counter()
    for seed in range(12):
        rng = random.Random(seed)
        raw = rail_line_scenario_dict(rng)
        window = rng.choice([60.0, 600.0, 3600.0])
        raw["policies"]["defaults"]["flow_window"] = window
        if seed % 2:
            raw["network"]["modes"][2]["category"] = "metro"
            raw["disturbances"][0]["kind"] = "D6"
            raw["detection_sources"][0]["applicable_kinds"] = ["D6"]
        sim = _Sim(load_scenario(raw), MODE_TARGETED)

        def checked_flows(now, world=sim.world, flows=sim.world.flows, window=window,
                          kind=raw["disturbances"][0]["kind"]):
            got = flows(now)
            expected = brute_force_flows(world.travelers.values(), now, window)
            assert list(got.items()) == list(expected.items())
            entered = [(tv.device_id, enter) for tv in world.travelers.values()
                       for _seg, _mode, enter, _exit in tv.traversals]
            seen[kind] += bool(got)
            seen["anonymous"] += any(d is None and now - window < e <= now for d, e in entered)
            seen["before the window"] += any(e <= now - window for _d, e in entered)
            return got

        sim.world.flows = checked_flows
        assert run_outputs(sim.run()) == run_outputs(run(load_scenario(raw), MODE_TARGETED))
    assert min(seen[k] for k in ("D6", "D7", "anonymous", "before the window")) >= 2, seen


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
    ridden = [seg for seg, _mode, _enter, _exit in rider.traversals]
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


# -- log lines ---------------------------------------------------------------------------


LOG_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-7, -1e-7, 5e-7, 1e16, -1e16, 1e300,
                     float("nan"), float("inf"), float("-inf"), 0.1 + 0.2, 2.5e-6]),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Every code point, lone surrogates included; astral ones print as
# surrogate-pair escapes.
LOG_TEXT = st.one_of(
    st.text(alphabet=st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(["\U00010000", "a\U0001F600b", "\U0010FFFF", "\ud83d", "\ud83d\ude00",
                     "\x00\x1f\x7f\"\\", "\u2028\u2029", "t"]),
)
LOG_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), LOG_FLOATS, LOG_TEXT)
LOG_VALUES = st.recursive(
    LOG_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(LOG_TEXT, inner, max_size=4)),
    max_leaves=20,
)


# Finite floats: any, those near the edges of ``_num``'s "%.6f" range, and
# raw 64-bit patterns, which reach every exponent and subnormals.
FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-4, 1e9]).flatmap(lambda edge: st.floats(
        edge * 0.999999, edge * 1.000001)).flatmap(lambda x: st.sampled_from([x, -x])),
    st.sampled_from([1e-4, 1e9, math.nextafter(1e-4, 0.0), math.nextafter(1e9, 0.0),
                     999999999.9999995, 0.00010000049999999999, 0.0001000005, 0.5, 1.0,
                     -1e-4, -1e9, 123456.0000005, 0.1 + 0.2, 2.5e-6]),
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
    .filter(math.isfinite),
)


@settings(max_examples=2000, deadline=None)
@given(FINITE_FLOATS)
def test_num_prints_a_finite_float_as_repr_of_its_rounding(x):
    assert _num(x) == repr(round(x, 6))


@settings(max_examples=400, deadline=None)
@given(st.dictionaries(LOG_TEXT, LOG_VALUES, max_size=6))
def test_log_line_equals_dumps_of_the_rounded_copy(record):
    before = repr(record)
    assert _json(record) == json.dumps(brute_force_canon(record), separators=(",", ":"))
    assert repr(record) == before


@settings(max_examples=400, deadline=None)
@given(st.one_of(LOG_FLOATS, st.integers()),
       st.dictionaries(st.one_of(st.just("t"), LOG_TEXT), LOG_VALUES, max_size=6))
def test_event_log_line_equals_dumps_of_the_merged_record(t, record):
    """An event line is the record led by "t", as ``{"t": t, **record}``
    prints: a record's own "t" value takes the first place."""
    before = repr(record)
    sim = SimpleNamespace(event_log=[])
    _Sim.log(sim, t, record)
    expected = brute_force_canon({"t": t, **record})
    assert sim.event_log == [json.dumps(expected, separators=(",", ":"))]
    assert repr(record) == before


METRIC_IDS = st.one_of(LOG_TEXT, st.sampled_from(['e"1', "a\\b", "Zürich", "\U0001F68C-7",
                                                 "\ud83d", "e2", "e10"]))
# Detection entries as the simulator builds them, with their keys in both
# orders, or any small map.
DETECTION_ENTRIES = st.one_of(
    st.none(),
    st.fixed_dictionaries({"latency": LOG_FLOATS, "source": LOG_TEXT}),
    st.fixed_dictionaries({"source": LOG_TEXT, "latency": LOG_FLOATS}),
    st.dictionaries(METRIC_IDS, LOG_SCALARS, max_size=3),
)


def metric_values(f):
    """Values of one ``Metrics`` field; a float total may be the int 0."""
    if f.name == "detection":
        return st.dictionaries(METRIC_IDS, DETECTION_ENTRIES, max_size=5)
    if f.name.startswith("relevance_"):
        return st.one_of(st.none(), LOG_FLOATS)
    return st.one_of(LOG_FLOATS, st.just(0)) if f.type == "float" else st.integers()


METRICS = st.builds(Metrics, **{f.name: metric_values(f) for f in dataclasses.fields(Metrics)})


@settings(max_examples=400, deadline=None)
@given(METRICS)
def test_metrics_json_equals_sorted_dumps_of_the_rounded_copy(metrics):
    """``metrics.json`` is ``json.dumps`` of the rounded copy with every
    level's keys sorted."""
    result = RunResult(MODE_TARGETED, metrics, [], [], [], {}, [], set())
    before = repr(metrics)
    assert result.metrics_json() == json.dumps(
        brute_force_canon(dataclasses.asdict(metrics)), separators=(",", ":"), sort_keys=True)
    assert repr(metrics) == before


def test_signal_conflict_lines():
    """A later signal plan taking over an approach logs one event line per
    approach, the adaptation record led by "t", and no action line."""
    raw = demo_scenario()
    second = dict(raw["disturbances"][0], event_id="bridge-crash-b", start=900)
    raw["disturbances"].append(second)
    result = run(load_scenario(raw))
    assert [line for line in result.event_log if '"signal_conflict"' in line] == [
        '{"t":953,"type":"signal_conflict","approach":["n1","R1"],'
        '"overridden":"a-bridge-crash-3","winner":"a-bridge-crash-b-3"}',
        '{"t":953,"type":"signal_conflict","approach":["n1","R2"],'
        '"overridden":"a-bridge-crash-3","winner":"a-bridge-crash-b-3"}',
    ]
    assert not any("signal_conflict" in line for line in result.action_log)
    assert result.metrics.actions_applied == len(result.action_log) == 6


LOG_TIMES = st.one_of(LOG_FLOATS, st.integers())
LOG_IDS = st.one_of(LOG_TEXT, st.sampled_from(['tv"1', "a\\b", "n\x07\n\x1f", "Zürich",
                                              "\U0001F68C-7", '\\"\u00e9\U00010348']))


@settings(max_examples=400, deadline=None)
@given(LOG_TIMES, LOG_IDS, LOG_IDS, LOG_IDS, LOG_TIMES, LOG_TIMES)
def test_templated_event_lines_equal_the_generic_writer(t, traveler, origin, dest, x, y):
    """The spawn, trip_complete and replan templates print the bytes
    ``_json`` prints for the same record led by "t", and ``_Sim.log``
    keeps them."""
    cases = [
        (_spawn_line(t, traveler, origin, dest),
         {"type": "spawn", "traveler": traveler, "origin": origin, "dest": dest}),
        (_trip_complete_line(t, traveler, x, y),
         {"type": "trip_complete", "traveler": traveler, "depart": x, "delay": y}),
        (_replan_line(t, traveler, x),
         {"type": "replan", "traveler": traveler, "arrival_estimate": x}),
    ]
    sim = SimpleNamespace(event_log=[])
    for line, record in cases:
        assert line == _json({"t": t, **record})
        _Sim.log(sim, t, line)
    assert sim.event_log == [line for line, _record in cases]


# -- event order -------------------------------------------------------------------


def run_view(result) -> dict:
    """The bytes a run writes, plus every traveler's traversals."""
    return {**run_outputs(result),
            "traversals": {tid: tv.traversals for tid, tv in sorted(result.trips.items())}}


def mixed_ties(sim) -> int:
    """Consecutive entries a reference run served at one time, one made by
    setup and the other during the run."""
    return sum(t0 == t1 and (s0 < sim.setup_count) != (s1 < sim.setup_count)
               for (t0, s0), (t1, s1) in zip(sim.popped, sim.popped[1:]))


def test_run_serves_entries_in_single_heap_order():
    """``run`` merges setup's sorted list with the heap, orders entries by
    provenance key and handles some arrivals in place; one heap holding
    every entry, one per arrival, with a global counter for ties must give
    the same bytes, on scenarios built so that spawns, arrivals,
    injections and detections share seconds."""
    ties = 0
    for seed in range(30):
        raw = tie_scenario_dict(random.Random(91_000 + seed))
        for config in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
            reference = PerArrivalSim(load_scenario(raw), config)
            expected = reference.run()
            assert run_view(run(load_scenario(raw), config)) == run_view(expected)
            ties += mixed_ties(reference)
        got = compare(load_scenario(raw))
        with per_arrival_mode():
            expected = compare(load_scenario(raw))
        assert got.to_dict() == expected.to_dict()
        for name in ("no_adapt", "broadcast", "targeted"):
            assert run_view(getattr(got, name)) == run_view(getattr(expected, name))
    assert ties >= 60  # the generator does make setup and run-time entries tie
