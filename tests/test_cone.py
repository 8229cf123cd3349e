"""Ground truth from each event's influence cone.

``compare`` finds the devices each event affected by re-simulating, per
event, only the travelers the targeted run saw the event could reach
(``mitsim.cone``, ``simulation.LeaveOneOut``).  These tests hold it to
full re-runs: every partial run gives the trips a full run without the
event gives, ``compare`` equals the all-oracle reference run byte for
byte, and each case that needs a full run is recognized.
"""

import json
import random

import pytest

from mitsim import dissemination
from mitsim.dissemination import distribute
from mitsim.scenario import load_scenario
from mitsim.simulation import (MODE_BROADCAST, MODE_NO_ADAPT, MODE_TARGETED, Diverged,
                               LeaveOneOut, compare, partial_trips, run)

from conftest import demo_scenario
from generators import (
    bus_grid_scenario_dict,
    idle_obu_grid_scenario_dict,
    rail_line_scenario_dict,
    random_scenario_dict,
    run_outputs,
    tie_scenario_dict,
)
from oracles import reference_mode
from test_simulation import mini_scenario

# name -> (scenario generator, seeds).  Every network has at most 16 nodes
# except the larger idle-OBU and bus grids.
GENERATORS = {
    "random": (random_scenario_dict, range(25)),
    "random-16": (lambda rng: random_scenario_dict(rng, max_nodes=16, max_events=4,
                                                   max_travelers=10), range(15)),
    "tie": (tie_scenario_dict, range(20)),
    "rail": (rail_line_scenario_dict, range(6)),
    "idle-4": (lambda rng: idle_obu_grid_scenario_dict(rng, 4), range(8)),
    "idle-5": (idle_obu_grid_scenario_dict, range(5)),
    "idle-6": (lambda rng: idle_obu_grid_scenario_dict(rng, 6), range(3)),
    "bus-4": (bus_grid_scenario_dict, range(6)),
    "bus-5": (lambda rng: bus_grid_scenario_dict(rng, 5, cavs=2), range(4)),
}


def scenarios(name):
    make, seeds = GENERATORS[name]
    return [make(random.Random(95_000 + seed)) for seed in seeds]


def trip_view(tv):
    return tv.status, tv.arrival, tv.traversals


def compare_outputs(raw) -> dict:
    """``compare.json`` and the output files of each run, as ``mitsim
    compare`` writes them."""
    report = compare(load_scenario(json.loads(json.dumps(raw))))
    out = {"compare.json": json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"}
    for name in ("no_adapt", "broadcast", "targeted"):
        for file, data in run_outputs(getattr(report, name)).items():
            out[f"{name}/{file}"] = data
    return out


def assert_compare_is_the_reference(raw):
    got = compare_outputs(raw)
    with reference_mode():
        expected = compare_outputs(raw)
    assert got == expected


def leave_one_out_outcomes(raw) -> list[str]:
    """Runs every event's partial leave-one-out run, whatever its cone's
    size, and checks its trips against a full run without the event: each
    cone traveler's trip is the full run's, and so is every other device
    traveler's targeted trip.  Returns ``"partial"`` or ``"diverged"`` per
    event."""
    scenario = load_scenario(raw)
    targeted = run(scenario)
    outcomes = []
    for event in scenario.events:
        cone = targeted.influence.cone(event.event_id, targeted.trips)
        try:
            partial = LeaveOneOut(scenario, event, cone, targeted.influence).run().trips
        except Diverged:
            outcomes.append("diverged")
            continue
        outcomes.append("partial")
        assert set(partial) == cone
        full = run(scenario.without_event(event.event_id)).trips
        for tid, tv in full.items():
            if tv.device_id is not None:
                kept = partial[tid] if tid in cone else targeted.trips[tid]
                assert trip_view(kept) == trip_view(tv), (event.event_id, tid)
    return outcomes


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_partial_leave_one_out_runs_equal_full_runs(name):
    seen = set()
    for raw in scenarios(name):
        seen.update(leave_one_out_outcomes(raw))
    assert "partial" in seen
    if name.startswith("bus"):
        assert "diverged" in seen


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_partial_runs_notify_the_cone_as_the_full_run_does(name, monkeypatch):
    """Each ``distribute`` call of a partial leave-one-out run notifies the
    cone devices the full run without the event notifies in that call: the
    same warnings, at the same times, in the same order."""
    calls = []

    def spy(w, *args):
        record = distribute(w, *args)
        calls.append((args[-1], w.warning_id, w.revision, record.notified))
        return record

    monkeypatch.setattr(dissemination, "distribute", spy)
    checked = notified = 0
    for raw in scenarios(name):
        scenario = load_scenario(raw)
        targeted = run(scenario)
        for event in scenario.events:
            cone = targeted.influence.cone(event.event_id, targeted.trips)
            calls.clear()
            try:
                LeaveOneOut(scenario, event, cone, targeted.influence).run()
            except Diverged:
                continue
            partial = list(calls)
            calls.clear()
            run(scenario.without_event(event.event_id))
            assert partial == [(t, wid, rev, got & cone) for t, wid, rev, got in calls]
            checked += len(partial)
            notified += sum(len(got) for *_, got in partial)
    if name != "rail":  # a rail scenario has one event: without it nothing is warned
        assert checked and notified


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_compare_equals_the_reference_run(name):
    for raw in scenarios(name):
        assert_compare_is_the_reference(raw)


def test_compare_on_the_demo_equals_the_reference_run():
    assert_compare_is_the_reference(demo_scenario())


def test_demo_events_run_partially(demo):
    targeted = run(demo)
    for event in demo.events:
        assert partial_trips(event, demo, targeted) is not None


# -- named cases: each reason a leave-one-out run must be a full one -------------------


def with_event(raw, **event):
    raw["disturbances"].append({"nodes": [], "severity": {"capacity_reduction": 1.0},
                                "specifics": {}, **event})
    return raw


def test_ev_modifier_naming_the_event_runs_in_full():
    raw = with_event(mini_scenario(), event_id="rally", kind="EV", segments=["s0"],
                     start=0.0, estimated_duration=3600.0, true_duration=3600.0)
    raw["demand"]["arrivals"] = [{"origin": "v0", "dest": "v2", "rate_per_hour": 20.0,
                                  "start": 0.0, "end": 3600.0,
                                  "prefs": {"allowed_modes": ["car"]}}]
    raw["demand"]["ev_modifiers"] = [{"event_id": "rally", "multiplier": 3.0}]
    scenario = load_scenario(raw)
    targeted = run(scenario)
    rally, = (e for e in scenario.events if e.event_id == "rally")
    assert partial_trips(rally, scenario, targeted) is None
    assert_compare_is_the_reference(raw)


def test_replacement_planned_from_flows_after_the_event_runs_in_full():
    """The train fault's replacement sizes its fleet from the flows every
    traveler made; without the road event those flows differ."""
    raw = rail_line_scenario_dict(random.Random(3))
    fault = raw["disturbances"][0]
    raw = with_event(raw, event_id="road", kind="D1", segments=["r1_0_1_1"],
                     start=fault["start"] - 200.0, estimated_duration=3600.0,
                     true_duration=3600.0)
    scenario = load_scenario(raw)
    targeted = run(scenario)
    fault_actions = targeted.influence.planned["train-fault"][2]
    assert any(type(a).__name__ == "ReplacementService" for a in fault_actions)
    road, = (e for e in scenario.events if e.event_id == "road")
    assert partial_trips(road, scenario, targeted) is None
    assert_compare_is_the_reference(raw)


def test_competing_diversions_for_one_cav_diverge():
    """Without the first event the second one's diversion gets the CAV."""
    raw = bus_grid_scenario_dict(random.Random(0))
    scenario = load_scenario(raw)
    targeted = run(scenario)
    first, second = scenario.events
    kinds = [type(a).__name__ for a in targeted.influence.planned[first.event_id][2]]
    assert "BusDiversion" in kinds
    cone = targeted.influence.cone(first.event_id, targeted.trips)
    with pytest.raises(Diverged):
        LeaveOneOut(scenario, first, cone, targeted.influence).run()
    assert partial_trips(first, scenario, targeted) is None
    assert partial_trips(second, scenario, targeted) is not None
    assert_compare_is_the_reference(raw)


def test_signal_plans_claiming_one_approach_run_in_full():
    """Both demo events end at n1, whose signal controller they both claim:
    the later plan takes the approaches over from the earlier one."""
    raw = with_event(demo_scenario(), event_id="second", kind="D1", segments=["R1"],
                     start=1200.0, estimated_duration=1800.0, true_duration=1800.0)
    scenario = load_scenario(raw)
    targeted = run(scenario)
    assert any('"type":"signal_conflict"' in line for line in targeted.event_log)
    assert targeted.influence.conflicts == {"bridge-crash", "second"}
    for event in scenario.events:
        assert partial_trips(event, scenario, targeted) is None
    assert_compare_is_the_reference(raw)


def test_event_id_extended_by_another_stays_partial():
    """``e0:x`` blocks s1 from 400 s to 4000 s; ``e0``, whose contribution
    ids ``e0:x``'s extend, ends at 750 s.  Removal is by exact owner, so
    tv0, reaching s1 at 900 s, waits for ``e0:x``'s end in every mode, and
    neither event needs a full run without it."""
    raw = with_event(mini_scenario(true=600.0, depart=800.0), event_id="e0:x", kind="D1",
                     segments=["s1"], start=400.0, estimated_duration=3600.0,
                     true_duration=3600.0)
    scenario = load_scenario(raw)
    for config in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
        tv0 = run(load_scenario(raw), config).trips["tv0"]
        assert tv0.traversals == [("s0", "car", 800.0, 900.0), ("s1", "car", 4000.0, 4100.0)]
    targeted = run(scenario)
    for event in scenario.events:
        assert partial_trips(event, scenario, targeted) is not None
    assert_compare_is_the_reference(raw)


# -- named cases: what the cone must hold ------------------------------------------------


def test_escalations_and_revisions_stay_partial():
    """A D3 that gets its registry details and a D4 that outlasts the
    extension threshold both escalate to D2 and revise their warnings."""
    raw = mini_scenario(kind="D3", block=0.5, true=2400.0, depart=100.0)
    raw["disturbances"][0]["specifics"] = {"details_at": 400.0, "registered_duration": 2400.0}
    raw = with_event(raw, event_id="e1", kind="D4", segments=["s0"], start=300.0,
                     estimated_duration=1200.0, true_duration=3000.0,
                     severity={"capacity_reduction": 0.5})
    raw["detection_sources"][0]["applicable_kinds"] = ["D3", "D4"]
    raw["policies"]["defaults"] = {"d4_extension_threshold": 600.0}
    raw["devices"].append({"device_id": "tv1", "role": "traveler-app",
                           "position": {"node": "v2"}, "comm_range": 1000.0,
                           "trip": {"origin": "v2", "dest": "v0", "depart": 350.0,
                                    "prefs": {"allowed_modes": ["car"]}}})
    scenario = load_scenario(raw)
    targeted = run(scenario)
    escalated = [json.loads(line)["event"] for line in targeted.event_log
                 if '"type":"escalation"' in line]
    assert sorted(escalated) == ["e0", "e1"]
    assert targeted.metrics.revisions_issued >= 1
    assert leave_one_out_outcomes(raw) == ["partial", "partial"]
    assert_compare_is_the_reference(raw)


def test_police_arrival_reaches_the_traveler_it_wakes():
    """tv0 waits at v1 behind a D8 blockage until the police arrive and
    floor s1's capacity; the wake is the D8 event's."""
    raw = mini_scenario(kind="D8", true=3000.0, est=3000.0)
    raw = with_event(raw, event_id="e1", kind="D1", segments=["s0"], start=4000.0,
                     estimated_duration=600.0, true_duration=600.0)
    raw["detection_sources"][0]["applicable_kinds"] = ["D8", "D1"]
    scenario = load_scenario(raw)
    targeted = run(scenario)
    lines = [json.loads(line) for line in targeted.event_log]
    blocked = [r["t"] for r in lines if r["type"] == "blocked" and r["traveler"] == "tv0"]
    police = next(a for a in targeted.influence.planned["e0"][2]
                  if type(a).__name__ == "PoliceNotification")
    arrival = police.activation + police.response_delay
    assert blocked and blocked[0] < arrival < scenario.events[0].true_end
    done = next(r["t"] for r in lines if r["type"] == "trip_complete")
    assert arrival < done < scenario.events[0].true_end
    assert "tv0" in targeted.influence.reached["e0"]
    assert leave_one_out_outcomes(raw) == ["partial", "partial"]
    assert_compare_is_the_reference(raw)
