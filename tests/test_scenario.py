import dataclasses
import json

import pytest

from mitsim.demo import demo_scenario
from mitsim.disturbance import affected_pairs
from mitsim.errors import ValidationError
from mitsim.scenario import Scenario, load_scenario, stream_rng
from mitsim.simulation import MODE_BROADCAST, MODE_NO_ADAPT, MODE_TARGETED, run

from generators import run_outputs


def edited(**changes):
    raw = demo_scenario()
    raw.update(changes)
    return raw


def test_demo_loads(demo):
    assert demo.seed == 42
    assert demo.end_time == 14400.0
    assert len(demo.pt_routes) == 4
    assert {r.route_id for r in demo.pt_routes} == {"Met1", "Tram1", "Bus1", "Rail1"}
    assert demo.topology.max_hops == 8


def test_missing_section_rejected():
    raw = demo_scenario()
    del raw["network"]
    with pytest.raises(ValidationError, match="network"):
        load_scenario(raw)


def test_seed_must_be_integer():
    with pytest.raises(ValidationError, match="seed"):
        load_scenario(edited(seed="not-a-seed"))


def test_event_after_end_time_rejected():
    raw = demo_scenario()
    raw["disturbances"][0]["start"] = 999999.0
    with pytest.raises(ValidationError, match="end_time"):
        load_scenario(raw)


def test_unknown_default_key_rejected():
    raw = demo_scenario()
    raw["policies"]["defaults"] = {"bogus_knob": 1}
    with pytest.raises(ValidationError, match="bogus_knob"):
        load_scenario(raw)


def test_duplicate_device_rejected():
    raw = demo_scenario()
    raw["devices"].append(dict(raw["devices"][0]))
    with pytest.raises(ValidationError, match="duplicate device"):
        load_scenario(raw)


def test_rsu_link_must_name_roadside_units():
    raw = demo_scenario()
    raw["policies"]["rsu_links"].append(["rsu_a", "veh1"])
    with pytest.raises(ValidationError, match="veh1"):
        load_scenario(raw)


def test_effect_matrix_override():
    raw = demo_scenario()
    raw["effect_matrix"] = {"D1": [["M3", "N3"]]}
    scenario = load_scenario(raw)
    assert affected_pairs("D1", scenario.matrix) == frozenset({("M3", "N3")})
    # untouched rows keep their documented defaults
    assert ("M8", "N6") in affected_pairs("D7", scenario.matrix)


def test_effect_matrix_override_validated():
    raw = demo_scenario()
    raw["effect_matrix"] = {"D1": [["M3", "N6"]]}  # cars on train rail
    with pytest.raises(ValidationError, match="usage matrix"):
        load_scenario(raw)


def test_shared_group_expansion_on_load():
    raw = demo_scenario()
    raw["disturbances"][0]["segments"] = ["R4"]  # shares the street with C1, T1
    scenario = load_scenario(raw)
    assert set(scenario.events[0].segments) == {"R4", "C1", "T1"}


def test_pt_route_segment_usability_checked():
    raw = demo_scenario()
    raw["policies"]["pt_routes"][0]["segments"] = ["R1"]  # metro on a road
    with pytest.raises(ValidationError, match="unusable"):
        load_scenario(raw)


def test_stream_rng_independent_streams():
    a = stream_rng(42, "detect:e1")
    b = stream_rng(42, "detect:e2")
    c = stream_rng(42, "detect:e1")
    seq_a = [a.random() for _ in range(5)]
    seq_b = [b.random() for _ in range(5)]
    seq_c = [c.random() for _ in range(5)]
    assert seq_a == seq_c
    assert seq_a != seq_b


def test_without_event_roundtrip(demo):
    trimmed = demo.without_event("bridge-crash")
    assert trimmed.events == ()
    assert len(trimmed.device_specs) == len(demo.device_specs)
    raw = demo_scenario()
    raw["disturbances"] = [e for e in raw["disturbances"] if e["event_id"] != "bridge-crash"]
    reloaded = load_scenario(raw)
    assert trimmed.net is demo.net
    for f in dataclasses.fields(Scenario):
        if f.name != "net":
            assert getattr(trimmed, f.name) == getattr(reloaded, f.name), f.name
    for config in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
        assert run_outputs(run(trimmed, config)) == run_outputs(run(reloaded, config))


def test_without_event_keeps_modifiers_of_the_removed_event():
    raw = demo_scenario()
    raw["demand"]["ev_modifiers"] = [
        {"event_id": "bridge-crash", "multiplier": 2.0, "nodes": ["a1"]}]
    trimmed = load_scenario(raw).without_event("bridge-crash")
    assert trimmed.events == ()
    assert load_scenario(trimmed.raw).ev_modifiers == trimmed.ev_modifiers


@pytest.mark.parametrize("modifier, message", [
    ({"multiplier": 2.0, "nodes": ["a1", "nowhere"]}, "ev_modifiers 0: unknown node nowhere"),
    ({"multiplier": -0.5}, "ev_modifiers 0: multiplier"),
    ({"multiplier": float("nan")}, "ev_modifiers 0: multiplier"),
    ({"multiplier": float("inf")}, "ev_modifiers 0: multiplier"),
])
def test_bad_ev_modifier_rejected(modifier, message):
    raw = demo_scenario()
    raw["demand"]["ev_modifiers"] = [{"event_id": "no-such-event", **modifier}]
    with pytest.raises(ValidationError, match=message):
        load_scenario(raw)


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_non_finite_arrival_rate_rejected(rate):
    raw = demo_scenario()
    raw["demand"]["arrivals"][0]["rate_per_hour"] = rate
    with pytest.raises(ValidationError, match="arrivals 0: rate must be finite"):
        load_scenario(raw)


def test_raw_scenario_json_serializable(demo):
    json.dumps(demo.raw)
