import dataclasses
import json

import pytest

from mitsim.disturbance import affected_pairs
from mitsim.dissemination import DevicePosition, RelevancePolicy, RsuTopology
from mitsim.errors import ValidationError
from mitsim.scenario import (MAX_STREAM_ARRIVALS, Scenario, ev_rate_windows, load_scenario,
                             stream_rng)
from mitsim.simulation import (MODE_BROADCAST, MODE_NO_ADAPT, MODE_TARGETED, LeaveOneOut, _Sim,
                               compare, run)

from conftest import demo_scenario
from generators import run_outputs
from test_cone import GENERATORS, scenarios


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


@pytest.mark.parametrize("key, value, message", [
    ("patience", "abc", "policies.defaults: patience must be a number"),
    ("patience", "600", "patience must be a number"),
    ("patience", True, "patience must be a number"),
    ("patience", None, "patience must be a number"),
    ("patience", float("nan"), "policies.defaults: patience must be finite"),
    ("police_response_delay", float("inf"), "police_response_delay must be finite"),
    ("flow_window", float("-inf"), "flow_window must be finite"),
    ("flow_window", 10 ** 400, "flow_window must be finite"),
    ("flow_window", 0, "policies.defaults: flow_window must be > 0"),
    ("flow_window", -60, "policies.defaults: flow_window must be > 0"),
    ("replacement_vehicle_capacity", 0,
     "policies.defaults: replacement_vehicle_capacity must be > 0"),
    ("replacement_vehicle_capacity", -1.5,
     "policies.defaults: replacement_vehicle_capacity must be > 0"),
    ("signal_multiplier", float("nan"), r"signal_multiplier must be in \(0, 2\]"),
    ("signal_multiplier", -1, r"signal_multiplier must be in \(0, 2\]"),
    ("signal_multiplier", 0, r"signal_multiplier must be in \(0, 2\]"),
    ("signal_multiplier", 2.5, r"signal_multiplier must be in \(0, 2\]"),
    ("signal_multiplier", float("inf"), r"signal_multiplier must be in \(0, 2\]"),
])
def test_bad_default_value_rejected(key, value, message):
    raw = demo_scenario()
    raw["policies"]["defaults"] = {key: value}
    with pytest.raises(ValidationError, match=message):
        load_scenario(raw)


@pytest.mark.parametrize("key", ["transfer_penalty", "cav_capacity"])
def test_unread_default_keys_are_unknown(key):
    raw = demo_scenario()
    raw["policies"]["defaults"] = {key: 1.0}
    with pytest.raises(ValidationError, match=f"unknown key '{key}'"):
        load_scenario(raw)


def test_numeric_defaults_load_as_floats():
    raw = demo_scenario()
    raw["policies"]["defaults"] = {"signal_multiplier": 2, "patience": 0}
    defaults = load_scenario(raw).defaults
    assert defaults.signal_multiplier == 2.0 and isinstance(defaults.signal_multiplier, float)
    assert defaults.patience == 0.0


def test_duplicate_device_rejected():
    raw = demo_scenario()
    raw["devices"].append(dict(raw["devices"][0]))
    with pytest.raises(ValidationError, match="duplicate device"):
        load_scenario(raw)


def place_rsu_a(raw, offset):
    rsu_a = next(d for d in raw["devices"] if d["device_id"] == "rsu_a")
    rsu_a["position"] = {"segment": "R1", "offset": offset}  # R1 is 2000 m long


def test_position_offset_beyond_its_segment_rejected():
    raw = demo_scenario()
    place_rsu_a(raw, 2000.5)
    with pytest.raises(ValidationError, match=r"^device rsu_a: position offset 2000.5 "
                                              r"is beyond segment R1 \(2000.0 m\)$"):
        load_scenario(raw)
    place_rsu_a(raw, 2000)
    (rsu_a,) = [d for d in load_scenario(raw).devices if d.device_id == "rsu_a"]
    assert rsu_a.position == DevicePosition(segment="R1", offset=2000.0)


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


def test_strategy_table_override_plans_only_its_row():
    raw = demo_scenario()
    raw["policies"]["strategy_table"] = {"D1": ["reroute"]}
    scenario = load_scenario(raw)
    assert scenario.strategy_table["D1"] == ("reroute",)
    # untouched rows keep their defaults
    assert scenario.strategy_table["D6"] == ("stop_guidance", "replacement", "reroute")
    types = [json.loads(line)["type"] for line in run(scenario, MODE_TARGETED).action_log]
    assert types == ["reroute"]
    # the default D1 row plans more than a reroute on the demo
    default = run(load_scenario(demo_scenario()), MODE_TARGETED).action_log
    assert len({json.loads(line)["type"] for line in default}) > 1


@pytest.mark.parametrize("template", ["no_such_template", ["reroute"], 5],
                         ids=["unknown", "list", "int"])
def test_strategy_table_unknown_template_rejected(template):
    raw = demo_scenario()
    raw["policies"]["strategy_table"] = {"D1": ["reroute", template]}
    with pytest.raises(ValidationError) as err:
        load_scenario(raw)
    assert str(err.value) == f"strategy table D1: unknown template {template!r}"


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


def _bus1(raw):
    return next(r for r in raw["policies"]["pt_routes"] if r["route_id"] == "Bus1")


# A bus diversion walks a route's segments from its first stop, so a route
# whose segments do not chain from there is rejected at load, not mid-run.
@pytest.mark.parametrize("edit, message", [
    (lambda route: route.update(segments=["R2", "R1", "R3"]),
     "pt route Bus1: segments not contiguous"),
    (lambda route: route["stops"].reverse(), "pt route Bus1: segments not contiguous"),
    (lambda route: route.update(stops=[]), "pt route Bus1: no stops"),
], ids=["segments-reordered", "stops-reversed", "no-stops"])
def test_pt_route_must_chain_from_its_first_stop(edit, message):
    raw = demo_scenario()
    edit(_bus1(raw))
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_scenario(raw)


def _with_entry(section, entry):
    """An edit that appends ``entry`` to the demand list ``section``."""
    return lambda raw: raw["demand"][section].append(dict(entry))


# Every required key of every entry outside the network section: entry ->
# (an edit that adds the entry, or None; the entry in the edited document;
# the entry's name in the error; its required keys).  The demo has no trip
# and no modifier, so those edits add one.
REQUIRED_KEYS = {
    "trip": (_with_entry("trips", {"origin": "a1", "dest": "b1", "depart": 0.0}),
             lambda raw: raw["demand"]["trips"][0], "demand trip 0",
             ("origin", "dest", "depart")),
    "arrivals": (None, lambda raw: raw["demand"]["arrivals"][0], "demand arrivals 0",
                 ("origin", "dest", "rate_per_hour")),
    "ev-modifier": (_with_entry("ev_modifiers", {"event_id": "bridge-crash", "multiplier": 2.0}),
                    lambda raw: raw["demand"]["ev_modifiers"][0], "demand ev_modifiers 0",
                    ("event_id", "multiplier")),
    "disturbance-id": (None, lambda raw: raw["disturbances"][0], "disturbance 0",
                       ("event_id",)),
    "disturbance": (None, lambda raw: raw["disturbances"][0], "event bridge-crash",
                    ("kind", "start", "estimated_duration")),
    "detection-source": (None, lambda raw: raw["detection_sources"][0], "detection source 0",
                         ("source_kind", "applicable_kinds", "detect_probability")),
    "device": (None, lambda raw: _device(raw, "veh1"), "device veh1", ("role",)),
    "device-trip": (None, lambda raw: _device(raw, "veh1")["trip"], "device veh1 trip",
                    ("origin", "dest", "depart")),
    "pt-route-id": (None, lambda raw: raw["policies"]["pt_routes"][0], "pt route 0",
                    ("route_id",)),
    "pt-route": (None, _bus1, "pt route Bus1", ("mode_id", "segments", "stops")),
}
MISSING_KEY_CASES = [(entry, key) for entry, (*_, keys) in REQUIRED_KEYS.items()
                     for key in keys]


@pytest.mark.parametrize("entry, key", MISSING_KEY_CASES,
                         ids=[f"{entry}-{key}" for entry, key in MISSING_KEY_CASES])
def test_missing_required_key_rejected_naming_the_entry(entry, key):
    add, find, name, _keys = REQUIRED_KEYS[entry]
    raw = demo_scenario()
    if add is not None:
        add(raw)
    del find(raw)[key]
    with pytest.raises(ValidationError, match=f"^{name}: missing field '{key}'$"):
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
    assert [m.event_id for m in trimmed.ev_modifiers] == ["bridge-crash"]


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


@pytest.mark.parametrize("field, value, message", [
    ("start", float("nan"), "arrivals 0: start must be finite"),
    ("start", float("-inf"), "arrivals 0: start must be finite"),
    ("start", float("inf"), "arrivals 0: start must be finite"),
    ("start", -1e20, "arrivals 0: start must be finite and >= 0"),
    ("start", -1.0, "arrivals 0: start must be finite and >= 0"),
    ("end", float("nan"), "arrivals 0: end must be a number"),
])
def test_non_finite_arrival_window_rejected(field, value, message):
    raw = demo_scenario()
    raw["demand"]["arrivals"][0][field] = value
    with pytest.raises(ValidationError, match=message):
        load_scenario(raw)


@pytest.mark.parametrize("rate, end, end_time", [
    (1e300, 3600.0, 14400.0),
    (MAX_STREAM_ARRIVALS + 1.0, 3600.0, 14400.0),
    (MAX_STREAM_ARRIVALS, 3600.0 + 1e-6, 14400.0),
    (6.0, float("inf"), 1e30),
])
def test_stream_drawing_too_many_arrivals_rejected(rate, end, end_time):
    raw = demo_scenario()
    raw["end_time"] = end_time
    raw["demand"]["arrivals"][0].update(rate_per_hour=rate, end=end)
    with pytest.raises(ValidationError, match="arrivals 0: the peak rate draws more than"):
        load_scenario(raw)


def test_rate_that_is_zero_per_second_rejected():
    raw = demo_scenario()
    raw["demand"]["arrivals"][0]["rate_per_hour"] = 1e-321
    with pytest.raises(ValidationError, match="arrivals 0: rate is 0 per second"):
        load_scenario(raw)


def test_stream_at_the_cap_loads():
    raw = demo_scenario()
    raw["demand"]["arrivals"][0].update(rate_per_hour=MAX_STREAM_ARRIVALS, end=3600.0)
    assert load_scenario(raw).arrivals[0].rate_per_hour == MAX_STREAM_ARRIVALS


def test_late_stream_on_a_large_clock_ends():
    """A stream at the cap near a clock where one step is 0.125 s: its
    draws stay in the window and the run ends."""
    raw = demo_scenario()
    end_time = 1e15
    raw["end_time"] = end_time
    raw["demand"]["arrivals"][0].update(
        rate_per_hour=MAX_STREAM_ARRIVALS * 3600.0 / end_time,
        start=end_time - 1e10, end=float("inf"))
    result = run(load_scenario(raw))
    departs = [tv.depart for tid, tv in result.trips.items() if tid.startswith("arr0-")]
    assert departs
    assert all(end_time - 1e10 < d < end_time for d in departs)


def test_nan_end_time_rejected():
    raw = demo_scenario()
    raw["end_time"] = float("nan")
    with pytest.raises(ValidationError, match="end_time must be > 0"):
        load_scenario(raw)


def test_unbounded_arrival_window_end_runs_to_end_time():
    raw = demo_scenario()
    raw["demand"]["arrivals"][0]["end"] = float("inf")
    result = run(load_scenario(raw))
    stream = [tid for tid in result.trips if tid.startswith("arr0-")]
    assert stream
    assert all(tv.depart < raw["end_time"] for tid, tv in result.trips.items()
               if tid in stream)


def test_with_seed_equals_a_load_under_that_seed(demo):
    raw = demo_scenario()
    raw["seed"] = 7
    reseeded = demo.with_seed(7)
    assert reseeded.net is demo.net
    assert demo.seed != 7
    loaded = load_scenario(raw)
    for f in dataclasses.fields(Scenario):
        if f.name != "net":
            assert getattr(reseeded, f.name) == getattr(loaded, f.name), f.name
    for mode in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
        assert run_outputs(run(reseeded, mode)) == run_outputs(run(loaded, mode))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        demo.with_seed(7.0)


def _device_trip_prefs(raw, **prefs):
    # a copy: the demo's device trips and arrival streams share one prefs dict
    trip = next(d["trip"] for d in raw["devices"] if d["device_id"] == "veh1")
    trip["prefs"] = {**trip["prefs"], **prefs}


def _multimodal_transfer(raw, value):
    raw["network"]["multimodal_nodes"][0]["transfer_time"] = {"M1,M2": value}


def _defaults(raw, **values):
    raw["policies"]["defaults"] = values


def _headway(raw, value):
    raw["policies"]["pt_routes"][0]["headway"] = value


def _default_headway_only(raw, value):
    del raw["policies"]["pt_routes"][0]["headway"]
    raw["policies"]["defaults"] = {"default_headway": value}


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("edit, message", [
    (lambda raw: _device_trip_prefs(raw, transfer_penalty=-600),
     "device veh1 trip: routing preferences: transfer_penalty must be >= 0"),
    (lambda raw: _device_trip_prefs(raw, transfer_penalty=NAN), "veh1 trip: .*transfer_penalty"),
    (lambda raw: _device_trip_prefs(raw, max_walk=NAN), "veh1 trip: .*max_walk must be >= 0"),
    (lambda raw: _device_trip_prefs(raw, max_walk=-1.0), "veh1 trip: .*max_walk must be >= 0"),
    (lambda raw: raw["demand"]["arrivals"][0].update(prefs={"transfer_penalty": -1}),
     "demand arrivals 0: .*transfer_penalty must be >= 0"),
    (lambda raw: raw["demand"]["trips"].append(
        {"origin": "a1", "dest": "b1", "depart": 0, "prefs": {"transfer_penalty": -1}}),
     "demand trip 0: .*transfer_penalty must be >= 0"),
    (lambda raw: raw["network"].update(transfer_time_default=-1.0),
     "transfer_time_default must be >= 0"),
    (lambda raw: raw["network"].update(transfer_time_default=NAN),
     "transfer_time_default must be >= 0"),
    (lambda raw: _multimodal_transfer(raw, -5.0),
     r"multimodal node a1: transfer time \(M1 -> M2\) must be >= 0"),
    (lambda raw: _multimodal_transfer(raw, NAN), r"node a1: transfer time \(M1 -> M2\)"),
    (lambda raw: _headway(raw, 0), "pt route Met1: headway must be > 0"),
    (lambda raw: _headway(raw, -600), "pt route Met1: headway must be > 0"),
    (lambda raw: _headway(raw, NAN), "pt route Met1: headway must be > 0"),
    (lambda raw: _default_headway_only(raw, 0.0), "pt route Met1: headway must be > 0"),
    (lambda raw: _defaults(raw, default_headway=-1.0),
     "policies.defaults: default_headway must be >= 0"),
    (lambda raw: _defaults(raw, default_headway=NAN), "default_headway must be >= 0"),
    (lambda raw: _defaults(raw, cav_boarding_wait=-1.0),
     "policies.defaults: cav_boarding_wait must be >= 0"),
    (lambda raw: _defaults(raw, cav_boarding_wait=NAN), "cav_boarding_wait must be >= 0"),
])
def test_costs_that_break_shortest_paths_rejected(edit, message):
    """Negative or NaN transfer penalties, walk limits, transfer times,
    headways and boarding waits: one negative transfer at a node is a
    negative cycle, and the route search would never settle."""
    raw = demo_scenario()
    edit(raw)
    with pytest.raises(ValidationError, match=message):
        load_scenario(raw)


def test_zero_costs_and_an_unbounded_walk_load():
    raw = demo_scenario()
    _device_trip_prefs(raw, transfer_penalty=0, max_walk=float("inf"))
    _multimodal_transfer(raw, 0.0)
    raw["network"]["transfer_time_default"] = 0.0
    raw["policies"]["defaults"] = {"cav_boarding_wait": 0.0, "default_headway": 0.0}
    load_scenario(raw)


def _device(raw, device_id):
    return next(d for d in raw["devices"] if d["device_id"] == device_id)


def _segment(raw):
    return next(s for s in raw["network"]["segments"] if s["segment_id"] == "R1")


NUMBER_FIELDS = {
    "end_time": (lambda raw, v: raw.update(end_time=v), "scenario: end_time"),
    "segment length": (lambda raw, v: _segment(raw).update(length=v), "segment R1: length"),
    "usage free_flow_time": (lambda raw, v: _segment(raw)["usage"][0].update(free_flow_time=v),
                             "segment R1: usage free_flow_time"),
    "transfer time": (_multimodal_transfer, "node a1: transfer_time"),
    "trip depart": (lambda raw, v: raw["demand"]["trips"].append(
        {"origin": "a1", "dest": "b1", "depart": v}), "demand trip 0: depart"),
    "device trip depart": (lambda raw, v: _device(raw, "veh1")["trip"].update(depart=v),
                           "device veh1: trip depart"),
    "trip max_walk": (lambda raw, v: _device_trip_prefs(raw, max_walk=v),
                      "device veh1 trip: max_walk"),
    "arrival rate": (lambda raw, v: raw["demand"]["arrivals"][0].update(rate_per_hour=v),
                     "demand arrivals 0: rate_per_hour"),
    "event start": (lambda raw, v: raw["disturbances"][0].update(start=v),
                    "event bridge-crash: start"),
    "comm_range": (lambda raw, v: _device(raw, "rsu_a").update(comm_range=v),
                   "device rsu_a: comm_range"),
    "detect_probability": (lambda raw, v: raw["detection_sources"][0].update(
        detect_probability=v), "detection source 0: detect_probability"),
    "area radius": (lambda raw, v: raw["policies"]["relevance"]["area_radius"].update(major=v),
                    "policies.relevance: area_radius major"),
    "headway": (_headway, "pt route Met1: headway"),
    "details_at": (lambda raw, v: raw["disturbances"][0].update(
        kind="D3", specifics={"details_at": v}), "event bridge-crash: details_at"),
    "registered_duration": (lambda raw, v: raw["disturbances"][0].update(
        kind="D3", specifics={"registered_duration": v}),
        "event bridge-crash: registered_duration"),
}


@pytest.mark.parametrize("value, problem", [
    ("abc", "must be a number"),
    ("inf", "must be a number"),  # float() would read it as infinity
    (True, "must be a number"),  # float() would read it as 1.0
    (None, "must be a number"),
    ([1], "must be a number"),
    (10 ** 400, "is too large"),  # a JSON integer beyond every float
], ids=["string", "inf-string", "bool", "null", "list", "huge-int"])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_non_number_rejected_naming_the_entry(field, value, problem):
    edit, entry = NUMBER_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    with pytest.raises(ValidationError, match=f"^{entry} {problem}$"):
        load_scenario(raw)


# Each flag maps to (edit, the entry and key its error names).  Non-agile
# categories are checked too, so the agile case edits the car mode.
BOOL_FIELDS = {
    "agile": (lambda raw, v: raw["network"]["modes"][2].update(agile=v), "mode M3: agile"),
    "maas_member": (lambda raw, v: raw["network"]["modes"][2].update(maas_member=v),
                    "mode M3: maas_member"),
    "reserved": (lambda raw, v: _segment(raw)["usage"][0].update(reserved=v),
                 "segment R1: usage reserved"),
    "priority": (lambda raw, v: raw["policies"]["pt_routes"][0].update(priority=v),
                 "pt route Met1: priority"),
    "include_adaptation_actors": (
        lambda raw, v: raw["policies"]["relevance"].update(include_adaptation_actors=v),
        "policies.relevance: include_adaptation_actors"),
    "effect_matrix_tram_crossing": (
        lambda raw, v: raw.update(effect_matrix_tram_crossing=v),
        "scenario: effect_matrix_tram_crossing"),
    "reserved_lane_hit": (
        lambda raw, v: raw["disturbances"][0].update(specifics={"reserved_lane_hit": v}),
        "event bridge-crash: reserved_lane_hit"),
}


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None],
                         ids=["string-false", "string-no", "zero", "one", "null"])
@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_non_boolean_flag_rejected_naming_the_entry(field, value):
    """A flag read by truthiness would turn on for the string "false"."""
    edit, entry = BOOL_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    with pytest.raises(ValidationError, match=f"^{entry} must be true or false$"):
        load_scenario(raw)


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_boolean_flags_load_as_given(field):
    for value in (True, False):
        raw = demo_scenario()
        BOOL_FIELDS[field][0](raw, value)
        load_scenario(raw)


def _severity(raw, **fields):
    raw["disturbances"][0]["severity"] = fields


def _number(field):
    """The NUMBER_FIELDS edit of ``field``, setting NaN."""
    return lambda raw: NUMBER_FIELDS[field][0](raw, NAN)


# Every comparison with NaN is false, so a check written `x <= 0` lets NaN
# through; each check these inputs reach is written to reject it.  Each
# case maps to (edit, the start of the error text).
NAN_CASES = {
    "segment length": (_number("segment length"), "segment R1: length must be > 0"),
    "usage free_flow_time": (_number("usage free_flow_time"),
                             "segment R1: capacity and free-flow time must be > 0 for mode"),
    "usage base_capacity": (lambda raw: _segment(raw)["usage"][0].update(base_capacity=NAN),
                            "segment R1: capacity and free-flow time must be > 0 for mode"),
    "trip depart": (_number("trip depart"), "demand trip 0: depart outside [0, end_time)"),
    "device trip depart": (_number("device trip depart"),
                           "device veh1: trip depart outside [0, end_time)"),
    "event start": (_number("event start"), "event bridge-crash: start must be >= 0"),
    "estimated_duration": (lambda raw: raw["disturbances"][0].update(estimated_duration=NAN),
                           "event bridge-crash: durations must be > 0"),
    "true_duration": (lambda raw: raw["disturbances"][0].update(true_duration=NAN),
                      "event bridge-crash: durations must be > 0"),
    "displaced_volume": (lambda raw: _severity(raw, displaced_volume=NAN),
                         "severity measure: displaced_volume must be >= 0"),
    "comm_range": (_number("comm_range"), "device rsu_a: negative comm range"),
    "horizon": (lambda raw: raw["policies"]["relevance"].update(horizon=NAN),
                "relevance horizon must be > 0"),
    "area radius critical": (
        lambda raw: raw["policies"]["relevance"]["area_radius"].update(critical=NAN),
        "area radii must not increase toward lower classes"),
    "seed true": (lambda raw: raw.update(seed=True), "scenario: seed must be an integer"),
    "details_at": (_number("details_at"), "event bridge-crash: details_at must be >= 0"),
    "position offset": (
        lambda raw: _device(raw, "rsu_a").update(position={"segment": "R1", "offset": NAN}),
        "device rsu_a: position offset must be >= 0"),
    # A lone ETA has no neighbour to compare with.
    "planned_route time": (lambda raw: _device(raw, "veh1").update(planned_route=[["R1", NAN]]),
                           "device veh1: planned route ETAs must increase"),
}


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_nan_and_a_bool_seed_rejected_naming_the_entry(case):
    edit, text = NAN_CASES[case]
    raw = demo_scenario()
    edit(raw)
    with pytest.raises(ValidationError) as err:
        load_scenario(raw)
    assert str(err.value).startswith(text)


def _far_event(raw, duration):
    """The demo's event at t = 1e308 on a clock that reaches it."""
    raw["end_time"] = 1.7e308
    raw["disturbances"][0].update(start=1e308, estimated_duration=duration,
                                  true_duration=duration)


def _detected_after_overflow(raw):
    _far_event(raw, 1e307)
    for source in raw["detection_sources"]:
        source.update(latency_min=1e308, latency_max=1e308)


def _first_event(**fields):
    return lambda raw: raw["disturbances"][0].update(**fields)


# A run turns each event end and detection time into whole clock seconds,
# which it cannot do for infinity or NaN.  Each case maps to (edit, the
# error text).
NON_FINITE_CASES = {
    "estimated_duration": (_first_event(estimated_duration=INF),
                           "event bridge-crash: durations must be finite"),
    "true_duration": (_first_event(true_duration=INF),
                      "event bridge-crash: durations must be finite"),
    "registered_duration": (
        _first_event(kind="D3", specifics={"details_at": 700, "registered_duration": INF}),
        "event bridge-crash: durations must be finite"),
    "latency": (lambda raw: raw["detection_sources"][0].update(latency_min=INF,
                                                                latency_max=INF),
                "source cits-v2i: latency must be finite"),
    "end overflow": (lambda raw: _far_event(raw, 1e308),
                     "event bridge-crash: end time is not finite"),
    "detection overflow": (_detected_after_overflow,
                           "detection source 0: detection time of event bridge-crash "
                           "is not finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_a_time_that_is_not_finite_rejected_naming_the_entry(case):
    edit, text = NON_FINITE_CASES[case]
    raw = demo_scenario()
    edit(raw)
    with pytest.raises(ValidationError) as err:
        load_scenario(raw)
    assert str(err.value) == text


INTEGER_FIELDS = {
    "trip count": (lambda raw, v: raw["demand"]["trips"].append(
        {"origin": "a1", "dest": "b1", "depart": 0.0, "count": v}), "demand trip 0: count",
        lambda scenario: scenario.trips[0].count),
    "lanes_affected": (lambda raw, v: _severity(raw, lanes_affected=v),
                       "event bridge-crash: severity lanes_affected",
                       lambda scenario: scenario.events[0].severity.lanes_affected),
    "severity_index": (lambda raw, v: _severity(raw, severity_index=v),
                       "event bridge-crash: severity severity_index",
                       lambda scenario: scenario.events[0].severity.severity_index),
    "max_hops": (lambda raw, v: raw["policies"].update(max_hops=v), "policies: max_hops",
                 lambda scenario: scenario.topology.max_hops),
}


# "3", True and 2.7 are what int() would read as 3, 1 and 2.
@pytest.mark.parametrize("value", ["two", "3", True, 2.7, None, [1], {}, float("inf"),
                                   float("nan")],
                         ids=["string", "digits", "bool", "fraction", "null", "list", "object",
                              "inf", "nan"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_non_integer_rejected_naming_the_entry(field, value):
    edit, entry, _read = INTEGER_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    with pytest.raises(ValidationError, match=f"^{entry} must be an integer$"):
        load_scenario(raw)


@pytest.mark.parametrize("value, loaded", [(3, 3), (3.0, 3)], ids=["int", "float"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_accepted_integer_values_load_as_int_reads_them(field, value, loaded):
    """A JSON integer, or a float with no fraction, loads as that int."""
    edit, _entry, read = INTEGER_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    assert read(load_scenario(raw)) == loaded


@pytest.mark.parametrize("value", [float("nan"), 0, -5], ids=["nan", "zero", "negative"])
def test_registered_duration_must_be_positive(value):
    raw = demo_scenario()
    raw["disturbances"][0].update(kind="D3", specifics={"registered_duration": value})
    with pytest.raises(ValidationError,
                       match="^event bridge-crash: registered_duration must be > 0$"):
        load_scenario(raw)


def test_registered_duration_is_read_once_at_load():
    raw = demo_scenario()
    raw["disturbances"][0].update(kind="D3", specifics={"registered_duration": 900})
    event = load_scenario(raw).events[0]
    assert event.registered_duration == 900.0 and isinstance(event.registered_duration, float)
    assert event.specifics == {"registered_duration": 900}
    assert load_scenario(demo_scenario()).events[0].registered_duration is None


def test_details_at_is_read_once_at_load():
    raw = demo_scenario()
    raw["disturbances"][0].update(kind="D3", specifics={"details_at": 700})
    event = load_scenario(raw).events[0]
    assert event.details_at == 700.0 and isinstance(event.details_at, float)
    assert event.specifics == {"details_at": 700}  # warnings carry the value as given
    assert load_scenario(demo_scenario()).events[0].details_at is None


def _device(raw, device_id):
    return next(d for d in raw["devices"] if d["device_id"] == device_id)


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["demand"]["arrivals"][0].update(rate_per_hour=-1.0),
     "demand arrivals 0: negative rate"),
    (lambda raw: _device(raw, "veh1").update(planned_route=[["R1"]]),
     r"device veh1: planned_route steps must be \[segment, eta\] pairs"),
    (lambda raw: _device(raw, "sd_n1").update(trip={"origin": "a1", "dest": "b1", "depart": 0}),
     "device sd_n1: only mobile devices carry trips"),
    (lambda raw: raw.update(effect_matrix={"D99": []}), "effect matrix: unknown kind 'D99'"),
    (lambda raw: raw["disturbances"][0]["severity"].update(lanes_affected=-1),
     "severity measure: lanes_affected must be >= 0"),
    (lambda raw: raw["disturbances"][0]["severity"].update(severity_index=0),
     r"severity measure: severity_index must be in 1\.\.5"),
    (lambda raw: raw["disturbances"][0]["severity"].update(severity_index=6),
     r"severity measure: severity_index must be in 1\.\.5"),
], ids=["negative-rate", "route-step-no-pair", "trip-on-display", "matrix-kind",
        "negative-lanes", "severity-index-0", "severity-index-6"])
def test_a_value_the_load_checks_is_rejected(edit, message):
    raw = demo_scenario()
    edit(raw)
    with pytest.raises(ValidationError, match=message):
        load_scenario(raw)


def test_an_idle_cav_on_a_segment_waits_at_its_end():
    raw = demo_scenario()
    _device(raw, "cav2")["position"] = {"segment": "R1", "offset": 10.0}
    scenario = load_scenario(raw)
    assert scenario.build_world().cavs["cav2"].node == scenario.net.segments["R1"].to_node


def test_an_ev_modifier_applies_to_streams_from_or_to_its_nodes():
    windows = {}
    for nodes in (["a1"], ["b1"], ["h2"], []):
        raw = demo_scenario()
        raw["disturbances"].append({
            "event_id": "rally", "kind": "EV", "segments": ["R1"], "nodes": [], "start": 0,
            "estimated_duration": 600, "true_duration": 600,
            "severity": {"capacity_reduction": 0.1}, "specifics": {}})
        raw["demand"]["ev_modifiers"] = [{"event_id": "rally", "multiplier": 2.0,
                                          "nodes": nodes}]
        scenario = load_scenario(raw)
        events = {e.event_id: e for e in scenario.events}
        windows[tuple(nodes)] = ev_rate_windows(scenario.arrivals[0], scenario.ev_modifiers,
                                                events)
    # The demo's one stream runs from a1 to b1.
    assert windows[()] == windows[("a1",)] == windows[("b1",)] == ([(0.0, 600.0, 2.0)], 12.0)
    assert windows[("h2",)] == ([], 6.0)


def test_a_cav_with_its_own_trip_is_not_in_the_idle_fleet():
    raw = demo_scenario()
    cav1 = next(d for d in raw["devices"] if d["device_id"] == "cav1")
    cav1["trip"] = {"origin": "h1", "dest": "b1", "depart": 300}
    world = load_scenario(raw).build_world()
    assert sorted(world.cavs) == ["cav2", "cav3"]
    assert world.cavs["cav2"].node == "h2" and world.cavs["cav2"].available


def test_a_world_shares_the_loaded_fleet_and_a_run_copies_its_travelers_devices(demo):
    a, b = demo.build_world().devices, demo.build_world().devices
    assert a is not b
    assert list(a) == list(b) == [d.device_id for d in demo.devices]
    for template in demo.devices:
        assert a[template.device_id] is template is b[template.device_id]
    carried = {trip.device_id for trip in demo.device_trips}
    assert carried and carried < set(a)
    sim = _Sim(demo, MODE_TARGETED)
    sim.setup()
    assert sim.fleet is sim.world.devices
    for template in demo.devices:
        own = sim.world.devices[template.device_id]
        assert (own is not template) == (template.device_id in carried)
        assert (own.device_id, own.role, own.comm_range) == (
            template.device_id, template.role, template.comm_range)
    # A partial run copies its cone's devices alone, and disseminates to those copies.
    targeted = run(demo)
    event = demo.events[0]
    cone = targeted.influence.cone(event.event_id, targeted.trips)
    partial = LeaveOneOut(demo, event, cone, targeted.influence)
    partial.setup()
    assert cone and set(partial.fleet) == cone | {
        d.device_id for d in demo.devices if d.role == "roadside-unit"}
    for template in demo.devices:
        own = partial.world.devices[template.device_id]
        assert (own is not template) == (template.device_id in cone)
        if template.device_id in partial.fleet:
            assert partial.fleet[template.device_id] is own


def test_a_run_leaves_the_scenario_fleet_as_loaded():
    scenario = load_scenario(demo_scenario())
    before = [dict(vars(d)) for d in scenario.devices]
    sim = _Sim(scenario, MODE_TARGETED)
    sim.run()
    assert [dict(vars(d)) for d in scenario.devices] == before
    # The run did move its own copies, give them destinations and modes.
    assert {"position", "mode", "destination"} <= {
        field for d in scenario.devices for field, value in vars(d).items()
        if vars(sim.world.devices[d.device_id])[field] != value}
    # So does compare, with its partial runs, on every scenario family.
    for name in sorted(GENERATORS):
        for raw in scenarios(name):
            scenario = load_scenario(raw)
            before = [dict(vars(d)) for d in scenario.devices]
            compare(scenario)
            assert [dict(vars(d)) for d in scenario.devices] == before, name


# -- malformed documents -------------------------------------------------------
#
# Every list of the document is read through one checked entry reader, and
# every id and id reference must be a string naming a known id.  Each case
# below replaces one list entry or one id by a value of the wrong JSON type
# (or an unknown id) and expects a ValidationError naming the entry; the
# error text is the same under every string-hash seed.

BAD_VALUES = {"int": 5, "text": "x", "list": [], "null": None}


def _with_trip(raw):
    raw["demand"]["trips"].append({"origin": "a1", "dest": "b1", "depart": 0.0})
    return raw["demand"]["trips"]


def _with_modifier(raw):
    raw["demand"]["ev_modifiers"].append(
        {"event_id": "bridge-crash", "multiplier": 2.0, "nodes": ["a1"]})
    return raw["demand"]["ev_modifiers"]


# list -> (the list in the document, possibly after adding one entry; the
# section's name; the entry's name in errors)
ENTRY_LISTS = {
    "modes": (lambda raw: raw["network"]["modes"], "network.modes", "mode"),
    "networks": (lambda raw: raw["network"]["networks"], "network.networks", "network"),
    "segments": (lambda raw: raw["network"]["segments"], "network.segments", "segment"),
    "usage": (lambda raw: _segment(raw)["usage"], "segment R1 usage", "segment R1 usage"),
    "multimodal-nodes": (lambda raw: raw["network"]["multimodal_nodes"],
                         "network.multimodal_nodes", "multimodal node"),
    "trips": (_with_trip, "demand.trips", "demand trip"),
    "arrivals": (lambda raw: raw["demand"]["arrivals"], "demand.arrivals", "demand arrivals"),
    "ev-modifiers": (_with_modifier, "demand.ev_modifiers", "demand ev_modifiers"),
    "disturbances": (lambda raw: raw["disturbances"], "disturbances", "disturbance"),
    "detection-sources": (lambda raw: raw["detection_sources"], "detection_sources",
                          "detection source"),
    "devices": (lambda raw: raw["devices"], "devices", "device"),
    "pt-routes": (lambda raw: raw["policies"]["pt_routes"], "policies.pt_routes", "pt route"),
}


@pytest.mark.parametrize("value", BAD_VALUES.values(), ids=BAD_VALUES)
@pytest.mark.parametrize("name", sorted(ENTRY_LISTS))
def test_an_entry_that_is_no_object_is_rejected(name, value):
    find, _section, noun = ENTRY_LISTS[name]
    raw = demo_scenario()
    find(raw)[0] = value
    with pytest.raises(ValidationError, match=f"^{noun} 0 must be an object$"):
        load_scenario(raw)


def _replace(raw, path, value):
    """Set the value at ``path`` of ``raw`` (keys from the top) to ``value``."""
    *parents, last = path
    for key in parents:
        raw = raw[key]
    raw[last] = value


@pytest.mark.parametrize("value", [5, "x", {}], ids=["int", "text", "object"])
@pytest.mark.parametrize("path, section", [
    (("network", "modes"), "network.modes"),
    (("network", "nodes"), "network.nodes"),
    (("network", "multimodal_nodes"), "network.multimodal_nodes"),
    (("demand", "arrivals"), "demand.arrivals"),
    (("disturbances",), "disturbances"),
    (("devices",), "devices"),
    (("policies", "pt_routes"), "policies.pt_routes"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_a_list_section_that_is_no_list_is_rejected(path, section, value):
    raw = demo_scenario()
    _replace(raw, path, value)
    with pytest.raises(ValidationError, match=f"^{section} must be a list$"):
        load_scenario(raw)


# id -> (the entry that defines it, its id key ("" for a bare id), the
# entry's name in errors, the id the entry defines)
ID_FIELDS = {
    "mode": (lambda raw: raw["network"]["modes"], "mode_id", "mode", "M1"),
    "network": (lambda raw: raw["network"]["networks"], "network_id", "network", "N1"),
    "node": (lambda raw: raw["network"]["nodes"], "", "node", "a1"),
    "segment": (lambda raw: raw["network"]["segments"], "segment_id", "segment", "R1"),
    "usage": (lambda raw: _segment(raw)["usage"], "mode_id", "segment R1 usage", "M3"),
    "multimodal-node": (lambda raw: raw["network"]["multimodal_nodes"], "node_id",
                        "multimodal node", "a1"),
    "event": (lambda raw: raw["disturbances"], "event_id", "disturbance", "bridge-crash"),
    "device": (lambda raw: raw["devices"], "device_id", "device", "rsu_a"),
    "pt-route": (lambda raw: raw["policies"]["pt_routes"], "route_id", "pt route", "Met1"),
}
NON_STRINGS = {"int": 5, "list": [], "null": None}


@pytest.mark.parametrize("value", NON_STRINGS.values(), ids=NON_STRINGS)
@pytest.mark.parametrize("name", sorted(ID_FIELDS))
def test_an_id_that_is_no_string_is_rejected(name, value):
    find, key, noun, _id = ID_FIELDS[name]
    raw = demo_scenario()
    entries = find(raw)
    if key:
        entries[0][key] = value
    else:
        entries[0] = value
    with pytest.raises(ValidationError, match=f"^{noun} 0: {key or 'id'} must be a string$"):
        load_scenario(raw)


@pytest.mark.parametrize("name", sorted(ID_FIELDS))
def test_a_duplicate_id_is_rejected(name):
    find, _key, noun, entry_id = ID_FIELDS[name]
    raw = demo_scenario()
    entries = find(raw)
    entries.append(entries[0])
    with pytest.raises(ValidationError, match=f"^duplicate {noun} identifier {entry_id}$"):
        load_scenario(raw)


def _first_device_trip(raw):
    return _device(raw, "veh1")["trip"]


def _planned(raw, value):
    _device(raw, "veh1")["planned_route"] = [[value, 100.0]]


def _pt(raw, key, value):
    raw["policies"]["pt_routes"][0][key][0] = value


# reference -> (an edit that puts the value where an id is referenced, the
# start of the error text, and the bad values, all of BAD_VALUES unless
# given: null is absent for the optional references)
ID_REFERENCES = {
    "usage-matrix-mode": (lambda raw, v: raw["network"]["usage_matrix"][0].__setitem__(0, v),
                          "usage matrix: "),
    "usage-matrix-network": (
        lambda raw, v: raw["network"]["usage_matrix"][0].__setitem__(1, v), "usage matrix: "),
    "segment-network": (lambda raw, v: _segment(raw).update(network_id=v), "segment R1: "),
    "segment-from-node": (lambda raw, v: _segment(raw).update(from_node=v), "segment R1: "),
    "segment-to-node": (lambda raw, v: _segment(raw).update(to_node=v), "segment R1: "),
    "usage-mode": (lambda raw, v: _segment(raw)["usage"][0].update(mode_id=v), "segment R1"),
    "attachment": (lambda raw, v: raw["network"]["multimodal_nodes"][0]["attachments"][0]
                   .__setitem__(0, v), "multimodal node a1: "),
    "service": (lambda raw, v: raw["network"]["multimodal_nodes"][0]["services"]
                .__setitem__(0, v), "multimodal node a1: "),
    "trip-origin": (lambda raw, v: _with_trip(raw)[0].update(origin=v), "demand trip 0: "),
    "trip-dest": (lambda raw, v: _with_trip(raw)[0].update(dest=v), "demand trip 0: "),
    "arrival-origin": (lambda raw, v: raw["demand"]["arrivals"][0].update(origin=v),
                       "demand arrivals 0: "),
    "allowed-mode": (lambda raw, v: raw["demand"]["arrivals"][0]["prefs"]["allowed_modes"]
                     .__setitem__(0, v), "demand arrivals 0: "),
    "modifier-event": (lambda raw, v: _with_modifier(raw)[0].update(event_id=v),
                       "demand ev_modifiers 0: event_id must be a string", NON_STRINGS),
    "modifier-node": (lambda raw, v: _with_modifier(raw)[0]["nodes"].__setitem__(0, v),
                      "demand ev_modifiers 0: "),
    "event-segment": (lambda raw, v: raw["disturbances"][0]["segments"].__setitem__(0, v),
                      "event bridge-crash: "),
    "event-node": (lambda raw, v: raw["disturbances"][0].update(nodes=[v]),
                   "event bridge-crash: "),
    "source-kind": (lambda raw, v: raw["detection_sources"][0].update(source_kind=v),
                    "detection source 0: "),
    "applicable-kind": (lambda raw, v: raw["detection_sources"][0]["applicable_kinds"]
                        .__setitem__(0, v), "detection source 0: "),
    "position-node": (lambda raw, v: _device(raw, "rsu_a").update(position={"node": v}),
                      "device rsu_a: "),
    "position-segment": (lambda raw, v: place_rsu_a(raw, 0.0) or _device(raw, "rsu_a")[
        "position"].update(segment=v), "device rsu_a: "),
    "device-role": (lambda raw, v: _device(raw, "veh1").update(role=v), "device veh1: "),
    "device-mode": (lambda raw, v: _device(raw, "veh1").update(mode=v), "device veh1: ",
                    {"int": 5, "text": "x", "list": []}),
    "device-destination": (lambda raw, v: _device(raw, "veh1").update(destination=v),
                           "device veh1: ", {"int": 5, "text": "x", "list": []}),
    "device-trip-origin": (lambda raw, v: _first_device_trip(raw).update(origin=v),
                           "device veh1 trip: "),
    "planned-route-segment": (_planned, "device veh1 planned route: "),
    "rsu-link": (lambda raw, v: raw["policies"]["rsu_links"][0].__setitem__(0, v),
                 "policies.rsu_links 0: "),
    "pt-route-mode": (lambda raw, v: raw["policies"]["pt_routes"][0].update(mode_id=v),
                      "pt route Met1: "),
    "pt-route-segment": (lambda raw, v: _pt(raw, "segments", v), "pt route Met1: "),
    "pt-route-stop": (lambda raw, v: _pt(raw, "stops", v), "pt route Met1: "),
    "effect-matrix-pair": (lambda raw, v: raw.update(effect_matrix={"D1": [[v, "N3"]]}),
                           "effect matrix D1: "),
}
REFERENCE_CASES = [(name, value_id) for name, (_edit, _text, *values) in ID_REFERENCES.items()
                   for value_id in (values[0] if values else BAD_VALUES)]


@pytest.mark.parametrize("name, value_id", REFERENCE_CASES,
                         ids=[f"{name}-{value_id}" for name, value_id in REFERENCE_CASES])
def test_a_bad_id_reference_is_rejected_naming_the_entry(name, value_id):
    edit, text, *_values = ID_REFERENCES[name]
    raw = demo_scenario()
    edit(raw, BAD_VALUES[value_id])
    with pytest.raises(ValidationError) as err:
        load_scenario(raw)
    assert str(err.value).startswith(text)


# Several bad ids in one list: the first in document order is reported,
# whatever the string-hash seed (these lists once went through a set).
@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["demand"]["arrivals"][0]["prefs"].update(
        allowed_modes=["M7", "zz3", "zz1", "zz4", "zz2"]), "demand arrivals 0: unknown mode zz3"),
    (lambda raw: raw["network"]["usage_matrix"].extend([["q2", "N1"], ["q3", "N1"],
                                                        ["q1", "N1"]]),
     "usage matrix: unknown mode q2"),
    (lambda raw: raw["detection_sources"][0].update(applicable_kinds=["D1", "D99", "D98"]),
     "detection source 0: unknown kind D99"),
    (lambda raw: raw["disturbances"][0].update(nodes=["a1", "zz2", "zz1"]),
     "event bridge-crash: unknown node zz2"),
    (lambda raw: raw["network"]["multimodal_nodes"][0].update(services=["pt-stop", "s2", "s1"]),
     "multimodal node a1: unknown service s2"),
    (lambda raw: raw["policies"].update(
        strategy_table={"d1": ["no_such_template"], "D99": ["reroute"]}),
     "strategy table: unknown kind 'd1'"),
], ids=["allowed-modes", "usage-matrix", "applicable-kinds", "event-nodes", "services",
        "strategy-table-kinds"])
def test_the_first_bad_id_in_document_order_is_reported(edit, message):
    raw = demo_scenario()
    edit(raw)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_scenario(raw)


@pytest.mark.parametrize("links, message", [
    ([["rsu_a"]], "policies.rsu_links 0: link must be a pair of ids"),
    ([["rsu_a", "rsu_n1"], "rsu_b"], "policies.rsu_links 1: link must be a pair of ids"),
    ([["rsu_a", "rsu_n1", "rsu_b"]], "policies.rsu_links 0: link must be a pair of ids"),
    ([["rsu_a", "rsu_n1"], ["rsu_b", "nowhere"]],
     "policies.rsu_links 1: unknown roadside unit nowhere"),
    ({"rsu_a": "rsu_n1"}, "policies: rsu_links must be a list"),
], ids=["one-id", "no-list", "three-ids", "unknown-unit", "object"])
def test_rsu_link_must_be_a_pair_of_known_roadside_units(links, message):
    raw = demo_scenario()
    raw["policies"]["rsu_links"] = links
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_scenario(raw)


@pytest.mark.parametrize("section", ["policies", "demand", "effect_matrix"])
@pytest.mark.parametrize("value", [[], 5, "x"], ids=["list", "int", "text"])
def test_a_section_that_is_no_object_is_rejected(section, value):
    raw = demo_scenario()
    raw[section] = value
    with pytest.raises(ValidationError, match=f"^scenario: {section} must be an object$"):
        load_scenario(raw)


@pytest.mark.parametrize("value", [[], 5, "x", None], ids=["list", "int", "text", "null"])
def test_a_document_or_network_that_is_no_object_is_rejected(value):
    with pytest.raises(ValidationError, match="^scenario must be an object$"):
        load_scenario(value)
    with pytest.raises(ValidationError, match="^scenario: network must be an object$"):
        load_scenario(edited(network=value))


def test_absent_policies_take_the_policy_and_topology_defaults():
    raw = demo_scenario()
    raw["policies"] = {"pt_routes": raw["policies"]["pt_routes"]}
    scenario = load_scenario(raw)
    assert scenario.policy == RelevancePolicy()
    assert scenario.topology == RsuTopology()


def _document_paths(node, path=()):
    """The key path of every value in a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _document_paths(value, path + (key,))


def test_any_value_of_the_wrong_type_is_a_validation_error():
    """Every value of the demo, replaced in turn by each of BAD_VALUES,
    either still loads or raises a ValidationError, never another error."""
    rejected = 0
    for path in _document_paths(demo_scenario()):
        for value in BAD_VALUES.values():
            raw = demo_scenario()
            _replace(raw, path, value)
            try:
                load_scenario(raw)
            except ValidationError:
                rejected += 1
    assert rejected > 2500  # of 2,956 edits; the others still load
