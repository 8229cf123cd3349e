import dataclasses

import pytest

from mitsim.disturbance import affected_pairs
from mitsim.errors import ValidationError
from mitsim.scenario import MAX_STREAM_ARRIVALS, Scenario, load_scenario, stream_rng
from mitsim.simulation import MODE_BROADCAST, MODE_NO_ADAPT, MODE_TARGETED, run

from conftest import demo_scenario
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
    (None, "must be a number"),
    ([1], "must be a number"),
    (10 ** 400, "is too large"),  # a JSON integer beyond every float
], ids=["string", "null", "list", "huge-int"])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_non_number_rejected_naming_the_entry(field, value, problem):
    edit, entry = NUMBER_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    with pytest.raises(ValidationError, match=f"^{entry} {problem}$"):
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


@pytest.mark.parametrize("value", ["two", None, [1], {}, float("inf"), float("nan")],
                         ids=["string", "null", "list", "object", "inf", "nan"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_non_integer_rejected_naming_the_entry(field, value):
    edit, entry, _read = INTEGER_FIELDS[field]
    raw = demo_scenario()
    edit(raw, value)
    with pytest.raises(ValidationError, match=f"^{entry} must be an integer$"):
        load_scenario(raw)


@pytest.mark.parametrize("value, loaded", [(3, 3), ("3", 3), (3.9, 3), (True, 1)],
                         ids=["int", "digits", "float", "bool"])
@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
def test_accepted_integer_values_load_as_int_reads_them(field, value, loaded):
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


def test_a_cav_with_its_own_trip_is_not_in_the_idle_fleet():
    raw = demo_scenario()
    cav1 = next(d for d in raw["devices"] if d["device_id"] == "cav1")
    cav1["trip"] = {"origin": "h1", "dest": "b1", "depart": 300}
    world = load_scenario(raw).build_world()
    assert sorted(world.cavs) == ["cav2", "cav3"]
    assert world.cavs["cav2"].node == "h2" and world.cavs["cav2"].available
