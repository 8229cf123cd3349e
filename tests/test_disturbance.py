import random

import pytest
from hypothesis import given, strategies as st

from mitsim.disturbance import (
    DetectionSource,
    DisturbanceEvent,
    SeverityMeasure,
    affected_pairs,
    default_effect_matrix,
    detect,
    direct_effects,
    displaced_volume,
    escalate,
    severity_index_from,
)
from mitsim.errors import ValidationError
from mitsim.network import build_network

from conftest import line_network_spec


def make_event(kind="D1", segments=("s0",), start=0.0, est=3600.0, true=None,
               severity=None, specifics=None, nodes=()):
    return DisturbanceEvent(
        event_id="e1", kind=kind, segments=tuple(segments), nodes=tuple(nodes),
        start=start, estimated_duration=est, true_duration=true or est,
        severity=severity or SeverityMeasure(capacity_reduction=0.5),
        specifics=specifics or {},
    )


@pytest.fixture
def road_net():
    spec = line_network_spec(3)
    # add a reserved bus lane on s0
    spec["modes"].append({"mode_id": "bus", "name": "bus", "category": "bus",
                          "agile": False, "maas_member": False})
    spec["usage_matrix"].append(["bus", "net"])
    spec["segments"][0]["usage"].append(
        {"mode_id": "bus", "direction": "both", "base_capacity": 300,
         "free_flow_time": 120, "reserved": True})
    return build_network(spec)


# -- severity ------------------------------------------------------------------


def test_severity_needs_a_measure():
    with pytest.raises(ValidationError):
        SeverityMeasure()


def test_severity_index_endpoints():
    assert severity_index_from(0.0) == 1
    assert severity_index_from(1.0) == 5


def test_severity_index_midpoint():
    # thresholds 0.05 / 0.25 / 0.6: half capacity lost sits in band 3
    assert severity_index_from(0.5) == 3
    assert severity_index_from(0.05) == 1
    assert severity_index_from(0.25) == 2
    assert severity_index_from(0.61) == 4


def test_severity_index_rejects_out_of_range():
    with pytest.raises(ValidationError):
        severity_index_from(1.5)


@given(st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_severity_index_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert severity_index_from(lo) <= severity_index_from(hi)


# -- effect matrix and direct effects --------------------------------------------


def test_affected_pairs_returns_matrix_row(demo_net):
    matrix = default_effect_matrix(demo_net)
    assert affected_pairs("D7", matrix) == frozenset({("M8", "N6")})
    road = {("M3", "N3"), ("M4", "N3"), ("M5", "N3")}
    assert affected_pairs("D8", matrix) == frozenset(road)
    assert affected_pairs("EV", matrix) == frozenset()


def test_affected_pairs_tram_crossing_flag(demo_net):
    matrix = default_effect_matrix(demo_net, tram_crossing_signals=True)
    assert ("M6", "N4") in affected_pairs("D8", matrix)


def test_affected_pairs_missing_kind(demo_net):
    with pytest.raises(ValidationError):
        affected_pairs("D1", {})


def test_direct_effects_partial_reduction(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(severity=SeverityMeasure(capacity_reduction=0.4))
    effects = direct_effects(event, road_net, matrix)
    assert ("s0", "car", 0.6) in [(s, m, round(r, 9)) for s, m, r in effects]


def test_direct_effects_full_blockage(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(
        segments=("s0", "s1"),
        severity=SeverityMeasure(capacity_reduction=1.0),
        specifics={"reserved_lane_hit": True},
    )
    effects = direct_effects(event, road_net, matrix)
    assert all(r == 0.0 for _s, _m, r in effects)
    assert ("s0", "bus", 0.0) in effects


def test_reserved_lane_spared_unless_hit(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(severity=SeverityMeasure(capacity_reduction=0.5),
                       specifics={"reserved_lane_hit": False})
    effects = direct_effects(event, road_net, matrix)
    touched = {(s, m) for s, m, _r in effects}
    assert ("s0", "car") in touched
    assert ("s0", "bus") not in touched


def test_direct_effects_never_touches_unaffected_modes(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(kind="D7")  # trains only: nothing here is a train
    assert direct_effects(event, road_net, matrix) == []


# -- detection -------------------------------------------------------------------


def src(kind="cits-v2i", kinds=("D1",), p=1.0, lo=0.0, hi=0.0):
    return DetectionSource(source_kind=kind, applicable_kinds=frozenset(kinds),
                           detect_probability=p, latency_min=lo, latency_max=hi)


def test_source_rejects_an_unknown_applicable_kind():
    with pytest.raises(ValidationError, match="^source cits-v2i: unknown kind D98$"):
        src(kinds=("D1", "D99", "D98"))


def test_detect_certain_zero_latency():
    event = make_event(start=100.0)
    out = detect(event, [src()], random.Random(1))
    assert out == (100.0, "cits-v2i")


def test_detect_no_applicable_source():
    event = make_event(kind="D7")
    assert detect(event, [src(kinds=("D1",))], random.Random(1)) is None


def test_detect_earliest_wins():
    # brute force over both degenerate draws: 10 vs 5 seconds of latency
    event = make_event(start=50.0)
    sources = [src(kind="user-app", lo=10.0, hi=10.0),
               src(kind="cits-v2i", lo=5.0, hi=5.0)]
    expected = min(
        (50.0 + lat, s.source_kind)
        for s, lat in zip(sources, (10.0, 5.0))
    )
    assert detect(event, sources, random.Random(3)) == expected
    assert detect(event, sources, random.Random(3))[0] == 55.0


def test_detect_reproducible():
    event = make_event(start=0.0)
    sources = [src(p=0.5, lo=10, hi=100), src(kind="user-app", p=0.8, lo=0, hi=50)]
    runs = {detect(event, sources, random.Random(7)) for _ in range(5)}
    assert len(runs) == 1


def test_detect_respects_probability_zero():
    event = make_event()
    assert detect(event, [src(p=0.0)], random.Random(2)) is None


# -- displaced volume --------------------------------------------------------------


def test_displaced_volume_no_flow(road_net):
    matrix = default_effect_matrix(road_net)
    assert displaced_volume(make_event(), {}, road_net, matrix) == 0.0


def test_displaced_volume_single(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(severity=SeverityMeasure(capacity_reduction=0.5))
    flows = {("s0", "car"): 800.0}
    assert displaced_volume(event, flows, road_net, matrix) == 400.0


def test_displaced_volume_sums_segments(road_net):
    matrix = default_effect_matrix(road_net)
    event = make_event(segments=("s0", "s1"),
                       severity=SeverityMeasure(capacity_reduction=1.0),
                       specifics={"reserved_lane_hit": True})
    flows = {("s0", "car"): 300.0, ("s1", "car"): 200.0}
    # brute-force sum over located segments and affected modes
    expected = sum(flows.get((s, "car"), 0.0) * 1.0 for s in ("s0", "s1"))
    assert displaced_volume(event, flows, road_net, matrix) == expected == 500.0


def test_displaced_volume_spares_the_lanes_direct_effects_spares(road_net):
    matrix = default_effect_matrix(road_net)
    flows = {("s0", "car"): 800.0, ("s0", "bus"): 100.0}
    spared = make_event(severity=SeverityMeasure(capacity_reduction=0.5))
    hit = make_event(severity=SeverityMeasure(capacity_reduction=0.5),
                     specifics={"reserved_lane_hit": True})
    for event, modes, volume in ((spared, ["car"], 400.0), (hit, ["car", "bus"], 450.0)):
        assert [m for _s, m, _r in direct_effects(event, road_net, matrix)] == modes
        assert displaced_volume(event, flows, road_net, matrix) == volume


# -- escalation ---------------------------------------------------------------------


def test_escalate_d3_with_details():
    event = make_event(kind="D3", specifics={"registered_duration": 7200.0})
    out = escalate(event, now=100.0, details_known=True,
                   extension_threshold=6 * 3600.0)
    assert out.kind == "D2"
    assert out.estimated_duration == 7200.0
    assert out.event_id == event.event_id


def test_escalate_d4_past_threshold():
    event = make_event(kind="D4", est=10 * 3600.0, true=10 * 3600.0)
    out = escalate(event, now=event.start + 6 * 3600.0 + 1.0, details_known=False,
                   extension_threshold=6 * 3600.0)
    assert out.kind == "D2"
    at_threshold = escalate(event, now=event.start + 6 * 3600.0, details_known=False,
                            extension_threshold=6 * 3600.0)
    assert at_threshold.kind == "D4"


def test_escalate_other_kinds_unchanged():
    for kind in ("D1", "D2", "D5", "D6", "D7", "D8", "D9", "EV"):
        event = make_event(kind=kind)
        out = escalate(event, now=1e9, details_known=True,
                       extension_threshold=6 * 3600.0)
        assert out == event
        # idempotent
        assert escalate(out, now=1e9, details_known=True,
                        extension_threshold=6 * 3600.0) == out
