import random
from collections import Counter

import pytest

from mitsim import dissemination
from mitsim.adaptation import BusDiversion
from mitsim.disturbance import SeverityMeasure
from mitsim.dissemination import (
    DevicePosition,
    EdgeDevice,
    RelevancePolicy,
    Relay,
    RsuTopology,
    WarningScope,
    distribute,
    is_relevant,
    predict_trajectory,
)
from mitsim.messages import AffectedEntry, WarningMessage
from mitsim.network import MultiLayerNetwork, build_network
from mitsim.routing import RoutingPreferences, route

from conftest import line_network_spec
from generators import (
    random_devices,
    random_network,
    random_state,
    random_topology,
    random_warning,
)
from oracles import (
    brute_force_free_flow_path,
    brute_force_mode_arcs,
    brute_force_node_distances,
    brute_force_relevant,
    brute_force_route,
    distance_to_segment,
    oracle_delivery,
    oracle_notified,
    position_distance,
)

POLICY = RelevancePolicy()


def relevance(w, device, policy, net, actions, now):
    """``is_relevant`` on one device, with the warning's scope built for it."""
    return is_relevant(WarningScope(w, policy, net, actions, now), device)


def served_hops(w, devices, topology, policy, net, actions, now, notified):
    """Relay hops plus the delivery, by notified device: one more than the
    depth of the unit that ``Relay.serve`` picks for it."""
    if not notified:
        return {}
    rsus = sorted((d for d in devices if d.role == "roadside-unit"), key=lambda d: d.device_id)
    relay = Relay(WarningScope(w, policy, net, actions, now), rsus, topology)
    by_id = {d.device_id: d for d in devices}
    return {did: relay.serve(by_id[did])[0] + 1 for did in notified}


def warn_on(net, seg_ids, modes, issue=0, end=3600):
    entries = tuple(
        AffectedEntry(
            network_id=net.segments[s].network_id,
            segment_id=s,
            seg_class=net.segments[s].seg_class,
            modes=tuple(sorted(modes)),
        )
        for s in seg_ids
    )
    return WarningMessage(
        warning_id="w1", event_id="e1", kind="D1", revision=0,
        issue_time=issue, estimated_end=end,
        severity=SeverityMeasure(capacity_reduction=1.0),
        affected=entries,
    )


# -- trajectory prediction ---------------------------------------------------------


def test_trajectory_past_route_empty(line3):
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        planned_route=(("s0", 10.0), ("s1", 20.0)), mode="car")
    assert predict_trajectory(device, line3, now=100.0) == []


def test_trajectory_future_route_suffix(line3):
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        planned_route=(("s0", 60.0), ("s1", 180.0)), mode="car")
    assert predict_trajectory(device, line3, now=0.0) == [("s0", 60.0), ("s1", 180.0)]
    assert predict_trajectory(device, line3, now=100.0) == [("s1", 180.0)]


def test_trajectory_shortest_continuation(line3):
    # routeless vehicle 2 hops from its destination on a 3-node line graph
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        mode="car", destination="v2")
    # brute-force shortest path on the toy graph: s0 then s1, cumulative ETAs
    assert predict_trajectory(device, line3, now=50.0) == [
        ("s0", 50.0), ("s1", 150.0)]


def test_trajectory_does_not_alias_the_network_path(line3):
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        mode="car", destination="v2")
    predict_trajectory(device, line3, now=0.0).clear()
    assert predict_trajectory(device, line3, now=0.0) == [("s0", 0.0), ("s1", 100.0)]
    assert line3.free_flow_path("car", "v0", "v2") == ("s0", "s1")


def test_trajectory_none_without_destination(line3):
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"), mode="car")
    assert predict_trajectory(device, line3, now=0.0) == []


# -- relevance ---------------------------------------------------------------------


def two_mode_net():
    spec = line_network_spec(3)
    spec["modes"].append({"mode_id": "tram", "name": "tram", "category": "tram",
                          "agile": False, "maas_member": False})
    spec["networks"].append({"network_id": "rail", "name": "rail"})
    spec["usage_matrix"].append(["tram", "rail"])
    spec["segments"].append({
        "segment_id": "t0", "network_id": "rail", "from_node": "v0",
        "to_node": "v2", "length": 2000, "class": "minor",
        "usage": [{"mode_id": "tram", "direction": "both",
                   "base_capacity": 200, "free_flow_time": 300}]})
    return build_network(spec)


def test_tram_not_informed_about_road_warning():
    net = two_mode_net()
    w = warn_on(net, ["s0"], ["car"])
    tram = EdgeDevice("tr", "vehicle-obu", DevicePosition(node="v0"),
                      planned_route=(("t0", 100.0),), mode="tram")
    decision = relevance(w, tram, POLICY, net, [], now=0.0)
    assert not decision.relevant and decision.reason == "none"


def test_trajectory_hit_within_horizon(line3):
    w = warn_on(line3, ["s1"], ["car"])
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        planned_route=(("s1", POLICY.horizon / 2),), mode="car",
                        comm_range=100.0)
    decision = relevance(w, device, POLICY, line3, [], now=0.0)
    assert decision.relevant and decision.reason == "trajectory-hit"


def test_trajectory_beyond_horizon_falls_to_area(line3):
    w = warn_on(line3, ["s1"], ["car"])
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        planned_route=(("s1", POLICY.horizon * 10),), mode="car")
    decision = relevance(w, device, POLICY, line3, [], now=0.0)
    # still within the area radius of a minor-class segment? v0 is 1000 m away
    assert decision.reason in ("area", "none")
    tight = RelevancePolicy(area_radius={"critical": 10, "major": 5,
                                         "inferior": 2, "minor": 1})
    decision = relevance(w, device, tight, line3, [], now=0.0)
    assert not decision.relevant


def test_adaptation_actor_relevance(line3):
    w = warn_on(line3, ["s1"], ["car"])
    cav = EdgeDevice("cav9", "vehicle-obu", DevicePosition(node="v0"), mode="car")
    action = BusDiversion(
        action_id="a1", event_id="e1", activation=0.0, expiry=100.0,
        route_id="r", skipped_stops=(), skipped_segments=(),
        detour_segments=("s0",), cav_assignment=("cav9",),
    )
    tight = RelevancePolicy(area_radius={"critical": 10, "major": 5,
                                         "inferior": 2, "minor": 1})
    decision = relevance(w, cav, tight, line3, [action], now=0.0)
    assert decision.reason == "adaptation-actor"
    # actor relevance can be switched off
    off = RelevancePolicy(area_radius=tight.area_radius,
                          include_adaptation_actors=False)
    assert not relevance(w, cav, off, line3, [action], now=0.0).relevant


def test_rsu_is_never_a_recipient(line3):
    w = warn_on(line3, ["s0"], ["car"])
    rsu = EdgeDevice("r1", "roadside-unit", DevicePosition(node="v0"),
                     comm_range=5000.0)
    assert not relevance(w, rsu, POLICY, line3, [], now=0.0).relevant


def test_reason_priority_trajectory_over_area(line3):
    w = warn_on(line3, ["s0"], ["car"])
    device = EdgeDevice("d", "vehicle-obu", DevicePosition(node="v0"),
                        planned_route=(("s0", 100.0),), mode="car")
    assert relevance(w, device, POLICY, line3, [], 0.0).reason == "trajectory-hit"


def one_way_line():
    return build_network(line_network_spec(3, direction="forward"))


def long_line():
    return build_network(line_network_spec(6, fft=1000.0))  # s4 is entered at 4000 s


# A routeless car with a destination, one affected segment, the reason, and
# whether its continuation names an affected segment, so that the trajectory
# is built.
CONTINUATION_EDGES = {
    "head-only-unreachable": (one_way_line, DevicePosition(segment="s0", offset=500.0),
                              "v0", "s0", "car", "trajectory-hit", True),
    "at-destination": (one_way_line, DevicePosition(node="v1"), "v1", "s0", "car",
                       "area", False),
    "beyond-horizon": (long_line, DevicePosition(node="v0"), "v5", "s4", "car",
                       "none", True),
    "other-mode-on-path": (two_mode_net, DevicePosition(node="v0"), "v2", "s0", "tram",
                           "none", True),
    "other-mode-off-path": (two_mode_net, DevicePosition(node="v0"), "v2", "t0", "tram",
                            "none", False),
}


@pytest.mark.parametrize("case", sorted(CONTINUATION_EDGES))
def test_continuation_shortcut_is_exact_at_its_edges(case, monkeypatch):
    make_net, position, dest, seg_id, mode, reason, built = CONTINUATION_EDGES[case]
    net = make_net()
    if case == "head-only-unreachable":
        assert net.free_flow_path("car", "v1", "v0") is None
    device = EdgeDevice("d", "vehicle-obu", position, mode="car", destination=dest)
    w = warn_on(net, [seg_id], [mode])
    expected = brute_force_relevant(w, device, POLICY, net, [], 0.0)
    calls = []

    def counted(*args):
        calls.append(args)
        return predict_trajectory(*args)

    monkeypatch.setattr(dissemination, "predict_trajectory", counted)
    assert relevance(w, device, POLICY, net, [], 0.0).reason == expected == reason
    assert len(calls) == built


# -- geometry oracles ---------------------------------------------------------------


def test_distance_to_segment_on_segment(line3):
    pos = DevicePosition(segment="s1", offset=500.0)
    assert distance_to_segment(line3, pos, "s1") == 0.0
    assert distance_to_segment(line3, pos, "s0") == 500.0


def test_position_distance_same_segment(line3):
    a = DevicePosition(segment="s0", offset=100.0)
    b = DevicePosition(segment="s0", offset=900.0)
    assert position_distance(line3, a, b) == 800.0


# -- distribution oracle --------------------------------------------------------------


TIGHT = RelevancePolicy(area_radius={"critical": 1500, "major": 800,
                                     "inferior": 400, "minor": 200})


class Actors:
    """An adaptation action reduced to what relevance reads."""

    def __init__(self, event_id, device_ids):
        self.event_id = event_id
        self.device_ids = frozenset(device_ids)

    def actor_device_ids(self):
        return self.device_ids


@pytest.mark.parametrize("policy", [POLICY, TIGHT], ids=["default", "tight"])
def test_distribute_matches_oracle_on_16_node_networks(policy):
    seen = Counter()
    for seed in range(120):
        rng = random.Random(70_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3, max_extra_segments=16)
        devices = random_devices(rng, net, max_devices=30)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        picked = [d.device_id for d in devices if rng.random() < 0.1]
        actions = [Actors(w.event_id, picked), Actors("other", [d.device_id for d in devices])]
        now = w.issue_time
        reasons = {d.device_id: brute_force_relevant(w, d, policy, net, actions, now)
                   for d in devices}
        for d in devices:
            assert relevance(w, d, policy, net, actions, now).reason == reasons[d.device_id]
        record = distribute(w, devices, topology, policy, net, actions, now)
        hops, messages, missed = oracle_delivery(w, devices, topology, policy, net, actions, now)
        expected = set(hops)
        assert set(record.notified) == expected
        assert set(record.missed) == missed
        assert served_hops(w, devices, topology, policy, net, actions, now,
                           record.notified) == hops
        assert record.messages_sent == messages
        assert record.reasons == dict(Counter(reasons[did] for did in expected))
        seen.update(reasons.values())
        seen["notified"] += len(expected)
        seen["missed"] += len(missed)
    assert min(seen[k] for k in ("trajectory-hit", "area", "adaptation-actor",
                                 "none", "notified", "missed")) >= 20



@pytest.mark.parametrize("policy", [POLICY, TIGHT], ids=["default", "tight"])
def test_notified_among_is_distribute_restricted_to_the_devices_asked(policy):
    """Relevance and delivery are per device: ``distribute`` over a subset
    of the fleet with all of its roadside units (the fleet of a partial
    leave-one-out run) notifies what it notifies of that subset over the
    whole fleet."""
    notified = 0
    for seed in range(120):
        rng = random.Random(71_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3, max_extra_segments=16)
        devices = random_devices(rng, net, max_devices=30)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        actions = [Actors(w.event_id, [d.device_id for d in devices if rng.random() < 0.1])]
        record = distribute(w, devices, topology, policy, net, actions, w.issue_time)
        asked = [d for d in devices if d.role != "roadside-unit" and rng.random() < 0.5]
        rsus = [d for d in devices if d.role == "roadside-unit"]
        got = distribute(w, asked + rsus, topology, policy, net, actions,
                         w.issue_time).notified
        assert got == record.notified & {d.device_id for d in asked}
        notified += len(got)
    assert notified >= 50




@pytest.fixture
def asked(monkeypatch):
    """Ids of the devices ``distribute`` runs ``is_relevant`` on, in call order."""
    calls = []

    def counting(scope, device):
        calls.append(device.device_id)
        return is_relevant(scope, device)

    monkeypatch.setattr(dissemination, "is_relevant", counting)
    return calls


@pytest.mark.parametrize("policy", [POLICY, TIGHT], ids=["default", "tight"])
def test_distribute_matches_oracle_on_200_device_networks(policy, asked):
    """Up to 200 devices of every role on networks of up to 60 nodes:
    ``distribute`` asks ``is_relevant`` about every device once, in id
    order, and its record equals the brute-force oracle's."""
    seen = Counter()
    for seed in range(24):
        rng = random.Random(76_000 + seed)
        net = random_network(rng, max_nodes=60, max_modes=3, max_extra_segments=40)
        devices = random_devices(rng, net, max_devices=200, max_rsus=12)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        picked = [d.device_id for d in devices if rng.random() < 0.05]
        actions = [Actors(w.event_id, picked), Actors("other", [d.device_id for d in devices])]
        now = w.issue_time
        reasons = {d.device_id: brute_force_relevant(w, d, policy, net, actions, now)
                   for d in devices}
        for d in devices:
            assert relevance(w, d, policy, net, actions, now).reason == reasons[d.device_id]
        asked.clear()
        record = distribute(w, devices, topology, policy, net, actions, now)
        assert asked == sorted(d.device_id for d in devices)
        hops, messages, missed = oracle_delivery(w, devices, topology, policy, net, actions, now)
        expected = set(hops)
        assert set(record.notified) == expected
        assert set(record.missed) == missed
        assert served_hops(w, devices, topology, policy, net, actions, now,
                           record.notified) == hops
        assert record.messages_sent == messages
        assert record.reasons == dict(Counter(reasons[did] for did in expected))
        seen.update(reasons.values())
        seen.update(d.role for d in devices)
        seen["routeless"] += sum(d.mode is not None and d.planned_route is None
                                 and d.destination is not None for d in devices)
        seen["notified"] += len(expected)
        seen["missed"] += len(missed)
    assert min(seen[k] for k in ("trajectory-hit", "area", "adaptation-actor", "notified",
                                 "missed", "stop-display", "signal-controller",
                                 "routeless")) >= 20


def test_distribute_asks_every_device_once_in_id_order(line3, asked):
    w = warn_on(line3, ["s0"], ["car"])
    devices = [
        EdgeDevice("r1", "roadside-unit", DevicePosition(node="v1"), comm_range=5000.0),
        EdgeDevice("near", "vehicle-obu", DevicePosition(node="v1"), mode="car"),
        EdgeDevice("bound", "vehicle-obu", DevicePosition(node="v2"), mode="car",
                   planned_route=(("s1", 100.0), ("s0", 200.0))),
        EdgeDevice("heading", "vehicle-obu", DevicePosition(segment="s1", offset=900.0),
                   mode="car", destination="v0"),
    ]
    # Not relevant: beyond the minor class's 300 m radius, on a route or a
    # way home that avoids s0, or in another mode.
    devices += [EdgeDevice(f"far{i}", "vehicle-obu", DevicePosition(node="v2"), mode="car",
                           planned_route=(("s1", 100.0),)) for i in range(3)]
    devices += [EdgeDevice(f"home{i}", "traveler-app", DevicePosition(node="v2"), mode="car",
                           destination="v2") for i in range(3)]
    devices.append(EdgeDevice("tram", "vehicle-obu", DevicePosition(node="v1"), mode="tram"))
    record = distribute(w, devices, RsuTopology(), POLICY, line3, [], 0.0)
    expected, missed = oracle_notified(w, devices, RsuTopology(), POLICY, line3, [], 0.0)
    assert set(record.notified) == expected == {"near", "bound", "heading"}
    assert not missed
    assert record.reasons == {"area": 1, "trajectory-hit": 2}
    assert asked == sorted(d.device_id for d in devices)


def test_distribute_to_roadside_units_alone_builds_no_distance_table(line3, monkeypatch):
    def forbidden(*_args):
        raise AssertionError("built a distance table")

    monkeypatch.setattr(MultiLayerNetwork, "distance_table", forbidden)
    w = warn_on(line3, ["s0", "s1"], ["car"])
    rsus = [EdgeDevice(f"r{i}", "roadside-unit", DevicePosition(node=f"v{i}"),
                       comm_range=5000.0) for i in range(3)]
    topology = RsuTopology(adjacency={"r0": frozenset({"r1"}), "r1": frozenset({"r0", "r2"}),
                                      "r2": frozenset({"r1"})})
    record = distribute(w, rsus, topology, POLICY, line3, [Actors("e1", ["r1"])], 0.0)
    assert record.notified == frozenset() and record.missed == frozenset()
    assert record.messages_sent == 0 and record.baseline == 3


def test_oracles_do_not_read_the_network_memo(monkeypatch):
    def forbidden(*_args):
        raise AssertionError("read the network memo")

    monkeypatch.setattr(MultiLayerNetwork, "distance_table", forbidden)
    monkeypatch.setattr(MultiLayerNetwork, "searches", forbidden)
    for seed in range(20):
        rng = random.Random(74_000 + seed)
        net = random_network(rng, max_nodes=12, max_modes=3, max_extra_segments=12)
        devices = random_devices(rng, net, max_devices=20)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        actions = [Actors(w.event_id, [d.device_id for d in devices if rng.random() < 0.2])]
        oracle_notified(w, devices, topology, POLICY, net, actions, w.issue_time)
        state = random_state(rng, net)
        nodes = sorted(net.nodes)
        brute_force_route(nodes[0], nodes[-1], RoutingPreferences(frozenset(net.modes)), state)
        brute_force_node_distances(net, {nodes[0]: 0.0})
        for mode in sorted(net.modes):
            brute_force_free_flow_path(net, mode, nodes[0], nodes[-1])
            brute_force_mode_arcs(net, state.contributions(), state.clock, mode)
        # the fast paths do read it
        idle = EdgeDevice("idle", "traveler-app", DevicePosition(node=nodes[0]))
        with pytest.raises(AssertionError, match="network memo"):
            relevance(w, idle, POLICY, net, [], w.issue_time)
        with pytest.raises(AssertionError, match="network memo"):
            route(nodes[0], nodes[-1], 0.0, RoutingPreferences(frozenset(net.modes)), state)


def test_distribute_matches_oracle_on_random_scenarios():
    nonempty = 0
    for seed in range(200):
        rng = random.Random(20_000 + seed)
        net = random_network(rng, max_nodes=8, max_modes=3, max_extra_segments=8)
        if len(net.segments) > 20:
            continue
        devices = random_devices(rng, net, max_devices=10)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        record = distribute(w, devices, topology, POLICY, net, [], w.issue_time)
        expected, missed = oracle_notified(
            w, devices, topology, POLICY, net, [], w.issue_time)
        assert set(record.notified) == expected
        assert set(record.missed) == missed
        assert record.messages_sent >= len(record.notified)
        rsu_count = sum(1 for d in devices if d.role == "roadside-unit")
        assert record.messages_sent <= len(record.notified) + rsu_count
        hops, _messages, _missed = oracle_delivery(w, devices, topology, POLICY, net, [],
                                                   w.issue_time)
        assert served_hops(w, devices, topology, POLICY, net, [], w.issue_time,
                           record.notified) == hops
        if expected:
            nonempty += 1
    assert nonempty >= 20


def test_distribute_zero_relevant(line3):
    w = warn_on(line3, ["s0"], ["car"])
    rsu = EdgeDevice("r1", "roadside-unit", DevicePosition(node="v0"),
                     comm_range=5000.0)
    record = distribute(w, [rsu], RsuTopology(), POLICY, line3, [], 0.0)
    assert record.notified == frozenset() and record.messages_sent == 0


def test_distribute_all_in_direct_range(line3):
    w = warn_on(line3, ["s0"], ["car"])
    devices = [EdgeDevice("r1", "roadside-unit", DevicePosition(node="v0"),
                          comm_range=5000.0)]
    for i in range(4):
        devices.append(EdgeDevice(
            f"d{i}", "vehicle-obu", DevicePosition(node="v0"),
            planned_route=(("s0", 100.0 + i),), mode="car"))
    record = distribute(w, devices, RsuTopology(), POLICY, line3, [], 0.0)
    assert record.notified == frozenset({"d0", "d1", "d2", "d3"})
    assert record.messages_sent == 4
    assert record.baseline == 5


def test_unreachable_relevant_devices_are_missed(line3):
    w = warn_on(line3, ["s0"], ["car"])
    devices = [
        EdgeDevice("r1", "roadside-unit", DevicePosition(node="v0"), comm_range=10.0),
        EdgeDevice("far", "vehicle-obu", DevicePosition(node="v2"),
                   planned_route=(("s0", 100.0),), mode="car", comm_range=10.0),
    ]
    record = distribute(w, devices, RsuTopology(), POLICY, line3, [], 0.0)
    assert record.notified == frozenset()
    assert record.missed == frozenset({"far"})


def test_radius_monotonicity():
    for seed in range(40):
        rng = random.Random(31_000 + seed)
        net = random_network(rng, max_nodes=8)
        devices = random_devices(rng, net, max_devices=8)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        small = RelevancePolicy(area_radius={"critical": 500, "major": 400,
                                             "inferior": 300, "minor": 200})
        big = RelevancePolicy(area_radius={"critical": 5000, "major": 4000,
                                           "inferior": 3000, "minor": 2000})
        a = distribute(w, devices, topology, small, net, [], w.issue_time)
        b = distribute(w, devices, topology, big, net, [], w.issue_time)
        assert set(a.notified) <= set(b.notified)


def test_mode_soundness():
    for seed in range(40):
        rng = random.Random(45_000 + seed)
        net = random_network(rng, max_nodes=8)
        devices = random_devices(rng, net, max_devices=8)
        topology = random_topology(rng, devices)
        w = random_warning(rng, net)
        affected_modes = {m for e in w.affected for m in e.modes}
        record = distribute(w, devices, topology, POLICY, net, [], w.issue_time)
        by_id = {d.device_id: d for d in devices}
        for did in record.notified:
            device = by_id[did]
            decision = relevance(w, device, POLICY, net, [], w.issue_time)
            if decision.reason in ("trajectory-hit", "area") and device.mode is not None:
                assert device.mode in affected_modes


def test_distribute_deterministic():
    rng = random.Random(99)
    net = random_network(rng)
    devices = random_devices(rng, net, max_devices=9)
    topology = random_topology(rng, devices)
    w = random_warning(rng, net)
    a = distribute(w, devices, topology, POLICY, net, [], w.issue_time)
    b = distribute(w, devices, topology, POLICY, net, [], w.issue_time)
    assert a == b
