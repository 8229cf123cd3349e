import pytest

from mitsim.adaptation import (
    DEFAULT_STRATEGY_TABLE,
    BusDiversion,
    DemandRebalance,
    PoliceNotification,
    RescueCorridor,
    ReplacementService,
    Reroute,
    SignalPlanChange,
    StopGuidance,
    _params,
    apply as apply_actions,
    build_replacement,
    bus_diversion_favorable,
    expire,
    plan,
)
from mitsim.disturbance import (
    DisturbanceEvent,
    SeverityMeasure,
    default_effect_matrix,
)
from mitsim.dissemination import DevicePosition, EdgeDevice
from mitsim.errors import InfeasibleError
from mitsim.messages import make_warning
from mitsim.network import build_network
from mitsim.simulation import _json
from mitsim.state import CavUnit, Contribution, NetworkState, PtRoute, WorldState

from oracles import brute_force_residual_map


def city_net(extra_rail_stub=False):
    """Road line q0-q1-q2-q3 with detour roads, plus a metro q0-q2."""
    spec = {
        "modes": [
            {"mode_id": "car", "name": "car", "category": "private-car",
             "agile": False, "maas_member": False},
            {"mode_id": "cav", "name": "cav", "category": "cav-taxi",
             "agile": False, "maas_member": False},
            {"mode_id": "bus", "name": "bus", "category": "bus",
             "agile": False, "maas_member": False},
            {"mode_id": "metro", "name": "metro", "category": "metro",
             "agile": False, "maas_member": False},
        ],
        "networks": [{"network_id": "road", "name": "road"},
                     {"network_id": "rail", "name": "rail"}],
        "usage_matrix": [["car", "road"], ["cav", "road"], ["bus", "road"],
                         ["metro", "rail"]],
        "nodes": ["q0", "q1", "q2", "q3", "q4"],
        "segments": [],
        "multimodal_nodes": [],
    }

    def road(seg_id, a, b, fft, cls="major"):
        spec["segments"].append({
            "segment_id": seg_id, "network_id": "road", "from_node": a,
            "to_node": b, "length": fft * 10.0, "class": cls,
            "usage": [
                {"mode_id": "car", "direction": "both", "base_capacity": 1000,
                 "free_flow_time": fft},
                {"mode_id": "cav", "direction": "both", "base_capacity": 800,
                 "free_flow_time": fft},
                {"mode_id": "bus", "direction": "both", "base_capacity": 300,
                 "free_flow_time": fft},
            ],
        })

    road("g0", "q0", "q1", 120)
    road("g1", "q1", "q2", 120, cls="critical")
    road("g2", "q2", "q3", 120)
    road("g3", "q1", "q2", 400, cls="minor")  # parallel detour
    road("g4", "q1", "q3", 500, cls="minor")
    spec["segments"].append({
        "segment_id": "k0", "network_id": "rail", "from_node": "q0",
        "to_node": "q2", "length": 2400, "class": "major",
        "usage": [{"mode_id": "metro", "direction": "both",
                   "base_capacity": 600, "free_flow_time": 300}]})
    if extra_rail_stub:
        spec["segments"].append({
            "segment_id": "k1", "network_id": "rail", "from_node": "q2",
            "to_node": "q4", "length": 1200, "class": "minor",
            "usage": [{"mode_id": "metro", "direction": "both",
                       "base_capacity": 600, "free_flow_time": 150}]})

    def mm(node, modes, services):
        attachments = []
        for m in modes:
            attachments.append([m, "rail" if m == "metro" else "road"])
        spec["multimodal_nodes"].append({
            "node_id": node, "attachments": attachments, "services": services})

    mm("q0", ["car", "cav", "bus", "metro"], ["pt-stop", "rail-station", "cav-pickup"])
    mm("q1", ["car", "cav", "bus"], ["pt-stop"])
    mm("q2", ["car", "cav", "bus", "metro"], ["pt-stop", "rail-station"])
    mm("q3", ["cav", "bus"], ["pt-stop"])
    if extra_rail_stub:
        mm("q4", ["metro"], ["rail-station"])
    return build_network(spec)


def make_world(net, with_cav=True):
    world = WorldState(overlay=NetworkState(net))
    world.pt_routes["B"] = PtRoute(
        route_id="B", mode_id="bus", stops=("q0", "q1", "q2", "q3"),
        segments=("g0", "g1", "g2"), headway=600)
    if with_cav:
        world.cavs["cavA"] = CavUnit(cav_id="cavA", node="q1")
        world.devices["cavA"] = EdgeDevice(
            "cavA", "vehicle-obu", DevicePosition(node="q1"), mode="cav")
    world.devices["veh"] = EdgeDevice(
        "veh", "traveler-app", DevicePosition(node="q0"),
        planned_route=(("g0", 300.0), ("g1", 500.0)), mode="cav")
    world.devices["sd_q1"] = EdgeDevice(
        "sd_q1", "stop-display", DevicePosition(node="q1"))
    world.devices["sc_q0"] = EdgeDevice(
        "sc_q0", "signal-controller", DevicePosition(node="q0"))
    world.devices["sc_q1"] = EdgeDevice(
        "sc_q1", "signal-controller", DevicePosition(node="q1"))
    return world


def make_event(net, kind, segments, nodes=(), reduction=1.0, specifics=None,
               displaced=None):
    severity = SeverityMeasure(capacity_reduction=reduction,
                               displaced_volume=displaced)
    return DisturbanceEvent(
        event_id=f"ev-{kind}", kind=kind, segments=tuple(segments),
        nodes=tuple(nodes), start=0.0, estimated_duration=3600.0,
        true_duration=3600.0, severity=severity, specifics=specifics or {})


def plan_for(net, world, event, issue=100):
    matrix = default_effect_matrix(net)
    basic, _full = make_warning(event, net, matrix, issue_time=issue)
    skips = []
    actions = plan(event, basic, world, DEFAULT_STRATEGY_TABLE,
                   matrix=matrix, skip_log=skips)
    return actions, skips


def inject(world, event, net):
    matrix = default_effect_matrix(net)
    from mitsim.disturbance import direct_effects

    for seg, mode, residual in direct_effects(event, net, matrix):
        world.overlay.add_contribution(Contribution(
            contrib_id=f"ev:{event.event_id}:{seg}:{mode}", kind="factor",
            targets=frozenset({(seg, mode)}), value=residual,
            start=event.start, end=event.true_end))


# -- strategy conformance ---------------------------------------------------------


KIND_EVENTS = {
    "D1": (["g1"], ()),
    "D2": (["g1"], ()),
    "D3": (["g1"], ()),
    "D4": (["g1"], ()),
    "D5": (["g1"], ()),
    "D6": (["k0"], ()),
    "D7": (["k0"], ()),
    "D8": (["g0", "g1"], ("q1",)),
    "D9": (["g1"], ()),
    "EV": (["g1"], ("q1",)),
}


def test_plan_emits_only_row_action_types():
    net = city_net()
    for kind, (segments, nodes) in KIND_EVENTS.items():
        world = make_world(net)
        event = make_event(net, kind, segments, nodes)
        inject(world, event, net)
        world.overlay.clock = 100.0
        actions, _skips = plan_for(net, world, event)
        allowed = set(DEFAULT_STRATEGY_TABLE[kind])
        assert {a.action_type for a in actions} <= allowed, kind


def test_d8_plan_includes_police_and_signals():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D8", ["g0", "g1"], nodes=("q1",), reduction=0.5)
    inject(world, event, net)
    world.overlay.clock = 100.0
    actions, _ = plan_for(net, world, event)
    types = [a.action_type for a in actions]
    assert "police" in types and "signal_plan" in types
    police = next(a for a in actions if isinstance(a, PoliceNotification))
    assert police.node == "q1"
    signal = next(a for a in actions if isinstance(a, SignalPlanChange))
    # nearby signals, not the dead intersection itself
    assert "q1" not in signal.intersections
    assert "q0" in signal.intersections


def test_d7_plan_includes_replacement():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D7", ["k0"], displaced=450.0)
    # treat k0 as a train line for this test: D7 hits trains only, so use D6
    event = make_event(net, "D6", ["k0"], displaced=450.0)
    inject(world, event, net)
    world.overlay.clock = 100.0
    actions, _ = plan_for(net, world, event)
    types = [a.action_type for a in actions]
    assert "replacement" in types
    service = next(a for a in actions if isinstance(a, ReplacementService))
    assert service.served_stations == ("q0", "q2")
    assert service.road_path == ("g0", "g1") or service.road_path == ("g0", "g3")
    assert service.vehicle_count == 8  # ceil(450 / 60)


def test_d9_plan_rescue_corridor():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D9", ["g1"], reduction=0.5)
    inject(world, event, net)
    world.overlay.clock = 100.0
    actions, _ = plan_for(net, world, event)
    types = [a.action_type for a in actions]
    assert types.count("rescue_corridor") == 1
    corridor = next(a for a in actions if isinstance(a, RescueCorridor))
    # capacity halved -> severity band 3 -> medium operation
    assert corridor.clearance_level == 0.5
    assert "reroute" in types and "signal_plan" in types


def test_reroute_targets_are_routed_through_location():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D1", ["g1"])
    inject(world, event, net)
    world.overlay.clock = 100.0
    actions, _ = plan_for(net, world, event)
    targets = next(a for a in actions if isinstance(a, Reroute)).targets
    assert targets == ("veh",)


def test_infeasible_templates_are_skipped_with_reason():
    net = city_net()
    world = make_world(net)
    world.devices.clear()  # no devices, no displays, no controllers
    world.cavs.clear()
    event = make_event(net, "D1", ["g1"])
    inject(world, event, net)
    world.overlay.clock = 100.0
    actions, skips = plan_for(net, world, event)
    skipped_templates = {t for t, _reason in skips}
    assert "reroute" in skipped_templates
    assert "signal_plan" in skipped_templates
    assert all(reason for _t, reason in skips)


# -- bus diversion -----------------------------------------------------------------


def test_diversion_single_blocked_segment_no_stops_bypassed():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D1", ["g1"])
    inject(world, event, net)
    world.overlay.clock = 100.0
    out = bus_diversion_favorable(
        world.pt_routes["B"], ("g1",), [], world,
        action_id="a1", event_id="ev", activation=100.0, expiry=3600.0)
    assert out is not None
    assert out.skipped_stops == ()
    assert out.detour_segments == ("g3",)
    # favorability soundness: router-estimated delay strictly below waiting
    detour_extra = 400.0 - 120.0
    assert detour_extra < 3600.0 - 100.0


def test_diversion_requires_cav_for_bypassed_stops():
    net = city_net()
    world = make_world(net, with_cav=False)
    event = make_event(net, "D1", ["g1", "g2"])
    inject(world, event, net)
    world.overlay.clock = 100.0
    out = bus_diversion_favorable(
        world.pt_routes["B"], ("g1", "g2"), [], world,
        action_id="a1", event_id="ev", activation=100.0, expiry=3600.0)
    assert out is None  # stop q2 bypassed, nobody to serve it


def test_diversion_with_cav_assignment():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D1", ["g1", "g2"])
    inject(world, event, net)
    world.overlay.clock = 100.0
    cavs = [world.cavs["cavA"]]
    out = bus_diversion_favorable(
        world.pt_routes["B"], ("g1", "g2"), cavs, world,
        action_id="a1", event_id="ev", activation=100.0, expiry=3600.0)
    assert out is not None
    assert out.skipped_stops == ("q2",)
    assert out.cav_assignment == ("cavA",)
    assert out.detour_segments == ("g4",)


def test_priority_route_accepts_equal_delay():
    net = city_net()
    world = make_world(net)
    # short blockage: waiting it out beats the detour for regular routes
    world.overlay.add_contribution(Contribution(
        contrib_id="ev:short:g1:bus", kind="factor",
        targets=frozenset({("g1", "bus")}), value=0.0, start=0.0, end=200.0))
    world.overlay.clock = 100.0
    regular = bus_diversion_favorable(
        world.pt_routes["B"], ("g1",), [], world,
        action_id="a1", event_id="ev", activation=100.0, expiry=200.0)
    assert regular is None
    world.pt_routes["B"].priority = True
    priority = bus_diversion_favorable(
        world.pt_routes["B"], ("g1",), [], world,
        action_id="a2", event_id="ev", activation=100.0, expiry=200.0)
    assert priority is not None


# -- replacement -------------------------------------------------------------------


def test_replacement_minimal():
    net = city_net()
    world = make_world(net)
    service = build_replacement(("k0",), net, world, displaced=10.0)
    assert service.served_stations == ("q0", "q2")
    assert service.vehicle_count == 1
    assert service.replaced_mode == "metro"


def test_replacement_vehicle_count_ceiling():
    net = city_net()
    world = make_world(net)
    service = build_replacement(("k0",), net, world, displaced=450.0)
    assert service.vehicle_count == 8


def test_replacement_infeasible_without_road_station():
    net = city_net(extra_rail_stub=True)
    world = make_world(net)
    with pytest.raises(InfeasibleError, match="road attachment"):
        build_replacement(("k1",), net, world, displaced=10.0)


# -- apply / expire -----------------------------------------------------------------


def snapshot(world):
    return (brute_force_residual_map(world.overlay),
            sorted(c.contrib_id for c in world.overlay.active_contributions()))


def test_apply_then_expire_restores_exactly():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    before = snapshot(world)
    event = make_event(net, "D9", ["g1"], reduction=0.5)
    actions, _ = plan_for(net, world, event)
    assert actions
    apply_actions(actions, world, 100.0)
    assert snapshot(world) != before or not any(
        a.action_type in ("rescue_corridor", "signal_plan") for a in actions)
    for action in actions:
        expire(action, world)
    assert snapshot(world) == before


def test_signal_multiplier_identity():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    action = SignalPlanChange(
        action_id="s1", event_id="ev", activation=100.0, expiry=3600.0,
        intersections=("q1",), approaches=(("q1", "g0"),),
        capacity_multiplier=1.0, controller_devices=("sc_q1",))
    before = brute_force_residual_map(world.overlay)
    apply_actions([action], world, 100.0)
    assert brute_force_residual_map(world.overlay) == before


def test_rescue_corridor_scales_capacity():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    action = RescueCorridor(
        action_id="r1", event_id="ev", activation=100.0, expiry=3600.0,
        corridor=("g0",), clearance_level=0.5)
    apply_actions([action], world, 100.0)
    assert world.overlay.residual(("g0"), "car") == 0.5
    # 1000/h approach -> 500/h effective for non-rescue traffic
    cap = net.segments["g0"].usage_for("car").base_capacity
    assert cap * world.overlay.residual("g0", "car") == 500.0
    expire(action, world)
    assert world.overlay.residual("g0", "car") == 1.0


def test_police_floor_after_response_delay():
    net = city_net()
    world = make_world(net)
    event = make_event(net, "D8", ["g0", "g1"], nodes=("q1",), reduction=1.0)
    inject(world, event, net)
    action = PoliceNotification(
        action_id="p1", event_id=event.event_id, activation=100.0, expiry=3600.0,
        node="q1", response_delay=300.0, restore_floor=0.7)
    apply_actions([action], world, 100.0)
    world.overlay.clock = 200.0  # police still on the way
    assert world.overlay.residual("g1", "car") == 0.0
    world.overlay.clock = 400.0  # arrived at 100 + 300
    assert world.overlay.residual("g1", "car") == 0.7
    expire(action, world)
    assert world.overlay.residual("g1", "car") == 0.0


def test_conflicting_signal_changes_later_wins():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    first = SignalPlanChange(
        action_id="s1", event_id="e1", activation=100.0, expiry=3600.0,
        intersections=("q1",), approaches=(("q1", "g0"),),
        capacity_multiplier=0.5, controller_devices=("sc_q1",))
    second = SignalPlanChange(
        action_id="s2", event_id="e2", activation=200.0, expiry=3600.0,
        intersections=("q1",), approaches=(("q1", "g0"),),
        capacity_multiplier=0.8, controller_devices=("sc_q1",))
    apply_actions([first], world, 100.0)
    world.overlay.clock = 200.0
    records = apply_actions([second], world, 200.0)
    conflicts = [r for r in records if r.get("type") == "signal_conflict"]
    assert conflicts and conflicts[0]["winner"] == "s2"
    assert world.overlay.residual("g0", "car") == 0.8


def test_replacement_apply_injects_usable_service():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    # the metro link is severed; the bridge makes metro routing possible again
    world.overlay.add_contribution(Contribution(
        contrib_id="cut", kind="factor", targets=frozenset({("k0", "metro")}),
        value=0.0, start=0.0, end=float("inf")))
    service = build_replacement(("k0",), net, world, displaced=100.0,
                                action_id="rep1", event_id="ev",
                                activation=100.0, expiry=3600.0)
    apply_actions([service], world, 100.0)
    from mitsim.routing import RoutingPreferences, route

    plan_over = route("q0", "q2", 100.0,
                      RoutingPreferences(frozenset({"metro"})), world.overlay)
    assert plan_over is not None
    assert plan_over.segments() == ("g0", "g1")
    expire(service, world)
    assert route("q0", "q2", 100.0,
                 RoutingPreferences(frozenset({"metro"})), world.overlay) is None


def test_bus_diversion_apply_and_restore():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    action = BusDiversion(
        action_id="b1", event_id="ev", activation=100.0, expiry=3600.0,
        route_id="B", skipped_stops=("q2",), skipped_segments=("g1", "g2"),
        detour_segments=("g4",), cav_assignment=("cavA",))
    original = (world.pt_routes["B"].segments, world.pt_routes["B"].stops)
    apply_actions([action], world, 100.0)
    assert world.pt_routes["B"].segments == ("g0", "g4")
    assert world.pt_routes["B"].stops == ("q0", "q1", "q3")
    assert world.cavs["cavA"].available is False
    expire(action, world)
    assert (world.pt_routes["B"].segments, world.pt_routes["B"].stops) == original
    assert world.cavs["cavA"].available is True


def test_expire_does_not_touch_prefix_sibling_actions():
    net = city_net()
    world = make_world(net)
    world.overlay.clock = 100.0
    short = RescueCorridor(
        action_id="a-e-1", event_id="e", activation=100.0, expiry=3600.0,
        corridor=("g0",), clearance_level=0.5)
    sibling = RescueCorridor(
        action_id="a-e-11", event_id="e", activation=100.0, expiry=3600.0,
        corridor=("g2",), clearance_level=0.5)
    apply_actions([short, sibling], world, 100.0)
    expire(short, world)
    assert world.overlay.residual("g0", "car") == 1.0
    assert world.overlay.residual("g2", "car") == 0.5
    expire(sibling, world)
    assert world.overlay.active_contributions() == []


_WINDOW = dict(action_id="a-e-1", event_id="e", activation=10.0, expiry=70.5)

# One action of each type, with its "params" as actions.log prints them.
ACTION_PARAMS = [
    (Reroute(**_WINDOW, targets=("d1", "d2")), '{"targets":["d1","d2"]}'),
    (StopGuidance(**_WINDOW, stops=("s1",), alternatives=(("n1", ("bus", "tram")),),
                  display_devices=("rsu1",)),
     '{"stops":["s1"],"alternatives":[["n1",["bus","tram"]]],"display_devices":["rsu1"]}'),
    (BusDiversion(**_WINDOW, route_id="B", skipped_stops=("s2",), skipped_segments=("g1",),
                  detour_segments=("g3", "g4"), cav_assignment=("cav1",)),
     '{"route_id":"B","skipped_stops":["s2"],"skipped_segments":["g1"],'
     '"detour_segments":["g3","g4"],"cav_assignment":["cav1"]}'),
    (ReplacementService(**_WINDOW, blocked_segments=("m0",), served_stations=("st1", "st2"),
                        road_path=("r0",), vehicle_count=2, replaced_mode="metro",
                        vehicle_mode="bus"),
     '{"blocked_segments":["m0"],"served_stations":["st1","st2"],"road_path":["r0"],'
     '"vehicle_count":2,"replaced_mode":"metro","vehicle_mode":"bus"}'),
    (SignalPlanChange(**_WINDOW, intersections=("n1",), approaches=(("n1", "g1"),),
                      capacity_multiplier=1.25, controller_devices=("tlc1",)),
     '{"intersections":["n1"],"approaches":[["n1","g1"]],"capacity_multiplier":1.25,'
     '"controller_devices":["tlc1"]}'),
    (RescueCorridor(**_WINDOW, corridor=("g1", "g2"), clearance_level=0.5),
     '{"corridor":["g1","g2"],"clearance_level":0.5}'),
    (PoliceNotification(**_WINDOW, node="n2", response_delay=300.0, restore_floor=0.4),
     '{"node":"n2","response_delay":300.0,"restore_floor":0.4}'),
    (DemandRebalance(**_WINDOW, area_nodes=("n1",), roles=("cav",), target_cavs=("cav2",)),
     '{"area_nodes":["n1"],"roles":["cav"],"target_cavs":["cav2"]}'),
]


@pytest.mark.parametrize("action, printed", ACTION_PARAMS,
                         ids=[action.action_type for action, _ in ACTION_PARAMS])
def test_action_params_print_as_in_actions_log(action, printed):
    assert _json(_params(action)) == printed
