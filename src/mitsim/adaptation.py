"""Adaptation strategies: turning a detected disturbance into actions.

Each disturbance kind has an ordered row of strategy templates (the
strategy table).  Planning walks the row, instantiates every template that
is feasible in the current world state and skips the rest with a reason.
Applying actions only ever touches the capacity overlay, signal claims,
bus routes and fleet assignments, all keyed by action id, so expiry
restores the pre-action state exactly.  A reroute's targets are flagged for
replanning by the simulator.  Stop guidance and demand rebalancing are
planned and logged but change nothing in the world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Optional

from .disturbance import DisturbanceEvent, EffectMatrix, displaced_volume, severity_index_from
from .errors import InfeasibleError, ValidationError
from .messages import WarningMessage
# node_distances stays bound here: perfbench's tracer test wraps it by this name.
from .network import MultiLayerNetwork, node_distances  # noqa: F401
from .routing import RoutingPreferences, route
from .state import CavUnit, Contribution, PtRoute, WorldState

ROAD_CATEGORIES = frozenset({"private-car", "cav-taxi", "bus"})
RAIL_CATEGORIES = frozenset({"tram", "metro", "train"})

ACTION_TEMPLATES = (
    "reroute", "stop_guidance", "bus_diversion", "replacement",
    "signal_plan", "rescue_corridor", "police", "demand_rebalance",
)

DEFAULT_STRATEGY_TABLE: dict[str, tuple[str, ...]] = {
    "D1": ("reroute", "stop_guidance", "bus_diversion", "signal_plan"),
    "D2": ("reroute", "stop_guidance"),
    "D3": ("reroute", "stop_guidance", "bus_diversion", "signal_plan"),
    "D4": ("reroute", "stop_guidance", "bus_diversion", "signal_plan"),
    "D5": ("stop_guidance", "reroute", "bus_diversion"),
    "D6": ("stop_guidance", "replacement", "reroute"),
    "D7": ("stop_guidance", "replacement", "reroute"),
    "D8": ("police", "signal_plan", "reroute", "stop_guidance"),
    "D9": ("reroute", "rescue_corridor", "signal_plan"),
    "EV": ("demand_rebalance",),
}

# clearance of a rescue corridor by severity index: small / medium / major
RESCUE_CLEARANCE = {1: 0.8, 2: 0.8, 3: 0.5, 4: 0.1, 5: 0.1}


@dataclass(frozen=True)
class AdaptationAction:
    """What every action holds.  Each action type adds its own fields after
    these, and ``actor_field`` names the one listing the devices that carry
    the action out, if there is one."""

    action_id: str
    event_id: str
    activation: float
    expiry: float
    actor_field = None

    def __post_init__(self):
        if self.expiry <= self.activation:
            raise ValidationError(f"action {self.action_id}: expiry must exceed activation")

    def actor_device_ids(self) -> set[str]:
        return set(getattr(self, self.actor_field)) if self.actor_field else set()


@dataclass(frozen=True)
class Reroute(AdaptationAction):
    targets: tuple[str, ...]
    action_type = "reroute"
    actor_field = "targets"


@dataclass(frozen=True)
class StopGuidance(AdaptationAction):
    stops: tuple[str, ...]
    alternatives: tuple[tuple[str, tuple[str, ...]], ...]  # (node, modes)
    display_devices: tuple[str, ...]
    action_type = "stop_guidance"
    actor_field = "display_devices"


@dataclass(frozen=True)
class BusDiversion(AdaptationAction):
    route_id: str
    skipped_stops: tuple[str, ...]
    skipped_segments: tuple[str, ...]
    detour_segments: tuple[str, ...]
    cav_assignment: tuple[str, ...]
    action_type = "bus_diversion"
    actor_field = "cav_assignment"


@dataclass(frozen=True)
class ReplacementService(AdaptationAction):
    blocked_segments: tuple[str, ...]
    served_stations: tuple[str, ...]
    road_path: tuple[str, ...]
    vehicle_count: int
    replaced_mode: str
    vehicle_mode: str
    action_type = "replacement"

    def __post_init__(self):
        super().__post_init__()
        if self.vehicle_count < 1:
            raise ValidationError(f"action {self.action_id}: vehicle_count must be >= 1")


@dataclass(frozen=True)
class SignalPlanChange(AdaptationAction):
    intersections: tuple[str, ...]
    approaches: tuple[tuple[str, str], ...]  # (node, segment)
    capacity_multiplier: float
    controller_devices: tuple[str, ...]
    action_type = "signal_plan"
    actor_field = "controller_devices"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.capacity_multiplier <= 2.0:
            raise ValidationError(
                f"action {self.action_id}: multiplier outside (0, 2]"
            )


@dataclass(frozen=True)
class RescueCorridor(AdaptationAction):
    corridor: tuple[str, ...]
    clearance_level: float
    action_type = "rescue_corridor"


@dataclass(frozen=True)
class PoliceNotification(AdaptationAction):
    node: str
    response_delay: float
    restore_floor: float
    action_type = "police"


@dataclass(frozen=True)
class DemandRebalance(AdaptationAction):
    area_nodes: tuple[str, ...]
    roles: tuple[str, ...]
    target_cavs: tuple[str, ...]
    action_type = "demand_rebalance"
    actor_field = "target_cavs"


# StrategyTable: mapping kind -> ordered template names.
StrategyTable = dict


def validate_strategy_table(table: StrategyTable) -> None:
    from .disturbance import DISTURBANCE_KINDS

    for kind in DISTURBANCE_KINDS:
        if kind not in table:
            raise ValidationError(f"strategy table: missing row for {kind}")
        for template in table[kind]:
            if template not in ACTION_TEMPLATES:
                raise ValidationError(f"strategy table {kind}: unknown template {template!r}")


# -- helpers ------------------------------------------------------------------


def _mode_of_category(net: MultiLayerNetwork, category: str) -> Optional[str]:
    for mode_id in sorted(net.modes):
        if net.modes[mode_id].category == category:
            return mode_id
    return None


def _road_modes(net: MultiLayerNetwork, seg_id: str) -> list[str]:
    seg = net.segments[seg_id]
    return sorted(
        e.mode_id for e in seg.usage
        if net.modes[e.mode_id].category in ROAD_CATEGORIES
    )


def _vehicle_mode(net: MultiLayerNetwork) -> Optional[str]:
    return _mode_of_category(net, "bus") or _mode_of_category(net, "cav-taxi")


def _chain_nodes(net: MultiLayerNetwork, segments: tuple[str, ...]) -> list[str]:
    """Node chain of a contiguous segment sequence, deterministic end first."""
    if not segments:
        return []
    degree: dict[str, int] = {}
    for seg_id in segments:
        seg = net.segments[seg_id]
        degree[seg.from_node] = degree.get(seg.from_node, 0) + 1
        degree[seg.to_node] = degree.get(seg.to_node, 0) + 1
    ends = sorted(n for n, d in degree.items() if d == 1)
    if len(ends) != 2:
        raise ValidationError("blocked segments do not form a line")
    chain = [ends[0]]
    remaining = set(segments)
    while remaining:
        here = chain[-1]
        nxt = None
        for seg_id in sorted(remaining):
            seg = net.segments[seg_id]
            if seg.from_node == here:
                nxt = (seg_id, seg.to_node)
                break
            if seg.to_node == here:
                nxt = (seg_id, seg.from_node)
                break
        if nxt is None:
            raise ValidationError("blocked segments do not form a line")
        remaining.remove(nxt[0])
        chain.append(nxt[1])
    return chain


def route_node_chain(net: MultiLayerNetwork, pt_route: PtRoute) -> list[str]:
    """The nodes a route passes, from its first stop along its segments.

    Raises :class:`ValidationError` naming the route when a segment does not
    start where the one before it ends; ``load_scenario`` checks every route.
    """
    chain = [pt_route.stops[0]]
    for seg_id in pt_route.segments:
        seg = net.segments[seg_id]
        here = chain[-1]
        if seg.from_node == here:
            chain.append(seg.to_node)
        elif seg.to_node == here:
            chain.append(seg.from_node)
        else:
            raise ValidationError(f"pt route {pt_route.route_id}: segments not contiguous")
    return chain


# -- the per-kind planner ------------------------------------------------------


def plan(
    event: DisturbanceEvent,
    warning: WarningMessage,
    state: WorldState,
    table: StrategyTable,
    matrix: Optional[EffectMatrix] = None,
    skip_log: Optional[list] = None,
) -> list[AdaptationAction]:
    """Instantiate the strategy row for the event's kind, in template order.

    Infeasible templates are skipped with a reason appended to ``skip_log``.
    """
    if event.kind not in table:
        raise ValidationError(f"strategy table: missing row for kind {event.kind}")
    net = state.net
    now = float(warning.issue_time)
    expiry = float(warning.estimated_end)
    actions: list[AdaptationAction] = []
    skips = skip_log if skip_log is not None else []
    counter = 0

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"a-{event.event_id}-{counter}"

    affected_entries = {e.segment_id: e for e in warning.affected}
    located = tuple(sorted(affected_entries))

    for template in table[event.kind]:
        if template == "reroute":
            targets = _reroute_targets(state, affected_entries, now)
            if not targets:
                skips.append((template, "no devices routed via the disturbance"))
                continue
            actions.append(Reroute(next_id(), event.event_id, now, expiry, targets))
        elif template == "stop_guidance":
            built = _build_stop_guidance(next_id(), event, state, located, now, expiry)
            if built is None:
                counter -= 1
                skips.append((template, "no public-transport stops affected"))
                continue
            actions.append(built)
        elif template == "bus_diversion":
            built_list = _build_bus_diversions(state, located, now, expiry, event, next_id)
            if not built_list:
                counter -= 1
                skips.append((template, "no favorable bus diversion"))
                continue
            actions.extend(built_list)
        elif template == "replacement":
            rail_segs = tuple(
                s for s in located
                if any(net.modes[e.mode_id].category in RAIL_CATEGORIES
                       for e in net.segments[s].usage)
            )
            if not rail_segs:
                skips.append((template, "no rail segments located"))
                continue
            displaced = event.severity.displaced_volume
            if displaced is None and matrix is not None:
                displaced = displaced_volume(event, state.flows(now), net, matrix)
            try:
                actions.append(build_replacement(
                    rail_segs, net, state, displaced or 0.0,
                    action_id=next_id(), event_id=event.event_id,
                    activation=now, expiry=expiry,
                ))
            except InfeasibleError as exc:
                counter -= 1
                skips.append((template, str(exc)))
        elif template == "signal_plan":
            built = _build_signal_plan(next_id(), event, state, located, now, expiry)
            if built is None:
                counter -= 1
                skips.append((template, "no signal controllers near the disturbance"))
                continue
            actions.append(built)
        elif template == "rescue_corridor":
            corridor = tuple(event.specifics.get("corridor_segments", located))
            idx = event.severity.severity_index
            if idx is None:
                idx = severity_index_from(event.severity.capacity_reduction or 0.0)
            actions.append(RescueCorridor(
                next_id(), event.event_id, now, expiry,
                corridor=corridor, clearance_level=RESCUE_CLEARANCE[idx],
            ))
        elif template == "police":
            node = sorted(event.nodes)[0] if event.nodes else net.segments[located[0]].from_node
            actions.append(PoliceNotification(
                next_id(), event.event_id, now, expiry,
                node=node,
                response_delay=state.defaults.police_response_delay,
                restore_floor=state.defaults.police_restore_floor,
            ))
        elif template == "demand_rebalance":
            cav_ids = tuple(sorted(c for c, unit in state.cavs.items() if unit.available))
            if not cav_ids:
                skips.append((template, "no fleet vehicles available"))
                continue
            area = tuple(sorted(event.nodes)) if event.nodes else tuple(sorted(
                {net.segments[s].from_node for s in located}
                | {net.segments[s].to_node for s in located}
            ))
            actions.append(DemandRebalance(
                next_id(), event.event_id, now, expiry,
                area_nodes=area, roles=("cav-taxi",), target_cavs=cav_ids,
            ))
        else:
            raise ValidationError(f"unknown strategy template {template!r}")
    return actions


def _reroute_targets(state: WorldState, entries: dict, now: float) -> tuple[str, ...]:
    targets = []
    for device_id in sorted(state.devices):
        device = state.devices[device_id]
        if device.role not in ("vehicle-obu", "traveler-app"):
            continue
        if device.mode is None or device.planned_route is None:
            continue
        for seg_id, eta in device.planned_route:
            if eta < now:
                continue
            entry = entries.get(seg_id)
            if entry is not None and device.mode in entry.modes:
                targets.append(device_id)
                break
    return tuple(targets)


def _build_stop_guidance(action_id, event, state: WorldState, located, now, expiry):
    net = state.net
    located_nodes = sorted(
        {net.segments[s].from_node for s in located}
        | {net.segments[s].to_node for s in located}
    )
    stops = tuple(
        n for n in located_nodes
        if n in net.multimodal_nodes and "pt-stop" in net.multimodal_nodes[n].services
    )
    if not stops:
        return None
    dist = net.distance_table(dict.fromkeys(stops, 0.0))
    alternatives = []
    candidates = [
        n for n in sorted(net.multimodal_nodes)
        if "pt-stop" in net.multimodal_nodes[n].services and n not in stops
    ]
    for stop in stops:
        best = None
        for cand in candidates:
            d = dist.get(cand, float("inf"))
            if best is None or d < best[0]:
                best = (d, cand)
        if best is not None and best[0] < float("inf"):
            node = best[1]
            modes = net.multimodal_nodes[node].modes
            alternatives.append((node, modes))
    displays = tuple(
        d for d in sorted(state.devices)
        if state.devices[d].role == "stop-display"
        and state.devices[d].position.node in stops
    )
    return StopGuidance(
        action_id, event.event_id, now, expiry,
        stops=stops, alternatives=tuple(alternatives), display_devices=displays,
    )


def _build_bus_diversions(state: WorldState, located, now, expiry, event, next_id):
    net = state.net
    out = []
    for route_id in sorted(state.pt_routes):
        pt_route = state.pt_routes[route_id]
        if net.modes[pt_route.mode_id].category != "bus":
            continue
        blocked = tuple(
            s for s in pt_route.segments
            if s in located and state.overlay.residual(s, pt_route.mode_id) <= 0.0
        )
        if not blocked:
            continue
        diversion = bus_diversion_favorable(
            pt_route, blocked, _available_cavs(state), state,
            action_id=next_id(), event_id=event.event_id,
            activation=now, expiry=expiry,
        )
        if diversion is not None:
            out.append(diversion)
    return out


def _available_cavs(state: WorldState) -> list[CavUnit]:
    return [state.cavs[c] for c in sorted(state.cavs) if state.cavs[c].available]


def _build_signal_plan(action_id, event, state: WorldState, located, now, expiry):
    net = state.net
    if event.kind == "D8" and event.nodes:
        anchor_nodes = set(event.nodes)
        candidates: set[str] = set()
        for seg in net.segments.values():
            if seg.from_node in anchor_nodes:
                candidates.add(seg.to_node)
            if seg.to_node in anchor_nodes:
                candidates.add(seg.from_node)
        candidates -= anchor_nodes
    else:
        candidates = (
            {net.segments[s].from_node for s in located}
            | {net.segments[s].to_node for s in located}
        )
    controllers: dict[str, list[str]] = {}
    for device_id in sorted(state.devices):
        device = state.devices[device_id]
        if device.role == "signal-controller" and device.position.node in candidates:
            controllers.setdefault(device.position.node, []).append(device_id)
    if not controllers:
        return None
    intersections = tuple(sorted(controllers))
    approaches = []
    for node in intersections:
        for seg_id in sorted(net.segments):
            seg = net.segments[seg_id]
            if node in (seg.from_node, seg.to_node):
                approaches.append((node, seg_id))
    return SignalPlanChange(
        action_id, event.event_id, now, expiry,
        intersections=intersections,
        approaches=tuple(approaches),
        capacity_multiplier=state.defaults.signal_multiplier,
        controller_devices=tuple(
            d for node in intersections for d in controllers[node]
        ),
    )


# -- bus diversion favorability -------------------------------------------------


def bus_diversion_favorable(
    pt_route: PtRoute,
    blocked_segments: tuple[str, ...],
    cavs: list[CavUnit],
    state: WorldState,
    action_id: str,
    event_id: str,
    activation: float,
    expiry: float,
) -> Optional[BusDiversion]:
    """Divert a bus route around blocked segments, when favorable.

    Requires (a) a road detour between the detach and reattach nodes that
    avoids the blockage, (b) an available CAV within the pickup threshold
    for every bypassed stop, and (c) for non-priority routes, an estimated
    passenger delay under diversion strictly below waiting the blockage
    out.  Priority routes accept any feasible diversion.
    """
    net = state.net
    chain = route_node_chain(net, pt_route)
    blocked_set = set(blocked_segments)
    indices = [i for i, s in enumerate(pt_route.segments) if s in blocked_set]
    if not indices:
        return None
    detach = chain[min(indices)]
    reattach = chain[max(indices) + 1]
    interior = chain[min(indices):max(indices) + 2][1:-1]
    bypassed = tuple(n for n in interior if n in pt_route.stops)

    # (a) detour on the road network avoiding every blocked segment
    guard = Contribution(
        contrib_id="__diversion_probe__",
        kind="factor",
        targets=frozenset((s, pt_route.mode_id) for s in blocked_set),
        value=0.0,
        start=state.overlay.clock - 1.0,
        end=float("inf"),
    )
    state.overlay.add_contribution(guard)
    try:
        prefs = RoutingPreferences(allowed_modes=frozenset({pt_route.mode_id}))
        detour = route(detach, reattach, activation, prefs, state.overlay)
    finally:
        state.overlay.remove_contribution("__diversion_probe__")
    if detour is None or not detour.moves:
        return None

    # (b) a CAV within the pickup threshold per bypassed stop
    cav_mode = _mode_of_category(net, "cav-taxi")
    assigned: list[str] = []
    pickup_times: list[float] = []
    available = list(cavs)
    for stop in bypassed:
        best = None
        for cav in available:
            if cav.cav_id in assigned:
                continue
            if cav_mode is None:
                return None
            cav_prefs = RoutingPreferences(allowed_modes=frozenset({cav_mode}))
            ride = route(cav.node, stop, activation, cav_prefs, state.overlay)
            if ride is None:
                continue
            key = (ride.total_cost, cav.cav_id)
            if best is None or key < best[0]:
                best = (key, cav.cav_id, ride.total_cost)
        if best is None or best[2] > state.defaults.cav_pickup_threshold:
            return None
        assigned.append(best[1])
        pickup_times.append(best[2])

    # (c) favorability: worst passenger delay under diversion vs waiting out
    # Added one by one: sum() of floats is compensated from Python 3.12 on.
    direct_time = 0
    for s in pt_route.segments[min(indices):max(indices) + 1]:
        direct_time += net.segments[s].usage_for(pt_route.mode_id).free_flow_time
    detour_extra = detour.total_cost - direct_time
    delay_with = max([detour_extra] + pickup_times)
    wait_out = _blockage_wait(state, blocked_set, pt_route.mode_id, activation)
    if not pt_route.priority and not delay_with < wait_out:
        return None

    return BusDiversion(
        action_id=action_id,
        event_id=event_id,
        activation=activation,
        expiry=expiry,
        route_id=pt_route.route_id,
        skipped_stops=bypassed,
        skipped_segments=tuple(pt_route.segments[min(indices):max(indices) + 1]),
        detour_segments=detour.segments(),
        cav_assignment=tuple(assigned),
    )


def _blockage_wait(state: WorldState, blocked: set[str], mode: str, now: float) -> float:
    """Expected remaining blockage duration from the overlay's windows."""
    latest = None
    for c in state.overlay.active_contributions():
        if c.kind != "factor" or c.value > 0.0:
            continue
        if any((s, mode) in c.targets for s in blocked):
            if latest is None or c.end > latest:
                latest = c.end
    if latest is None or latest == float("inf"):
        return 1800.0
    return max(latest - now, 0.0)


# -- rail replacement -------------------------------------------------------------


def build_replacement(
    blocked_segments: tuple[str, ...],
    net: MultiLayerNetwork,
    state: WorldState,
    displaced: float = 0.0,
    action_id: str = "a-replacement",
    event_id: str = "",
    activation: float = 0.0,
    expiry: float = 3600.0,
) -> ReplacementService:
    """Bridge a blocked rail line with road vehicles between its stations.

    Raises :class:`InfeasibleError` when a station lacks road attachment or
    no road path connects consecutive stations.
    """
    rail_modes = sorted({
        e.mode_id for s in blocked_segments for e in net.segments[s].usage
        if net.modes[e.mode_id].category in RAIL_CATEGORIES
    })
    if not rail_modes:
        raise InfeasibleError("replacement infeasible: no rail mode on the segments")
    replaced_mode = rail_modes[0]
    try:
        chain = _chain_nodes(net, tuple(blocked_segments))
    except ValidationError:
        raise InfeasibleError(
            "replacement infeasible: blocked segments do not form a line"
        ) from None
    stations = [
        n for n in chain
        if n in net.multimodal_nodes
        and any(net.modes[m].category in RAIL_CATEGORIES
                for m in net.multimodal_nodes[n].modes)
    ]
    for endpoint in (chain[0], chain[-1]):
        if endpoint not in stations:
            raise InfeasibleError(
                f"replacement infeasible: end node {endpoint} is not a station"
            )
    vehicle_mode = _vehicle_mode(net)
    if vehicle_mode is None:
        raise InfeasibleError("replacement infeasible: no road fleet mode")
    for station in stations:
        if not any(net.modes[m].category in ROAD_CATEGORIES
                   for m in net.multimodal_nodes[station].modes):
            raise InfeasibleError(
                f"replacement infeasible: station {station} has no road attachment"
            )
    prefs = RoutingPreferences(allowed_modes=frozenset({vehicle_mode}))
    path: list[str] = []
    for a, b in zip(stations, stations[1:]):
        leg = route(a, b, activation, prefs, state.overlay)
        if leg is None:
            raise InfeasibleError(
                f"replacement infeasible: no road path {a} to {b}"
            )
        for s in leg.segments():
            if not path or path[-1] != s:
                path.append(s)
    capacity = state.defaults.replacement_vehicle_capacity
    vehicle_count = max(1, math.ceil(displaced / capacity)) if displaced > 0 else 1
    return ReplacementService(
        action_id=action_id,
        event_id=event_id,
        activation=activation,
        expiry=expiry,
        blocked_segments=tuple(blocked_segments),
        served_stations=tuple(stations),
        road_path=tuple(path),
        vehicle_count=vehicle_count,
        replaced_mode=replaced_mode,
        vehicle_mode=vehicle_mode,
    )


# -- applying and expiring actions -------------------------------------------------


def apply(actions: Iterable[AdaptationAction], state: WorldState, now: float) -> list[dict]:
    """Apply actions to the world state; returns one log record per effect.

    All capacity effects are contributions windowed on [activation, expiry),
    so expiring an action is an exact inverse.  Conflicting signal-plan
    changes on the same approach resolve to the later action; the conflict
    is logged.
    """
    records: list[dict] = []
    for action in actions:
        record = {
            "type": action.action_type,
            "action_id": action.action_id,
            "event_id": action.event_id,
            "activation": action.activation,
            "expiry": action.expiry,
            "params": _params(action),
        }
        if isinstance(action, SignalPlanChange):
            for node, seg_id in action.approaches:
                claim = state.signal_claims.get((node, seg_id))
                if claim is not None and claim[0] != action.action_id:
                    prev_id, prev_activation = claim
                    if action.activation >= prev_activation:
                        state.overlay.remove_contribution(f"{prev_id}:sig:{node}:{seg_id}")
                        records.append({
                            "type": "signal_conflict",
                            "approach": [node, seg_id],
                            "overridden": prev_id,
                            "winner": action.action_id,
                        })
                    else:
                        continue
                seg = state.net.segments[seg_id]
                targets = frozenset((seg_id, e.mode_id) for e in seg.usage)
                state.overlay.add_contribution(Contribution(
                    contrib_id=f"{action.action_id}:sig:{node}:{seg_id}",
                    kind="factor",
                    targets=targets,
                    value=action.capacity_multiplier,
                    start=action.activation,
                    end=action.expiry,
                ))
                state.signal_claims[(node, seg_id)] = (action.action_id, action.activation)
        elif isinstance(action, RescueCorridor):
            targets = frozenset(
                (s, m) for s in action.corridor for m in _road_modes(state.net, s)
            )
            state.overlay.add_contribution(Contribution(
                contrib_id=f"{action.action_id}:corridor",
                kind="factor",
                targets=targets,
                value=action.clearance_level,
                start=action.activation,
                end=action.expiry,
            ))
        elif isinstance(action, PoliceNotification):
            targets = set()
            for seg_id in sorted(state.net.segments):
                seg = state.net.segments[seg_id]
                if action.node in (seg.from_node, seg.to_node):
                    for m in _road_modes(state.net, seg_id):
                        targets.add((seg_id, m))
            state.overlay.add_contribution(Contribution(
                contrib_id=f"{action.action_id}:police",
                kind="floor",
                targets=frozenset(targets),
                value=action.restore_floor,
                start=action.activation + action.response_delay,
                end=action.expiry,
            ))
        elif isinstance(action, ReplacementService):
            for seg_id in action.road_path:
                seg = state.net.segments[seg_id]
                base = seg.usage_for(action.vehicle_mode)
                fft = base.free_flow_time if base is not None else seg.length / 8.0
                state.overlay.add_contribution(Contribution(
                    contrib_id=f"{action.action_id}:use:{seg_id}",
                    kind="usage",
                    targets=frozenset({(seg_id, action.replaced_mode)}),
                    value=1.0,
                    start=action.activation,
                    end=action.expiry,
                    free_flow_time=fft,
                ))
        elif isinstance(action, BusDiversion):
            pt_route = state.pt_routes[action.route_id]
            state.diversions[action.action_id] = (
                action.route_id, pt_route.segments, pt_route.stops,
                action.cav_assignment,
            )
            kept = tuple(s for s in pt_route.stops if s not in action.skipped_stops)
            pt_route.segments = _diverted_segments(state.net, pt_route, action)
            pt_route.stops = kept
            for cav_id in action.cav_assignment:
                state.cavs[cav_id].available = False
        records.append(record)
    return records


def _params(action: AdaptationAction) -> dict:
    """An action's own fields, those after its id, event and window, as its
    ``actions.log`` record prints them."""
    return {f.name: getattr(action, f.name) for f in fields(action)[4:]}


def _diverted_segments(net, pt_route: PtRoute, action: BusDiversion) -> tuple[str, ...]:
    """Splice the detour into the route in place of the skipped run."""
    skipped = set(action.skipped_segments)
    first = None
    last = None
    for i, s in enumerate(pt_route.segments):
        if s in skipped:
            if first is None:
                first = i
            last = i
    if first is None:
        return pt_route.segments
    return (pt_route.segments[:first] + action.detour_segments
            + pt_route.segments[last + 1:])


def expire(action: AdaptationAction, state: WorldState) -> None:
    """Exact inverse of :func:`apply` for one action."""
    # all contribution ids are "<action_id>:<effect>"; the colon guards
    # against sibling ids that share a textual prefix (a-e-1 vs a-e-11)
    state.overlay.remove_owned(f"{action.action_id}:")
    if isinstance(action, SignalPlanChange):
        for node, seg_id in action.approaches:
            claim = state.signal_claims.get((node, seg_id))
            if claim is not None and claim[0] == action.action_id:
                del state.signal_claims[(node, seg_id)]
    elif isinstance(action, BusDiversion):
        stored = state.diversions.pop(action.action_id, None)
        if stored is not None:
            route_id, segments, stops, cav_ids = stored
            state.pt_routes[route_id].segments = segments
            state.pt_routes[route_id].stops = stops
            for cav_id in cav_ids:
                state.cavs[cav_id].available = True
