"""Adaptation strategies: turning a detected disturbance into actions.

Each disturbance kind has an ordered row of strategy templates (the
strategy table, checked once at load), and each template has one builder,
which reads only the event's planning context.  Planning walks the row,
keeps what every feasible builder returns and skips the rest with a
reason, then numbers the actions ``a-<event>-1..n`` in the order they were
built.  Each action type applies and undoes its own effect, which only ever
touches the capacity overlay, signal claims, bus routes and fleet
assignments, all keyed by action id, so expiry restores the pre-action
state exactly.  A reroute's targets are flagged for replanning by the
simulator.  Stop guidance and demand rebalancing are planned and logged but
change nothing in the world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional

from .disturbance import (DISTURBANCE_KINDS, DisturbanceEvent, EffectMatrix, displaced_volume,
                          severity_index_from)
from .dissemination import MOBILE_ROLES, enters_affected
from .errors import InfeasibleError, ValidationError
from .messages import WarningMessage
from .network import RAIL_CATEGORIES, ROAD_CATEGORIES, MultiLayerNetwork
# node_distances stays bound here: perfbench's tracer test wraps it by this name.
from .network import node_distances  # noqa: F401
from .routing import RoutingPreferences, route
from .state import CavUnit, Contribution, PtRoute, WorldState

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
    the action out, if there is one.  An action with a simulated effect
    overrides ``take_effect`` and ``undo``."""

    action_id: str
    event_id: str
    activation: float
    expiry: float
    actor_field = None

    def actor_device_ids(self) -> set[str]:
        return set(getattr(self, self.actor_field)) if self.actor_field else set()

    def take_effect(self, state: WorldState) -> list[dict]:
        """Change the world; returns the conflict records this caused."""
        return []

    def undo(self, state: WorldState) -> None:
        """Restore what ``take_effect`` changed beyond this action's own
        contributions, which :func:`expire` removes."""

    def _add(self, state: WorldState, effect: str, kind: str, targets: Iterable,
             value: float, start: Optional[float] = None, free_flow_time: float = 0.0) -> None:
        """Add the contribution ``<action_id>:<effect>``, owned by this
        action, active from ``start`` (default: activation) until expiry."""
        state.overlay.add_contribution(Contribution(
            f"{self.action_id}:{effect}", kind, frozenset(targets), value,
            self.activation if start is None else start, self.expiry, free_flow_time,
            self.action_id,
        ))


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

    def take_effect(self, state: WorldState) -> list[dict]:
        """Keep the route's record and run a copy with the detour for the skipped
        run and without the skipped stops; take the assigned CAVs out of the fleet."""
        pt_route = state.diversions[self.action_id] = state.pt_routes[self.route_id]
        segments = pt_route.segments
        skipped = [i for i, s in enumerate(segments) if s in self.skipped_segments]
        if skipped:
            segments = (segments[:skipped[0]] + self.detour_segments
                        + segments[skipped[-1] + 1:])
        stops = tuple(s for s in pt_route.stops if s not in self.skipped_stops)
        state.pt_routes[self.route_id] = replace(pt_route, segments=segments, stops=stops)
        for cav_id in self.cav_assignment:
            state.cavs[cav_id].available = False
        return []

    def undo(self, state: WorldState) -> None:
        stored = state.diversions.pop(self.action_id, None)
        if stored is not None:
            state.pt_routes[self.route_id] = stored
            for cav_id in self.cav_assignment:
                state.cavs[cav_id].available = True


@dataclass(frozen=True)
class ReplacementService(AdaptationAction):
    blocked_segments: tuple[str, ...]
    served_stations: tuple[str, ...]
    road_path: tuple[str, ...]
    vehicle_count: int
    replaced_mode: str
    vehicle_mode: str
    action_type = "replacement"

    def take_effect(self, state: WorldState) -> list[dict]:
        """Let the replaced mode run over the road path at the vehicles'
        free-flow time."""
        for seg_id in self.road_path:
            seg = state.net.segments[seg_id]
            base = seg.usage_for(self.vehicle_mode)
            fft = base.free_flow_time if base is not None else seg.length / 8.0
            self._add(state, f"use:{seg_id}", "usage", {(seg_id, self.replaced_mode)}, 1.0,
                      free_flow_time=fft)
        return []


@dataclass(frozen=True)
class SignalPlanChange(AdaptationAction):
    intersections: tuple[str, ...]
    approaches: tuple[tuple[str, str], ...]  # (node, segment)
    capacity_multiplier: float
    controller_devices: tuple[str, ...]
    action_type = "signal_plan"
    actor_field = "controller_devices"

    def take_effect(self, state: WorldState) -> list[dict]:
        """Scale every approach's capacity.  An approach another action
        claims goes to the later-activated one; a takeover is a conflict."""
        conflicts = []
        for node, seg_id in self.approaches:
            claim = state.signal_claims.get((node, seg_id))
            if claim is not None and claim[0] != self.action_id:
                prev_id, prev_activation = claim
                if self.activation < prev_activation:
                    continue
                state.overlay.remove_contribution(f"{prev_id}:sig:{node}:{seg_id}")
                conflicts.append({
                    "type": "signal_conflict",
                    "approach": [node, seg_id],
                    "overridden": prev_id,
                    "winner": self.action_id,
                })
            seg = state.net.segments[seg_id]
            self._add(state, f"sig:{node}:{seg_id}", "factor",
                      ((seg_id, e.mode_id) for e in seg.usage), self.capacity_multiplier)
            state.signal_claims[(node, seg_id)] = (self.action_id, self.activation)
        return conflicts

    def undo(self, state: WorldState) -> None:
        for approach in self.approaches:
            claim = state.signal_claims.get(approach)
            if claim is not None and claim[0] == self.action_id:
                del state.signal_claims[approach]


@dataclass(frozen=True)
class RescueCorridor(AdaptationAction):
    corridor: tuple[str, ...]
    clearance_level: float
    action_type = "rescue_corridor"

    def take_effect(self, state: WorldState) -> list[dict]:
        """Scale the corridor's road capacity to its clearance level."""
        self._add(state, "corridor", "factor",
                  ((s, m) for s in self.corridor for m in _road_modes(state.net, s)),
                  self.clearance_level)
        return []


@dataclass(frozen=True)
class PoliceNotification(AdaptationAction):
    node: str
    response_delay: float
    restore_floor: float
    action_type = "police"

    def take_effect(self, state: WorldState) -> list[dict]:
        """Once the police arrive, floor the road capacity of every segment
        at the node."""
        net = state.net
        self._add(state, "police", "floor",
                  ((seg_id, m) for seg_id, seg in net.segments.items()
                   if self.node in (seg.from_node, seg.to_node)
                   for m in _road_modes(net, seg_id)),
                  self.restore_floor, start=self.activation + self.response_delay)
        return []


@dataclass(frozen=True)
class DemandRebalance(AdaptationAction):
    area_nodes: tuple[str, ...]
    roles: tuple[str, ...]
    target_cavs: tuple[str, ...]
    action_type = "demand_rebalance"
    actor_field = "target_cavs"


# StrategyTable: mapping kind -> ordered template names.
StrategyTable = dict


def validate_strategy_table(rows: StrategyTable) -> None:
    """Check a scenario's rows, in document order: each names a known kind
    and only known templates."""
    for kind, row in rows.items():
        if kind not in DISTURBANCE_KINDS:
            raise ValidationError(f"strategy table: unknown kind {kind!r}")
        for template in row:
            if not isinstance(template, str) or template not in _TEMPLATES:
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


def _end_nodes(net: MultiLayerNetwork, segments: Iterable[str]) -> set[str]:
    """Both end nodes of every segment."""
    return ({net.segments[s].from_node for s in segments}
            | {net.segments[s].to_node for s in segments})


def _chain_nodes(net: MultiLayerNetwork, segments: tuple[str, ...]) -> list[str]:
    """Node chain of a non-empty contiguous segment sequence, lesser end first."""
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


@dataclass(frozen=True)
class _Context:
    """What a template builder reads: the event, the world, the warning's
    entries by segment and their segments in id order (``located``), the
    action window, the effect matrix and the reroute targets, when the
    caller decided them."""

    event: DisturbanceEvent
    state: WorldState
    entries: dict
    located: tuple[str, ...]
    now: float
    expiry: float
    matrix: EffectMatrix
    reroute_targets: Optional[tuple[str, ...]]

    @property
    def window(self) -> tuple:
        """Every action's leading fields; the id is left blank for plan()."""
        return ("", self.event.event_id, self.now, self.expiry)


def plan(
    event: DisturbanceEvent,
    warning: WarningMessage,
    state: WorldState,
    table: StrategyTable,
    matrix: EffectMatrix,
    skip_log: Optional[list] = None,
    reroute_targets: Optional[tuple[str, ...]] = None,
) -> list[AdaptationAction]:
    """Instantiate the strategy row for the event's kind, in template order,
    and number the actions ``a-<event>-1..n`` in the order they were built.

    A template whose builder raises :class:`InfeasibleError` is skipped
    with the error's text as the reason, appended to ``skip_log``.  The
    reroute template targets ``reroute_targets`` when given (a caller that
    knows the devices ``routed_via`` picks without scanning the fleet),
    else every device of the state ``routed_via`` picks, in id order.
    """
    entries = {e.segment_id: e for e in warning.affected}
    context = _Context(event, state, entries, tuple(sorted(entries)),
                       float(warning.issue_time), float(warning.estimated_end), matrix,
                       reroute_targets)
    skips = skip_log if skip_log is not None else []
    built: list[AdaptationAction] = []
    for template in table[event.kind]:
        try:
            built += _TEMPLATES[template](context)
        except InfeasibleError as exc:
            skips.append((template, str(exc)))
    return [replace(action, action_id=f"a-{event.event_id}-{n}")
            for n, action in enumerate(built, 1)]


def routed_via(device, entries: dict, now: float) -> bool:
    """Whether a mobile device's planned route enters a segment of
    ``entries`` (a warning's entries by segment) at or after ``now``, in a
    mode the entry affects: the reroute template's test."""
    if device.role not in MOBILE_ROLES or device.mode is None or device.planned_route is None:
        return False
    return enters_affected(device.planned_route, entries, device.mode, now, math.inf)


def _reroute(c: _Context) -> list[AdaptationAction]:
    targets = c.reroute_targets
    if targets is None:
        devices = c.state.devices
        targets = tuple(d for d in sorted(devices) if routed_via(devices[d], c.entries, c.now))
    if not targets:
        raise InfeasibleError("no devices routed via the disturbance")
    return [Reroute(*c.window, targets)]


def _stop_guidance(c: _Context) -> list[AdaptationAction]:
    state, net = c.state, c.state.net
    stops = tuple(
        n for n in sorted(_end_nodes(net, c.located))
        if n in net.multimodal_nodes and "pt-stop" in net.multimodal_nodes[n].services
    )
    if not stops:
        raise InfeasibleError("no public-transport stops affected")
    # The stop nearest to any affected one (the first in id order on a tie)
    # is every affected stop's alternative.
    dist = net.distance_table(dict.fromkeys(stops, 0.0))
    distance, node = min(
        ((dist.get(n, math.inf), n) for n in sorted(net.multimodal_nodes)
         if "pt-stop" in net.multimodal_nodes[n].services and n not in stops),
        default=(math.inf, None))
    alternatives = (((node, net.multimodal_nodes[node].modes),) * len(stops)
                    if distance < math.inf else ())
    displays = tuple(
        d for d in sorted(state.devices)
        if state.devices[d].role == "stop-display"
        and state.devices[d].position.node in stops
    )
    return [StopGuidance(*c.window, stops=stops, alternatives=alternatives,
                         display_devices=displays)]


def _bus_diversion(c: _Context) -> list[AdaptationAction]:
    state = c.state
    out = []
    taken: set[str] = set()  # the CAVs earlier diversions of this plan took
    for route_id in sorted(state.pt_routes):
        pt_route = state.pt_routes[route_id]
        if state.net.modes[pt_route.mode_id].category != "bus":
            continue
        blocked = tuple(
            s for s in pt_route.segments
            if s in c.entries and state.overlay.residual(s, pt_route.mode_id) <= 0.0
        )
        if not blocked:
            continue
        diversion = bus_diversion_favorable(c, pt_route, blocked, taken)
        if diversion is not None:
            out.append(diversion)
            taken.update(diversion.cav_assignment)
    if not out:
        raise InfeasibleError("no favorable bus diversion")
    return out


def _available_cavs(state: WorldState) -> list[CavUnit]:
    return [state.cavs[c] for c in sorted(state.cavs) if state.cavs[c].available]


def _replacement(c: _Context) -> list[AdaptationAction]:
    """Bridge the located rail line with road vehicles between its stations."""
    net = c.state.net
    rail_segs = tuple(
        s for s in c.located
        if any(net.modes[e.mode_id].category in RAIL_CATEGORIES
               for e in net.segments[s].usage)
    )
    if not rail_segs:
        raise InfeasibleError("no rail segments located")
    displaced = c.event.severity.displaced_volume
    if displaced is None:
        displaced = displaced_volume(c.event, c.state.flows(c.now), net, c.matrix)
    try:
        chain = _chain_nodes(net, rail_segs)
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
        leg = route(a, b, c.now, prefs, c.state.overlay)
        if leg is None:
            raise InfeasibleError(
                f"replacement infeasible: no road path {a} to {b}"
            )
        for s in leg.segments():
            if not path or path[-1] != s:
                path.append(s)
    capacity = c.state.defaults.replacement_vehicle_capacity
    return [ReplacementService(
        *c.window,
        blocked_segments=rail_segs,
        served_stations=tuple(stations),
        road_path=tuple(path),
        vehicle_count=max(1, math.ceil(displaced / capacity)) if displaced else 1,
        replaced_mode=min(e.mode_id for s in rail_segs for e in net.segments[s].usage
                          if net.modes[e.mode_id].category in RAIL_CATEGORIES),
        vehicle_mode=vehicle_mode,
    )]


def _signal_plan(c: _Context) -> list[AdaptationAction]:
    state, net, event = c.state, c.state.net, c.event
    if event.kind == "D8" and event.nodes:
        # the neighbours of the dead intersections, not the intersections
        anchors = set(event.nodes)
        candidates = _end_nodes(net, [
            s for s, seg in net.segments.items() if {seg.from_node, seg.to_node} & anchors
        ]) - anchors
    else:
        candidates = _end_nodes(net, c.located)
    controllers: dict[str, list[str]] = {}
    for device_id in sorted(state.devices):
        device = state.devices[device_id]
        if device.role == "signal-controller" and device.position.node in candidates:
            controllers.setdefault(device.position.node, []).append(device_id)
    if not controllers:
        raise InfeasibleError("no signal controllers near the disturbance")
    intersections = tuple(sorted(controllers))
    approaches = tuple(
        (node, seg_id) for node in intersections for seg_id in sorted(net.segments)
        if node in (net.segments[seg_id].from_node, net.segments[seg_id].to_node)
    )
    return [SignalPlanChange(
        *c.window,
        intersections=intersections,
        approaches=approaches,
        capacity_multiplier=state.defaults.signal_multiplier,
        controller_devices=tuple(d for node in intersections for d in controllers[node]),
    )]


def _rescue_corridor(c: _Context) -> list[AdaptationAction]:
    severity = c.event.severity
    idx = severity.severity_index
    if idx is None:
        idx = severity_index_from(severity.capacity_reduction or 0.0)
    return [RescueCorridor(
        *c.window,
        corridor=tuple(c.event.specifics.get("corridor_segments", c.located)),
        clearance_level=RESCUE_CLEARANCE[idx],
    )]


def _police(c: _Context) -> list[AdaptationAction]:
    event, defaults = c.event, c.state.defaults
    node = min(event.nodes) if event.nodes else c.state.net.segments[c.located[0]].from_node
    return [PoliceNotification(
        *c.window, node=node,
        response_delay=defaults.police_response_delay,
        restore_floor=defaults.police_restore_floor,
    )]


def _demand_rebalance(c: _Context) -> list[AdaptationAction]:
    state = c.state
    cav_ids = tuple(cav.cav_id for cav in _available_cavs(state))
    if not cav_ids:
        raise InfeasibleError("no fleet vehicles available")
    area = tuple(sorted(c.event.nodes or _end_nodes(state.net, c.located)))
    return [DemandRebalance(*c.window, area_nodes=area, roles=("cav-taxi",),
                            target_cavs=cav_ids)]


# One builder per strategy template, in the order templates are listed.
_TEMPLATES = {
    "reroute": _reroute,
    "stop_guidance": _stop_guidance,
    "bus_diversion": _bus_diversion,
    "replacement": _replacement,
    "signal_plan": _signal_plan,
    "rescue_corridor": _rescue_corridor,
    "police": _police,
    "demand_rebalance": _demand_rebalance,
}


# -- bus diversion favorability -------------------------------------------------


def bus_diversion_favorable(
    c: _Context, pt_route: PtRoute, blocked_segments: tuple[str, ...],
    taken: set[str],
) -> Optional[BusDiversion]:
    """Divert a bus route around blocked segments of it, when favorable.

    Requires (a) a road detour between the detach and reattach nodes that
    avoids the blockage, (b) an available CAV not in ``taken`` (the plan's
    earlier diversions hold those) within the pickup threshold for every
    bypassed stop, and (c) for non-priority routes, an estimated passenger
    delay under diversion strictly below waiting the blockage out.
    Priority routes accept any feasible diversion.

    Every blocked segment must already have residual 0 for the route's
    mode at the overlay clock (``_bus_diversion`` passes only those), so
    the detour search in (a) avoids them without a guard on the overlay.
    """
    state, net, activation = c.state, c.state.net, c.now
    chain = route_node_chain(net, pt_route)
    blocked_set = set(blocked_segments)
    indices = [i for i, s in enumerate(pt_route.segments) if s in blocked_set]
    first, last = indices[0], indices[-1]
    skipped = pt_route.segments[first:last + 1]
    detach, reattach = chain[first], chain[last + 1]
    bypassed = tuple(n for n in chain[first + 1:last + 1] if n in pt_route.stops)

    # (a) detour on the road network avoiding every blocked segment
    prefs = RoutingPreferences(allowed_modes=frozenset({pt_route.mode_id}))
    detour = route(detach, reattach, activation, prefs, state.overlay)
    if detour is None or not detour.moves:
        return None

    # (b) a CAV within the pickup threshold per bypassed stop
    cav_mode = _mode_of_category(net, "cav-taxi")
    assigned: list[str] = []
    pickup_times: list[float] = []
    available = [cav for cav in _available_cavs(state) if cav.cav_id not in taken]
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
    for s in skipped:
        direct_time += net.segments[s].usage_for(pt_route.mode_id).free_flow_time
    detour_extra = detour.total_cost - direct_time
    delay_with = max([detour_extra] + pickup_times)
    wait_out = _blockage_wait(state, blocked_set, pt_route.mode_id, activation)
    if not pt_route.priority and not delay_with < wait_out:
        return None

    return BusDiversion(
        *c.window,
        route_id=pt_route.route_id,
        skipped_stops=bypassed,
        skipped_segments=skipped,
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


# -- applying and expiring actions -------------------------------------------------


def apply(actions: Iterable[AdaptationAction], state: WorldState, now: float) -> list[dict]:
    """Apply actions to the world state; returns one log record per action,
    each after the conflict records its effect caused.

    All capacity effects are contributions windowed on [activation, expiry),
    so expiring an action is an exact inverse.  Conflicting signal-plan
    changes on the same approach resolve to the later action; the conflict
    is logged.
    """
    records: list[dict] = []
    for action in actions:
        records += action.take_effect(state)
        records.append({
            "type": action.action_type,
            "action_id": action.action_id,
            "event_id": action.event_id,
            "activation": action.activation,
            "expiry": action.expiry,
            "params": _params(action),
        })
    return records


def _params(action: AdaptationAction) -> dict:
    """An action's own fields, those after its id, event and window, as its
    ``actions.log`` record prints them."""
    return {f.name: getattr(action, f.name) for f in fields(action)[4:]}


def expire(action: AdaptationAction, state: WorldState) -> None:
    """Exact inverse of :func:`apply` for one action."""
    state.overlay.remove_owned(action.action_id)
    action.undo(state)
