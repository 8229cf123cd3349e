"""Relevance filtering and warning dissemination to edge devices.

Instead of flooding every device, a warning is delivered only to devices
for which it is relevant:

1. *trajectory-hit*: the device's predicted trajectory crosses an affected
   segment within the look-ahead horizon, in an affected mode;
2. *area*: the device sits within the class-dependent warning radius of an
   affected segment (graph distance in meters along segments), and its
   mode, if it has one, is affected;
3. *adaptation-actor*: the device takes part in an adaptation action for
   the event (e.g. an idle CAV assigned to serve bypassed stops).

Reason priority is fixed in that order.  Roadside units carry the message
as relay infrastructure and are never counted as recipients.  Message
accounting compares against the naive broadcast baseline of one message
per device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from .errors import ValidationError
from .messages import WarningMessage
from .network import MultiLayerNetwork, node_distances

DEVICE_ROLES = frozenset({
    "vehicle-obu", "traveler-app", "roadside-unit",
    "stop-display", "signal-controller", "nest-controller",
})

RELEVANCE_REASONS = ("trajectory-hit", "area", "adaptation-actor", "none")


@dataclass(frozen=True)
class DevicePosition:
    """Either a node or an offset along a segment."""

    node: Optional[str] = None
    segment: Optional[str] = None
    offset: float = 0.0

    def __post_init__(self):
        if (self.node is None) == (self.segment is None):
            raise ValidationError("device position needs exactly one of node/segment")


@dataclass
class EdgeDevice:
    device_id: str
    role: str
    position: DevicePosition
    comm_range: float = 0.0
    planned_route: Optional[tuple[tuple[str, float], ...]] = None
    mode: Optional[str] = None
    destination: Optional[str] = None

    def __post_init__(self):
        if self.role not in DEVICE_ROLES:
            raise ValidationError(f"device {self.device_id}: unknown role {self.role!r}")
        if self.comm_range < 0:
            raise ValidationError(f"device {self.device_id}: negative comm range")
        if self.planned_route:
            etas = [eta for _seg, eta in self.planned_route]
            if any(b <= a for a, b in zip(etas, etas[1:])):
                raise ValidationError(
                    f"device {self.device_id}: planned route ETAs must increase"
                )


@dataclass(frozen=True)
class RelevancePolicy:
    horizon: float = 1800.0
    area_radius: Mapping[str, float] = field(default_factory=lambda: {
        "critical": 5000.0, "major": 2000.0, "inferior": 800.0, "minor": 300.0,
    })
    include_adaptation_actors: bool = True

    def __post_init__(self):
        r = self.area_radius
        order = [r["critical"], r["major"], r["inferior"], r["minor"]]
        if any(b > a for a, b in zip(order, order[1:])):
            raise ValidationError("area radii must not increase toward lower classes")
        if self.horizon <= 0:
            raise ValidationError("relevance horizon must be > 0")


@dataclass(frozen=True)
class RelevanceDecision:
    relevant: bool
    reason: str

    def __post_init__(self):
        if (self.reason == "none") == self.relevant:
            raise ValidationError("relevant=false exactly when reason=none")


NOT_RELEVANT = RelevanceDecision(relevant=False, reason="none")


@dataclass(frozen=True)
class RsuTopology:
    """Adjacency among roadside units plus the relay hop budget."""

    adjacency: Mapping[str, frozenset[str]] = field(default_factory=dict)
    max_hops: int = 8


@dataclass(frozen=True)
class DisseminationRecord:
    warning_id: str
    notified: frozenset[str]
    messages_sent: int
    hops: Mapping[str, int]
    missed: frozenset[str]
    reasons: Mapping[str, int]
    baseline: int

    def log_fields(self) -> dict:
        return {
            "warning_id": self.warning_id,
            "notified": len(self.notified),
            "messages_sent": self.messages_sent,
            "baseline": self.baseline,
            "reasons": {k: self.reasons[k] for k in sorted(self.reasons)},
            "missed": len(self.missed),
        }


# -- geometry over the segment graph -----------------------------------------


def _anchor_map(net: MultiLayerNetwork, pos: DevicePosition) -> dict[str, float]:
    if pos.node is not None:
        return {pos.node: 0.0}
    seg = net.segments[pos.segment]
    off = min(max(pos.offset, 0.0), seg.length)
    return {seg.from_node: off, seg.to_node: seg.length - off}


def position_node_distances(net: MultiLayerNetwork, pos: DevicePosition) -> dict[str, float]:
    """Along-network distance from a device position to every node."""
    return node_distances(net, _anchor_map(net, pos))


def distance_to_segment(net: MultiLayerNetwork, pos: DevicePosition, segment_id: str) -> float:
    """Along-network meters from a position to the nearest end of a segment.

    A position on the segment itself is at distance zero.
    """
    if pos.segment == segment_id:
        return 0.0
    seg = net.segments[segment_id]
    dist = position_node_distances(net, pos)
    return min(
        dist.get(seg.from_node, float("inf")),
        dist.get(seg.to_node, float("inf")),
    )


def _segment_distance(net: MultiLayerNetwork, pos: DevicePosition, segment_id: str) -> float:
    """``distance_to_segment`` read from the network's distance table for
    the segment's ends: along-network distance is symmetric, so the
    position's anchors look up their distance to the segment."""
    if pos.segment == segment_id:
        return 0.0
    return _table_distance(_end_table(net, segment_id), _anchor_map(net, pos).items())


def _end_table(net: MultiLayerNetwork, segment_id: str) -> Mapping[str, float]:
    """The network's distance table from both ends of a segment."""
    seg = net.segments[segment_id]
    return net.distance_table({seg.from_node: 0.0, seg.to_node: 0.0})


def _table_distance(table: Mapping[str, float], anchors) -> float:
    """Least table distance plus offset over a position's (anchor, offset)
    pairs, the items of its ``_anchor_map``."""
    inf = best = float("inf")
    for anchor, extra in anchors:
        d = table.get(anchor, inf) + extra
        if d < best:
            best = d
    return best


def position_distance(net: MultiLayerNetwork, a: DevicePosition, b: DevicePosition) -> float:
    """Along-network meters between two positions."""
    if a.segment is not None and a.segment == b.segment:
        direct = abs(a.offset - b.offset)
    else:
        direct = float("inf")
    dist = node_distances(net, _anchor_map(net, a))
    via_nodes = min(
        (dist.get(anchor, float("inf")) + extra
         for anchor, extra in _anchor_map(net, b).items()),
        default=float("inf"),
    )
    return min(direct, via_nodes)


# -- trajectory prediction ----------------------------------------------------


def predict_trajectory(
    device: EdgeDevice,
    net: MultiLayerNetwork,
    now: float,
) -> list[tuple[str, float]]:
    """Expected (segment, entry time) sequence for a device.

    Devices with a planned route yield its remaining suffix.  Routeless
    vehicles with a declared destination get a deterministic shortest
    free-flow continuation in their mode; anything else yields nothing.
    """
    if device.planned_route is not None:
        return [(seg, eta) for seg, eta in device.planned_route if eta >= now]
    if device.mode is None or device.destination is None:
        return []
    free_flow = net.free_flow_times(device.mode)
    out = []
    t = now
    for seg_id in _continuation(device, net):
        out.append((seg_id, t))
        t += free_flow.get(seg_id, 0.0)
    return out


def _continuation(device: EdgeDevice, net: MultiLayerNetwork) -> tuple[str, ...]:
    """Segments of a routeless device's free-flow continuation: the segment
    it is on, when its mode uses it (it is committed to finishing it), then
    the least free-flow path on to its destination, if there is one."""
    pos = device.position
    head: tuple[str, ...] = ()
    start = pos.node
    if start is None:
        seg = net.segments[pos.segment]
        if seg.usage_for(device.mode) is not None:
            head = (seg.segment_id,)
        start = seg.to_node
    return head + (net.free_flow_path(device.mode, start, device.destination) or ())


# -- relevance ----------------------------------------------------------------


def is_relevant(
    w: WarningMessage,
    device: EdgeDevice,
    policy: RelevancePolicy,
    net: MultiLayerNetwork,
    actions: Iterable,
    now: float,
) -> RelevanceDecision:
    """Decide whether one device should receive one warning.

    ``actions`` are the adaptation actions planned for the warning's event;
    each must expose ``event_id`` and ``actor_device_ids()``.  The area test
    reads each affected segment's distance table, kept on the network.
    """
    if device.role == "roadside-unit":
        return NOT_RELEVANT
    entries = {e.segment_id: e for e in w.affected}

    if device.mode is not None:
        for seg_id, eta in predict_trajectory(device, net, now):
            entry = entries.get(seg_id)
            if entry is None or eta > now + policy.horizon:
                continue
            if device.mode in entry.modes:
                return RelevanceDecision(True, "trajectory-hit")

    for seg_id in sorted(entries):
        entry = entries[seg_id]
        if device.mode is not None and device.mode not in entry.modes:
            continue
        radius = policy.area_radius[entry.seg_class]
        if _segment_distance(net, device.position, seg_id) <= radius:
            return RelevanceDecision(True, "area")

    if policy.include_adaptation_actors:
        for action in actions:
            if action.event_id != w.event_id:
                continue
            if device.device_id in action.actor_device_ids():
                return RelevanceDecision(True, "adaptation-actor")
    return NOT_RELEVANT


# -- propagation ---------------------------------------------------------------


def _rsu_reach(
    rsus: list[EdgeDevice],
    origin_id: str,
    topology: RsuTopology,
) -> tuple[dict[str, int], dict[str, str]]:
    """BFS depth and tree parent for every reachable roadside unit."""
    ids = {d.device_id for d in rsus}
    depth = {origin_id: 0}
    parent: dict[str, str] = {}
    frontier = [origin_id]
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            if depth[u] >= topology.max_hops:
                continue
            for v in sorted(topology.adjacency.get(u, ())):
                if v in ids and v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return depth, parent


def distribute(
    w: WarningMessage,
    devices: Iterable[EdgeDevice],
    topology: RsuTopology,
    policy: RelevancePolicy,
    net: MultiLayerNetwork,
    actions: Iterable,
    now: float,
) -> DisseminationRecord:
    """Deliver a warning to every relevant, reachable device.

    The roadside unit closest to the affected area issues the warning; it
    relays along the unit adjacency up to the hop budget and each relevant
    device is served by its best covering unit (smallest depth, then
    distance, then id).  ``messages_sent`` counts relay transmissions on
    the used tree paths plus one delivery per notified device.  Relevant
    devices no reachable unit covers are reported as missed.

    ``is_relevant`` decides, in device-id order, only for the candidates:
    the devices the warning can touch, as in geocast addressing.  What
    that takes is found once per warning: each affected segment's modes,
    radius and distance table, and the ids of the event's adaptation
    actors.  A device is a candidate when

    - it is a roadside unit (``is_relevant`` turns those away) or an actor;
    - for an affected segment whose modes admit its mode (or it has none),
      it sits on the segment or an anchor of it is within the segment's
      radius by the table; or
    - it has a mode, and its planned route or its free-flow continuation
      names an affected segment whose modes hold that mode.

    Every relevant device is a candidate, so the result is the one of
    deciding for every device.  A trajectory hit names a segment of the
    predicted trajectory in the device's mode, and that trajectory is a
    suffix of the planned route or the continuation itself; the candidate
    test only drops the horizon.  The area reason is the same distance
    test on the same table.  An actor is in the actor set.
    """
    inf = float("inf")
    devices = sorted(devices, key=lambda d: d.device_id)
    actions = list(actions)
    entries = {e.segment_id: e for e in w.affected}
    areas = []
    # A fleet of roadside units alone holds no relevant device and needs no table.
    if any(d.role != "roadside-unit" for d in devices):
        areas = [(seg_id, entries[seg_id].modes, policy.area_radius[entries[seg_id].seg_class],
                  _end_table(net, seg_id)) for seg_id in sorted(entries)]
    hits: dict[str, set[str]] = {}  # affected segments by mode
    for seg_id, entry in entries.items():
        for mode in entry.modes:
            hits.setdefault(mode, set()).add(seg_id)
    actors: set[str] = set()
    if policy.include_adaptation_actors:
        for action in actions:
            if action.event_id == w.event_id:
                actors.update(action.actor_device_ids())

    def candidate(device: EdgeDevice) -> bool:
        if device.role == "roadside-unit" or device.device_id in actors:
            return True
        pos, mode = device.position, device.mode
        for seg_id, modes, radius, table in areas:
            if mode is not None and mode not in modes:
                continue
            if pos.node is not None:  # its one anchor, at offset 0
                if table.get(pos.node, inf) <= radius:
                    return True
            elif (pos.segment == seg_id
                  or _table_distance(table, _anchor_map(net, pos).items()) <= radius):
                return True
        if mode is None:
            return False
        if device.planned_route is not None:
            route: Iterable[str] = (seg_id for seg_id, _eta in device.planned_route)
        elif device.destination is not None:
            route = _continuation(device, net)
        else:
            return False
        return not hits.get(mode, set()).isdisjoint(route)

    decisions: dict[str, tuple[EdgeDevice, RelevanceDecision]] = {}
    for device in devices:
        if candidate(device):
            decision = is_relevant(w, device, policy, net, actions, now)
            if decision.relevant:
                decisions[device.device_id] = (device, decision)
    rsus = [d for d in devices if d.role == "roadside-unit"]
    baseline = broadcast_baseline(w, devices)

    if not rsus or not decisions:
        return DisseminationRecord(
            warning_id=w.warning_id,
            notified=frozenset(),
            messages_sent=0,
            hops={},
            missed=frozenset(decisions),
            reasons={},
            baseline=baseline,
        )

    def event_distance(rsu: EdgeDevice) -> float:
        anchors = _anchor_map(net, rsu.position).items()
        return min((0.0 if rsu.position.segment == seg_id else _table_distance(table, anchors)
                    for seg_id, _modes, _radius, table in areas), default=inf)

    origin = min(rsus, key=lambda r: (event_distance(r), r.device_id))
    depth, parent = _rsu_reach(rsus, origin.device_id, topology)
    # The reachable units by depth, then id: the order of the serving key.
    reach = sorted(((depth[rsu.device_id], rsu, net.distance_table(_anchor_map(net, rsu.position)))
                    for rsu in rsus if rsu.device_id in depth), key=lambda item: item[0])

    notified: dict[str, int] = {}
    serving: dict[str, str] = {}
    missed: set[str] = set()
    for device_id, (device, _decision) in decisions.items():
        pos = device.position
        anchors = _anchor_map(net, pos).items()
        best_key = None
        for hops, rsu, cover in reach:
            if best_key is not None and hops > best_key[0]:
                break  # no deeper unit serves better
            d = _table_distance(cover, anchors)
            if rsu.position.segment is not None and rsu.position.segment == pos.segment:
                d = min(d, abs(rsu.position.offset - pos.offset))
            if d > max(rsu.comm_range, device.comm_range):
                continue
            key = (hops, d, rsu.device_id)
            if best_key is None or key < best_key:
                best_key = key
        if best_key is None:
            missed.add(device_id)
        else:
            notified[device_id] = best_key[0] + 1
            serving[device_id] = best_key[2]

    relay_edges: set[tuple[str, str]] = set()
    for rsu_id in sorted(set(serving.values())):
        node = rsu_id
        while node != origin.device_id:
            prev = parent[node]
            relay_edges.add((prev, node))
            node = prev

    reasons: dict[str, int] = {}
    for device_id in notified:
        reason = decisions[device_id][1].reason
        reasons[reason] = reasons.get(reason, 0) + 1

    return DisseminationRecord(
        warning_id=w.warning_id,
        notified=frozenset(notified),
        messages_sent=len(relay_edges) + len(notified),
        hops=dict(sorted(notified.items())),
        missed=frozenset(missed),
        reasons=reasons,
        baseline=baseline,
    )


def broadcast_baseline(w: WarningMessage, devices: Iterable) -> int:
    """Message count of the naive flood: one per device."""
    return sum(1 for _ in devices)
