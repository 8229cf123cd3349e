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
    seg = net.segments[segment_id]
    table = net.distance_table({seg.from_node: 0.0, seg.to_node: 0.0})
    return min(table.get(anchor, float("inf")) + extra
               for anchor, extra in _anchor_map(net, pos).items())


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
    start, head = _continuation_start(device, net, now)
    if start is None:
        return head
    path = net.free_flow_path(device.mode, start, device.destination)
    if path is None:
        return head
    t = head[-1][1] + _mode_time(net, head[-1][0], device.mode) if head else now
    out = list(head)
    for seg_id in path:
        out.append((seg_id, t))
        t += _mode_time(net, seg_id, device.mode)
    return out


def _mode_time(net: MultiLayerNetwork, seg_id: str, mode: str) -> float:
    entry = net.segments[seg_id].usage_for(mode)
    return entry.free_flow_time if entry is not None else 0.0


def _continuation_start(device, net, now):
    pos = device.position
    if pos.node is not None:
        return pos.node, []
    seg = net.segments[pos.segment]
    # committed to finishing the current segment first
    if seg.usage_for(device.mode) is not None:
        return seg.to_node, [(seg.segment_id, now)]
    return seg.to_node, []


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
    """
    devices = sorted(devices, key=lambda d: d.device_id)
    actions = list(actions)
    decisions: dict[str, RelevanceDecision] = {}
    for device in devices:
        decision = is_relevant(w, device, policy, net, actions, now)
        if decision.relevant:
            decisions[device.device_id] = decision
    by_id = {d.device_id: d for d in devices}
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

    affected_segs = sorted({e.segment_id for e in w.affected})

    def rsu_event_distance(rsu: EdgeDevice) -> float:
        return min((_segment_distance(net, rsu.position, seg_id)
                    for seg_id in affected_segs), default=float("inf"))

    origin = min(rsus, key=lambda r: (rsu_event_distance(r), r.device_id))
    depth, parent = _rsu_reach(rsus, origin.device_id, topology)

    rsu_cover = {rsu.device_id: net.distance_table(_anchor_map(net, rsu.position))
                 for rsu in rsus if rsu.device_id in depth}

    notified: dict[str, int] = {}
    serving: dict[str, str] = {}
    missed: set[str] = set()
    for device_id in sorted(decisions):
        device = by_id[device_id]
        best_key = None
        best_rsu = None
        for rsu_id in sorted(rsu_cover):
            rsu = by_id[rsu_id]
            d = min(
                rsu_cover[rsu_id].get(anchor, float("inf")) + extra
                for anchor, extra in _anchor_map(net, device.position).items()
            )
            if rsu.position.segment is not None and rsu.position.segment == device.position.segment:
                d = min(d, abs(rsu.position.offset - device.position.offset))
            if d > max(rsu.comm_range, device.comm_range):
                continue
            key = (depth[rsu_id], d, rsu_id)
            if best_key is None or key < best_key:
                best_key = key
                best_rsu = rsu_id
        if best_rsu is None:
            missed.add(device_id)
        else:
            serving[device_id] = best_rsu
            notified[device_id] = depth[best_rsu] + 1

    relay_edges: set[tuple[str, str]] = set()
    for rsu_id in sorted(set(serving.values())):
        node = rsu_id
        while node != origin.device_id:
            prev = parent[node]
            relay_edges.add((prev, node))
            node = prev

    reasons: dict[str, int] = {}
    for device_id in notified:
        reason = decisions[device_id].reason
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
