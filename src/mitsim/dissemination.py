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
from functools import cached_property
from typing import Iterable, Mapping, Optional

from .errors import ValidationError
from .messages import WarningMessage
# perfbench's tracer tests read the ``node_distances`` binding of this module.
from .network import MultiLayerNetwork, node_distances  # noqa: F401

DEVICE_ROLES = frozenset({
    "vehicle-obu", "traveler-app", "roadside-unit",
    "stop-display", "signal-controller", "nest-controller",
})

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
        if not self.comm_range >= 0:
            raise ValidationError(f"device {self.device_id}: negative comm range")
        if self.planned_route:
            # Led by -inf, so a NaN anywhere fails the check.
            etas = [float("-inf")] + [eta for _seg, eta in self.planned_route]
            if any(not b > a for a, b in zip(etas, etas[1:])):
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
        if not all(b <= a for a, b in zip(order, order[1:])):
            raise ValidationError("area radii must not increase toward lower classes")
        if not self.horizon > 0:
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

TRAJECTORY_HIT = RelevanceDecision(relevant=True, reason="trajectory-hit")
AREA = RelevanceDecision(relevant=True, reason="area")
ADAPTATION_ACTOR = RelevanceDecision(relevant=True, reason="adaptation-actor")


class WarningScope:
    """What the relevance test reads of one warning, built once per warning.

    ``actions`` are the adaptation actions planned for the warning's event;
    each must expose ``event_id`` and ``actor_device_ids()``.
    """

    def __init__(
        self,
        w: WarningMessage,
        policy: RelevancePolicy,
        net: MultiLayerNetwork,
        actions: Iterable,
        now: float,
    ):
        self.net = net
        self.now = now
        self.policy = policy
        self.entries = {e.segment_id: e for e in w.affected}
        self.horizon_end = now + policy.horizon
        self.actors: set[str] = set()
        if policy.include_adaptation_actors:
            for action in actions:
                if action.event_id == w.event_id:
                    self.actors.update(action.actor_device_ids())

    @cached_property
    def areas(self) -> list[tuple[str, tuple[str, ...], float, Mapping[str, float]]]:
        """``(segment id, modes, radius, end distance table)`` of each
        affected segment, in id order.  Built on first read, so a fleet of
        roadside units alone builds no distance table."""
        return [(seg_id, entry.modes, self.policy.area_radius[entry.seg_class],
                 _end_table(self.net, seg_id)) for seg_id, entry in sorted(self.entries.items())]


def is_relevant(scope: WarningScope, device: EdgeDevice) -> RelevanceDecision:
    """Decide whether one device should receive the scope's warning."""
    if device.role == "roadside-unit":
        return NOT_RELEVANT
    mode, entries = device.mode, scope.entries

    if mode is not None:
        for seg_id, eta in predict_trajectory(device, scope.net, scope.now):
            entry = entries.get(seg_id)
            if entry is not None and eta <= scope.horizon_end and mode in entry.modes:
                return TRAJECTORY_HIT

    pos = device.position
    for seg_id, modes, radius, table in scope.areas:
        if mode is not None and mode not in modes:
            continue
        if pos.node is not None:  # its one anchor, at offset 0
            d = table.get(pos.node, float("inf"))
        elif pos.segment == seg_id:
            d = 0.0
        else:
            d = _table_distance(table, _anchor_map(scope.net, pos).items())
        if d <= radius:
            return AREA

    if device.device_id in scope.actors:
        return ADAPTATION_ACTOR
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

    ``is_relevant`` decides for every device, in device-id order.
    """
    devices = sorted(devices, key=lambda d: d.device_id)
    scope = WarningScope(w, policy, net, actions, now)
    decisions: dict[str, tuple[EdgeDevice, RelevanceDecision]] = {}
    for device in devices:
        decision = is_relevant(scope, device)
        if decision.relevant:
            decisions[device.device_id] = (device, decision)
    rsus = [d for d in devices if d.role == "roadside-unit"]

    if not rsus or not decisions:
        return DisseminationRecord(
            warning_id=w.warning_id,
            notified=frozenset(),
            messages_sent=0,
            hops={},
            missed=frozenset(decisions),
            reasons={},
            baseline=len(devices),
        )

    def event_distance(rsu: EdgeDevice) -> float:
        anchors = _anchor_map(net, rsu.position).items()
        return min((0.0 if rsu.position.segment == seg_id else _table_distance(table, anchors)
                    for seg_id, _modes, _radius, table in scope.areas), default=float("inf"))

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
        baseline=len(devices),
    )
