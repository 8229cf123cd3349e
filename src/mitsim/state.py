"""Mutable world state layered over an immutable network.

The network itself is never modified.  Disturbances and adaptation actions
register *contributions* in a capacity overlay:

* ``factor``  - multiplies the residual capacity fraction of (segment, mode)
  targets; event effects use values in [0, 1], signal-plan boosts may go up
  to 2 but the effective residual is clamped to [0, 1];
* ``floor``   - lower-bounds the effective residual (e.g. police manually
  regulating a dead intersection);
* ``usage``   - temporarily lets a mode use segments it normally cannot
  (rail-replacement services running over road paths).

Every contribution carries an activity window and an owner id, so removing
all contributions restores the pristine network exactly, field for field.

Each write rebuilds an index from (segment, mode) to the contributions that
name it, in insertion order, so ``residual`` reads only its own target's
contributions (an untouched target is 1.0) and multiplies factors in the
same order as a scan of every contribution would.

Route search results live on the network, keyed by the overlay's content
(:meth:`NetworkState.searches`): the boarding waits plus the contributions
active at ``clock``, in insertion order.  Nothing else changes what
``residual``, ``traversal_time`` or ``mode_arcs`` return, so every overlay
on one network with that content, in any run, shares one search per query.
The departure time is not part of the key, because a search result holds
durations only; the caller turns them into times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .network import Arc, MultiLayerNetwork, group_by_from_node

PT_CATEGORIES = frozenset({"bus", "tram", "metro", "train"})


@dataclass(frozen=True)
class Contribution:
    contrib_id: str
    kind: str  # "factor" | "floor" | "usage"
    targets: frozenset[tuple[str, str]]  # (segment_id, mode_id)
    value: float
    start: float
    end: float
    free_flow_time: float = 0.0  # usage only
    capacity: float = 0.0  # usage only

    def active(self, clock: float) -> bool:
        return self.start <= clock < self.end


@dataclass(frozen=True)
class SimDefaults:
    """Tunable model constants, overridable per scenario."""

    d4_extension_threshold: float = 6 * 3600.0
    patience: float = 3600.0
    cav_pickup_threshold: float = 600.0
    police_response_delay: float = 300.0
    police_restore_floor: float = 0.7
    signal_multiplier: float = 1.2
    replacement_vehicle_capacity: float = 60.0
    cav_capacity: float = 8.0
    default_headway: float = 600.0
    cav_boarding_wait: float = 120.0
    transfer_penalty: float = 0.0
    flow_window: float = 3600.0


@dataclass
class PtRoute:
    route_id: str
    mode_id: str
    stops: tuple[str, ...]
    segments: tuple[str, ...]
    headway: float
    priority: bool = False


@dataclass
class CavUnit:
    cav_id: str
    node: str
    available: bool = True


class NetworkState:
    """Capacity overlay bound to a network and a clock."""

    def __init__(
        self,
        net: MultiLayerNetwork,
        boarding_wait: Optional[Mapping[str, float]] = None,
        clock: float = 0.0,
    ):
        self.net = net
        self.clock = clock
        self.boarding_wait = dict(boarding_wait or {})
        self._contributions: dict[str, Contribution] = {}
        self._writes = 0
        self._by_target: dict[tuple[str, str], tuple[Contribution, ...]] = {}
        self._searches_key: Optional[tuple] = None
        self._searches: dict = {}

    # -- contribution management --------------------------------------------

    def add_contribution(self, contribution: Contribution) -> None:
        self._contributions[contribution.contrib_id] = contribution
        self._reindex()

    def remove_contribution(self, contrib_id: str) -> None:
        if self._contributions.pop(contrib_id, None) is not None:
            self._reindex()

    def remove_owned(self, prefix: str) -> None:
        owned = [c for c in self._contributions if c.startswith(prefix)]
        for cid in owned:
            del self._contributions[cid]
        if owned:
            self._reindex()

    def _reindex(self) -> None:
        # A replaced id keeps its slot in _contributions, so rebuilding from
        # it keeps every target's factors in the order residual() multiplies.
        self._writes += 1
        by_target: dict[tuple[str, str], list[Contribution]] = {}
        for c in self._contributions.values():
            for target in c.targets:
                by_target.setdefault(target, []).append(c)
        self._by_target = {t: tuple(cs) for t, cs in by_target.items()}

    def contributions(self) -> list[Contribution]:
        return [self._contributions[k] for k in sorted(self._contributions)]

    def active_contributions(self) -> list[Contribution]:
        return [c for c in self.contributions() if c.active(self.clock)]

    def pristine(self) -> bool:
        return not self.active_contributions()

    def searches(self) -> dict:
        """Route search results valid for the overlay as it is now.

        The network's store for this overlay's content: the boarding waits
        and the active contributions in insertion order, which fix the
        factor order ``residual`` multiplies in.  The content is looked up
        again only when the write counter or the set of ids active at
        ``clock`` has changed since the last call.
        """
        key = (self._writes,
               tuple(cid for cid, c in self._contributions.items() if c.active(self.clock)))
        if key != self._searches_key:
            self._searches_key = key
            self._searches = self.net.searches((tuple(sorted(self.boarding_wait.items())),
                                                tuple(self._contributions[cid] for cid in key[1])))
        return self._searches

    # -- capacity queries ----------------------------------------------------

    def residual(self, segment_id: str, mode_id: str) -> float:
        """Effective residual capacity fraction in [0, 1]."""
        patches = self._by_target.get((segment_id, mode_id))
        if patches is None:
            return 1.0
        factor = 1.0
        floor = 0.0
        for c in patches:
            if not c.active(self.clock):
                continue
            if c.kind == "factor":
                factor *= c.value
            elif c.kind == "floor":
                floor = max(floor, c.value)
        effective = min(1.0, max(0.0, factor))
        return max(effective, min(1.0, floor))

    def residual_map(self) -> dict[tuple[str, str], float]:
        """Residuals for every (segment, mode) pair with base usage."""
        out = {}
        for seg_id in sorted(self.net.segments):
            for entry in self.net.segments[seg_id].usage:
                out[(seg_id, entry.mode_id)] = self.residual(seg_id, entry.mode_id)
        return out

    def traversal_time(self, segment_id: str, mode_id: str) -> Optional[float]:
        """Congested traversal time, or None when impassable.

        Delay follows the reciprocal law: free-flow time divided by the
        residual fraction, with a hard block at residual zero.  A segment
        the mode uses only through usage contributions takes the free-flow
        time of the active one with the smallest id.
        """
        entry = self.net.segments[segment_id].usage_for(mode_id)
        if entry is not None:
            free_flow = entry.free_flow_time
        else:
            opened = min(
                ((c.contrib_id, c.free_flow_time)
                 for c in self._by_target.get((segment_id, mode_id), ())
                 if c.kind == "usage" and c.active(self.clock)),
                default=None,
            )
            if opened is None:
                return None
            free_flow = opened[1]
        r = self.residual(segment_id, mode_id)
        if r <= 0.0:
            return None
        return free_flow / r

    def mode_arcs(self, mode_id: str) -> Mapping[str, Sequence[Arc]]:
        """Directed arcs usable by a mode right now, by from-node.

        The network's static adjacency, unless active usage contributions
        open segments to the mode: then both directions of each such
        segment follow each node's own arcs, in contribution id order.
        """
        opened = []
        for c in self.active_contributions():
            if c.kind != "usage":
                continue
            for seg_id, m in sorted(c.targets):
                if m != mode_id:
                    continue
                seg = self.net.segments[seg_id]
                opened.append(Arc(seg.from_node, seg.to_node, seg_id,
                                  c.free_flow_time, c.capacity, seg.length))
                opened.append(Arc(seg.to_node, seg.from_node, seg_id,
                                  c.free_flow_time, c.capacity, seg.length))
        if not opened:
            return self.net.out_arcs(mode_id)
        return group_by_from_node(self.net.usable_subgraph(mode_id).arcs + tuple(opened))

    def wait_to_board(self, mode_id: str) -> float:
        return self.boarding_wait.get(mode_id, 0.0)


def boarding_waits(
    net: MultiLayerNetwork,
    pt_routes: Iterable[PtRoute],
    defaults: SimDefaults,
) -> dict[str, float]:
    """Expected boarding wait per mode: half the best headway for PT modes,
    a dispatch wait for CAV/taxi, zero otherwise."""
    best_headway: dict[str, float] = {}
    for route in pt_routes:
        cur = best_headway.get(route.mode_id)
        if cur is None or route.headway < cur:
            best_headway[route.mode_id] = route.headway
    waits: dict[str, float] = {}
    for mode in net.modes.values():
        if mode.category in PT_CATEGORIES:
            waits[mode.mode_id] = best_headway.get(mode.mode_id, defaults.default_headway) / 2.0
        elif mode.category == "cav-taxi":
            waits[mode.mode_id] = defaults.cav_boarding_wait
        else:
            waits[mode.mode_id] = 0.0
    return waits


@dataclass
class WorldState:
    """Everything the adaptation planner and the simulator act on."""

    overlay: NetworkState
    devices: dict = field(default_factory=dict)  # device_id -> EdgeDevice
    pt_routes: dict[str, PtRoute] = field(default_factory=dict)
    cavs: dict[str, CavUnit] = field(default_factory=dict)
    defaults: SimDefaults = field(default_factory=SimDefaults)
    advisories: dict[str, list] = field(default_factory=dict)  # device_id -> advisories
    pending_replan: set[str] = field(default_factory=set)
    rebalance_targets: dict[str, tuple[str, ...]] = field(default_factory=dict)
    signal_claims: dict[tuple[str, str], tuple[str, float]] = field(default_factory=dict)
    diversions: dict[str, tuple] = field(default_factory=dict)
    flow_entries: list[tuple[float, str, str]] = field(default_factory=list)

    @property
    def net(self) -> MultiLayerNetwork:
        return self.overlay.net

    @property
    def clock(self) -> float:
        return self.overlay.clock

    def record_flow(self, t: float, segment_id: str, mode_id: str) -> None:
        self.flow_entries.append((t, segment_id, mode_id))

    def flows(self, now: float) -> dict[tuple[str, str], float]:
        """Observed hourly flow per (segment, mode) over the trailing window."""
        window = self.defaults.flow_window
        cutoff = now - window
        counts: dict[tuple[str, str], float] = {}
        for t, seg, mode in self.flow_entries:
            if cutoff < t <= now:
                counts[(seg, mode)] = counts.get((seg, mode), 0.0) + 1.0
        scale = 3600.0 / window
        return {k: v * scale for k, v in counts.items()}
