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
same order as a scan of every contribution would.  The same write records,
per mode, the segments some contribution names (:meth:`NetworkState.
touched`), so the route search asks ``residual`` about those arcs only, and
whether any usage contribution exists, so ``mode_arcs`` hands out the
static adjacency at once while none does.

Route search results live on the network, keyed by the overlay's content
(:meth:`NetworkState.searches`): the boarding waits plus the contributions
active at ``clock``, in insertion order.  Nothing else changes what
``residual``, ``traversal_time`` or ``mode_arcs`` return, so every overlay
on one network with that content, in any run, shares one search per query.
The departure time is not part of the key, because a search result holds
durations only; the caller turns them into times.  The overlay keeps the
store with its validity window: the write count and the clock interval
between contribution edges over which the active set cannot change, so a
repeated lookup within it is two comparisons.

Observed flows are counted from the traversals of the world's travelers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .network import PT_CATEGORIES, Arc, MultiLayerNetwork

_INF = float("inf")
_UNTOUCHED: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Contribution:
    contrib_id: str
    kind: str  # "factor" | "floor" | "usage"
    targets: frozenset[tuple[str, str]]  # (segment_id, mode_id)
    value: float
    start: float
    end: float
    free_flow_time: float = 0.0  # usage only
    owner: str = ""  # what removes it: "ev:<event id>" or an action id

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
    default_headway: float = 600.0
    cav_boarding_wait: float = 120.0
    flow_window: float = 3600.0


@dataclass(frozen=True)
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
        self._touched: dict[str, frozenset[str]] = {}  # mode -> segments named for it
        self._opens = False  # some contribution is a usage one
        self._free_flow: dict[str, Mapping[str, float]] = {}  # net.free_flow_times by mode
        # The store for the content at clocks in [_lo, _hi) after _searches_writes writes.
        self._searches_writes = -1
        self._lo = self._hi = 0.0
        self._searches: dict = {}

    # -- contribution management --------------------------------------------

    def add_contribution(self, contribution: Contribution) -> None:
        self._contributions[contribution.contrib_id] = contribution
        self._reindex()

    def remove_contribution(self, contrib_id: str) -> None:
        if self._contributions.pop(contrib_id, None) is not None:
            self._reindex()

    def remove_owned(self, owner: str) -> None:
        owned = [cid for cid, c in self._contributions.items() if c.owner == owner]
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
        touched: dict[str, set[str]] = {}
        for seg_id, mode_id in by_target:
            touched.setdefault(mode_id, set()).add(seg_id)
        self._touched = {m: frozenset(segs) for m, segs in touched.items()}
        self._opens = any(c.kind == "usage" for c in self._contributions.values())

    def contributions(self) -> list[Contribution]:
        return [self._contributions[k] for k in sorted(self._contributions)]

    def active_contributions(self) -> list[Contribution]:
        return [c for c in self.contributions() if c.active(self.clock)]

    def searches(self) -> dict:
        """Route search results valid for the overlay as it is now: by
        query, the search's moves (None when no plan exists) and the
        (segment, mode) targets whose ``residual`` it asked for.  A
        contribution naming none of those targets cannot have changed it.

        The network's store for this overlay's content: the boarding waits
        and the active contributions in insertion order, which fix the
        factor order ``residual`` multiplies in.  Beside the store the
        overlay keeps the write count and the clock interval ``[lo, hi)``
        over which the active set cannot change: ``lo`` is the latest
        contribution start or end at or before ``clock``, ``hi`` the
        earliest after it.  The content is looked up again only when a
        write was made or ``clock`` has left that interval, so a repeated
        call is two comparisons.  The pair (write count, interval) is an
        O(1) content epoch: the content cannot have changed while both
        hold.
        """
        clock = self.clock
        if self._searches_writes == self._writes and self._lo <= clock < self._hi:
            return self._searches
        lo, hi = -_INF, _INF
        active = []
        for c in self._contributions.values():
            for edge in (c.start, c.end):
                if edge <= clock:
                    if edge > lo:
                        lo = edge
                elif edge < hi:
                    hi = edge
            if c.active(clock):
                active.append(c)
        self._searches_writes, self._lo, self._hi = self._writes, lo, hi
        self._searches = self.net.searches((tuple(sorted(self.boarding_wait.items())),
                                            tuple(active)))
        return self._searches

    def content_end(self) -> float:
        """The end ``hi`` of the clock interval ``searches`` keeps its store
        for: the earliest contribution start or end after ``clock``.  Until
        then, unless a write is made, every ``residual``,
        ``traversal_time`` and ``mode_arcs`` answer stays as it is now."""
        self.searches()
        return self._hi

    def touched(self, mode_id: str) -> frozenset[str]:
        """Ids of the segments some contribution names for ``mode_id``,
        active or not.  Every other segment has residual 1.0 for the mode."""
        return self._touched.get(mode_id, _UNTOUCHED)

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

    def traversal_time(self, segment_id: str, mode_id: str) -> Optional[float]:
        """Congested traversal time, or None when impassable.

        Delay follows the reciprocal law: free-flow time divided by the
        residual fraction, with a hard block at residual zero.  A segment
        the mode uses only through usage contributions takes the free-flow
        time of the active one with the smallest id.  A target no
        contribution names has residual 1.0, so its time is the free-flow
        time itself (``x / 1.0 == x`` for every float).
        """
        patches = self._by_target.get((segment_id, mode_id))
        times = self._free_flow.get(mode_id)
        if times is None:
            times = self._free_flow[mode_id] = self.net.free_flow_times(mode_id)
        free_flow = times.get(segment_id)
        if patches is None:
            return free_flow
        if free_flow is None:
            opened = min(
                ((c.contrib_id, c.free_flow_time) for c in patches
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
        open segments the mode does not use statically: then both
        directions of each such segment follow each node's own arcs, at the
        free-flow time of the active usage contribution with the smallest
        id, the time ``traversal_time`` charges.
        """
        static = self.net.out_arcs(mode_id)
        if not self._opens:
            return static
        times = self.net.free_flow_times(mode_id)
        opened: dict[str, float] = {}  # segment -> its time, in contribution id order
        for c in self.active_contributions():
            if c.kind != "usage":
                continue
            for seg_id, m in sorted(c.targets):
                if m == mode_id and seg_id not in times:
                    opened.setdefault(seg_id, c.free_flow_time)
        if not opened:
            return static
        grouped = {node: list(arcs) for node, arcs in static.items()}
        for seg_id, free_flow in opened.items():
            seg = self.net.segments[seg_id]
            for a, b in ((seg.from_node, seg.to_node), (seg.to_node, seg.from_node)):
                grouped.setdefault(a, []).append(Arc(a, b, seg_id, free_flow, seg.length))
        return grouped

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
    signal_claims: dict[tuple[str, str], tuple[str, float]] = field(default_factory=dict)
    # action id -> the diverted route's record before the diversion
    diversions: dict[str, PtRoute] = field(default_factory=dict)
    # trip id -> Traveler; flows are counted from their traversals
    travelers: dict = field(default_factory=dict)

    @property
    def net(self) -> MultiLayerNetwork:
        return self.overlay.net

    def flows(self, now: float) -> dict[tuple[str, str], float]:
        """Observed hourly flow per (segment, mode) over the trailing window:
        the traversals entered in ``(now - flow_window, now]``."""
        window = self.defaults.flow_window
        counts = Counter((seg, mode) for tv in self.travelers.values()
                         for seg, mode, enter, _exit in tv.traversals
                         if now - window < enter <= now)
        scale = 3600.0 / window
        return {k: v * scale for k, v in counts.items()}
