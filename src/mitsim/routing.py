"""Disruption-aware multimodal journey planning.

Routing runs over (node, mode) states of the multilayer network: segment
traversals stay within a mode, transfers switch modes at multimodal nodes
only.  The optimization objective is a generalized cost in seconds:
in-vehicle time plus waiting plus a per-transfer penalty.  A plan's
``total_cost`` is its door-to-door time (waits and physical transfer times
included, the preference penalty excluded).

Capacity disruptions enter through the overlay: a segment with residual
fraction zero is impassable for that mode, a partially degraded segment is
traversed in ``free_flow_time / residual``.  Ties between equal-cost plans
break deterministically by fewer transfers, then by the lexicographically
smallest segment id sequence, so identical inputs always yield the
identical plan.

A search walks each mode's static per-node adjacency (plus any arcs that
usage contributions open) and reads the overlay only for the arcs it
relaxes.  Its result is a move list whose durations depend on the overlay's
content alone, never on the departure time, so the network keeps it under
``(origin, dest, prefs)`` for every overlay with that content (see
:meth:`NetworkState.searches`).  Every call then times the moves from its
own ``depart``, with the same float operations as a fresh search, so a
reused search yields the plan a new one would.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .state import NetworkState

# Traversal record: (segment_id, enter, exit, to_node).
SegTime = tuple[str, float, float, str]

# Move atoms: ("seg", segment_id, mode_id, to_node)
#             ("transfer", node, from_mode, to_mode, duration)
#             ("wait", duration)
Move = tuple


@dataclass(frozen=True)
class RoutingPreferences:
    allowed_modes: frozenset[str]
    transfer_penalty: float = 0.0
    max_walk: float = float("inf")

    def __post_init__(self):
        if not self.allowed_modes:
            raise ValidationError("routing preferences: allowed_modes empty")


@dataclass(frozen=True)
class Leg:
    mode_id: str
    segments: tuple[str, ...]
    depart: float
    arrive: float
    segment_times: tuple[SegTime, ...]


@dataclass(frozen=True)
class Transfer:
    node: str
    from_mode: str
    to_mode: str
    duration: float  # physical transfer time plus boarding wait


@dataclass(frozen=True)
class JourneyPlan:
    origin: str
    dest: str
    depart: float
    legs: tuple[Leg, ...]
    transfers: tuple[Transfer, ...]
    initial_wait: float
    total_cost: float

    @property
    def arrival(self) -> float:
        return self.depart + self.total_cost

    def segment_etas(self) -> list[tuple[str, float]]:
        """Planned (segment, entry time) pairs, in traversal order."""
        out = []
        for leg in self.legs:
            for seg_id, enter, _exit, _to in leg.segment_times:
                out.append((seg_id, enter))
        return out


def route(
    origin: str,
    dest: str,
    depart: float,
    prefs: RoutingPreferences,
    state: NetworkState,
) -> Optional[JourneyPlan]:
    """Minimum-generalized-cost plan, or None when no feasible plan exists."""
    net = state.net
    for node in (origin, dest):
        if node not in net.nodes:
            raise ValidationError(f"unknown node {node}")
    for mode in prefs.allowed_modes:
        if mode not in net.modes:
            raise ValidationError(f"unknown mode {mode}")
    if origin == dest:
        return JourneyPlan(origin, dest, depart, (), (), 0.0, 0.0)
    searches = state.searches()
    query = (origin, dest, prefs)
    if query not in searches:
        searches[query] = _search(origin, dest, prefs, state)
    moves = searches[query]
    return None if moves is None else _assemble(origin, dest, depart, moves)


def _search(
    origin: str,
    dest: str,
    prefs: RoutingPreferences,
    state: NetworkState,
) -> Optional[tuple[Move, ...]]:
    """Moves of the best plan, or None; independent of the departure time."""
    net = state.net
    # Without a walk limit nothing reads walk_run, so it stays 0.0 and walk
    # states collapse to one label per (node, mode).
    walk_modes = set() if prefs.max_walk == float("inf") else {
        m for m in prefs.allowed_modes if net.modes[m].category == "walk"}
    out_arcs = {mode: state.mode_arcs(mode) for mode in sorted(prefs.allowed_modes)}

    # Dijkstra over (node, mode, walk_run) with key (cost, transfers, seg seq).
    counter = itertools.count()
    labels: dict[tuple, tuple] = {}
    parents: dict[tuple, tuple] = {}
    heap: list[tuple] = []

    def push(st, key, parent, move):
        best = labels.get(st)
        if best is not None and best <= key:
            return
        labels[st] = key
        parents[st] = (parent, move)
        heapq.heappush(heap, (key, next(counter), st))

    for mode in sorted(prefs.allowed_modes):
        if not any(state.residual(arc.segment_id, mode) > 0.0
                   for arc in out_arcs[mode].get(origin, ())):
            continue
        wait = state.wait_to_board(mode)
        push((origin, mode, 0.0), (wait, 0, ()), None, ("start", mode, wait))

    settled: set[tuple] = set()
    goal: Optional[tuple] = None
    while heap:
        key, _, st = heapq.heappop(heap)
        if st in settled or labels.get(st, key) < key:
            continue
        settled.add(st)
        node, mode, walk_run = st
        if node == dest:
            goal = st
            break
        cost, transfers, seq = key
        for arc in out_arcs[mode].get(node, ()):
            if mode in walk_modes:
                new_walk = walk_run + arc.length
                if new_walk > prefs.max_walk:
                    continue
            else:
                new_walk = 0.0
            r = state.residual(arc.segment_id, mode)
            if r <= 0.0:
                continue
            tt = arc.free_flow_time / r
            push(
                (arc.to_node, mode, new_walk),
                (cost + tt, transfers, seq + (arc.segment_id,)),
                st,
                ("seg", arc.segment_id, mode, arc.to_node, tt),
            )
        mn = net.multimodal_nodes.get(node)
        if mn is not None and mode in mn.attached_modes():
            for to_mode in sorted(mn.attached_modes()):
                if to_mode == mode or to_mode not in prefs.allowed_modes:
                    continue
                duration = mn.transfer(mode, to_mode) + state.wait_to_board(to_mode)
                push(
                    (node, to_mode, 0.0),
                    (cost + duration + prefs.transfer_penalty, transfers + 1, seq),
                    st,
                    ("transfer", node, mode, to_mode, duration),
                )

    if goal is None:
        return None
    moves: list[Move] = []
    st = goal
    while st is not None:
        parent, move = parents[st]
        moves.append(move)
        st = parent
    moves.reverse()
    return tuple(moves)


def _assemble(origin: str, dest: str, depart: float, moves: Sequence[Move]) -> JourneyPlan:
    assert moves and moves[0][0] == "start"
    initial_wait = moves[0][2]
    t = depart + initial_wait
    legs: list[Leg] = []
    transfers: list[Transfer] = []
    cur_mode: Optional[str] = moves[0][1]
    cur_segs: list[str] = []
    cur_times: list[SegTime] = []
    leg_depart = t

    def close_leg():
        # A mode passed through between two transfers at one node keeps its
        # empty leg, so transfer i always sits between legs i and i + 1.
        nonlocal cur_segs, cur_times
        legs.append(Leg(
            mode_id=cur_mode,
            segments=tuple(cur_segs),
            depart=leg_depart,
            arrive=t,
            segment_times=tuple(cur_times),
        ))
        cur_segs, cur_times = [], []

    for move in moves[1:]:
        if move[0] == "seg":
            _, seg_id, mode, to_node, tt = move
            enter = t
            t = t + tt
            cur_segs.append(seg_id)
            cur_times.append((seg_id, enter, t, to_node))
        else:
            _, node, from_mode, to_mode, duration = move
            close_leg()
            transfers.append(Transfer(node, from_mode, to_mode, duration))
            t = t + duration
            cur_mode = to_mode
            leg_depart = t
    close_leg()
    return JourneyPlan(
        origin=origin,
        dest=dest,
        depart=depart,
        legs=tuple(legs),
        transfers=tuple(transfers),
        initial_wait=initial_wait,
        total_cost=t - depart,
    )


# -- working with partially executed plans -----------------------------------


def remaining_moves(plan: JourneyPlan, now: float) -> tuple[str, float, list[Move]]:
    """Position, availability time and pending moves of an in-progress plan.

    A traveler inside a segment is committed to reaching its exit node, so
    the returned position is that exit node at the segment's planned exit
    time.  A transfer already underway keeps only its remaining duration.
    Pending segment moves are ``("seg", segment_id, mode_id, to_node)``;
    their durations get re-evaluated against current capacities.
    """
    if not plan.legs:
        return plan.origin, now, []
    timeline: list[tuple[float, float, Move]] = []
    if plan.initial_wait > 0:
        timeline.append((plan.depart, plan.depart + plan.initial_wait,
                         ("wait", plan.initial_wait)))
    for li, leg in enumerate(plan.legs):
        for seg_id, enter, exit_t, to_node in leg.segment_times:
            timeline.append((enter, exit_t, ("seg", seg_id, leg.mode_id, to_node)))
        if li < len(plan.transfers):
            tr = plan.transfers[li]
            timeline.append((
                leg.arrive, leg.arrive + tr.duration,
                ("transfer", tr.node, tr.from_mode, tr.to_mode, tr.duration),
            ))
    position = plan.origin
    avail = now
    pending: list[Move] = []
    for start, end, move in timeline:
        if end <= now:
            if move[0] == "seg":
                position = move[3]
            continue
        if start < now < end:
            if move[0] == "seg":
                position = move[3]
                avail = end
            elif move[0] == "transfer":
                pending.append(("transfer", move[1], move[2], move[3], end - now))
            else:
                pending.append(("wait", end - now))
            continue
        pending.append(move)
    return position, avail, pending


def evaluate_moves(
    start_node: str,
    avail: float,
    moves: Sequence[Move],
    state: NetworkState,
) -> Optional[tuple[float, list[SegTime]]]:
    """Re-time pending moves under current capacities.

    Returns (arrival, traversal records) or None when some pending segment
    is impassable for its mode.
    """
    t = avail
    times: list[SegTime] = []
    for move in moves:
        if move[0] == "seg":
            _, seg_id, mode, to_node = move[0], move[1], move[2], move[3]
            tt = state.traversal_time(seg_id, mode)
            if tt is None:
                return None
            times.append((seg_id, t, t + tt, to_node))
            t = t + tt
        elif move[0] == "transfer":
            t = t + move[4]
        else:
            t = t + move[1]
    return t, times


def plan_to_moves(plan: JourneyPlan) -> list[Move]:
    """Flatten a plan into executable moves, initial wait included."""
    moves: list[Move] = []
    if plan.initial_wait > 0:
        moves.append(("wait", plan.initial_wait))
    for li, leg in enumerate(plan.legs):
        for seg_id, _enter, _exit, to_node in leg.segment_times:
            moves.append(("seg", seg_id, leg.mode_id, to_node))
        if li < len(plan.transfers):
            tr = plan.transfers[li]
            moves.append(("transfer", tr.node, tr.from_mode, tr.to_mode, tr.duration))
    return moves


def reroute(
    plan: JourneyPlan,
    now: float,
    state: NetworkState,
    prefs: RoutingPreferences,
) -> Optional[JourneyPlan]:
    """Replan an in-progress journey if it helps.

    Returns a fresh plan from the current position when the remaining plan
    is infeasible or the fresh plan arrives strictly earlier; returns the
    original plan object otherwise.  Returns None (abandonment) when the
    remaining plan is infeasible and no alternative exists.
    """
    if now >= plan.arrival:
        return plan
    position, avail, pending = remaining_moves(plan, now)
    evaluated = evaluate_moves(position, avail, pending, state)
    candidate = route(position, plan.dest, avail, prefs, state)
    if evaluated is None:
        return candidate  # may be None: no way forward
    remaining_arrival = evaluated[0]
    if candidate is not None and candidate.arrival < remaining_arrival:
        return candidate
    return plan


def is_feasible(plan: JourneyPlan, state: NetworkState, now: float) -> bool:
    """True when every pending segment is passable and transfers remain valid."""
    net = state.net
    for leg in plan.legs:
        for seg_id, _enter, exit_t, _to in leg.segment_times:
            if exit_t <= now:
                continue
            if state.traversal_time(seg_id, leg.mode_id) is None:
                return False
    for li, tr in enumerate(plan.transfers):
        next_leg = plan.legs[li + 1]
        if next_leg.arrive <= now:
            continue
        mn = net.multimodal_nodes.get(tr.node)
        if mn is None:
            return False
        attached = mn.attached_modes()
        if tr.from_mode not in attached or tr.to_mode not in attached:
            return False
    return True
