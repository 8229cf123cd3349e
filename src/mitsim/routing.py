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

A search is A* with landmark bounds (see :func:`_search`): it walks each
mode's static per-node adjacency (plus any arcs that usage contributions
open) and reads the overlay only for the arcs it relaxes whose segment some
contribution names (:meth:`NetworkState.touched`); every other arc keeps
its free-flow time, since its residual is 1.0.  Arcs and plans are
``NamedTuple`` records, immutable and cheap to build.  A plan is one
tuple of moves, each with its duration: ``("start", mode, wait)``, then
``("seg", segment_id, mode, to_node, duration)`` and ``("transfer", node,
from_mode, to_mode, duration)`` in order; the plan that stays at its
origin has no moves.  The moves depend on the overlay's content alone,
never on the departure time, so the network keeps them under
``(origin, dest, prefs)`` for every overlay with that content (see
:meth:`NetworkState.searches`).  Every call then sums the durations from
its own ``depart``, with the same float operations as a fresh search, so a
reused search yields the plan a new one would.  Travelers execute the same
moves, and segment times are derived from them when asked for.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .errors import ValidationError
from .state import NetworkState

# One step of a plan (see the module docstring).
Move = tuple


@dataclass(frozen=True)
class RoutingPreferences:
    allowed_modes: frozenset[str]
    transfer_penalty: float = 0.0
    max_walk: float = float("inf")

    def __post_init__(self):
        if not self.allowed_modes:
            raise ValidationError("routing preferences: allowed_modes empty")
        # A negative cost breaks the search's settle order and its bounds.
        if not self.transfer_penalty >= 0:
            raise ValidationError("routing preferences: transfer_penalty must be >= 0")
        if not self.max_walk >= 0:
            raise ValidationError("routing preferences: max_walk must be >= 0")


class JourneyPlan(NamedTuple):
    """A search's moves timed from ``depart``; every plan of one search
    shares its move tuple."""

    origin: str
    dest: str
    depart: float
    moves: tuple[Move, ...]
    total_cost: float

    @property
    def arrival(self) -> float:
        return self.depart + self.total_cost

    def segments(self) -> tuple[str, ...]:
        """Segment ids, in traversal order."""
        return tuple(move[1] for move in self.moves if move[0] == "seg")

    def segment_etas(self) -> tuple[tuple[str, float], ...]:
        """Planned (segment, entry time) pairs, in traversal order."""
        moves = self.moves
        if not moves:
            return ()
        # The same sequential adds from depart as route()'s total.
        t = self.depart + moves[0][2]
        etas = []
        for move in moves[1:]:
            if move[0] == "seg":
                etas.append((move[1], t))
            t = t + move[4]
        return tuple(etas)


def route(
    origin: str,
    dest: str,
    depart: float,
    prefs: RoutingPreferences,
    state: NetworkState,
) -> Optional[JourneyPlan]:
    """Minimum-generalized-cost plan, or None when no feasible plan exists."""
    searches = state.searches()
    query = (origin, dest, prefs)
    entry = searches.get(query)
    if entry is None:
        # Only this branch writes the store, so a stored query has passed
        # these checks against the same network.
        net = state.net
        for node in (origin, dest):
            if node not in net.nodes:
                raise ValidationError(f"unknown node {node}")
        for mode in prefs.allowed_modes:
            if mode not in net.modes:
                raise ValidationError(f"unknown mode {mode}")
        if origin == dest:
            return JourneyPlan(origin, dest, depart, (), 0.0)
        reads: set = set()
        entry = searches[query] = (_search(origin, dest, prefs, state, reads), reads)
    moves = entry[0]
    if moves is None:
        return None
    t = depart + moves[0][2]
    for i in range(1, len(moves)):
        t = t + moves[i][4]
    return JourneyPlan(origin, dest, depart, moves, t - depart)


# The landmark bound is scaled by this factor: the relative margin that keeps
# float rounding from letting a worse label settle first (see _search).
_BOUND_SCALE = 1.0 - 1e-6


def _search(
    origin: str,
    dest: str,
    prefs: RoutingPreferences,
    state: NetworkState,
    reads: Optional[set] = None,
) -> Optional[tuple[Move, ...]]:
    """The best plan's moves, or None; each (segment, mode) whose
    ``residual`` it asks for is added to ``reads``, when given.

    A* over (node, mode, walk run) states with ALT bounds (Goldberg and
    Harrelson, SODA 2005): ``h(v)`` is the largest ``|d_L(dest) - d_L(v)|``
    over the network's landmark tables (:meth:`MultiLayerNetwork.
    landmark_tables`), times ``_BOUND_SCALE``.  Table weights are each
    segment's least free-flow time; a mode's segment costs
    ``free_flow_time / residual`` with ``residual <= 1``, and transfers,
    waits and penalties are >= 0 and stay at their node, so no plan from
    ``v`` costs less than ``h(v)``.  An arc that a usage contribution opens
    may be faster than the tables know: while ``mode_arcs`` returns any
    such arc the bound is zero and the search is Dijkstra's.

    The result equals plain Dijkstra's (``tests/oracles.py``) bit for bit.
    Labels are ordered by (cost, transfers, segment sequence), then by their
    parent label and their place among its pushes, which is the order in
    which Dijkstra's insertion counter meets equal keys.  The heap orders
    them by ``(g + h, label)``.  Two labels of one state share ``h``, and
    rounding ``g + h`` never reverses the order of two ``g``; an equal sum
    falls through to ``g``, so of two labels of one state the better pops
    first.  Along an arc ``g + h`` never falls: exactly, a segment lowers
    the bound by at most its table weight, which its cost is at least, and
    scaling the bound by ``1 - 1e-6`` leaves a slack of a millionth of that
    weight.  The rounding of ``g + h`` and of the
    table sums is a few units in the last place of the plan's cost and of
    the network's free-flow diameter, far below that slack while every
    free-flow time exceeds 1e-9 of them.  So every ancestor of a state's
    best label pops before any worse label of that state, each state
    settles with Dijkstra's label, and the first destination label popped
    is Dijkstra's goal.

    With a finite ``max_walk``, a label is dropped when a label of its
    (node, mode) with no longer a walk run has settled: that one is no
    worse in the order above, and it can make every move the dropped one
    could (Pareto pruning on cost and walk, Martins, EJOR 1984).
    """
    net = state.net
    inf = float("inf")
    # Without a walk limit nothing reads walk_run, so it stays 0.0 and walk
    # states collapse to one label per (node, mode).
    walk_modes = set() if prefs.max_walk == inf else {
        m for m in prefs.allowed_modes if net.modes[m].category == "walk"}
    modes = sorted(prefs.allowed_modes)
    out_arcs = {mode: state.mode_arcs(mode) for mode in modes}
    # Only segments a contribution names can have a residual other than 1.0.
    touched = {mode: state.touched(mode) for mode in modes}
    # mode_arcs hands out the static adjacency itself unless a usage
    # contribution opens arcs to the mode; only then are the bounds unsafe.
    if all(out_arcs[mode] is net.out_arcs(mode) for mode in modes):
        ends = [(table[dest], table) for table in net.landmark_tables()]
    else:
        ends = []
    bounds = {dest: 0.0}

    # label: (g, transfers, segment sequence, parent label, index among the
    # parent's pushes, move, state); a start label's parent is ().
    labels: dict[tuple, tuple] = {}
    # Least walk run settled at each node, per mode.
    walked: dict[str, dict[str, float]] = {mode: {} for mode in modes}
    heap: list[tuple] = []

    def push(st, g, transfers, seq, parent, index, move):
        label = (g, transfers, seq, parent, index, move, st)
        best = labels.get(st)
        if best is not None and best <= label:
            return
        node = st[0]
        h = bounds.get(node)
        if h is None:
            h = 0.0
            for at_dest, table in ends:
                at_node = table[node]
                # Equal ends, both infinite ones included, bound nothing.
                if at_node != at_dest:
                    d = at_dest - at_node if at_dest > at_node else at_node - at_dest
                    if d > h:
                        h = d
            h = bounds[node] = h * _BOUND_SCALE
        if h == inf:  # the destination is unreachable from here
            return
        labels[st] = label
        heapq.heappush(heap, (g + h, label))

    if reads is None:
        reads = set()

    for index, mode in enumerate(modes):
        slowed = touched[mode]
        # reads.add returns None, so each named arc is noted, then read.
        if not any(arc.segment_id not in slowed or reads.add((arc.segment_id, mode))
                   or state.residual(arc.segment_id, mode) > 0.0
                   for arc in out_arcs[mode].get(origin, ())):
            continue
        wait = state.wait_to_board(mode)
        push((origin, mode, 0.0), wait, 0, (), (), index, ("start", mode, wait))

    goal: Optional[tuple] = None
    while heap:
        label = heapq.heappop(heap)[1]
        g, transfers, seq, _parent, _index, _move, st = label
        if labels[st] is not label:
            continue
        node, mode, walk_run = st
        done = walked[mode]
        if walk_run >= done.get(node, inf):
            continue
        done[node] = walk_run
        if node == dest:
            goal = label
            break
        walking = mode in walk_modes
        slowed = touched[mode]
        arcs = out_arcs[mode].get(node, ())
        for index, (_from, to_node, seg_id, tt, length) in enumerate(arcs):
            if walking:
                new_walk = walk_run + length
                if new_walk > prefs.max_walk:
                    continue
            else:
                new_walk = 0.0
            if new_walk >= done.get(to_node, inf):
                continue
            if seg_id in slowed:
                reads.add((seg_id, mode))
                r = state.residual(seg_id, mode)
                if r <= 0.0:
                    continue
                tt = tt / r
            push((to_node, mode, new_walk), g + tt, transfers,
                 seq + (seg_id,), label, index, ("seg", seg_id, mode, to_node, tt))
        mn = net.multimodal_nodes.get(node)
        if mn is not None and mode in mn.modes:
            for index, to_mode in enumerate(mn.modes, len(arcs)):
                if (to_mode == mode or to_mode not in prefs.allowed_modes
                        or walked[to_mode].get(node, inf) <= 0.0):
                    continue
                duration = mn.transfer(mode, to_mode) + state.wait_to_board(to_mode)
                push((node, to_mode, 0.0), g + duration + prefs.transfer_penalty,
                     transfers + 1, seq, label, index,
                     ("transfer", node, mode, to_mode, duration))

    if goal is None:
        return None
    moves: list[Move] = []
    label = goal
    while label:
        moves.append(label[5])
        label = label[3]
    moves.reverse()
    return tuple(moves)


# -- executing plans ----------------------------------------------------------


def evaluate_moves(
    avail: float,
    moves: Sequence[Move],
    state: NetworkState,
) -> Optional[tuple[float, tuple[tuple[str, float], ...]]]:
    """Re-times pending moves from ``avail`` under current capacities.

    Returns (arrival, (segment, entry time) pairs), or None when some
    pending segment is impassable for its mode.  A ``start`` move counts
    its boarding wait; a segment's planned duration is not read.
    """
    t = avail
    etas = []
    for move in moves:
        if move[0] == "seg":
            tt = state.traversal_time(move[1], move[2])
            if tt is None:
                return None
            etas.append((move[1], t))
            t = t + tt
        else:  # a start's wait or a transfer's duration
            t = t + move[-1]
    return t, tuple(etas)
