"""Independent brute-force oracles used by the test and acceptance suites."""

import contextlib
import heapq
import itertools
from collections import Counter

import pytest

from mitsim import dissemination, routing, simulation
from mitsim.cone import affected_devices
from mitsim.dissemination import DevicePosition, DisseminationRecord, predict_trajectory
from mitsim.network import Arc, MultiLayerNetwork, node_distances
from mitsim.simulation import MODE_TARGETED, LeaveOneOut, RunResult, _Sim, run


def brute_force_route(origin, dest, prefs, state):
    """Exhaustive enumeration over simple (node, mode, walk-run) paths.

    Returns (key, total_time) of the best plan under the same generalized
    cost, transfer count and segment sequence ordering, or None.
    """
    net = state.net
    if origin == dest:
        return (0.0, 0, ()), 0.0
    walk_modes = {m for m in prefs.allowed_modes
                  if net.modes[m].category == "walk"}
    arcs = {}
    for m in sorted(prefs.allowed_modes):
        per = {}
        for arc in itertools.chain.from_iterable(state.mode_arcs(m).values()):
            r = state.residual(arc.segment_id, m)
            if r <= 0:
                continue
            per.setdefault(arc.from_node, []).append((arc, arc.free_flow_time / r))
        arcs[m] = per
    best = [None]

    def rec(node, mode, walk, cost, transfers, seq, time, visited):
        if best[0] is not None and cost > best[0][0][0]:
            return
        if node == dest:
            key = (cost, transfers, seq)
            if best[0] is None or key < best[0][0]:
                best[0] = (key, time)
            return
        for arc, tt in arcs[mode].get(node, ()):
            nw = walk + arc.length if mode in walk_modes else 0.0
            if nw > prefs.max_walk:
                continue
            stt = (arc.to_node, mode, nw)
            if stt in visited:
                continue
            rec(arc.to_node, mode, nw, cost + tt, transfers,
                seq + (arc.segment_id,), time + tt, visited | {stt})
        mn = net.multimodal_nodes.get(node)
        if mn is not None and mode in mn.modes:
            for m2 in mn.modes:
                if m2 == mode or m2 not in prefs.allowed_modes:
                    continue
                dur = mn.transfer(mode, m2) + state.wait_to_board(m2)
                stt = (node, m2, 0.0)
                if stt in visited:
                    continue
                rec(node, m2, 0.0, cost + dur + prefs.transfer_penalty,
                    transfers + 1, seq, time + dur, visited | {stt})

    for m in sorted(prefs.allowed_modes):
        if origin not in arcs[m]:
            continue
        wait = state.wait_to_board(m)
        rec(origin, m, 0.0, wait, 0, (), wait, {(origin, m, 0.0)})
    return best[0]


def reference_search(origin, dest, prefs, state, reads=None):
    """Plain Dijkstra over (node, mode, walk run) states, one label per
    state, keyed by (cost, transfers, segment sequence) with ties to the
    first push: the search ``routing._search`` must equal bit for bit.
    Returns the plan's move tuple or None; each (segment, mode) whose
    residual it reads, which is every one it relaxes, is added to
    ``reads``, when given."""
    if reads is None:
        reads = set()
    net = state.net
    # Without a walk limit nothing reads walk_run, so it stays 0.0 and walk
    # states collapse to one label per (node, mode).
    walk_modes = set() if prefs.max_walk == float("inf") else {
        m for m in prefs.allowed_modes if net.modes[m].category == "walk"}
    out_arcs = {mode: state.mode_arcs(mode) for mode in sorted(prefs.allowed_modes)}

    # Dijkstra over (node, mode, walk_run) with key (cost, transfers, seg seq).
    counter = itertools.count()
    labels = {}
    parents = {}
    heap = []

    def push(st, key, parent, move):
        best = labels.get(st)
        if best is not None and best <= key:
            return
        labels[st] = key
        parents[st] = (parent, move)
        heapq.heappush(heap, (key, next(counter), st))

    for mode in sorted(prefs.allowed_modes):
        if not any(reads.add((arc.segment_id, mode))  # None: each arc is noted, then read
                   or state.residual(arc.segment_id, mode) > 0.0
                   for arc in out_arcs[mode].get(origin, ())):
            continue
        wait = state.wait_to_board(mode)
        push((origin, mode, 0.0), (wait, 0, ()), None, ("start", mode, wait))

    settled = set()
    goal = None
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
            reads.add((arc.segment_id, mode))
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
        if mn is not None and mode in mn.modes:
            for to_mode in mn.modes:
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
    moves = []
    st = goal
    while st is not None:
        parent, move = parents[st]
        moves.append(move)
        st = parent
    moves.reverse()
    return tuple(moves)


def reference_free_flow_path(net, mode_id, origin, dest):
    """Dijkstra over one mode's static arcs keyed by (free-flow time, segment
    sequence): the path ``MultiLayerNetwork.free_flow_path`` must return."""
    if origin == dest:
        return ()
    out = net.out_arcs(mode_id)
    best = {origin: (0.0, ())}
    heap = [(0.0, (), origin)]
    while heap:
        cost, seq, node = heapq.heappop(heap)
        if best.get(node, (cost, seq)) < (cost, seq):
            continue
        if node == dest:
            return seq
        for arc in out.get(node, ()):
            key = (cost + arc.free_flow_time, seq + (arc.segment_id,))
            if arc.to_node in best and best[arc.to_node] <= key:
                continue
            best[arc.to_node] = key
            heapq.heappush(heap, (key[0], key[1], arc.to_node))
    return None


def brute_force_residual_map(state):
    """``brute_force_residual`` of every (segment, mode) pair with base
    usage, scanning the overlay's contributions in id order."""
    contributions = state.contributions()
    return {(seg_id, entry.mode_id): brute_force_residual(
                contributions, state.clock, seg_id, entry.mode_id)
            for seg_id in sorted(state.net.segments)
            for entry in state.net.segments[seg_id].usage}


def brute_force_content(state, inserted):
    """The overlay content ``state``'s search store must be keyed by: its
    boarding waits, sorted, then the contributions active at its clock in
    insertion order, by a scan of every one.  The overlay lists its
    contributions only in id order, so the caller passes them as it
    inserted them (``inserted``)."""
    clock = state.clock
    return (tuple(sorted(state.boarding_wait.items())),
            tuple(c for c in inserted if c.start <= clock < c.end))


def brute_force_residual(contributions, clock, segment_id, mode_id):
    """Scan every contribution, in insertion order, for one target."""
    factor = 1.0
    floor = 0.0
    for c in contributions:
        if not c.active(clock) or (segment_id, mode_id) not in c.targets:
            continue
        if c.kind == "factor":
            factor *= c.value
        elif c.kind == "floor":
            floor = max(floor, c.value)
    effective = min(1.0, max(0.0, factor))
    return max(effective, min(1.0, floor))


def brute_force_traversal_time(net, contributions, clock, segment_id, mode_id):
    """Free-flow time over residual; a segment the mode uses only through
    usage contributions takes the active one with the smallest id."""
    r = brute_force_residual(contributions, clock, segment_id, mode_id)
    entry = net.segments[segment_id].usage_for(mode_id)
    if entry is not None:
        return None if r <= 0.0 else entry.free_flow_time / r
    for c in sorted(contributions, key=lambda c: c.contrib_id):
        if c.active(clock) and c.kind == "usage" and (segment_id, mode_id) in c.targets:
            return None if r <= 0.0 else c.free_flow_time / r
    return None


def brute_force_mode_arcs(net, contributions, clock, mode_id):
    """The mode's base arcs (each segment's in id order, forward before
    backward, as its first usage entry for the mode directs), then both
    directions of every segment the mode has no base usage on that an
    active usage contribution opens to it, once, at the free-flow time of
    the one with the smallest id, in contribution id order."""
    arcs = []
    opened = set()
    for seg_id in sorted(net.segments):
        seg = net.segments[seg_id]
        entry = seg.usage_for(mode_id)
        if entry is None:
            continue
        if entry.direction in ("forward", "both"):
            arcs.append(Arc(seg.from_node, seg.to_node, seg_id, entry.free_flow_time, seg.length))
        if entry.direction in ("backward", "both"):
            arcs.append(Arc(seg.to_node, seg.from_node, seg_id, entry.free_flow_time, seg.length))
    for c in sorted(contributions, key=lambda c: c.contrib_id):
        if c.kind != "usage" or not c.active(clock):
            continue
        for seg_id, m in sorted(c.targets):
            seg = net.segments[seg_id]
            if m == mode_id and seg.usage_for(mode_id) is None and seg_id not in opened:
                opened.add(seg_id)
                arcs.append(Arc(seg.from_node, seg.to_node, seg_id,
                                c.free_flow_time, seg.length))
                arcs.append(Arc(seg.to_node, seg.from_node, seg_id,
                                c.free_flow_time, seg.length))
    return arcs


def brute_force_assemble(depart, moves):
    """A plan's segment ETAs and total cost, summed from ``depart`` in move
    order.  ``moves`` is empty for an origin == dest plan."""
    if not moves:
        return {"segment_etas": (), "total_cost": 0.0}
    assert moves[0][0] == "start"
    t = depart + moves[0][2]
    etas = []
    for move in moves[1:]:
        if move[0] == "seg":
            etas.append((move[1], t))
        t = t + move[4]
    return {"segment_etas": tuple(etas), "total_cost": t - depart}


def brute_force_canon(obj):
    """Log-line canonical copy, one call per value: floats rounded to 6
    decimals, tuples made lists, every container copied."""
    if isinstance(obj, dict):
        return {k: brute_force_canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [brute_force_canon(v) for v in obj]
    return round(obj, 6) if isinstance(obj, float) else obj


def plan_view(plan):
    """The ``brute_force_assemble`` fields, read through a plan's own API."""
    return {"segment_etas": plan.segment_etas(), "total_cost": plan.total_cost}


def plan_key(plan):
    """(door-to-door time, transfers, segment sequence) of a plan."""
    moves = plan.moves
    return (plan.total_cost, sum(m[0] == "transfer" for m in moves),
            tuple(m[1] for m in moves if m[0] == "seg"))


def oracle_key(oracle):
    """``plan_key`` of the plan ``brute_force_route`` found.

    Time, transfers and sequence fix the generalized cost as well.  It is
    not compared itself: ``time + penalty * transfers`` and the searches'
    running sum add the same terms in another order, which can differ in
    the last bit.
    """
    (_cost, transfers, seq), time = oracle
    return (time, transfers, seq)


def brute_force_flows(travelers, now, window):
    """Hourly flow per (segment, mode) over ``(now - window, now]``, by a
    scan of every traversal of every traveler, in traveler order."""
    counts = {}
    for tv in travelers:
        for seg, mode, enter, _exit in tv.traversals:
            if now - window < enter <= now:
                counts[(seg, mode)] = counts.get((seg, mode), 0.0) + 1.0
    return {k: v * (3600.0 / window) for k, v in counts.items()}


def brute_force_node_distances(net, sources):
    """Bellman-Ford over the segment list, both directions of every segment.

    ``sources`` maps each source node to its initial distance.
    """
    dist = dict(sources)
    changed = True
    while changed:
        changed = False
        for seg in net.segments.values():
            for a, b in ((seg.from_node, seg.to_node), (seg.to_node, seg.from_node)):
                if a in dist and dist[a] + seg.length < dist.get(b, float("inf")):
                    dist[b] = dist[a] + seg.length
                    changed = True
    return dist


def brute_force_free_flow_path(net, mode_id, origin, dest):
    """Least (free-flow time, segment sequence) over every simple path of
    one mode, with arcs read from the segments' usage directions."""
    out = {}
    for seg_id in sorted(net.segments):
        seg = net.segments[seg_id]
        entry = seg.usage_for(mode_id)
        if entry is None:
            continue
        if entry.direction in ("forward", "both"):
            out.setdefault(seg.from_node, []).append((seg.to_node, seg_id, entry.free_flow_time))
        if entry.direction in ("backward", "both"):
            out.setdefault(seg.to_node, []).append((seg.from_node, seg_id, entry.free_flow_time))
    best = [None]

    def rec(node, cost, seq, visited):
        if node == dest:
            if best[0] is None or (cost, seq) < best[0]:
                best[0] = (cost, seq)
            return
        for to, seg_id, fft in out.get(node, ()):
            if to not in visited:
                rec(to, cost + fft, seq + (seg_id,), visited | {to})

    rec(origin, 0.0, (), {origin})
    return None if best[0] is None else best[0][1]


def anchor_map(net, pos):
    """A position's nearest nodes with the meters to each."""
    if pos.node is not None:
        return {pos.node: 0.0}
    seg = net.segments[pos.segment]
    off = min(max(pos.offset, 0.0), seg.length)
    return {seg.from_node: off, seg.to_node: seg.length - off}


def position_node_distances(net, pos):
    """Along-network distance from a device position to every node."""
    return node_distances(net, anchor_map(net, pos))


def distance_to_segment(net, pos, segment_id):
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


def position_distance(net, a, b):
    """Along-network meters between two positions."""
    if a.segment is not None and a.segment == b.segment:
        direct = abs(a.offset - b.offset)
    else:
        direct = float("inf")
    dist = position_node_distances(net, a)
    via_nodes = min(
        (dist.get(anchor, float("inf")) + extra
         for anchor, extra in anchor_map(net, b).items()),
        default=float("inf"),
    )
    return min(direct, via_nodes)


def brute_force_relevant(w, device, policy, net, actions, now):
    """Relevance reason of one device, with one forward Dijkstra from the
    device's own position for the area test."""
    if device.role == "roadside-unit":
        return "none"
    entries = {e.segment_id: e for e in w.affected}
    if device.mode is not None:
        for seg_id, eta in predict_trajectory(device, net, now):
            entry = entries.get(seg_id)
            if entry is not None and eta <= now + policy.horizon and device.mode in entry.modes:
                return "trajectory-hit"
    dist = position_node_distances(net, device.position)
    for seg_id in sorted(entries):
        entry = entries[seg_id]
        if device.mode is not None and device.mode not in entry.modes:
            continue
        seg = net.segments[seg_id]
        if device.position.segment == seg_id:
            d = 0.0
        else:
            d = min(dist.get(seg.from_node, float("inf")), dist.get(seg.to_node, float("inf")))
        if d <= policy.area_radius[entry.seg_class]:
            return "area"
    if policy.include_adaptation_actors:
        for action in actions:
            if action.event_id == w.event_id and device.device_id in action.actor_device_ids():
                return "adaptation-actor"
    return "none"


def oracle_notified(w, devices, topology, policy, net, actions, now):
    """Brute force: the relevance set intersected with the reachable set."""
    hops, _messages, missed = oracle_delivery(w, devices, topology, policy, net, actions, now)
    return set(hops), missed


def oracle_delivery(w, devices, topology, policy, net, actions, now):
    """Brute force: (hops of each notified device, messages sent, missed).

    Each relevant device is served by the reachable unit in range with the
    least (depth, along-network distance, id); a message goes over every
    relay tree edge on the path to a serving unit, plus one per notified
    device.
    """
    relevant = {
        d.device_id for d in devices
        if brute_force_relevant(w, d, policy, net, actions, now) != "none"
    }
    rsus = sorted((d for d in devices if d.role == "roadside-unit"),
                  key=lambda d: d.device_id)
    if not rsus or not relevant:
        return {}, 0, relevant

    def event_distance(rsu):
        return min(distance_to_segment(net, rsu.position, e.segment_id)
                   for e in w.affected)

    origin = min(rsus, key=lambda r: (event_distance(r), r.device_id))
    ids = {r.device_id for r in rsus}
    depth = {origin.device_id: 0}
    parent = {}
    frontier = [origin.device_id]
    while frontier:
        nxt = []
        for u in frontier:
            if depth[u] >= topology.max_hops:
                continue
            for v in sorted(topology.adjacency.get(u, ())):
                if v in ids and v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    by_id = {d.device_id: d for d in devices}
    hops = {}
    edges = set()
    for did in sorted(relevant):
        dev = by_id[did]
        served = []
        for rid in depth:
            rsu = by_id[rid]
            dist = position_distance(net, rsu.position, dev.position)
            if dist <= max(rsu.comm_range, dev.comm_range):
                served.append((depth[rid], dist, rid))
        if served:
            _depth, _dist, node = min(served)
            hops[did] = depth[node] + 1
            while node != origin.device_id:
                edges.add((parent[node], node))
                node = parent[node]
    return hops, len(edges) + len(hops), relevant - set(hops)


class PerArrivalSim(_Sim):
    """The simulator with one heap entry per arrival, every entry on one
    heap and a global counter for ties: the reference for the order in
    which ``_Sim.run`` serves its entries and for the arrivals it handles
    in place.

    ``run`` puts the entries ``setup`` scheduled back into the heap and pops
    only the heap, in ``(t, seq)`` order.  ``popped`` lists the ``(t, seq)``
    of every entry run, and ``setup_count`` how many entries setup made
    (they hold the seqs below it), so a test can see which ties it met.
    """

    def schedule(self, t, kind, payload):
        heapq.heappush(self.heap, (t, next(self.seq), kind, payload))

    def run(self):
        self.seq = itertools.count()
        self.setup()
        heap = self.setup_entries + self.heap
        heapq.heapify(heap)
        self.setup_entries, self.heap = [], heap
        self.setup_count = len(heap)
        self.popped = []
        end_time = self.scenario.end_time
        handlers = {name[len("handle_"):]: getattr(self, name)
                    for name in dir(self) if name.startswith("handle_")}
        while heap:
            t, seq, kind, payload = heapq.heappop(heap)
            if t > end_time:
                break
            self.popped.append((t, seq))
            self.world.overlay.clock = t
            handlers[kind](t, *payload)
        self.world.overlay.clock = end_time
        self._finalize()
        return RunResult(
            config=self.config, metrics=self.metrics, event_log=self.event_log,
            warning_log=self.warning_log, action_log=self.action_log,
            trips=self.world.travelers, records=self.records,
            notified_mobile=self.notified_mobile, influence=self.influence,
        )

    def _advance(self, tv, t, device):
        tv.status = "moving"
        if tv.replan_flag:
            self._replan(tv, t)
        while True:
            if not tv.moves:
                self._complete(tv, t)
                return
            move = tv.moves[0]
            if move[0] == "start":
                tv.moves.pop(0)
                if move[2] > 0:
                    self.schedule(t + move[2], "arrive", (tv, tv.node))
                    return
                continue
            if move[0] == "transfer":
                tv.moves.pop(0)
                _, node, _from_mode, to_mode, duration = move
                if device is not None:
                    device.mode = to_mode
                self.schedule(t + duration, "arrive", (tv, node))
                return
            _, seg_id, mode, to_node, _planned = move
            tt = self.world.overlay.traversal_time(seg_id, mode)
            if tt is None:
                overlay = self.world.overlay
                candidate = routing.route(tv.node, tv.dest, t, tv.prefs, overlay)
                if self.owners and tv.device_id is not None:
                    entry = overlay.searches().get((tv.node, tv.dest, tv.prefs))
                    self.influence.read(tv.device_id, t, () if entry is None else entry[1],
                                        (move,))
                if candidate is None:
                    self._start_waiting(tv, t)
                    return
                self._adopt(tv, candidate, t)
                continue
            tv.moves.pop(0)
            if device is not None:
                device.mode = mode
            tv.node = None
            tv.traversals.append((seg_id, mode, t, t + tt))
            self.schedule(t + tt, "arrive", (tv, to_node))
            return

    def handle_arrive(self, t, tv, node):
        tv.node = node
        device = self.world.devices.get(tv.device_id) if tv.device_id else None
        if device is not None:
            device.position = DevicePosition(node=node)
            if self.owners:
                self.influence.read(tv.device_id, t, moves=tv.moves)
            evaluated = routing.evaluate_moves(t, tv.moves, self.world.overlay)
            if evaluated is not None:
                device.planned_route = evaluated[1] or None
        self._advance(tv, t, device)


class PerArrivalLeaveOneOut(PerArrivalSim, LeaveOneOut):
    """``LeaveOneOut`` on the per-arrival engine."""


@contextlib.contextmanager
def per_arrival_mode():
    """Runs, and the partial leave-one-out runs ``compare`` makes, on the
    per-arrival engine (``PerArrivalSim``), for one block; every other
    fast path stays.  Outputs made inside must equal, byte for byte, those
    made outside."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulation, "_Sim", PerArrivalSim)
        patch.setattr(simulation, "LeaveOneOut", PerArrivalLeaveOneOut)
        yield


def reference_distribute(w, devices, topology, policy, net, actions, now):
    """The record ``dissemination.distribute`` must give, from the
    brute-force relevance and delivery oracles."""
    devices = list(devices)
    by_id = {d.device_id: d for d in devices}
    hops, messages, missed = oracle_delivery(w, devices, topology, policy, net, actions, now)
    reasons = Counter(brute_force_relevant(w, by_id[d], policy, net, actions, now) for d in hops)
    return DisseminationRecord(
        warning_id=w.warning_id, notified=frozenset(hops), messages_sent=messages,
        missed=frozenset(missed), reasons=dict(reasons), baseline=len(devices))


def reference_ground_truth(event, scenario, base_result=None):
    """The devices ``event`` affected, from a full run without it: the
    answer ``simulation.ground_truth_affected`` must give."""
    with_event = base_result if base_result is not None else run(scenario, MODE_TARGETED)
    without = run(scenario.without_event(event.event_id), MODE_TARGETED)
    return affected_devices(event, with_event.trips, without.trips)


@contextlib.contextmanager
def reference_mode():
    """Every fast path swapped for its oracle, for one block:

    - the route search for ``reference_search`` and free-flow paths for
      ``reference_free_flow_path``;
    - the network's search store for a fresh dict per overlay content;
    - ``_Sim`` for ``PerArrivalSim`` (one entry per arrival);
    - ``distribute`` for ``reference_distribute`` (brute-force relevance
      and delivery);
    - ground truth for ``reference_ground_truth`` (a full run per event).

    Outputs made inside must equal, byte for byte, those made outside.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(routing, "_search", reference_search)
        patch.setattr(MultiLayerNetwork, "free_flow_path", reference_free_flow_path)
        patch.setattr(MultiLayerNetwork, "searches", lambda net, metric: {})
        patch.setattr(simulation, "_Sim", PerArrivalSim)
        patch.setattr(dissemination, "distribute", reference_distribute)
        patch.setattr(simulation, "ground_truth_affected", reference_ground_truth)
        yield
