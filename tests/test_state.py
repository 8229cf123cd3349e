"""The capacity overlay and route search reuse against brute-force scans
and fresh searches."""

import dataclasses
import random
from collections import Counter

from mitsim import routing
from mitsim.network import build_network
from mitsim.routing import RoutingPreferences, _search, route
from mitsim.simulation import Traveler
from mitsim.state import Contribution, NetworkState, SimDefaults, WorldState

from conftest import line_network_spec
from generators import CLOCKS, random_contribution, random_network, rebuilt
from oracles import (
    brute_force_assemble,
    brute_force_content,
    brute_force_flows,
    brute_force_mode_arcs,
    brute_force_residual,
    brute_force_traversal_time,
    plan_view,
)

# "ev" starts the other owners' names and ids but owns nothing.
OWNERS = ("ev:a", "ev:a:b", "ev:b", "act")
INF = float("inf")


def check_overlay(state, model):
    """Every residual, traversal time and adjacency equals the full scan."""
    net = state.net
    contributions = list(model.values())
    for seg_id in sorted(net.segments):
        for mode in sorted(net.modes):
            assert state.residual(seg_id, mode) == brute_force_residual(
                contributions, state.clock, seg_id, mode)
            assert state.traversal_time(seg_id, mode) == brute_force_traversal_time(
                net, contributions, state.clock, seg_id, mode)
    for mode in sorted(net.modes):
        flat = brute_force_mode_arcs(net, contributions, state.clock, mode)
        expected = {}
        for arc in flat:
            expected.setdefault(arc.from_node, []).append(arc)
        got = {node: list(arcs) for node, arcs in state.mode_arcs(mode).items()}
        assert got == expected


def fresh_state(state, model, net=None):
    """A new overlay holding the same contributions, in order, at the same
    clock, on ``net`` (default: the same network)."""
    fresh = NetworkState(net or state.net, boarding_wait=state.boarding_wait, clock=state.clock)
    for c in model.values():
        fresh.add_contribution(c)
    return fresh


def hot_pairs(rng, net):
    pairs = [(s, e.mode_id) for s in sorted(net.segments) for e in net.segments[s].usage]
    return rng.sample(pairs, min(2, len(pairs)))


def random_write(rng, net, state, model, step, hot):
    """One random overlay write or clock move, applied to state and model.

    Half the factors and floors land on the ``hot`` pairs, so that several
    stack on one target and the order of their product matters.
    """
    op = rng.choice(["add", "add", "replace", "remove", "remove_owned", "clock"])
    if op in ("add", "replace"):
        if op == "replace" and model:
            cid = rng.choice(sorted(model))
        else:
            cid = f"{rng.choice(OWNERS)}:{step}"
        if rng.random() < 0.5:
            c = random_contribution(
                rng, net, cid, kind=rng.choice(["factor", "factor", "floor"]),
                targets=frozenset(rng.sample(hot, rng.randint(1, len(hot)))))
        else:
            c = random_contribution(rng, net, cid)
        model[cid] = dataclasses.replace(c, owner=cid.rpartition(":")[0])
        state.add_contribution(model[cid])
    elif op == "remove":
        cid = rng.choice(sorted(model) + ["missing"])
        model.pop(cid, None)
        state.remove_contribution(cid)
    elif op == "remove_owned":
        owner = rng.choice(OWNERS + ("ev",))
        for cid in [k for k, c in model.items() if c.owner == owner]:
            del model[cid]
        state.remove_owned(owner)
    else:
        state.clock = rng.choice(CLOCKS)


def test_overlay_matches_brute_force_under_random_writes():
    for seed in range(60):
        rng = random.Random(31_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3)
        state = NetworkState(net, clock=rng.choice(CLOCKS))
        model: dict[str, Contribution] = {}
        check_overlay(state, model)
        hot = hot_pairs(rng, net)
        for step in range(30):
            random_write(rng, net, state, model, step, hot)
            check_overlay(state, model)


def test_reused_searches_equal_fresh_state_searches():
    """Reused searches equal fresh searches on an equal, newly built network."""
    routed = reused = 0
    for seed in range(60):
        rng = random.Random(32_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3)
        other = rebuilt(net)
        waits = {m: rng.choice([0.0, 150.0]) for m in net.modes}
        state = NetworkState(net, boarding_wait=waits, clock=rng.choice(CLOCKS))
        model: dict[str, Contribution] = {}
        prefs = RoutingPreferences(frozenset(net.modes),
                                   transfer_penalty=rng.choice([0.0, 60.0]))
        queries = [tuple(rng.sample(sorted(net.nodes), 2)) for _ in range(3)]
        hot = hot_pairs(rng, net)
        for step in range(20):
            fresh = fresh_state(state, model, other)
            for origin, dest in queries:
                depart = float(rng.randint(0, 400))
                query = (origin, dest, prefs)
                reused += query in state.searches()
                plan = route(origin, dest, depart, prefs, state)
                result = _search(origin, dest, prefs, fresh)
                assert state.searches()[query][0] == result
                assert (plan is None) == (result is None)
                if result is not None:
                    assert plan.moves is state.searches()[query][0]
                    assert repr(plan_view(plan)) == repr(brute_force_assemble(depart, result))
                routed += plan is not None
            random_write(rng, net, state, model, step, hot)
    assert routed >= 1000
    assert reused >= 1000


def test_overlays_with_equal_content_share_one_search(line3, monkeypatch):
    searched = []
    monkeypatch.setattr(routing, "_search", lambda *args: searched.append(args) or _search(*args))
    prefs = RoutingPreferences(frozenset({"car"}))
    slow = Contribution("slow", "factor", frozenset({("s0", "car")}), 0.5, 0.0, 100.0)
    later = Contribution("later", "factor", frozenset({("s1", "car")}), 0.0, 500.0, 600.0)
    a = NetworkState(line3)
    a.add_contribution(slow)
    # another write history and clock, the same active contributions
    b = NetworkState(line3, clock=50.0)
    b.add_contribution(later)
    b.add_contribution(slow)
    assert route("v0", "v2", 0.0, prefs, a).total_cost == 300.0
    assert route("v0", "v2", 50.0, prefs, b).total_cost == 300.0
    assert len(searched) == 1
    assert a.searches() is b.searches()
    # other boarding waits are another content
    c = NetworkState(line3, boarding_wait={"car": 30.0})
    c.add_contribution(slow)
    assert route("v0", "v2", 0.0, prefs, c).total_cost == 330.0
    assert len(searched) == 2
    # a same-id replacement with another value is another content
    a.add_contribution(dataclasses.replace(slow, value=0.25))
    assert route("v0", "v2", 0.0, prefs, a).total_cost == 500.0
    assert len(b.searches()) == 1 and len(searched) == 3
    # back to the pristine content: the first pristine search is reused
    pristine_plan = route("v0", "v2", 0.0, prefs, NetworkState(line3))
    a.remove_contribution("slow")
    assert route("v0", "v2", 0.0, prefs, a) == pristine_plan
    assert len(searched) == 4


def test_route_after_write_or_clock_move(line3):
    prefs = RoutingPreferences(frozenset({"car"}))
    state = NetworkState(line3)
    assert route("v0", "v2", 0.0, prefs, state).total_cost == 200.0
    # a later window leaves the cached plan valid at clock 0
    slow = Contribution("slow", "factor", frozenset({("s0", "car")}), 0.5, 100.0, 200.0)
    state.add_contribution(slow)
    assert route("v0", "v2", 0.0, prefs, state).total_cost == 200.0
    state.clock = 100.0
    moved = route("v0", "v2", 100.0, prefs, state)
    assert moved.total_cost == 300.0
    assert moved == route("v0", "v2", 100.0, prefs, fresh_state(state, {"slow": slow}))
    # a cached search answers any departure with freshly computed times
    later = route("v0", "v2", 123.4, prefs, state)
    assert later == route("v0", "v2", 123.4, prefs, fresh_state(state, {"slow": slow}))
    # a same-id replacement changes no active id but still drops the search
    blocked = Contribution("slow", "factor", frozenset({("s0", "car")}), 0.0, 100.0, 200.0)
    state.add_contribution(blocked)
    assert route("v0", "v2", 100.0, prefs, state) is None
    state.clock = 200.0
    assert route("v0", "v2", 200.0, prefs, state).total_cost == 200.0
    state.remove_contribution("slow")
    state.clock = 150.0
    assert route("v0", "v2", 150.0, prefs, state).total_cost == 200.0


# Contribution edges for the validity-window fuzz; an end equal to its start
# makes a contribution that is never active.
EDGES = (0.0, 50.0, 100.0, 150.0, 200.0)


def windowed_contribution(rng, net, cid):
    """A random factor, floor or usage contribution whose window is empty,
    bounded, or open-ended."""
    start = rng.choice(EDGES)
    end = rng.choice([start, INF] + [e for e in EDGES if e > start])
    c = random_contribution(rng, net, cid)
    return dataclasses.replace(c, start=start, end=end)


def clock_step(rng, state, model):
    """Moves the clock forward, backward, onto an edge of some contribution,
    or just before one; returns the kind of move."""
    edges = sorted({e for c in model.values() for e in (c.start, c.end) if e < INF})
    kind = rng.choice(["forward", "back", "edge", "edge", "before"] if edges
                      else ["forward", "back"])
    if kind == "forward":
        state.clock += rng.choice([1.0, 25.0, 50.0, 120.0])
    elif kind == "back":
        state.clock -= rng.choice([1.0, 25.0, 50.0, 120.0])
    else:
        state.clock = rng.choice(edges) - (kind == "before")
    return kind


def test_search_store_follows_the_content_within_its_validity_window():
    """After every write and every clock move, ``searches()`` is the
    network's store for the content a scan of every contribution gives,
    whether the overlay reuses its store or looks it up again."""
    seen = Counter()
    for seed in range(150):
        rng = random.Random(34_000 + seed)
        net = random_network(rng, max_nodes=8, max_modes=3)
        waits = {m: rng.choice([0.0, 150.0]) for m in net.modes}
        state = NetworkState(net, boarding_wait=waits, clock=rng.choice(EDGES))
        model: dict[str, Contribution] = {}
        content = brute_force_content(state, model.values())
        for step in range(40):
            op = rng.choice(["add", "add", "replace", "remove", "remove_owned",
                             "clock", "clock", "clock", "clock"])
            if op in ("add", "replace"):
                cid = (rng.choice(sorted(model)) if op == "replace" and model
                       else f"{rng.choice(OWNERS)}:{step}")
                model[cid] = dataclasses.replace(windowed_contribution(rng, net, cid),
                                                 owner=cid.rpartition(":")[0])
                state.add_contribution(model[cid])
                seen["empty window"] += model[cid].start == model[cid].end
                seen["open end"] += model[cid].end == INF
            elif op == "remove":
                cid = rng.choice(sorted(model) + ["missing"])
                model.pop(cid, None)
                state.remove_contribution(cid)
            elif op == "remove_owned":
                owner = rng.choice(OWNERS + ("ev",))
                for cid in [k for k, c in model.items() if c.owner == owner]:
                    del model[cid]
                state.remove_owned(owner)
            else:
                op = clock_step(rng, state, model)
            previous, content = content, brute_force_content(state, model.values())
            store = state.searches()
            assert store is net.searches(content), (seed, step, op)
            assert state.searches() is store
            seen[op] += 1
            if op in ("forward", "back", "edge", "before"):
                seen["moved into another content" if content != previous
                     else "moved within the content"] += 1
    assert min(seen.values()) >= 100, seen


def test_searches_keep_the_factor_order(line3):
    # equal active sets inserted in another order are another content
    prefs = RoutingPreferences(frozenset({"car"}))
    factors = [Contribution(cid, "factor", frozenset({("s0", "car")}), value, 0.0, float("inf"))
               for cid, value in (("c", 0.3), ("b", 0.7), ("a", 0.8))]
    plans = []
    for order in (factors, factors[::-1]):
        state = NetworkState(line3)
        for c in order:
            state.add_contribution(c)
        plans.append(route("v0", "v2", 0.0, prefs, state))
        fresh = fresh_state(state, {c.contrib_id: c for c in order}, rebuilt(line3))
        assert plans[-1] == route("v0", "v2", 0.0, prefs, fresh)
    assert plans[0].total_cost != plans[1].total_cost


def test_factors_multiply_in_insertion_order(line3):
    # 0.3 * 0.7 * 0.8 rounds differently from 0.8 * 0.7 * 0.3
    state = NetworkState(line3)
    model = {}
    for cid, value in (("c", 0.3), ("b", 0.7), ("a", 0.8)):
        model[cid] = Contribution(cid, "factor", frozenset({("s0", "car")}),
                                  value, 0.0, float("inf"))
        state.add_contribution(model[cid])
    state.add_contribution(model["a"])  # a replaced id keeps its slot
    expected = brute_force_residual(list(model.values()), 0.0, "s0", "car")
    assert expected != brute_force_residual(state.contributions(), 0.0, "s0", "car")
    assert state.residual("s0", "car") == expected


# Windows around clock 150: active (also from its first second), not yet
# active, and already ended (also on its last second).
WINDOWS = ((100.0, 200.0), (150.0, float("inf")), (200.0, 300.0),
           (0.0, 100.0), (0.0, 150.0))


def test_traversal_time_is_free_flow_over_the_scanned_residual(monkeypatch):
    """Every (segment, mode): the free-flow time over the residual a full
    scan gives, or None when blocked or not usable.  Each overlay holds a
    factor, a floor and a usage contribution in every window, so targets
    that are named only by idle contributions, named by active ones, and
    named by none all occur.  Only named targets read ``residual``."""
    residual = NetworkState.residual
    read = []
    monkeypatch.setattr(NetworkState, "residual",
                        lambda self, s, m: read.append((s, m)) or residual(self, s, m))
    counts = {"untouched": 0, "idle": 0, "active": 0, "opened": 0}
    for seed in range(40):
        rng = random.Random(33_000 + seed)
        net = random_network(rng, max_nodes=10, max_modes=3)
        state = NetworkState(net, clock=150.0)
        for i, (kind, (start, end)) in enumerate(
                (k, w) for k in ("factor", "floor", "usage") for w in WINDOWS):
            c = random_contribution(rng, net, f"c{i}", kind=kind)
            state.add_contribution(dataclasses.replace(c, start=start, end=end))
        contributions = state.contributions()
        for seg_id in sorted(net.segments):
            for mode in sorted(net.modes):
                read.clear()
                got = state.traversal_time(seg_id, mode)
                named = [c for c in contributions if (seg_id, mode) in c.targets]
                free_flow = net.free_flow_times(mode).get(seg_id)
                if free_flow is None:
                    free_flow = min(((c.contrib_id, c.free_flow_time) for c in named
                                     if c.kind == "usage" and c.active(150.0)),
                                    default=(None, None))[1]
                r = brute_force_residual(contributions, 150.0, seg_id, mode)
                assert got == (None if free_flow is None or r <= 0.0 else free_flow / r)
                assert got == brute_force_traversal_time(net, contributions, 150.0,
                                                         seg_id, mode)
                assert read == ([(seg_id, mode)] if named and free_flow is not None else [])
                if not named:
                    counts["untouched"] += 1
                elif not any(c.active(150.0) for c in named):
                    counts["idle"] += 1
                elif net.free_flow_times(mode).get(seg_id) is None:
                    counts["opened"] += free_flow is not None
                else:
                    counts["active"] += 1
    assert min(counts.values()) >= 50, counts


def test_flows_equal_a_scan_of_every_entry(line3):
    """``flows`` counts the traversals of every traveler entered in the
    trailing window; it equals a scan of all of them, traveler order
    included, also for entries at the cutoff and at ``now``."""
    seen = Counter()
    for seed in range(200):
        rng = random.Random(52_000 + seed)
        window = rng.choice([60.0, 100.0, 3600.0])
        world = WorldState(overlay=NetworkState(line3),
                           defaults=SimDefaults(flow_window=window))
        times = []
        for k in range(rng.randint(0, 5)):
            tv = Traveler(f"t{k}", "v0", "v2", 0.0, None)
            for enter in sorted(rng.choice([0.0, 40.0, 60.0, 100.0, 160.0, 200.0, 3600.0,
                                            3700.0]) for _ in range(rng.randint(0, 6))):
                tv.traversals.append((rng.choice(["s0", "s1"]), rng.choice(["car", "bus"]),
                                      enter, enter + 30.0))
                times.append(enter)
            world.travelers[tv.tid] = tv
        for now in (0.0, 60.0, 100.0, 160.0, 200.0, 250.0, 3700.0, 1e9):
            got = world.flows(now)
            expected = brute_force_flows(world.travelers.values(), now, window)
            assert list(got.items()) == list(expected.items())
            seen["at cutoff"] += (now - window) in times
            seen["at now"] += now in times
            seen["empty"] += not got
    assert min(seen.values()) >= 20, seen


def test_a_search_plans_an_opened_segment_at_the_time_it_is_traversed_at():
    """Usage contributions open a segment only to a mode that does not use
    it statically, at the time of the active one with the smallest id: the
    time ``traversal_time`` charges, so a plan's arrival is the one its
    moves take.  A tram runs on ``s0`` at 100 s; ``s1`` is road only."""
    spec = line_network_spec(3)
    spec["modes"].append({"mode_id": "tram", "name": "tram", "category": "tram",
                          "agile": False, "maas_member": False})
    spec["usage_matrix"].append(["tram", "net"])
    spec["segments"][0]["usage"].append({"mode_id": "tram", "direction": "both",
                                         "base_capacity": 100, "free_flow_time": 100.0})
    net = build_network(spec)
    tram = RoutingPreferences(allowed_modes=frozenset({"tram"}))

    def usage(cid, seg_id, free_flow_time):
        return Contribution(cid, "usage", frozenset({(seg_id, "tram")}), 1.0, 0.0, INF,
                            free_flow_time)

    # Street running: s0 opened at 10 s beside its static 100 s, s1 at 10 s.
    state = NetworkState(net)
    state.add_contribution(usage("use:s0", "s0", 10.0))
    state.add_contribution(usage("use:s1", "s1", 10.0))
    plan = route("v0", "v2", 0.0, tram, state)
    assert plan.total_cost == 110.0 == routing.evaluate_moves(0.0, plan.moves, state)[0]
    # Two openings of s1: the plan takes the smaller id's 10 s, not the other's 3 s.
    state = NetworkState(net)
    state.add_contribution(usage("a", "s1", 10.0))
    state.add_contribution(usage("b", "s1", 3.0))
    plan = route("v1", "v2", 0.0, tram, state)
    assert plan.total_cost == 10.0 == routing.evaluate_moves(0.0, plan.moves, state)[0]
    assert state.traversal_time("s1", "tram") == 10.0
