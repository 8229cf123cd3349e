"""The capacity overlay and route search reuse against brute-force scans
and fresh searches."""

import dataclasses
import random

from mitsim import routing
from mitsim.routing import RoutingPreferences, _search, route
from mitsim.state import Contribution, NetworkState

from generators import CLOCKS, random_contribution, random_network, rebuilt
from oracles import (
    brute_force_assemble,
    brute_force_mode_arcs,
    brute_force_residual,
    brute_force_traversal_time,
    plan_view,
)

OWNERS = ("ev:a:", "ev:b:", "act:")


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
            cid = f"{rng.choice(OWNERS)}{step}"
        if rng.random() < 0.5:
            model[cid] = random_contribution(
                rng, net, cid, kind=rng.choice(["factor", "factor", "floor"]),
                targets=frozenset(rng.sample(hot, rng.randint(1, len(hot)))))
        else:
            model[cid] = random_contribution(rng, net, cid)
        state.add_contribution(model[cid])
    elif op == "remove":
        cid = rng.choice(sorted(model) + ["missing"])
        model.pop(cid, None)
        state.remove_contribution(cid)
    elif op == "remove_owned":
        prefix = rng.choice(OWNERS + ("ev:",))
        for cid in [k for k in model if k.startswith(prefix)]:
            del model[cid]
        state.remove_owned(prefix)
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
                assert state.searches()[query] == result
                assert (plan is None) == (result is None)
                if result is not None:
                    assert plan.moves is state.searches()[query]
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
