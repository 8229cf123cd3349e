"""The capacity overlay and route search reuse against brute-force scans."""

import random

from mitsim.routing import RoutingPreferences, route
from mitsim.state import Contribution, NetworkState

from generators import CLOCKS, random_contribution, random_network
from oracles import brute_force_mode_arcs, brute_force_residual, brute_force_traversal_time

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


def fresh_state(state, model):
    """A new overlay holding the same contributions, in order, at the same clock."""
    fresh = NetworkState(state.net, boarding_wait=state.boarding_wait, clock=state.clock)
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
    routed = 0
    for seed in range(60):
        rng = random.Random(32_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3)
        waits = {m: rng.choice([0.0, 150.0]) for m in net.modes}
        state = NetworkState(net, boarding_wait=waits, clock=rng.choice(CLOCKS))
        model: dict[str, Contribution] = {}
        prefs = RoutingPreferences(frozenset(net.modes),
                                   transfer_penalty=rng.choice([0.0, 60.0]))
        queries = [tuple(rng.sample(sorted(net.nodes), 2)) for _ in range(3)]
        hot = hot_pairs(rng, net)
        for step in range(20):
            for origin, dest in queries:
                depart = float(rng.randint(0, 400))
                plan = route(origin, dest, depart, prefs, state)
                assert plan == route(origin, dest, depart, prefs, fresh_state(state, model))
                routed += plan is not None
            random_write(rng, net, state, model, step, hot)
    assert routed >= 1000


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
