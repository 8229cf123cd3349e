import json
import math
import random
import time

import pytest

from mitsim.errors import ValidationError
from mitsim.network import build_network
from mitsim.routing import (
    RoutingPreferences,
    _search,
    evaluate_moves,
    route,
)
from mitsim.scenario import load_scenario
from mitsim.simulation import MODE_TARGETED, _Sim
from mitsim.state import Contribution, NetworkState

from conftest import line_network_spec
from generators import (
    random_contribution,
    random_grid_network,
    random_network,
    random_network_spec,
    random_state,
)
from oracles import (
    brute_force_assemble,
    brute_force_route,
    oracle_key,
    plan_key,
    plan_view,
    reference_free_flow_path,
    reference_search,
)

# -- basics ---------------------------------------------------------------------


def test_origin_equals_dest(line3):
    state = NetworkState(line3)
    plan = route("v0", "v0", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan.total_cost == 0.0 and plan.moves == ()


def test_line_graph_unique_path(line3):
    state = NetworkState(line3)
    plan = route("v0", "v2", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan.segments() == ("s0", "s1")
    assert plan.total_cost == 200.0


def test_unknown_node_rejected(line3):
    state = NetworkState(line3)
    with pytest.raises(ValidationError, match="unknown node"):
        route("v0", "nowhere", 0.0, RoutingPreferences(frozenset({"car"})), state)


def test_warm_store_still_checks_nodes_and_modes(line3):
    """route() reads the search store first; queries it does not hold are
    checked as on a cold store and are never stored."""
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    for origin, dest in (("v0", "v2"), ("v2", "v0"), ("v1", "v2")):
        assert route(origin, dest, 0.0, prefs, state) is not None
    stored = dict(state.searches())
    assert len(stored) == 3
    for origin, dest in (("nowhere", "v2"), ("v0", "nowhere"), ("nowhere", "nowhere")):
        with pytest.raises(ValidationError, match="unknown node nowhere"):
            route(origin, dest, 0.0, prefs, state)
    with pytest.raises(ValidationError, match="unknown mode tram"):
        route("v0", "v2", 0.0, RoutingPreferences(frozenset({"car", "tram"})), state)
    stay = route("v2", "v2", 50.0, prefs, state)
    assert stay.total_cost == 0.0 and stay.arrival == 50.0 and stay.moves == ()
    assert state.searches() == stored
    assert route("v0", "v2", 50.0, prefs, state).moves is stored[("v0", "v2", prefs)]


def test_blocked_segment_impassable(line3):
    state = NetworkState(line3)
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("s1", "car")}), 0.0, 0.0, float("inf")))
    plan = route("v0", "v2", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan is None


def test_congestion_scales_traversal_time(line3):
    state = NetworkState(line3)
    state.add_contribution(Contribution(
        "deg", "factor", frozenset({("s0", "car")}), 0.5, 0.0, float("inf")))
    plan = route("v0", "v2", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan.total_cost == 100.0 / 0.5 + 100.0


def test_deterministic_tie_break():
    spec = line_network_spec(2)
    # parallel equal-cost segments: sa and sb
    spec["segments"] = [
        {"segment_id": name, "network_id": "net", "from_node": "v0",
         "to_node": "v1", "length": 1000, "class": "minor",
         "usage": [{"mode_id": "car", "direction": "both",
                    "base_capacity": 1000, "free_flow_time": 100}]}
        for name in ("sb", "sa")
    ]
    net = build_network(spec)
    state = NetworkState(net)
    plan = route("v0", "v1", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan.segments() == ("sa",)
    again = route("v0", "v1", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert again == plan


# -- multimodal specifics -----------------------------------------------------------


def multimodal_toy_spec():
    """Two modes: road around (v0-v1-v2-v3) and metro shortcut (v0-v3)."""
    return {
        "modes": [
            {"mode_id": "car", "name": "car", "category": "private-car",
             "agile": False, "maas_member": False},
            {"mode_id": "metro", "name": "metro", "category": "metro",
             "agile": False, "maas_member": False},
        ],
        "networks": [{"network_id": "road", "name": "road"},
                     {"network_id": "rail", "name": "rail"}],
        "usage_matrix": [["car", "road"], ["metro", "rail"]],
        "nodes": ["v0", "v1", "v2", "v3"],
        "segments": [
            {"segment_id": "r0", "network_id": "road", "from_node": "v0",
             "to_node": "v1", "length": 1000, "class": "minor",
             "usage": [{"mode_id": "car", "direction": "both",
                        "base_capacity": 1000, "free_flow_time": 300}]},
            {"segment_id": "r1", "network_id": "road", "from_node": "v1",
             "to_node": "v2", "length": 1000, "class": "minor",
             "usage": [{"mode_id": "car", "direction": "both",
                        "base_capacity": 1000, "free_flow_time": 300}]},
            {"segment_id": "r2", "network_id": "road", "from_node": "v2",
             "to_node": "v3", "length": 1000, "class": "minor",
             "usage": [{"mode_id": "car", "direction": "both",
                        "base_capacity": 1000, "free_flow_time": 300}]},
            {"segment_id": "m0", "network_id": "rail", "from_node": "v0",
             "to_node": "v3", "length": 2500, "class": "minor",
             "usage": [{"mode_id": "metro", "direction": "both",
                        "base_capacity": 600, "free_flow_time": 400}]},
        ],
        "multimodal_nodes": [
            {"node_id": "v0", "attachments": [["car", "road"], ["metro", "rail"]],
             "transfer_time": {"car,metro": 60, "metro,car": 60}},
            {"node_id": "v3", "attachments": [["car", "road"], ["metro", "rail"]],
             "transfer_time": {"car,metro": 60, "metro,car": 60}},
        ],
    }


def multimodal_toy():
    return build_network(multimodal_toy_spec())


def test_boarding_wait_and_transfer_accounting():
    net = multimodal_toy()
    state = NetworkState(net, boarding_wait={"metro": 150.0, "car": 0.0})
    prefs = RoutingPreferences(frozenset({"car", "metro"}), transfer_penalty=0.0)
    plan = route("v0", "v3", 0.0, prefs, state)
    # metro: 150 wait + 400 ride = 550 beats road 900
    assert plan.total_cost == 550.0
    assert plan.moves == (("start", "metro", 150.0), ("seg", "m0", "metro", "v3", 400.0))


def test_transfer_only_at_multimodal_nodes():
    net = multimodal_toy()
    state = NetworkState(net)
    prefs = RoutingPreferences(frozenset({"car", "metro"}))
    # block the metro: the car path is the only option, no transfer at v1/v2
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("m0", "metro")}), 0.0, 0.0, float("inf")))
    plan = route("v0", "v3", 0.0, prefs, state)
    assert plan.moves[0][1] == "car"
    assert [m[0] for m in plan.moves] == ["start", "seg", "seg", "seg"]


def test_transfer_penalty_discourages_switching():
    net = multimodal_toy()
    state = NetworkState(net, boarding_wait={"metro": 0.0})
    free = route("v0", "v3", 0.0,
                 RoutingPreferences(frozenset({"car", "metro"})), state)
    assert free.total_cost == 400.0  # metro direct
    taxed = route("v0", "v3", 0.0,
                  RoutingPreferences(frozenset({"car", "metro"}),
                                     transfer_penalty=10000.0), state)
    # start mode choice is free of penalty, so metro still wins
    assert taxed.total_cost == 400.0


# -- oracle equivalence ---------------------------------------------------------------


def test_route_matches_brute_force_on_random_networks():
    checked = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3)
        state = random_state(rng, net)
        nodes = sorted(net.nodes)
        origin, dest = rng.sample(nodes, 2)
        prefs = RoutingPreferences(
            allowed_modes=frozenset(net.modes),
            transfer_penalty=rng.choice([0.0, 60.0]),
        )
        plan = route(origin, dest, 0.0, prefs, state)
        oracle = brute_force_route(origin, dest, prefs, state)
        if plan is None:
            assert oracle is None
            continue
        assert oracle is not None
        assert plan_key(plan) == oracle_key(oracle)
        checked += 1
    assert checked >= 30


def test_walk_limit_matches_brute_force():
    checked = 0
    for seed in range(60):
        rng = random.Random(9000 + seed)
        spec = random_network_spec(rng, max_nodes=8, max_modes=2)
        spec["modes"][0].update(category="walk", agile=True)
        net = build_network(spec)
        state = random_state(rng, net)
        origin, dest = rng.sample(sorted(net.nodes), 2)
        prefs = RoutingPreferences(frozenset(net.modes),
                                   max_walk=rng.choice([500.0, 2000.0, 5000.0]))
        plan = route(origin, dest, 0.0, prefs, state)
        oracle = brute_force_route(origin, dest, prefs, state)
        assert (plan is None) == (oracle is None)
        if plan is not None:
            assert plan_key(plan) == oracle_key(oracle)
            checked += 1
    assert checked >= 20


def grid_spec(n, category, rng):
    """n x n single-mode grid with random 15-40 s, 150-250 m segments."""
    spec = line_network_spec(2, mode="m", category=category)
    spec["nodes"] = [f"g{r}_{c}" for r in range(n) for c in range(n)]
    spec["segments"] = [
        {"segment_id": f"s{r}_{c}_{r + dr}_{c + dc}", "network_id": "net",
         "from_node": f"g{r}_{c}", "to_node": f"g{r + dr}_{c + dc}",
         "length": float(rng.randint(150, 250)), "class": "minor",
         "usage": [{"mode_id": "m", "direction": "both", "base_capacity": 1000,
                    "free_flow_time": float(rng.randint(15, 40))}]}
        for r in range(n) for c in range(n)
        for dr, dc in ((0, 1), (1, 0)) if r + dr < n and c + dc < n
    ]
    return spec


def test_unlimited_walk_costs_what_a_car_search_costs():
    walk = build_network(grid_spec(20, "walk", random.Random(5)))
    car = build_network(grid_spec(20, "private-car", random.Random(5)))
    prefs = RoutingPreferences(frozenset({"m"}))
    t0 = time.perf_counter()
    plan = route("g0_0", "g19_19", 0.0, prefs, NetworkState(walk))
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    assert plan == route("g0_0", "g19_19", 0.0, prefs, NetworkState(car))


def test_transfers_chained_at_one_node_keep_their_order():
    # at v1, car -> bus -> metro is cheaper than car -> metro directly
    net = build_network({
        "modes": [{"mode_id": m, "name": m, "category": cat, "agile": False,
                   "maas_member": False}
                  for m, cat in (("car", "private-car"), ("bus", "bus"),
                                 ("metro", "metro"))],
        "networks": [{"network_id": n, "name": n} for n in ("road", "lane", "rail")],
        "usage_matrix": [["car", "road"], ["bus", "lane"], ["metro", "rail"]],
        "nodes": ["v0", "v1", "v2", "v3"],
        "segments": [
            {"segment_id": sid, "network_id": netw, "from_node": a, "to_node": b,
             "length": 1000, "class": "minor",
             "usage": [{"mode_id": m, "direction": "both", "base_capacity": 1000,
                        "free_flow_time": 100}]}
            for sid, netw, m, a, b in (("r0", "road", "car", "v0", "v1"),
                                       ("b0", "lane", "bus", "v1", "v3"),
                                       ("m0", "rail", "metro", "v1", "v2"))
        ],
        "multimodal_nodes": [{
            "node_id": "v1",
            "attachments": [["car", "road"], ["bus", "lane"], ["metro", "rail"]],
            "transfer_time": {"car,bus": 10, "bus,metro": 10, "car,metro": 500,
                              "bus,car": 10, "metro,bus": 10, "metro,car": 500},
        }],
    })
    state = NetworkState(net)
    plan = route("v0", "v2", 0.0, RoutingPreferences(frozenset(net.modes)), state)
    assert [m[:4] for m in plan.moves] == [
        ("start", "car", 0.0), ("seg", "r0", "car", "v1"), ("transfer", "v1", "car", "bus"),
        ("transfer", "v1", "bus", "metro"), ("seg", "m0", "metro", "v2")]
    assert evaluate_moves(0.0, plan.moves, state)[0] == plan.arrival


def test_plans_equal_the_eager_oracle():
    """A routed plan's segment ETAs and total cost, timed from the shared
    search's moves, equal a sum over a fresh search's moves bit for bit."""
    seen = {"plans": 0, "transfers": 0, "chained": 0, "waits": 0, "stay": 0}
    for seed in range(150):
        rng = random.Random(51_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=4)
        state = random_state(rng, net)
        nodes = sorted(net.nodes)
        prefs = RoutingPreferences(frozenset(net.modes),
                                   transfer_penalty=rng.choice([0.0, 0.0, 45.0]))
        for _ in range(6):
            origin, dest = rng.choice(nodes), rng.choice(nodes)
            for depart in (0.0, rng.uniform(0.0, 5000.0), rng.uniform(0.0, 5000.0)):
                plan = route(origin, dest, depart, prefs, state)
                search = _search(origin, dest, prefs, state) if origin != dest else None
                if plan is None:
                    assert search is None
                    continue
                assert repr(plan.moves) == repr(search or ())
                oracle = brute_force_assemble(depart, plan.moves)
                assert repr(plan_view(plan)) == repr(oracle)
                assert plan.arrival == depart + oracle["total_cost"]
                kinds = "".join(m[0][0] for m in plan.moves)
                seen["plans"] += 1
                seen["stay"] += origin == dest
                seen["transfers"] += "t" in kinds
                seen["waits"] += bool(plan.moves) and plan.moves[0][2] > 0
                seen["chained"] += "tt" in kinds
    assert seen["plans"] >= 1500
    assert min(seen.values()) >= 10, seen


def test_plans_share_their_search_without_aliasing(line3):
    """Changing one traveler's move list changes neither the stored search
    nor any other plan of it."""
    state = NetworkState(line3, boarding_wait={"car": 30.0})
    prefs = RoutingPreferences(frozenset({"car"}))
    first = route("v0", "v2", 0.0, prefs, state)
    second = route("v0", "v2", 250.0, prefs, state)
    stored = state.searches()[("v0", "v2", prefs)]
    assert first.moves is second.moves is stored
    expected = (("start", "car", 30.0), ("seg", "s0", "car", "v1", 100.0),
                ("seg", "s1", "car", "v2", 100.0))
    moves = list(first.moves)
    moves.pop(0)
    moves[0] = ("seg", "s1", "car", "v2", 100.0)
    moves.append(("start", "car", 5.0))
    assert stored == expected and first.moves == second.moves == expected
    assert route("v0", "v2", 0.0, prefs, state) == first
    assert first.segment_etas() == (("s0", 30.0), ("s1", 130.0))
    assert second.segment_etas() == (("s0", 280.0), ("s1", 380.0))


def test_feasibility_soundness_of_returned_plans():
    for seed in range(40):
        rng = random.Random(7000 + seed)
        net = random_network(rng)
        state = random_state(rng, net)
        nodes = sorted(net.nodes)
        origin, dest = rng.sample(nodes, 2)
        prefs = RoutingPreferences(allowed_modes=frozenset(net.modes))
        plan = route(origin, dest, 0.0, prefs, state)
        if plan is not None:
            assert evaluate_moves(0.0, plan.moves, state) == (plan.arrival, plan.segment_etas())


def test_monotone_degradation():
    for seed in range(30):
        rng = random.Random(4000 + seed)
        net = random_network(rng)
        state = NetworkState(net)
        nodes = sorted(net.nodes)
        origin, dest = rng.sample(nodes, 2)
        prefs = RoutingPreferences(allowed_modes=frozenset(net.modes))
        before = route(origin, dest, 0.0, prefs, state)
        seg = rng.choice(sorted(net.segments))
        mode = rng.choice([e.mode_id for e in net.segments[seg].usage])
        state.add_contribution(Contribution(
            "cut", "factor", frozenset({(seg, mode)}),
            rng.choice([0.0, 0.5]), 0.0, float("inf")))
        after = route(origin, dest, 0.0, prefs, state)
        cost_before = before.total_cost if before else float("inf")
        cost_after = after.total_cost if after else float("inf")
        assert cost_after >= cost_before


# -- the goal-directed search against plain Dijkstra -------------------------------------


def same_as_reference(origin, dest, prefs, state):
    """``route``'s search result, checked against ``reference_search`` by repr."""
    plan = route(origin, dest, 0.0, prefs, state)
    reference = reference_search(origin, dest, prefs, state)
    assert (plan is None) == (reference is None), (origin, dest, prefs)
    if plan is not None:
        assert repr(plan.moves) == repr(reference), (origin, dest, prefs)
    return plan


def bounded(prefs, state):
    """True when the search runs with landmark bounds: no usage contribution
    opens a segment to an allowed mode."""
    return all(state.mode_arcs(m) is state.net.out_arcs(m) for m in prefs.allowed_modes)


def test_route_equals_the_reference_on_30x30_grids():
    """Integer times make equal-cost plans common; blockages, floors, usage
    contributions, boarding waits and walk limits vary per grid."""
    seen = {"plans": 0, "none": 0, "bounded": 0, "unbounded": 0, "walk_limited": 0,
            "transfers": 0}
    for seed in range(4):
        rng = random.Random(88_000 + seed)
        net = random_grid_network(rng, n=30)
        state = random_state(rng, net, block_prob=0.04)
        for j in range(3):
            state.add_contribution(random_contribution(rng, net, f"floor{j}", kind="floor"))
        for j in range(seed % 2 * rng.randint(1, 3)):
            state.add_contribution(random_contribution(rng, net, f"use{j}", kind="usage"))
        modes = sorted(net.modes)
        nodes = sorted(net.nodes)
        for _ in range(25):
            origin, dest = rng.sample(nodes, 2)
            prefs = RoutingPreferences(
                frozenset(rng.sample(modes, rng.randint(1, len(modes)))),
                transfer_penalty=rng.choice([0.0, 0.0, 30.0]),
                max_walk=rng.choice([float("inf"), float("inf"), 600.0, 2000.0]))
            plan = same_as_reference(origin, dest, prefs, state)
            seen["plans" if plan else "none"] += 1
            seen["bounded" if bounded(prefs, state) else "unbounded"] += 1
            seen["walk_limited"] += prefs.max_walk < float("inf") and "walk" in prefs.allowed_modes
            seen["transfers"] += bool(plan) and any(m[0] == "transfer" for m in plan.moves)
    assert min(seen.values()) >= 5, seen


def test_route_equals_the_reference_on_16_node_networks_with_walk_limits():
    seen = {"plans": 0, "none": 0, "walked": 0}
    for seed in range(300):
        rng = random.Random(89_000 + seed)
        spec = random_network_spec(rng, max_nodes=16, max_modes=3, max_extra_segments=16)
        spec["modes"][0].update(category="walk", agile=True)
        net = build_network(spec)
        state = random_state(rng, net)
        origin, dest = rng.sample(sorted(net.nodes), 2)
        prefs = RoutingPreferences(frozenset(net.modes),
                                   transfer_penalty=rng.choice([0.0, 45.0]),
                                   max_walk=rng.choice([500.0, 2000.0, 5000.0]))
        plan = same_as_reference(origin, dest, prefs, state)
        seen["plans" if plan else "none"] += 1
        seen["walked"] += bool(plan) and any(m[0] == "seg" and m[2] == "m0" for m in plan.moves)
    assert min(seen.values()) >= 30, seen


def segment_network(nodes, segments, mode="car"):
    """One car mode over (segment id, from, to, free-flow time) segments."""
    spec = line_network_spec(2, mode=mode)
    spec["nodes"] = nodes
    spec["segments"] = [
        {"segment_id": seg_id, "network_id": "net", "from_node": a, "to_node": b,
         "length": 100.0, "class": "minor",
         "usage": [{"mode_id": mode, "free_flow_time": fft}]}
        for seg_id, a, b, fft in segments]
    return build_network(spec)


def segments_of(plan):
    return list(plan.segments())


def test_paths_one_ulp_apart_keep_the_cheaper():
    # z then y cost S = 0.3 + 1e-9; a costs one ulp more and has the smaller
    # sequence.  M is 1000 s from D, so P and a's label at M add up to the
    # same g + h: only g says that P, on the cheaper path, goes first.
    cheaper = 0.3 + 1e-9
    net = segment_network(["A", "D", "M", "P"], [
        ("z", "A", "P", 0.3), ("y", "P", "M", 1e-9), ("a", "A", "M", math.nextafter(cheaper, 1.0)),
        ("m", "M", "D", 1000.0)])
    plan = same_as_reference("A", "D", RoutingPreferences(frozenset({"car"})), NetworkState(net))
    assert segments_of(plan) == ["z", "y", "m"]


def test_plans_equal_in_every_key_keep_dijkstras_push_order():
    """A 5 km walk limit on a 6.2 km walk: the walk restarts after a tram
    round trip at B or at C.  Both plans cost 550 s with two transfers over
    the same segments; plain Dijkstra pushes the restart at B first."""
    net = build_network({
        "modes": [{"mode_id": "foot", "name": "foot", "category": "walk"},
                  {"mode_id": "tram", "name": "tram", "category": "tram"}],
        "networks": [{"network_id": "path", "name": "path"},
                     {"network_id": "rail", "name": "rail"}],
        "usage_matrix": [["foot", "path"], ["tram", "rail"]],
        "nodes": ["A", "B", "C", "D"],
        "segments": [
            {"segment_id": sid, "network_id": "path", "from_node": a, "to_node": b,
             "length": length, "usage": [{"mode_id": "foot", "free_flow_time": fft}]}
            for sid, a, b, length, fft in (("ab", "A", "B", 1700.0, 100.0),
                                           ("bc", "B", "C", 1700.0, 200.0),
                                           ("cd", "C", "D", 2800.0, 50.0))],
        "multimodal_nodes": [
            {"node_id": node, "attachments": [["foot", "path"], ["tram", "rail"]],
             "transfer_time": {"foot,tram": 100.0, "tram,foot": 100.0}}
            for node in ("B", "C")],
    })
    prefs = RoutingPreferences(frozenset({"foot", "tram"}), max_walk=5000.0)
    plan = same_as_reference("A", "D", prefs, NetworkState(net))
    assert plan.total_cost == 550.0
    assert [m[1] for m in plan.moves if m[0] == "transfer"] == ["B", "B"]


def test_equal_costs_tie_on_the_sequence_where_a_bound_rounds_up():
    # s4 then s6 cost 0.3 + 0.1, exactly s8's 0.4, and win on the sequence.
    # From landmark v3, v1 and v0 sit at 2.0 + 0.3 and 2.0 + 0.4, so the
    # bound at v1 is 2.4 - 2.3 = 0.10000000000000009, above the 0.1 left.
    net = segment_network(["v0", "v1", "v2", "v3"], [
        ("s4", "v1", "v2", 0.3), ("s6", "v1", "v0", 0.1), ("s8", "v2", "v0", 0.4),
        ("x", "v3", "v2", 2.0)])
    plan = same_as_reference("v2", "v0", RoutingPreferences(frozenset({"car"})),
                             NetworkState(net))
    assert segments_of(plan) == ["s4", "s6"]


def test_a_segment_opened_by_usage_is_found_although_the_bounds_miss_it():
    # The rail segment AD takes 500 s by metro, so the landmark tables put
    # A 300 s from D by road; opened to cars at 1 s it makes O-A-D the best.
    net = build_network({
        "modes": [{"mode_id": "car", "name": "car", "category": "private-car"},
                  {"mode_id": "metro", "name": "metro", "category": "metro"}],
        "networks": [{"network_id": "road", "name": "road"},
                     {"network_id": "rail", "name": "rail"}],
        "usage_matrix": [["car", "road"], ["metro", "rail"]],
        "nodes": ["A", "B", "C", "D", "O", "X"],
        "segments": [
            {"segment_id": sid, "network_id": netw, "from_node": a, "to_node": b,
             "length": 100.0, "usage": [{"mode_id": m, "free_flow_time": fft}]}
            for sid, netw, m, a, b, fft in (
                ("OA", "road", "car", "O", "A", 100.0), ("AB", "road", "car", "A", "B", 100.0),
                ("BC", "road", "car", "B", "C", 100.0), ("CD", "road", "car", "C", "D", 100.0),
                ("OX", "road", "car", "O", "X", 125.0), ("XD", "road", "car", "X", "D", 125.0),
                ("AD", "rail", "metro", "A", "D", 500.0))],
        "multimodal_nodes": [],
    })
    state = NetworkState(net)
    prefs = RoutingPreferences(frozenset({"car"}))
    assert segments_of(route("O", "D", 0.0, prefs, state)) == ["OX", "XD"]
    state.add_contribution(Contribution("shuttle", "usage", frozenset({("AD", "car")}), 1.0,
                                        0.0, float("inf"), free_flow_time=1.0))
    assert not bounded(prefs, state)
    plan = same_as_reference("O", "D", prefs, state)
    assert segments_of(plan) == ["OA", "AD"] and plan.total_cost == 101.0


def test_walk_labels_are_pruned_by_cost_and_walk():
    """A 10 x 10 walk grid, walking at most 2.5 km: the reference keeps one
    label per walked distance and takes most of a second."""
    net = build_network(grid_spec(10, "walk", random.Random(5)))
    prefs = RoutingPreferences(frozenset({"m"}), max_walk=2500.0)
    for dest in ("g9_9", "g6_6"):
        start = time.perf_counter()
        found = _search("g0_0", dest, prefs, NetworkState(net))
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1
        assert repr(found) == repr(reference_search("g0_0", dest, prefs, NetworkState(net)))
        assert (found is None) == (dest == "g9_9")


def test_free_flow_paths_equal_the_reference():
    checked = 0
    for seed in range(40):
        rng = random.Random(90_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3, max_extra_segments=16)
        nodes = sorted(net.nodes)
        for mode in sorted(net.modes):
            for _ in range(8):
                origin, dest = rng.choice(nodes), rng.choice(nodes)
                path = net.free_flow_path(mode, origin, dest)
                assert path == reference_free_flow_path(net, mode, origin, dest)
                checked += bool(path)
    grid = random_grid_network(random.Random(90_100), n=30)
    rng = random.Random(90_101)
    for _ in range(40):
        mode = rng.choice(sorted(grid.modes))
        origin, dest = rng.sample(sorted(grid.nodes), 2)
        path = grid.free_flow_path(mode, origin, dest)
        assert path == reference_free_flow_path(grid, mode, origin, dest)
        checked += bool(path)
    assert checked >= 200


# -- replanning ------------------------------------------------------------------------


def traveler_scenario(spec, origin, dest, modes, depart=0.0):
    """A scenario on ``spec`` whose one device ``tv`` travels from
    ``origin`` to ``dest``, leaving at ``depart``."""
    return load_scenario({
        "seed": 3,
        "end_time": 14400.0,
        "network": spec,
        "demand": {"trips": [], "arrivals": [], "ev_modifiers": []},
        "disturbances": [],
        "detection_sources": [],
        "devices": [{"device_id": "tv", "role": "traveler-app",
                     "position": {"node": origin}, "comm_range": 1000.0,
                     "trip": {"origin": origin, "dest": dest, "depart": depart,
                              "prefs": {"allowed_modes": modes}}}],
        "policies": {"rsu_links": [], "pt_routes": [], "defaults": {}},
    })


def traveler_sim(spec, origin, dest, modes):
    """A ``_Sim`` on ``spec`` whose one device ``tv`` has just left
    ``origin`` for ``dest`` at t = 0."""
    sim = _Sim(traveler_scenario(spec, origin, dest, modes), MODE_TARGETED)
    sim.setup()
    tv = sim.travelers["tv"]
    sim.handle_spawn(0.0, tv)
    return sim, tv


@pytest.mark.parametrize("category, wait", [("bus", 300.0), ("private-car", 0.0)])
def test_first_segment_is_entered_after_the_boarding_wait(category, wait):
    """A bus boards after half the default 600 s headway, a car at once."""
    spec = line_network_spec(3, mode="m", category=category)
    sim = _Sim(traveler_scenario(spec, "v0", "v2", ["m"], depart=500.0), MODE_TARGETED)
    tv = sim.run().trips["tv"]
    t = 500.0 + wait
    assert tv.traversals == [("s0", t, t + 100.0), ("s1", t + 100.0, t + 200.0)]
    assert tv.arrival == t + 200.0


def logged(sim, kind):
    return [line for line in sim.event_log if f'"type":"{kind}"' in line]


def test_reroute_keeps_unaffected_plan():
    sim, tv = traveler_sim(line_network_spec(3), "v0", "v2", ["car"])
    assert tv.current == ("s0", 0.0, 100.0, "v1")
    assert tv.moves == [("seg", "s1", "car", "v2", 100.0)]
    sim._flag_replans({"tv"}, 50.0)
    assert tv.replan_flag
    sim.handle_arrive(100.0, tv, "v1")
    assert not tv.replan_flag and logged(sim, "replan") == []
    assert tv.current == ("s1", 100.0, 200.0, "v2") and tv.moves == []


def test_reroute_blocked_next_segment_no_alternative():
    sim, tv = traveler_sim(line_network_spec(3), "v0", "v2", ["car"])
    sim.world.overlay.add_contribution(Contribution(
        "blk", "factor", frozenset({("s1", "car")}), 0.0, 0.0, float("inf")))
    sim._flag_replans({"tv"}, 50.0)
    sim.handle_arrive(100.0, tv, "v1")
    assert logged(sim, "replan") == []
    assert logged(sim, "blocked") == ['{"t":100.0,"type":"blocked","traveler":"tv","node":"v1"}']
    assert tv.status == "waiting" and tv.moves == [("seg", "s1", "car", "v2", 100.0)]


def test_reroute_adopts_improving_detour():
    modes = ["car", "metro"]
    # From v1 the road (r1, r2) beats going back to the metro at v0.
    keep, keep_tv = traveler_sim(multimodal_toy_spec(), "v1", "v3", modes)
    assert keep_tv.current == ("r1", 0.0, 300.0, "v2")
    assert keep_tv.moves == [("seg", "r2", "car", "v3", 300.0)]
    keep._flag_replans({"tv"}, 100.0)
    keep.handle_arrive(300.0, keep_tv, "v2")
    assert logged(keep, "replan") == [] and keep_tv.current[0] == "r2"
    # r2 degraded so badly that going back to the metro pays off.
    sim, tv = traveler_sim(multimodal_toy_spec(), "v1", "v3", modes)
    overlay = sim.world.overlay
    overlay.add_contribution(Contribution(
        "deg", "factor", frozenset({("r2", "car")}), 0.1, 0.0, float("inf")))
    overlay.clock = 300.0
    sim._flag_replans({"tv"}, 100.0)
    sim.handle_arrive(300.0, tv, "v2")
    (replan,) = [json.loads(line) for line in logged(sim, "replan")]
    seq = (tv.current[0],) + tuple(m[1] for m in tv.moves if m[0] == "seg")
    transfers = sum(m[0] == "transfer" for m in tv.moves)
    oracle = brute_force_route("v2", "v3", RoutingPreferences(frozenset(modes)), overlay)
    assert (replan["arrival_estimate"] - 300.0, transfers, seq) == oracle_key(oracle)
    assert seq == ("r1", "r0", "m0")


def test_is_feasible_cases(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    moves = plan.moves
    assert evaluate_moves(0.0, moves, state) == (200.0, (("s0", 0.0), ("s1", 100.0)))
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("s0", "car")}), 0.0, 0.0, float("inf")))
    assert evaluate_moves(0.0, moves, state) is None
    # already past the blocked first segment: the remaining move is open
    assert evaluate_moves(150.0, moves[2:], state) == (250.0, (("s1", 150.0),))


def test_plan_move_roundtrip(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    assert [m[0] for m in plan.moves] == ["start", "seg", "seg"]
