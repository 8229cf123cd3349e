import random
import time

import pytest

from mitsim.errors import ValidationError
from mitsim.network import build_network
from mitsim.routing import (
    RoutingPreferences,
    _search,
    is_feasible,
    plan_to_moves,
    remaining_moves,
    reroute,
    route,
)
from mitsim.state import Contribution, NetworkState

from conftest import line_network_spec
from generators import random_network, random_network_spec, random_state


from oracles import brute_force_assemble, brute_force_route, oracle_key, plan_key, plan_view




# -- basics ---------------------------------------------------------------------


def test_origin_equals_dest(line3):
    state = NetworkState(line3)
    plan = route("v0", "v0", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert plan.total_cost == 0.0 and plan.legs == ()


def test_line_graph_unique_path(line3):
    state = NetworkState(line3)
    plan = route("v0", "v2", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert [s for leg in plan.legs for s in leg.segments] == ["s0", "s1"]
    assert plan.total_cost == 200.0


def test_unknown_node_rejected(line3):
    state = NetworkState(line3)
    with pytest.raises(ValidationError, match="unknown node"):
        route("v0", "nowhere", 0.0, RoutingPreferences(frozenset({"car"})), state)


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
    assert plan.legs[0].segments == ("sa",)
    again = route("v0", "v1", 0.0, RoutingPreferences(frozenset({"car"})), state)
    assert again == plan


# -- multimodal specifics -----------------------------------------------------------


def multimodal_toy():
    """Two modes: road around (v0-v1-v2-v3) and metro shortcut (v0-v3)."""
    return build_network({
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
    })


def test_boarding_wait_and_transfer_accounting():
    net = multimodal_toy()
    state = NetworkState(net, boarding_wait={"metro": 150.0, "car": 0.0})
    prefs = RoutingPreferences(frozenset({"car", "metro"}), transfer_penalty=0.0)
    plan = route("v0", "v3", 0.0, prefs, state)
    # metro: 150 wait + 400 ride = 550 beats road 900
    assert plan.total_cost == 550.0
    assert plan.initial_wait == 150.0
    assert plan.transfers == ()


def test_transfer_only_at_multimodal_nodes():
    net = multimodal_toy()
    state = NetworkState(net)
    prefs = RoutingPreferences(frozenset({"car", "metro"}))
    # block the metro: the car path is the only option, no transfer at v1/v2
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("m0", "metro")}), 0.0, 0.0, float("inf")))
    plan = route("v0", "v3", 0.0, prefs, state)
    assert [leg.mode_id for leg in plan.legs] == ["car"]


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
    assert [leg.mode_id for leg in plan.legs] == ["car", "bus", "metro"]
    assert plan.legs[1].segments == ()
    assert [m[0] for m in plan_to_moves(plan)] == ["seg", "transfer", "transfer", "seg"]
    assert is_feasible(plan, state, 0.0)
    position, avail, pending = remaining_moves(plan, 105.0)
    assert (position, avail) == ("v1", 105.0)
    assert [m[0] for m in pending] == ["transfer", "transfer", "seg"]


PLAN_FIELDS = ("origin", "dest", "depart", "legs", "transfers", "initial_wait",
               "segment_etas", "moves", "total_cost")


def test_plans_equal_the_eager_oracle():
    """Every part of a routed plan, derived from the shared search on
    demand, equals eager assembly from a fresh search's moves bit for bit."""
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
                oracle = brute_force_assemble(origin, dest, depart, () if search is None else search.moves)
                view = plan_view(plan)
                for name in PLAN_FIELDS:
                    assert repr(view[name]) == repr(oracle[name]), name
                assert plan.arrival == depart + oracle["total_cost"]
                seen["plans"] += 1
                seen["stay"] += origin == dest
                seen["transfers"] += bool(plan.transfers)
                seen["waits"] += plan.initial_wait > 0
                seen["chained"] += any(not leg.segments for leg in plan.legs[1:-1])
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
    assert first.search is second.search is stored
    atoms = stored.atoms
    expected = plan_to_moves(second)
    assert expected == [("wait", 30.0), ("seg", "s0", "car", "v1"), ("seg", "s1", "car", "v2")]
    moves = plan_to_moves(first)
    moves.pop(0)
    moves[0] = ("seg", "s1", "car", "v2")
    moves.append(("wait", 5.0))
    assert stored.atoms is atoms and list(atoms) == expected
    assert plan_to_moves(second) == expected
    assert plan_to_moves(first) == expected
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
            assert is_feasible(plan, state, 0.0)
            # legs temporally contiguous through transfers
            for li, tr in enumerate(plan.transfers):
                assert plan.legs[li].arrive + tr.duration == plan.legs[li + 1].depart


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


# -- replanning ------------------------------------------------------------------------


def test_reroute_keeps_unaffected_plan(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    assert reroute(plan, 50.0, state, prefs) is plan


def test_reroute_blocked_next_segment_no_alternative(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("s1", "car")}), 0.0, 0.0, float("inf")))
    assert reroute(plan, 50.0, state, prefs) is None  # abandonment marker


def test_reroute_adopts_improving_detour():
    net = multimodal_toy()
    state = NetworkState(net, boarding_wait={"metro": 0.0})
    prefs = RoutingPreferences(frozenset({"car", "metro"}))
    # force the car path first, then free the metro mid-journey
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("m0", "metro")}), 0.0, 0.0, 100.0))
    plan = route("v0", "v3", 0.0, prefs, state)
    assert [leg.mode_id for leg in plan.legs] == ["car"]
    state.clock = 500.0  # metro block expired; traveler is mid r1
    new = reroute(plan, 500.0, state, prefs)
    # remaining car path arrives at 900; nothing better from v2 -> keep
    assert new is plan
    # degrade the remaining road so badly that going back pays off
    state.add_contribution(Contribution(
        "deg", "factor", frozenset({("r2", "car")}), 0.1, 400.0, float("inf")))
    new = reroute(plan, 500.0, state, prefs)
    assert new is not plan
    position, avail, _pending = remaining_moves(plan, 500.0)
    oracle = brute_force_route(position, "v3", prefs, state)
    assert plan_key(new) == oracle_key(oracle)


def test_is_feasible_cases(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    assert is_feasible(plan, state, 0.0)
    state.add_contribution(Contribution(
        "blk", "factor", frozenset({("s0", "car")}), 0.0, 0.0, float("inf")))
    assert not is_feasible(plan, state, 0.0)
    # already past the blocked first leg: remaining is open
    assert is_feasible(plan, state, 150.0)


def test_plan_move_roundtrip(line3):
    state = NetworkState(line3)
    prefs = RoutingPreferences(frozenset({"car"}))
    plan = route("v0", "v2", 0.0, prefs, state)
    moves = plan_to_moves(plan)
    assert [m[0] for m in moves] == ["seg", "seg"]
    position, avail, pending = remaining_moves(plan, 0.0)
    assert position == "v0" and pending == moves
