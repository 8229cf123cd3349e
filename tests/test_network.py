import random

import pytest

from mitsim.errors import ValidationError
from mitsim.network import MultiLayerNetwork, build_network, node_distances
from mitsim.routing import RoutingPreferences, route
from mitsim.scenario import load_scenario
from mitsim.state import NetworkState

from conftest import demo_scenario, line_network_spec
from generators import random_network, random_network_spec
from oracles import brute_force_free_flow_path, brute_force_node_distances


def arcs(net, mode_id):
    """Every arc of the mode's table, flattened."""
    return [arc for out in net.out_arcs(mode_id).values() for arc in out]


def test_minimal_valid_network():
    spec = line_network_spec(n=2)
    net = build_network(spec)
    assert {a.segment_id for a in arcs(net, "car")} == {"s0"}


def test_unread_usage_keys_are_ignored():
    spec = line_network_spec(n=2)
    spec["segments"][0]["usage"][0].update(accessible=False, lanes=3)
    plain = build_network(line_network_spec(n=2))
    assert build_network(spec).segments == plain.segments


def test_usage_outside_matrix_rejected():
    spec = line_network_spec(3)
    spec["segments"][0]["usage"][0]["mode_id"] = "ghost"
    spec["modes"].append({"mode_id": "ghost", "name": "ghost",
                          "category": "bus", "agile": False, "maas_member": False})
    with pytest.raises(ValidationError, match=r"\(ghost, net\)"):
        build_network(spec)


def test_dangling_node_rejected():
    spec = line_network_spec(3)
    spec["segments"][0]["to_node"] = "nowhere"
    with pytest.raises(ValidationError, match="nowhere"):
        build_network(spec)


def test_duplicate_segment_rejected():
    spec = line_network_spec(3)
    spec["segments"].append(dict(spec["segments"][0]))
    with pytest.raises(ValidationError, match="duplicate segment identifier s0"):
        build_network(spec)


def test_empty_usage_rejected():
    spec = line_network_spec(2)
    spec["segments"][0]["usage"] = []
    with pytest.raises(ValidationError, match="empty usage"):
        build_network(spec)


def test_walk_must_be_agile():
    spec = line_network_spec(2, mode="w", category="walk")
    spec["modes"][0]["agile"] = False
    with pytest.raises(ValidationError, match="agile"):
        build_network(spec)


def _usage(spec, **fields):
    spec["segments"][0]["usage"][0].update(fields)


def _attach(spec, *pair):
    spec["multimodal_nodes"].append({"node_id": "v1", "attachments": [list(pair)]})


# Keys the network checks but does not keep: each case maps to (edit, the
# error text).
CHECKED_UNKEPT = {
    "cycle not agile": (lambda spec: spec["modes"][0].update(category="cycle", agile=False),
                        "mode car: category cycle must be agile"),
    "base_capacity 0": (lambda spec: _usage(spec, base_capacity=0),
                        "segment s0: capacity and free-flow time must be > 0 for mode car"),
    "base_capacity -1": (lambda spec: _usage(spec, base_capacity=-1.0),
                         "segment s0: capacity and free-flow time must be > 0 for mode car"),
    "base_capacity string": (lambda spec: _usage(spec, base_capacity="abc"),
                             "segment s0: usage base_capacity must be a number"),
    "unknown network": (lambda spec: spec["segments"][0].update(network_id="rail"),
                        "segment s0: unknown network rail"),
    "attachment outside the matrix": (lambda spec: _attach(spec, "car", "rail"),
                                      r"multimodal node v1: attachment \(car, rail\) not in"),
    "attachment not a pair": (lambda spec: _attach(spec, "car"),
                              "multimodal node v1: attachment must be a pair of ids"),
}


@pytest.mark.parametrize("case", sorted(CHECKED_UNKEPT))
def test_checked_but_unkept_keys_still_rejected(case):
    edit, text = CHECKED_UNKEPT[case]
    spec = line_network_spec(3)
    edit(spec)
    with pytest.raises(ValidationError, match=f"^{text}"):
        build_network(spec)


def test_multimodal_node_keeps_its_attached_modes_sorted():
    spec = line_network_spec(3)
    spec["modes"].append({"mode_id": "bus", "category": "bus"})
    spec["usage_matrix"].append(["bus", "net"])
    spec["multimodal_nodes"].append(
        {"node_id": "v1", "attachments": [["car", "net"], ["bus", "net"], ["car", "net"]]})
    assert build_network(spec).multimodal_nodes["v1"].modes == ("bus", "car")


def test_default_bundled_network(demo_net):
    assert len(demo_net.modes) == 8
    # walking pairs with the pedestrian network
    assert ("M1", "N1") in demo_net.usage_matrix
    categories = {m.category for m in demo_net.modes.values()}
    assert categories == {"walk", "cycle", "private-car", "cav-taxi",
                          "bus", "tram", "metro", "train"}


def test_one_way_segment_single_arc():
    spec = line_network_spec(2, direction="forward")
    net = build_network(spec)
    assert len(arcs(net, "car")) == 1


def test_two_way_cycling_on_one_way_street():
    # one physical street: cars forward only, cycling both ways
    spec = line_network_spec(2, direction="forward")
    spec["modes"].append({"mode_id": "bike", "name": "bike", "category": "cycle",
                          "agile": True, "maas_member": False})
    spec["usage_matrix"].append(["bike", "net"])
    spec["segments"][0]["usage"].append(
        {"mode_id": "bike", "direction": "both", "base_capacity": 300,
         "free_flow_time": 240})
    net = build_network(spec)
    assert len(arcs(net, "car")) == 1
    assert len(arcs(net, "bike")) == 2


def test_mode_with_no_segments_empty_graph():
    spec = line_network_spec(2)
    spec["modes"].append({"mode_id": "tram", "name": "tram", "category": "tram",
                          "agile": False, "maas_member": False})
    spec["networks"].append({"network_id": "rail", "name": "rail"})
    spec["usage_matrix"].append(["tram", "rail"])
    net = build_network(spec)
    assert net.out_arcs("tram") == {}


def test_unknown_mode_subgraph_rejected(line3):
    with pytest.raises(ValidationError, match="unknown mode"):
        line3.out_arcs("bus")


def test_shared_group_members_singleton(line3):
    assert line3.shared_group_members("s0") == {"s0"}


def test_shared_group_members_group(demo_net):
    members = demo_net.shared_group_members("R4")
    assert members == {"R4", "C1", "T1"}
    assert demo_net.shared_group_members("C1") == members


def test_shared_group_of_three():
    spec = line_network_spec(4)
    for seg in spec["segments"]:
        seg["shared_group"] = "g"
    net = build_network(spec)
    assert len(net.shared_group_members("s0")) == 3


def test_shared_group_partition_property():
    # symmetric and transitive membership across random networks
    for seed in range(30):
        rng = random.Random(seed)
        net = random_network(rng)
        groups = {s: frozenset(net.shared_group_members(s)) for s in net.segments}
        for seg_id, members in groups.items():
            for other in members:
                assert groups[other] == members


def test_arc_roundtrip_property():
    # every arc of a usable subgraph originates from a segment listing the mode
    for seed in range(30):
        rng = random.Random(seed)
        net = random_network(rng)
        for mode_id in net.modes:
            for arc in arcs(net, mode_id):
                seg = net.segments[arc.segment_id]
                assert seg.usage_for(mode_id) is not None


def test_maas_connectivity_enforced():
    spec = line_network_spec(3)
    spec["modes"][0]["maas_member"] = True
    # no multimodal nodes at all: cannot host a MaaS service
    with pytest.raises(ValidationError, match="MaaS"):
        build_network(spec)


def test_node_distances_multi_source(line3):
    dist = node_distances(line3, {"v0": 0.0})
    assert dist == {"v0": 0.0, "v1": 1000.0, "v2": 2000.0}
    dist = node_distances(line3, {"v0": 0.0, "v2": 0.0})
    assert dist["v1"] == 1000.0


def test_node_distances_match_bellman_ford():
    for seed in range(200):
        rng = random.Random(61_000 + seed)
        net = random_network(rng, max_nodes=16, max_modes=3, max_extra_segments=16)
        picked = rng.sample(sorted(net.nodes), rng.randint(1, 3))
        if rng.random() < 0.5:
            sources = {n: 0.0 for n in picked}
        else:
            sources = {n: rng.uniform(0.0, 2000.0) for n in picked}
        got = node_distances(net, sources)
        assert got == brute_force_node_distances(net, sources)
        assert net.distance_table(sources) == got


def test_distance_table_is_reused_and_read_only(line3):
    table = line3.distance_table({"v0": 0.0, "v2": 0.0})
    assert table == {"v0": 0.0, "v1": 1000.0, "v2": 0.0}
    assert line3.distance_table({"v2": 0.0, "v0": 0.0}) is table
    assert line3.distance_table({"v0": 5.0}) == {"v0": 5.0, "v1": 1005.0, "v2": 2005.0}
    with pytest.raises(TypeError):
        table["v1"] = 0.0
    with pytest.raises(AttributeError):
        table.pop("v1")
    assert line3.distance_table({"v0": 0.0, "v2": 0.0})["v1"] == 1000.0


def test_free_flow_path_matches_exhaustive_enumeration():
    found = 0
    for seed in range(300):
        rng = random.Random(62_000 + seed)
        net = random_network(rng, max_nodes=8, max_modes=3, max_extra_segments=8)
        nodes = sorted(net.nodes)
        for mode in sorted(net.modes):
            origin, dest = rng.choice(nodes), rng.choice(nodes)
            path = net.free_flow_path(mode, origin, dest)
            assert path == brute_force_free_flow_path(net, mode, origin, dest)
            found += bool(path)
    assert found >= 100


def test_free_flow_path_is_reused_and_immutable(line3):
    path = line3.free_flow_path("car", "v0", "v2")
    assert path == ("s0", "s1")
    assert line3.free_flow_path("car", "v0", "v2") is path
    with pytest.raises(TypeError):
        path[0] = "s9"
    assert line3.free_flow_path("car", "v1", "v1") == ()
    one_way = build_network(line_network_spec(3, direction="forward"))
    assert one_way.free_flow_path("car", "v2", "v0") is None


def test_free_flow_times_match_usage_for(demo_net):
    """Every (segment, mode) of random networks whose segments carry
    several modes' usage, read through the map and through ``usage_for``."""
    nets = [demo_net]
    for seed in range(60):
        rng = random.Random(41_000 + seed)
        spec = random_network_spec(rng, max_nodes=12, max_modes=4)
        modes = [m["mode_id"] for m in spec["modes"]]
        for seg in spec["segments"]:
            for mode_id in modes:
                if rng.random() < 0.3 and all(u["mode_id"] != mode_id for u in seg["usage"]):
                    seg["usage"].append({"mode_id": mode_id,
                                         "free_flow_time": float(rng.randint(1, 30) * 10)})
                    if [mode_id, seg["network_id"]] not in spec["usage_matrix"]:
                        spec["usage_matrix"].append([mode_id, seg["network_id"]])
        nets.append(build_network(spec))
    shared = 0
    for net in nets:
        for mode_id in [*net.modes, "no-such-mode"]:
            times = net.free_flow_times(mode_id)
            assert net.free_flow_times(mode_id) is times
            with pytest.raises(TypeError):
                times["no-such-segment"] = 1.0
            for seg_id, seg in net.segments.items():
                entry = seg.usage_for(mode_id)
                assert times.get(seg_id) == (None if entry is None else entry.free_flow_time)
            assert set(times) <= set(net.segments)
        shared += sum(len(seg.usage) > 1 for seg in net.segments.values())
    assert shared >= 200


def test_landmark_tables_hold_least_free_flow_times():
    """The smallest node id, then each node farthest from the landmarks
    chosen before it; each table equals Bellman-Ford from its landmark over
    every segment, both ways, weighted by its fastest usage entry, and a
    node it cannot reach reads infinity."""
    checked = 0
    for seed in range(60):
        rng = random.Random(43_000 + seed)
        spec = random_network_spec(rng, max_nodes=12, max_modes=3)
        for seg in spec["segments"][::2]:
            other = spec["modes"][-1]["mode_id"]
            if all(u["mode_id"] != other for u in seg["usage"]):
                seg["usage"].append({"mode_id": other, "free_flow_time": float(rng.randint(1, 30))})
                if [other, seg["network_id"]] not in spec["usage_matrix"]:
                    spec["usage_matrix"].append([other, seg["network_id"]])
        net = build_network(spec)
        tables = net.landmark_tables()
        assert net.landmark_tables() is tables
        assert len(tables) == min(4, len(net.nodes))
        nodes = sorted(net.nodes)
        for k, table in enumerate(tables):
            (landmark,) = [n for n in table if table[n] == 0.0]
            assert landmark == (nodes[0] if k == 0 else max(
                nodes, key=lambda n: min(t[n] for t in tables[:k])))
            dist = {landmark: 0.0}
            changed = True
            while changed:
                changed = False
                for seg in net.segments.values():
                    weight = min(u.free_flow_time for u in seg.usage)
                    for a, b in ((seg.from_node, seg.to_node), (seg.to_node, seg.from_node)):
                        if a in dist and dist[a] + weight < dist.get(b, float("inf")):
                            dist[b] = dist[a] + weight
                            changed = True
            assert dict(table) == {n: dist.get(n, float("inf")) for n in net.nodes}
            with pytest.raises(TypeError):
                table[landmark] = 1.0
            checked += float("inf") in table.values()
    assert checked >= 10


def test_landmark_tables_wait_for_the_first_search(monkeypatch):
    def forbidden(_net):
        raise AssertionError("landmark tables built")

    monkeypatch.setattr(MultiLayerNetwork, "landmark_tables", forbidden)
    scenario = load_scenario(demo_scenario())
    with pytest.raises(AssertionError, match="landmark tables built"):
        route("a1", "b1", 0.0, RoutingPreferences(frozenset({"M3"})), NetworkState(scenario.net))
