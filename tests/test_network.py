import random

import pytest

from mitsim.errors import ValidationError
from mitsim.network import build_network, node_distances

from conftest import line_network_spec
from generators import random_network
from oracles import brute_force_free_flow_path, brute_force_node_distances


def test_minimal_valid_network():
    spec = line_network_spec(n=2)
    net = build_network(spec)
    view = net.usable_subgraph("car")
    assert {a.segment_id for a in view.arcs} == {"s0"}


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


def test_default_bundled_network(demo_net):
    assert len(demo_net.modes) == 8
    assert len(demo_net.networks) == 6
    # walking pairs with the pedestrian network
    assert ("M1", "N1") in demo_net.usage_matrix
    categories = {m.category for m in demo_net.modes.values()}
    assert categories == {"walk", "cycle", "private-car", "cav-taxi",
                          "bus", "tram", "metro", "train"}


def test_one_way_segment_single_arc():
    spec = line_network_spec(2, direction="forward")
    net = build_network(spec)
    assert len(net.usable_subgraph("car").arcs) == 1


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
    assert len(net.usable_subgraph("car").arcs) == 1
    assert len(net.usable_subgraph("bike").arcs) == 2


def test_mode_with_no_segments_empty_graph():
    spec = line_network_spec(2)
    spec["modes"].append({"mode_id": "tram", "name": "tram", "category": "tram",
                          "agile": False, "maas_member": False})
    spec["networks"].append({"network_id": "rail", "name": "rail"})
    spec["usage_matrix"].append(["tram", "rail"])
    net = build_network(spec)
    assert net.usable_subgraph("tram").arcs == ()


def test_unknown_mode_subgraph_rejected(line3):
    with pytest.raises(ValidationError, match="unknown mode"):
        line3.usable_subgraph("bus")


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
            for arc in net.usable_subgraph(mode_id).arcs:
                seg = net.segments[arc.segment_id]
                assert seg.usage_for(mode_id) is not None


def test_maas_connectivity_enforced():
    spec = line_network_spec(3)
    spec["modes"][0]["maas_member"] = True
    # no multimodal nodes at all: cannot host a MaaS service
    with pytest.raises(ValidationError, match="MaaS"):
        build_network(spec)


def test_node_distances_multi_source(line3):
    dist = node_distances(line3, ["v0"])
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
            got = node_distances(net, picked)
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
