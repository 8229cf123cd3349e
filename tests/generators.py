"""Seeded random generators for networks, devices, warnings and scenarios.

Everything is driven by a caller-owned ``random.Random`` so test cases are
reproducible from their seed alone.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from mitsim.cli import _write_result
from mitsim.dissemination import DevicePosition, EdgeDevice, RsuTopology
from mitsim.messages import AffectedEntry, WarningMessage
from mitsim.disturbance import SeverityMeasure
from mitsim.network import MultiLayerNetwork, build_network
from mitsim.state import Contribution, NetworkState

CATEGORY_POOL = ["private-car", "cav-taxi", "bus", "metro", "tram", "train"]
CLASSES = ["critical", "major", "inferior", "minor"]


def random_network_spec(rng: random.Random, max_nodes: int = 10,
                        max_modes: int = 3, max_extra_segments: int = 6) -> dict:
    """A valid multilayer network: each mode spans a random connected subgraph."""
    n_nodes = rng.randint(4, max_nodes)
    nodes = [f"v{i}" for i in range(n_nodes)]
    n_modes = rng.randint(1, max_modes)
    modes = []
    networks = []
    usage_matrix = []
    for mi in range(n_modes):
        mode_id = f"m{mi}"
        modes.append({
            "mode_id": mode_id,
            "name": mode_id,
            "category": rng.choice(CATEGORY_POOL),
            "agile": False,
            "maas_member": False,
        })
        networks.append({"network_id": f"n{mi}", "name": f"n{mi}"})
        usage_matrix.append([mode_id, f"n{mi}"])

    segments = []
    seg_count = 0
    incident: dict[str, set[str]] = {}  # node -> modes with a segment there

    def add_segment(mode_idx: int, a: str, b: str):
        nonlocal seg_count
        seg_id = f"s{seg_count}"
        seg_count += 1
        segments.append({
            "segment_id": seg_id,
            "network_id": f"n{mode_idx}",
            "from_node": a,
            "to_node": b,
            "length": float(rng.randint(2, 40) * 100),
            "class": rng.choice(CLASSES),
            "usage": [{
                "mode_id": f"m{mode_idx}",
                "direction": rng.choice(["both", "both", "forward"]),
                "base_capacity": float(rng.randint(2, 20) * 100),
                "free_flow_time": float(rng.randint(1, 30) * 10),
            }],
        })
        for n in (a, b):
            incident.setdefault(n, set()).add(f"m{mode_idx}")

    for mi in range(n_modes):
        size = rng.randint(2, n_nodes)
        sub = rng.sample(nodes, size)
        for i in range(1, len(sub)):
            add_segment(mi, sub[rng.randrange(i)], sub[i])
    for _ in range(rng.randint(0, max_extra_segments)):
        mi = rng.randrange(n_modes)
        a, b = rng.sample(nodes, 2)
        add_segment(mi, a, b)

    multimodal = []
    for node in nodes:
        present = sorted(incident.get(node, ()))
        if len(present) >= 2 and rng.random() < 0.8:
            multimodal.append({
                "node_id": node,
                "attachments": [[m, f"n{m[1:]}"] for m in present],
                "transfer_time": {
                    f"{a},{b}": float(rng.randint(0, 6) * 30)
                    for a in present for b in present if a != b
                },
                "services": ["pt-stop"] if rng.random() < 0.5 else [],
            })
    return {
        "modes": modes,
        "networks": networks,
        "usage_matrix": usage_matrix,
        "nodes": nodes,
        "segments": segments,
        "multimodal_nodes": multimodal,
    }


def random_network(rng: random.Random, **kw) -> MultiLayerNetwork:
    return build_network(random_network_spec(rng, **kw))


GRID_MODES = (("car", "private-car"), ("cav", "cav-taxi"), ("bus", "bus"), ("walk", "walk"))


def random_grid_network(rng: random.Random, n: int = 30) -> MultiLayerNetwork:
    """An n x n city of integer free-flow times, so that plans tie exactly.

    Every street carries car and CAV, often in the same time, every third
    row and column a bus line at twice car speed, and about half of them a
    footway; a sixth of the nodes are hubs where all four modes meet, with
    transfer times of 0-90 s.
    """
    def node(r, c):
        return f"g{r:02d}_{c:02d}"

    segments = []
    for r in range(n):
        for c in range(n):
            for kind, r2, c2 in (("h", r, c + 1), ("v", r + 1, c)):
                if r2 >= n or c2 >= n:
                    continue
                car = float(rng.randint(2, 6) * 10)
                usage = [{"mode_id": "car", "free_flow_time": car,
                          "direction": rng.choice(["both", "both", "both", "forward"])},
                         {"mode_id": "cav",
                          "free_flow_time": rng.choice([car, car, car + 10.0])}]
                if (r if kind == "h" else c) % 3 == 1:
                    usage.append({"mode_id": "bus", "free_flow_time": car / 2})
                if rng.random() < 0.5:
                    usage.append({"mode_id": "walk", "free_flow_time": car * 2})
                segments.append({"segment_id": f"{kind}{r:02d}_{c:02d}", "network_id": "road",
                                 "from_node": node(r, c), "to_node": node(r2, c2),
                                 "length": float(rng.randint(1, 3) * 100),
                                 "class": rng.choice(CLASSES), "usage": usage})
    modes = [m for m, _ in GRID_MODES]
    nodes = [node(r, c) for r in range(n) for c in range(n)]
    hubs = [{"node_id": h, "attachments": [[m, "road"] for m in modes],
             "transfer_time": {f"{a},{b}": float(rng.randint(0, 3) * 30)
                               for a in modes for b in modes if a != b}}
            for h in nodes if rng.random() < 1 / 6]
    return build_network({
        "modes": [{"mode_id": m, "name": m, "category": cat, "maas_member": False}
                  for m, cat in GRID_MODES],
        "networks": [{"network_id": "road", "name": "road"}],
        "usage_matrix": [[m, "road"] for m in modes],
        "nodes": nodes, "segments": segments, "multimodal_nodes": hubs,
    })


def rebuilt(net: MultiLayerNetwork) -> MultiLayerNetwork:
    """An equal network built anew, sharing none of ``net``'s caches."""
    return MultiLayerNetwork(net.modes.values(), net.usage_matrix,
                             net.nodes, net.segments.values(), net.multimodal_nodes.values())


def run_outputs(result) -> dict[str, bytes]:
    """The bytes ``mitsim run`` writes for one run result, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        _write_result(result, Path(tmp))
        return {path.name: path.read_bytes() for path in sorted(Path(tmp).iterdir())}


# Window edges shared by generated contributions and clock moves, so that
# fuzzed clocks land on, just before and just after every edge.
WINDOW_EDGES = (0.0, 100.0, 200.0, 300.0)
CLOCKS = (0.0, 50.0, 99.0, 100.0, 150.0, 200.0, 250.0, 300.0, 1e9)


def random_window(rng: random.Random) -> tuple[float, float]:
    start = rng.choice(WINDOW_EDGES)
    return start, rng.choice([e for e in WINDOW_EDGES if e > start] + [float("inf")] * 2)


def random_contribution(rng: random.Random, net: MultiLayerNetwork, contrib_id: str,
                        kind: str | None = None, targets=None) -> Contribution:
    """A factor, floor or usage contribution with a random window.

    Unless ``targets`` are given, factors and floors hit up to three
    (segment, mode) pairs with base usage, and usage opens segments to modes
    that do not use them, as rail replacement does (a factor is drawn
    instead when every pair already has base usage).
    """
    kind = kind or rng.choice(["factor", "factor", "floor", "usage"])
    if not targets:
        based = [(s, e.mode_id) for s in sorted(net.segments) for e in net.segments[s].usage]
        unbased = [(s, m) for s in sorted(net.segments) for m in sorted(net.modes)
                   if net.segments[s].usage_for(m) is None]
        if kind == "usage" and not unbased:
            kind = "factor"
        pool = unbased if kind == "usage" else based
        targets = frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
    start, end = random_window(rng)
    if kind == "factor":
        value = rng.choice([0.0, 0.0, 0.3, 0.5, 0.7, 0.8, 0.9, 1.2])
    elif kind == "floor":
        value = rng.choice([0.2, 0.7, 1.0])
    else:
        value = 1.0
    free_flow_time = float(rng.randint(1, 30) * 10) if kind == "usage" else 0.0
    if kind == "usage":
        rng.randint(1, 10)  # a capacity was drawn here; the draw keeps every case the same
    return Contribution(
        contrib_id=contrib_id, kind=kind, targets=targets, value=value,
        start=start, end=end, free_flow_time=free_flow_time,
    )


def random_state(rng: random.Random, net: MultiLayerNetwork,
                 block_prob: float = 0.25) -> NetworkState:
    """Overlay with random blockages and degradations, plus boarding waits.

    On top of the per-pair factors come up to three random factor, floor
    or usage contributions; every window is random and the clock sits on
    one of ``CLOCKS``, so some contributions have expired or not begun.
    """
    waits = {m: rng.choice([0.0, 0.0, 150.0, 300.0]) for m in net.modes}
    state = NetworkState(net, boarding_wait=waits, clock=rng.choice(CLOCKS))
    i = 0
    for seg_id in sorted(net.segments):
        for entry in net.segments[seg_id].usage:
            if rng.random() < block_prob:
                state.add_contribution(random_contribution(
                    rng, net, f"blk{i}", kind="factor",
                    targets=frozenset({(seg_id, entry.mode_id)})))
                i += 1
    for j in range(rng.randint(0, 3)):
        state.add_contribution(random_contribution(rng, net, f"extra{j}"))
    return state


def random_position(rng: random.Random, net: MultiLayerNetwork) -> DevicePosition:
    if rng.random() < 0.6:
        return DevicePosition(node=rng.choice(sorted(net.nodes)))
    seg_id = rng.choice(sorted(net.segments))
    seg = net.segments[seg_id]
    return DevicePosition(segment=seg_id, offset=rng.uniform(0, seg.length))


def random_devices(rng: random.Random, net: MultiLayerNetwork,
                   max_devices: int = 10, max_rsus: int = 3) -> list[EdgeDevice]:
    modes = sorted(net.modes)
    segments = sorted(net.segments)
    devices = []
    n = rng.randint(1, max_devices)
    n_rsu = rng.randint(0, min(max_rsus, n))
    for i in range(n):
        if i < n_rsu:
            devices.append(EdgeDevice(
                device_id=f"rsu{i}", role="roadside-unit",
                position=random_position(rng, net),
                comm_range=float(rng.randint(0, 60) * 100),
            ))
            continue
        role = rng.choice(["vehicle-obu", "traveler-app", "stop-display",
                           "signal-controller", "nest-controller"])
        mode = rng.choice(modes) if rng.random() < 0.7 else None
        planned = None
        if role in ("vehicle-obu", "traveler-app") and rng.random() < 0.6:
            k = rng.randint(1, 4)
            t = float(rng.randint(0, 600))
            legs = []
            for _ in range(k):
                t += float(rng.randint(30, 400))
                legs.append((rng.choice(segments), t))
            planned = tuple(legs)
        devices.append(EdgeDevice(
            device_id=f"d{i}", role=role,
            position=random_position(rng, net),
            comm_range=float(rng.randint(0, 30) * 100),
            planned_route=planned,
            mode=mode,
            destination=rng.choice(sorted(net.nodes)) if rng.random() < 0.3 else None,
        ))
    return devices


def random_topology(rng: random.Random, devices: list[EdgeDevice]) -> RsuTopology:
    rsus = sorted(d.device_id for d in devices if d.role == "roadside-unit")
    adjacency: dict[str, set[str]] = {}
    for i in range(1, len(rsus)):
        j = rng.randrange(i)
        adjacency.setdefault(rsus[i], set()).add(rsus[j])
        adjacency.setdefault(rsus[j], set()).add(rsus[i])
    if rsus and rng.random() < 0.3:
        a, b = rng.sample(rsus, 2) if len(rsus) >= 2 else (rsus[0], rsus[0])
        if a != b:
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
    return RsuTopology(
        adjacency={k: frozenset(v) for k, v in adjacency.items()},
        max_hops=rng.randint(1, 8),
    )


def random_warning(rng: random.Random, net: MultiLayerNetwork) -> WarningMessage:
    segs = rng.sample(sorted(net.segments), rng.randint(1, min(3, len(net.segments))))
    entries = []
    for seg_id in sorted(segs):
        seg = net.segments[seg_id]
        all_modes = sorted(e.mode_id for e in seg.usage)
        k = rng.randint(1, len(all_modes))
        entries.append(AffectedEntry(
            network_id=seg.network_id,
            segment_id=seg_id,
            seg_class=seg.seg_class,
            modes=tuple(sorted(rng.sample(all_modes, k))),
        ))
    issue = rng.randint(0, 1000)
    return WarningMessage(
        warning_id=f"w{rng.randint(0, 999)}",
        event_id=f"e{rng.randint(0, 999)}",
        kind=rng.choice(["D1", "D2", "D4", "D8", "D9"]),
        revision=0,
        issue_time=issue,
        estimated_end=issue + rng.randint(60, 7200),
        severity=SeverityMeasure(capacity_reduction=round(rng.uniform(0, 1), 4)),
        affected=tuple(entries),
    )


DISTURBANCE_KIND_POOL = ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "EV"]
SOURCE_KIND_POOL = ["user-app", "cits-v2i", "traffic-info-center", "rescue-dispatch",
                    "video-ai", "tf-sensors", "wz-registry", "pt-dispatch"]


def random_scenario_dict(rng: random.Random, max_nodes: int = 8,
                         max_events: int = 2, max_travelers: int = 6) -> dict:
    """A valid random scenario exercising the full pipeline."""
    netspec = random_network_spec(rng, max_nodes=max_nodes, max_modes=2,
                                  max_extra_segments=4)
    nodes = netspec["nodes"]
    segments = [s["segment_id"] for s in netspec["segments"]]
    end_time = 4 * 3600.0

    events = []
    for i in range(rng.randint(0, max_events)):
        kind = rng.choice(DISTURBANCE_KIND_POOL)
        start = float(rng.randint(0, 1800))
        estimated = float(rng.randint(300, 3600))
        true = estimated if rng.random() < 0.5 else float(rng.randint(300, 3600))
        segs = rng.sample(segments, rng.randint(1, min(2, len(segments))))
        severity = {}
        roll = rng.random()
        if roll < 0.7:
            severity["capacity_reduction"] = rng.choice([0.3, 0.5, 1.0, 1.0])
        elif roll < 0.85:
            severity["severity_index"] = rng.randint(1, 5)
        else:
            severity["displaced_volume"] = float(rng.randint(10, 500))
        specifics = {}
        if kind == "D3" and rng.random() < 0.7:
            specifics["details_at"] = start + float(rng.randint(60, 1200))
            specifics["registered_duration"] = min(true, estimated)
        if rng.random() < 0.3:
            specifics["reserved_lane_hit"] = True
        events.append({
            "event_id": f"ev{i}", "kind": kind, "segments": segs,
            "nodes": rng.sample(nodes, rng.randint(0, 1)),
            "start": start, "estimated_duration": estimated,
            "true_duration": true, "severity": severity,
            "specifics": specifics,
        })

    sources = []
    for _ in range(rng.randint(0, 3)):
        kinds = rng.sample(DISTURBANCE_KIND_POOL, rng.randint(1, 6))
        lo = float(rng.randint(0, 120))
        sources.append({
            "source_kind": rng.choice(SOURCE_KIND_POOL),
            "applicable_kinds": kinds,
            "detect_probability": rng.choice([0.0, 0.5, 0.9, 1.0]),
            "latency_min": lo,
            "latency_max": lo + float(rng.randint(0, 300)),
        })

    devices = []
    n_rsu = rng.randint(0, 2)
    for i in range(n_rsu):
        devices.append({
            "device_id": f"rsu{i}", "role": "roadside-unit",
            "position": {"node": rng.choice(nodes)},
            "comm_range": 100000.0,
        })
    rsu_links = []
    if n_rsu == 2:
        rsu_links.append(["rsu0", "rsu1"])
    modes = [m["mode_id"] for m in netspec["modes"]]
    for i in range(rng.randint(1, max_travelers)):
        origin, dest = rng.sample(nodes, 2)
        devices.append({
            "device_id": f"tv{i}", "role": "traveler-app",
            "position": {"node": origin}, "comm_range": 1000.0,
            "trip": {"origin": origin, "dest": dest,
                     "depart": float(rng.randint(0, 2400)),
                     "prefs": {"allowed_modes": modes}},
        })
    if rng.random() < 0.4:
        devices.append({"device_id": "sd0", "role": "stop-display",
                        "position": {"node": rng.choice(nodes)}})

    demand = {"trips": [], "arrivals": [], "ev_modifiers": []}
    if rng.random() < 0.4:
        origin, dest = rng.sample(nodes, 2)
        demand["trips"].append({
            "origin": origin, "dest": dest,
            "depart": float(rng.randint(0, 2400)),
            "count": rng.randint(1, 2),
            "prefs": {"allowed_modes": modes},
        })
    ev_ids = [e["event_id"] for e in events if e["kind"] == "EV"]
    if ev_ids and rng.random() < 0.7:
        origin, dest = rng.sample(nodes, 2)
        demand["arrivals"].append({
            "origin": origin, "dest": dest, "rate_per_hour": 8.0,
            "start": 0.0, "end": 3600.0, "prefs": {"allowed_modes": modes},
        })
        demand["ev_modifiers"].append({
            "event_id": ev_ids[0], "multiplier": rng.choice([0.5, 2.0]),
            "nodes": [origin],
        })

    return {
        "seed": rng.randint(0, 2**31),
        "end_time": end_time,
        "network": netspec,
        "demand": demand,
        "disturbances": events,
        "detection_sources": sources,
        "devices": devices,
        "policies": {"rsu_links": rsu_links, "pt_routes": [], "defaults": {}},
    }


TIE_SECONDS = (0, 60, 120, 180, 240)


def tie_scenario_dict(rng: random.Random) -> dict:
    """A random scenario whose event entries often fall on the same second.

    Departures are JSON integers drawn from a few minutes, a demand trip
    repeats with ``count`` > 1, every event starts on a spawn's second and
    is detected with zero latency, lasts whole minutes and gets its D3
    details on a whole minute, and boarding waits (and often transfer
    times) are zero.  Free-flow times are whole minutes, so arrivals land
    on the seconds of the spawns, injections and detections that setup
    scheduled.
    """
    raw = random_scenario_dict(rng, max_nodes=8, max_events=3, max_travelers=6)
    for seg in raw["network"]["segments"]:
        for usage in seg["usage"]:
            usage["free_flow_time"] = 60 * rng.randint(1, 3)
    departs = []
    for device in raw["devices"]:
        if "trip" in device:
            device["trip"]["depart"] = rng.choice(TIE_SECONDS)
            departs.append(device["trip"]["depart"])
    modes = [m["mode_id"] for m in raw["network"]["modes"]]
    nodes = raw["network"]["nodes"]
    for _ in range(rng.randint(1, 2)):
        origin, dest = rng.sample(nodes, 2)
        raw["demand"]["trips"].append({
            "origin": origin, "dest": dest, "count": rng.randint(2, 4),
            "prefs": {"allowed_modes": modes},
        })
    for trip in raw["demand"]["trips"]:
        trip["depart"] = rng.choice(TIE_SECONDS)
        departs.append(trip["depart"])
    for event in raw["disturbances"]:
        event["start"] = rng.choice(departs)
        event["estimated_duration"] = 60 * rng.randint(5, 60)
        event["true_duration"] = rng.choice([event["estimated_duration"],
                                             60 * rng.randint(5, 60)])
        if "details_at" in event["specifics"]:
            event["specifics"]["details_at"] = event["start"] + 60 * rng.randint(1, 5)
    for source in raw["detection_sources"]:
        source["latency_min"] = source["latency_max"] = 0
    if rng.random() < 0.5:
        for mm in raw["network"]["multimodal_nodes"]:
            mm["transfer_time"] = {pair: 0 for pair in mm["transfer_time"]}
    raw["policies"]["defaults"] = {"cav_boarding_wait": 0, "default_headway": 0,
                                   "patience": rng.choice([60, 600, 3600])}
    return raw


def rail_line_scenario_dict(rng: random.Random, size: int = 4) -> dict:
    """A size x size road grid (car and bus) with a train line along row 0.

    Every row-0 node is a station attached to car, bus and train.  A D7
    event breaks the whole train line soon after the start, so a detected
    event yields a rail-replacement service: train usage over road
    segments.  Two Poisson streams repeat the same origin-destination pair
    (train only, and car or train), so many trips share one plan.
    """
    def node(r, c):
        return f"g{r}_{c}"

    nodes = [node(r, c) for r in range(size) for c in range(size)]
    segments = []
    for r in range(size):
        for c in range(size):
            for dr, dc in ((0, 1), (1, 0)):
                if r + dr >= size or c + dc >= size:
                    continue
                fft = float(rng.randint(3, 8) * 10)
                segments.append({
                    "segment_id": f"r{r}_{c}_{r + dr}_{c + dc}", "network_id": "road",
                    "from_node": node(r, c), "to_node": node(r + dr, c + dc),
                    "length": fft * 10.0, "class": rng.choice(CLASSES),
                    "usage": [
                        {"mode_id": "car", "direction": "both",
                         "base_capacity": 1000, "free_flow_time": fft},
                        {"mode_id": "bus", "direction": "both",
                         "base_capacity": 300, "free_flow_time": fft},
                    ],
                })
    rail = [f"k{c}" for c in range(size - 1)]
    for c, seg_id in enumerate(rail):
        segments.append({
            "segment_id": seg_id, "network_id": "rail",
            "from_node": node(0, c), "to_node": node(0, c + 1),
            "length": 1000.0, "class": "major",
            "usage": [{"mode_id": "train", "direction": "both",
                       "base_capacity": 600, "free_flow_time": 30.0}],
        })
    stations = [node(0, c) for c in range(size)]
    network = {
        "modes": [
            {"mode_id": "car", "name": "car", "category": "private-car",
             "agile": False, "maas_member": False},
            {"mode_id": "bus", "name": "bus", "category": "bus",
             "agile": False, "maas_member": False},
            {"mode_id": "train", "name": "train", "category": "train",
             "agile": False, "maas_member": False},
        ],
        "networks": [{"network_id": "road", "name": "road"},
                     {"network_id": "rail", "name": "rail"}],
        "usage_matrix": [["car", "road"], ["bus", "road"], ["train", "rail"]],
        "nodes": nodes,
        "segments": segments,
        "multimodal_nodes": [
            {"node_id": s,
             "attachments": [["car", "road"], ["bus", "road"], ["train", "rail"]],
             "services": ["rail-station"]}
            for s in stations
        ],
    }
    start = float(rng.randint(300, 900))
    duration = float(rng.randint(30, 60) * 60)
    far = node(size - 1, size - 1)
    streams = [
        {"origin": stations[0], "dest": stations[-1],
         "rate_per_hour": float(rng.randint(20, 40)), "start": 0.0, "end": 3600.0,
         "prefs": {"allowed_modes": ["train"]}},
        {"origin": stations[-1], "dest": far,
         "rate_per_hour": float(rng.randint(10, 20)), "start": 0.0, "end": 3600.0,
         "prefs": {"allowed_modes": ["car", "train"]}},
    ]
    devices = [
        {"device_id": "rsu0", "role": "roadside-unit",
         "position": {"node": stations[0]}, "comm_range": 100000.0},
        {"device_id": "tv0", "role": "traveler-app",
         "position": {"node": stations[0]}, "comm_range": 1000.0,
         "trip": {"origin": stations[0], "dest": far,
                  "depart": start - 60.0,
                  "prefs": {"allowed_modes": ["car", "train"]}}},
    ]
    return {
        "seed": rng.randint(0, 2**31),
        "end_time": 4 * 3600.0,
        "network": network,
        "demand": {"trips": [], "arrivals": streams, "ev_modifiers": []},
        "disturbances": [{
            "event_id": "train-fault", "kind": "D7", "segments": rail,
            "nodes": [], "start": start, "estimated_duration": duration,
            "true_duration": duration,
            "severity": {"capacity_reduction": 1.0},
        }],
        "detection_sources": [{
            "source_kind": "pt-dispatch", "applicable_kinds": ["D7"],
            "detect_probability": 1.0, "latency_min": 30.0, "latency_max": 90.0,
        }],
        "devices": devices,
        "policies": {"rsu_links": [], "pt_routes": [], "defaults": {}},
    }


def idle_obu_grid_scenario_dict(rng: random.Random, size: int = 5) -> dict:
    """A size x size car grid watched by idle OBUs and moving travelers.

    Segment lengths and free-flow times vary and some streets are one-way,
    so free-flow paths are not symmetric.  Routeless car OBUs carry a
    ``destination``, so relevance predicts their trajectory; some sit
    inside a segment, and one is a bus OBU on a road the bus does not use.
    Device-bound car travelers leave early on long trips over slow
    segments, so they are inside a segment when the warnings go out.  The
    roadside units cover only part of the grid, so some relevant devices
    are missed.
    """
    def node(r, c):
        return f"n{r}_{c}"

    nodes = [node(r, c) for r in range(size) for c in range(size)]
    segments = []
    for r in range(size):
        for c in range(size):
            for kind, r2, c2 in (("h", r, c + 1), ("v", r + 1, c)):
                if r2 >= size or c2 >= size:
                    continue
                fft = float(rng.randint(6, 20) * 10)
                usage = [{"mode_id": "car",
                          "direction": "forward" if rng.random() < 0.15 else "both",
                          "base_capacity": 1000, "free_flow_time": fft}]
                if r == size // 2 and kind == "h":
                    usage.append({"mode_id": "bus", "direction": "both",
                                  "base_capacity": 300, "free_flow_time": fft})
                segments.append({
                    "segment_id": f"{kind}{r}_{c}", "network_id": "road",
                    "from_node": node(r, c), "to_node": node(r2, c2),
                    "length": float(rng.randint(10, 40) * 10),
                    "class": rng.choice(CLASSES), "usage": usage,
                })
    seg_ids = [s["segment_id"] for s in segments]
    car_only = {"allowed_modes": ["car"]}

    def position():
        if rng.random() < 0.5:
            return {"node": rng.choice(nodes)}
        seg = rng.choice(segments)
        return {"segment": seg["segment_id"],
                "offset": round(rng.uniform(0, seg["length"]), 1)}

    devices = []
    rsu_ids = [f"rsu{k}" for k in range(3)]
    for rsu_id, node_id in zip(rsu_ids, rng.sample(nodes, len(rsu_ids))):
        devices.append({"device_id": rsu_id, "role": "roadside-unit",
                        "position": {"node": node_id},
                        "comm_range": float(rng.randint(6, 12) * 100)})
    for k in range(8):
        origin, dest = rng.sample(nodes, 2)
        devices.append({
            "device_id": f"trav{k}", "role": rng.choice(["vehicle-obu", "traveler-app"]),
            "position": {"node": origin}, "comm_range": 200.0, "mode": "car",
            "trip": {"origin": origin, "dest": dest,
                     "depart": float(rng.randint(0, 60) * 10), "prefs": car_only},
        })
    for k in range(12):
        devices.append({"device_id": f"obu{k}", "role": "vehicle-obu",
                        "position": position(), "comm_range": 200.0,
                        "mode": "car", "destination": rng.choice(nodes)})
    devices.append({"device_id": "busobu", "role": "vehicle-obu",
                    "position": {"segment": "v0_0", "offset": 10.0},
                    "comm_range": 200.0, "mode": "bus", "destination": node(size // 2, 0)})
    devices.append({"device_id": "sc0", "role": "signal-controller",
                    "position": position()})

    disturbances = []
    for k, seg_id in enumerate(rng.sample(seg_ids, 3)):
        estimated = float(rng.randint(10, 30) * 60)
        disturbances.append({
            "event_id": f"ev{k}", "kind": "D1", "segments": [seg_id], "nodes": [],
            "start": float(rng.randint(20, 90) * 10),
            "estimated_duration": estimated,
            "true_duration": estimated * rng.choice([1.0, 1.5]),
            "severity": {"capacity_reduction": 1.0},
        })
    return {
        "seed": rng.randint(0, 2**31),
        "end_time": 3 * 3600.0,
        "network": {
            "modes": [
                {"mode_id": "car", "name": "car", "category": "private-car",
                 "agile": False, "maas_member": False},
                {"mode_id": "bus", "name": "bus", "category": "bus",
                 "agile": False, "maas_member": False},
            ],
            "networks": [{"network_id": "road", "name": "road"}],
            "usage_matrix": [["car", "road"], ["bus", "road"]],
            "nodes": nodes,
            "segments": segments,
            "multimodal_nodes": [],
        },
        "demand": {"trips": [], "arrivals": [], "ev_modifiers": []},
        "disturbances": disturbances,
        "detection_sources": [{
            "source_kind": "user-app", "applicable_kinds": ["D1"],
            "detect_probability": 1.0, "latency_min": 20.0, "latency_max": 60.0,
        }],
        "devices": devices,
        "policies": {
            "relevance": {"horizon": 1200,
                          "area_radius": {"critical": 900, "major": 600,
                                          "inferior": 400, "minor": 200},
                          "include_adaptation_actors": True},
            "rsu_links": [["rsu0", "rsu1"], ["rsu1", "rsu2"]],
            "max_hops": 1,
            "pt_routes": [],
            "defaults": {},
        },
    }


def bus_grid_scenario_dict(rng: random.Random, size: int = 4, cavs: int = 1) -> dict:
    """A size x size road grid for cars, CAV taxis and one bus line.

    The bus runs along row 1, stopping at every node, and is a priority
    route, so any feasible diversion is taken.  Two D1 events each block
    two consecutive bus segments, which bypasses the stop between them, so
    each diversion needs a CAV; with ``cavs=1`` the first diversion takes
    the only one, and the second event's plan depends on the first
    event.  Device-bound car travelers cross the grid meanwhile.
    """
    def node(r, c):
        return f"g{r}_{c}"

    nodes = [node(r, c) for r in range(size) for c in range(size)]
    segments = []
    for r in range(size):
        for c in range(size):
            for kind, r2, c2 in (("h", r, c + 1), ("v", r + 1, c)):
                if r2 >= size or c2 >= size:
                    continue
                fft = float(rng.randint(3, 8) * 10)
                segments.append({
                    "segment_id": f"{kind}{r}_{c}", "network_id": "road",
                    "from_node": node(r, c), "to_node": node(r2, c2),
                    "length": fft * 10.0, "class": rng.choice(CLASSES),
                    "usage": [{"mode_id": mode, "direction": "both", "base_capacity": 500,
                               "free_flow_time": fft} for mode in ("car", "cav", "bus")],
                })
    line = [f"h1_{c}" for c in range(size - 1)]
    devices = [{"device_id": "rsu0", "role": "roadside-unit",
                "position": {"node": node(1, 1)}, "comm_range": 100000.0}]
    for k in range(cavs):
        devices.append({"device_id": f"cav{k}", "role": "vehicle-obu", "mode": "cav",
                        "position": {"node": rng.choice(nodes)}, "comm_range": 500.0})
    for k in range(rng.randint(4, 8)):
        origin, dest = rng.sample(nodes, 2)
        devices.append({
            "device_id": f"tv{k}", "role": rng.choice(["vehicle-obu", "traveler-app"]),
            "position": {"node": origin}, "comm_range": 500.0, "mode": "car",
            "trip": {"origin": origin, "dest": dest, "depart": float(rng.randint(0, 90) * 10),
                     "prefs": {"allowed_modes": ["car"]}},
        })
    disturbances = []
    for k in range(2):
        first = rng.randrange(len(line) - 1)
        estimated = float(rng.randint(20, 60) * 60)
        disturbances.append({
            "event_id": f"ev{k}", "kind": "D1", "segments": line[first:first + 2],
            "nodes": [], "start": float(rng.randint(10, 60) * 10 + 600 * k),
            "estimated_duration": estimated, "true_duration": estimated * rng.choice([1.0, 1.5]),
            "severity": {"capacity_reduction": 1.0},
        })
    return {
        "seed": rng.randint(0, 2**31),
        "end_time": 4 * 3600.0,
        "network": {
            "modes": [
                {"mode_id": "car", "name": "car", "category": "private-car",
                 "agile": False, "maas_member": False},
                {"mode_id": "cav", "name": "cav", "category": "cav-taxi",
                 "agile": False, "maas_member": False},
                {"mode_id": "bus", "name": "bus", "category": "bus",
                 "agile": False, "maas_member": False},
            ],
            "networks": [{"network_id": "road", "name": "road"}],
            "usage_matrix": [["car", "road"], ["cav", "road"], ["bus", "road"]],
            "nodes": nodes,
            "segments": segments,
            "multimodal_nodes": [],
        },
        "demand": {"trips": [], "arrivals": [], "ev_modifiers": []},
        "disturbances": disturbances,
        "detection_sources": [{
            "source_kind": "user-app", "applicable_kinds": ["D1"],
            "detect_probability": 1.0, "latency_min": 10.0, "latency_max": 60.0,
        }],
        "devices": devices,
        "policies": {
            "rsu_links": [],
            "pt_routes": [{"route_id": "B0", "mode_id": "bus", "priority": True,
                           "stops": [node(1, c) for c in range(size)], "segments": line,
                           "headway": 600}],
            "defaults": {"cav_pickup_threshold": 3600},
        },
    }
