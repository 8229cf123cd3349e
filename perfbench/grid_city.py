"""Seeded grid-city scenario generator for the benchmark workloads.

Every workload is an n x n road grid with 200 m segments, a random segment
class and a 15-40 s free-flow time per segment, full-block D1 events and a
single ``user-app`` detection source that always fires.  The workloads
differ in what sits on that grid, which decides the layer that does most
of the work (see ``WORKLOADS`` and ``perfbench/BASELINE.md``).

The output is a plain scenario document; the same (workload, seed) always
gives a byte-identical file (``scenario_bytes``).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import random
from dataclasses import dataclass

SEGMENT_LENGTH = 200.0
CLASS_WEIGHTS = (("critical", 1), ("major", 4), ("inferior", 10), ("minor", 25))
CAR, CAV, BUS = "M3", "M4", "M5"
ROAD_CAPACITY = {CAR: 1200.0, CAV: 800.0, BUS: 300.0}
DEMAND_WINDOW = 3600.0  # departures and event starts fall in the first hour
END_TIME = 14400.0
# The simulator's own seed (Poisson arrivals, detection latencies) is the
# same for every workload seed, so each stream draws the same number of
# trips and the seed varies the city, not the amount of work.
SIMULATION_SEED = 1


@dataclass(frozen=True)
class Workload:
    """Size and make-up of one generated city."""

    entry: str  # "run" (targeted mode) or "compare"
    grid: int  # nodes per side
    modes: tuple[str, ...]
    od_span: int  # grid steps from each trip's origin to its destination
    od_streams: int = 0  # anonymous Poisson car streams
    stream_rate: float = 0.0  # trips per hour per stream
    travelers: int = 0  # device-bound car travelers
    idle_obus: int = 0  # car OBUs with a destination but no trip
    rsus: int = 4
    events: int = 4
    event_start_max: float = DEMAND_WINDOW  # events start in [300 s, this)
    event_minutes: tuple[int, int] = (30, 60)  # estimated duration range
    event_overrun: float = 1.0  # true / estimated duration
    events_on_streams: bool = False  # event k blocks stream k's free-flow path
    events_on_bus: int = 0  # events placed on bus route segments
    bus_routes: int = 0
    signals: int = 0
    cavs: int = 0


WORKLOADS: dict[str, Workload] = {
    # Anonymous demand only: route() and the overlay lookups do the work.
    # Each event blocks one stream's path early in the demand window, so
    # the number of trips that run into a blockage and replan is about the
    # same for every seed.
    "city-commute": Workload(
        entry="run", grid=10, modes=(CAR,), od_streams=16, od_span=9, stream_rate=30.0,
        rsus=4, events=6, event_start_max=900.0, event_minutes=(40, 45),
        events_on_streams=True,
    ),
    # compare(): E+3 runs and E scenario reloads, bus diversions planned;
    # many devices and revised warnings, so distribute() does most work.
    "city-compare": Workload(
        entry="compare", grid=7, modes=(CAR, CAV, BUS), travelers=20, idle_obus=60,
        od_span=6, rsus=5, events=3, event_overrun=1.5, events_on_bus=2, bus_routes=2,
        signals=8, cavs=3,
    ),
}


def _rng(workload: str, seed: int, part: str) -> random.Random:
    digest = hashlib.sha256(f"{workload}/{seed}/{part}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _node(r: int, c: int) -> str:
    return f"n{r}_{c}"


def _od_pair(rng: random.Random, n: int, span: int) -> tuple[str, str]:
    """Two nodes exactly ``span`` grid steps apart (Manhattan distance).

    A fixed span keeps the length of each trip, and so the search and
    trajectory work behind it, the same from one seed to the next.
    """
    while True:
        r, c = rng.randrange(n), rng.randrange(n)
        dr = rng.randint(0, span)
        r2 = r + rng.choice((-dr, dr))
        c2 = c + rng.choice((dr - span, span - dr))
        if 0 <= r2 < n and 0 <= c2 < n:
            return _node(r, c), _node(r2, c2)


def _free_flow_path(segments: list[dict], origin: str, dest: str) -> list[str]:
    """Segment ids of the fastest free-flow path, as an empty road plans it."""
    arcs: dict[str, list] = {}
    for s in segments:
        fft = s["usage"][0]["free_flow_time"]
        arcs.setdefault(s["from_node"], []).append((fft, s["to_node"], s["segment_id"]))
        arcs.setdefault(s["to_node"], []).append((fft, s["from_node"], s["segment_id"]))
    best = {origin: (0.0, ())}
    heap = [(0.0, (), origin)]
    while heap:
        cost, path, node = heapq.heappop(heap)
        if node == dest:
            return list(path)
        if (cost, path) > best[node]:
            continue
        for fft, to, seg_id in arcs[node]:
            label = (cost + fft, path + (seg_id,))
            if to not in best or label < best[to]:
                best[to] = label
                heapq.heappush(heap, (*label, to))
    raise ValueError(f"{dest} unreachable from {origin}")


def _mode_specs(modes) -> list[dict]:
    known = {
        CAR: {"mode_id": CAR, "name": "private car", "category": "private-car",
              "agile": False, "maas_member": False},
        CAV: {"mode_id": CAV, "name": "CAV / taxi", "category": "cav-taxi",
              "agile": False, "maas_member": True},
        BUS: {"mode_id": BUS, "name": "bus", "category": "bus",
              "agile": False, "maas_member": True},
    }
    return [known[m] for m in modes]


def _grid_segments(n: int, modes, rng: random.Random) -> list[dict]:
    classes = [c for c, _ in CLASS_WEIGHTS]
    weights = [w for _, w in CLASS_WEIGHTS]
    segments = []
    for r in range(n):
        for c in range(n):
            for kind, r2, c2 in (("h", r, c + 1), ("v", r + 1, c)):
                if r2 >= n or c2 >= n:
                    continue
                fft = round(rng.uniform(15.0, 40.0), 1)
                segments.append({
                    "segment_id": f"{kind}{r}_{c}",
                    "network_id": "N3",
                    "from_node": _node(r, c),
                    "to_node": _node(r2, c2),
                    "length": SEGMENT_LENGTH,
                    "class": rng.choices(classes, weights)[0],
                    "usage": [{"mode_id": m, "direction": "both",
                               "base_capacity": ROAD_CAPACITY[m],
                               "free_flow_time": fft} for m in modes],
                })
    return segments


def _bus_routes(w: Workload, rng: random.Random) -> list[dict]:
    """Straight bus lines along distinct rows or columns, a stop every 2 nodes."""
    n = w.grid
    lines = rng.sample([("h", i) for i in range(1, n - 1)]
                       + [("v", i) for i in range(1, n - 1)], w.bus_routes)
    routes = []
    for k, (kind, i) in enumerate(lines):
        if kind == "h":
            nodes = [_node(i, c) for c in range(n)]
            segs = [f"h{i}_{c}" for c in range(n - 1)]
        else:
            nodes = [_node(r, i) for r in range(n)]
            segs = [f"v{r}_{i}" for r in range(n - 1)]
        routes.append({"route_id": f"bus{k}", "mode_id": BUS,
                       "stops": nodes[::2] + ([nodes[-1]] if n % 2 == 0 else []),
                       "segments": segs, "headway": 600})
    return routes


def generate(workload: str, seed: int) -> dict:
    """The scenario document for one (workload, seed)."""
    w = WORKLOADS[workload]
    n = w.grid
    nodes = [_node(r, c) for r in range(n) for c in range(n)]
    segments = _grid_segments(n, w.modes, _rng(workload, seed, "segments"))
    seg_ids = [s["segment_id"] for s in segments]

    rng = _rng(workload, seed, "city")
    pt_routes = _bus_routes(w, rng) if BUS in w.modes else []
    stops = sorted({s for r in pt_routes for s in r["stops"]})
    hubs = set(stops)
    if CAV in w.modes:
        hubs |= set(rng.sample(nodes, max(2, n)))
    multimodal = [
        {"node_id": node,
         "attachments": [[m, "N3"] for m in w.modes],
         "services": (["pt-stop"] if node in stops else []) + ["cav-pickup"]}
        for node in sorted(hubs)
    ]

    car_only = {"allowed_modes": [CAR]}
    arrivals = []
    for _ in range(w.od_streams):
        origin, dest = _od_pair(rng, n, w.od_span)
        arrivals.append({"origin": origin, "dest": dest,
                         "rate_per_hour": w.stream_rate, "start": 0,
                         "end": DEMAND_WINDOW, "prefs": car_only})

    devices = []
    rsu_ids = []
    for k, node in enumerate(rng.sample(nodes, w.rsus)):
        rsu_ids.append(f"rsu{k}")
        devices.append({"device_id": f"rsu{k}", "role": "roadside-unit",
                        "position": {"node": node}, "comm_range": 1500})
    rsu_links = [[rsu_ids[rng.randrange(k)], rsu_ids[k]] for k in range(1, len(rsu_ids))]
    for k in range(w.travelers):
        origin, dest = _od_pair(rng, n, w.od_span)
        devices.append({
            "device_id": f"trav{k}", "role": "vehicle-obu",
            "position": {"node": origin}, "comm_range": 300, "mode": CAR,
            "trip": {"origin": origin, "dest": dest,
                     "depart": round(rng.uniform(0, DEMAND_WINDOW), 1),
                     "prefs": car_only},
        })
    for k in range(w.idle_obus):
        origin, dest = _od_pair(rng, n, w.od_span)
        devices.append({"device_id": f"obu{k}", "role": "vehicle-obu",
                        "position": {"node": origin}, "comm_range": 300,
                        "mode": CAR, "destination": dest})
    for k, node in enumerate(stops):
        devices.append({"device_id": f"sd{k}", "role": "stop-display",
                        "position": {"node": node}})
    for k, node in enumerate(rng.sample(nodes, w.signals)):
        devices.append({"device_id": f"sc{k}", "role": "signal-controller",
                        "position": {"node": node}})
    for k, node in enumerate(rng.sample(nodes, w.cavs)):
        devices.append({"device_id": f"cav{k}", "role": "vehicle-obu",
                        "position": {"node": node}, "comm_range": 300, "mode": CAV})

    bus_segs = sorted({s for r in pt_routes for s in r["segments"]})
    located = rng.sample(bus_segs, w.events_on_bus)
    if w.events_on_streams:
        # the segment of stream k's path that fewest other streams use
        paths = [_free_flow_path(segments, a["origin"], a["dest"]) for a in arrivals]
        use = {}
        for path in paths:
            for seg in path:
                use[seg] = use.get(seg, 0) + 1
        for path in paths[:w.events - len(located)]:
            fewest = min(use[seg] for seg in path if seg not in located)
            located.append(rng.choice([seg for seg in path
                                       if use[seg] == fewest and seg not in located]))
    located += rng.sample(sorted(set(seg_ids) - set(located)), w.events - len(located))
    disturbances = []
    for k, seg in enumerate(located):
        estimated = 60.0 * rng.randrange(*w.event_minutes)
        disturbances.append({
            "event_id": f"ev{k}", "kind": "D1", "segments": [seg], "nodes": [],
            "start": float(rng.randrange(300, int(w.event_start_max), 60)),
            "estimated_duration": estimated,
            "true_duration": estimated * w.event_overrun,
            "severity": {"capacity_reduction": 1.0, "lanes_affected": 2},
            "specifics": {"partial_blockage": False},
        })

    return {
        "seed": SIMULATION_SEED,
        "end_time": END_TIME,
        "network": {
            "modes": _mode_specs(w.modes),
            "networks": [{"network_id": "N3", "name": "road"}],
            "usage_matrix": [[m, "N3"] for m in w.modes],
            "nodes": nodes,
            "segments": segments,
            "multimodal_nodes": multimodal,
        },
        "demand": {"trips": [], "arrivals": arrivals, "ev_modifiers": []},
        "disturbances": disturbances,
        "detection_sources": [
            {"source_kind": "user-app", "applicable_kinds": ["D1"],
             "detect_probability": 1.0, "latency_min": 30, "latency_max": 90},
        ],
        "devices": devices,
        "policies": {
            "relevance": {"horizon": 1800,
                          "area_radius": {"critical": 2000, "major": 1000,
                                          "inferior": 600, "minor": 300},
                          "include_adaptation_actors": True},
            "rsu_links": rsu_links,
            "max_hops": 8,
            "pt_routes": pt_routes,
            "defaults": {},
        },
    }


def scenario_bytes(workload: str, seed: int) -> bytes:
    """Canonical encoding of ``generate``: equal inputs give equal bytes."""
    doc = generate(workload, seed)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
