"""Scenario file loading and validation.

A scenario is one JSON document with sections ``network``, ``demand``,
``disturbances``, ``effect_matrix``, ``detection_sources``, ``devices``,
``policies``, ``seed`` and ``end_time``.  Loading validates every cross
reference and raises :class:`ValidationError` naming the offending
identifier; a validated scenario is immutable and each simulation run
builds its own fresh world state from it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from .adaptation import DEFAULT_STRATEGY_TABLE, StrategyTable, validate_strategy_table
from .disturbance import (
    DetectionSource,
    DisturbanceEvent,
    SeverityMeasure,
    default_effect_matrix,
    validate_effect_matrix,
)
from .dissemination import DevicePosition, EdgeDevice, RelevancePolicy, RsuTopology
from .errors import ValidationError
from .network import MultiLayerNetwork, build_network
from .routing import RoutingPreferences
from .state import CavUnit, NetworkState, PtRoute, SimDefaults, WorldState, boarding_waits


@dataclass(frozen=True)
class TripSpec:
    origin: str
    dest: str
    depart: float
    count: int
    prefs: RoutingPreferences
    device_id: Optional[str] = None


@dataclass(frozen=True)
class ArrivalSpec:
    index: int
    origin: str
    dest: str
    rate_per_hour: float
    start: float
    end: float
    prefs: RoutingPreferences


@dataclass(frozen=True)
class EvModifier:
    event_id: str
    multiplier: float
    nodes: frozenset[str]


@dataclass(frozen=True)
class Scenario:
    raw: Mapping
    net: MultiLayerNetwork
    trips: tuple[TripSpec, ...]
    arrivals: tuple[ArrivalSpec, ...]
    ev_modifiers: tuple[EvModifier, ...]
    events: tuple[DisturbanceEvent, ...]
    matrix: Mapping[str, frozenset]
    sources: tuple[DetectionSource, ...]
    device_specs: tuple[Mapping, ...]
    policy: RelevancePolicy
    strategy_table: StrategyTable
    topology: RsuTopology
    pt_routes: tuple[PtRoute, ...]
    defaults: SimDefaults
    seed: int
    end_time: float

    # -- per-run builders ----------------------------------------------------

    def build_devices(self) -> dict[str, EdgeDevice]:
        devices: dict[str, EdgeDevice] = {}
        for spec in self.device_specs:
            device = _device_from_spec(spec, self.net)
            devices[device.device_id] = device
        return devices

    def build_world(self) -> WorldState:
        overlay = NetworkState(
            self.net,
            boarding_wait=boarding_waits(self.net, self.pt_routes, self.defaults),
        )
        devices = self.build_devices()
        cavs: dict[str, CavUnit] = {}
        for device in devices.values():
            if device.role != "vehicle-obu" or device.mode is None:
                continue
            if self.net.modes[device.mode].category != "cav-taxi":
                continue
            if any(t.device_id == device.device_id for t in self.trips):
                continue
            node = device.position.node
            if node is None:
                node = self.net.segments[device.position.segment].to_node
            cavs[device.device_id] = CavUnit(cav_id=device.device_id, node=node)
        return WorldState(
            overlay=overlay,
            devices=devices,
            pt_routes={r.route_id: PtRoute(r.route_id, r.mode_id, r.stops,
                                           r.segments, r.headway, r.priority)
                       for r in self.pt_routes},
            cavs=cavs,
            defaults=self.defaults,
        )

    def without_event(self, event_id: str) -> "Scenario":
        """This scenario minus one event, sharing the parsed network.

        Events are validated apart from every other section, so dropping
        one leaves the rest of the parse valid as it is.
        """
        raw = dict(self.raw)
        raw["disturbances"] = [
            e for e in raw.get("disturbances", []) if e.get("event_id") != event_id
        ]
        return dataclasses.replace(
            self, raw=raw, events=tuple(e for e in self.events if e.event_id != event_id))

    def stream(self, name: str) -> random.Random:
        return stream_rng(self.seed, name)


def stream_rng(seed: int, name: str) -> random.Random:
    """Named substream: independent draws per component and per entity."""
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- parsing -------------------------------------------------------------------


def _prefs_from(raw: Optional[Mapping], net: MultiLayerNetwork, context: str) -> RoutingPreferences:
    if raw is None:
        return RoutingPreferences(allowed_modes=frozenset(net.modes))
    modes = frozenset(raw.get("allowed_modes", sorted(net.modes)))
    for mode in modes:
        if mode not in net.modes:
            raise ValidationError(f"{context}: unknown mode {mode}")
    return RoutingPreferences(
        allowed_modes=modes,
        transfer_penalty=float(raw.get("transfer_penalty", 0.0)),
        max_walk=float(raw.get("max_walk", float("inf"))),
    )


def _device_from_spec(spec: Mapping, net: MultiLayerNetwork) -> EdgeDevice:
    device_id = spec["device_id"]
    pos_raw = spec.get("position")
    if not isinstance(pos_raw, Mapping):
        raise ValidationError(f"device {device_id}: missing position")
    if "node" in pos_raw:
        position = DevicePosition(node=pos_raw["node"])
    else:
        position = DevicePosition(
            segment=pos_raw.get("segment"), offset=float(pos_raw.get("offset", 0.0))
        )
    planned = spec.get("planned_route")
    planned_route = tuple((s, float(t)) for s, t in planned) if planned else None
    return EdgeDevice(
        device_id=device_id,
        role=spec["role"],
        position=position,
        comm_range=float(spec.get("comm_range", 0.0)),
        planned_route=planned_route,
        mode=spec.get("mode"),
        destination=spec.get("destination"),
    )


def load_scenario(raw: Mapping) -> Scenario:
    """Parse and validate a scenario document."""
    for section in ("network", "seed", "end_time"):
        if section not in raw:
            raise ValidationError(f"scenario: missing section {section!r}")
    net = build_network(raw["network"])
    seed = raw["seed"]
    if not isinstance(seed, int):
        raise ValidationError("scenario: seed must be an integer")
    end_time = float(raw["end_time"])
    if end_time <= 0:
        raise ValidationError("scenario: end_time must be > 0")

    defaults_raw = (raw.get("policies") or {}).get("defaults", {})
    known = set(SimDefaults.__dataclass_fields__)
    for key in defaults_raw:
        if key not in known:
            raise ValidationError(f"policies.defaults: unknown key {key!r}")
    defaults = SimDefaults(**{k: float(v) for k, v in defaults_raw.items()})

    # demand
    demand_raw = raw.get("demand") or {}
    trips: list[TripSpec] = []
    for i, t in enumerate(demand_raw.get("trips", [])):
        prefs = _prefs_from(t.get("prefs"), net, f"demand trip {i}")
        for node in (t["origin"], t["dest"]):
            if node not in net.nodes:
                raise ValidationError(f"demand trip {i}: unknown node {node}")
        depart = float(t["depart"])
        if depart < 0 or depart >= end_time:
            raise ValidationError(f"demand trip {i}: depart outside [0, end_time)")
        trips.append(TripSpec(
            origin=t["origin"], dest=t["dest"], depart=depart,
            count=int(t.get("count", 1)), prefs=prefs,
        ))
    arrivals: list[ArrivalSpec] = []
    for i, a in enumerate(demand_raw.get("arrivals", [])):
        prefs = _prefs_from(a.get("prefs"), net, f"demand arrivals {i}")
        for node in (a["origin"], a["dest"]):
            if node not in net.nodes:
                raise ValidationError(f"demand arrivals {i}: unknown node {node}")
        rate = float(a["rate_per_hour"])
        if not math.isfinite(rate):
            raise ValidationError(f"demand arrivals {i}: rate must be finite")
        if rate < 0:
            raise ValidationError(f"demand arrivals {i}: negative rate")
        arrivals.append(ArrivalSpec(
            index=i, origin=a["origin"], dest=a["dest"], rate_per_hour=rate,
            start=float(a.get("start", 0.0)),
            end=float(a.get("end", end_time)),
            prefs=prefs,
        ))
    # A modifier's event_id is not checked: modifiers of an event dropped by
    # without_event stay in the scenario and simply never apply.
    ev_modifiers: list[EvModifier] = []
    for i, m in enumerate(demand_raw.get("ev_modifiers", [])):
        multiplier = float(m["multiplier"])
        if not (math.isfinite(multiplier) and multiplier >= 0):
            raise ValidationError(
                f"demand ev_modifiers {i}: multiplier must be finite and >= 0")
        nodes = frozenset(m.get("nodes", []))
        for node in sorted(nodes):
            if node not in net.nodes:
                raise ValidationError(f"demand ev_modifiers {i}: unknown node {node}")
        ev_modifiers.append(EvModifier(event_id=m["event_id"], multiplier=multiplier,
                                       nodes=nodes))

    # disturbances, closed over shared physical infrastructure
    events: list[DisturbanceEvent] = []
    seen_events: set[str] = set()
    for e in raw.get("disturbances", []):
        event_id = e["event_id"]
        if event_id in seen_events:
            raise ValidationError(f"duplicate event identifier {event_id}")
        seen_events.add(event_id)
        segments = list(e.get("segments", []))
        for seg in segments:
            if seg not in net.segments:
                raise ValidationError(f"event {event_id}: unknown segment {seg}")
        expanded = tuple(sorted(net.expand_shared(segments)))
        for node in e.get("nodes", []):
            if node not in net.nodes:
                raise ValidationError(f"event {event_id}: unknown node {node}")
        sev_raw = e.get("severity") or {}
        severity = SeverityMeasure(
            capacity_reduction=(None if "capacity_reduction" not in sev_raw
                                else float(sev_raw["capacity_reduction"])),
            lanes_affected=(None if "lanes_affected" not in sev_raw
                            else int(sev_raw["lanes_affected"])),
            severity_index=(None if "severity_index" not in sev_raw
                            else int(sev_raw["severity_index"])),
            displaced_volume=(None if "displaced_volume" not in sev_raw
                              else float(sev_raw["displaced_volume"])),
        )
        estimated = float(e["estimated_duration"])
        event = DisturbanceEvent(
            event_id=event_id,
            kind=e["kind"],
            segments=expanded,
            nodes=tuple(sorted(e.get("nodes", []))),
            start=float(e["start"]),
            estimated_duration=estimated,
            true_duration=float(e.get("true_duration", estimated)),
            severity=severity,
            specifics=dict(e.get("specifics", {})),
        )
        if event.start >= end_time:
            raise ValidationError(f"event {event_id}: starts after end_time")
        events.append(event)

    # effect matrix: scenario rows override the documented default
    matrix = dict(default_effect_matrix(
        net, tram_crossing_signals=bool(raw.get("effect_matrix_tram_crossing", False))
    ))
    for kind, pairs in (raw.get("effect_matrix") or {}).items():
        matrix[kind] = frozenset(tuple(p) for p in pairs)
    validate_effect_matrix(matrix, net)

    sources = tuple(
        DetectionSource(
            source_kind=s["source_kind"],
            applicable_kinds=frozenset(s["applicable_kinds"]),
            detect_probability=float(s["detect_probability"]),
            latency_min=float(s.get("latency_min", 0.0)),
            latency_max=float(s.get("latency_max", 0.0)),
        )
        for s in raw.get("detection_sources", [])
    )

    # devices (validated by building them once)
    device_specs = tuple(raw.get("devices", []))
    seen_devices: set[str] = set()
    for spec in device_specs:
        if "device_id" not in spec:
            raise ValidationError("device entry missing device_id")
        if spec["device_id"] in seen_devices:
            raise ValidationError(f"duplicate device identifier {spec['device_id']}")
        seen_devices.add(spec["device_id"])
        device = _device_from_spec(spec, net)
        pos = device.position
        if pos.node is not None and pos.node not in net.nodes:
            raise ValidationError(f"device {device.device_id}: unknown node {pos.node}")
        if pos.segment is not None and pos.segment not in net.segments:
            raise ValidationError(
                f"device {device.device_id}: unknown segment {pos.segment}"
            )
        if device.mode is not None and device.mode not in net.modes:
            raise ValidationError(f"device {device.device_id}: unknown mode {device.mode}")
        if device.destination is not None and device.destination not in net.nodes:
            raise ValidationError(
                f"device {device.device_id}: unknown destination {device.destination}"
            )
        for seg, _eta in device.planned_route or ():
            if seg not in net.segments:
                raise ValidationError(
                    f"device {device.device_id}: planned route names unknown segment {seg}"
                )
        trip_raw = spec.get("trip")
        if trip_raw is not None:
            if device.role not in ("vehicle-obu", "traveler-app"):
                raise ValidationError(
                    f"device {device.device_id}: only mobile devices carry trips"
                )
            prefs = _prefs_from(trip_raw.get("prefs"), net, f"device {device.device_id} trip")
            for node in (trip_raw["origin"], trip_raw["dest"]):
                if node not in net.nodes:
                    raise ValidationError(
                        f"device {device.device_id}: unknown trip node {node}"
                    )
            depart = float(trip_raw["depart"])
            if depart < 0 or depart >= end_time:
                raise ValidationError(
                    f"device {device.device_id}: trip depart outside [0, end_time)"
                )

    # policies
    pol = raw.get("policies") or {}
    rel_raw = pol.get("relevance", {})
    policy = RelevancePolicy(
        horizon=float(rel_raw.get("horizon", 1800.0)),
        area_radius={
            "critical": float(rel_raw.get("area_radius", {}).get("critical", 5000.0)),
            "major": float(rel_raw.get("area_radius", {}).get("major", 2000.0)),
            "inferior": float(rel_raw.get("area_radius", {}).get("inferior", 800.0)),
            "minor": float(rel_raw.get("area_radius", {}).get("minor", 300.0)),
        },
        include_adaptation_actors=bool(rel_raw.get("include_adaptation_actors", True)),
    )
    table: StrategyTable = {
        kind: tuple(row) for kind, row in DEFAULT_STRATEGY_TABLE.items()
    }
    for kind, row in (pol.get("strategy_table") or {}).items():
        table[kind] = tuple(row)
    validate_strategy_table(table)

    adjacency: dict[str, frozenset[str]] = {}
    links = pol.get("rsu_links", [])
    rsu_ids = {d["device_id"] for d in device_specs if d.get("role") == "roadside-unit"}
    tmp: dict[str, set[str]] = {}
    for a, b in links:
        for rsu in (a, b):
            if rsu not in rsu_ids:
                raise ValidationError(f"rsu link names unknown roadside unit {rsu}")
        tmp.setdefault(a, set()).add(b)
        tmp.setdefault(b, set()).add(a)
    adjacency = {k: frozenset(v) for k, v in tmp.items()}
    topology = RsuTopology(adjacency=adjacency, max_hops=int(pol.get("max_hops", 8)))

    pt_routes = []
    seen_routes: set[str] = set()
    for r in pol.get("pt_routes", []):
        route_id = r["route_id"]
        if route_id in seen_routes:
            raise ValidationError(f"duplicate pt route identifier {route_id}")
        seen_routes.add(route_id)
        mode_id = r["mode_id"]
        if mode_id not in net.modes:
            raise ValidationError(f"pt route {route_id}: unknown mode {mode_id}")
        segments = tuple(r["segments"])
        for seg in segments:
            if seg not in net.segments:
                raise ValidationError(f"pt route {route_id}: unknown segment {seg}")
            if net.segments[seg].usage_for(mode_id) is None:
                raise ValidationError(
                    f"pt route {route_id}: segment {seg} unusable by {mode_id}"
                )
        stops = tuple(r["stops"])
        for stop in stops:
            if stop not in net.nodes:
                raise ValidationError(f"pt route {route_id}: unknown stop {stop}")
        pt_routes.append(PtRoute(
            route_id=route_id, mode_id=mode_id, stops=stops, segments=segments,
            headway=float(r.get("headway", defaults.default_headway)),
            priority=bool(r.get("priority", False)),
        ))

    scenario = Scenario(
        raw=raw,
        net=net,
        trips=tuple(trips),
        arrivals=tuple(arrivals),
        ev_modifiers=tuple(ev_modifiers),
        events=tuple(events),
        matrix=matrix,
        sources=sources,
        device_specs=device_specs,
        policy=policy,
        strategy_table=table,
        topology=topology,
        pt_routes=tuple(pt_routes),
        defaults=defaults,
        seed=seed,
        end_time=end_time,
    )
    return scenario


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file {path}: {exc}") from None
    return load_scenario(raw)


def device_trips(scenario: Scenario, net: MultiLayerNetwork) -> list[TripSpec]:
    """Trips declared on mobile devices, in device order."""
    out = []
    for spec in scenario.device_specs:
        trip_raw = spec.get("trip")
        if trip_raw is None:
            continue
        out.append(TripSpec(
            origin=trip_raw["origin"],
            dest=trip_raw["dest"],
            depart=float(trip_raw["depart"]),
            count=1,
            prefs=_prefs_from(trip_raw.get("prefs"), net, spec["device_id"]),
            device_id=spec["device_id"],
        ))
    return out
