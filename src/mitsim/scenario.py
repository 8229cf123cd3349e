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
from typing import Iterable, Mapping, Optional

from .adaptation import DEFAULT_STRATEGY_TABLE, StrategyTable, validate_strategy_table
from .disturbance import (
    DetectionSource,
    DisturbanceEvent,
    SeverityMeasure,
    default_effect_matrix,
    validate_effect_matrix,
)
from .dissemination import DevicePosition, EdgeDevice, RelevancePolicy, RsuTopology
from .errors import ValidationError, as_float, as_int
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


# A stream's peak rate may draw at most this many arrivals between t = 0
# and the end of its window.  So the mean gap between draws is at least a
# millionth of any time the stream reaches, far above the clock's rounding
# step, and the arrival loop always ends after a bounded number of draws.
MAX_STREAM_ARRIVALS = 1_000_000


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


def ev_rate_windows(
    entry: ArrivalSpec,
    modifiers: Iterable[EvModifier],
    events: Mapping[str, DisturbanceEvent],
) -> tuple[list[tuple[float, float, float]], float]:
    """The (start, end, multiplier) windows of the EV events in ``events``
    whose modifiers apply to ``entry``, in modifier order, and the stream's
    peak rate per hour over them."""
    windows = []
    for mod in modifiers:
        event = events.get(mod.event_id)
        if event is None or event.kind != "EV":
            continue
        if mod.nodes and entry.origin not in mod.nodes and entry.dest not in mod.nodes:
            continue
        windows.append((event.start, event.true_end, mod.multiplier))
    peak = entry.rate_per_hour
    for _s, _e, m in windows:
        peak *= max(1.0, m)
    return windows, peak


@dataclass(frozen=True)
class Scenario:
    net: MultiLayerNetwork
    trips: tuple[TripSpec, ...]
    arrivals: tuple[ArrivalSpec, ...]
    ev_modifiers: tuple[EvModifier, ...]
    events: tuple[DisturbanceEvent, ...]
    matrix: Mapping[str, frozenset]
    sources: tuple[DetectionSource, ...]
    device_specs: tuple[Mapping, ...]
    device_trips: tuple[TripSpec, ...]  # declared on mobile devices, in device order
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
        travelling = {trip.device_id for trip in self.device_trips}
        cavs: dict[str, CavUnit] = {}
        for device in devices.values():
            if device.role != "vehicle-obu" or device.mode is None:
                continue
            if self.net.modes[device.mode].category != "cav-taxi":
                continue
            if device.device_id in travelling:
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
        return dataclasses.replace(
            self, events=tuple(e for e in self.events if e.event_id != event_id))

    def with_seed(self, seed: int) -> "Scenario":
        """This scenario under another seed, sharing the parsed network.

        The seed is only stored at parse time, so nothing else changes.
        """
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError("scenario: seed must be an integer")
        return dataclasses.replace(self, seed=seed)

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
    penalty = as_float(raw.get("transfer_penalty", 0.0), context, "transfer_penalty")
    max_walk = as_float(raw.get("max_walk", float("inf")), context, "max_walk")
    try:
        return RoutingPreferences(
            allowed_modes=modes, transfer_penalty=penalty, max_walk=max_walk,
        )
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


def _device_from_spec(spec: Mapping, net: MultiLayerNetwork) -> EdgeDevice:
    device_id = spec["device_id"]
    where = f"device {device_id}"
    pos_raw = spec.get("position")
    if not isinstance(pos_raw, Mapping):
        raise ValidationError(f"{where}: missing position")
    if "node" in pos_raw:
        position = DevicePosition(node=pos_raw["node"])
    else:
        offset = as_float(pos_raw.get("offset", 0.0), where, "position offset")
        if not offset >= 0:
            raise ValidationError(f"{where}: position offset must be >= 0")
        position = DevicePosition(segment=pos_raw.get("segment"), offset=offset)
    planned = spec.get("planned_route")
    planned_route = (tuple((s, as_float(t, where, "planned_route time")) for s, t in planned)
                     if planned else None)
    return EdgeDevice(
        device_id=device_id,
        role=spec["role"],
        position=position,
        comm_range=as_float(spec.get("comm_range", 0.0), where, "comm_range"),
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
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError("scenario: seed must be an integer")
    end_time = as_float(raw["end_time"], "scenario", "end_time")
    if not end_time > 0:
        raise ValidationError("scenario: end_time must be > 0")

    defaults_raw = (raw.get("policies") or {}).get("defaults", {})
    known = set(SimDefaults.__dataclass_fields__)
    values: dict[str, float] = {}
    for key, value in defaults_raw.items():
        if key not in known:
            raise ValidationError(f"policies.defaults: unknown key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"policies.defaults: {key} must be a number")
        try:
            values[key] = float(value)
        except OverflowError:  # an integer beyond every float
            raise ValidationError(f"policies.defaults: {key} must be finite") from None
    defaults = SimDefaults(**values)
    # Boarding waits are route costs, which must not be negative.
    for key in ("cav_boarding_wait", "default_headway"):
        if not getattr(defaults, key) >= 0:
            raise ValidationError(f"policies.defaults: {key} must be >= 0")
    if not 0 < defaults.signal_multiplier <= 2:
        raise ValidationError("policies.defaults: signal_multiplier must be in (0, 2]")
    for key in sorted(values):
        if not math.isfinite(values[key]):
            raise ValidationError(f"policies.defaults: {key} must be finite")
    # Both are divisors: hourly flows scale by 3600 / flow_window, and a
    # replacement service runs displaced / replacement_vehicle_capacity vehicles.
    for key in ("flow_window", "replacement_vehicle_capacity"):
        if not getattr(defaults, key) > 0:
            raise ValidationError(f"policies.defaults: {key} must be > 0")

    # demand
    demand_raw = raw.get("demand") or {}
    trips: list[TripSpec] = []
    for i, t in enumerate(demand_raw.get("trips", [])):
        where = f"demand trip {i}"
        prefs = _prefs_from(t.get("prefs"), net, where)
        for node in (t["origin"], t["dest"]):
            if node not in net.nodes:
                raise ValidationError(f"{where}: unknown node {node}")
        depart = as_float(t["depart"], where, "depart")
        if not 0 <= depart < end_time:
            raise ValidationError(f"demand trip {i}: depart outside [0, end_time)")
        trips.append(TripSpec(
            origin=t["origin"], dest=t["dest"], depart=depart,
            count=as_int(t.get("count", 1), where, "count"), prefs=prefs,
        ))
    arrivals: list[ArrivalSpec] = []
    for i, a in enumerate(demand_raw.get("arrivals", [])):
        where = f"demand arrivals {i}"
        prefs = _prefs_from(a.get("prefs"), net, where)
        for node in (a["origin"], a["dest"]):
            if node not in net.nodes:
                raise ValidationError(f"{where}: unknown node {node}")
        rate = as_float(a["rate_per_hour"], where, "rate_per_hour")
        if not math.isfinite(rate):
            raise ValidationError(f"demand arrivals {i}: rate must be finite")
        if rate < 0:
            raise ValidationError(f"demand arrivals {i}: negative rate")
        if rate > 0 and rate / 3600.0 == 0.0:
            raise ValidationError(f"demand arrivals {i}: rate is 0 per second")
        # end = +inf is fine: the stream stops at end_time.
        start = as_float(a.get("start", 0.0), where, "start")
        end = as_float(a.get("end", end_time), where, "end")
        if not (math.isfinite(start) and start >= 0):
            raise ValidationError(f"demand arrivals {i}: start must be finite and >= 0")
        if math.isnan(end):
            raise ValidationError(f"demand arrivals {i}: end must be a number")
        arrivals.append(ArrivalSpec(
            index=i, origin=a["origin"], dest=a["dest"], rate_per_hour=rate,
            start=start, end=end, prefs=prefs,
        ))
    # A modifier's event_id is not checked: modifiers of an event dropped by
    # without_event stay in the scenario and simply never apply.
    ev_modifiers: list[EvModifier] = []
    for i, m in enumerate(demand_raw.get("ev_modifiers", [])):
        multiplier = as_float(m["multiplier"], f"demand ev_modifiers {i}", "multiplier")
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
        where = f"event {event_id}"
        sev_raw = e.get("severity") or {}
        severity = SeverityMeasure(
            capacity_reduction=(None if "capacity_reduction" not in sev_raw
                                else as_float(sev_raw["capacity_reduction"], where,
                                              "severity capacity_reduction")),
            lanes_affected=(None if "lanes_affected" not in sev_raw
                            else as_int(sev_raw["lanes_affected"], where,
                                        "severity lanes_affected")),
            severity_index=(None if "severity_index" not in sev_raw
                            else as_int(sev_raw["severity_index"], where,
                                        "severity severity_index")),
            displaced_volume=(None if "displaced_volume" not in sev_raw
                              else as_float(sev_raw["displaced_volume"], where,
                                            "severity displaced_volume")),
        )
        estimated = as_float(e["estimated_duration"], where, "estimated_duration")
        event = DisturbanceEvent(
            event_id=event_id,
            kind=e["kind"],
            segments=expanded,
            nodes=tuple(sorted(e.get("nodes", []))),
            start=as_float(e["start"], where, "start"),
            estimated_duration=estimated,
            true_duration=as_float(e.get("true_duration", estimated), where, "true_duration"),
            severity=severity,
            specifics=dict(e.get("specifics", {})),
        )
        if event.start >= end_time:
            raise ValidationError(f"event {event_id}: starts after end_time")
        events.append(event)
    events_by_id = {e.event_id: e for e in events}
    for entry in arrivals:
        if entry.rate_per_hour <= 0:
            continue
        _windows, peak = ev_rate_windows(entry, ev_modifiers, events_by_id)
        # NaN (an overflowed peak times 0) is rejected too.
        if not peak * min(entry.end, end_time) / 3600.0 <= MAX_STREAM_ARRIVALS:
            raise ValidationError(
                f"demand arrivals {entry.index}: the peak rate draws more than "
                f"{MAX_STREAM_ARRIVALS} arrivals before the window ends")

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
            detect_probability=as_float(s["detect_probability"], f"detection source {i}",
                                        "detect_probability"),
            latency_min=as_float(s.get("latency_min", 0.0), f"detection source {i}",
                                 "latency_min"),
            latency_max=as_float(s.get("latency_max", 0.0), f"detection source {i}",
                                 "latency_max"),
        )
        for i, s in enumerate(raw.get("detection_sources", []))
    )

    # devices (validated by building them once)
    device_specs = tuple(raw.get("devices", []))
    device_trips: list[TripSpec] = []
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
            depart = as_float(trip_raw["depart"], f"device {device.device_id}", "trip depart")
            if not 0 <= depart < end_time:
                raise ValidationError(
                    f"device {device.device_id}: trip depart outside [0, end_time)"
                )
            device_trips.append(TripSpec(origin=trip_raw["origin"], dest=trip_raw["dest"],
                                         depart=depart, count=1, prefs=prefs,
                                         device_id=device.device_id))

    # policies
    pol = raw.get("policies") or {}
    rel_raw = pol.get("relevance", {})
    radius_raw = rel_raw.get("area_radius", {})
    policy = RelevancePolicy(
        horizon=as_float(rel_raw.get("horizon", 1800.0), "policies.relevance", "horizon"),
        area_radius={
            level: as_float(radius_raw.get(level, default), "policies.relevance",
                            f"area_radius {level}")
            for level, default in (("critical", 5000.0), ("major", 2000.0),
                                   ("inferior", 800.0), ("minor", 300.0))
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
    topology = RsuTopology(adjacency=adjacency,
                           max_hops=as_int(pol.get("max_hops", 8), "policies", "max_hops"))

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
        headway = as_float(r.get("headway", defaults.default_headway),
                           f"pt route {route_id}", "headway")
        if not headway > 0:
            raise ValidationError(f"pt route {route_id}: headway must be > 0")
        pt_routes.append(PtRoute(
            route_id=route_id, mode_id=mode_id, stops=stops, segments=segments,
            headway=headway, priority=bool(r.get("priority", False)),
        ))

    return Scenario(
        net=net,
        trips=tuple(trips),
        arrivals=tuple(arrivals),
        ev_modifiers=tuple(ev_modifiers),
        events=tuple(events),
        matrix=matrix,
        sources=sources,
        device_specs=device_specs,
        device_trips=tuple(device_trips),
        policy=policy,
        strategy_table=table,
        topology=topology,
        pt_routes=tuple(pt_routes),
        defaults=defaults,
        seed=seed,
        end_time=end_time,
    )


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"scenario file {path}: {exc}") from None
    return load_scenario(raw)

