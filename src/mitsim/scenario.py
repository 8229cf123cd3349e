"""Scenario file loading and validation.

A scenario is one JSON document with sections ``network``, ``demand``,
``disturbances``, ``effect_matrix``, ``detection_sources``, ``devices``,
``policies``, ``seed`` and ``end_time``.  Loading validates every cross
reference and raises :class:`ValidationError` naming the offending
identifier; a validated scenario is immutable and each simulation run
builds its own fresh world state from it.  The edge devices are parsed
and validated once, at load; runs share them and copy only the devices
their travelers carry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .adaptation import (DEFAULT_STRATEGY_TABLE, StrategyTable, route_node_chain,
                         validate_strategy_table)
from .disturbance import (DETECTION_SOURCE_KINDS, DISTURBANCE_KINDS, SEVERITY_MEASURES,
                          DetectionSource, DisturbanceEvent, SeverityMeasure,
                          default_effect_matrix, validate_effect_matrix)
from .dissemination import (DEVICE_ROLES, MOBILE_ROLES, DevicePosition, EdgeDevice,
                            RelevancePolicy, RsuTopology)
from .errors import (ValidationError, as_bool, as_float, as_int, as_list, as_object, entries,
                     id_pair, known, require)
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
    devices: tuple[EdgeDevice, ...]  # validated, in spec order; shared by runs, never written
    device_trips: tuple[TripSpec, ...]  # declared on mobile devices, in device order
    policy: RelevancePolicy
    strategy_table: StrategyTable
    topology: RsuTopology
    pt_routes: tuple[PtRoute, ...]
    defaults: SimDefaults
    seed: int
    end_time: float

    # -- per-run builders ----------------------------------------------------

    def build_world(self) -> WorldState:
        """A fresh world for one run, sharing the loaded devices: a run copies
        only those its travelers carry (``simulation._Sim._add_traveler``)."""
        overlay = NetworkState(
            self.net,
            boarding_wait=boarding_waits(self.net, self.pt_routes, self.defaults),
        )
        devices = {d.device_id: d for d in self.devices}
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
            pt_routes={r.route_id: r for r in self.pt_routes},
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


def stream_rng(seed: int, name: str) -> random.Random:
    """Named substream: independent draws per component and per entity."""
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# -- parsing -------------------------------------------------------------------


def _endpoints(entry: Mapping, net: MultiLayerNetwork,
               where: str) -> tuple[RoutingPreferences, str, str]:
    """The routing preferences, origin and destination of a trip or an
    arrival stream."""
    raw = as_object(entry.get("prefs"), where, "prefs")
    modes = frozenset(known(mode, net.modes, where, "mode") for mode in
                      as_list(raw.get("allowed_modes", sorted(net.modes)), where,
                              "allowed_modes"))
    penalty = as_float(raw.get("transfer_penalty", 0.0), where, "transfer_penalty")
    max_walk = as_float(raw.get("max_walk", float("inf")), where, "max_walk")
    try:
        prefs = RoutingPreferences(allowed_modes=modes, transfer_penalty=penalty,
                                   max_walk=max_walk)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None
    return (prefs, known(require(entry, where, "origin"), net.nodes, where, "node"),
            known(require(entry, where, "dest"), net.nodes, where, "node"))


def _device_from_spec(device_id: str, spec: Mapping, net: MultiLayerNetwork) -> EdgeDevice:
    where = f"device {device_id}"
    pos_raw = spec.get("position")
    if not isinstance(pos_raw, dict):
        raise ValidationError(f"{where}: missing position")
    if "node" in pos_raw:
        position = DevicePosition(node=known(pos_raw["node"], net.nodes, where, "node"))
    else:
        offset = as_float(pos_raw.get("offset", 0.0), where, "position offset")
        if not offset >= 0:
            raise ValidationError(f"{where}: position offset must be >= 0")
        segment = net.segments[known(pos_raw.get("segment"), net.segments, where, "segment")]
        position = DevicePosition(segment=segment.segment_id, offset=offset)
        if offset > segment.length:
            raise ValidationError(f"{where}: position offset {offset} is beyond segment "
                                  f"{segment.segment_id} ({segment.length} m)")
    planned_route = []
    for step in as_list(spec.get("planned_route") or [], where, "planned_route"):
        if not (isinstance(step, list) and len(step) == 2):
            raise ValidationError(f"{where}: planned_route steps must be [segment, eta] pairs")
        planned_route.append((known(step[0], net.segments, f"{where} planned route", "segment"),
                              as_float(step[1], where, "planned_route time")))
    mode, destination = spec.get("mode"), spec.get("destination")
    return EdgeDevice(
        device_id=device_id,
        role=known(require(spec, where, "role"), DEVICE_ROLES, where, "role"),
        position=position,
        comm_range=as_float(spec.get("comm_range", 0.0), where, "comm_range"),
        planned_route=tuple(planned_route) or None,
        mode=None if mode is None else known(mode, net.modes, where, "mode"),
        destination=(None if destination is None
                     else known(destination, net.nodes, where, "destination")),
    )


def load_scenario(raw: Mapping) -> Scenario:
    """Parse and validate a scenario document."""
    if not isinstance(raw, dict):
        raise ValidationError("scenario must be an object")
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

    pol = as_object(raw.get("policies"), "scenario", "policies")
    known_defaults = set(SimDefaults.__dataclass_fields__)
    values: dict[str, float] = {}
    for key, value in as_object(pol.get("defaults"), "policies", "defaults").items():
        if key not in known_defaults:
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

    demand = as_object(raw.get("demand"), "scenario", "demand")
    trips: list[TripSpec] = []
    for i, t in entries(demand.get("trips", []), "demand.trips", "demand trip"):
        where = f"demand trip {i}"
        prefs, origin, dest = _endpoints(t, net, where)
        depart = as_float(require(t, where, "depart"), where, "depart")
        if not 0 <= depart < end_time:
            raise ValidationError(f"{where}: depart outside [0, end_time)")
        trips.append(TripSpec(
            origin=origin, dest=dest, depart=depart,
            count=as_int(t.get("count", 1), where, "count"), prefs=prefs,
        ))
    arrivals: list[ArrivalSpec] = []
    for i, a in entries(demand.get("arrivals", []), "demand.arrivals", "demand arrivals"):
        where = f"demand arrivals {i}"
        prefs, origin, dest = _endpoints(a, net, where)
        rate = as_float(require(a, where, "rate_per_hour"), where, "rate_per_hour")
        if not math.isfinite(rate):
            raise ValidationError(f"{where}: rate must be finite")
        if rate < 0:
            raise ValidationError(f"{where}: negative rate")
        if rate > 0 and rate / 3600.0 == 0.0:
            raise ValidationError(f"{where}: rate is 0 per second")
        # end = +inf is fine: the stream stops at end_time.
        start = as_float(a.get("start", 0.0), where, "start")
        end = as_float(a.get("end", end_time), where, "end")
        if not (math.isfinite(start) and start >= 0):
            raise ValidationError(f"{where}: start must be finite and >= 0")
        if math.isnan(end):
            raise ValidationError(f"{where}: end must be a number")
        arrivals.append(ArrivalSpec(
            index=i, origin=origin, dest=dest, rate_per_hour=rate,
            start=start, end=end, prefs=prefs,
        ))
    # A modifier's event_id is not checked against the events: modifiers of
    # an event dropped by without_event stay in the scenario and never apply.
    ev_modifiers: list[EvModifier] = []
    for i, m in entries(demand.get("ev_modifiers", []), "demand.ev_modifiers",
                        "demand ev_modifiers"):
        where = f"demand ev_modifiers {i}"
        event_id = require(m, where, "event_id")
        if not isinstance(event_id, str):
            raise ValidationError(f"{where}: event_id must be a string")
        multiplier = as_float(require(m, where, "multiplier"), where, "multiplier")
        if not (math.isfinite(multiplier) and multiplier >= 0):
            raise ValidationError(f"{where}: multiplier must be finite and >= 0")
        nodes = frozenset(known(node, net.nodes, where, "node")
                          for node in as_list(m.get("nodes", []), where, "nodes"))
        ev_modifiers.append(EvModifier(event_id=event_id, multiplier=multiplier,
                                       nodes=nodes))

    # disturbances, closed over shared physical infrastructure
    events: list[DisturbanceEvent] = []
    for event_id, e in entries(raw.get("disturbances", []), "disturbances", "disturbance",
                               "event_id"):
        where = f"event {event_id}"
        segments = [known(seg, net.segments, where, "segment")
                    for seg in as_list(e.get("segments", []), where, "segments")]
        nodes = [known(node, net.nodes, where, "node")
                 for node in as_list(e.get("nodes", []), where, "nodes")]
        sev_raw = as_object(e.get("severity"), where, "severity")
        severity = SeverityMeasure(**{
            name: (as_int if measure == "int" else as_float)(sev_raw[name], where,
                                                              f"severity {name}")
            for name, measure in SEVERITY_MEASURES if name in sev_raw})
        estimated = as_float(require(e, where, "estimated_duration"), where,
                             "estimated_duration")
        event = DisturbanceEvent(
            event_id=event_id,
            kind=require(e, where, "kind"),
            segments=tuple(sorted(net.expand_shared(segments))),
            nodes=tuple(sorted(nodes)),
            start=as_float(require(e, where, "start"), where, "start"),
            estimated_duration=estimated,
            true_duration=as_float(e.get("true_duration", estimated), where, "true_duration"),
            severity=severity,
            specifics=dict(as_object(e.get("specifics"), where, "specifics")),
        )
        if event.start >= end_time:
            raise ValidationError(f"{where}: starts after end_time")
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
    tram_crossing = as_bool(raw.get("effect_matrix_tram_crossing", False), "scenario",
                            "effect_matrix_tram_crossing")
    matrix = dict(default_effect_matrix(net, tram_crossing_signals=tram_crossing))
    for kind, pairs in as_object(raw.get("effect_matrix"), "scenario", "effect_matrix").items():
        matrix[kind] = frozenset(id_pair(pair, f"effect matrix {kind}", "pair")
                                 for pair in as_list(pairs, "effect matrix", kind))
    validate_effect_matrix(matrix, net)

    sources: list[DetectionSource] = []
    for i, s in entries(raw.get("detection_sources", []), "detection_sources",
                        "detection source"):
        where = f"detection source {i}"
        source = DetectionSource(
            source_kind=known(require(s, where, "source_kind"), DETECTION_SOURCE_KINDS, where,
                              "source kind"),
            applicable_kinds=frozenset(
                known(kind, DISTURBANCE_KINDS, where, "kind") for kind
                in as_list(require(s, where, "applicable_kinds"), where, "applicable_kinds")),
            detect_probability=as_float(require(s, where, "detect_probability"), where,
                                        "detect_probability"),
            latency_min=as_float(s.get("latency_min", 0.0), where, "latency_min"),
            latency_max=as_float(s.get("latency_max", 0.0), where, "latency_max"),
        )
        # The run schedules a detection at its whole second, start + latency.
        for event in events:
            if (event.kind in source.applicable_kinds
                    and not math.isfinite(event.start + source.latency_max)):
                raise ValidationError(f"{where}: detection time of event {event.event_id} "
                                      "is not finite")
        sources.append(source)

    # devices, validated by building them once; runs share these
    devices: list[EdgeDevice] = []
    device_trips: list[TripSpec] = []
    for device_id, spec in entries(raw.get("devices", []), "devices", "device", "device_id"):
        device = _device_from_spec(device_id, spec, net)
        devices.append(device)
        if spec.get("trip") is None:
            continue
        if device.role not in MOBILE_ROLES:
            raise ValidationError(f"device {device_id}: only mobile devices carry trips")
        where = f"device {device_id} trip"
        trip = as_object(spec["trip"], f"device {device_id}", "trip")
        prefs, origin, dest = _endpoints(trip, net, where)
        depart = as_float(require(trip, where, "depart"), f"device {device_id}", "trip depart")
        if not 0 <= depart < end_time:
            raise ValidationError(f"device {device_id}: trip depart outside [0, end_time)")
        device_trips.append(TripSpec(origin=origin, dest=dest, depart=depart, count=1,
                                     prefs=prefs, device_id=device_id))

    rel_raw = as_object(pol.get("relevance"), "policies", "relevance")
    radius_raw = as_object(rel_raw.get("area_radius"), "policies.relevance", "area_radius")
    default = RelevancePolicy()
    policy = RelevancePolicy(
        horizon=as_float(rel_raw.get("horizon", default.horizon), "policies.relevance",
                         "horizon"),
        area_radius={
            level: as_float(radius_raw.get(level, radius), "policies.relevance",
                            f"area_radius {level}")
            for level, radius in default.area_radius.items()
        },
        include_adaptation_actors=as_bool(rel_raw.get("include_adaptation_actors",
                                                      default.include_adaptation_actors),
                                          "policies.relevance", "include_adaptation_actors"),
    )
    rows = {kind: tuple(as_list(row, "policies.strategy_table", kind)) for kind, row
            in as_object(pol.get("strategy_table"), "policies", "strategy_table").items()}
    validate_strategy_table(rows)
    table: StrategyTable = {**DEFAULT_STRATEGY_TABLE, **rows}

    rsu_ids = {d.device_id for d in devices if d.role == "roadside-unit"}
    adjacency: dict[str, set[str]] = {}
    for i, link in enumerate(as_list(pol.get("rsu_links", []), "policies", "rsu_links")):
        where = f"policies.rsu_links {i}"
        a, b = id_pair(link, where, "link")
        for rsu, other in ((a, b), (b, a)):
            adjacency.setdefault(known(rsu, rsu_ids, where, "roadside unit"), set()).add(other)
    topology = RsuTopology(adjacency={k: frozenset(v) for k, v in adjacency.items()},
                           max_hops=as_int(pol.get("max_hops", RsuTopology.max_hops),
                                           "policies", "max_hops"))

    pt_routes = []
    for route_id, r in entries(pol.get("pt_routes", []), "policies.pt_routes", "pt route",
                               "route_id"):
        where = f"pt route {route_id}"
        mode_id = known(require(r, where, "mode_id"), net.modes, where, "mode")
        segments = tuple(known(seg, net.segments, where, "segment")
                         for seg in as_list(require(r, where, "segments"), where, "segments"))
        for seg in segments:
            if net.segments[seg].usage_for(mode_id) is None:
                raise ValidationError(f"{where}: segment {seg} unusable by {mode_id}")
        stops = tuple(known(stop, net.nodes, where, "stop")
                      for stop in as_list(require(r, where, "stops"), where, "stops"))
        if not stops:
            raise ValidationError(f"{where}: no stops")
        headway = as_float(r.get("headway", defaults.default_headway), where, "headway")
        if not headway > 0:
            raise ValidationError(f"{where}: headway must be > 0")
        pt_route = PtRoute(
            route_id=route_id, mode_id=mode_id, stops=stops, segments=segments,
            headway=headway, priority=as_bool(r.get("priority", False), where, "priority"),
        )
        route_node_chain(net, pt_route)  # a bus diversion walks this chain mid-run
        pt_routes.append(pt_route)

    return Scenario(
        net=net,
        trips=tuple(trips),
        arrivals=tuple(arrivals),
        ev_modifiers=tuple(ev_modifiers),
        events=tuple(events),
        matrix=matrix,
        sources=tuple(sources),
        device_specs=tuple(raw.get("devices", [])),
        devices=tuple(devices),
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

