"""Deterministic discrete-event engine tying the pieces together.

The lifecycle per disturbance is: inject (capacity drops) -> detect ->
warn -> disseminate -> plan and apply adaptation -> notified travelers
replan -> expiry restores the overlay.  Travelers execute their plans
segment by segment; they replan only when warned, when they run into a
blocked segment, or when woken after waiting.

Entries run in (time, scheduling order).  Those ``setup`` schedules wait in
one list sorted that way, the rest in a heap, and ``run`` takes the smaller
of the two next entries; every setup entry was scheduled before any
run-time entry, so this merge yields a single heap's order, ties included.
All randomness flows from named substreams of the scenario seed (one per
detection event, one per demand entry), so a run is a pure function of
(scenario, seed): repeated runs produce byte-identical logs, and removing
one event does not perturb the draws of the others.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

from . import adaptation, dissemination
from .adaptation import PoliceNotification, Reroute, plan as plan_actions
from .disturbance import DisturbanceEvent, detect, direct_effects, escalate
from .dissemination import DevicePosition, DisseminationRecord, EdgeDevice
from .errors import ValidationError
from .messages import WarningStore, encode, make_warning
from .routing import evaluate_moves, route
from .scenario import Scenario, TripSpec, ev_rate_windows, stream_rng
from .state import Contribution, WorldState

MOBILE_ROLES = ("vehicle-obu", "traveler-app")


@dataclass(frozen=True)
class RunConfig:
    """Which parts of the response pipeline are active."""

    detection: bool = True
    broadcast: bool = False

    @property
    def label(self) -> str:
        if not self.detection:
            return "no_adapt"
        return "broadcast" if self.broadcast else "targeted"


MODE_TARGETED = RunConfig()
MODE_BROADCAST = RunConfig(broadcast=True)
MODE_NO_ADAPT = RunConfig(detection=False)


@dataclass
class Traveler:
    tid: str
    origin: str
    dest: str
    depart: float
    prefs: object
    device_id: Optional[str] = None
    baseline_cost: Optional[float] = None
    status: str = "pending"  # pending|moving|waiting|completed|abandoned
    node: Optional[str] = None
    moves: list = field(default_factory=list)
    current: Optional[tuple] = None  # (seg, enter, exit, to_node)
    traversals: list = field(default_factory=list)
    replan_flag: bool = False
    wait_version: int = 0
    arrival: Optional[float] = None
    no_route: bool = False


@dataclass
class Metrics:
    trips_total: int = 0
    trips_completed: int = 0
    trips_abandoned: int = 0
    trips_in_progress: int = 0
    total_delay_s: float = 0.0
    mean_delay_s: float = 0.0
    messages_sent_total: int = 0
    broadcast_baseline_total: int = 0
    warnings_issued: int = 0
    revisions_issued: int = 0
    actions_applied: int = 0
    infrastructure_notified_total: int = 0
    detection: dict = field(default_factory=dict)
    relevance_precision: Optional[float] = None
    relevance_recall: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "trips_total": self.trips_total,
            "trips_completed": self.trips_completed,
            "trips_abandoned": self.trips_abandoned,
            "trips_in_progress": self.trips_in_progress,
            "total_delay_s": _round6(self.total_delay_s),
            "mean_delay_s": _round6(self.mean_delay_s),
            "messages_sent_total": self.messages_sent_total,
            "broadcast_baseline_total": self.broadcast_baseline_total,
            "warnings_issued": self.warnings_issued,
            "revisions_issued": self.revisions_issued,
            "actions_applied": self.actions_applied,
            "infrastructure_notified_total": self.infrastructure_notified_total,
            "detection": {k: _canon(v) for k, v in sorted(self.detection.items())},
            "relevance_precision": _round6(self.relevance_precision),
            "relevance_recall": _round6(self.relevance_recall),
        }


@dataclass
class RunResult:
    config: RunConfig
    metrics: Metrics
    event_log: list[str]
    warning_log: list[str]
    action_log: list[str]
    trips: dict[str, Traveler]
    records: list[DisseminationRecord]
    notified_mobile: set[str]

    def metrics_json(self) -> str:
        return json.dumps(self.metrics.to_dict(), separators=(",", ":"), sort_keys=True)


def _round6(x):
    if isinstance(x, float):
        return round(x, 6)
    return x


def _canon(obj):
    """A copy of ``obj`` with floats rounded to 6 decimals and tuples made
    lists, as ``metrics.json`` prints them.  Leaves are handled inline, so
    only containers cost a recursive call."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(v, float):
                v = round(v, 6)
            elif isinstance(v, (dict, list, tuple)):
                v = _canon(v)
            out[k] = v
        return out
    if isinstance(obj, (list, tuple)):
        items = []
        for v in obj:
            if isinstance(v, float):
                v = round(v, 6)
            elif isinstance(v, (dict, list, tuple)):
                v = _canon(v)
            items.append(v)
        return items
    return _round6(obj)


_ascii = json.encoder.encode_basestring_ascii
_NO_T = object()


def _json(value) -> str:
    """``value`` as the log lines print it: ``json.dumps`` of its
    ``_canon`` copy with ``separators=(",", ":")``, built in one pass."""
    if isinstance(value, str):
        return _ascii(value)
    if isinstance(value, float):
        if value - value == 0.0:  # finite
            return repr(round(value, 6))
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return _json_line(value)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json(v) for v in value]) + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_line(record: dict, t=_NO_T) -> str:
    """``record`` as one JSON object (string keys only), led by ``"t": t``
    when ``t`` is given; as in ``{"t": t, **record}``, a record's own
    ``"t"`` then takes that first place."""
    parts = []
    sep = "{"
    if t is not _NO_T:
        if "t" in record:
            t = record["t"]
            record = {k: v for k, v in record.items() if k != "t"}
        parts += ('{"t":', _json(t))
        sep = ","
    for k, v in record.items():
        parts += (sep, _ascii(k), ":", _json(v))
        sep = ","
    parts.append("}" if parts else "{}")
    return "".join(parts)


class _Sim:
    def __init__(self, scenario: Scenario, config: RunConfig):
        self.scenario = scenario
        self.config = config
        self.world: WorldState = scenario.build_world()
        self.net = scenario.net
        self.store = WarningStore()
        self.heap: list[tuple] = []  # entries scheduled during the run
        self.setup_entries: list[tuple] = []  # setup's, sorted, next one last
        self._seq = itertools.count()
        self.event_log: list[str] = []
        self.warning_log: list[str] = []
        self.action_log: list[str] = []
        self.records: list[DisseminationRecord] = []
        self.travelers: dict[str, Traveler] = {}
        self.by_device: dict[str, Traveler] = {}
        self.waiting: set[str] = set()
        self.events: dict[str, DisturbanceEvent] = {e.event_id: e for e in scenario.events}
        self.actions: dict[str, object] = {}
        self.actions_by_event: dict[str, list] = {}
        self.metrics = Metrics()

    # -- infrastructure -------------------------------------------------------

    def schedule(self, t: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self.heap, (t, next(self._seq), kind, payload))

    def log(self, t: float, record: dict) -> None:
        self.event_log.append(_json_line(record, t))

    # -- setup ----------------------------------------------------------------

    def setup(self) -> None:
        scenario = self.scenario
        for trip in scenario.device_trips:
            self._add_traveler(trip, trip.device_id, trip.device_id)
        for i, trip in enumerate(scenario.trips):
            for k in range(trip.count):
                self._add_traveler(trip, f"trip{i}-{k}", None)
        for entry in scenario.arrivals:
            for n, t in enumerate(self._arrival_times(entry)):
                spec = TripSpec(entry.origin, entry.dest, t, 1, entry.prefs)
                self._add_traveler(spec, f"arr{entry.index}-{n}", None)
        for event in scenario.events:
            self.schedule(event.start, "inject", (event.event_id,))
            self.schedule(event.true_end, "event_end", (event.event_id,))
            if self.config.detection:
                rng = scenario.stream(f"detect:{event.event_id}")
                hit = detect(event, list(scenario.sources), rng)
                if hit is not None:
                    detect_time, source = hit
                    self.schedule(math.ceil(detect_time), "respond",
                                  (event.event_id, detect_time, source))
                else:
                    self.metrics.detection[event.event_id] = None
                if event.kind == "D3" and event.details_at is not None:
                    self.schedule(event.details_at,
                                  "escalate", (event.event_id, "details"))
                if event.kind == "D4":
                    self.schedule(
                        event.start + self.world.defaults.d4_extension_threshold + 1.0,
                        "escalate", (event.event_id, "extension"),
                    )
                if event.true_end > event.estimated_end:
                    self.schedule(event.estimated_end, "revise", (event.event_id,))
        self.setup_entries = sorted(self.heap, reverse=True)
        self.heap = []

    def _arrival_times(self, entry) -> list[float]:
        if entry.rate_per_hour <= 0:
            return []
        rng = stream_rng(self.scenario.seed, f"demand:{entry.index}")
        windows, peak = ev_rate_windows(entry, self.scenario.ev_modifiers, self.events)
        out = []
        t = entry.start
        horizon = min(entry.end, self.scenario.end_time)
        while True:
            t += rng.expovariate(peak / 3600.0)
            if t >= horizon:
                break
            rate = entry.rate_per_hour
            for s, e, m in windows:
                if s <= t < e:
                    rate *= m
            if rng.random() < rate / peak:
                out.append(t)
        return out

    def _add_traveler(self, trip: TripSpec, tid: str, device_id: Optional[str]) -> None:
        # Setup adds no contribution, so the overlay is still pristine here.
        plan = route(trip.origin, trip.dest, trip.depart, trip.prefs, self.world.overlay)
        tv = Traveler(
            tid=tid, origin=trip.origin, dest=trip.dest, depart=trip.depart,
            prefs=trip.prefs, device_id=device_id,
        )
        if plan is None:
            tv.no_route = True
        else:
            tv.baseline_cost = plan.total_cost
            tv.moves = list(plan.moves)
            if device_id is not None:
                device = self.world.devices[device_id]
                device.planned_route = plan.segment_etas() or None
                device.destination = trip.dest
                if plan.moves and device.mode is None:
                    device.mode = plan.moves[0][1]
        self.travelers[tid] = tv
        if device_id is not None:
            self.by_device[device_id] = tv
        self.schedule(trip.depart, "spawn", (tv,))

    # -- movement --------------------------------------------------------------

    def _device(self, tv: Traveler) -> Optional[EdgeDevice]:
        return self.world.devices.get(tv.device_id) if tv.device_id else None

    def _adopt(self, tv: Traveler, plan, t: float) -> None:
        tv.moves = list(plan.moves)
        device = self._device(tv)
        if device is not None:
            device.planned_route = plan.segment_etas() or None
            if plan.moves:
                device.mode = plan.moves[0][1]
        self.log(t, {"type": "replan", "traveler": tv.tid,
                     "arrival_estimate": plan.arrival})

    def _maybe_replan(self, tv: Traveler, t: float) -> None:
        """Adopts a fresh plan when the current one is blocked or the fresh
        one arrives strictly earlier.  A blocked traveler with no fresh plan
        keeps moving until the blockage forces a wait (see ``_advance``)."""
        tv.replan_flag = False
        candidate = route(tv.node, tv.dest, t, tv.prefs, self.world.overlay)
        evaluated = evaluate_moves(t, tv.moves, self.world.overlay)
        if candidate is not None and (evaluated is None or candidate.arrival < evaluated[0]):
            self._adopt(tv, candidate, t)

    def _advance(self, tv: Traveler, t: float, device: Optional[EdgeDevice]) -> None:
        """Starts ``tv``'s next move at ``t``; ``device`` is ``tv``'s, or None."""
        if tv.status in ("completed", "abandoned"):
            return
        tv.status = "moving"
        if tv.replan_flag:
            self._maybe_replan(tv, t)
        while True:
            if not tv.moves:
                self._complete(tv, t)
                return
            move = tv.moves[0]
            if move[0] == "start":
                tv.moves.pop(0)
                if move[2] > 0:  # the boarding wait
                    self.schedule(t + move[2], "arrive", (tv, tv.node))
                    return
                continue
            if move[0] == "transfer":
                tv.moves.pop(0)
                _, node, _from_mode, to_mode, duration = move
                if device is not None:
                    device.mode = to_mode
                self.schedule(t + duration, "arrive", (tv, node))
                return
            # The planned duration is not read: the overlay times the segment now.
            _, seg_id, mode, to_node, _planned = move
            tt = self.world.overlay.traversal_time(seg_id, mode)
            if tt is None:
                candidate = route(tv.node, tv.dest, t, tv.prefs, self.world.overlay)
                if candidate is None:
                    self._start_waiting(tv, t)
                    return
                self._adopt(tv, candidate, t)
                continue
            tv.moves.pop(0)
            if device is not None:
                device.mode = mode
            self.world.flow_entries.append((t, seg_id, mode))
            exit_t = t + tt
            tv.current = (seg_id, t, exit_t, to_node)
            tv.traversals.append((seg_id, t, exit_t))
            heapq.heappush(self.heap, (exit_t, next(self._seq), "arrive", (tv, to_node)))
            return

    def _start_waiting(self, tv: Traveler, t: float) -> None:
        tv.status = "waiting"
        tv.wait_version += 1
        self.waiting.add(tv.tid)
        self.log(t, {"type": "blocked", "traveler": tv.tid, "node": tv.node})
        self.schedule(t + self.world.defaults.patience, "patience",
                      (tv, tv.wait_version))

    def _complete(self, tv: Traveler, t: float) -> None:
        tv.status = "completed"
        tv.arrival = t
        self.waiting.discard(tv.tid)
        delay = (t - tv.depart) - (tv.baseline_cost or 0.0)
        self.log(t, {"type": "trip_complete", "traveler": tv.tid,
                     "depart": tv.depart, "delay": delay})

    def _abandon(self, tv: Traveler, t: float, why: str) -> None:
        tv.status = "abandoned"
        self.waiting.discard(tv.tid)
        self.log(t, {"type": "trip_abandoned", "traveler": tv.tid, "reason": why})

    def _wake_waiting(self, t: float) -> None:
        for tid in sorted(self.waiting):
            self.schedule(t, "retry", (self.travelers[tid],))

    def _refresh_positions(self, now: float) -> None:
        for tv in self.by_device.values():
            device = self._device(tv)
            if device is None or tv.current is None or tv.status != "moving":
                continue
            seg_id, enter, exit_t, _to = tv.current
            length = self.net.segments[seg_id].length
            frac = 0.0 if exit_t <= enter else (now - enter) / (exit_t - enter)
            frac = min(max(frac, 0.0), 1.0)
            device.position = DevicePosition(segment=seg_id, offset=frac * length)

    # -- handlers ----------------------------------------------------------------

    def handle_spawn(self, t: float, tv: Traveler) -> None:
        if tv.no_route:
            self.log(t, {"type": "spawn", "traveler": tv.tid, "routable": False})
            self._abandon(tv, t, "no feasible plan")
            return
        tv.node = tv.origin
        self.log(t, {"type": "spawn", "traveler": tv.tid, "origin": tv.origin,
                     "dest": tv.dest})
        self._advance(tv, t, self._device(tv))

    def handle_arrive(self, t: float, tv: Traveler, node: str) -> None:
        if tv.status != "moving":
            return
        tv.node = node
        tv.current = None
        device = self.world.devices.get(tv.device_id) if tv.device_id else None
        if device is not None:
            device.position = DevicePosition(node=node)
            evaluated = evaluate_moves(t, tv.moves, self.world.overlay)
            if evaluated is not None:
                device.planned_route = evaluated[1] or None
        self._advance(tv, t, device)

    def handle_retry(self, t: float, tv: Traveler) -> None:
        if tv.status != "waiting":
            return
        self.waiting.discard(tv.tid)
        self._advance(tv, t, self._device(tv))

    def handle_patience(self, t: float, tv: Traveler, version: int) -> None:
        if tv.status == "waiting" and tv.wait_version == version:
            self._abandon(tv, t, "patience exhausted")

    def handle_inject(self, t: float, event_id: str) -> None:
        event = self.events[event_id]
        effects = direct_effects(event, self.net, self.scenario.matrix)
        for seg_id, mode_id, residual in effects:
            self.world.overlay.add_contribution(Contribution(
                contrib_id=f"ev:{event_id}:{seg_id}:{mode_id}",
                kind="factor",
                targets=frozenset({(seg_id, mode_id)}),
                value=residual,
                start=event.start,
                end=event.true_end,
            ))
        self.log(t, {"type": "inject", "event": event_id, "kind": event.kind,
                     "segments": list(event.segments), "effects": len(effects)})

    def handle_event_end(self, t: float, event_id: str) -> None:
        self.world.overlay.remove_owned(f"ev:{event_id}:")
        self.log(t, {"type": "event_end", "event": event_id})
        self._wake_waiting(t)

    def handle_respond(self, t: float, event_id: str, detect_time: float, source: str) -> None:
        event = self.events[event_id]
        self.metrics.detection[event_id] = {
            "latency": detect_time - event.start, "source": source,
        }
        self.log(t, {"type": "detect", "event": event_id, "detect_time": detect_time,
                     "source": source})
        issue_time = int(t)
        if detect_time >= event.true_end or issue_time >= math.ceil(event.estimated_end):
            self.log(t, {"type": "late_detection", "event": event_id})
            return
        try:
            basic, full = make_warning(event, self.net, self.scenario.matrix, issue_time)
        except ValidationError as exc:
            # e.g. no affected mode present on the located segments
            self.log(t, {"type": "warning_suppressed", "event": event_id,
                         "reason": str(exc)})
            return
        self.store.add(basic, full)
        self.warning_log.append(encode(basic).decode("utf-8"))
        self.metrics.warnings_issued += 1
        self.log(t, {"type": "warn", "warning_id": basic.warning_id,
                     "event": event_id, "revision": 0})
        skips: list = []
        actions = plan_actions(event, basic, self.world, self.scenario.strategy_table,
                               matrix=self.scenario.matrix, skip_log=skips)
        for template, reason in skips:
            self.log(t, {"type": "plan_skip", "event": event_id,
                         "template": template, "reason": reason})
        self._disseminate(basic, actions, t)
        if actions:
            records = adaptation.apply(actions, self.world, t)
            for record in records:
                if record.get("type") == "signal_conflict":
                    self.log(t, {"type": "signal_conflict", **{
                        k: v for k, v in record.items() if k != "type"}})
                else:
                    self.action_log.append(_json_line(record))
                    self.metrics.actions_applied += 1
            for action in actions:
                self.actions[action.action_id] = action
                self.actions_by_event.setdefault(event_id, []).append(action)
                self.schedule(action.expiry, "action_end", (action.action_id,))
                if isinstance(action, PoliceNotification):
                    arrive_at = action.activation + action.response_delay
                    if arrive_at < action.expiry:
                        self.schedule(arrive_at, "wake", ())
            self._flag_replans({device_id for action in actions if isinstance(action, Reroute)
                                for device_id in action.targets}, t)

    def _disseminate(self, warning, actions, t: float) -> None:
        devices = self.world.devices
        if self.config.broadcast:
            record = DisseminationRecord(
                warning_id=warning.warning_id,
                notified=frozenset(devices),
                messages_sent=len(devices),
                hops={},
                missed=frozenset(),
                reasons={},
                baseline=len(devices),
            )
        else:
            self._refresh_positions(t)
            record = dissemination.distribute(
                warning, devices.values(), self.scenario.topology,
                self.scenario.policy, self.net, actions, t,
            )
        self.records.append(record)
        self.metrics.messages_sent_total += record.messages_sent
        self.metrics.broadcast_baseline_total += record.baseline
        self.log(t, {"type": "dissemination", **record.log_fields()})
        self._flag_replans(record.notified, t)

    def _flag_replans(self, device_ids, t: float) -> None:
        for device_id in sorted(device_ids):
            tv = self.by_device.get(device_id)
            if tv is None or tv.status in ("completed", "abandoned"):
                continue
            tv.replan_flag = True
            if tv.status == "waiting":
                self.waiting.discard(tv.tid)
                tv.status = "moving"
                self.schedule(t, "retry_flagged", (tv,))

    def handle_retry_flagged(self, t: float, tv: Traveler) -> None:
        if tv.status == "moving" and tv.current is None and tv.node is not None:
            self._advance(tv, t, self._device(tv))

    def handle_escalate(self, t: float, event_id: str, trigger: str) -> None:
        event = self.events[event_id]
        if t >= event.true_end:
            return
        escalated = escalate(
            event, t, details_known=(trigger == "details"),
            extension_threshold=self.world.defaults.d4_extension_threshold,
        )
        if escalated.kind == event.kind:
            return
        self.events[event_id] = escalated
        self.log(t, {"type": "escalation", "event": event_id,
                     "from": event.kind, "to": escalated.kind})
        self._issue_revision(
            event_id, math.ceil(escalated.start + escalated.estimated_duration), t)

    def handle_revise(self, t: float, event_id: str) -> None:
        event = self.events[event_id]
        if event.true_end <= t:
            return
        self._issue_revision(event_id, math.ceil(event.true_end), t)

    def _issue_revision(self, event_id: str, new_end: int, t: float) -> None:
        """Revises the event's warning, if one was issued, to end at
        ``new_end`` when that changes it and still follows its issue time."""
        warning_id = f"w-{event_id}"
        try:
            basic, _full = self.store.latest(warning_id)
        except ValidationError:
            return
        if new_end == basic.estimated_end or new_end <= basic.issue_time:
            return
        basic, _full = self.store.revise(warning_id, new_end)
        self.warning_log.append(encode(basic).decode("utf-8"))
        self.metrics.revisions_issued += 1
        self.log(t, {"type": "warn", "warning_id": warning_id, "event": event_id,
                     "revision": basic.revision})
        actions = self.actions_by_event.get(event_id, [])
        self._disseminate(basic, actions, t)

    def handle_action_end(self, t: float, action_id: str) -> None:
        action = self.actions.get(action_id)
        if action is None:
            return
        adaptation.expire(action, self.world)
        self.log(t, {"type": "action_end", "action_id": action_id})

    def handle_wake(self, t: float) -> None:
        self._wake_waiting(t)

    # -- main loop ----------------------------------------------------------------

    def run(self) -> RunResult:
        self.setup()
        end_time = self.scenario.end_time
        handlers = {name[len("handle_"):]: getattr(self, name)
                    for name in dir(self) if name.startswith("handle_")}
        overlay = self.world.overlay
        pending = self.setup_entries
        heap = self.heap
        heappop = heapq.heappop
        while heap or pending:
            if pending and (not heap or pending[-1] < heap[0]):
                t, _seq, kind, payload = pending.pop()
            else:
                t, _seq, kind, payload = heappop(heap)
            if t > end_time:
                break
            overlay.clock = t
            handlers[kind](t, *payload)
        overlay.clock = end_time
        self._finalize()
        return RunResult(
            config=self.config,
            metrics=self.metrics,
            event_log=self.event_log,
            warning_log=self.warning_log,
            action_log=self.action_log,
            trips=self.travelers,
            records=self.records,
            notified_mobile=self._notified_mobile(),
        )

    def _notified_mobile(self) -> set[str]:
        mobile = {
            d for d, tv in self.by_device.items()
            if self.world.devices[d].role in MOBILE_ROLES
        }
        out: set[str] = set()
        for record in self.records:
            out |= set(record.notified) & mobile
        return out

    def _finalize(self) -> None:
        m = self.metrics
        delays = []
        for tid in sorted(self.travelers):
            tv = self.travelers[tid]
            m.trips_total += 1
            if tv.status == "completed":
                m.trips_completed += 1
                delays.append((tv.arrival - tv.depart) - (tv.baseline_cost or 0.0))
            elif tv.status == "abandoned":
                m.trips_abandoned += 1
            else:
                m.trips_in_progress += 1
        # Added one by one: sum() of floats is compensated from Python 3.12
        # on, and metrics.json must not depend on the interpreter version.
        # The int start is sum()'s, so a run without completed trips still
        # prints 0.
        total = 0
        for delay in delays:
            total += delay
        m.total_delay_s = total
        m.mean_delay_s = m.total_delay_s / len(delays) if delays else 0.0
        infra = {
            d.device_id for d in self.world.devices.values()
            if d.role not in MOBILE_ROLES
        }
        for record in self.records:
            m.infrastructure_notified_total += len(set(record.notified) & infra)


def run(scenario: Scenario, config: RunConfig = MODE_TARGETED) -> RunResult:
    """Simulate one scenario under one pipeline configuration."""
    return _Sim(scenario, config).run()


def ground_truth_affected(
    event: DisturbanceEvent,
    scenario: Scenario,
    base_result: Optional[RunResult] = None,
) -> set[str]:
    """Devices actually affected by one event, by paired-run differencing.

    A device is affected when its trip outcome (status or realized cost)
    differs between the configured run and an otherwise-identical run with
    the event removed, or when it traverses a located segment while the
    event is active.
    """
    with_event = base_result if base_result is not None else run(scenario, MODE_TARGETED)
    without = run(scenario.without_event(event.event_id), MODE_TARGETED)
    located = set(event.segments)
    affected: set[str] = set()
    for tid, tv in with_event.trips.items():
        if tv.device_id is None:
            continue
        other = without.trips.get(tid)
        if other is None:
            affected.add(tv.device_id)
            continue
        cost_a = None if tv.arrival is None else tv.arrival - tv.depart
        cost_b = None if other.arrival is None else other.arrival - other.depart
        if tv.status != other.status or cost_a != cost_b:
            affected.add(tv.device_id)
            continue
        for seg_id, enter, exit_t in tv.traversals:
            if seg_id in located and enter < event.true_end and exit_t > event.start:
                affected.add(tv.device_id)
                break
    return affected


@dataclass
class ComparisonReport:
    no_adapt: RunResult
    broadcast: RunResult
    targeted: RunResult
    ground_truth: dict[str, set[str]]
    precision: Optional[float]
    recall: Optional[float]

    def to_dict(self) -> dict:
        def summarize(result: RunResult) -> dict:
            d = result.metrics.to_dict()
            return {
                "total_delay_s": d["total_delay_s"],
                "trips_completed": d["trips_completed"],
                "trips_abandoned": d["trips_abandoned"],
                "messages_sent_total": d["messages_sent_total"],
                "broadcast_baseline_total": d["broadcast_baseline_total"],
                "warnings_issued": d["warnings_issued"],
            }

        return {
            "no_adapt": summarize(self.no_adapt),
            "broadcast": summarize(self.broadcast),
            "targeted": summarize(self.targeted),
            "ground_truth_devices": {
                k: sorted(v) for k, v in sorted(self.ground_truth.items())
            },
            "relevance_precision": _round6(self.precision),
            "relevance_recall": _round6(self.recall),
        }


def compare(scenario: Scenario) -> ComparisonReport:
    """Run the scenario without response, with broadcast, and targeted.

    All three runs share the scenario seed.  Relevance precision and recall
    of the targeted run are scored against ground truth obtained by
    paired-run differencing per event.
    """
    no_adapt = run(scenario, MODE_NO_ADAPT)
    broadcast = run(scenario, MODE_BROADCAST)
    targeted = run(scenario, MODE_TARGETED)
    ground_truth: dict[str, set[str]] = {}
    for event in scenario.events:
        ground_truth[event.event_id] = ground_truth_affected(
            event, scenario, base_result=targeted
        )
    truth = set().union(*ground_truth.values()) if ground_truth else set()
    predicted = targeted.notified_mobile
    precision = len(predicted & truth) / len(predicted) if predicted else None
    recall = len(predicted & truth) / len(truth) if truth else None
    targeted.metrics.relevance_precision = precision
    targeted.metrics.relevance_recall = recall
    return ComparisonReport(
        no_adapt=no_adapt,
        broadcast=broadcast,
        targeted=targeted,
        ground_truth=ground_truth,
        precision=precision,
        recall=recall,
    )
