"""Deterministic discrete-event engine tying the pieces together.

The lifecycle per disturbance is: inject (capacity drops) -> detect ->
warn -> disseminate -> plan and apply adaptation -> notified travelers
replan -> expiry restores the overlay.  Travelers execute their plans
segment by segment; they replan only when warned, when they run into a
blocked segment, or when woken after waiting.

Entries run in (time, provenance key) order.  An entry's key is (the
handled entry that scheduled it, as its (time, key), and its index among
that handler's schedules); ``setup``'s entries have keys ``((), k)``.
Handlers run in that order, so it is the order of scheduling, ties
included: the order a single heap with a global counter gives.  Setup's
entries wait in one list sorted that way, the rest in a heap, and ``run``
takes the smaller of the two next entries.

A traveler runs ahead of that loop up to its safe time (conservative
lookahead: Chandy and Misra, IEEE TSE 5(5), 1979): the earlier of the next
pending entry whose handler writes the overlay or reads other travelers
(``_SHARED_KINDS``) and the end of the overlay's content window
(``NetworkState.content_end``).  An arrival strictly before it, not after
``end_time``, that logs nothing (the trip goes on over a passable segment)
is handled in place in ``_advance``, with the key it would have had;
nothing else can tell it from a queued arrival.  Inside one content
window a trip's remaining moves only shrink, so a device's route is
re-timed only at a queued arrival and at the last arrival in place when
another entry may read it before the next queued one.

All randomness flows from named substreams of the scenario seed (one per
detection event, one per demand entry), so a run is a pure function of
(scenario, seed): repeated runs produce byte-identical logs, and removing
one event does not perturb the draws of the others.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import adaptation, dissemination
from .adaptation import PoliceNotification, Reroute, plan as plan_actions, routed_via
from .cone import Influence, affected_devices, full_run_needed, seen_by_travelers
from .disturbance import DisturbanceEvent, detect, direct_effects, escalate
from .dissemination import MOBILE_ROLES, DevicePosition, DisseminationRecord, EdgeDevice
from .errors import ValidationError
from .messages import WarningMessage, encode, make_warning, revise
from .routing import evaluate_moves, route
from .scenario import Scenario, ev_rate_windows, stream_rng
from .state import Contribution, WorldState


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
    node: Optional[str] = None  # None while on a segment: traversals[-1]
    moves: list = field(default_factory=list)
    traversals: list = field(default_factory=list)  # (seg, mode, enter, exit)
    replan_flag: bool = False
    wait_version: int = 0
    arrival: Optional[float] = None


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
    influence: Optional[Influence] = None  # targeted runs only (see mitsim.cone)

    def metrics_json(self) -> str:
        """``metrics.json``: the metrics as the log lines print them, with
        the keys of every object sorted."""
        return _json(_sorted(asdict(self.metrics)))


def _sorted(value):
    """A copy of ``value`` with the keys of every dict in it sorted."""
    if isinstance(value, dict):
        return {k: _sorted(value[k]) for k in sorted(value)}
    return [_sorted(v) for v in value] if isinstance(value, (list, tuple)) else value


_ascii = json.encoder.encode_basestring_ascii


def _num(x) -> str:
    """A number as the log lines print it: a float rounded to 6 decimals,
    or ``NaN``/``Infinity``/``-Infinity``; anything else as ``_json``.

    A float ``x`` prints as ``repr(round(x, 6))``.  For 1e-4 <= |x| < 1e9
    that is ``"%.6f" % x`` without its trailing zeros (keeping ``.0``):
    both take the same correctly rounded 6-decimal string, and no shorter
    one reads back as the same float, since the float spacing there is
    finer than 1e-6; ``repr`` prints no exponent in that range."""
    if isinstance(x, float):
        if 1e-4 <= abs(x) < 1e9:  # False for NaN
            text = ("%.6f" % x).rstrip("0")
            return text + "0" if text[-1] == "." else text
        if x - x == 0.0:  # finite
            return repr(round(x, 6))
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return _json(x)


def _json(value) -> str:
    """``value`` as every output line prints it: ``json.dumps`` with
    ``separators=(",", ":")`` of a copy with floats rounded to 6 decimals,
    built in one pass.  Dict keys must be strings."""
    if isinstance(value, str):
        return _ascii(value)
    if isinstance(value, float):
        return _num(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return "{" + ",".join([_ascii(k) + ":" + _json(v) for k, v in value.items()]) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join([_json(v) for v in value]) + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# The three most frequent event lines, one per trip or replan, written from
# fixed templates: each equals ``_json`` of its record led by ``"t"``.


def _spawn_line(t, traveler: str, origin: str, dest: str) -> str:
    return (f'{{"t":{_num(t)},"type":"spawn","traveler":{_ascii(traveler)},'
            f'"origin":{_ascii(origin)},"dest":{_ascii(dest)}}}')


def _trip_complete_line(t, traveler: str, depart, delay) -> str:
    return (f'{{"t":{_num(t)},"type":"trip_complete","traveler":{_ascii(traveler)},'
            f'"depart":{_num(depart)},"delay":{_num(delay)}}}')


def _replan_line(t, traveler: str, arrival_estimate) -> str:
    return (f'{{"t":{_num(t)},"type":"replan","traveler":{_ascii(traveler)},'
            f'"arrival_estimate":{_num(arrival_estimate)}}}')


# Entries whose handlers write the overlay or read travelers other than
# their own: no traveler moves past the earliest pending one on its own.
_SHARED_KINDS = frozenset({"inject", "event_end", "respond", "action_end", "escalate",
                           "revise", "wake"})


class _Sim:
    def __init__(self, scenario: Scenario, config: RunConfig):
        self.scenario = scenario
        self.config = config
        self.world: WorldState = scenario.build_world()
        self.net = scenario.net
        self.heap: list[tuple] = []  # entries scheduled during the run
        self.setup_entries: list[tuple] = []  # setup's, sorted, next one last
        self.shared_times: list[float] = []  # heap of the pending _SHARED_KINDS entries' times
        # The (time, key) of the entry being handled, and its schedules so far.
        self.parent: tuple = ()
        self.index = 0
        self.event_log: list[str] = []
        self.warning_log: list[str] = []
        self.action_log: list[str] = []
        self.records: list[DisseminationRecord] = []
        self.by_device: dict[str, Traveler] = {}
        self.fleet = self.world.devices  # the devices dissemination asks about
        self.infrastructure = {d.device_id for d in self.fleet.values()
                               if d.role not in MOBILE_ROLES}
        self.notified_mobile: set[str] = set()  # the travelers' devices any warning notified
        self.node_positions: dict[str, DevicePosition] = {}  # immutable, shared by devices
        self.events: dict[str, DisturbanceEvent] = {e.event_id: e for e in scenario.events}
        # event id -> (the latest revision of its warning, the actions planned for it)
        self.issued: dict[str, tuple] = {}
        self.metrics = Metrics()
        # A targeted run notes what each event reached; ``owners`` is empty
        # while no event's contributions can be read.
        self.influence = Influence() if config == MODE_TARGETED else None
        self.owners = {} if self.influence is None else self.influence.owners

    # -- infrastructure -------------------------------------------------------

    def schedule(self, t: float, kind: str, payload: tuple) -> None:
        heapq.heappush(self.heap, (t, (self.parent, self.index), kind, payload))
        self.index += 1
        if kind in _SHARED_KINDS:
            heapq.heappush(self.shared_times, t)

    def log(self, t: float, record) -> None:
        """Appends one event line: ``record`` itself when it is a line built
        from a template, else the dict led by ``"t": t`` (a record's own
        ``"t"`` takes that first place)."""
        self.event_log.append(record if isinstance(record, str) else _json({"t": t, **record}))

    # -- setup ----------------------------------------------------------------

    def setup(self) -> None:
        scenario = self.scenario
        self._add_travelers()
        for event in scenario.events:
            self.schedule(event.start, "inject", (event.event_id,))
            self.schedule(event.true_end, "event_end", (event.event_id,))
            if self.config.detection:
                rng = stream_rng(scenario.seed, f"detect:{event.event_id}")
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

    def _add_travelers(self) -> None:
        scenario = self.scenario
        add = self._add_traveler
        for trip in scenario.device_trips:
            add(trip.device_id, trip.origin, trip.dest, trip.depart, trip.prefs, trip.device_id)
        for i, trip in enumerate(scenario.trips):
            for k in range(trip.count):
                add(f"trip{i}-{k}", trip.origin, trip.dest, trip.depart, trip.prefs, None)
        for entry in scenario.arrivals:
            for n, t in enumerate(self._arrival_times(entry)):
                add(f"arr{entry.index}-{n}", entry.origin, entry.dest, t, entry.prefs, None)

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

    def _add_traveler(self, tid: str, origin: str, dest: str, depart: float, prefs,
                      device_id: Optional[str]) -> None:
        # Setup adds no contribution, so the overlay is still pristine here.
        plan = route(origin, dest, depart, prefs, self.world.overlay)
        tv = Traveler(tid=tid, origin=origin, dest=dest, depart=depart, prefs=prefs,
                      device_id=device_id)
        device = None
        if device_id is not None:  # a copy of its own: the run moves, re-routes and re-modes it
            d = self.world.devices[device_id]
            device = self.world.devices[device_id] = EdgeDevice(
                device_id, d.role, d.position, d.comm_range, d.planned_route, d.mode,
                d.destination)
            self.by_device[device_id] = tv
        if plan is not None:
            tv.baseline_cost = plan.total_cost
            tv.moves = list(plan.moves)
            if device is not None:
                device.planned_route = plan.segment_etas() or None
                device.destination = dest
                if plan.moves and device.mode is None:
                    device.mode = plan.moves[0][1]
        self.world.travelers[tid] = tv
        self.schedule(depart, "spawn", (tv,))

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
        self.log(t, _replan_line(t, tv.tid, plan.arrival))

    def _replan(self, tv: Traveler, t: float, blocked: bool = False) -> bool:
        """Plans ``tv``'s trip afresh at ``t``, and adopts the plan when the
        current one is ``blocked`` (its next segment is impassable, so it is
        not timed) or the fresh one arrives strictly earlier; says whether
        it adopted one.  Only an unblocked replan answers ``tv``'s flag."""
        overlay = self.world.overlay
        candidate = route(tv.node, tv.dest, t, tv.prefs, overlay)
        if self.owners and tv.device_id is not None:  # what the search read, and the moves timed
            entry = overlay.searches().get((tv.node, tv.dest, tv.prefs))
            self.influence.read(tv.device_id, t, () if entry is None else entry[1],
                                tv.moves[:1] if blocked else tv.moves)
        if blocked:
            adopt = candidate is not None
        else:
            tv.replan_flag = False
            evaluated = evaluate_moves(t, tv.moves, overlay)
            adopt = candidate is not None and (not evaluated or candidate.arrival < evaluated[0])
            if self.influence is not None:
                self.influence.replanned(tv.device_id, adopt)
        if adopt:
            self._adopt(tv, candidate, t)
        return adopt

    def _advance(self, tv: Traveler, t: float, device: Optional[EdgeDevice]) -> None:
        """Starts ``tv``'s next move at ``t``; ``device`` is ``tv``'s, or None.

        A flagged traveler replans first (``_replan``), and one facing an
        impassable segment replans there, or waits.  Each arrival at the
        end of a segment that comes before ``tv``'s safe time, not after
        ``end_time``, and logs nothing (a passable segment follows) is
        handled here in place; the first other one is queued, and when
        another entry may read the device before it, the last one handled
        here re-times the device (``_arrived``)."""
        tv.status = "moving"
        if tv.replan_flag:
            self._replan(tv, t)
        overlay = self.world.overlay
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
            tt = overlay.traversal_time(seg_id, mode)
            if tt is not None:
                break
            if not self._replan(tv, t, blocked=True):
                self._start_waiting(tv, t)
                return
        moves = tv.moves
        shared = self.shared_times
        safe = min(shared[0] if shared else math.inf, overlay.content_end())
        end_time = self.scenario.end_time
        at = None  # the node of the latest arrival handled here
        tv.node = None
        traversals = tv.traversals
        parent, index = self.parent, self.index  # the handler's, then each arrival's in place
        while True:  # across the segment of ``move``, which takes ``tt``
            moves.pop(0)
            if device is not None:
                device.mode = mode
            exit_t = t + tt
            traversals.append((seg_id, mode, t, exit_t))
            key = (parent, index)
            if exit_t < safe and exit_t <= end_time and moves and moves[0][0] == "seg":
                nxt = moves[0]
                tt_next = overlay.traversal_time(nxt[1], nxt[2])
                if tt_next is not None:  # the arrival at ``to_node``, in place
                    parent, index = (exit_t, key), 0
                    t, tt, at, move = exit_t, tt_next, to_node, nxt
                    if self.owners and device is not None:
                        self.influence.read(tv.device_id, t, moves=moves)
                    _, seg_id, mode, to_node, _planned = move
                    continue
            self.parent, self.index = parent, index + 1
            heapq.heappush(self.heap, (exit_t, key, "arrive", (tv, to_node)))
            if at is not None and device is not None and exit_t >= safe:
                # Another entry may read the device before that arrival: leave what
                # the last one handled here left (noting its read again adds nothing).
                self._arrived(device, t, at, [move, *moves])
            return

    def _start_waiting(self, tv: Traveler, t: float) -> None:
        tv.status = "waiting"
        tv.wait_version += 1
        self.log(t, {"type": "blocked", "traveler": tv.tid, "node": tv.node})
        self.schedule(t + self.world.defaults.patience, "patience",
                      (tv, tv.wait_version))

    def _complete(self, tv: Traveler, t: float) -> None:
        tv.status = "completed"
        tv.arrival = t
        delay = (t - tv.depart) - tv.baseline_cost
        self.log(t, _trip_complete_line(t, tv.tid, tv.depart, delay))

    def _abandon(self, tv: Traveler, t: float, why: str) -> None:
        tv.status = "abandoned"
        self.log(t, {"type": "trip_abandoned", "traveler": tv.tid, "reason": why})

    def _wake_waiting(self, t: float, event_id: str) -> None:
        """Retries every waiting traveler; ``event_id``'s end or police
        arrival woke them."""
        travelers = self.world.travelers
        waiting = sorted(tid for tid, tv in travelers.items() if tv.status == "waiting")
        for tid in waiting:
            self.schedule(t, "retry", (travelers[tid],))
        if self.influence is not None:
            self.influence.woke(event_id, [travelers[tid].device_id for tid in waiting])

    def _refresh_positions(self, now: float) -> None:
        for tv in self.by_device.values():
            device = self._device(tv)
            if device is None or tv.node is not None or tv.status != "moving":
                continue
            seg_id, _mode, enter, exit_t = tv.traversals[-1]
            length = self.net.segments[seg_id].length
            frac = 0.0 if exit_t <= enter else (now - enter) / (exit_t - enter)
            frac = min(max(frac, 0.0), 1.0)
            device.position = DevicePosition(segment=seg_id, offset=frac * length)

    # -- handlers ----------------------------------------------------------------

    def handle_spawn(self, t: float, tv: Traveler) -> None:
        if tv.baseline_cost is None:  # no plan at setup
            self.log(t, {"type": "spawn", "traveler": tv.tid, "routable": False})
            self._abandon(tv, t, "no feasible plan")
            return
        tv.node = tv.origin
        self.log(t, _spawn_line(t, tv.tid, tv.origin, tv.dest))
        self._advance(tv, t, self._device(tv))

    def _arrived(self, device: EdgeDevice, t: float, node: str, moves) -> None:
        """Places ``device`` at ``node``, where its traveler arrived at ``t``
        with ``moves`` left, notes that read and re-times its planned route
        over them; a re-timing that finds them blocked keeps the old one."""
        position = self.node_positions.get(node)
        if position is None:
            position = self.node_positions[node] = DevicePosition(node=node)
        device.position = position
        if self.owners:
            self.influence.read(device.device_id, t, moves=moves)
        evaluated = evaluate_moves(t, moves, self.world.overlay)
        if evaluated is not None:
            device.planned_route = evaluated[1] or None

    def handle_arrive(self, t: float, tv: Traveler, node: str) -> None:
        tv.node = node
        device = self.world.devices.get(tv.device_id) if tv.device_id else None
        if device is not None:
            self._arrived(device, t, node, tv.moves)
        self._advance(tv, t, device)

    def handle_retry(self, t: float, tv: Traveler) -> None:
        if tv.status != "waiting":
            return
        self._advance(tv, t, self._device(tv))

    def handle_patience(self, t: float, tv: Traveler, version: int) -> None:
        if tv.status == "waiting" and tv.wait_version == version:
            self._abandon(tv, t, "patience exhausted")

    def handle_inject(self, t: float, event_id: str) -> None:
        event = self.events[event_id]
        effects = direct_effects(event, self.net, self.scenario.matrix)
        contributions = [Contribution(
            contrib_id=f"ev:{event_id}:{seg_id}:{mode_id}",
            kind="factor",
            targets=frozenset({(seg_id, mode_id)}),
            value=residual,
            start=event.start,
            end=event.true_end,
            owner=f"ev:{event_id}",
        ) for seg_id, mode_id, residual in effects]
        for contribution in contributions:
            self.world.overlay.add_contribution(contribution)
        if self.influence is not None:
            self.influence.own(event_id, 1, contributions)
        self.log(t, {"type": "inject", "event": event_id, "kind": event.kind,
                     "segments": list(event.segments), "effects": len(effects)})

    def handle_event_end(self, t: float, event_id: str) -> None:
        self.world.overlay.remove_owned(f"ev:{event_id}")
        if self.influence is not None:
            self.influence.own(event_id, -1)
        self.log(t, {"type": "event_end", "event": event_id})
        self._wake_waiting(t, event_id)

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
        basic = self._warning(event, issue_time, t)
        if basic is None:
            return
        self._publish(basic, t)
        actions = self._plan(event, basic, t)
        self.issued[event_id] = (basic, actions)
        self._disseminate(basic, actions, t)
        if actions:
            self._apply(actions, t)
            for action in actions:
                self.schedule(action.expiry, "action_end", (action,))
                if isinstance(action, PoliceNotification):
                    arrive_at = action.activation + action.response_delay
                    if arrive_at < action.expiry:
                        self.schedule(arrive_at, "wake", (event_id,))
            self._flag_replans({device_id for action in actions if isinstance(action, Reroute)
                                for device_id in action.targets}, t, event_id)
        if self.influence is not None:
            self.influence.planned[event_id] = (t, basic, actions)

    def _warning(self, event: DisturbanceEvent, issue_time: int,
                 t: float) -> Optional[WarningMessage]:
        """The event's first warning, or None when it cannot be made."""
        try:
            return make_warning(event, self.net, self.scenario.matrix, issue_time)[0]
        except ValidationError as exc:
            # e.g. no affected mode present on the located segments
            self.log(t, {"type": "warning_suppressed", "event": event.event_id,
                         "reason": str(exc)})
            return None

    def _publish(self, warning: WarningMessage, t: float) -> None:
        """Writes a warning or revision to ``warnings.log`` and counts it."""
        self.warning_log.append(encode(warning).decode("utf-8"))
        if warning.revision:
            self.metrics.revisions_issued += 1
        else:
            self.metrics.warnings_issued += 1
        self.log(t, {"type": "warn", "warning_id": warning.warning_id,
                     "event": warning.event_id, "revision": warning.revision})

    def _plan(self, event: DisturbanceEvent, warning: WarningMessage, t: float) -> list:
        skips: list = []
        actions = plan_actions(event, warning, self.world, self.scenario.strategy_table,
                               matrix=self.scenario.matrix, skip_log=skips)
        for template, reason in skips:
            self.log(t, {"type": "plan_skip", "event": event.event_id,
                         "template": template, "reason": reason})
        return actions

    def _apply(self, actions: list, t: float) -> None:
        records = adaptation.apply(actions, self.world, t)
        for record in records:
            if record.get("type") == "signal_conflict":
                self.log(t, record)
            else:
                self.action_log.append(_json(record))
                self.metrics.actions_applied += 1
        if self.influence is not None:
            self.influence.applied(actions, records, self.world.overlay.contributions())

    def _disseminate(self, warning, actions, t: float) -> None:
        devices = self.fleet
        if self.config.broadcast:
            record = DisseminationRecord(
                warning_id=warning.warning_id,
                notified=frozenset(devices),
                messages_sent=len(devices),
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
        self.metrics.infrastructure_notified_total += len(record.notified & self.infrastructure)
        self.notified_mobile |= record.notified & self.by_device.keys()
        self.log(t, {"type": "dissemination", **record.log_fields()})
        self._flag_replans(record.notified, t, warning.event_id)

    def _flag_replans(self, device_ids, t: float, event_id: str) -> None:
        """Flags the travelers of ``device_ids`` for a replan, for
        ``event_id``'s warning or Reroute, and wakes the waiting ones."""
        for device_id in sorted(device_ids):
            tv = self.by_device.get(device_id)
            if tv is None or tv.status in ("completed", "abandoned"):
                continue
            tv.replan_flag = True
            if self.influence is not None:
                self.influence.flagged(device_id, event_id, tv.status == "waiting")
            if tv.status == "waiting":
                tv.status = "moving"
                self.schedule(t, "retry_flagged", (tv,))

    def handle_retry_flagged(self, t: float, tv: Traveler) -> None:
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
        self._issue_revision(event_id, math.ceil(self.events[event_id].true_end), t)

    def _issue_revision(self, event_id: str, new_end: int, t: float) -> None:
        """Revises the event's warning, if one was issued, to end at
        ``new_end`` when that changes it and still follows its issue time."""
        issued = self.issued.get(event_id)
        if issued is None:
            return
        basic, actions = issued
        if new_end == basic.estimated_end or new_end <= basic.issue_time:
            return
        basic = revise(basic, new_end)
        self.issued[event_id] = (basic, actions)
        self._publish(basic, t)
        self._disseminate(basic, actions, t)

    def handle_action_end(self, t: float, action) -> None:
        adaptation.expire(action, self.world)
        if self.influence is not None:
            self.influence.own(action.event_id, -1)
        self.log(t, {"type": "action_end", "action_id": action.action_id})

    def handle_wake(self, t: float, event_id: str) -> None:
        self._wake_waiting(t, event_id)

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
        shared = self.shared_times
        while heap or pending:
            if pending and (not heap or pending[-1] < heap[0]):
                t, key, kind, payload = pending.pop()
            else:
                t, key, kind, payload = heappop(heap)
            if t > end_time:
                break
            if kind in _SHARED_KINDS:
                heappop(shared)
            overlay.clock = t
            self.parent, self.index = (t, key), 0
            handlers[kind](t, *payload)
        overlay.clock = end_time
        self._finalize()
        return RunResult(
            config=self.config,
            metrics=self.metrics,
            event_log=self.event_log,
            warning_log=self.warning_log,
            action_log=self.action_log,
            trips=self.world.travelers,
            records=self.records,
            notified_mobile=self.notified_mobile,
            influence=self.influence,
        )

    def _finalize(self) -> None:
        m = self.metrics
        delays = []
        for tid, tv in sorted(self.world.travelers.items()):
            m.trips_total += 1
            if tv.status == "completed":
                m.trips_completed += 1
                delays.append((tv.arrival - tv.depart) - tv.baseline_cost)
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


def run(scenario: Scenario, config: RunConfig = MODE_TARGETED) -> RunResult:
    """Simulate one scenario under one pipeline configuration."""
    return _Sim(scenario, config).run()


class Diverged(Exception):
    """Another event's plan in a partial leave-one-out run differs from the
    one the targeted run made."""


class LeaveOneOut(_Sim):
    """The targeted run of a scenario without one event, simulating only the
    travelers in that event's cone (``Influence.cone``).

    Outside the cone every traveler takes the targeted run's trip: nothing
    it read or received could depend on the removed event.  Travelers do
    not act on each other, so the cone's trips need only the other events'
    entries, which run as in a full run with three differences.  Their
    warnings and actions are the targeted run's, and a plan made at or
    after the removed event's start is made again on this run's world with
    the recorded Reroute targets outside the cone and fresh decisions
    inside it; a plan that travelers outside the cone could tell from the
    recorded one (``seen_by_travelers``) raises ``Diverged``.
    Dissemination runs ``distribute`` over a fleet of the cone's devices
    and every roadside unit: relevance and delivery are decided per device,
    and the relay reads only the units, so a cone device is notified
    exactly when the full run notifies it.  Nothing is logged or encoded.

    With one entry per arrival, every entry this run serves is served by
    the full run too, and each is scheduled while the same entry is handled
    there, in the same order among the ones this run keeps.  So provenance
    keys sort them as the full run does, ties included.  Each run handles
    arrivals in place up to its own safe time, which changes no output of
    either (see the module docstring).
    """

    def __init__(self, scenario: Scenario, event: DisturbanceEvent, cone: set[str],
                 influence: Influence):
        super().__init__(scenario.without_event(event.event_id), MODE_TARGETED)
        self.influence = None
        self.start = event.start
        self.cone = cone
        self.planned = influence.planned

    def _add_travelers(self) -> None:
        for trip in self.scenario.device_trips:
            if trip.device_id in self.cone:
                self._add_traveler(trip.device_id, trip.origin, trip.dest, trip.depart,
                                   trip.prefs, trip.device_id)
        # Built from the run's own copies of the cone's devices.
        self.fleet = {device_id: device for device_id, device in self.world.devices.items()
                      if device_id in self.cone or device.role == "roadside-unit"}

    def log(self, t: float, record) -> None:
        pass

    def _publish(self, warning: WarningMessage, t: float) -> None:
        pass

    def _warning(self, event: DisturbanceEvent, issue_time: int,
                 t: float) -> Optional[WarningMessage]:
        planned = self.planned.get(event.event_id)
        return None if planned is None else planned[1]

    def _plan(self, event: DisturbanceEvent, warning: WarningMessage, t: float) -> list:
        recorded = self.planned[event.event_id][2]
        if t < self.start:  # nothing differs before the removed event's first entry
            return recorded
        kept = next((a.targets for a in recorded if isinstance(a, Reroute)), ())
        entries = {e.segment_id: e for e in warning.affected}
        devices, now = self.world.devices, float(warning.issue_time)
        targets = {d for d in kept if d not in self.cone}
        targets.update(d for d in self.cone if routed_via(devices[d], entries, now))
        actions = plan_actions(event, warning, self.world, self.scenario.strategy_table,
                               matrix=self.scenario.matrix, reroute_targets=tuple(sorted(targets)))
        if seen_by_travelers(actions) != seen_by_travelers(recorded):
            raise Diverged(event.event_id)
        return actions

    def _apply(self, actions: list, t: float) -> None:
        adaptation.apply(actions, self.world, t)


def partial_trips(event: DisturbanceEvent, scenario: Scenario,
                  targeted: RunResult) -> Optional[dict[str, Traveler]]:
    """The trips of ``event``'s cone in the targeted run without it, taken
    from a ``LeaveOneOut`` run; None when only a full run gives them: when
    ``cone.full_run_needed`` says so, and when another event's plan changes
    without it (``Diverged``).
    """
    influence = targeted.influence
    if influence is None or full_run_needed(event, scenario, influence):
        return None
    cone = influence.cone(event.event_id, targeted.trips)
    try:
        return LeaveOneOut(scenario, event, cone, influence).run().trips
    except Diverged:
        return None


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

    The run without the event re-simulates only the event's cone: the
    device-bound travelers whose reads or messages the targeted run saw the
    event could shape (``Influence.cone``).  Every other traveler keeps the
    targeted run's trip, and the answer is the one a full run without the
    event gives (``partial_trips`` names the cases that run one).
    """
    with_event = base_result if base_result is not None else run(scenario, MODE_TARGETED)
    cone_trips = partial_trips(event, scenario, with_event)
    if cone_trips is None:
        without = run(scenario.without_event(event.event_id), MODE_TARGETED).trips
    else:
        without = {**with_event.trips, **cone_trips}
    return affected_devices(event, with_event.trips, without)


@dataclass
class ComparisonReport:
    no_adapt: RunResult
    broadcast: RunResult
    targeted: RunResult
    ground_truth: dict[str, set[str]]
    precision: Optional[float]
    recall: Optional[float]

    def to_dict(self) -> dict:
        """``compare.json``'s content: floats rounded to 6 decimals as in
        ``metrics.json``."""
        def summarize(result: RunResult) -> dict:
            m = result.metrics
            return {
                "total_delay_s": round(m.total_delay_s, 6),
                "trips_completed": m.trips_completed,
                "trips_abandoned": m.trips_abandoned,
                "messages_sent_total": m.messages_sent_total,
                "broadcast_baseline_total": m.broadcast_baseline_total,
                "warnings_issued": m.warnings_issued,
            }

        return {
            "no_adapt": summarize(self.no_adapt),
            "broadcast": summarize(self.broadcast),
            "targeted": summarize(self.targeted),
            "ground_truth_devices": {
                k: sorted(v) for k, v in sorted(self.ground_truth.items())
            },
            "relevance_precision": None if self.precision is None else round(self.precision, 6),
            "relevance_recall": None if self.recall is None else round(self.recall, 6),
        }


def compare(scenario: Scenario) -> ComparisonReport:
    """Run the scenario without response, with broadcast, and targeted.

    All three runs share the scenario seed.  Relevance precision and recall
    of the targeted run are scored against ground truth obtained by
    paired-run differencing per event (``ground_truth_affected``): each
    run without an event re-simulates only the event's cone and reuses the
    targeted run's other trips, falling back to a full run where that
    cannot be shown to give the same answer.  The report is the one full
    re-runs give, byte for byte.
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
