"""Each event's influence cone: the travelers a run without it could change.

``compare`` scores relevance against the devices each event really
affected, which ``ground_truth_affected`` finds by running the scenario
without the event.  A traveler's trip can differ in that run only if
something it read or received could depend on the event, so the targeted
run notes those travelers as it goes (:class:`Influence`), and the run
without the event (``simulation.LeaveOneOut``) simulates only them, the
event's cone; everyone else keeps the targeted run's trip.  This module
holds what that run reads of the targeted one, and the checks that send
it back to a full run where the cone cannot be shown to give the full
run's answer (clones of a simulation share one computation until their
inputs differ: Hybinette and Fujimoto, "Cloning parallel simulations",
ACM TOMACS 11(4), 2001).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adaptation import (BusDiversion, DemandRebalance, ReplacementService, Reroute,
                         StopGuidance)
from .disturbance import DisturbanceEvent
from .messages import WarningMessage
from .scenario import Scenario
from .state import Contribution


@dataclass
class Influence:
    """What a targeted run notes of each event's reach, as it goes.

    ``reached`` holds, per event, the devices whose travelers took in
    something the event could have shaped:
    - its warning, a revision of it or one of its Reroutes flagged them
      for a replan, and they were waiting then (the flag woke them) or
      adopted a new plan at that replan (one that keeps the plan leaves
      no trace);
    - they called ``route`` and its search read the residual of a segment
      and mode one of its contributions named, or ``evaluate_moves`` on
      moves through one, while that contribution could be active;
    - they were waiting when its end or its police arrival woke the
      waiting.
    ``owned`` holds the contributions each event registered, ``planned``
    each event's respond time, first warning and actions, and
    ``conflicts`` the events whose signal plans took an approach over from
    another event's plan or lost one to it.

    While the run goes, ``owners`` counts each event's removals still to
    come (its ``event_end``, its actions' ``action_end``), ``spans`` the
    earliest start, latest end and targets of its contributions, and
    ``flaggers`` the events that flagged each device's traveler since its
    last replan.  Nothing is noted per arrival of a traveler without a
    device.
    """

    reached: dict[str, set[str]] = field(default_factory=dict)
    owned: dict[str, list[Contribution]] = field(default_factory=dict)
    planned: dict[str, tuple[float, WarningMessage, list]] = field(default_factory=dict)
    conflicts: set[str] = field(default_factory=set)
    owners: dict[str, int] = field(default_factory=dict)
    spans: dict[str, tuple[float, float, frozenset]] = field(default_factory=dict)
    flaggers: dict[str, set[str]] = field(default_factory=dict)

    def _reach(self, event_id: str, device_id: str) -> None:
        self.reached.setdefault(event_id, set()).add(device_id)

    def read(self, device_id: str, t: float, reads=(), moves=()) -> None:
        """The device's traveler read the overlay at ``t``: a route search
        that asked for the residuals of ``reads`` (its entry in
        ``NetworkState.searches``), or ``evaluate_moves`` on ``moves``,
        which reads only their segments'.  An owner counts when ``t`` falls
        in its span and the span names one of those targets."""
        timed = None
        for event_id in self.owners:
            lo, hi, targets = self.spans.get(event_id, (0.0, 0.0, None))
            if not lo <= t < hi:
                continue
            if targets.isdisjoint(reads):
                if timed is None:
                    timed = {(m[1], m[2]) for m in moves if m[0] == "seg"}
                if targets.isdisjoint(timed):
                    continue
            self._reach(event_id, device_id)

    def own(self, event_id: str, removals: int, contributions=()) -> None:
        """Notes ``contributions`` the event registered and counts its
        removals to come (negative: made)."""
        if contributions:
            owned = self.owned.setdefault(event_id, [])
            owned.extend(contributions)
            self.spans[event_id] = (min(c.start for c in owned), max(c.end for c in owned),
                                    frozenset().union(*(c.targets for c in owned)))
        left = self.owners.get(event_id, 0) + removals
        if left:
            self.owners[event_id] = left
        else:
            self.owners.pop(event_id, None)

    def applied(self, actions: list, records: list[dict], contributions) -> None:
        """Notes one event's applied ``actions``: the ``apply`` records,
        and the overlay's ``contributions`` after it, of which those the
        actions own are the event's."""
        event_id = actions[0].event_id
        for record in records:
            if record["type"] == "signal_conflict":
                overridden = record["overridden"]
                self.conflicts |= {event_id, next(
                    (e for e, (_t, _w, planned) in self.planned.items()
                     if any(a.action_id == overridden for a in planned)), event_id)}
        owners = {action.action_id for action in actions}
        self.own(event_id, len(actions), [c for c in contributions if c.owner in owners])

    def flagged(self, device_id: str, event_id: str, waiting: bool) -> None:
        """The event flagged the device's traveler for a replan; a waiting
        one wakes."""
        self.flaggers.setdefault(device_id, set()).add(event_id)
        if waiting:
            self._reach(event_id, device_id)

    def replanned(self, device_id: str, adopted: bool) -> None:
        """The device's traveler replanned, and ``adopted`` a new plan."""
        flaggers = self.flaggers.pop(device_id, ())
        if adopted:
            for event_id in flaggers:
                self._reach(event_id, device_id)

    def woke(self, event_id: str, device_ids) -> None:
        """The event's end or police arrival woke the waiting travelers,
        whose devices are ``device_ids`` (None for a traveler without)."""
        for device_id in device_ids:
            if device_id is not None:
                self._reach(event_id, device_id)

    def cone(self, event_id: str, trips: dict) -> set[str]:
        """The devices of the device-bound travelers in ``event_id``'s cone,
        among a run's ``trips`` (its travelers by id):
        those it ``reached`` and those that entered a segment in a mode one
        of its contributions named while that contribution was active."""
        cone = set(self.reached.get(event_id, ()))
        windows: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for c in self.owned.get(event_id, ()):
            for target in c.targets:
                windows.setdefault(target, []).append((c.start, c.end))
        travelling = set()
        for tv in trips.values():
            if tv.device_id is None:
                continue
            travelling.add(tv.device_id)
            if tv.device_id not in cone and any(
                    start <= enter < end for seg_id, mode, enter, _exit in tv.traversals
                    for start, end in windows.get((seg_id, mode), ())):
                cone.add(tv.device_id)
        return cone & travelling


# Actions a traveler outside the cone cannot tell apart by their fields: a
# Reroute flags only its targets (those outside the cone are kept), and bus
# diversions, stop guidance and demand rebalancing touch no contribution and
# no traveler's device, only what later plans read, which are made again.
_UNSEEN = (Reroute, BusDiversion, StopGuidance, DemandRebalance)


def seen_by_travelers(actions: list) -> list:
    """The actions as travelers outside the cone see them: each one in
    ``_UNSEEN`` by its type and id alone (its place in the numbering)."""
    return [(type(a), a.action_id) if isinstance(a, _UNSEEN) else a for a in actions]


def full_run_needed(event: DisturbanceEvent, scenario: Scenario, influence: Influence) -> bool:
    """Whether only a full run without ``event`` shows its cone's trips,
    before a partial one is tried.

    That is when removing the event changes ``setup`` (an EV modifier names
    it); when its signal plans and another event's claimed one approach;
    and when another event planned a replacement service from observed
    flows at or after its start (flows count every traveler).
    """
    event_id = event.event_id
    if event_id in influence.conflicts:
        return True
    if event.kind == "EV" and any(m.event_id == event_id for m in scenario.ev_modifiers):
        return True
    events = {e.event_id: e for e in scenario.events}
    return any(other != event_id and t >= event.start
               and events[other].severity.displaced_volume is None
               and any(isinstance(a, ReplacementService) for a in actions)
               for other, (t, _warning, actions) in influence.planned.items())


def affected_devices(event: DisturbanceEvent, trips: dict, without: dict) -> set[str]:
    """The devices whose trip in ``trips`` (travelers by id) differs from
    the one in ``without`` (which has every device trip, by the same id) in
    status or realized cost, or crosses a located segment of ``event``
    while it is active (see ``ground_truth_affected``)."""
    located = set(event.segments)
    affected: set[str] = set()
    for tid, tv in trips.items():
        if tv.device_id is None:
            continue
        other = without[tid]
        cost_a = None if tv.arrival is None else tv.arrival - tv.depart
        cost_b = None if other.arrival is None else other.arrival - other.depart
        if tv.status != other.status or cost_a != cost_b:
            affected.add(tv.device_id)
            continue
        for seg_id, _mode, enter, exit_t in tv.traversals:
            if seg_id in located and enter < event.true_end and exit_t > event.start:
                affected.add(tv.device_id)
                break
    return affected
