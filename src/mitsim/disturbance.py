"""Disturbance taxonomy, effect matrix, detection models and escalation.

Disturbance kinds cover road accidents (D1), planned and unplanned work
zones (D2/D3), other road blockages (D4), broken road/rail public-transport
vehicles (D5-D7), broken traffic signals (D8), rescue events (D9), and major
events (EV) that shift demand instead of capacity.

The effect matrix maps each kind to the (mode, network) pairs it directly
impacts; it is scenario data with a documented default so deployments can
override it per city.  Detection channels (crowd apps, V2I, dispatch feeds,
registries, sensors) are abstracted to a fire probability plus a latency
interval; real wire standards are out of scope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Container, Mapping, Optional

from .errors import ValidationError, as_bool, as_float
from .network import ROAD_CATEGORIES, MultiLayerNetwork, Segment, UsageEntry

DISTURBANCE_KINDS = (
    "D1",  # road accident
    "D2",  # planned work zone
    "D3",  # unplanned work zone
    "D4",  # other road blockage
    "D5",  # broken road PT vehicle
    "D6",  # broken tram/metro
    "D7",  # broken train
    "D8",  # broken traffic signals
    "D9",  # rescue event
    "EV",  # major event (demand shift)
)

DETECTION_SOURCE_KINDS = frozenset({
    "user-app", "cits-v2i", "traffic-info-center", "rescue-dispatch",
    "video-ai", "tf-sensors", "wz-registry", "smart-cone", "pt-dispatch",
    "rail-dispatch", "device-self-report",
})

# Monotone step mapping from capacity reduction to a 1..5 severity index.
SEVERITY_INDEX_THRESHOLDS = (0.05, 0.25, 0.6)


@dataclass(frozen=True)
class SeverityMeasure:
    """Expected impact severity; at least one measure must be present."""

    capacity_reduction: Optional[float] = None  # fraction in [0, 1]
    lanes_affected: Optional[int] = None
    severity_index: Optional[int] = None  # 1..5
    displaced_volume: Optional[float] = None  # flow units per hour

    def __post_init__(self):
        if (self.capacity_reduction is None and self.lanes_affected is None
                and self.severity_index is None and self.displaced_volume is None):
            raise ValidationError("severity measure: at least one field required")
        if self.capacity_reduction is not None and not 0.0 <= self.capacity_reduction <= 1.0:
            raise ValidationError("severity measure: capacity_reduction outside [0, 1]")
        if self.lanes_affected is not None and self.lanes_affected < 0:
            raise ValidationError("severity measure: lanes_affected must be >= 0")
        if self.severity_index is not None and not 1 <= self.severity_index <= 5:
            raise ValidationError("severity measure: severity_index must be in 1..5")
        if self.displaced_volume is not None and not self.displaced_volume >= 0:
            raise ValidationError("severity measure: displaced_volume must be >= 0")

    @property
    def fully_blocked(self) -> bool:
        return self.capacity_reduction is not None and self.capacity_reduction >= 1.0


# The SeverityMeasure fields, in wire order, each with its value type:
# "fraction" (a float) or "int".  The warning codec and the scenario loader
# both read measures through this table.
SEVERITY_MEASURES = (
    ("capacity_reduction", "fraction"),
    ("lanes_affected", "int"),
    ("severity_index", "int"),
    ("displaced_volume", "fraction"),
)


@dataclass(frozen=True)
class DisturbanceEvent:
    """One disturbance, located on segments (and optionally nodes).

    ``true_duration`` is ground truth hidden from edge devices until the
    event resolves; warnings only ever carry ``estimated_duration``.
    ``specifics`` holds case data such as ``partial_blockage``,
    ``reserved_lane_hit``, ``details_at`` (when an unplanned work zone gets
    registry backing), ``registered_duration``, or ``expected_visitors``.
    ``details_at`` and ``registered_duration`` are also read into the
    numbers :attr:`details_at` and :attr:`registered_duration` when the
    event is built, so a value that is no number, a registered duration
    that is not > 0, or a ``reserved_lane_hit`` that is no boolean fails
    there, naming the event.  The run turns each end (start plus a
    duration) into whole clock seconds, so a duration that is not finite,
    or an end that overflows, fails there too.
    """

    event_id: str
    kind: str
    segments: tuple[str, ...]
    start: float
    estimated_duration: float
    true_duration: float
    severity: SeverityMeasure
    nodes: tuple[str, ...] = ()
    specifics: Mapping[str, object] = field(default_factory=dict)
    details_at: Optional[float] = field(default=None, init=False)
    registered_duration: Optional[float] = field(default=None, init=False)

    def __post_init__(self):
        where = f"event {self.event_id}"
        if "details_at" in self.specifics:
            details_at = as_float(self.specifics["details_at"], where, "details_at")
            if not details_at >= 0:
                raise ValidationError(f"{where}: details_at must be >= 0")
            object.__setattr__(self, "details_at", details_at)
        if "registered_duration" in self.specifics:
            registered = as_float(self.specifics["registered_duration"], where,
                                  "registered_duration")
            if not registered > 0:
                raise ValidationError(f"{where}: registered_duration must be > 0")
            object.__setattr__(self, "registered_duration", registered)
        as_bool(self.specifics.get("reserved_lane_hit", False), where, "reserved_lane_hit")
        if self.kind not in DISTURBANCE_KINDS:
            raise ValidationError(f"event {self.event_id}: unknown kind {self.kind!r}")
        if not self.segments:
            raise ValidationError(f"event {self.event_id}: empty location")
        if not self.start >= 0:
            raise ValidationError(f"event {self.event_id}: start must be >= 0")
        if not (self.estimated_duration > 0 and self.true_duration > 0):
            raise ValidationError(f"event {self.event_id}: durations must be > 0")
        durations = (self.estimated_duration, self.true_duration, self.registered_duration or 0.0)
        if not all(map(math.isfinite, durations)):
            raise ValidationError(f"event {self.event_id}: durations must be finite")
        if not all(math.isfinite(self.start + d) for d in durations):
            raise ValidationError(f"event {self.event_id}: end time is not finite")

    @property
    def estimated_end(self) -> float:
        return self.start + self.estimated_duration

    @property
    def true_end(self) -> float:
        return self.start + self.true_duration


@dataclass(frozen=True)
class DetectionSource:
    """A detection channel modeled as fire probability and latency bounds."""

    source_kind: str
    applicable_kinds: frozenset[str]
    detect_probability: float
    latency_min: float
    latency_max: float

    def __post_init__(self):
        if self.source_kind not in DETECTION_SOURCE_KINDS:
            raise ValidationError(f"unknown detection source kind {self.source_kind!r}")
        if not self.applicable_kinds:
            raise ValidationError(f"source {self.source_kind}: applicable_kinds empty")
        for kind in sorted(self.applicable_kinds):
            if kind not in DISTURBANCE_KINDS:
                raise ValidationError(f"source {self.source_kind}: unknown kind {kind}")
        if not 0.0 <= self.detect_probability <= 1.0:
            raise ValidationError(f"source {self.source_kind}: probability outside [0, 1]")
        if not 0.0 <= self.latency_min <= self.latency_max:
            raise ValidationError(f"source {self.source_kind}: bad latency interval")
        if not math.isfinite(self.latency_max):
            raise ValidationError(f"source {self.source_kind}: latency must be finite")


# EffectMatrix: plain mapping kind -> frozenset of (mode_id, network_id).
EffectMatrix = Mapping[str, frozenset]


def validate_effect_matrix(matrix: EffectMatrix, net: MultiLayerNetwork) -> None:
    for kind, pairs in matrix.items():
        if kind not in DISTURBANCE_KINDS:
            raise ValidationError(f"effect matrix: unknown kind {kind!r}")
        for pair in sorted(pairs):
            if tuple(pair) not in net.usage_matrix:
                raise ValidationError(
                    f"effect matrix {kind}: pair {tuple(pair)} not in the usage matrix"
                )


def default_effect_matrix(net: MultiLayerNetwork, tram_crossing_signals: bool = False) -> dict[str, frozenset]:
    """Default kind -> affected (mode, network) pairs, derived per category.

    Road disturbances (D1, D4, D5, D8, D9) hit non-agile road users; work
    zones (D2, D3) can hit every mode on the located segments; D6 hits tram
    and metro (road spillover comes from shared segment groups); D7 hits
    trains only; EV shifts demand and touches no capacity.  Pass
    ``tram_crossing_signals=True`` for cities where tram lines run through
    signalized intersections so D8 also warns trams.
    """
    def pairs_for(categories: Container[str]) -> frozenset:
        return frozenset(
            (m, n) for (m, n) in net.usage_matrix
            if net.modes[m].category in categories
        )

    matrix = {
        "D1": pairs_for(ROAD_CATEGORIES),
        "D2": frozenset(net.usage_matrix),
        "D3": frozenset(net.usage_matrix),
        "D4": pairs_for(ROAD_CATEGORIES),
        "D5": pairs_for(ROAD_CATEGORIES),
        "D6": pairs_for({"tram", "metro"}) | pairs_for(ROAD_CATEGORIES),
        "D7": pairs_for({"train"}),
        "D8": pairs_for(ROAD_CATEGORIES) | (pairs_for({"tram"}) if tram_crossing_signals else frozenset()),
        "D9": pairs_for(ROAD_CATEGORIES),
        "EV": frozenset(),
    }
    return matrix


def affected_pairs(kind: str, matrix: EffectMatrix) -> frozenset:
    """The (mode, network) pairs directly impacted by a disturbance kind."""
    if kind not in matrix:
        raise ValidationError(f"kind {kind} missing from the effect matrix")
    return frozenset(tuple(p) for p in matrix[kind])


def hit_entries(
    event: DisturbanceEvent,
    net: MultiLayerNetwork,
    matrix: EffectMatrix,
) -> list[tuple[Segment, list[UsageEntry]]]:
    """Each located segment, in id order, with the usage entries the event
    hits there: those whose (mode, network) pair is in the matrix row.
    Reserved lanes and tracks are spared unless
    ``specifics.reserved_lane_hit`` is true."""
    pairs = affected_pairs(event.kind, matrix)
    reserved_hit = event.specifics.get("reserved_lane_hit", False)
    out = []
    for seg_id in sorted(set(event.segments)):
        seg = net.segments.get(seg_id)
        if seg is None:
            raise ValidationError(f"event {event.event_id}: unknown segment {seg_id}")
        out.append((seg, [entry for entry in seg.usage
                          if (entry.mode_id, seg.network_id) in pairs
                          and (reserved_hit or not entry.reserved)]))
    return out


def direct_effects(
    event: DisturbanceEvent,
    net: MultiLayerNetwork,
    matrix: EffectMatrix,
) -> list[tuple[str, str, float]]:
    """Per (segment, mode) residual capacity fractions caused by an event,
    for the entries ``hit_entries`` names.  Events without a
    capacity_reduction measure (e.g. EV) leave capacity intact.
    """
    hits = hit_entries(event, net, matrix)
    reduction = event.severity.capacity_reduction
    if reduction is None:
        return []
    residual = 0.0 if event.severity.fully_blocked else 1.0 - reduction
    return [(seg.segment_id, entry.mode_id, residual) for seg, hit in hits for entry in hit]


def detect(
    event: DisturbanceEvent,
    sources: list[DetectionSource],
    rng: random.Random,
) -> Optional[tuple[float, str]]:
    """Earliest successful detection of an event, or None.

    Every applicable source draws a fire flag and a latency; the earliest
    firing source wins (ties go to list order).  Reproducible given the
    caller-owned random stream.
    """
    best: Optional[tuple[float, str]] = None
    for source in sources:
        if event.kind not in source.applicable_kinds:
            continue
        fired = rng.random() < source.detect_probability
        latency = rng.uniform(source.latency_min, source.latency_max)
        if not fired:
            continue
        t = event.start + latency
        if best is None or t < best[0]:
            best = (t, source.source_kind)
    return best


def severity_index_from(capacity_reduction: float) -> int:
    """Map a capacity-reduction fraction onto the 1..5 severity index."""
    if not 0.0 <= capacity_reduction <= 1.0:
        raise ValidationError("capacity_reduction outside [0, 1]")
    if capacity_reduction >= 1.0:
        return 5
    for idx, threshold in enumerate(SEVERITY_INDEX_THRESHOLDS, start=1):
        if capacity_reduction <= threshold:
            return idx
    return 4


def displaced_volume(
    event: DisturbanceEvent,
    flows: Mapping[tuple[str, str], float],
    net: MultiLayerNetwork,
    matrix: EffectMatrix,
) -> float:
    """Hourly flow displaced by the event: sum of flow * reduction.

    Only the entries ``hit_entries`` names count; missing flow observations
    count as zero.
    """
    reduction = event.severity.capacity_reduction or 0.0
    total = 0.0
    for seg, hit in hit_entries(event, net, matrix):
        for entry in hit:
            total += flows.get((seg.segment_id, entry.mode_id), 0.0) * reduction
    return total


def escalate(
    event: DisturbanceEvent,
    now: float,
    details_known: bool,
    extension_threshold: float,
) -> DisturbanceEvent:
    """Promote long-lived work-zone-like events to planned work zones.

    An unplanned work zone (D3) becomes a planned one (D2) once registry
    details are available, adopting the registered duration.  A lingering
    other-road-blockage (D4) becomes D2 after the extension threshold.
    All other kinds pass through unchanged.
    """
    if event.kind == "D3" and details_known:
        registered = event.registered_duration  # None or > 0
        return replace(event, kind="D2", estimated_duration=registered or event.true_duration)
    if event.kind == "D4" and (now - event.start) > extension_threshold:
        return replace(event, kind="D2")
    return event
