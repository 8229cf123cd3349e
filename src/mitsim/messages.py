"""Warning messages and their canonical wire encoding.

A warning is the data package pushed to edge devices when a disturbance is
detected: disturbance kind, located affected entries (network, segment,
segment class, modes), severity measures, estimated end time and a revision
counter.  There is one warning form, small enough to spread broadly; the
event's case-specific data stays with the event.

Wire format
-----------
One warning encodes to one line of UTF-8 text: a strict JSON subset with
keys in a fixed order and no insignificant whitespace, so equal warnings
encode to identical bytes in any implementation.

* top-level keys, in order: ``warning_id``, ``event_id``, ``kind``,
  ``revision``, ``detail``, ``issue_time``, ``estimated_end``,
  ``severity``, ``affected``, ``case_specific``;
* ``severity`` keys, in order, present measures only:
  ``capacity_reduction``, ``lanes_affected``, ``severity_index``,
  ``displaced_volume``;
* each ``affected`` entry: ``network_id``, ``segment_id``, ``class``,
  ``modes`` (modes sorted);
* ``detail`` is always ``"basic"`` and ``case_specific`` always ``{}``:
  fixed literals that keep the wire form of every warning ever written.
  Dropping the two keys changes the wire format and every warnings log, so
  it belongs with a deliberate behaviour change;
* integers in decimal; times as integer seconds since scenario epoch;
  fractional numbers with exactly 4 decimal digits (e.g. ``0.2500``);
* strings JSON-escaped (``\\``, ``"``, control characters).

The decoder is strict: it accepts exactly this canonical form and reports
the character offset of the first violation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Union

from .disturbance import (DISTURBANCE_KINDS, SEVERITY_MEASURES, DisturbanceEvent, EffectMatrix,
                          SeverityMeasure, affected_pairs, hit_entries)
from .errors import CodecError, ValidationError
from .network import SEGMENT_CLASSES, MultiLayerNetwork


def quantize_fraction(x: float) -> float:
    """Round to the 4 decimal digits the wire format can carry."""
    return round(float(x), 4)


def _is_quantized(x: float) -> bool:
    return float(f"{x:.4f}") == x


@dataclass(frozen=True)
class AffectedEntry:
    network_id: str
    segment_id: str
    seg_class: str
    modes: tuple[str, ...]


@dataclass(frozen=True)
class WarningMessage:
    warning_id: str
    event_id: str
    kind: str
    revision: int
    issue_time: int
    estimated_end: int
    severity: SeverityMeasure
    affected: tuple[AffectedEntry, ...]

    def __post_init__(self) -> None:
        """Raise the first wire rule (see ``_FIELDS``) this warning breaks.

        Each warning is checked once, when it is built."""
        got = vars(self)
        for key, _kind, rules in _FIELDS:
            for test, _wire_error, error in rules:
                if not test(got[key], got):
                    self._fail(error, got[key], got)
            if key == "affected":
                for entry in self.affected:
                    entry_got = vars(entry)
                    for _key, name, _kind, entry_rules in _ENTRY_KEYS:
                        for test, _wire_error, error in entry_rules:
                            if not test(entry_got[name], entry_got):
                                self._fail(error, entry_got[name], entry_got)

    def _fail(self, error: str, value, got: Mapping):
        raise ValidationError(f"warning {self.warning_id}: " + error.format(value, **got))


# -- construction ------------------------------------------------------------


def make_warning(
    event: DisturbanceEvent,
    net: MultiLayerNetwork,
    matrix: EffectMatrix,
    issue_time: int,
) -> tuple[WarningMessage, None]:
    """Build revision 0 of an event's warning, paired with None.

    Affected entries cover each located segment with the modes of its
    ``hit_entries``.  For kinds with an empty matrix row (major events)
    every mode present on the located segments is listed, since the impact
    is a demand shift for everyone nearby.  The second item is always None:
    the pair stays until no caller unpacks it.
    """
    every_mode = not affected_pairs(event.kind, matrix)
    estimated_end = math.ceil(event.start + event.estimated_duration)
    if estimated_end <= issue_time:
        raise ValidationError(
            f"event {event.event_id}: already past its estimated end at issue time"
        )
    entries = []
    for seg, hit in hit_entries(event, net, matrix):
        modes = sorted(entry.mode_id for entry in (seg.usage if every_mode else hit))
        if not modes:
            continue
        entries.append(AffectedEntry(
            network_id=seg.network_id,
            segment_id=seg.segment_id,
            seg_class=seg.seg_class,
            modes=tuple(modes),
        ))
    if not entries:
        raise ValidationError(
            f"event {event.event_id}: no affected modes on the located segments"
        )
    severity = _quantize_severity(event.severity)
    return WarningMessage(
        warning_id=f"w-{event.event_id}",
        event_id=event.event_id,
        kind=event.kind,
        revision=0,
        issue_time=int(issue_time),
        estimated_end=estimated_end,
        severity=severity,
        affected=tuple(entries),
    ), None


def revise(w: WarningMessage, new_estimated_end: int) -> WarningMessage:
    """Next revision of a warning, ending at ``new_estimated_end``; every
    other field carries over."""
    return replace(w, revision=w.revision + 1, estimated_end=int(new_estimated_end))


def _quantize_severity(severity: SeverityMeasure) -> SeverityMeasure:
    values = {}
    for name, measure in SEVERITY_MEASURES:
        value = getattr(severity, name)
        if measure == "fraction" and value is not None:
            value = quantize_fraction(value)
        values[name] = value
    return SeverityMeasure(**values)


# -- wire schema -------------------------------------------------------------
#
# The key orders of the wire format above.  encode and decode both walk
# these tables, so the two directions cannot disagree on the order.  Value
# types: "string", "int", "fraction", "modes" (a non-empty sorted list of
# strings), "severity" (the measures of SEVERITY_MEASURES, absent ones
# left out) and "affected" for the nested part of that name; or a _Literal,
# a fixed text that no WarningMessage field holds.


class _Literal(str):
    """A value type that is its own wire text: written and expected as is."""


# A rule is (test of a value given the fields of its object read before
# it, the decoder's error, the constructor's error); the errors are format
# strings of the value and those fields.  The decoder applies a key's rules
# once its value is read and the constructor applies them in the same
# order, so both report the first broken rule in wire order.

# Top-level keys, each the WarningMessage field of that name unless its
# type is a _Literal: (key, value type, rules).
_FIELDS = (
    ("warning_id", "string", ()),
    ("event_id", "string", ()),
    ("kind", "string", ((lambda v, got: v in DISTURBANCE_KINDS,
                         "unknown kind code {0!r}", "unknown kind {0!r}"),)),
    ("revision", "int", ((lambda v, got: v >= 0,
                          "revision must be >= 0", "negative revision"),)),
    ("detail", _Literal('"basic"'), ()),
    ("issue_time", "int", ()),
    ("estimated_end", "int", ((lambda v, got: v > got["issue_time"],
                               "estimated_end must exceed issue_time",
                               "estimated_end must exceed issue_time"),)),
    ("severity", "severity", ()),
    ("affected", "affected", ((lambda v, got: len(v) > 0,
                               "affected list must not be empty",
                               "empty affected list"),)),
    ("case_specific", _Literal("{}"), ()),
)

# Keys of an affected entry: (key, AffectedEntry field, value type, rules)
# as in _FIELDS.  The modes list ends the entry; the decoder reads its "["
# with the key and its "]" with the entry's "}".
_ENTRY_KEYS = (
    ("network_id", "network_id", "string", ()),
    ("segment_id", "segment_id", "string", ()),
    ("class", "seg_class", "string", ((lambda v, got: v in SEGMENT_CLASSES,
                                       "unknown segment class {0!r}",
                                       "unknown segment class {0!r}"),)),
    ("modes", "modes", "modes", ((lambda v, got: len(v) > 0,
                                  "modes list must not be empty",
                                  "entry {segment_id} has no modes"),
                                 (lambda v, got: list(v) == sorted(v),
                                  "modes must be sorted",
                                  "modes of {segment_id} not sorted"))),
)


# -- canonical encoder -------------------------------------------------------

# A string in quotes: ``\"``, ``\\`` and ``\b\f\n\r\t`` escaped, other
# control characters as lowercase ``\u00XX``, everything else raw.
_quote = json.encoder.encode_basestring
# The character after a backslash, read back to the character it escapes.
_UNESCAPES = {'"': '"', "\\": "\\", "b": "\b", "f": "\f", "n": "\n", "r": "\r", "t": "\t"}


def _emit_fraction(value: float, out: list[str], what: str) -> None:
    if not _is_quantized(value):
        raise ValidationError(f"{what}: value {value!r} not quantized to 4 decimals")
    out.append(f"{value:.4f}")


def encode(w: WarningMessage) -> bytes:
    """Canonical byte encoding; equal warnings yield identical bytes."""
    out: list[str] = []
    sep = "{"
    for key, kind, _rules in _FIELDS:
        out.append(f'{sep}"{key}":')
        sep = ","
        if isinstance(kind, _Literal):
            out.append(kind)
        else:
            _emit(kind, getattr(w, key), out, key)
    out.append("}")
    return "".join(out).encode("utf-8")


def _emit(kind: str, value, out: list[str], key: str) -> None:
    """One value of the schema type ``kind`` under ``key``."""
    if kind == "string":
        out.append(_quote(value))
    elif kind == "int":
        out.append(str(value))
    elif kind == "fraction":
        _emit_fraction(value, out, key)
    elif kind == "modes":
        out.append("[")
        for j, mode in enumerate(value):
            if j:
                out.append(",")
            out.append(_quote(mode))
        out.append("]")
    elif kind == "severity":
        out.append("{")
        sep = ""
        for name, measure in SEVERITY_MEASURES:
            v = getattr(value, name)
            if v is None:
                continue
            out.append(f'{sep}"{name}":')
            sep = ","
            _emit(measure, v, out, name)
        out.append("}")
    else:  # affected
        out.append("[")
        for i, entry in enumerate(value):
            if i:
                out.append(",")
            sep = "{"
            for entry_key, name, entry_kind, _rules in _ENTRY_KEYS:
                out.append(f'{sep}"{entry_key}":')
                sep = ","
                _emit(entry_kind, getattr(entry, name), out, entry_key)
            out.append("}")
        out.append("]")


# -- canonical decoder -------------------------------------------------------


class _Scanner:
    """Strict scanner for the canonical form, tracking character offsets."""

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def fail(self, message: str, at: Optional[int] = None):
        raise CodecError(message, self.i if at is None else at)

    def peek(self) -> str:
        if self.i >= len(self.text):
            self.fail("unexpected end of input")
        return self.text[self.i]

    def expect(self, literal: str) -> None:
        if not self.text.startswith(literal, self.i):
            # a remainder that could still become the literal is a cut input
            self.fail("unexpected end of input" if literal.startswith(self.text[self.i:])
                      else f"expected {literal!r}")
        self.i += len(literal)

    def parse_string(self) -> str:
        self.expect('"')
        chars: list[str] = []
        while True:
            if self.i >= len(self.text):
                self.fail("unexpected end of input in string")
            ch = self.text[self.i]
            if ch == '"':
                self.i += 1
                return "".join(chars)
            if ch == "\\":
                self.i += 1
                if self.i >= len(self.text):
                    self.fail("unexpected end of input in escape")
                esc = self.text[self.i]
                if esc in _UNESCAPES:
                    chars.append(_UNESCAPES[esc])
                elif esc == "u":
                    hexpart = self.text[self.i + 1:self.i + 5]
                    if len(hexpart) < 4:
                        self.fail("unexpected end of input in unicode escape")
                    try:
                        chars.append(chr(int(hexpart, 16)))
                    except ValueError:
                        self.fail("bad unicode escape")
                    self.i += 4
                else:
                    self.fail(f"bad escape character {esc!r}")
                self.i += 1
            elif ord(ch) < 0x20:
                self.fail("raw control character in string")
            else:
                chars.append(ch)
                self.i += 1

    def parse_number(self) -> Union[int, float]:
        start = self.i
        if self.peek() == "-":
            self.i += 1
        digits = 0
        while self.i < len(self.text) and self.text[self.i].isdigit():
            self.i += 1
            digits += 1
        if digits == 0:
            self.fail("expected a number", at=start)
        if self.i < len(self.text) and self.text[self.i] == ".":
            self.i += 1
            frac = 0
            while self.i < len(self.text) and self.text[self.i].isdigit():
                self.i += 1
                frac += 1
            if frac != 4:
                self.fail("fractional values carry exactly 4 decimals", at=start)
            return float(self.text[start:self.i])
        return int(self.text[start:self.i])

    def parse_typed(self, kind: str, what: str) -> Union[int, float]:
        """A number of the schema type ``kind``, "int" or "fraction"."""
        at = self.i
        value = self.parse_number()
        if kind == "int" and not isinstance(value, int):
            self.fail(f"{what} must be an integer", at=at)
        if kind == "fraction" and isinstance(value, int):
            self.fail(f"{what} carries exactly 4 decimals", at=at)
        return value


def decode(data: bytes) -> WarningMessage:
    """Decode one canonical warning; raises :class:`CodecError` on violation."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("invalid UTF-8", exc.start) from None
    s = _Scanner(text)
    got: dict[str, object] = {}
    sep = "{"
    for key, kind, rules in _FIELDS:
        s.expect(sep)
        s.expect(f'"{key}":')
        sep = ","
        if isinstance(kind, _Literal):
            s.expect(kind)
            continue
        at = s.i
        got[key] = _read(s, kind, key)
        _apply_rules(s, rules, got[key], got, at)
    s.expect("}")
    if s.i != len(text):
        s.fail("trailing data after message")
    return WarningMessage(**got)  # type: ignore[arg-type]


def _apply_rules(s: _Scanner, rules, value, got: dict, at: int) -> None:
    """Fail at ``at``, where ``value`` starts, on its first broken rule."""
    for test, wire_error, _error in rules:
        if not test(value, got):
            s.fail(wire_error.format(value, **got), at=at)


def _read(s: _Scanner, kind: str, key: str):
    """One value of the schema type ``kind`` under ``key``."""
    if kind == "string":
        return s.parse_string()
    if kind in ("int", "fraction"):
        return s.parse_typed(kind, key)
    if kind == "modes":
        return _parse_modes(s)
    if kind == "severity":
        return _parse_severity(s)
    return _parse_affected(s)


def _parse_severity(s: _Scanner) -> SeverityMeasure:
    obj_at = s.i
    s.expect("{")
    fields: dict[str, object] = {}
    sep = ""
    for name, measure in SEVERITY_MEASURES:
        key = f'{sep}"{name}":'
        if not s.text.startswith(key, s.i):
            if key.startswith(s.text[s.i:]):  # the input ends inside the key
                s.fail("unexpected end of input")
            continue  # an absent measure
        s.i += len(key)
        fields[name] = s.parse_typed(measure, name)
        sep = ","
    s.expect("}")
    if not fields:
        s.fail("severity must carry at least one measure", at=obj_at)
    try:
        return SeverityMeasure(**fields)  # type: ignore[arg-type]
    except ValidationError as exc:
        s.fail(str(exc), at=obj_at)


def _parse_affected(s: _Scanner) -> tuple[AffectedEntry, ...]:
    s.expect("[")
    entries: list[AffectedEntry] = []
    if s.peek() == "]":
        s.i += 1
        return ()
    while True:
        got: dict[str, object] = {}
        sep = "{"
        for key, name, kind, rules in _ENTRY_KEYS:
            s.expect(f'{sep}"{key}":' + ("[" if kind == "modes" else ""))
            sep = ","
            at = s.i
            got[name] = _read(s, kind, key)
            _apply_rules(s, rules, got[name], got, at)
        s.expect("]}")
        entries.append(AffectedEntry(**got))  # type: ignore[arg-type]
        if s.peek() == ",":
            s.i += 1
            continue
        break
    s.expect("]")
    return tuple(entries)


def _parse_modes(s: _Scanner) -> tuple[str, ...]:
    """A list of strings, up to its closing ``]``."""
    if s.peek() == "]":
        return ()
    modes = [s.parse_string()]
    while s.peek() == ",":
        s.i += 1
        modes.append(s.parse_string())
    return tuple(modes)

