from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from mitsim.disturbance import SeverityMeasure
from mitsim.errors import CodecError, ValidationError
from mitsim.messages import (
    AffectedEntry,
    WarningMessage,
    decode,
    encode,
    make_warning,
    quantize_fraction,
    revise,
)
from mitsim.disturbance import DisturbanceEvent, default_effect_matrix

# -- strategies ------------------------------------------------------------------

ids = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=12
)
fraction = st.integers(min_value=0, max_value=10000).map(lambda n: n / 10000.0)
seg_class = st.sampled_from(["critical", "major", "inferior", "minor"])
kinds = st.sampled_from(["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D8", "D9", "EV"])

severity_args = st.tuples(
    st.one_of(st.none(), fraction),
    st.one_of(st.none(), st.integers(0, 12)),
    st.one_of(st.none(), st.integers(1, 5)),
    st.one_of(st.none(), fraction.map(lambda f: round(f * 2000, 4))),
).filter(lambda t: any(v is not None for v in t))
severities = severity_args.map(lambda t: SeverityMeasure(*t))

entries = st.builds(
    AffectedEntry,
    network_id=ids,
    segment_id=ids,
    seg_class=seg_class,
    modes=st.lists(ids, min_size=1, max_size=4, unique=True).map(
        lambda ms: tuple(sorted(ms))),
)


@st.composite
def warnings_strategy(draw):
    issue = draw(st.integers(0, 10**6))
    return WarningMessage(
        warning_id=draw(ids),
        event_id=draw(ids),
        kind=draw(kinds),
        revision=draw(st.integers(0, 40)),
        issue_time=issue,
        estimated_end=issue + draw(st.integers(1, 10**6)),
        severity=draw(severities),
        affected=tuple(draw(st.lists(entries, min_size=1, max_size=4))),
    )


# -- round trip and canonical form -------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(warnings_strategy())
def test_roundtrip_and_canonical(w):
    blob = encode(w)
    again = decode(blob)
    assert again == w
    assert encode(again) == blob


def test_unquantized_fraction_rejected_on_encode():
    w = WarningMessage(
        warning_id="w", event_id="e", kind="D1", revision=0,
        issue_time=0, estimated_end=10,
        severity=SeverityMeasure(capacity_reduction=0.123456),
        affected=(AffectedEntry("n", "s", "minor", ("m",)),),
    )
    with pytest.raises(ValidationError, match="quantized"):
        encode(w)
    assert quantize_fraction(0.123456) == 0.1235


# -- decoder rejections --------------------------------------------------------------


def valid_blob():
    w = WarningMessage(
        warning_id="w1", event_id="e1", kind="D4", revision=2,
        issue_time=100, estimated_end=400,
        severity=SeverityMeasure(capacity_reduction=0.75, lanes_affected=1),
        affected=(AffectedEntry("n1", "s7", "major", ("bus", "car")),),
    )
    return encode(w)


def test_decode_truncation_positioned():
    blob = valid_blob()
    with pytest.raises(CodecError) as err:
        decode(blob[: len(blob) // 2])
    assert "unexpected end of input" in str(err.value)
    assert err.value.position <= len(blob) // 2


def test_decode_unknown_kind():
    blob = valid_blob().replace(b'"kind":"D4"', b'"kind":"ZZ"')
    with pytest.raises(CodecError, match="unknown kind"):
        decode(blob)


def test_decode_missing_mandatory_field():
    blob = valid_blob().replace(b'"event_id":"e1",', b"")
    with pytest.raises(CodecError):
        decode(blob)


def test_decode_end_before_issue():
    blob = valid_blob().replace(b'"estimated_end":400', b'"estimated_end":50')
    with pytest.raises(CodecError, match="estimated_end"):
        decode(blob)


def test_decode_trailing_garbage():
    with pytest.raises(CodecError, match="trailing"):
        decode(valid_blob() + b"x")


def test_decode_basic_with_case_data():
    blob = valid_blob().replace(b'"case_specific":{}', b'"case_specific":{"lane":2}')
    with pytest.raises(CodecError, match="expected '{}'"):
        decode(blob)


def test_decode_bad_fraction_width():
    blob = valid_blob().replace(b"0.7500", b"0.75")
    with pytest.raises(CodecError, match="4 decimals"):
        decode(blob)


def test_decode_invalid_utf8():
    with pytest.raises(CodecError, match="UTF-8"):
        decode(b'{"warning_id":"\xff"}')


# -- pinned decoder failures -----------------------------------------------------------


def pin_blob():
    """A warning with two entries."""
    return encode(WarningMessage(
        warning_id="w1", event_id="e1", kind="D4", revision=2,
        issue_time=100, estimated_end=400,
        severity=SeverityMeasure(capacity_reduction=0.75, lanes_affected=1),
        affected=(AffectedEntry("n1", "s7", "major", ("bus", "car")),
                  AffectedEntry("n1", "s8", "minor", ("car",))),
    ))


# (case, bytes replaced in pin_blob() at their first place, replacement,
#  error text, character offset)
DECODE_FAILURES = [
    ('unknown-kind', b'"kind":"D4"', b'"kind":"ZZ"',
     "error at byte 42: unknown kind code 'ZZ'", 42),
    ('negative-revision', b'"revision":2', b'"revision":-1',
     'error at byte 58: revision must be >= 0', 58),
    ('fractional-revision', b'"revision":2', b'"revision":2.0000',
     'error at byte 58: revision must be an integer', 58),
    ('non-digit-revision', b'"revision":2', b'"revision":x',
     'error at byte 58: expected a number', 58),
    ('end-equals-issue', b'"estimated_end":400', b'"estimated_end":100',
     'error at byte 110: estimated_end must exceed issue_time', 110),
    ('end-before-issue', b'"estimated_end":400', b'"estimated_end":50',
     'error at byte 110: estimated_end must exceed issue_time', 110),
    ('fractional-issue-time', b'"issue_time":100', b'"issue_time":100.0000',
     'error at byte 90: issue_time must be an integer', 90),
    ('missing-key', b'"event_id":"e1",', b'',
     'error at byte 19: expected \'"event_id":\'', 19),
    ('reordered-keys', b'"event_id":"e1","kind":"D4"', b'"kind":"D4","event_id":"e1"',
     'error at byte 19: expected \'"event_id":\'', 19),
    ('missing-severity', b'"severity":{"capacity_reduction":0.7500,"lanes_affected":1},', b'',
     'error at byte 114: expected \'"severity":\'', 114),
    ('reordered-severity', b'{"capacity_reduction":0.7500,"lanes_affected":1}', b'{"lanes_affected":1,"capacity_reduction":0.7500}',
     "error at byte 144: expected '}'", 144),
    ('unknown-severity-measure', b'"lanes_affected":1', b'"lanes":1',
     "error at byte 153: expected '}'", 153),
    ('reordered-entry-keys', b'"network_id":"n1","segment_id":"s7"', b'"segment_id":"s7","network_id":"n1"',
     'error at byte 186: expected \'{"network_id":\'', 186),
    ('missing-entry-key', b',"class":"major"', b'',
     'error at byte 222: expected \',"class":\'', 222),
    ('short-fraction', b'0.7500', b'0.75',
     'error at byte 147: fractional values carry exactly 4 decimals', 147),
    ('long-fraction', b'0.7500', b'0.75000',
     'error at byte 147: fractional values carry exactly 4 decimals', 147),
    ('int-for-fraction', b'0.7500', b'1',
     'error at byte 147: capacity_reduction carries exactly 4 decimals', 147),
    ('fraction-for-int', b'"lanes_affected":1', b'"lanes_affected":1.0000',
     'error at byte 171: lanes_affected must be an integer', 171),
    ('severity-out-of-range', b'0.7500', b'1.5000',
     'error at byte 125: severity measure: capacity_reduction outside [0, 1]', 125),
    ('empty-severity', b'{"capacity_reduction":0.7500,"lanes_affected":1}', b'{}',
     'error at byte 125: severity must carry at least one measure', 125),
    ('empty-affected', b'[{"network_id":"n1","segment_id":"s7","class":"major","modes":["bus","car"]},{"network_id":"n1","segment_id":"s8","class":"minor","modes":["car"]}]', b'[]',
     'error at byte 185: affected list must not be empty', 185),
    ('unknown-class', b'"class":"minor"', b'"class":"huge"',
     "error at byte 307: unknown segment class 'huge'", 307),
    ('empty-modes', b'"modes":["car"]', b'"modes":[]',
     'error at byte 324: modes list must not be empty', 324),
    ('unsorted-modes', b'["bus","car"]', b'["car","bus"]',
     'error at byte 248: modes must be sorted', 248),
    # the two fixed literals: any other tier, or any case data, is rejected
    ('unknown-tier', b'"detail":"basic"', b'"detail":"mid"',
     'error at byte 69: expected \'"basic"\'', 69),
    ('full-tier', b'"detail":"basic"', b'"detail":"full"',
     'error at byte 69: expected \'"basic"\'', 69),
    ('basic-with-case-data', b'"case_specific":{}', b'"case_specific":{"lane":2,"partial_blockage":true}',
     "error at byte 349: expected '{}'", 349),
    ('unsorted-case-keys', b'"case_specific":{}', b'"case_specific":{"partial_blockage":true,"lane":2}',
     "error at byte 349: expected '{}'", 349),
    ('duplicate-case-keys', b'"case_specific":{}', b'"case_specific":{"lane":2,"lane":3}',
     "error at byte 349: expected '{}'", 349),
    ('case-fraction-width', b'"case_specific":{}', b'"case_specific":{"lane":2.5}',
     "error at byte 349: expected '{}'", 349),
    ('case-bad-literal', b'"case_specific":{}', b'"case_specific":{"partial_blockage":tru}',
     "error at byte 349: expected '{}'", 349),
    ('trailing-data', b'{}}', b'{}} ',
     'error at byte 352: trailing data after message', 352),
    ('bad-utf8', b'"w1"', b'"w\xff"',
     'error at byte 16: invalid UTF-8', 16),
    ('bad-escape', b'"e1"', b'"e\\q"',
     "error at byte 33: bad escape character 'q'", 33),
    ('raw-control-character', b'"e1"', b'"e\x01"',
     'error at byte 32: raw control character in string', 32),
    ('bad-unicode-escape', b'"e1"', b'"\\uzzzz"',
     'error at byte 32: bad unicode escape', 32),
    ('not-an-object', b'{"warning_id"', b'["warning_id"',
     "error at byte 0: expected '{'", 0),
]


@pytest.mark.parametrize("old,new,text,offset",
                         [case[1:] for case in DECODE_FAILURES],
                         ids=[case[0] for case in DECODE_FAILURES])
def test_decode_failure_text_and_offset(old, new, text, offset):
    blob = pin_blob()
    assert old in blob
    with pytest.raises(CodecError) as err:
        decode(blob.replace(old, new, 1))
    assert (str(err.value), err.value.position) == (text, offset)


# (length of the pin_blob() prefix, error text, character offset)
TRUNCATIONS = [
    (0, 'error at byte 0: unexpected end of input', 0),
    (1, 'error at byte 1: unexpected end of input', 1),
    (14, 'error at byte 14: unexpected end of input', 14),
    # cut where a value is due
    (58, 'error at byte 58: unexpected end of input', 58),
    (60, 'error at byte 60: unexpected end of input', 60),
    # cut inside a severity key: an end of input, not an absent measure
    (141, 'error at byte 126: unexpected end of input', 126),
    (150, 'error at byte 147: fractional values carry exactly 4 decimals', 147),
    (201, 'error at byte 201: unexpected end of input in string', 201),
    (351, 'error at byte 351: unexpected end of input', 351),
]


@pytest.mark.parametrize("cut,text,offset", TRUNCATIONS,
                         ids=[f"cut-{case[0]}" for case in TRUNCATIONS])
def test_decode_truncation_text_and_offset(cut, text, offset):
    with pytest.raises(CodecError) as err:
        decode(pin_blob()[:cut])
    assert (str(err.value), err.value.position) == (text, offset)


def _detail_cut(value: bytes) -> bytes:
    """pin_blob() cut after ``"detail":``, with ``value`` appended."""
    blob = pin_blob()
    return blob[:blob.index(b'"detail":') + len(b'"detail":')] + value


# An input that ends is cut only where what is left could still become the
# expected text; a remainder that already differs from it is that error.
@pytest.mark.parametrize("blob,text,offset", [
    (b'{"warning_id":"w1","x', 'error at byte 19: expected \'"event_id":\'', 19),
    (_detail_cut(b'"bx'), 'error at byte 69: expected \'"basic"\'', 69),
    (_detail_cut(b'"bas'), 'error at byte 69: unexpected end of input', 69),
    (b'{"warning_id":"w\\', 'error at byte 17: unexpected end of input in escape', 17),
    (b'{"warning_id":"\\u00',
     'error at byte 16: unexpected end of input in unicode escape', 16),
], ids=["short-wrong-key", "short-wrong-tier", "short-tier-prefix", "cut-after-backslash",
        "cut-in-unicode-escape"])
def test_decode_short_remainder_text_and_offset(blob, text, offset):
    with pytest.raises(CodecError) as err:
        decode(blob)
    assert (str(err.value), err.value.position) == (text, offset)


# -- pinned validate failures ----------------------------------------------------------


def pin_warning():
    """The warning pin_blob() encodes."""
    return decode(pin_blob())


def _entries(**second):
    first, other = pin_warning().affected
    return (first, replace(other, **second))


# (case, fields replaced in pin_warning(), error text)
VALIDATE_FAILURES = [
    ("unknown-kind", {"kind": "ZZ"}, "warning w1: unknown kind 'ZZ'"),
    ("negative-revision", {"revision": -1}, "warning w1: negative revision"),
    ("end-equals-issue", {"estimated_end": 100},
     "warning w1: estimated_end must exceed issue_time"),
    ("end-before-issue", {"estimated_end": 50},
     "warning w1: estimated_end must exceed issue_time"),
    ("empty-affected", {"affected": ()}, "warning w1: empty affected list"),
    ("unknown-class", {"affected": _entries(seg_class="huge")},
     "warning w1: unknown segment class 'huge'"),
    ("empty-modes", {"affected": _entries(modes=())},
     "warning w1: entry s8 has no modes"),
    ("unsorted-modes", {"affected": _entries(modes=("car", "bus"))},
     "warning w1: modes of s8 not sorted"),
    # the first broken rule in wire order is the one reported
    ("kind-before-revision", {"kind": "ZZ", "revision": -1},
     "warning w1: unknown kind 'ZZ'"),
    ("end-before-affected", {"estimated_end": 50, "affected": ()},
     "warning w1: estimated_end must exceed issue_time"),
    ("class-before-modes", {"affected": _entries(seg_class="huge", modes=())},
     "warning w1: unknown segment class 'huge'"),
]


@pytest.mark.parametrize("changes,text",
                         [case[1:] for case in VALIDATE_FAILURES],
                         ids=[case[0] for case in VALIDATE_FAILURES])
def test_validate_failure_text(changes, text):
    with pytest.raises(ValidationError) as err:
        replace(pin_warning(), **changes)
    assert str(err.value) == text


# -- construction -----------------------------------------------------------------


@pytest.fixture
def small():
    from conftest import line_network_spec
    from mitsim.network import build_network

    spec = line_network_spec(4)
    spec["segments"][0]["class"] = "critical"
    spec["modes"].append({"mode_id": "bus", "name": "bus", "category": "bus",
                          "agile": False, "maas_member": False})
    spec["usage_matrix"].append(["bus", "net"])
    for seg in spec["segments"]:
        seg["usage"].append({"mode_id": "bus", "direction": "both",
                             "base_capacity": 200, "free_flow_time": 150})
    net = build_network(spec)
    return net, default_effect_matrix(net)


def test_make_warning_d1(small):
    net, matrix = small
    event = DisturbanceEvent(
        event_id="acc", kind="D1", segments=("s0",), start=100,
        estimated_duration=1800, true_duration=1800,
        severity=SeverityMeasure(capacity_reduction=1.0),
    )
    basic, full = make_warning(event, net, matrix, issue_time=130)
    assert len(basic.affected) == 1
    entry = basic.affected[0]
    assert entry.seg_class == "critical"
    assert entry.modes == ("bus", "car")
    assert basic.estimated_end == 1900
    assert basic.revision == 0
    assert full is None  # no case-specific data


def test_make_warning_entry_per_segment(small):
    net, matrix = small
    event = DisturbanceEvent(
        event_id="wz", kind="D2", segments=("s0", "s1", "s2"), start=0,
        estimated_duration=600, true_duration=600,
        severity=SeverityMeasure(lanes_affected=1),
    )
    basic, _ = make_warning(event, net, matrix, issue_time=10)
    assert len(basic.affected) == 3


def test_make_warning_ev_demand_only(small):
    net, matrix = small
    event = DisturbanceEvent(
        event_id="match", kind="EV", segments=("s1",), start=0,
        estimated_duration=7200, true_duration=7200,
        severity=SeverityMeasure(displaced_volume=450.0),
        specifics={"expected_visitors": 30000},
    )
    basic, none = make_warning(event, net, matrix, issue_time=0)
    assert basic.severity.capacity_reduction is None
    assert basic.severity.displaced_volume == 450.0
    assert basic.affected[0].modes == ("bus", "car")  # every mode present
    assert none is None  # case data stays with the event
    assert b'"detail":"basic"' in encode(basic) and encode(basic).endswith(b'"case_specific":{}}')


def test_revise_increments_and_carries():
    blob = valid_blob()
    w = decode(blob)
    r1 = revise(w, 500)
    assert (r1.revision, r1.estimated_end) == (w.revision + 1, 500)
    assert r1.affected == w.affected and r1.severity == w.severity
    r2 = revise(r1, 600)
    assert (r2.revision, r2.estimated_end) == (w.revision + 2, 600)
    assert r2.affected == w.affected
