import json
import shutil
from pathlib import Path

import pytest

from mitsim import cli, scenario as scenario_module
from mitsim.cli import main

from conftest import DEMO_PATH, demo_scenario
from test_scenario import BOOL_FIELDS, NAN_CASES, NON_FINITE_CASES, place_rsu_a


@pytest.fixture(scope="module")
def demo_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scen") / "demo.json"
    shutil.copyfile(DEMO_PATH, path)
    return str(path)


def test_validate_ok(demo_path, capsys):
    assert main(["validate", demo_path]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_bad_scenario(tmp_path, capsys):
    raw = demo_scenario()
    raw["disturbances"][0]["segments"] = ["missing-segment"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert "missing-segment" in capsys.readouterr().err


def test_validate_rejects_an_offset_beyond_the_segment(tmp_path, capsys):
    raw = demo_scenario()
    place_rsu_a(raw, 50000)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(
        "validation error: device rsu_a: position offset 50000.0 is beyond segment R1")


def test_validate_reports_a_missing_key(tmp_path, capsys):
    raw = demo_scenario()
    del raw["disturbances"][0]["start"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == "validation error: event bridge-crash: missing field 'start'\n"


def test_validate_rejects_a_strategy_row_of_an_unknown_kind(tmp_path, capsys):
    raw = demo_scenario()
    raw["policies"]["strategy_table"] = {"d1": ["no_such_template"], "D99": ["reroute"]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == "validation error: strategy table: unknown kind 'd1'\n"


def test_run_rejects_a_route_that_does_not_chain_before_running(tmp_path, capsys):
    raw = demo_scenario()
    bus1 = next(r for r in raw["policies"]["pt_routes"] if r["route_id"] == "Bus1")
    bus1["stops"].reverse()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "validation error: pt route Bus1: segments not contiguous\n")


def test_validate_rejects_a_non_string_event_id(tmp_path, capsys):
    raw = demo_scenario()
    raw["disturbances"][0]["event_id"] = 7
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "Traceback" not in err
    assert err == "validation error: disturbance 0: event_id must be a string\n"


@pytest.mark.parametrize("value", ["abc", float("nan"), -1])
def test_validate_rejects_bad_signal_multiplier(tmp_path, capsys, value):
    raw = demo_scenario()
    raw["policies"]["defaults"] = {"signal_multiplier": value}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert "validation error: policies.defaults: signal_multiplier" in capsys.readouterr().err


def test_validate_unparseable_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 1


def test_a_missing_scenario_file_exits_1(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_an_exception_during_the_run_exits_2(demo_path, tmp_path, capsys, monkeypatch):
    def fail(*_args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run", fail)
    assert main(["run", demo_path, "--out", str(tmp_path / "out")]) == 2
    assert "runtime error: boom" in capsys.readouterr().err


def test_run_writes_outputs(demo_path, tmp_path):
    out = tmp_path / "out"
    assert main(["run", demo_path, "--out", str(out)]) == 0
    for name in ("metrics.json", "events.log", "warnings.log", "actions.log"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["trips_completed"] == metrics["trips_total"]
    assert metrics["messages_sent_total"] < metrics["broadcast_baseline_total"]


def test_run_mode_flags(demo_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", demo_path, "--out", str(out_a), "--no-adapt"]) == 0
    assert main(["run", demo_path, "--out", str(out_b), "--broadcast"]) == 0
    a = json.loads((out_a / "metrics.json").read_text())
    b = json.loads((out_b / "metrics.json").read_text())
    assert a["warnings_issued"] == 0
    assert b["messages_sent_total"] == b["broadcast_baseline_total"] > 0
    assert main(["run", demo_path, "--out", str(tmp_path / "x"),
                 "--no-adapt", "--broadcast"]) == 1


def test_run_deterministic_outputs(demo_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", demo_path, "--out", str(out1)]) == 0
    assert main(["run", demo_path, "--out", str(out2)]) == 0
    for name in ("metrics.json", "events.log", "warnings.log", "actions.log"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_seed_override_changes_logs(demo_path, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", demo_path, "--out", str(out1)]) == 0
    assert main(["run", demo_path, "--out", str(out2), "--seed", "7"]) == 0
    assert (out1 / "events.log").read_bytes() != (out2 / "events.log").read_bytes()


def test_run_seed_override_parses_once_and_equals_a_reseeded_file(demo_path, tmp_path,
                                                                  monkeypatch):
    raw = json.loads(Path(demo_path).read_text(encoding="utf-8"))
    assert raw["seed"] != 7
    raw["seed"] = 7
    seeded = tmp_path / "seed7.json"
    seeded.write_text(json.dumps(raw))
    loads = []
    original = scenario_module.load_scenario
    monkeypatch.setattr(scenario_module, "load_scenario",
                        lambda doc: loads.append(doc) or original(doc))
    overridden, from_file = tmp_path / "override", tmp_path / "file"
    assert main(["run", demo_path, "--out", str(overridden), "--seed", "7"]) == 0
    assert len(loads) == 1
    assert main(["run", str(seeded), "--out", str(from_file)]) == 0
    for name in ("metrics.json", "events.log", "warnings.log", "actions.log"):
        assert (overridden / name).read_bytes() == (from_file / name).read_bytes()


def test_compare_writes_report(demo_path, tmp_path):
    out = tmp_path / "cmp"
    assert main(["compare", demo_path, "--out", str(out)]) == 0
    report = json.loads((out / "compare.json").read_text())
    assert report["targeted"]["messages_sent_total"] < report["targeted"][
        "broadcast_baseline_total"]
    assert report["relevance_recall"] == 1.0
    for mode in ("no_adapt", "broadcast", "targeted"):
        assert (out / mode / "metrics.json").exists()


@pytest.mark.parametrize("edit", [
    lambda raw: raw.update(end_time="abc"),
    lambda raw: raw["network"]["segments"][0].update(length="abc"),
    lambda raw: raw["demand"]["trips"].append({"origin": "a1", "dest": "b1", "depart": "abc"}),
    lambda raw: raw.update(end_time=10 ** 400),
    lambda raw: raw["policies"].update(max_hops="x"),
    lambda raw: raw["disturbances"][0].update(severity={"lanes_affected": "two"}),
    lambda raw: raw["disturbances"][0].update(kind="D3", specifics={"details_at": "abc"}),
    lambda raw: raw["disturbances"][0].update(
        kind="D3", specifics={"details_at": 700, "registered_duration": "abc"}),
], ids=["end_time", "segment-length", "trip-depart", "huge-int", "max-hops",
        "lanes-affected", "details-at", "registered-duration"])
def test_validate_rejects_a_non_number(tmp_path, capsys, edit):
    raw = demo_scenario()
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "Traceback" not in err


@pytest.mark.parametrize("case", sorted(NAN_CASES))
def test_validate_rejects_nan_and_a_bool_seed(tmp_path, capsys, case):
    edit, text = NAN_CASES[case]
    raw = demo_scenario()
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))  # NaN is written as the token NaN, which json reads back
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("validation error: " + text)


@pytest.mark.parametrize("field", sorted(BOOL_FIELDS))
def test_validate_rejects_a_flag_that_is_a_string(tmp_path, capsys, field):
    edit, entry = BOOL_FIELDS[field]
    raw = demo_scenario()
    edit(raw, "false")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err == f"validation error: {entry} must be true or false\n"


@pytest.mark.parametrize("case", sorted(NON_FINITE_CASES))
def test_validate_rejects_a_time_run_could_not_reach(tmp_path, capsys, case):
    """These once passed validate and then failed run with exit 2."""
    edit, text = NON_FINITE_CASES[case]
    raw = demo_scenario()
    edit(raw)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))  # infinity is written as the token Infinity
    assert main(["validate", str(bad)]) == 1
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"validation error: {text}\n" * 2
