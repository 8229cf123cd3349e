import json
import shutil
from pathlib import Path

import pytest

from mitsim import scenario as scenario_module
from mitsim.cli import main

from conftest import DEMO_PATH, demo_scenario
from test_scenario import NAN_CASES


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
