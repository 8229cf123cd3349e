"""Golden outputs: the bytes ``mitsim run`` and ``mitsim compare`` write must
not change.

Each ``run`` case runs the CLI on one scenario in one mode, and each
``compare`` case runs ``mitsim compare`` on one scenario; both compare the
SHA-256 of every output file with the recorded value.  Any byte difference
fails.
The hashes may only be regenerated by a change whose stated purpose is a
behaviour change, and CHANGES.md must say so.  To print the current hashes:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from mitsim.cli import main

from generators import (
    idle_obu_grid_scenario_dict,
    rail_line_scenario_dict,
    random_scenario_dict,
)

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"
OUTPUTS = ("metrics.json", "events.log", "warnings.log", "actions.log")
MODES = {"targeted": [], "broadcast": ["--broadcast"], "no_adapt": ["--no-adapt"]}

# Scenario name -> the scenario as JSON text.  ``random-284`` is a
# two-mode multimodal network with two events; ``rail-1`` has repeated-OD
# arrival streams and a rail-replacement (usage) contribution; ``idle-1``
# has routeless OBUs whose trajectories are predicted from a destination,
# travelers inside a segment when warnings go out, and missed devices.
SCENARIOS = {
    "demo": lambda: DEMO.read_text(encoding="utf-8"),
    "idle-1": lambda: json.dumps(idle_obu_grid_scenario_dict(random.Random(1))),
    "random-284": lambda: json.dumps(random_scenario_dict(random.Random(284))),
    "rail-1": lambda: json.dumps(rail_line_scenario_dict(random.Random(1))),
}

GOLDEN = {
    "demo/broadcast": {
        "metrics.json": "e3c2f51c5b4efac321f1659398f5c4cb032ba1925f5a905418711204da29579a",
        "events.log": "901abf8812cff15e49de9731d55987336f70f6e487f593b9e383e6b3bbf25bda",
        "warnings.log": "5140ae44ac89fbeb9edd24e6ef9d0d68c1ab191d5e4c5b1a88b80575e90c26f8",
        "actions.log": "4d03dc979706d83e8ca1e09deadbb8df7574819f33a7af3385b97194541fe4f2"
    },
    "demo/no_adapt": {
        "metrics.json": "065ec8e47414b9409292a1ad4131f0ae13091e789ed1fff67fb622a4b4fd1137",
        "events.log": "de71930d6c0206c32c846e1e459318701becd3505a79b674c3b05fb5a84ee182",
        "warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "demo/targeted": {
        "metrics.json": "ca11402cdc0056eb1aa12ad11869cdaf7a6eee3f188e2c1f44944c4da3bc44f4",
        "events.log": "72c76475aab6008a8dded5f74b74eecb6a7a2ec7cf262300fdef9550651c7b7c",
        "warnings.log": "5140ae44ac89fbeb9edd24e6ef9d0d68c1ab191d5e4c5b1a88b80575e90c26f8",
        "actions.log": "4d03dc979706d83e8ca1e09deadbb8df7574819f33a7af3385b97194541fe4f2"
    },
    "idle-1/broadcast": {
        "metrics.json": "98ee1fb607fda8058aa9b3ad00ad8ec57aff8b4ee33d7f9fdb1c1e3b2ea67f9e",
        "events.log": "c9bb343c85957aa066d6ef0653e9a26cf9c3d8ca60b39141e07e2d52ab87049d",
        "warnings.log": "cbf7a60e35f33c3d8549c4d556c3847e150371c5a4cec45109cd4b77211eb7f3",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "idle-1/no_adapt": {
        "metrics.json": "d7ca6a5d1743ce849f7c1f6542dc9269c98c03b5b7cbe75ea72edcdae72b38be",
        "events.log": "23d5d9af00449f002c2cb9be6316a489d5086ac7a33a7dff57100e68c75569bc",
        "warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "idle-1/targeted": {
        "metrics.json": "8b8e07eb874e949ef2c7cc62f749d525dab9d0dd8d1524b553d129eaf6182734",
        "events.log": "764bc8cd7ce5b3bbe8e57fa7401c43a42f87df32901486cdf70f5640e5e26787",
        "warnings.log": "cbf7a60e35f33c3d8549c4d556c3847e150371c5a4cec45109cd4b77211eb7f3",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "rail-1/broadcast": {
        "metrics.json": "997fb313f586f0c38ee387d89543c263dc0fa6e1d7e4a9f956426021ff90eb8a",
        "events.log": "97c854a8e29120765cece0316944621f8e3596c0b586530124e3e96140af35e6",
        "warnings.log": "269d35d1c62c203c2f60d80aa990cdb2da4bf2458803209e51f4326e5a578578",
        "actions.log": "fba0c3635cb69438cecde29505330b0478acb6182c23bbc57696106d88cc2c95"
    },
    "rail-1/no_adapt": {
        "metrics.json": "3e48e4d62a44da234630cf3f8a2c3acdb5ea366c2e0c7144ea0d21cd34f67690",
        "events.log": "4a38bf1c4c3f6b99232c347082a610e03580571468d6eb483bed3bb3468c0d0c",
        "warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "rail-1/targeted": {
        "metrics.json": "93748dc207d2c12c3ef7bf84765ff4cdbd5cad83644110a492cb025ac68c5330",
        "events.log": "5632c19a07ec57e2c05eee0e24c30c7ff1d3310fc7de874803457c965e8d61b7",
        "warnings.log": "269d35d1c62c203c2f60d80aa990cdb2da4bf2458803209e51f4326e5a578578",
        "actions.log": "fba0c3635cb69438cecde29505330b0478acb6182c23bbc57696106d88cc2c95"
    },
    "random-284/broadcast": {
        "metrics.json": "8823c521883ce1dc5433508a011651f28faebe90d829aa2ae20fbef3d4556a48",
        "events.log": "78540db0f9eec31a30c0e35f46db989e1f8e722c4e065592a713ca52dcd398ce",
        "warnings.log": "c1f32abf0af883ec92969739d0a6ecd0ca7fbaf239400abc499811d7087a4e90",
        "actions.log": "1672eb033c9b62ea3e5c061ffbcee72f3f001892e61a209d439dbdf42243faac"
    },
    "random-284/no_adapt": {
        "metrics.json": "4c118ac195ba1bf8565ec73780b9fca72f0fa395903e5a27de8a80305571740e",
        "events.log": "918e8f6dab05e057311486506f8247b7d2cb75196d6c96621d0e732066f84b10",
        "warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "random-284/targeted": {
        "metrics.json": "47a71888c607ecc770419f5f616136e8e6cd8fe7ed6e2c7c0e841a3edad3294b",
        "events.log": "6e3d8276043178b2291beceded29de250e115a5ceb2959bdabe85cc4d90a69b3",
        "warnings.log": "c1f32abf0af883ec92969739d0a6ecd0ca7fbaf239400abc499811d7087a4e90",
        "actions.log": "1672eb033c9b62ea3e5c061ffbcee72f3f001892e61a209d439dbdf42243faac"
    }
}


# ``compare.json`` and the four files of each of its runs, by relative path.
COMPARE_OUTPUTS = ("compare.json",) + tuple(
    f"{mode}/{name}" for mode in sorted(MODES) for name in OUTPUTS)

COMPARE_GOLDEN = {
    "demo": {
        "compare.json": "15e52c079d5e36ff372cca4f728d1a0ed7fc67bfe215791e8878cc8563766ef7",
        "broadcast/metrics.json": "e3c2f51c5b4efac321f1659398f5c4cb032ba1925f5a905418711204da29579a",
        "broadcast/events.log": "901abf8812cff15e49de9731d55987336f70f6e487f593b9e383e6b3bbf25bda",
        "broadcast/warnings.log": "5140ae44ac89fbeb9edd24e6ef9d0d68c1ab191d5e4c5b1a88b80575e90c26f8",
        "broadcast/actions.log": "4d03dc979706d83e8ca1e09deadbb8df7574819f33a7af3385b97194541fe4f2",
        "no_adapt/metrics.json": "065ec8e47414b9409292a1ad4131f0ae13091e789ed1fff67fb622a4b4fd1137",
        "no_adapt/events.log": "de71930d6c0206c32c846e1e459318701becd3505a79b674c3b05fb5a84ee182",
        "no_adapt/warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "no_adapt/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "targeted/metrics.json": "09c20073698804e7936e45cbd3ef211e7157bdd9e56897d4e0ac3df40287df6d",
        "targeted/events.log": "72c76475aab6008a8dded5f74b74eecb6a7a2ec7cf262300fdef9550651c7b7c",
        "targeted/warnings.log": "5140ae44ac89fbeb9edd24e6ef9d0d68c1ab191d5e4c5b1a88b80575e90c26f8",
        "targeted/actions.log": "4d03dc979706d83e8ca1e09deadbb8df7574819f33a7af3385b97194541fe4f2"
    },
    "idle-1": {
        "compare.json": "d68dedbf6342cbce4c68acd37dc50bf1040aecdf8dfcf9bb3aead90e2f2c9fdf",
        "broadcast/metrics.json": "98ee1fb607fda8058aa9b3ad00ad8ec57aff8b4ee33d7f9fdb1c1e3b2ea67f9e",
        "broadcast/events.log": "c9bb343c85957aa066d6ef0653e9a26cf9c3d8ca60b39141e07e2d52ab87049d",
        "broadcast/warnings.log": "cbf7a60e35f33c3d8549c4d556c3847e150371c5a4cec45109cd4b77211eb7f3",
        "broadcast/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "no_adapt/metrics.json": "d7ca6a5d1743ce849f7c1f6542dc9269c98c03b5b7cbe75ea72edcdae72b38be",
        "no_adapt/events.log": "23d5d9af00449f002c2cb9be6316a489d5086ac7a33a7dff57100e68c75569bc",
        "no_adapt/warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "no_adapt/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "targeted/metrics.json": "5402bbd6649f9202034a480eea7467205c96e87d62e236277623c90722992b4e",
        "targeted/events.log": "764bc8cd7ce5b3bbe8e57fa7401c43a42f87df32901486cdf70f5640e5e26787",
        "targeted/warnings.log": "cbf7a60e35f33c3d8549c4d556c3847e150371c5a4cec45109cd4b77211eb7f3",
        "targeted/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    },
    "rail-1": {
        "compare.json": "0dd78473a379c58d92a08c27b63be61e2c2446672eaec5fc8db7185ff698daa7",
        "broadcast/metrics.json": "997fb313f586f0c38ee387d89543c263dc0fa6e1d7e4a9f956426021ff90eb8a",
        "broadcast/events.log": "97c854a8e29120765cece0316944621f8e3596c0b586530124e3e96140af35e6",
        "broadcast/warnings.log": "269d35d1c62c203c2f60d80aa990cdb2da4bf2458803209e51f4326e5a578578",
        "broadcast/actions.log": "fba0c3635cb69438cecde29505330b0478acb6182c23bbc57696106d88cc2c95",
        "no_adapt/metrics.json": "3e48e4d62a44da234630cf3f8a2c3acdb5ea366c2e0c7144ea0d21cd34f67690",
        "no_adapt/events.log": "4a38bf1c4c3f6b99232c347082a610e03580571468d6eb483bed3bb3468c0d0c",
        "no_adapt/warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "no_adapt/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "targeted/metrics.json": "93748dc207d2c12c3ef7bf84765ff4cdbd5cad83644110a492cb025ac68c5330",
        "targeted/events.log": "5632c19a07ec57e2c05eee0e24c30c7ff1d3310fc7de874803457c965e8d61b7",
        "targeted/warnings.log": "269d35d1c62c203c2f60d80aa990cdb2da4bf2458803209e51f4326e5a578578",
        "targeted/actions.log": "fba0c3635cb69438cecde29505330b0478acb6182c23bbc57696106d88cc2c95"
    },
    "random-284": {
        "compare.json": "4b5b012d150478a65203827b6f1386820ced5ea66e55762ebb11de029c32b771",
        "broadcast/metrics.json": "8823c521883ce1dc5433508a011651f28faebe90d829aa2ae20fbef3d4556a48",
        "broadcast/events.log": "78540db0f9eec31a30c0e35f46db989e1f8e722c4e065592a713ca52dcd398ce",
        "broadcast/warnings.log": "c1f32abf0af883ec92969739d0a6ecd0ca7fbaf239400abc499811d7087a4e90",
        "broadcast/actions.log": "1672eb033c9b62ea3e5c061ffbcee72f3f001892e61a209d439dbdf42243faac",
        "no_adapt/metrics.json": "4c118ac195ba1bf8565ec73780b9fca72f0fa395903e5a27de8a80305571740e",
        "no_adapt/events.log": "918e8f6dab05e057311486506f8247b7d2cb75196d6c96621d0e732066f84b10",
        "no_adapt/warnings.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "no_adapt/actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "targeted/metrics.json": "9afa62c2e35dfda0f634e3b17f1b670981a0e42aa460eaa0416925bb90ca6c28",
        "targeted/events.log": "6e3d8276043178b2291beceded29de250e115a5ceb2959bdabe85cc4d90a69b3",
        "targeted/warnings.log": "c1f32abf0af883ec92969739d0a6ecd0ca7fbaf239400abc499811d7087a4e90",
        "targeted/actions.log": "1672eb033c9b62ea3e5c061ffbcee72f3f001892e61a209d439dbdf42243faac"
    }
}


def _hashes(out: Path, names) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _scenario_file(scenario: str, work: Path) -> Path:
    path = work / f"{scenario}.json"
    path.write_text(SCENARIOS[scenario](), encoding="utf-8")
    return path


def output_hashes(scenario: str, mode: str, work: Path) -> dict[str, str]:
    out = work / f"{scenario}-{mode}"
    assert main(["run", str(_scenario_file(scenario, work)), "--out", str(out),
                 *MODES[mode]]) == 0
    return _hashes(out, OUTPUTS)


def compare_hashes(scenario: str, work: Path) -> dict[str, str]:
    out = work / f"{scenario}-compare"
    assert main(["compare", str(_scenario_file(scenario, work)), "--out", str(out)]) == 0
    return _hashes(out, COMPARE_OUTPUTS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_outputs_match_golden(scenario, mode, tmp_path, capsys):
    got = output_hashes(scenario, mode, tmp_path)
    capsys.readouterr()
    assert got == GOLDEN[f"{scenario}/{mode}"]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_compare_outputs_match_golden(scenario, tmp_path, capsys):
    got = compare_hashes(scenario, tmp_path)
    capsys.readouterr()
    assert got == COMPARE_GOLDEN[scenario]


if __name__ == "__main__":
    current, compared = {}, {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for scenario in sorted(SCENARIOS):
            for mode in sorted(MODES):
                current[f"{scenario}/{mode}"] = output_hashes(scenario, mode, Path(tmp))
            compared[scenario] = compare_hashes(scenario, Path(tmp))
    print("GOLDEN =", json.dumps(current, indent=4))
    print("COMPARE_GOLDEN =", json.dumps(compared, indent=4))
