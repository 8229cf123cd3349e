"""Command line interface: validate, run and compare scenarios.

Exit codes: 0 success, 1 scenario validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ValidationError
from .scenario import load_scenario_file
from .simulation import (
    MODE_BROADCAST,
    MODE_NO_ADAPT,
    MODE_TARGETED,
    RunResult,
    compare,
    run,
)


def _load(path: str, seed_override):
    scenario = load_scenario_file(path)
    if seed_override is not None:
        scenario = scenario.with_seed(seed_override)
    return scenario


def _write_result(result: RunResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.json").write_text(result.metrics_json() + "\n", encoding="utf-8")
    (out_dir / "events.log").write_text(
        "".join(line + "\n" for line in result.event_log), encoding="utf-8")
    (out_dir / "warnings.log").write_text(
        "".join(line + "\n" for line in result.warning_log), encoding="utf-8")
    (out_dir / "actions.log").write_text(
        "".join(line + "\n" for line in result.action_log), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mitsim",
        description="Deterministic multimodal transport disturbance simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("scenario")

    p_run = sub.add_parser("run", help="simulate a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--no-adapt", action="store_true",
                       help="disable detection and adaptation")
    p_run.add_argument("--broadcast", action="store_true",
                       help="flood warnings to every device")

    p_cmp = sub.add_parser("compare", help="run without response, broadcast and targeted")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        scenario = _load(args.scenario, getattr(args, "seed", None))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"{args.scenario}: ok")
        return 0

    try:
        if args.command == "run":
            if args.no_adapt and args.broadcast:
                print("choose at most one of --no-adapt / --broadcast", file=sys.stderr)
                return 1
            config = MODE_TARGETED
            if args.no_adapt:
                config = MODE_NO_ADAPT
            elif args.broadcast:
                config = MODE_BROADCAST
            result = run(scenario, config)
            _write_result(result, Path(args.out))
            print(f"run ({config.label}): {result.metrics.trips_completed} trips "
                  f"completed, total delay {result.metrics.total_delay_s:.1f} s, "
                  f"{result.metrics.messages_sent_total} messages")
            return 0
        report = compare(scenario)
        out_dir = Path(args.out)
        for name, result in (("no_adapt", report.no_adapt),
                             ("broadcast", report.broadcast),
                             ("targeted", report.targeted)):
            _write_result(result, out_dir / name)
        out_dir.mkdir(parents=True, exist_ok=True)
        d = report.to_dict()
        (out_dir / "compare.json").write_text(
            json.dumps(d, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print("delay (s): no_adapt {no} | broadcast {b} | targeted {t}".format(
            no=d["no_adapt"]["total_delay_s"],
            b=d["broadcast"]["total_delay_s"],
            t=d["targeted"]["total_delay_s"]))
        print("messages: broadcast {b} | targeted {t} (baseline {base})".format(
            b=d["broadcast"]["messages_sent_total"],
            t=d["targeted"]["messages_sent_total"],
            base=d["targeted"]["broadcast_baseline_total"]))
        return 0
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
