#!/usr/bin/env python3
"""Sweep the area-warning radii on the demo and chart the trade-off.

Shrinking the radii cuts messages; past some point recall drops because
devices outside both the trajectory filter and the area no longer hear
about the disturbance.
"""

import json
from pathlib import Path

from mitsim.scenario import load_scenario
from mitsim.simulation import compare

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"
SCALES = [0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
BASE = {"critical": 5000, "major": 2000, "inferior": 800, "minor": 300}


def main():
    print(f"{'scale':>6} {'messages':>9} {'delay (s)':>10} "
          f"{'precision':>10} {'recall':>7}")
    for scale in SCALES:
        raw = json.loads(DEMO.read_text(encoding="utf-8"))
        raw["policies"]["relevance"]["area_radius"] = {
            k: v * scale for k, v in BASE.items()}
        report = compare(load_scenario(raw))
        d = report.to_dict()
        print(f"{scale:>6} {d['targeted']['messages_sent_total']:>9} "
              f"{d['targeted']['total_delay_s']:>10.1f} "
              f"{str(d['relevance_precision']):>10} "
              f"{str(d['relevance_recall']):>7}")


if __name__ == "__main__":
    main()
