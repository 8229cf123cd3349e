import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from mitsim.network import build_network
from mitsim.scenario import load_scenario

DEMO_PATH = Path(__file__).resolve().parent.parent / "scenarios" / "demo.json"


def demo_scenario() -> dict:
    """The bundled demo scenario, parsed afresh on every call so that a
    test may edit it."""
    return json.loads(DEMO_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def demo():
    return load_scenario(demo_scenario())


@pytest.fixture(scope="session")
def demo_net(demo):
    return demo.net


def line_network_spec(n=3, mode="car", category="private-car", fft=100.0,
                      length=1000.0, direction="both"):
    """n-node single-mode line graph: v0 - v1 - ... - v(n-1)."""
    nodes = [f"v{i}" for i in range(n)]
    return {
        "modes": [{"mode_id": mode, "name": mode, "category": category,
                   "agile": category in ("walk", "cycle"), "maas_member": False}],
        "networks": [{"network_id": "net", "name": "net"}],
        "usage_matrix": [[mode, "net"]],
        "nodes": nodes,
        "segments": [
            {"segment_id": f"s{i}", "network_id": "net",
             "from_node": nodes[i], "to_node": nodes[i + 1],
             "length": length, "class": "minor",
             "usage": [{"mode_id": mode, "direction": direction,
                        "base_capacity": 1000, "free_flow_time": fft}]}
            for i in range(n - 1)
        ],
        "multimodal_nodes": [],
    }


@pytest.fixture
def line3():
    return build_network(line_network_spec(3))
