"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines and timings.
"""

import json
import random
import re
import time
from contextlib import contextmanager

import pytest

from mitsim.adaptation import (
    DEFAULT_STRATEGY_TABLE,
    PoliceNotification,
    ReplacementService,
    SignalPlanChange,
    plan,
)
from mitsim.disturbance import DisturbanceEvent, SeverityMeasure, escalate
from mitsim.errors import CodecError
from mitsim.messages import decode, encode
from mitsim.network import build_network
from mitsim.routing import RoutingPreferences, route
from mitsim.scenario import load_scenario
from mitsim.simulation import (
    MODE_TARGETED,
    _Sim,
    compare,
    run,
)

from conftest import demo_scenario
from generators import (
    random_devices,
    random_network,
    random_scenario_dict,
    random_state,
    random_topology,
    random_warning,
)
from oracles import (
    brute_force_residual_map,
    brute_force_route,
    oracle_key,
    oracle_notified,
    plan_key,
)
from test_adaptation import city_net, inject, make_event, make_world, plan_for
from mitsim.dissemination import RelevancePolicy, distribute


@contextmanager
def criterion(number, name, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    dt = time.monotonic() - t0
    if budget is not None:
        assert dt < budget, f"criterion {number} exceeded {budget}s ({dt:.1f}s)"
    print(f"[acceptance] criterion {number} ({name}): PASS ({dt:.2f}s)")


# -- 1: warning codec ----------------------------------------------------------------


def _mutate(blob: bytes, mode: int) -> bytes:
    if mode == 0:
        return blob[: len(blob) // 3]
    if mode == 1:
        return blob[:-1]
    if mode == 2:
        return re.sub(rb'"kind":"[A-Z0-9]+"', b'"kind":"ZZ"', blob, count=1)
    if mode == 3:
        return re.sub(rb'"estimated_end":\d+', b'"estimated_end":0', blob, count=1)
    if mode == 4:
        return re.sub(rb'"event_id":"[^"]*",', b"", blob, count=1)
    if mode == 5:
        return blob.replace(b'"revision":', b'"revision";', 1)
    if mode == 6:
        return re.sub(rb"(\d)\.(\d)\d{3}", rb"\1.\2", blob, count=1)
    if mode == 7:
        return blob.replace(b'"case_specific":{}', b'"case_specific":{"z":1}', 1)
    if mode == 8:
        return blob + b"!"
    return re.sub(rb'"revision":\d+', b'"revision":-1', blob, count=1)


def test_criterion_1_warning_codec():
    with criterion(1, "warning codec round-trip and rejection", budget=5.0):
        rng = random.Random(4242)
        blobs = []
        net = random_network(rng, max_nodes=6)
        for i in range(1000):
            if i % 50 == 0:
                net = random_network(rng, max_nodes=6)
            w = random_warning(rng, net)
            blob = encode(w)
            again = decode(blob)
            assert again == w
            assert encode(again) == blob
            blobs.append(blob)
        rejected = 0
        for i in range(100):
            blob = blobs[rng.randrange(len(blobs))]
            mode = i % 10
            mutated = _mutate(blob, mode)
            assert mutated != blob, f"mutation {mode} was a no-op"
            with pytest.raises(CodecError) as err:
                decode(mutated)
            assert isinstance(err.value.position, int)
            assert 0 <= err.value.position <= len(mutated)
            rejected += 1
        assert rejected == 100


# -- 2: relevance oracle equivalence ---------------------------------------------------


def test_criterion_2_relevance_oracle_equivalence():
    with criterion(2, "dissemination equals brute-force relevance", budget=30.0):
        policy = RelevancePolicy()
        checked = 0
        seed = 0
        while checked < 200:
            seed += 1
            rng = random.Random(9_000_000 + seed)
            net = random_network(rng, max_nodes=8, max_modes=3,
                                 max_extra_segments=8)
            if len(net.segments) > 20:
                continue
            devices = random_devices(rng, net, max_devices=10)
            topology = random_topology(rng, devices)
            w = random_warning(rng, net)
            record = distribute(w, devices, topology, policy, net, [],
                                w.issue_time)
            expected, missed = oracle_notified(w, devices, topology, policy,
                                               net, [], w.issue_time)
            assert set(record.notified) == expected
            assert set(record.missed) == missed
            checked += 1


# -- 3: router optimality ----------------------------------------------------------------


def test_criterion_3_router_optimality():
    with criterion(3, "router equals exhaustive path enumeration", budget=60.0):
        for seed in range(100):
            rng = random.Random(5_500_000 + seed)
            net = random_network(rng, max_nodes=12, max_modes=3)
            state = random_state(rng, net)
            origin, dest = rng.sample(sorted(net.nodes), 2)
            prefs = RoutingPreferences(
                allowed_modes=frozenset(net.modes),
                transfer_penalty=rng.choice([0.0, 30.0, 120.0]),
            )
            plan_out = route(origin, dest, 0.0, prefs, state)
            oracle = brute_force_route(origin, dest, prefs, state)
            if plan_out is None:
                assert oracle is None
            else:
                assert oracle is not None
                assert plan_key(plan_out) == oracle_key(oracle)


# -- 4: strategy conformance ----------------------------------------------------------------


def test_criterion_4_strategy_conformance():
    with criterion(4, "plans follow the strategy table", budget=None):
        net = city_net()
        kind_events = {
            "D1": (["g1"], ()), "D2": (["g1"], ()), "D3": (["g1"], ()),
            "D4": (["g1"], ()), "D5": (["g1"], ()), "D6": (["k0"], ()),
            "D7": (["k0"], ()), "D8": (["g0", "g1"], ("q1",)),
            "D9": (["g1"], ()), "EV": (["g1"], ("q1",)),
        }
        for kind, (segments, nodes) in kind_events.items():
            world = make_world(net)
            event = make_event(net, kind, segments, nodes)
            inject(world, event, net)
            world.overlay.clock = 100.0
            actions, _ = plan_for(net, world, event)
            assert {a.action_type for a in actions} <= set(
                DEFAULT_STRATEGY_TABLE[kind]), kind

        # D8: police regulation plus nearby signal optimization
        world = make_world(net)
        event = make_event(net, "D8", ["g0", "g1"], ("q1",), reduction=0.5)
        inject(world, event, net)
        world.overlay.clock = 100.0
        actions, _ = plan_for(net, world, event)
        assert any(isinstance(a, PoliceNotification) for a in actions)
        assert any(isinstance(a, SignalPlanChange) for a in actions)

        # D7 on a train line with a parallel road: replacement service
        tnet = build_network(_train_city_spec())
        world = make_world(tnet)
        event = make_event(tnet, "D7", ["k0"], displaced=450.0)
        inject(world, event, tnet)
        world.overlay.clock = 100.0
        actions, _ = plan_for(tnet, world, event)
        service = [a for a in actions if isinstance(a, ReplacementService)]
        assert service and service[0].vehicle_count == 8

        # escalations fire under their triggers
        d3 = DisturbanceEvent(
            event_id="z3", kind="D3", segments=("g1",), start=0.0,
            estimated_duration=3600.0, true_duration=7200.0,
            severity=SeverityMeasure(capacity_reduction=1.0),
            specifics={"registered_duration": 7200.0},
        )
        assert escalate(d3, now=100.0, details_known=True,
                        extension_threshold=6 * 3600.0).kind == "D2"
        assert escalate(d3, now=100.0, details_known=False,
                        extension_threshold=6 * 3600.0).kind == "D3"
        d4 = DisturbanceEvent(
            event_id="z4", kind="D4", segments=("g1",), start=0.0,
            estimated_duration=10 * 3600.0, true_duration=10 * 3600.0,
            severity=SeverityMeasure(capacity_reduction=1.0),
        )
        assert escalate(d4, now=6 * 3600.0 + 1, details_known=False,
                        extension_threshold=6 * 3600.0).kind == "D2"
        assert escalate(d4, now=6 * 3600.0, details_known=False,
                        extension_threshold=6 * 3600.0).kind == "D4"


def _train_city_spec():
    # the adaptation test city with its rail mode declared as a train line
    net = city_net()
    spec = {
        "modes": [
            {"mode_id": m.mode_id,
             "category": "train" if m.category == "metro" else m.category,
             "maas_member": m.maas_member}
            for m in net.modes.values()
        ],
        "networks": [{"network_id": n} for n in sorted({n for _, n in net.usage_matrix})],
        "usage_matrix": [list(p) for p in sorted(net.usage_matrix)],
        "nodes": sorted(net.nodes),
        "segments": [
            {"segment_id": s.segment_id, "network_id": s.network_id,
             "from_node": s.from_node, "to_node": s.to_node,
             "length": s.length, "class": s.seg_class,
             "shared_group": s.shared_group,
             "usage": [{"mode_id": u.mode_id, "direction": u.direction,
                        "free_flow_time": u.free_flow_time,
                        "reserved": u.reserved}
                       for u in s.usage]}
            for s in net.segments.values()
        ],
        "multimodal_nodes": [
            {"node_id": mn.node_id,
             "attachments": [[m, n] for m, n in sorted(net.usage_matrix) if m in mn.modes],
             "transfer_time": {f"{a},{b}": t
                               for (a, b), t in mn.transfer_time.items()},
             "services": sorted(mn.services)}
            for mn in net.multimodal_nodes.values()
        ],
    }
    return spec


# -- 5: restore exactness ---------------------------------------------------------------


def test_criterion_5_restore_exactness():
    with criterion(5, "overlay restored after all expiries", budget=None):
        for seed in range(60):
            rng = random.Random(77_000 + seed)
            scenario = load_scenario(random_scenario_dict(rng))
            sim = _Sim(scenario, MODE_TARGETED)
            sim.run()
            assert sim.world.overlay.active_contributions() == [], seed
            residuals = brute_force_residual_map(sim.world.overlay)
            assert all(v == 1.0 for v in residuals.values()), seed


# -- 6 and 7: demo comparisons -------------------------------------------------------------


@pytest.fixture(scope="module")
def demo_report(demo):
    return compare(demo)


def test_criterion_6_congestion_saving(demo_report):
    with criterion(6, "targeted messaging saves traffic at equal delay",
                   budget=None):
        targeted = demo_report.targeted.metrics
        broadcast = demo_report.broadcast.metrics
        assert targeted.messages_sent_total < targeted.broadcast_baseline_total
        assert targeted.total_delay_s == broadcast.total_delay_s
        assert demo_report.recall == 1.0


def test_criterion_7_mitigation(demo_report):
    with criterion(7, "adaptation reduces total delay", budget=None):
        adapted = demo_report.targeted.metrics.total_delay_s
        unaided = demo_report.no_adapt.metrics.total_delay_s
        assert adapted <= unaided
        assert adapted < unaided  # the demo has a bypass by construction


# -- 8: determinism -----------------------------------------------------------------------


def test_criterion_8_determinism(demo):
    with criterion(8, "byte-identical reruns, seed-sensitive logs", budget=None):
        a = run(demo)
        b = run(demo)
        assert a.metrics_json() == b.metrics_json()
        assert a.event_log == b.event_log
        assert a.warning_log == b.warning_log
        assert a.action_log == b.action_log
        raw = demo_scenario()
        raw["seed"] = demo.seed + 1
        c = run(load_scenario(raw))
        assert c.event_log != a.event_log


# -- 9: conservation and causality fuzz -----------------------------------------------------


def test_criterion_9_conservation_and_causality_fuzz():
    with criterion(9, "500-scenario conservation and causality fuzz",
                   budget=300.0):
        for seed in range(500):
            rng = random.Random(880_000 + seed)
            scenario = load_scenario(random_scenario_dict(rng))
            result = run(scenario)
            m = result.metrics
            assert (m.trips_completed + m.trips_abandoned + m.trips_in_progress
                    == m.trips_total), seed
            detects = {}
            warns = {}
            ends: dict[str, list[float]] = {}
            for line in result.event_log:
                record = json.loads(line)
                if record["type"] == "detect":
                    detects[record["event"]] = record["detect_time"]
                elif record["type"] == "warn":
                    warns.setdefault(record["event"], record["t"])
                    assert record["t"] >= detects[record["event"]], seed
                elif record["type"] == "action_end":
                    ends.setdefault(record["action_id"], []).append(record["t"])
            ids: dict[str, list[str]] = {}
            expiries: dict[str, list[float]] = {}
            for line in result.action_log:
                action = json.loads(line)
                assert action["activation"] >= warns[action["event_id"]], seed
                ids.setdefault(action["event_id"], []).append(action["action_id"])
                if action["expiry"] <= scenario.end_time:
                    expiries[action["action_id"]] = [action["expiry"]]
            # each action ends once, at its expiry, if the run reaches it
            assert ends == expiries, seed
            for event_id, numbered in ids.items():
                assert numbered == [f"a-{event_id}-{n}"
                                    for n in range(1, len(numbered) + 1)], seed
