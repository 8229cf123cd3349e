"""The tracer finds every binding and accounts self time correctly.

Run with: python3 -m pytest perfbench/tests
"""

import json
import math
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import grid_city  # noqa: E402
from mitsim import adaptation, dissemination, routing, simulation  # noqa: E402
from mitsim.disturbance import direct_effects  # noqa: E402
from mitsim.messages import make_warning  # noqa: E402
from mitsim.scenario import load_scenario  # noqa: E402
from mitsim.state import Contribution, NetworkState  # noqa: E402
from tracer import Tracer, percentile, tail_percentile  # noqa: E402


def test_install_wraps_aliases_and_uninstall_restores():
    originals = (simulation.plan_actions, simulation.route, adaptation.route,
                 dissemination.node_distances, adaptation.node_distances,
                 NetworkState.residual)
    tracer = Tracer()
    tracer.install()
    try:
        assert simulation.plan_actions is adaptation.plan
        assert simulation.plan_actions.__wrapped__ is originals[0]
        assert simulation.route is routing.route is adaptation.route
        assert simulation.route.__wrapped__ is originals[1]
        assert dissemination.node_distances is adaptation.node_distances
        assert dissemination.node_distances.__wrapped__ is originals[3]
        assert NetworkState.residual.__wrapped__ is originals[5]
    finally:
        tracer.uninstall()
    assert (simulation.plan_actions, simulation.route, adaptation.route,
            dissemination.node_distances, adaptation.node_distances,
            NetworkState.residual) == originals


def test_parent_self_time_is_total_minus_children():
    tracer = Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    inner = tracer.span("inner", lambda: busy(0.002))

    def body():
        busy(0.002)
        inner()
        inner()

    outer = tracer.span("outer", body)
    outer()
    o, i = tracer.stats["outer"], tracer.stats["inner"]
    assert (o.calls, i.calls) == (1, 2)
    assert i.self_s == i.total_s
    assert math.isclose(o.self_s, o.total_s - i.total_s, abs_tol=1e-12)
    assert math.isclose(tracer.self_sum(), o.total_s, abs_tol=1e-12)


def test_plan_bus_diversion_route_nesting():
    """One traced plan() call: plan -> bus_diversion_favorable -> route."""
    sc = load_scenario(json.loads(grid_city.scenario_bytes("city-compare", 1)))
    bus_segments = {s for r in sc.pt_routes for s in r.segments}
    event = next(e for e in sc.events if set(e.segments) & bus_segments)
    world = sc.build_world()
    world.overlay.clock = event.start + 60.0
    for seg_id, mode_id, residual in direct_effects(event, sc.net, sc.matrix):
        world.overlay.add_contribution(Contribution(
            f"ev:{event.event_id}:{seg_id}:{mode_id}", "factor",
            frozenset({(seg_id, mode_id)}), residual, event.start, event.true_end))
    basic, _full = make_warning(event, sc.net, sc.matrix, int(event.start) + 60)

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        simulation.plan_actions(event, basic, world, sc.strategy_table, matrix=sc.matrix)
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    plan = tracer.stats["adaptation.plan"]
    favorable = tracer.stats["adaptation.bus_diversion_favorable"]
    route = tracer.stats["routing.route"]
    assert plan.calls == 1 and favorable.calls >= 1 and route.calls >= 1
    # route() is only reached through bus_diversion_favorable here
    assert math.isclose(favorable.self_s, favorable.total_s - route.total_s, abs_tol=1e-9)
    assert all(st.self_s >= -1e-9 for st in tracer.stats.values())
    # over one span tree the self times add up to the root's total
    assert math.isclose(tracer.self_sum(), plan.total_s, abs_tol=1e-9)
    assert tracer.self_sum() <= wall_s


def test_percentiles():
    assert tail_percentile(5) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100_000) == 99.99
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile([], 50.0) == 0.0
