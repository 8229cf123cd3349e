"""Arrivals handled in place, ahead of the event loop.

``_Sim._advance`` handles an arrival that nothing else can observe where
the move before it is timed, instead of queueing it, and orders entries by
provenance key instead of a global counter.  These tests hold every output
byte, and every traversal, to the per-arrival engine with a counter
(``oracles.PerArrivalSim``).
"""

import json
import random

import pytest

from mitsim.scenario import load_scenario
from mitsim.simulation import (_SHARED_KINDS, MODE_BROADCAST, MODE_NO_ADAPT, MODE_TARGETED,
                               _Sim, compare, run)
from mitsim.state import Contribution

from generators import run_outputs
from oracles import PerArrivalSim, per_arrival_mode
from test_cone import GENERATORS
from test_simulation import mini_scenario


def outputs(raw) -> dict:
    """``compare.json``, and each of the three runs' output files and
    traversals, from ``compare``."""
    report = compare(load_scenario(json.loads(json.dumps(raw))))
    out = {"compare.json": json.dumps(report.to_dict(), indent=2, sort_keys=True)}
    for name in ("no_adapt", "broadcast", "targeted"):
        result = getattr(report, name)
        out[name] = run_outputs(result)
        out[name + "/traversals"] = {tid: tv.traversals for tid, tv in sorted(result.trips.items())}
    return out


class CountingSim(_Sim):
    """Counts the ``arrive`` entries at segment ends the run serves."""

    served = 0

    def handle_arrive(self, t, tv, node):
        self.served += tv.node is None
        super().handle_arrive(t, tv, node)


def arrivals_in_place(raw) -> int:
    """Segment ends the targeted run reaches by ``end_time`` without an
    ``arrive`` entry."""
    scenario = load_scenario(raw)
    sim = CountingSim(scenario, MODE_TARGETED)
    trips = sim.run().trips
    return sum(exit_t <= scenario.end_time for tv in trips.values()
               for _seg, _mode, _enter, exit_t in tv.traversals) - sim.served


def observing(engine):
    """``engine`` noting, as it handles each entry that may read other
    travelers (``_SHARED_KINDS``), what it could read of them: every
    traveler's state and its device's position, route and mode."""

    def note(sim, t):
        devices = sim.world.devices
        sim.seen.append((t, [
            (tid, tv.status, tv.node, tuple(tv.traversals), tuple(tv.moves), tv.replan_flag,
             tv.wait_version, tv.device_id and (devices[tv.device_id].position,
                                               devices[tv.device_id].planned_route,
                                               devices[tv.device_id].mode))
            for tid, tv in sorted(sim.world.travelers.items())]))

    def noting(kind):
        def handle(sim, t, *payload):
            note(sim, t)
            getattr(engine, "handle_" + kind)(sim, t, *payload)
        return handle

    return type("Observing" + engine.__name__, (engine,),
                {"seen": None, **{"handle_" + kind: noting(kind) for kind in _SHARED_KINDS}})


def observations(engine, raw, config):
    sim = observing(engine)(load_scenario(raw), config)
    sim.seen = []
    sim.run()
    return sim.seen


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_runs_and_compare_equal_the_per_arrival_engine(name):
    """Byte for byte, and in what each entry that reads other travelers
    finds of them."""
    make, _seeds = GENERATORS[name]
    in_place = 0
    for seed in range(40):
        raw = make(random.Random(95_000 + seed))
        got = outputs(raw)
        with per_arrival_mode():
            expected = outputs(raw)
        assert got == expected, seed
        for config in (MODE_TARGETED, MODE_BROADCAST, MODE_NO_ADAPT):
            assert observations(_Sim, raw, config) == observations(PerArrivalSim, raw, config)
        in_place += arrivals_in_place(raw)
    assert in_place > 0


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_the_targeted_run_notes_what_the_per_arrival_engine_notes(name):
    """The targeted run's ``Influence`` (reached devices, flaggers,
    conflicts, spans and the rest) equals the per-arrival engine's.  An
    output cannot show a cone that is too wide, since a partial run over
    more travelers gives the same answer, so only this holds replans and
    arrivals handled in place to noting exactly what they read."""
    make, _seeds = GENERATORS[name]
    reached = 0
    for seed in range(40):
        raw = make(random.Random(95_000 + seed))
        got = run(load_scenario(raw)).influence
        expected = PerArrivalSim(load_scenario(raw), MODE_TARGETED).run().influence
        assert got == expected, seed
        reached += sum(map(len, got.reached.values()))
    assert reached > 0 or name == "rail"  # rail trips are Poisson streams, with no device


def test_an_arrival_in_place_ties_with_a_setup_entry():
    """tv0 leaves v0 at 0 s and reaches v1 at 100 s in place; tv1's spawn
    at v1, a setup entry, is due then too.  Both trips end at v2 at 200 s.
    tv1's arrival was scheduled by an entry handled first at 100 s, so it
    runs first; a counter read when tv0's arrival at v1 is handled in
    place (at 0 s) would put tv0 first."""
    raw = mini_scenario(start=5000.0, depart=0.0)
    raw["devices"].append({"device_id": "tv1", "role": "traveler-app",
                           "position": {"node": "v1"}, "comm_range": 1000.0,
                           "trip": {"origin": "v1", "dest": "v2", "depart": 100.0,
                                    "prefs": {"allowed_modes": ["car"]}}})
    result = run(load_scenario(raw))
    reference = PerArrivalSim(load_scenario(raw), result.config).run()
    assert run_outputs(result) == run_outputs(reference)
    done = [json.loads(line) for line in result.event_log if '"trip_complete"' in line]
    assert [(r["t"], r["traveler"]) for r in done] == [(200.0, "tv1"), (200.0, "tv0")]
    assert arrivals_in_place(raw) == 1


def test_an_arrival_at_the_time_of_an_injection_waits_for_it():
    """tv0 reaches v1 at 100 s, when e0 blocks s1; the injection, a setup
    entry, runs first, so tv0 waits there until e0 ends at 1900 s."""
    raw = mini_scenario(start=100.0, depart=0.0)
    result = run(load_scenario(raw))
    reference = PerArrivalSim(load_scenario(raw), result.config).run()
    assert run_outputs(result) == run_outputs(reference)
    assert result.trips["tv0"].traversals == [("s0", "car", 0.0, 100.0),
                                              ("s1", "car", 1900.0, 2000.0)]


def slowed(engine):
    """``engine`` with s1 at half capacity from 50 s on, a contribution
    no entry registers or removes."""

    class Slowed(engine):
        def setup(self):
            super().setup()
            self.world.overlay.add_contribution(Contribution(
                "slow", "factor", frozenset({("s1", "car")}), 0.5, 50.0, float("inf")))

    return Slowed


def test_an_arrival_past_the_overlay_content_window_is_a_real_one():
    """The overlay's content changes at 50 s with no entry then; tv0,
    leaving v0 at 0 s, reaches v1 at 100 s and crosses s1 slowed."""
    raw = mini_scenario(start=5000.0, depart=0.0)
    result = slowed(_Sim)(load_scenario(raw), MODE_TARGETED).run()
    reference = slowed(PerArrivalSim)(load_scenario(raw), MODE_TARGETED).run()
    assert run_outputs(result) == run_outputs(reference)
    assert result.trips["tv0"].traversals == [("s0", "car", 0.0, 100.0),
                                              ("s1", "car", 100.0, 300.0)]


def test_no_arrival_after_end_time_is_handled():
    """The run, with no event, ends at 50 s with tv0 on s0."""
    raw = mini_scenario(depart=0.0, end_time=50.0)
    raw["disturbances"] = []
    result = run(load_scenario(raw))
    assert result.trips["tv0"].traversals == [("s0", "car", 0.0, 100.0)]
    assert result.trips["tv0"].status == "moving"
