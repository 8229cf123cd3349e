"""Span tracer that wraps mitsim's public functions from outside the package.

Each traced function is replaced, in every ``mitsim`` module namespace that
holds it, by a wrapper that records one span per call: its duration and the
time covered by the spans it caused.  Wrapping only the defining module
would miss aliases such as ``simulation.plan_actions`` (``adaptation.plan``)
or ``route`` imported into ``simulation`` and ``adaptation``.

Spans are aggregated in memory per name (calls, total time, self time and,
for a few names, every duration so percentiles can be taken).  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

# (report name, module, attribute); "Class.method" attributes patch the class.
SPANS: tuple[tuple[str, str, str], ...] = (
    ("scenario.load_scenario", "mitsim.scenario", "load_scenario"),
    ("simulation.run", "mitsim.simulation", "run"),
    ("simulation.compare", "mitsim.simulation", "compare"),
    ("routing.route", "mitsim.routing", "route"),
    ("routing.evaluate_moves", "mitsim.routing", "evaluate_moves"),
    ("state.residual", "mitsim.state", "NetworkState.residual"),
    ("state.traversal_time", "mitsim.state", "NetworkState.traversal_time"),
    ("state.mode_arcs", "mitsim.state", "NetworkState.mode_arcs"),
    ("network.node_distances", "mitsim.network", "node_distances"),
    ("dissemination.distribute", "mitsim.dissemination", "distribute"),
    ("dissemination.is_relevant", "mitsim.dissemination", "is_relevant"),
    ("dissemination.predict_trajectory", "mitsim.dissemination", "predict_trajectory"),
    ("messages.make_warning", "mitsim.messages", "make_warning"),
    ("messages.encode", "mitsim.messages", "encode"),
    ("messages.decode", "mitsim.messages", "decode"),
    ("adaptation.plan", "mitsim.adaptation", "plan"),
    ("adaptation.apply", "mitsim.adaptation", "apply"),
    ("adaptation.expire", "mitsim.adaptation", "expire"),
    ("adaptation.bus_diversion_favorable", "mitsim.adaptation", "bus_diversion_favorable"),
    ("disturbance.direct_effects", "mitsim.disturbance", "direct_effects"),
    ("disturbance.detect", "mitsim.disturbance", "detect"),
)

# Overlay writes are counted, not timed, and reported as one sum.
WRITES: tuple[tuple[str, str], ...] = (
    ("mitsim.state", "NetworkState.add_contribution"),
    ("mitsim.state", "NetworkState.remove_contribution"),
    ("mitsim.state", "NetworkState.remove_owned"),
)

# Names whose every duration is kept for percentiles.
SAMPLED = frozenset({
    "routing.route", "dissemination.distribute", "network.node_distances",
    "messages.encode", "messages.decode", "state.residual",
})


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    samples: Optional[array] = None


@dataclass
class Tracer:
    stats: dict[str, SpanStats] = field(default_factory=dict)
    writes: int = 0
    # child time accumulated by each open span, innermost last
    _open: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def span(self, name: str, fn: Callable) -> Callable:
        """A wrapper around ``fn`` that records one ``name`` span per call."""
        stats = self.stats.setdefault(
            name, SpanStats(samples=array("d") if name in SAMPLED else None))
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if stats.samples is not None:
                    stats.samples.append(elapsed)

        traced.__wrapped__ = fn
        return traced

    def counter(self, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            self.writes += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def self_sum(self) -> float:
        """Self time of every span so far; over a span tree it equals the root's total."""
        return sum(st.self_s for st in self.stats.values())

    # -- installing wrappers --------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function wherever a mitsim module binds it."""
        for name, module, attr in SPANS:
            self._patch(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, attr in WRITES:
            self._patch(module, attr, self.counter)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make: Callable) -> None:
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            holders = [owner]
        else:
            holders = [m for n, m in sorted(sys.modules.items())
                       if m is not None and (n == "mitsim" or n.startswith("mitsim."))]
        original = getattr(owner, attr)
        wrapper = make(original)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapper)


def tail_percentile(n: int) -> float:
    """Highest of 50/90/99/99.9/99.99 with at least 10 of ``n`` samples beyond it."""
    best = 50.0
    for pct in (90.0, 99.0, 99.9, 99.99):
        if n * (100.0 - pct) / 100.0 >= 10.0:
            best = pct
    return best


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]
