"""Fixed pure-Python reference work that measures how fast the host is now.

Usage: python3 perfbench/reference.py

Builds a fixed weighted 100 x 100 grid in dicts, lists and tuples and runs
full shortest-path searches over it with ``heapq``: the same kind of work
as mitsim's routing and dissemination, over a few MiB of objects, so that
it slows under the same cache and memory pressure from other tenants as
the simulator does.  It prints the seconds the build and the searches took
as one JSON object.  It imports nothing from mitsim, so a change to the
simulator never changes it: its time moves only with the host.
``run.py`` times it in a fresh process just before each operation and
divides the operation's times by it (see ``REFERENCE_S`` there).
"""

from __future__ import annotations

import heapq
import json
import random
import sys
import time

GRID = 100
SOURCES = 3


def build_grid(n: int) -> dict:
    rng = random.Random(7)
    adj: dict = {}
    for r in range(n):
        for c in range(n):
            u = (r, c)
            adj.setdefault(u, [])
            for v in ((r, c + 1), (r + 1, c)):
                if v[0] < n and v[1] < n:
                    w = rng.uniform(15.0, 40.0)
                    adj[u].append((v, w))
                    adj.setdefault(v, []).append((u, w))
    return adj


def distances(adj: dict, source: tuple) -> dict:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def main() -> int:
    start = time.perf_counter()
    adj = build_grid(GRID)
    reached = sum(len(distances(adj, (k % GRID, (k * 7) % GRID))) for k in range(SOURCES))
    elapsed = time.perf_counter() - start
    if reached != SOURCES * GRID * GRID:
        print(f"reference reached {reached} nodes", file=sys.stderr)
        return 1
    print(json.dumps({"reference_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
