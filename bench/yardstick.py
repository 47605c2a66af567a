"""A fixed piece of work that tells how fast the box is running right now.

This sandbox has 2 cores on a shared host.  Identical work measured minutes
apart differs by 10 to 45 % for minutes at a time (a noisy neighbour slows
everything, memory-heavy code most), on top of stalls of up to seconds.
Ten runs must agree within the bounds of ``BENCHMARK.json``, so every
time the benchmark reports is scaled by ``REFERENCE_S / measured``: the
time it would have been at the speed at which the yardstick takes
``REFERENCE_S``.  On a quiet box the scale is 1; the raw times and the
scale are printed beside the scaled ones.

The yardstick imports nothing from ``repro``, so a change to the program
cannot move it, and its working set is small enough to sit in the cache
after the first of its three goes (the quickest counts), so what the
program does to the caches cannot move it either.  Its three parts mimic
what the program does: heap pushes and pops while walking a dict-of-lists
graph with string vertices, sketch probes over dicts of dicts, and a deep
copy of a 64-match response.  It follows a slow period only in part
(memory-heavy code slows more than it does), which is why the bounds stay
wide.
"""

from __future__ import annotations

import copy
import heapq
import random
from time import perf_counter
from typing import Dict, List

#: what :meth:`Yardstick.measure` returns on this box when nothing else runs
REFERENCE_S = 0.0018

_VERTICES = 2_000
_SETTLED = 500
_PROBES = 400


class Yardstick:
    """Build once per process, then :meth:`measure` whenever speed matters."""

    def __init__(self) -> None:
        rng = random.Random(1729)
        names = [f"y{i}" for i in range(_VERTICES)]
        self.names = names
        self.graph: Dict[str, List[str]] = {
            v: [names[rng.randrange(_VERTICES)] for _ in range(4)] for v in names
        }
        self.sketch: Dict[str, Dict[str, float]] = {
            v: {names[rng.randrange(200)]: float(rng.randrange(1, 9)) for _ in range(6)}
            for v in names
        }
        self.response = {
            "status": "ok", "v": 1,
            "answer": {
                "source": "user0:v0", "keyword": "t0",
                "matches": [
                    {"vertex": names[i], "distance": float(i % 7)}
                    for i in range(64)
                ],
            },
        }

    def _work(self) -> None:
        """The same operations on the same data every time."""
        names, graph, sketch = self.names, self.graph, self.sketch
        turn = 0
        heap: List[tuple] = []
        settled = set()
        for i in range(_SETTLED):
            v = names[(turn + 613 * i) % _VERTICES]
            settled.add(v)
            for u in graph[v]:
                if u not in settled:
                    heapq.heappush(heap, (float(i % 5), u))
            heapq.heappop(heap)
        best = 1e9
        for i in range(_PROBES):
            mine = sketch[names[(turn + 131 * i) % _VERTICES]]
            other = sketch[names[(turn + 977 * i) % _VERTICES]]
            for centre, d1 in mine.items():
                d2 = other.get(centre)
                if d2 is not None and d1 + d2 < best:
                    best = d1 + d2
        for _ in range(8):
            copy.deepcopy(self.response)

    def measure(self) -> float:
        """Seconds the work took: the quickest of three goes, so a cold
        cache or one stall inside the yardstick does not read as a slow box."""
        best = 1e9
        for _ in range(3):
            start = perf_counter()
            self._work()
            best = min(best, perf_counter() - start)
        return best

    def scale(self) -> float:
        """Factor that turns a time measured now into a reference-speed time."""
        return REFERENCE_S / self.measure()
