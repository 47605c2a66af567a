"""Test-only oracles: PageRank and the sketch builder over a dict graph.

The engine's public graph is always a
:class:`~repro.graph.frozen.FrozenGraph`, so :mod:`repro.graph.pagerank`
and :mod:`repro.sketches.base` keep only their interned-id bodies.  These
are the bodies they had for the mutable ``LabeledGraph`` — vertex-keyed
dicts and an ``itertools.count`` heap tie-breaker — kept verbatim as the
independent reference the frozen bodies are checked against.  Slow; do
not optimise.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.labeled_graph import Vertex
from repro.graph.protocol import GraphLike
from repro.sketches.base import DistanceSketch


def reference_pagerank_pure(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """Dictionary-based power iteration."""
    n = graph.num_vertices
    rank = {v: 1.0 / n for v in graph.vertices()}
    base = (1.0 - alpha) / n
    for _ in range(max_iter):
        nxt = {v: 0.0 for v in rank}
        dangling_mass = 0.0
        for v, r in rank.items():
            deg = graph.degree(v)
            if deg == 0:
                dangling_mass += r
                continue
            share = alpha * r / deg
            for u in graph.neighbors(v):
                nxt[u] += share
        spread = base + alpha * dangling_mass / n
        delta = 0.0
        for v in nxt:
            nxt[v] += spread
            delta += abs(nxt[v] - rank[v])
        rank = nxt
        if delta < tol:
            break
    return rank


def _power_iterate(
    src: np.ndarray,
    dst: np.ndarray,
    deg: np.ndarray,
    n: int,
    alpha: float,
    max_iter: int,
    tol: float,
) -> np.ndarray:
    """Shared edge-array power iteration for the vectorized backends."""
    rank = np.full(n, 1.0 / n)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)
    for _ in range(max_iter):
        contrib = alpha * rank / safe_deg
        nxt = np.zeros(n)
        np.add.at(nxt, dst, contrib[src])
        dangling_mass = rank[dangling].sum()
        nxt += (1.0 - alpha) / n + alpha * dangling_mass / n
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    return rank


def reference_pagerank_numpy(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """Vectorized power iteration over flattened adjacency arrays."""
    verts = list(graph.vertices())
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)

    # Flatten adjacency into (src, dst) arrays; undirected edges appear
    # twice, once per direction, which is exactly the random-walk matrix.
    srcs = []
    dsts = []
    for v in verts:
        vi = index[v]
        for u in graph.neighbors(v):
            srcs.append(vi)
            dsts.append(index[u])
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    deg = np.zeros(n, dtype=np.float64)
    np.add.at(deg, src, 1.0)

    rank = _power_iterate(src, dst, deg, n, alpha, max_iter, tol)
    return {v: float(rank[index[v]]) for v in verts}


def reference_build_sketch(
    graph: "GraphLike",
    ranks: Mapping[Vertex, float],
    k: int,
    kind: str = "sketch",
    tie_break: Optional[Mapping[Vertex, int]] = None,
) -> DistanceSketch:
    """Algo 6 over vertex keys: one pruned Dijkstra per center."""
    entries: Dict[Vertex, Dict[Vertex, float]] = {v: {} for v in graph.vertices()}
    # Per-vertex sorted list of distances already in the sketch; used for
    # the "< k entries with distance <= d" test via binary search.
    loaded: Dict[Vertex, List[float]] = {v: [] for v in graph.vertices()}

    if tie_break is None:
        tie_break = {v: i for i, v in enumerate(graph.vertices())}
    order = sorted(
        graph.vertices(), key=lambda v: (-ranks[v], tie_break.get(v, 0))
    )

    for center in order:
        # Pruned Dijkstra from the candidate center.
        settled: Dict[Vertex, float] = {}
        counter = itertools.count()  # tie-break: vertices may be incomparable
        heap: List[Tuple[float, int, Vertex]] = [(0.0, next(counter), center)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled[u] = d
            bucket = loaded[u]
            covered = bisect.bisect_right(bucket, d)
            if covered >= k:
                # u already sees k higher-priority centers within d:
                # the center is useless for u and everything behind it.
                continue
            entries[u][center] = d
            bisect.insort(bucket, d)
            for nbr, w in graph.neighbor_items(u):
                if nbr not in settled:
                    heapq.heappush(heap, (d + w, next(counter), nbr))
    return DistanceSketch(entries, k, kind)
