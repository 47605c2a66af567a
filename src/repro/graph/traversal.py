"""Shortest-path and traversal primitives over any graph backend.

Everything in PPKWS is distance-driven (Sec. II of the paper: "the answers
of all the query semantics involve the shortest distance between the nodes
of the answer"), so these routines are the hot path of both the baseline
algorithms and the framework itself.  The per-query sweeps run on a
``heapq`` with lazy deletion (stale entries are skipped when popped).
:func:`bounded_target_distances`, which an attach runs, instead pops one
bucket per queued distance under a heap of the distances: on hop-distance
graphs almost every distance repeats, so most pops cost a list step
rather than a heap sift (DESIGN.md, "Equal-distance buckets").

Every routine has one body.  The heap sweeps accept any
:class:`~repro.graph.protocol.GraphLike` backend and read it through
``__contains__`` and ``neighbor_items``; vertices may be arbitrary
incomparable hashables, so heap entries carry an ``itertools.count``
tie-breaker and equidistant vertices settle in push order.  A
:class:`~repro.graph.frozen.FrozenGraph` yields its neighbors in its
source's order, so ``freeze(g)`` and ``g`` settle ties identically.
These bodies serve what queries and attaches search: the private graphs
and the combined views that span both sides.

The public graph ``G`` is never searched on its own at query time
(AComplete reads it through the sketches); an attach traverses it alone
to bound its portal pairs (Sec. V-C), by
:func:`bounded_target_distances`.  That routine alone scans the CSR
``indptr``/``indices``/``weights`` arrays over dense int ids, and
freezes any other graph it is given first.

The sweeps accept an optional ``budget`` (any object with a
``checkpoint()`` method, canonically
:class:`repro.core.budget.QueryBudget`) charged one expansion per heap
pop; the budget raises a :class:`~repro.exceptions.BudgetError` when the
query's deadline or expansion cap is exceeded.  ``budget=None`` (the
default) costs one ``is not None`` test per pop.  The type is only
imported for checking to keep this layer free of :mod:`repro.core`
imports.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import VertexNotFoundError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Vertex

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.budget import QueryBudget
    from repro.graph.protocol import GraphLike

__all__ = [
    "INF",
    "dijkstra",
    "dijkstra_with_paths",
    "dijkstra_ordered",
    "multi_source_dijkstra",
    "bounded_target_distances",
    "shortest_path",
    "shortest_distance",
    "bfs_hops",
    "vertices_within_hops",
    "eccentricity",
    "nearest_vertices_with_label",
]

INF = float("inf")


def _check_source(graph: "GraphLike", source: Vertex) -> None:
    if source not in graph:
        raise VertexNotFoundError(source)


def dijkstra(
    graph: "GraphLike",
    source: Vertex,
    cutoff: Optional[float] = None,
    targets: Optional[Set[Vertex]] = None,
    budget: Optional["QueryBudget"] = None,
) -> Dict[Vertex, float]:
    """Single-source shortest distances from ``source``.

    The returned map iterates in settle order, i.e. by non-decreasing
    distance (the portal-keyword map relies on it: the first vertex seen
    with a label is the nearest one).

    Parameters
    ----------
    cutoff:
        Stop expanding once the settled distance exceeds ``cutoff``
        (distances strictly greater than the cutoff are not reported).
    targets:
        If given, stop as soon as every target is settled.  The returned
        map still contains every settled vertex (callers often reuse it).
    budget:
        Optional query budget charged one expansion per heap pop; raises
        a :class:`~repro.exceptions.BudgetError` on expiry.
    """
    _check_source(graph, source)
    dist: Dict[Vertex, float] = {}
    remaining = set(targets) if targets is not None else None
    counter = itertools.count()  # heap tie-break: vertices may not be comparable
    heap: List[Tuple[float, int, Vertex]] = [(0.0, next(counter), source)]
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        if cutoff is not None and d > cutoff:
            break
        dist[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for u, w in graph.neighbor_items(v):
            if u not in dist:
                nd = d + w
                if cutoff is None or nd <= cutoff:
                    heapq.heappush(heap, (nd, next(counter), u))
    return dist


def dijkstra_with_paths(
    graph: "GraphLike",
    source: Vertex,
    cutoff: Optional[float] = None,
    budget: Optional["QueryBudget"] = None,
) -> Tuple[Dict[Vertex, float], Dict[Vertex, Optional[Vertex]]]:
    """Shortest distances plus predecessor links (for path reconstruction).

    ``budget`` (if given) is charged one expansion per heap pop.
    """
    _check_source(graph, source)
    dist: Dict[Vertex, float] = {}
    pred: Dict[Vertex, Optional[Vertex]] = {source: None}
    tentative: Dict[Vertex, float] = {source: 0.0}
    counter = itertools.count()
    heap: List[Tuple[float, int, Vertex]] = [(0.0, next(counter), source)]
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        if cutoff is not None and d > cutoff:
            break
        dist[v] = d
        for u, w in graph.neighbor_items(v):
            if u in dist:
                continue
            nd = d + w
            if (cutoff is None or nd <= cutoff) and nd < tentative.get(u, INF):
                tentative[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, next(counter), u))
    return dist, pred


def dijkstra_ordered(
    graph: "GraphLike",
    source: Vertex,
    cutoff: Optional[float] = None,
    budget: Optional["QueryBudget"] = None,
) -> Iterator[Tuple[Vertex, float]]:
    """Yield ``(vertex, distance)`` in non-decreasing distance order.

    This is the *Dijkstra order* used to define Dijkstra ranks in the
    sketch construction (paper Sec. V-A); it is also the workhorse of the
    k-nk semantic, which consumes vertices lazily until k matches appear.
    ``budget`` (if given) is charged one expansion per heap pop.
    """
    _check_source(graph, source)
    settled: Set[Vertex] = set()
    counter = itertools.count()
    heap: List[Tuple[float, int, Vertex]] = [(0.0, next(counter), source)]
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v = heapq.heappop(heap)
        if v in settled:
            continue
        if cutoff is not None and d > cutoff:
            return
        settled.add(v)
        yield v, d
        for u, w in graph.neighbor_items(v):
            if u not in settled:
                nd = d + w
                if cutoff is None or nd <= cutoff:
                    heapq.heappush(heap, (nd, next(counter), u))


def multi_source_dijkstra(
    graph: "GraphLike",
    sources: Iterable[Vertex],
    cutoff: Optional[float] = None,
    budget: Optional["QueryBudget"] = None,
) -> Dict[Vertex, float]:
    """Shortest distance from the *nearest* of ``sources`` to each vertex.

    Used for keyword-to-vertex distances: ``d(v, t) = min over u with
    t in L(u) of d(v, u)`` is a multi-source search seeded at the
    keyword's inverted-index bucket.  ``budget`` (if given) is charged
    one expansion per heap pop.
    """
    dist: Dict[Vertex, float] = {}
    counter = itertools.count()
    heap: List[Tuple[float, int, Vertex]] = []
    for s in sources:
        _check_source(graph, s)
        heapq.heappush(heap, (0.0, next(counter), s))
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        if cutoff is not None and d > cutoff:
            break
        dist[v] = d
        for u, w in graph.neighbor_items(v):
            if u not in dist:
                nd = d + w
                if cutoff is None or nd <= cutoff:
                    heapq.heappush(heap, (nd, next(counter), u))
    return dist


def bounded_target_distances(
    graph: "GraphLike", source: Vertex, bounds: Mapping[Vertex, float]
) -> Dict[Vertex, float]:
    """``d(source, t)`` for each target ``t`` closer than ``bounds[t]``.

    The multi-target sweep behind the public half of the portal maps
    (Sec. V-C): the caller already holds an upper bound per target — the
    private-graph distance — and a distance at or beyond its bound
    cannot matter to it, so such targets (and targets absent from
    ``graph``) are left out of the result rather than searched for.  An
    ``inf`` bound asks for the plain distance.

    The sweep keeps a tentative-distance table (one queue entry per strict
    improvement), never queues a vertex at or beyond the largest bound
    still open, and stops once the settled distance reaches it — every
    target still unsettled then lies at or beyond its own bound.  It
    therefore settles only vertices *strictly inside* that radius, and
    hands back the targets alone, not a map of everything it touched.
    """
    graph = freeze(graph)
    src = graph.intern(source)
    indptr, indices, weights = graph.csr()
    pending = {graph.intern(t): b for t, b in bounds.items() if t in graph}
    found: Dict[int, float] = {}
    radius = max(pending.values(), default=0.0)
    tentative: Dict[int, float] = {src: 0.0}
    # one heap of ids per queued distance under a heap of the distances:
    # ``(distance, id)`` order, a ``d + w == d`` relaxation joining the
    # bucket being popped (DESIGN.md, "Equal-distance buckets")
    buckets: Dict[float, List[int]] = {0.0: [src]}
    frontier = [0.0]
    while frontier and pending:
        d = heapq.heappop(frontier)
        if d >= radius:
            break
        bucket = buckets[d]
        while bucket:
            i = heapq.heappop(bucket)
            if d > tentative[i]:
                continue
            bound = pending.pop(i, None)
            if bound is not None:
                if d < bound:
                    found[i] = d
                if not pending:
                    break
                if bound >= radius:
                    radius = max(pending.values())
                    if d >= radius:
                        break
            for pos in range(indptr[i], indptr[i + 1]):
                nd = d + weights[pos]
                if nd < radius:
                    j = indices[pos]
                    if nd < tentative.get(j, INF):
                        tentative[j] = nd
                        queued = buckets.get(nd)
                        if queued is None:
                            buckets[nd] = [j]
                            heapq.heappush(frontier, nd)
                        else:
                            heapq.heappush(queued, j)
        del buckets[d]
    vx = graph.vertex_table
    return {vx[i]: d for i, d in found.items()}


def shortest_distance(
    graph: "GraphLike", source: Vertex, target: Vertex
) -> float:
    """Exact shortest distance ``d(source, target)``; ``inf`` if unreachable."""
    if target not in graph:
        raise VertexNotFoundError(target)
    dist = dijkstra(graph, source, targets={target})
    return dist.get(target, INF)


def shortest_path(
    graph: "GraphLike",
    source: Vertex,
    target: Vertex,
    budget: Optional["QueryBudget"] = None,
) -> Optional[List[Vertex]]:
    """An actual shortest path as a vertex list, or ``None`` if unreachable.

    ``budget`` (if given) is charged one expansion per heap pop — answer
    materialization (PP-BANKS tree reconstruction) passes the query's
    budget through here so it respects deadlines like every other step.
    """
    if target not in graph:
        raise VertexNotFoundError(target)
    _check_source(graph, source)
    dist: Dict[Vertex, float] = {}
    pred: Dict[Vertex, Vertex] = {}
    counter = itertools.count()
    heap: List[Tuple[float, int, Vertex]] = [(0.0, next(counter), source)]
    tentative: Dict[Vertex, float] = {source: 0.0}
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        if v == target:
            break
        for u, w in graph.neighbor_items(v):
            if u in dist:
                continue
            nd = d + w
            if nd < tentative.get(u, INF):
                tentative[u] = nd
                pred[u] = v
                heapq.heappush(heap, (nd, next(counter), u))
    if target not in dist:
        return None
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return path


def bfs_hops(
    graph: "GraphLike",
    source: Vertex,
    max_hops: Optional[int] = None,
) -> Dict[Vertex, int]:
    """Hop counts (unweighted BFS distance) from ``source``.

    AComplete for Blinks expands portals "up to x hops" on the public
    graph (paper Algo 5) — this is that traversal.
    """
    _check_source(graph, source)
    hops = {source: 0}
    frontier = [source]
    level = 0
    while frontier and (max_hops is None or level < max_hops):
        level += 1
        nxt: List[Vertex] = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u not in hops:
                    hops[u] = level
                    nxt.append(u)
        frontier = nxt
    return hops


def vertices_within_hops(
    graph: "GraphLike", source: Vertex, max_hops: int
) -> Set[Vertex]:
    """The ball of radius ``max_hops`` (in hops) around ``source``."""
    return set(bfs_hops(graph, source, max_hops))


def eccentricity(graph: "GraphLike", source: Vertex) -> float:
    """Largest finite shortest distance from ``source``."""
    dist = dijkstra(graph, source)
    return max(dist.values()) if dist else 0.0


def nearest_vertices_with_label(
    graph: "GraphLike",
    source: Vertex,
    label: str,
    k: int = 1,
    cutoff: Optional[float] = None,
    accept: Optional[Callable[[Vertex], bool]] = None,
    budget: Optional["QueryBudget"] = None,
) -> List[Tuple[Vertex, float]]:
    """The ``k`` nearest vertices to ``source`` carrying ``label``.

    This is the exact (index-free) k-nk primitive: expand Dijkstra from
    ``source`` and collect matches lazily.  ``accept`` can further filter
    candidates (used by PEval to also admit portal nodes).
    """
    matches: List[Tuple[Vertex, float]] = []
    for v, d in dijkstra_ordered(graph, source, cutoff=cutoff, budget=budget):
        is_match = graph.has_label(v, label)
        if accept is not None:
            is_match = is_match or accept(v)
        if is_match:
            matches.append((v, d))
            if len(matches) >= k:
                break
    return matches
