"""Portal distance maps and their combined-graph refinement (Sec. V-C).

Portals are the only places where shortest paths can cross between the
public and private graphs, and there are few of them, so PPKWS
precomputes:

* ``d(p_i, p_j)``  — all-pairs portal distances on the public graph ``G``
  (only where they are shorter than ``d'``: nothing else can matter),
* ``d'(p_i, p_j)`` — all-pairs portal distances on the private graph ``G'``,

and then *refines* them into the combined-graph portal distances
``dc(p_i, p_j)`` with the fixpoint of the paper's Algo 7: start from the
pointwise minimum of the two maps and repeatedly relax triangles through
other portals until nothing improves.  The result equals the true
all-pairs shortest distances between portals on ``Gc`` (we test this
against Dijkstra on the materialized combined graph).

The refinement also records *which portal pairs actually improved* over
the private-graph distances — the bookkeeping behind the reduced-answer-
refinement optimization (Sec. VI-A, Lemma VI.1).
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.graph.labeled_graph import Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF, bounded_target_distances

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.portals.keyword_map import VertexPortalDistanceMap

__all__ = [
    "PortalDistanceMap",
    "all_pairs_portal_distances",
    "refine_portal_distances",
    "combined_portal_maps",
]

_NO_ROW: Mapping[Vertex, float] = {}


class PortalDistanceMap:
    """Symmetric map of shortest distances between portal nodes.

    Missing pairs are treated as unreachable (``inf``).  Storage is a
    symmetric dict-of-dicts — every pair is stored in both orientations —
    because :meth:`get` sits on the answer-refinement hot path and must
    be a plain double dict lookup (portals may be incomparable objects,
    so there is no cheap canonical ordering).  The map is tiny anyway:
    ``O(|P|^2)`` with ``|P| << |V|``.
    """

    __slots__ = ("portals", "_adj")

    def __init__(self, portals: Iterable[Vertex]) -> None:
        self.portals: FrozenSet[Vertex] = frozenset(portals)
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}

    def get(self, p: Vertex, q: Vertex) -> float:
        """Distance between two portals (``0`` on the diagonal)."""
        if p == q:
            return 0.0
        row = self._adj.get(p)
        if row is None:
            return INF
        return row.get(q, INF)

    def row(self, p: Vertex) -> Mapping[Vertex, float]:
        """Every stored ``d(p, q)`` by ``q`` — the diagonal is not stored.

        The live row, not a copy: rooted Eq.-4 tables walk it once per
        portal instead of calling :meth:`get` once per pair.  Read-only.
        """
        return self._adj.get(p, _NO_ROW)

    def set(self, p: Vertex, q: Vertex, d: float) -> None:
        """Record ``d(p, q)``; the diagonal is implicit and immutable."""
        if p != q:
            self._adj.setdefault(p, {})[q] = d
            self._adj.setdefault(q, {})[p] = d

    def improve(self, p: Vertex, q: Vertex, d: float) -> bool:
        """Lower ``d(p, q)`` to ``d`` if smaller; report whether it changed."""
        if p == q:
            return False
        adj = self._adj
        row = adj.get(p)
        if row is None:
            if d >= INF:
                return False
            row = adj[p] = {}
        elif d >= row.get(q, INF):
            return False
        row[q] = d
        back = adj.get(q)
        if back is None:
            adj[q] = {p: d}
        else:
            back[p] = d
        return True

    def pairs(self) -> Iterable[Tuple[Vertex, Vertex, float]]:
        """Iterate each stored unordered pair once as ``(p, q, distance)``."""
        seen: set = set()
        for p, row in self._adj.items():
            for q, d in row.items():
                if q not in seen:
                    yield p, q, d
            seen.add(p)

    def copy(self) -> "PortalDistanceMap":
        """An independent copy (refinement mutates in place)."""
        out = PortalDistanceMap(self.portals)
        out._adj = {p: dict(row) for p, row in self._adj.items()}
        return out

    def __len__(self) -> int:
        return sum(len(row) for row in self._adj.values()) // 2

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PortalDistanceMap |P|={len(self.portals)} pairs={len(self)}>"


def all_pairs_portal_distances(
    graph: "GraphLike",
    portals: Iterable[Vertex],
    bounds: Optional[PortalDistanceMap] = None,
) -> PortalDistanceMap:
    """Shortest distances between ``portals`` within ``graph``.

    One multi-target sweep per portal, aimed at the *later* portals only
    (the graph is undirected, so each pair is searched once).  ``bounds``
    is the map the result will be min-combined with: a pair is recorded
    only where ``graph`` is strictly shorter than ``bounds`` says, and
    each sweep stops where that is no longer possible — with the private
    map as ``bounds`` the public sweeps cost what ``G'`` is wide, not
    what ``G`` is.  Without ``bounds`` every reachable pair is recorded.
    Portals absent from ``graph`` simply stay unreachable — this happens
    for private-only analysis of portals of another owner.
    """
    portal_list = sorted(portals, key=repr)
    pmap = PortalDistanceMap(portal_list)
    present = [p for p in portal_list if p in graph]
    for i, p in enumerate(present[:-1], start=1):
        later = present[i:]
        if bounds is None:
            limits = dict.fromkeys(later, INF)
        else:
            limits = {q: bounds.get(p, q) for q in later}
        for q, d in bounded_target_distances(graph, p, limits).items():
            pmap.set(p, q, d)
    return pmap


def refine_portal_distances(
    public_map: PortalDistanceMap,
    private_map: PortalDistanceMap,
) -> Tuple[PortalDistanceMap, Set[Tuple[Vertex, Vertex]]]:
    """Combine portal maps into the combined-graph map ``dc`` (Algo 7).

    Returns ``(dc, refined_pairs)`` where ``refined_pairs`` contains the
    portal pairs (in *both* orientations, for direct iteration) whose
    combined distance became strictly smaller than the private-graph
    distance — exactly the pairs that can make answer refinement
    worthwhile (Lemma VI.1): a detour through an unrefined pair is a
    private-graph path and can never beat a private shortest distance.

    ``public_map`` enters through ``min(d, d')`` only, so it may omit any
    pair that is not strictly shorter than its ``private_map`` entry
    (:func:`all_pairs_portal_distances` with ``bounds``).  The loops read
    and write the maps' symmetric rows directly: a relaxation is two dict
    probes, not four :meth:`PortalDistanceMap.get` calls.
    """
    portals = public_map.portals | private_map.portals
    combined = PortalDistanceMap(portals)
    adj = combined._adj
    public_adj, private_adj = public_map._adj, private_map._adj
    no_row: Dict[Vertex, float] = {}
    # one FIFO bucket of pairs per queued distance under a heap of the
    # distances: the ``(distance, push counter)`` order of a heap of
    # pairs, since a relaxation never queues below the pair it pops
    # (DESIGN.md, "Equal-distance buckets")
    buckets: Dict[float, List[Tuple[Vertex, Vertex]]] = {}
    frontier: List[float] = []

    def queue(d: float, pair: Tuple[Vertex, Vertex]) -> None:
        bucket = buckets.get(d)
        if bucket is None:
            buckets[d] = [pair]
            heapq.heappush(frontier, d)
        else:
            bucket.append(pair)

    # Initialization: pointwise minimum of the two maps (Algo 7 lines 2-5).
    for p, q in itertools.combinations(sorted(portals, key=repr), 2):
        d = min(
            public_adj.get(p, no_row).get(q, INF),
            private_adj.get(p, no_row).get(q, INF),
        )
        if d < INF:
            adj.setdefault(p, {})[q] = d
            adj.setdefault(q, {})[p] = d
            queue(d, (p, q))

    # Fixpoint relaxation through intermediate portals (lines 6-14).
    portal_list = [p for p in portals if p in adj]  # the rest reach nothing
    while frontier:
        dist = heapq.heappop(frontier)
        for p1, p2 in buckets.pop(dist):
            row1, row2 = adj[p1], adj[p2]
            if dist > row1[p2]:
                continue  # stale queue entry
            for pi in portal_list:
                if pi == p1 or pi == p2:
                    continue
                via = row1.get(pi, INF) + dist
                if via < row2.get(pi, INF):
                    adj[pi][p2] = row2[pi] = via
                    queue(via, (pi, p2))
                via = row2.get(pi, INF) + dist
                if via < row1.get(pi, INF):
                    adj[pi][p1] = row1[pi] = via
                    queue(via, (pi, p1))

    refined: Set[Tuple[Vertex, Vertex]] = set()
    for p, q, d in combined.pairs():
        if d < private_adj.get(p, no_row).get(q, INF):
            refined.add((p, q))
            refined.add((q, p))
    return combined, refined


def combined_portal_maps(
    public: "GraphLike",
    portals: Iterable[Vertex],
    vertex_portal: "VertexPortalDistanceMap",
) -> Tuple[PortalDistanceMap, PortalDistanceMap, Set[Tuple[Vertex, Vertex]]]:
    """``(dc, d', refined pairs)`` of one private graph's portals.

    The portal-map half of an attach.  It traverses ``G'`` not at all: the
    per-portal sweeps that filled ``vertex_portal`` settled every other
    portal, so ``d'(p_i, p_j)`` is read off its portal rows (a pair keeps
    the smaller of its two sweeps' readings — a float sum along a path
    depends on the direction walked).  Then one public sweep per portal,
    bounded by ``d'``, and the Algo-7 fixpoint.
    """
    portal_list = sorted(portals, key=repr)
    private_map = PortalDistanceMap(portal_list)
    present = [p for p in portal_list if p in vertex_portal.portals]
    for p in present:
        for q in present:
            if q != p:
                private_map.improve(p, q, vertex_portal.get(q, p))
    public_map = all_pairs_portal_distances(public, portal_list, bounds=private_map)
    combined, refined = refine_portal_distances(public_map, private_map)
    return combined, private_map, refined
