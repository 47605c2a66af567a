"""Distance oracles over the (never materialized) combined graph.

Two layers:

* **Public-distance providers** answer vertex-vertex and vertex-keyword
  distance queries *within the public graph*.  The production provider is
  sketch-based (PADS + KPADS, Eq. 2/3, ``O(k ln |V|)`` per query); an
  exact Dijkstra-backed provider with the same interface exists for
  testing and for measuring sketch accuracy.

* :class:`CombinedDistanceOracle` combines a private graph's local maps
  (vertex-portal, PKD) with the refined portal map ``dc`` and a public
  provider to evaluate the paper's Eq. 4 (vertex-vertex refinement) and
  Eq. 5 (vertex-keyword refinement) without ever touching ``Gc``.

Both equations are a minimum over portal pairs ``(p_i, p_j)`` of a sum
with one fixed end, so each is evaluated in two halves: an ``O(|P|^2)``
table over the fixed end — :meth:`CombinedDistanceOracle.vertex_detours`
(rooted at a vertex, Eq. 4) or
:meth:`CombinedDistanceOracle.keyword_detours` (rooted at a keyword,
Eq. 5) — and an ``O(|P|)`` scan per other end.  A caller whose
refinements share the fixed end builds the table once and passes it as
``via=``; otherwise the scan builds its own.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF, dijkstra, dijkstra_ordered
from repro.portals.distance_map import PortalDistanceMap
from repro.portals.keyword_map import (
    PortalKeywordDistanceMap,
    VertexPortalDistanceMap,
)
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import KeywordSketch

__all__ = [
    "SketchPublicDistance",
    "ExactPublicDistance",
    "CombinedDistanceOracle",
]


class SketchPublicDistance:
    """Public-graph distances estimated from PADS/KPADS (the fast path)."""

    __slots__ = ("pads", "kpads")

    def __init__(self, pads: DistanceSketch, kpads: KeywordSketch) -> None:
        self.pads = pads
        self.kpads = kpads

    def vertex_distance(self, u: Vertex, v: Vertex) -> float:
        """``d_hat(u, v)`` on the public graph (Eq. 2)."""
        return self.pads.estimate(u, v)

    def keyword_distance(self, v: Vertex, keyword: Label) -> float:
        """``d_hat(v, t)`` on the public graph (Eq. 3)."""
        return self.kpads.estimate(self.pads, v, keyword)

    def keyword_distance_with_witness(
        self, v: Vertex, keyword: Label
    ) -> Tuple[float, Optional[Vertex]]:
        """``d_hat(v, t)`` plus the matched public vertex."""
        return self.kpads.estimate_with_witness(self.pads, v, keyword)


class ExactPublicDistance:
    """Exact Dijkstra-backed provider (testing / accuracy baselines).

    Caches one full distance map per queried source, which is fine for
    the small graphs used in tests but deliberately *not* what PPKWS
    does in production — the whole point of PADS is avoiding this.
    """

    __slots__ = ("graph", "_cache")

    def __init__(self, graph: "GraphLike") -> None:
        self.graph = graph
        self._cache: Dict[Vertex, Dict[Vertex, float]] = {}

    def _distances_from(self, source: Vertex) -> Dict[Vertex, float]:
        if source not in self._cache:
            self._cache[source] = dijkstra(self.graph, source)
        return self._cache[source]

    def vertex_distance(self, u: Vertex, v: Vertex) -> float:
        """Exact ``d(u, v)`` on the public graph."""
        if u not in self.graph or v not in self.graph:
            return INF
        return self._distances_from(u).get(v, INF)

    def keyword_distance(self, v: Vertex, keyword: Label) -> float:
        """Exact ``d(v, t)`` on the public graph."""
        return self.keyword_distance_with_witness(v, keyword)[0]

    def keyword_distance_with_witness(
        self, v: Vertex, keyword: Label
    ) -> Tuple[float, Optional[Vertex]]:
        """Exact nearest public vertex carrying ``keyword``."""
        if v not in self.graph or not self.graph.vertices_with_label(keyword):
            return INF, None
        for u, d in dijkstra_ordered(self.graph, v):
            if self.graph.has_label(u, keyword):
                return d, u
        return INF, None


class CombinedDistanceOracle:
    """Eq. 4 / Eq. 5 evaluation: combined-graph distances through portals.

    The oracle never builds ``Gc``.  For private vertices it knows the
    vertex-portal distances and the refined portal map; for the public
    side it delegates to a public-distance provider.
    """

    __slots__ = ("private", "portal_map", "vertex_portal", "pkd", "public")

    def __init__(
        self,
        private: LabeledGraph,
        portal_map: PortalDistanceMap,
        vertex_portal: VertexPortalDistanceMap,
        pkd: PortalKeywordDistanceMap,
        public: SketchPublicDistance,
    ) -> None:
        self.private = private
        self.portal_map = portal_map
        self.vertex_portal = vertex_portal
        self.pkd = pkd
        self.public = public

    # ------------------------------------------------------------------
    def vertex_detours(
        self,
        v1: Vertex,
        pairs_by_source: Optional[Mapping[Vertex, Tuple[Vertex, ...]]] = None,
        upper: float = INF,
    ) -> Dict[Vertex, float]:
        """Eq. 4's left half as a table rooted at ``v1``.

        ``out[p_j] = min_i d'(v1, p_i) + dc(p_i, p_j)``; portals with no
        finite detour are absent.  Without ``pairs_by_source`` every
        portal pair counts, the ``i = j`` diagonal (``dc = 0``) included;
        with it only the listed ``(p_i, p_j)`` pairs do, as in
        :meth:`refine_pair`.  A ``p_i`` with ``d'(v1, p_i) >= upper``
        cannot shorten anything below ``upper`` and is skipped.
        ``O(|P|^2)`` once per left end, so each :meth:`refine_pair`
        against it is an ``O(|P|)`` scan — the Eq.-4 counterpart of
        :meth:`keyword_detours`.
        """
        out: Dict[Vertex, float] = {}
        pmap = self.portal_map
        for pi, d1 in self.vertex_portal.portal_distances(v1).items():
            if d1 >= upper:
                continue
            row = pmap.row(pi)
            if pairs_by_source is None:
                if d1 < out.get(pi, INF):
                    out[pi] = d1
                for pj, dc in row.items():
                    total = d1 + dc
                    if total < out.get(pj, INF):
                        out[pj] = total
            else:
                for pj in pairs_by_source.get(pi, ()):
                    total = d1 + (0.0 if pj == pi else row.get(pj, INF))
                    if total < out.get(pj, INF):
                        out[pj] = total
        return out

    def refine_pair(
        self,
        v1: Vertex,
        v2: Vertex,
        upper: float,
        pairs_by_source: Optional[Mapping[Vertex, Tuple[Vertex, ...]]] = None,
        via: Optional[Mapping[Vertex, float]] = None,
    ) -> float:
        """Eq. 4: tighten a private-graph distance with portal detours.

        ``upper`` is the current bound (typically ``d'(v1, v2)``); the
        result is the minimum of ``upper`` and every two-portal detour
        ``d'(v1, p_i) + dc(p_i, p_j) + d'(p_j, v2)``.

        ``pairs_by_source`` restricts the detour middles to the given
        portal pairs (first portal -> allowed second portals) — the
        Sec.-VI-A reduced refinement passes the *refined* pairs, which is
        lossless: a detour through an unrefined pair is itself a
        private-graph path, so it cannot beat ``d'(v1, v2)``.

        ``via`` is ``v1``'s :meth:`vertex_detours` table when the caller
        already holds it (k-nk's ARefine builds one per query, since every
        refinement there starts at the query vertex); it was built with
        the pair restriction, so ``pairs_by_source`` is then unused.  The
        scan adds ``d'(p_j, v2)`` to a pre-summed ``d'(v1, p_i) +
        dc(p_i, p_j)``, which is how the sum always associated, and
        rounding is monotone — so the result is the per-pair double
        loop's to the bit.
        """
        best = upper
        to_v2 = self.vertex_portal.portal_distances(v2)
        if not to_v2:
            return best
        if via is None:
            via = self.vertex_detours(v1, pairs_by_source, upper)
        for pj, d2 in to_v2.items():
            head = via.get(pj)
            if head is not None and head + d2 < best:
                best = head + d2
        return best

    def keyword_detours(
        self,
        keyword: Label,
        pairs_by_source: Optional[Mapping[Vertex, Tuple[Vertex, ...]]] = None,
    ) -> Dict[Vertex, Tuple[float, Vertex]]:
        """Eq. 5's inner minimum as a table, root-independent.

        ``via[p_i] = min_j dc(p_i, p_j) + PKD(p_j, keyword)`` with the
        PKD witness of the first minimizing ``p_j``; portals with no
        finite detour are absent.  ``O(|P|^2)`` once per (query,
        keyword), so each root refines with an ``O(|P|)`` scan.
        ``pairs_by_source`` restricts the ``(p_i, p_j)`` pairs as in
        :meth:`refine_pair`; without it every portal pair counts.
        """
        pmap, pkd = self.portal_map, self.pkd
        if pairs_by_source is None:
            pairs_by_source = dict.fromkeys(pmap.portals, tuple(pmap.portals))
        tails = {pj: pkd.get(pj, keyword) for pj in pmap.portals}
        via: Dict[Vertex, Tuple[float, Vertex]] = {}
        for pi, middles in pairs_by_source.items():
            best, witness = INF, None
            for pj in middles:
                entry = tails.get(pj)
                if entry is not None:
                    total = pmap.get(pi, pj) + entry.distance
                    if total < best:
                        best, witness = total, entry.vertex
            if witness is not None:
                via[pi] = (best, witness)
        return via

    def refine_vertex_keyword(
        self,
        v: Vertex,
        keyword: Label,
        upper: float,
        pairs_by_source: Optional[Mapping[Vertex, Tuple[Vertex, ...]]] = None,
    ) -> float:
        """Eq. 5: tighten a private vertex-to-keyword distance via PKD.

        ``pairs_by_source`` restricts detours as in :meth:`refine_pair`.
        """
        return self.refine_vertex_keyword_with_witness(
            v, keyword, upper, pairs_by_source
        )[0]

    def refine_vertex_keyword_with_witness(
        self,
        v: Vertex,
        keyword: Label,
        upper: float,
        pairs_by_source: Optional[Mapping[Vertex, Tuple[Vertex, ...]]] = None,
        via: Optional[Mapping[Vertex, Tuple[float, Vertex]]] = None,
    ) -> Tuple[float, Optional[Vertex]]:
        """Eq. 5 plus the keyword vertex realizing the refined distance.

        The witness is ``None`` when ``upper`` was not improved (the
        caller's existing match vertex remains correct).  ``via`` is the
        keyword's :meth:`keyword_detours` table when the caller already
        holds it (ARefine builds one per query keyword).
        """
        best = upper
        witness: Optional[Vertex] = None
        from_v = self.vertex_portal.portal_distances(v)
        if not from_v:
            return best, witness
        if via is None:
            via = self.keyword_detours(keyword, pairs_by_source)
        for pi, d1 in from_v.items():
            if d1 >= best:
                continue
            hit = via.get(pi)
            if hit is not None and d1 + hit[0] < best:
                best, witness = d1 + hit[0], hit[1]
        return best, witness

    # ------------------------------------------------------------------
    def private_to_public_vertex(self, v: Vertex, u: Vertex) -> float:
        """Distance from private vertex ``v`` to public vertex ``u``.

        Paths must exit through some portal: ``min over p of
        d'(v, p) + d_public(p, u)``.
        """
        best = INF
        for p, d1 in self.vertex_portal.portal_distances(v).items():
            d2 = self.public.vertex_distance(p, u)
            if d1 + d2 < best:
                best = d1 + d2
        return best

    def private_to_public_keyword(
        self, v: Vertex, keyword: Label
    ) -> Tuple[float, Optional[Vertex]]:
        """Nearest *public* vertex carrying ``keyword`` from private ``v``.

        The AComplete building block: exit through the best portal and
        finish with a KPADS lookup.  Returns ``(distance, witness)``.
        """
        best = INF
        witness: Optional[Vertex] = None
        for p, d1 in self.vertex_portal.portal_distances(v).items():
            d2, w = self.public.keyword_distance_with_witness(p, keyword)
            if d1 + d2 < best:
                best = d1 + d2
                witness = w
        return best, witness
