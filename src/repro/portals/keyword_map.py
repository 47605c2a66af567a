"""Portal-keyword and vertex-portal distance maps (paper Sec. V-C).

Two small private-graph-side indexes complete the picture:

* **PKD** (portal-keyword distance map): for each portal ``p`` and each
  keyword ``t`` in the private graph's alphabet, the nearest private
  vertex carrying ``t`` and its distance ``d'(p, v)``.
* **Vertex-portal map**: ``d'(v, p)`` for every private vertex ``v`` and
  portal ``p`` — the entry/exit costs of paths that detour through the
  public graph (Eq. 4/5).

Both read the same full Dijkstra per portal over the (small) private
graph: an attach sweeps the ``|P|`` portal rows of its
:class:`PrivateSweeps`, fills the vertex-portal map from them and leaves
PKD a view over them, whose columns are read off the rows on a keyword's
first lookup.  Construction is ``O(|P| * |G'| log |G'|)`` — and the
portal rows of the vertex-portal map double as the private all-pairs
portal distances ``d'(p_i, p_j)``
(:func:`repro.portals.distance_map.combined_portal_maps` reads them
there), so these ``|P|`` sweeps are the only private traversals an
attach runs.

* **Source rows** (:class:`PrivateSweeps`): what a Dijkstra from one
  private source settles, stored on the attachment: the portal rows at
  attach, any other source's the first time a k-nk query reads it, so
  that later queries from that source replay it instead of sweeping
  ``G'`` again.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.exceptions import VertexNotFoundError
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.traversal import INF

__all__ = [
    "PortalKeywordEntry",
    "PortalKeywordDistanceMap",
    "VertexPortalDistanceMap",
    "build_private_maps",
    "SourceRow",
    "PrivateSweeps",
]


@dataclass(frozen=True)
class PortalKeywordEntry:
    """``PKD(p, t)``: the nearest private vertex with ``t`` and its distance."""

    vertex: Vertex
    distance: float


class PortalKeywordDistanceMap:
    """``(portal, keyword) -> PortalKeywordEntry`` over the private graph.

    The map is a view over an attachment's portal rows: a keyword's
    column is read off the rows on its first lookup.  ``PKD(p, t)`` is
    the carrier of ``t`` with the least position in ``p``'s row, i.e. the
    first one ``p``'s sweep settles, and each entry is published with
    ``setdefault`` (racing first lookups compute equal entries).  The
    rows and ``G'``'s labels never change, so neither does an entry.
    """

    __slots__ = ("_entries", "_columns", "_rows", "_portals")

    def __init__(
        self,
        rows: Tuple[LabeledGraph, "PrivateSweeps"],
        portals: Sequence[Vertex],
    ) -> None:
        self._entries: Dict[Tuple[Vertex, Label], PortalKeywordEntry] = {}
        #: keywords whose column has been read off the rows
        self._columns: Set[Label] = set()
        #: the private graph and its sweeps
        self._rows = rows
        self._portals = tuple(portals)

    def get(self, portal: Vertex, keyword: Label) -> Optional[PortalKeywordEntry]:
        """Lookup ``PKD(p, t)``; ``None`` when the keyword is unreachable."""
        entry = self._entries.get((portal, keyword))
        if entry is None and keyword not in self._columns:
            self._column(*self._rows, keyword)
            entry = self._entries.get((portal, keyword))
        return entry

    def distance(self, portal: Vertex, keyword: Label) -> float:
        """Distance-only lookup (``inf`` when absent)."""
        entry = self.get(portal, keyword)
        return entry.distance if entry is not None else INF

    def _column(
        self, private: LabeledGraph, sweeps: "PrivateSweeps", keyword: Label
    ) -> None:
        ids, vertices, entries = sweeps._ids, sweeps.vertices, self._entries
        carriers = [ids[v] for v in private.vertices_with_label(keyword)]
        if carriers:
            for p in self._portals:
                row = sweeps.row(private, p)
                at = row.positions()
                n, end = len(at), len(row.ids)
                first = min([at[c] for c in carriers if c < n], default=end)
                if first < end:
                    entries.setdefault((p, keyword), PortalKeywordEntry(
                        vertices[row.ids[first]], row.distances[first]))
        self._columns.add(keyword)

    def items(self) -> List[Tuple[Tuple[Vertex, Label], PortalKeywordEntry]]:
        """Every ``((portal, keyword), entry)``, read off the rows in the
        order a fill in settle order meets them: portal by portal
        (``repr`` order), each key at its first carrier."""
        private, sweeps = self._rows
        labels_of, vertices = private.labels, sweeps.vertices
        entries: Dict[Tuple[Vertex, Label], PortalKeywordEntry] = {}
        for p in self._portals:
            row = sweeps.row(private, p)
            for i, d in zip(row.ids, row.distances):
                v = vertices[i]
                for t in labels_of(v):
                    if (p, t) not in entries:
                        entries[(p, t)] = PortalKeywordEntry(v, d)
        return list(entries.items())

    def __len__(self) -> int:
        return len(self.items())


class VertexPortalDistanceMap:
    """``d'(v, p)`` for private vertices ``v`` and portals ``p``."""

    __slots__ = ("_by_vertex", "portals")

    def __init__(self, portals: Iterable[Vertex]) -> None:
        self.portals: FrozenSet[Vertex] = frozenset(portals)
        self._by_vertex: Dict[Vertex, Dict[Vertex, float]] = {}

    def get(self, v: Vertex, portal: Vertex) -> float:
        """``d'(v, portal)`` (``inf`` when unreachable)."""
        row = self._by_vertex.get(v)
        return INF if row is None else row.get(portal, INF)

    def portal_distances(self, v: Vertex) -> Mapping[Vertex, float]:
        """All portal distances of ``v`` — the inner loop of Eq. 4/5."""
        return self._by_vertex.get(v, {})

    def __len__(self) -> int:
        return sum(len(m) for m in self._by_vertex.values())


def build_private_maps(
    private: LabeledGraph,
    portals: Iterable[Vertex],
    sweeps: Optional["PrivateSweeps"] = None,
) -> Tuple[PortalKeywordDistanceMap, VertexPortalDistanceMap]:
    """PKD and the vertex-portal map off one row per portal.

    Sweeps each portal's row of ``sweeps`` (a fresh :class:`PrivateSweeps`
    of ``private`` when none is given), fills the vertex-portal map from
    the rows and returns PKD as a view over them.
    """
    # repr order: per-vertex portal-distance dicts keep a deterministic
    # iteration order, so downstream min()-style tie-breaks are stable.
    portal_list = sorted((p for p in portals if p in private), key=repr)
    if sweeps is None:
        sweeps = PrivateSweeps(private)
    vpm = VertexPortalDistanceMap(portal_list)
    by_vertex, vertices = vpm._by_vertex, sweeps.vertices
    for p in portal_list:
        row = sweeps.row(private, p)
        for i, d in zip(row.ids, row.distances):
            v = vertices[i]
            distances = by_vertex.get(v)
            if distances is None:
                by_vertex[v] = {p: d}
            else:
                distances[p] = d
    return PortalKeywordDistanceMap((private, sweeps), portal_list), vpm


class SourceRow:
    """What a Dijkstra from one source settles, as flat columns.

    ``ids`` are the settled vertices in settle order, as ids of the
    owning :class:`PrivateSweeps`' vertex table, and ``distances`` their
    distances from the source.  ``pops[i]`` is how many queue pops the
    sweep made before it settled entry ``i`` (that one included), and
    ``tail`` how many after the last entry, until its queue ran dry:
    replaying them as budget checkpoints charges a query exactly what a
    budgeted :func:`~repro.graph.traversal.dijkstra_ordered` would.
    """

    __slots__ = ("ids", "distances", "pops", "tail", "_refined", "_positions")

    def __init__(
        self, ids: array, distances: array, pops: array, tail: int
    ) -> None:
        self.ids = ids
        self.distances = distances
        self.pops = pops
        self.tail = tail
        self._refined: Dict[bool, array] = {}
        self._positions: Optional[array] = None

    def refined(self, reduced: bool) -> array:
        """The column of Eq.-4-refined distances under one
        ``reduced_refinement`` setting; NaN marks an entry nobody has
        refined yet.  Racing first reads publish one column
        (``setdefault``) and fill its entries with equal values."""
        column = self._refined.get(reduced)
        if column is None:
            column = self._refined.setdefault(
                reduced, array("d", [float("nan")]) * len(self.distances)
            )
        return column

    def positions(self) -> array:
        """``positions()[i]``: where vertex id ``i`` stands in ``ids``,
        or ``len(ids)`` if the row never settles it.  Ids past the end
        are not settled either.  Built on the first call; racing first
        calls build equal arrays."""
        at = self._positions
        if at is None:
            at = array("i", [len(self.ids)]) * (max(self.ids) + 1)
            for position, i in enumerate(self.ids):
                at[i] = position
            self._positions = at
        return at


class PrivateSweeps:
    """Per-source rows over one attachment's private graph (Sec. V-C).

    The constructor interns ``G'``: dense ids in vertex order, and each
    vertex's adjacency as ``(id, weight)`` pairs in ``neighbor_items``
    order.  A row is swept on its first read by one int-indexed Dijkstra
    with :func:`~repro.graph.traversal.dijkstra_ordered`'s discipline —
    every unsettled neighbour is queued, in ``(distance, push counter)``
    order — so it settles the same vertices in the same order at the same
    distances after the same pops.  Its queue is one FIFO bucket per
    distance under a heap of the distances (DESIGN.md, "Equal-distance
    buckets").  Rows are published with ``setdefault``: racing first
    reads compute equal rows and one of them is kept.  Rows never change
    afterwards, and neither does the ``G'`` they were interned from: a
    dynamic edit builds a new attachment, sweeps included.  At most
    ``|V'|`` rows of at most ``|V'|`` entries each.
    """

    __slots__ = ("vertices", "_ids", "_adjacency", "_rows")

    def __init__(self, private: LabeledGraph) -> None:
        #: the vertex table: row id -> private vertex
        self.vertices: List[Vertex] = list(private.vertices())
        self._ids: Dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        id_of = self._ids.__getitem__
        self._adjacency: List[List[Tuple[int, float]]] = [
            [(id_of(u), w) for u, w in private.neighbor_items(v)]
            for v in self.vertices
        ]
        self._rows: Dict[Vertex, SourceRow] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def row(self, private: LabeledGraph, source: Vertex) -> SourceRow:
        """``source``'s row, swept on the first read; ``private`` is the
        ``G'`` these sweeps were built over."""
        row = self._rows.get(source)
        if row is None:
            i = self._ids.get(source)
            if i is None:
                raise VertexNotFoundError(source)
            row = self._rows.setdefault(source, self._sweep(i))
        return row

    def _sweep(self, source: int) -> SourceRow:
        adjacency = self._adjacency
        settled = bytearray(len(adjacency))
        ids, distances, pops = array("i"), array("d"), array("I")
        buckets: Dict[float, List[int]] = {0.0: [source]}
        frontier = [0.0]
        popped = 0
        while frontier:
            d = heapq.heappop(frontier)
            for v in buckets.pop(d):
                popped += 1
                if settled[v]:
                    continue
                settled[v] = 1
                ids.append(v)
                distances.append(d)
                pops.append(popped)
                popped = 0
                for u, w in adjacency[v]:
                    if not settled[u]:
                        nd = d + w
                        bucket = buckets.get(nd)
                        if bucket is None:
                            buckets[nd] = [u]
                            heapq.heappush(frontier, nd)
                        else:
                            bucket.append(u)
        return SourceRow(ids, distances, pops, popped)
