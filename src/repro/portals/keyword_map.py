"""Portal-keyword and vertex-portal distance maps (paper Sec. V-C).

Two small private-graph-side indexes complete the picture:

* **PKD** (portal-keyword distance map): for each portal ``p`` and each
  keyword ``t`` in the private graph's alphabet, the nearest private
  vertex carrying ``t`` and its distance ``d'(p, v)``.
* **Vertex-portal map**: ``d'(v, p)`` for every private vertex ``v`` and
  portal ``p`` — the entry/exit costs of paths that detour through the
  public graph (Eq. 4/5).

Both are filled by the same full Dijkstra per portal over the (small)
private graph, so construction is ``O(|P| * |G'| log |G'|)`` — and the
portal rows of the vertex-portal map double as the private all-pairs
portal distances ``d'(p_i, p_j)``
(:func:`repro.portals.distance_map.combined_portal_maps` reads them
there), so these ``|P|`` sweeps are the only private traversals an
attach runs.

* **Source rows** (:class:`PrivateSweeps`): what a k-nk PEval from one
  private source sweeps, stored on the attachment the first time a query
  reads it, so that later queries from that source replay it instead of
  sweeping ``G'`` again.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.traversal import INF, dijkstra, dijkstra_ordered

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
    """``(portal, keyword) -> PortalKeywordEntry`` over the private graph."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: Dict[Tuple[Vertex, Label], PortalKeywordEntry] = {}

    def record(self, portal: Vertex, keyword: Label, vertex: Vertex, d: float) -> None:
        """Keep the closest witness for ``(portal, keyword)``."""
        key = (portal, keyword)
        cur = self._entries.get(key)
        if cur is None or d < cur.distance:
            self._entries[key] = PortalKeywordEntry(vertex, d)

    def get(self, portal: Vertex, keyword: Label) -> Optional[PortalKeywordEntry]:
        """Lookup ``PKD(p, t)``; ``None`` when the keyword is unreachable."""
        return self._entries.get((portal, keyword))

    def distance(self, portal: Vertex, keyword: Label) -> float:
        """Distance-only lookup (``inf`` when absent)."""
        entry = self._entries.get((portal, keyword))
        return entry.distance if entry is not None else INF

    def __len__(self) -> int:
        return len(self._entries)


class VertexPortalDistanceMap:
    """``d'(v, p)`` for private vertices ``v`` and portals ``p``."""

    __slots__ = ("_by_vertex", "portals")

    def __init__(self, portals: Iterable[Vertex]) -> None:
        self.portals: FrozenSet[Vertex] = frozenset(portals)
        self._by_vertex: Dict[Vertex, Dict[Vertex, float]] = {}

    def record(self, v: Vertex, portal: Vertex, d: float) -> None:
        """Store ``d'(v, portal)``."""
        self._by_vertex.setdefault(v, {})[portal] = d

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
) -> Tuple[PortalKeywordDistanceMap, VertexPortalDistanceMap]:
    """Build PKD and the vertex-portal map with one Dijkstra per portal."""
    # repr order: per-vertex portal-distance dicts keep a deterministic
    # iteration order, so downstream min()-style tie-breaks are stable.
    portal_list = sorted((p for p in portals if p in private), key=repr)
    pkd = PortalKeywordDistanceMap()
    vpm = VertexPortalDistanceMap(portal_list)
    entries, by_vertex = pkd._entries, vpm._by_vertex
    labels_of = private.labels
    for p in portal_list:
        # The sweep settles by non-decreasing distance, so the first
        # vertex seen with a label is PKD(p, t): insert-if-absent.
        seen: Set[Label] = set()
        for v, d in dijkstra(private, p).items():
            row = by_vertex.get(v)
            if row is None:
                by_vertex[v] = {p: d}
            else:
                row[p] = d
            labels = labels_of(v)
            if not labels <= seen:
                for t in labels:
                    if t not in seen:
                        seen.add(t)
                        entries[(p, t)] = PortalKeywordEntry(v, d)
    return pkd, vpm


class _PopCount:
    """A budget that never expires: it counts the heap pops it is charged."""

    __slots__ = ("pops",)

    def __init__(self) -> None:
        self.pops = 0

    def checkpoint(self, cost: int = 1) -> None:
        self.pops += cost


class SourceRow:
    """What ``dijkstra_ordered(private, source)`` yields, as flat columns.

    ``ids`` are the settled vertices in settle order, as ids of the
    owning :class:`PrivateSweeps`' vertex table, and ``distances`` their
    distances from the source.  ``pops[i]`` is how many heap pops the
    sweep was charged before it yielded entry ``i``, and ``tail`` how many
    after the last entry, until its heap ran dry: replaying them as
    budget checkpoints charges a query exactly what the sweep would have.
    """

    __slots__ = ("ids", "distances", "pops", "tail", "_refined")

    def __init__(
        self, ids: array, distances: array, pops: array, tail: int
    ) -> None:
        self.ids = ids
        self.distances = distances
        self.pops = pops
        self.tail = tail
        self._refined: Dict[bool, array] = {}

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


class PrivateSweeps:
    """Per-source rows over one attachment's private graph (Sec. V-C).

    A row is filled on its first read by one unbudgeted
    :func:`~repro.graph.traversal.dijkstra_ordered` sweep, and published
    with ``setdefault``: racing first reads compute equal rows and one of
    them is kept.  Rows never change afterwards.  An edge change or
    removal replaces the attachment, rows included; a label change or a
    new isolated vertex changes no existing row's settle order (labels
    are read live when a row is replayed).  At most ``|V'|`` rows of at
    most ``|V'|`` entries each.
    """

    __slots__ = ("vertices", "_ids", "_rows", "_tickets")

    def __init__(self) -> None:
        #: the vertex table: row id -> private vertex
        self.vertices: Dict[int, Vertex] = {}
        self._ids: Dict[Vertex, int] = {}
        self._rows: Dict[Vertex, SourceRow] = {}
        self._tickets = itertools.count()

    def __len__(self) -> int:
        return len(self._rows)

    def row(self, private: LabeledGraph, source: Vertex) -> SourceRow:
        """``source``'s row, swept on the first read."""
        row = self._rows.get(source)
        if row is None:
            row = self._rows.setdefault(source, self._sweep(private, source))
        return row

    def _id(self, v: Vertex) -> int:
        # Lock-free interning: the table entry is written before its id
        # is published, and the ``setdefault`` winner's ticket is the id
        # (a losing ticket's entry is never read).
        i = self._ids.get(v)
        if i is None:
            ticket = next(self._tickets)
            self.vertices[ticket] = v
            i = self._ids.setdefault(v, ticket)
        return i

    def _sweep(self, private: LabeledGraph, source: Vertex) -> SourceRow:
        count = _PopCount()
        ids, distances, pops = array("i"), array("d"), array("I")
        charged = 0
        for v, d in dijkstra_ordered(private, source, budget=count):
            ids.append(self._id(v))
            distances.append(d)
            pops.append(count.pops - charged)
            charged = count.pops
        return SourceRow(ids, distances, pops, count.pops - charged)
