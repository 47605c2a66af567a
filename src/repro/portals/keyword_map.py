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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.traversal import INF, dijkstra

__all__ = [
    "PortalKeywordEntry",
    "PortalKeywordDistanceMap",
    "VertexPortalDistanceMap",
    "build_private_maps",
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
