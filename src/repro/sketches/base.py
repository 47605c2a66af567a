"""Core machinery shared by ADS and PADS (paper Sec. V-A).

Both indexes are *all-distance sketches*: each vertex ``v`` stores a small
map ``{center -> d(v, center)}``.  The two differ only in the priority
used to decide which vertices become centers — random values for ADS,
PageRank for PADS — so construction and estimation live here and the
concrete builders just supply a rank function.

Construction follows the paper's Algo 6: process candidate centers in
descending priority; from each, run a *pruned* Dijkstra that inserts the
center into the sketch of every visited vertex ``u`` unless ``u`` already
holds ``k`` centers at distance ``<= d`` (in which case the traversal does
not expand through ``u``).  The expected sketch size is ``O(k ln |V|)``.

The builder accepts any :class:`~repro.graph.protocol.GraphLike`, freezes
it (a no-op on the production public graph, which is already a
:class:`~repro.graph.frozen.FrozenGraph`) and runs the whole of Algo 6
over interned integer ids, with one FIFO bucket per queued distance
under a heap of the distances.  The sketches come out in the index
file's flat form (:class:`PadsArrays`), the one form a sketch has: the
per-vertex probes decode a row on its first touch, batched probes read
the arrays as they are.
"""

from __future__ import annotations

import bisect
import heapq
from itertools import chain, repeat
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Mapping, Optional,
    Protocol, Sequence, Tuple,
)

import numpy as np

from repro.exceptions import IndexBuildError
from repro.graph.frozen import FrozenGraph, freeze
from repro.graph.labeled_graph import Vertex
from repro.graph.traversal import INF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = [
    "DistanceSketch", "PadsArrays", "RowSource", "build_sketch_from_ranks", "row_pointers",
]


def row_pointers(sizes: Sequence[int]) -> Any:
    """Row pointers (int32) over rows of ``sizes`` entries: 0, then the
    running sum."""
    out = np.zeros(len(sizes) + 1, np.int32)
    np.cumsum(sizes, out=out[1:])
    return out


class RowSource(Protocol):
    """Where a loaded sketch's missing rows come from (the index file)."""

    def __call__(self, key: Any) -> Any:
        """The decoded row of ``key``; ``None`` when the file has none."""

    def __iter__(self) -> Iterator[Any]:
        """The row keys, in file order."""


class PadsArrays:
    """Sketch rows in the index file's flat form (the ``pads.*`` sections),
    the one form of every :class:`DistanceSketch`.

    Row ``r`` is ``centers[indptr[r]:indptr[r + 1]]`` (ids into
    ``vertices``) with ``dists`` alongside, in the row's iteration order;
    ``row_of`` maps a vertex to its row and iterates the vertices in row
    order.  Algo 6 writes the arrays (rows in id order), a loaded index
    reads the verified sections as they lie in the file, and
    :meth:`from_rows` flattens hand-made dict rows.  :meth:`__call__`
    decodes one row (the arrays are the sketch's :class:`RowSource`).
    """

    __slots__ = ("vertices", "row_of", "indptr", "centers", "dists")

    def __init__(
        self, vertices: List[Any], row_of: Mapping[Any, int], indptr: Any,
        centers: Any, dists: Any,
    ) -> None:
        self.vertices, self.row_of = vertices, row_of
        self.indptr, self.centers, self.dists = indptr, centers, dists

    @classmethod
    def from_rows(cls, rows: Mapping[Vertex, Mapping[Vertex, float]]) -> "PadsArrays":
        """``rows`` flattened, every map in iteration order.  The vertex
        table lists the owners in row order, then every other center in
        first-seen order."""
        row_of = dict(zip(rows, range(len(rows))))
        id_of = dict(row_of)
        for w in chain.from_iterable(rows.values()):
            id_of.setdefault(w, len(id_of))
        return cls(
            list(id_of), row_of, row_pointers(list(map(len, rows.values()))),
            np.fromiter(map(id_of.__getitem__, chain.from_iterable(rows.values())),
                        np.int32),
            np.fromiter(chain.from_iterable(r.values() for r in rows.values()),
                        np.float64),
        )

    def __iter__(self) -> Iterator[Any]:
        return iter(self.row_of)

    def __call__(self, v: Any) -> Optional[Dict[Any, float]]:
        row = self.row_of.get(v)
        if row is None:
            return None
        a, b = self.indptr[row : row + 2].tolist()
        centers = map(self.vertices.__getitem__, self.centers[a:b].tolist())
        return dict(zip(centers, self.dists[a:b].tolist()))

    def gather(self, vertices: Sequence[Any]) -> Tuple[Any, Any, Any]:
        """The rows of ``vertices`` laid end to end: each vertex's entry
        count (0 without a row), then every entry's center id and
        distance, row after row, each row in its own order."""
        rows = np.fromiter(
            map(self.row_of.get, vertices, repeat(-1)), np.int64, count=len(vertices))
        # a missing row (-1) reads indptr[-1] and indptr[0]: in bounds, count 0
        starts = self.indptr[rows].astype(np.int64)
        counts = np.where(rows >= 0, self.indptr[rows + 1] - starts, 0)
        offsets = np.cumsum(counts) - counts
        pos = np.arange(int(counts.sum())) + np.repeat(starts - offsets, counts)
        return counts, self.centers[pos], self.dists[pos]


class DistanceSketch:
    """Per-vertex distance sketches plus the two-hop distance estimator.

    ``entries[v]`` maps each center ``w`` in v's sketch to ``d(v, w)``.
    Estimation (paper Eq. 2) takes the best common center:

        d_hat(u, v) = min over w of  entries[u][w] + entries[v][w]

    Sketch distances are along real paths, so ``d_hat`` is always an upper
    bound of the true distance, and exact when ``u`` (or ``v``) is itself a
    center of the other's sketch.

    The sketch *is* its flat ``arrays`` (:class:`PadsArrays`), built by
    Algo 6, read from the index file or flattened from the dict rows
    ``entries`` when no ``arrays`` are given.  The rows decoded so far are
    the plain dict ``rows``; every probe reads it with ``dict.get``, and
    a miss decodes the vertex's row from ``source`` (the arrays): the
    first decoded row wins (``setdefault``), so racing readers all see one
    row object.  ``entries`` is the whole table: reading it decodes every
    missing row and drops ``source``.  Batched probes and the size
    figures read only the arrays.
    """

    __slots__ = ("rows", "source", "k", "kind", "arrays")

    def __init__(
        self,
        entries: Mapping[Vertex, Mapping[Vertex, float]],
        k: int,
        kind: str = "sketch",
        arrays: Optional[PadsArrays] = None,
    ) -> None:
        if arrays is None:
            arrays = PadsArrays.from_rows(entries)
        self.rows: Dict[Vertex, Dict[Vertex, float]] = {}
        self.source: Optional[RowSource] = arrays
        self.k = k
        self.kind = kind
        self.arrays = arrays

    @property
    def entries(self) -> Dict[Vertex, Dict[Vertex, float]]:
        """Every row, in build (file) order; decodes the ones not yet present."""
        source = self.source
        if source is not None:
            rows = self.rows
            self.rows = {v: rows.get(v) or source(v) for v in source}
            self.source = None
        return self.rows

    def fetch(self, v: Vertex) -> Optional[Dict[Vertex, float]]:
        """The miss path of every probe: ``v``'s row, decoded on first touch."""
        source = self.source
        if source is None:
            return self.rows.get(v)
        row = source(v)
        return None if row is None else self.rows.setdefault(v, row)

    # ------------------------------------------------------------------
    def sketch(self, v: Vertex) -> Mapping[Vertex, float]:
        """The sketch of ``v`` (empty mapping for unknown vertices)."""
        return self.rows.get(v) or self.fetch(v) or {}

    def estimate(self, u: Vertex, v: Vertex) -> float:
        """Estimated distance ``d_hat(u, v)`` (Eq. 2); ``inf`` if no overlap."""
        rows = self.rows
        if u == v:
            return 0.0 if u in rows or self.fetch(u) is not None else INF
        su = rows.get(u) or self.fetch(u)
        sv = rows.get(v) or self.fetch(v)
        if not su or not sv:
            return INF
        if len(su) > len(sv):
            su, sv = sv, su
        best = INF
        for w, d1 in su.items():
            d2 = sv.get(w)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
        return best

    def estimate_to_sketch(self, v: Vertex, other: Mapping[Vertex, float]) -> float:
        """Distance estimate between ``v`` and an externally built sketch.

        KPADS keyword lookups use this: ``other`` is the merged keyword
        sketch (Eq. 3).
        """
        sv = self.rows.get(v) or self.fetch(v)
        if not sv or not other:
            return INF
        if len(sv) > len(other):
            small, large = other, sv
        else:
            small, large = sv, other
        best = INF
        for w, d1 in small.items():
            d2 = large.get(w)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
        return best

    # ------------------------------------------------------------------
    # size figures, read off the arrays: they decode no row
    @property
    def num_vertices(self) -> int:
        """Number of vertices carrying a sketch."""
        return len(self.arrays.row_of)

    @property
    def total_entries(self) -> int:
        """Total number of ``(center, distance)`` entries (the index size)."""
        return int(self.arrays.indptr[-1])

    def average_size(self) -> float:
        """Mean sketch size — theory says ``O(k ln |V|)``."""
        n = self.num_vertices
        return self.total_entries / n if n else 0.0

    def centers(self) -> Iterable[Vertex]:
        """All distinct centers used anywhere in the index."""
        ids = np.unique(self.arrays.centers).tolist()
        return set(map(self.arrays.vertices.__getitem__, ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DistanceSketch kind={self.kind} k={self.k} "
            f"|V|={self.num_vertices} entries={self.total_entries}>"
        )


def build_sketch_from_ranks(
    graph: "GraphLike",
    ranks: Mapping[Vertex, float],
    k: int,
    kind: str = "sketch",
    tie_break: Optional[Mapping[Vertex, int]] = None,
) -> DistanceSketch:
    """Build an all-distance sketch given per-vertex priorities (Algo 6).

    Parameters
    ----------
    ranks:
        Priority of each vertex (higher = more likely to be a center);
        PageRank for PADS, uniform random values for ADS.
    k:
        The bottom-k parameter: a center at distance ``d`` enters the
        sketch of ``u`` only while fewer than ``k`` existing centers sit
        within distance ``d`` of ``u``.
    tie_break:
        Optional deterministic total order used when priorities tie.
        Defaults to vertex iteration order (which freezing keeps as the
        interning order).
    """
    if k < 1:
        raise IndexBuildError(f"sketch parameter k must be >= 1, got {k}")
    missing = [v for v in graph.vertices() if v not in ranks]
    if missing:
        raise IndexBuildError(
            f"ranks missing for {len(missing)} vertices (e.g. {missing[0]!r})"
        )

    return _build_sketch_frozen(freeze(graph), ranks, k, kind, tie_break)


def _build_sketch_frozen(
    graph: FrozenGraph,
    ranks: Mapping[Vertex, float],
    k: int,
    kind: str,
    tie_break: Optional[Mapping[Vertex, int]],
) -> DistanceSketch:
    """Algo 6 over interned ids.

    The CSR arrays are unpacked once into per-vertex ``(id, weight)``
    lists, amortized over the ``n`` pruned traversals of the build.  Each
    traversal queues a vertex only on a strict improvement of its
    tentative distance ``best`` and pops one FIFO bucket per distance
    under a heap of the distances.  Within a distance the order is free:
    whether a vertex takes the center and expands depends only on its
    distance and on earlier centers (DESIGN.md, "Equal-distance
    buckets").
    """
    indptr, indices, weights = (a.tolist() for a in graph.csr())
    adjacency = [
        list(zip(indices[lo:hi], weights[lo:hi]))
        for lo, hi in zip(indptr, indptr[1:])
    ]
    vx = graph.vertex_table
    n = len(vx)
    rank_of = [ranks[v] for v in vx]
    if tie_break is None:
        order = sorted(range(n), key=lambda i: (-rank_of[i], i))
    else:
        order = sorted(
            range(n), key=lambda i: (-rank_of[i], tie_break.get(vx[i], 0))
        )

    entries_ids: List[Dict[int, float]] = [{} for _ in range(n)]
    # the k smallest center distances each vertex holds, and the k-th of
    # them: a vertex at ``d >= kth[u]`` already has k centers within d
    nearest: List[List[float]] = [[] for _ in range(n)]
    kth = [INF] * n
    # tentative distances from the current center; the traversal puts
    # back ``INF`` at every vertex it touched, so no O(n) reset
    best = [INF] * n
    heappop, heappush, insort = heapq.heappop, heapq.heappush, bisect.insort

    for center in order:
        best[center] = 0.0
        touched = [center]
        buckets: Dict[float, List[int]] = {0.0: [center]}
        frontier = [0.0]
        while frontier:
            d = heappop(frontier)
            for u in buckets.pop(d):
                if d > best[u] or d >= kth[u]:
                    continue  # queued again closer, or pruned
                entries_ids[u][center] = d
                held = nearest[u]
                insort(held, d)
                if len(held) >= k:
                    del held[k:]
                    kth[u] = held[-1]
                for v, w in adjacency[u]:
                    nd = d + w
                    if nd < best[v]:
                        if best[v] == INF:
                            touched.append(v)
                        best[v] = nd
                        queued = buckets.get(nd)
                        if queued is None:
                            buckets[nd] = [v]
                            heappush(frontier, nd)
                        else:
                            queued.append(v)
        for v in touched:
            best[v] = INF

    row_ptr = row_pointers(np.fromiter(map(len, entries_ids), np.int32, count=n))
    total = int(row_ptr[-1])
    arrays = PadsArrays(
        vx, graph.id_table, row_ptr,
        np.fromiter(chain.from_iterable(entries_ids), np.int32, count=total),
        np.fromiter(chain.from_iterable(s.values() for s in entries_ids),
                    np.float64, count=total),
    )
    return DistanceSketch({}, k, kind, arrays=arrays)
