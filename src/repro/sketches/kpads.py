"""Keyword-PADS (KPADS) — per-keyword distance sketches (paper Sec. V-B).

For each keyword ``t`` the sketch ``KPADS(t)`` merges the PADS of every
vertex carrying ``t``, keeping for each center the *smallest* distance.
A vertex-to-keyword distance is then estimated (Eq. 3) as

    d_hat(v, t) = min over common centers w of PADS(v)[w] + KPADS(t)[w]

with the same ``(2c-1)`` guarantee as PADS (Lemma V.2).  KPADS also keeps
an inverted map from ``(keyword, center)`` to the *witness* vertex that
realized the minimal distance, so answer completion can report the actual
matched vertex, not just its distance (the paper mentions this inverted
index in Appx. A).

Entries and witnesses are also read in the index file's flat form
(:class:`KeywordArrays`; a built sketch flattens a keyword on its first
batched probe), beside the PADS rows' (:class:`PadsArrays`):
:meth:`KeywordSketch.estimate_with_witness_many` probes many vertices
for one keyword in one pass over those arrays.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.graph.frozen import FrozenGraph
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.sketches.base import DistanceSketch, PadsArrays, RowSource

__all__ = ["KeywordArrays", "KeywordSketch", "build_kpads", "ranked"]

#: Fewer vertices than this and a batched probe runs the scalar loop.  The
#: array pass has a fixed cost that grows with |KPADS(t)|, not with |V|:
#: setting and clearing the keyword's entries in two per-thread columns.
#: On the 20k-vertex bench index (median keyword ~900 entries) that is
#: ~60-120 us against ~2-4 us per scalar probe, and the array pass
#: overtakes the loop between 48 and 64 vertices; for the two largest
#: keywords (~15k entries) it costs ~300 us and wins well before the
#: ~350 fresh roots a Blinks or BANKS query probes.
ARRAY_PROBE_MIN = 48

#: an unknown keyword's columns, shared and never cached
_NO_COLUMNS: Tuple[Any, Any, Any] = (
    np.empty(0, np.int32), np.empty(0, np.float64), np.empty(0, np.int32))

#: per thread and left clear between calls; kept here, not on a sketch,
#: because sketches pickle to shard workers and a thread-local cannot
_per_thread = threading.local()


def _keyword_columns(n: int) -> Tuple[Any, Any]:
    """This thread's dense keyword columns, center id -> distance and ->
    witness id: ``inf`` and ``-1`` (no such center) everywhere and at
    least ``n`` long.  A caller that sets entries clears them again
    before it returns."""
    columns = getattr(_per_thread, "columns", None)
    if columns is None or columns[0].size < n:
        columns = _per_thread.columns = (np.full(n, np.inf), np.full(n, -1, np.int32))
    return columns


def ranked(dists: Mapping[Vertex, float], k: int) -> List[Tuple[Vertex, float]]:
    """The ``k`` least items of ``dists`` by ``(distance, repr)``.

    A decorated C-level sort: the position breaks ``repr`` ties in
    insertion order, as a stable sort would, and no vertex is compared.
    """
    order = sorted(zip(dists.values(), map(repr, dists), count(), dists))
    return [(v, d) for d, _, _, v in order[:k]]


class KeywordArrays:
    """KPADS entries and witnesses in the index file's flat form (the
    ``kpads.*`` sections).

    Keyword row ``r`` is ``centers[indptr[r]:indptr[r + 1]]`` with
    ``dists`` and ``witnesses`` alongside; ``row_of`` maps a keyword to
    its row.  Centers and witnesses are ids into ``vertices``, the table
    the PADS rows' :class:`~repro.sketches.base.PadsArrays` index.
    """

    __slots__ = ("vertices", "row_of", "indptr", "centers", "dists", "witnesses")

    def __init__(
        self, vertices: List[Any], row_of: Mapping[Any, int], indptr: Any,
        centers: Any, dists: Any, witnesses: Any,
    ) -> None:
        self.vertices, self.row_of, self.indptr = vertices, row_of, indptr
        self.centers, self.dists, self.witnesses = centers, dists, witnesses

    def columns(self, keyword: Label) -> Tuple[Any, Any, Any]:
        """``keyword``'s ``(centers, dists, witnesses)``, empty if unknown."""
        row = self.row_of.get(keyword)
        a, b = (0, 0) if row is None else self.indptr[row : row + 2].tolist()
        return self.centers[a:b], self.dists[a:b], self.witnesses[a:b]


class _LazyColumns:
    """A built sketch's keyword columns, as :meth:`KeywordArrays.columns`
    gives them, each flattened from the entry and witness dicts on the
    keyword's first batched probe.

    A flattened keyword is published with ``setdefault``, as a loaded
    row is: readers racing on one keyword all read the first one.
    """

    __slots__ = ("vertices", "id_of", "entries", "witnesses", "flat")

    def __init__(
        self, vertices: List[Vertex], id_of: Mapping[Vertex, int],
        entries: Dict[Label, Dict[Vertex, float]],
        witnesses: Dict[Label, Dict[Vertex, Vertex]],
    ) -> None:
        self.vertices, self.id_of = vertices, id_of
        self.entries, self.witnesses = entries, witnesses
        self.flat: Dict[Label, Tuple[Any, Any, Any]] = {}

    def columns(self, keyword: Label) -> Tuple[Any, Any, Any]:
        """``keyword``'s ``(centers, dists, witnesses)``, empty if unknown
        (and then not kept: ``flat`` holds at most the vocabulary)."""
        flat = self.flat.get(keyword)
        if flat is None:
            merged = self.entries.get(keyword)
            if not merged:
                return _NO_COLUMNS
            witness = self.witnesses[keyword].__getitem__
            vid, size = self.id_of.__getitem__, len(merged)
            flat = self.flat.setdefault(keyword, (
                np.fromiter(map(vid, merged), np.int32, count=size),
                np.fromiter(merged.values(), np.float64, count=size),
                np.fromiter(map(vid, map(witness, merged)), np.int32, count=size),
            ))
        return flat


def _first_minima(
    pads: PadsArrays, vertices: Sequence[Vertex], centers: Any, dists: Any,
    witnesses: Any,
) -> Tuple[Any, Any]:
    """Per vertex, the least ``PADS(v)[w] + KPADS(t)[w]`` over common
    centers ``w`` and the witness id of the first center in row order
    that reaches it; ``(inf, -1)`` with no common center.

    One gather of every vertex's PADS row, one lookup of each entry's
    center in this thread's :func:`_keyword_columns` (set at the
    keyword's centers only and cleared again before returning), one
    minimum per row.  The fixed cost is ``O(|KPADS(t)|)``, not ``O(|V|)``,
    and concurrent readers share nothing mutable.
    """
    m = len(vertices)
    best, witness = np.full(m, np.inf), np.full(m, -1, np.int32)
    counts, row_centers, row_dists = pads.gather(vertices)
    if not row_centers.size or not centers.size:
        return best, witness
    d2, witness_of = _keyword_columns(len(pads.vertices))
    d2[centers], witness_of[centers] = dists, witnesses
    try:
        totals = row_dists + d2[row_centers]
        nonempty = np.flatnonzero(counts)
        heads = (np.cumsum(counts) - counts)[nonempty]
        mins = np.minimum.reduceat(totals, heads)
        at_min = np.flatnonzero(totals == np.repeat(mins, counts[nonempty]))
        first = at_min[np.searchsorted(at_min, heads)]
        found = mins < np.inf
        best[nonempty[found]] = mins[found]
        witness[nonempty[found]] = witness_of[row_centers[first[found]]]
    finally:
        d2[centers], witness_of[centers] = np.inf, -1
    return best, witness


class KeywordSketch:
    """The merged per-keyword sketches plus the vertex-keyword estimator.

    Besides the minimal per-center distance (``entries``), the sketch
    keeps a short per-center *candidate list* (``candidates``): the
    ``per_center`` nearest keyword vertices seen through each center.
    The single-witness estimator only needs ``entries``; the candidate
    lists power top-k retrieval for PP-knk's answer completion, where a
    single nearest match per portal would under-fill the top-k.

    Rows are held as in :class:`~repro.sketches.base.DistanceSketch`: the
    plain dicts ``rows`` / ``witness_rows`` / ``candidate_rows`` hold the
    keywords present so far, and a loaded sketch's ``source`` decodes a
    keyword's ``(entries, witnesses, candidates)`` triple on a miss.  The
    triple is published witnesses and candidates first, so a reader that
    finds a keyword in ``rows`` finds its witnesses too.  ``arrays`` holds
    entries and witnesses in flat form when the build or the file gave
    them (``None`` otherwise).
    """

    __slots__ = (
        "rows", "witness_rows", "candidate_rows", "source", "k", "per_center",
        "arrays",
    )

    def __init__(
        self,
        entries: Dict[Label, Dict[Vertex, float]],
        witnesses: Dict[Label, Dict[Vertex, Vertex]],
        k: int,
        candidates: Optional[Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]]] = None,
        per_center: int = 1,
        source: Optional[RowSource] = None,
        arrays: Optional[Union[KeywordArrays, _LazyColumns]] = None,
    ) -> None:
        self.rows = entries
        self.witness_rows = witnesses
        self.candidate_rows = candidates if candidates is not None else {}
        self.source = source
        self.k = k
        self.per_center = per_center
        self.arrays = arrays

    def _complete(self) -> None:
        """Decode every keyword not yet present, keeping file order."""
        source = self.source
        if source is not None:
            triples = list(map(self.fetch, source))
            self.witness_rows = dict(zip(source, (w for _, w, _ in triples)))
            self.candidate_rows = dict(zip(source, (c for _, _, c in triples)))
            self.rows = dict(zip(source, (e for e, _, _ in triples)))
            self.source = None

    @property
    def entries(self) -> Dict[Label, Dict[Vertex, float]]:
        """Every keyword's ``KPADS(t)``; decodes the ones not yet present."""
        self._complete()
        return self.rows

    @property
    def witnesses(self) -> Dict[Label, Dict[Vertex, Vertex]]:
        """Every keyword's center -> witness map (decodes all, as ``entries``)."""
        self._complete()
        return self.witness_rows

    @property
    def candidates(self) -> Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]]:
        """Every keyword's candidate lists (decodes all, as ``entries``)."""
        self._complete()
        return self.candidate_rows

    def fetch(self, keyword: Label) -> Tuple[Dict[Vertex, Any], ...]:
        """``keyword``'s ``(entries, witnesses, candidates)``, decoded on
        first touch (empty ones for an unknown keyword); every probe's miss
        path."""
        source, row = self.source, None
        if source is not None and keyword not in self.rows:
            row = source(keyword)
        if row is None:
            return (
                self.rows.get(keyword) or {},
                self.witness_rows.get(keyword) or {},
                self.candidate_rows.get(keyword) or {},
            )
        entries, witnesses, candidates = row
        witnesses = self.witness_rows.setdefault(keyword, witnesses)
        candidates = self.candidate_rows.setdefault(keyword, candidates)
        return self.rows.setdefault(keyword, entries), witnesses, candidates

    def sketch(self, keyword: Label) -> Mapping[Vertex, float]:
        """``KPADS(t)``: center -> min distance (empty if keyword unknown)."""
        return self.rows.get(keyword) or self.fetch(keyword)[0]

    def estimate(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> float:
        """Estimated ``d_hat(v, t)`` per Eq. 3; ``inf`` when not estimable."""
        return pads.estimate_to_sketch(
            v, self.rows.get(keyword) or self.fetch(keyword)[0]
        )

    def estimate_with_witness(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> Tuple[float, Optional[Vertex]]:
        """Like :meth:`estimate` but also return the witness vertex.

        The witness is the keyword-carrying vertex whose PADS contributed
        the winning center, i.e. the vertex AComplete should report as the
        match for ``keyword``.
        """
        kw_sketch = self.rows.get(keyword) or self.fetch(keyword)[0]
        sv = pads.rows.get(v) or pads.fetch(v)
        if not kw_sketch or not sv:
            return INF, None
        best = INF
        best_center: Optional[Vertex] = None
        for w, d1 in sv.items():
            d2 = kw_sketch.get(w)
            if d2 is not None and d1 + d2 < best:
                best = d1 + d2
                best_center = w
        if best_center is None:
            return INF, None
        witness = self.witness_rows.get(keyword, {}).get(best_center)
        return best, witness

    def estimate_with_witness_many(
        self, pads: DistanceSketch, vertices: Sequence[Vertex], keyword: Label
    ) -> List[Tuple[float, Optional[Vertex]]]:
        """:meth:`estimate_with_witness` of each of ``vertices``, in order,
        element for element (ties included: the first center in a PADS
        row's order wins), from one pass over both sketches' flat arrays.

        Fewer than :data:`ARRAY_PROBE_MIN` vertices, or a sketch without
        arrays, take the scalar loop.
        """
        kw_arrays, pads_arrays = self.arrays, pads.arrays
        if (
            len(vertices) < ARRAY_PROBE_MIN or kw_arrays is None
            or pads_arrays is None or kw_arrays.vertices is not pads_arrays.vertices
        ):
            return [self.estimate_with_witness(pads, v, keyword) for v in vertices]
        best, witness = _first_minima(
            pads_arrays, vertices, *kw_arrays.columns(keyword))
        vertex = pads_arrays.vertices
        return [
            (d, vertex[w]) if w >= 0 else (INF, None)
            for d, w in zip(best.tolist(), witness.tolist())
        ]

    def reach(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> Dict[Vertex, float]:
        """``{u: min over centers w of PADS(v)[w] + d2}`` over the per-center
        candidate lists, unranked, in first-seen order; each distance is
        the length of a real path ``v -> center -> candidate``."""
        kw_lists = self.candidate_rows.get(keyword) or self.fetch(keyword)[2]
        sv = pads.rows.get(v) or pads.fetch(v)
        best: Dict[Vertex, float] = {}
        if kw_lists and sv:
            for w, d1 in sv.items():
                for d2, u in kw_lists.get(w, ()):
                    total = d1 + d2
                    if total < best.get(u, INF):
                        best[u] = total
        return best

    def top_candidates(
        self, pads: DistanceSketch, v: Vertex, keyword: Label, k: int
    ) -> List[Tuple[Vertex, float]]:
        """Up to ``k`` distinct keyword vertices nearest to ``v``: the
        :meth:`reach` ranked by ``(distance, repr)`` and cut to ``k``."""
        return ranked(self.reach(pads, v, keyword), k)

    @property
    def num_keywords(self) -> int:
        """Number of keywords indexed."""
        return len(self.entries)

    @property
    def total_entries(self) -> int:
        """Total (keyword, center) entries — bounded by sum over vertices
        of ``|L(v)| * |PADS(v)|`` (paper Sec. V-B)."""
        return sum(len(s) for s in self.entries.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<KeywordSketch k={self.k} keywords={self.num_keywords} "
            f"entries={self.total_entries}>"
        )


def build_kpads(
    graph: "GraphLike",
    pads: DistanceSketch,
    keywords: Optional[Iterable[Label]] = None,
    per_center: int = 4,
) -> KeywordSketch:
    """Merge vertex PADS into per-keyword KPADS sketches.

    Parameters
    ----------
    keywords:
        Restrict the index to these keywords (defaults to the full label
        universe of ``graph``).
    per_center:
        Length of the per-center candidate list kept for top-k retrieval
        (1 reproduces the paper's minimal merge exactly).
    """
    import bisect

    vocab = list(keywords) if keywords is not None else list(graph.label_universe())
    entries: Dict[Label, Dict[Vertex, float]] = {}
    witnesses: Dict[Label, Dict[Vertex, Vertex]] = {}
    candidates: Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]] = {}
    for t in vocab:
        merged: Dict[Vertex, float] = {}
        wit: Dict[Vertex, Vertex] = {}
        lists: Dict[Vertex, List[Tuple[float, Vertex]]] = {}
        # repr order: equal-distance witness ties resolve the same way
        # regardless of set iteration order (PYTHONHASHSEED).
        for v in sorted(graph.vertices_with_label(t), key=repr):
            for center, d in pads.sketch(v).items():
                if d < merged.get(center, INF):
                    merged[center] = d
                    wit[center] = v
                lst = lists.setdefault(center, [])
                if len(lst) < per_center or d < lst[-1][0]:
                    # Insert keeping the (tiny) list sorted by distance;
                    # vertices may be incomparable, so don't tuple-sort.
                    pos = bisect.bisect_right([e[0] for e in lst], d)
                    lst.insert(pos, (d, v))
                    if len(lst) > per_center:
                        lst.pop()
        entries[t] = merged
        witnesses[t] = wit
        candidates[t] = lists
    # flat columns when the PADS arrays are in this graph's ids
    arrays = None
    if (
        isinstance(graph, FrozenGraph) and pads.arrays is not None
        and pads.arrays.vertices is graph.vertex_table
    ):
        arrays = _LazyColumns(graph.vertex_table, graph.id_table, entries, witnesses)
    return KeywordSketch(entries, witnesses, pads.k, candidates, per_center,
                         arrays=arrays)
