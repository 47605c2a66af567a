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

A KPADS is built, saved and loaded in the index file's flat form
(:class:`KeywordArrays`), beside the PADS rows'
(:class:`~repro.sketches.base.PadsArrays`): :func:`build_kpads` merges
the PADS arrays with a sort per keyword, the scalar probes decode the
part of a keyword they read on its first touch, and
:meth:`KeywordSketch.estimate_with_witness_many` probes many vertices
for one keyword in one pass over the arrays, decoding nothing.
"""

from __future__ import annotations

import threading
from itertools import chain, count
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import IndexBuildError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.sketches.base import DistanceSketch, PadsArrays, RowSource, row_pointers

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

#: a keyword's candidates in lean form: center -> its slot (a ``range``
#: of positions), then each candidate's distance and vertex
#: (:meth:`KeywordArrays.reach_row`)
ReachRow = Tuple[Dict[Vertex, range], List[float], List[Vertex]]

#: an unknown keyword's lean candidates, shared and never cached
_NO_REACH: ReachRow = ({}, [], [])

#: the merge's columns for a keyword without PADS entries: centers, dists,
#: witnesses, candidate list lengths, candidate dists and vertices
_NO_MERGE: Tuple[Any, ...] = (
    np.empty(0, np.int32), np.empty(0, np.float64), np.empty(0, np.int32),
    np.empty(0, np.int64), np.empty(0, np.float64), np.empty(0, np.int32),
)

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
    """KPADS in the index file's flat form (the ``kpads.*`` and ``cand.*``
    sections), the one form of every :class:`KeywordSketch`.

    Keyword row ``r`` is ``centers[indptr[r]:indptr[r + 1]]`` with
    ``dists`` and ``witnesses`` alongside; ``row_of`` maps a keyword to
    its row and iterates the keywords in row order.  The entry at
    position ``i`` of ``centers`` owns the candidate list
    ``cand_dists[cand_indptr[i]:cand_indptr[i + 1]]`` with
    ``cand_vertices`` alongside.  Centers, witnesses and candidates are
    ids into ``vertices``, the table the PADS rows'
    :class:`~repro.sketches.base.PadsArrays` index.  Every decode keeps the
    stored order: ties are broken by first-seen, so it is data.
    """

    __slots__ = (
        "vertices", "row_of", "indptr", "centers", "dists", "witnesses",
        "cand_indptr", "cand_dists", "cand_vertices",
    )

    def __init__(
        self, vertices: List[Any], labels: Iterable[Label], indptr: Any,
        centers: Any, dists: Any, witnesses: Any, cand_indptr: Any,
        cand_dists: Any, cand_vertices: Any,
    ) -> None:
        self.vertices, self.indptr = vertices, indptr
        self.row_of = {t: row for row, t in enumerate(labels)}
        self.centers, self.dists, self.witnesses = centers, dists, witnesses
        self.cand_indptr, self.cand_dists = cand_indptr, cand_dists
        self.cand_vertices = cand_vertices

    @classmethod
    def from_rows(
        cls,
        entries: Mapping[Label, Mapping[Vertex, float]],
        witnesses: Mapping[Label, Mapping[Vertex, Vertex]],
        candidates: Mapping[Label, Mapping[Vertex, Sequence[Tuple[float, Vertex]]]],
    ) -> "KeywordArrays":
        """Dict rows flattened, every map in iteration order.  A center
        without a candidate list gets an empty one; the vertex table lists
        the vertices in first-seen order."""
        merged = list(entries.values())
        wit_vertices = [witnesses[t][c] for t, m in entries.items() for c in m]
        lists = [
            candidates.get(t, {}).get(c, ()) for t, m in entries.items() for c in m
        ]
        pairs = list(chain.from_iterable(lists))
        id_of: Dict[Vertex, int] = {}
        for v in chain(chain.from_iterable(merged), wit_vertices, map(itemgetter(1), pairs)):
            id_of.setdefault(v, len(id_of))
        vid = id_of.__getitem__
        return cls(
            list(id_of), entries, row_pointers(list(map(len, merged))),
            np.fromiter(map(vid, chain.from_iterable(merged)), np.int32),
            np.fromiter(chain.from_iterable(m.values() for m in merged), np.float64),
            np.fromiter(map(vid, wit_vertices), np.int32),
            row_pointers(list(map(len, lists))),
            np.fromiter(map(itemgetter(0), pairs), np.float64),
            np.fromiter(map(vid, map(itemgetter(1), pairs)), np.int32),
        )

    def __iter__(self) -> Iterator[Label]:
        return iter(self.row_of)

    def _span(self, keyword: Label) -> Optional[Tuple[int, int]]:
        row = self.row_of.get(keyword)
        return None if row is None else tuple(self.indptr[row : row + 2].tolist())

    def columns(self, keyword: Label) -> Tuple[Any, Any, Any]:
        """``keyword``'s ``(centers, dists, witnesses)``, empty if unknown."""
        a, b = self._span(keyword) or (0, 0)
        return self.centers[a:b], self.dists[a:b], self.witnesses[a:b]

    def pairs(
        self, keyword: Label
    ) -> Optional[Tuple[Dict[Vertex, float], Dict[Vertex, Vertex]]]:
        """``keyword``'s decoded ``(entries, witnesses)``; ``None`` if unknown."""
        span = self._span(keyword)
        if span is None:
            return None
        a, b = span
        vertex = self.vertices.__getitem__
        centers = list(map(vertex, self.centers[a:b].tolist()))
        return (
            dict(zip(centers, self.dists[a:b].tolist())),
            dict(zip(centers, map(vertex, self.witnesses[a:b].tolist()))),
        )

    def reach_row(self, keyword: Label) -> Optional[ReachRow]:
        """``keyword``'s decoded candidates in lean form: center -> slot
        (the ``range`` of its list's positions), then every candidate's
        distance and vertex, slot after slot, each list in its stored
        order; ``None`` if unknown.  One ``range`` per center, not a
        list and its ``(dist, vertex)`` tuples: fewer objects to keep,
        for a loop that reads two list items per candidate."""
        span = self._span(keyword)
        if span is None:
            return None
        a, b = span
        ptr = self.cand_indptr[a : b + 1]
        lo, hi = int(ptr[0]), int(ptr[-1])
        ptr = (ptr - lo).tolist()
        vertex = self.vertices.__getitem__
        return (
            dict(zip(map(vertex, self.centers[a:b].tolist()), map(range, ptr, ptr[1:]))),
            self.cand_dists[lo:hi].tolist(),
            list(map(vertex, self.cand_vertices[lo:hi].tolist())),
        )

    def __call__(self, keyword: Label) -> Optional[Tuple[Dict[Vertex, Any], ...]]:
        """``keyword``'s whole decoded ``(entries, witnesses, candidates)``,
        candidates as center -> ``[(dist, vertex), ...]``; ``None`` if unknown."""
        pairs, reach = self.pairs(keyword), self.reach_row(keyword)
        if pairs is None or reach is None:
            return None
        entries, witnesses = pairs
        slots, dists, vertices = reach
        lists = [[(dists[i], vertices[i]) for i in slot] for slot in slots.values()]
        return entries, witnesses, dict(zip(entries, lists))


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

    As a :class:`~repro.sketches.base.DistanceSketch`, the sketch *is* its
    flat ``arrays`` (:class:`KeywordArrays`, flattened from the dict rows
    when none are given), and a probe decodes only the part of a keyword
    it reads, on first touch, published with ``setdefault``: the
    estimators the entries and witnesses (``rows``, ``witness_rows``;
    witnesses first, so a keyword in ``rows`` has its witnesses),
    :meth:`reach` the candidates in lean form (``reach_rows``).
    :meth:`fetch` decodes the whole triple into ``rows``,
    ``witness_rows`` and ``candidate_rows``; the ``entries``,
    ``witnesses`` and ``candidates`` tables decode every keyword.
    """

    __slots__ = (
        "rows", "witness_rows", "candidate_rows", "reach_rows", "source", "k",
        "per_center", "arrays",
    )

    def __init__(
        self,
        entries: Mapping[Label, Mapping[Vertex, float]],
        witnesses: Mapping[Label, Mapping[Vertex, Vertex]],
        k: int,
        candidates: Optional[
            Mapping[Label, Mapping[Vertex, Sequence[Tuple[float, Vertex]]]]
        ] = None,
        per_center: int = 1,
        arrays: Optional[KeywordArrays] = None,
    ) -> None:
        if arrays is None:
            arrays = KeywordArrays.from_rows(entries, witnesses, candidates or {})
        self.rows: Dict[Label, Dict[Vertex, float]] = {}
        self.witness_rows: Dict[Label, Dict[Vertex, Vertex]] = {}
        self.candidate_rows: Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]] = {}
        self.reach_rows: Dict[Label, ReachRow] = {}
        self.source: Optional[RowSource] = arrays
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
        """``keyword``'s whole ``(entries, witnesses, candidates)``, decoded
        on first touch (empty ones for an unknown keyword)."""
        source, row = self.source, None
        if source is not None and (
            keyword not in self.rows or keyword not in self.candidate_rows
        ):
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

    def _entries(self, keyword: Label) -> Dict[Vertex, float]:
        """The miss path of the estimators: ``keyword``'s entries, decoded
        with its witnesses on first touch (empty for an unknown keyword)."""
        pairs = None if self.source is None else self.arrays.pairs(keyword)
        if pairs is None:
            return self.rows.get(keyword) or {}
        self.witness_rows.setdefault(keyword, pairs[1])
        return self.rows.setdefault(keyword, pairs[0])

    def reach_row(self, keyword: Label) -> ReachRow:
        """``keyword``'s candidates in lean form
        (:meth:`KeywordArrays.reach_row`), decoded on first touch; an
        unknown keyword's is empty and not kept."""
        row = self.reach_rows.get(keyword)
        if row is None:
            row = self.arrays.reach_row(keyword)
            if row is None:
                return _NO_REACH
            row = self.reach_rows.setdefault(keyword, row)
        return row

    def sketch(self, keyword: Label) -> Mapping[Vertex, float]:
        """``KPADS(t)``: center -> min distance (empty if keyword unknown)."""
        return self.rows.get(keyword) or self._entries(keyword)

    def estimate(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> float:
        """Estimated ``d_hat(v, t)`` per Eq. 3; ``inf`` when not estimable."""
        return pads.estimate_to_sketch(
            v, self.rows.get(keyword) or self._entries(keyword)
        )

    def estimate_with_witness(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> Tuple[float, Optional[Vertex]]:
        """Like :meth:`estimate` but also return the witness vertex.

        The witness is the keyword-carrying vertex whose PADS contributed
        the winning center, i.e. the vertex AComplete should report as the
        match for ``keyword``.
        """
        kw_sketch = self.rows.get(keyword) or self._entries(keyword)
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

        Fewer than :data:`ARRAY_PROBE_MIN` vertices, or sketches whose
        arrays index different vertex tables, take the scalar loop.
        """
        kw_arrays, pads_arrays = self.arrays, pads.arrays
        if len(vertices) < ARRAY_PROBE_MIN or kw_arrays.vertices is not pads_arrays.vertices:
            return [self.estimate_with_witness(pads, v, keyword) for v in vertices]
        best, witness = _first_minima(
            pads_arrays, vertices, *kw_arrays.columns(keyword))
        vertex = pads_arrays.vertices
        return [
            (d, vertex[w]) if w >= 0 else (INF, None)
            for d, w in zip(best.tolist(), witness.tolist())
        ]

    def fold(
        self, pads: DistanceSketch, entries: Iterable[Tuple[Vertex, float]],
        keyword: Label, best: Dict[Vertex, float],
    ) -> Dict[Vertex, float]:
        """Fold every ``(v, offset)`` entry's candidates into ``best`` and
        return it: ``offset + (PADS(v)[w] + d2)`` over the per-center
        candidate lists, kept where strictly less than ``best``'s (new
        vertices in first-seen order).  Each sum is the length of a real
        path ``offset -> v -> center -> candidate``; the strict ``<``
        keeps the least, so the result is the minimum over every
        ``(entry, center, candidate)`` whatever the visiting order.

        The entries are visited in offset order (a stable sort), and a
        pair ``(v, w)`` is skipped when an earlier entry reached center
        ``w`` at a distance ``<= PADS(v)[w]``: that entry's offset is
        ``<=`` too, the same center lists the same candidates, and
        rounded addition is monotone in each operand, so every candidate
        already holds a total ``<=`` the one this pair would offer.
        """
        slots, dists, vertices = self.reach_rows.get(keyword) or self.reach_row(keyword)
        if slots:
            get, rows = best.get, pads.rows
            reached: Dict[Vertex, float] = {}  # center -> least distance folded
            for v, offset in sorted(entries, key=itemgetter(1)):
                for w, d1 in (rows.get(v) or pads.fetch(v)).items():
                    slot = slots.get(w)
                    if slot is None or reached.get(w, INF) <= d1:
                        continue
                    reached[w] = d1
                    for i in slot:
                        total = offset + (d1 + dists[i])
                        u = vertices[i]
                        if total < get(u, INF):
                            best[u] = total
        return best

    def reach(
        self, pads: DistanceSketch, v: Vertex, keyword: Label
    ) -> Dict[Vertex, float]:
        """``{u: min over centers w of PADS(v)[w] + d2}`` over the per-center
        candidate lists, unranked, in first-seen order: the :meth:`fold`
        of the one entry ``(v, 0.0)`` (``0.0 + s`` is ``s`` to the bit)."""
        return self.fold(pads, ((v, 0.0),), keyword, {})

    def top_candidates(
        self, pads: DistanceSketch, v: Vertex, keyword: Label, k: int
    ) -> List[Tuple[Vertex, float]]:
        """Up to ``k`` distinct keyword vertices nearest to ``v``: the
        :meth:`reach` ranked by ``(distance, repr)`` and cut to ``k``."""
        return ranked(self.reach(pads, v, keyword), k)

    # size figures, read off the arrays: they decode no keyword
    @property
    def num_keywords(self) -> int:
        """Number of keywords indexed."""
        return len(self.arrays.row_of)

    @property
    def total_entries(self) -> int:
        """Total (keyword, center) entries — bounded by sum over vertices
        of ``|L(v)| * |PADS(v)|`` (paper Sec. V-B)."""
        return int(self.arrays.indptr[-1])

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

    The merge runs on the PADS arrays, one keyword at a time.  The
    carriers' rows are gathered end to end, carriers in ``repr`` order
    (then in id order: equal-distance ties then resolve the same way
    whatever the set iteration order, PYTHONHASHSEED included), and
    sorted by ``(center, distance, arrival)``.  Each center's head is its
    minimum and witness (the first arrival wins a tie), its first
    ``per_center`` entries its candidate list, and the centers are laid
    out in order of first arrival.  ``pads`` must index ``graph``'s
    vertex table.
    """
    g, arrays = freeze(graph), pads.arrays
    vx = g.vertex_table
    if arrays.vertices is not vx and arrays.vertices != vx:
        raise IndexBuildError("the PADS rows do not index this graph's vertices")
    vocab = list(dict.fromkeys(g.label_universe() if keywords is None else keywords))
    reprs = list(map(repr, vx))
    rows: List[Tuple[Any, ...]] = []
    for t in vocab:
        carriers = sorted(g.label_ids(t), key=reprs.__getitem__)
        counts, centers, dists = arrays.gather(list(map(vx.__getitem__, carriers)))
        if not centers.size:
            rows.append(_NO_MERGE)
            continue
        owners = np.repeat(np.asarray(carriers, np.int32), counts)
        order = np.lexsort((dists, centers))  # stable: arrival breaks ties
        centers, dists, owners = centers[order], dists[order], owners[order]
        heads = np.flatnonzero(np.r_[True, centers[1:] != centers[:-1]])
        # the centers' groups in order of first arrival
        groups = np.argsort(np.minimum.reduceat(order, heads), kind="stable")
        starts = heads[groups]
        kept = np.minimum(np.diff(np.r_[heads, centers.size]), per_center)[groups]
        pos = np.arange(int(kept.sum())) + np.repeat(starts - (np.cumsum(kept) - kept), kept)
        rows.append((
            centers[starts], dists[starts], owners[starts],
            kept, dists[pos], owners[pos],
        ))
    columns = [np.concatenate(parts) for parts in zip(_NO_MERGE, *rows)]
    sizes = [len(row[0]) for row in rows]
    return KeywordSketch(
        {}, {}, pads.k, per_center=per_center,
        arrays=KeywordArrays(
            arrays.vertices, vocab, row_pointers(sizes), columns[0], columns[1],
            columns[2], row_pointers(columns[3]), columns[4], columns[5],
        ),
    )
