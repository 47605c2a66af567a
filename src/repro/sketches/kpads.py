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
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.sketches.base import DistanceSketch, RowSource

__all__ = ["KeywordSketch", "build_kpads", "ranked"]


def ranked(dists: Mapping[Vertex, float], k: int) -> List[Tuple[Vertex, float]]:
    """The ``k`` least items of ``dists`` by ``(distance, repr)``.

    A decorated C-level sort: the position breaks ``repr`` ties in
    insertion order, as a stable sort would, and no vertex is compared.
    """
    order = sorted(zip(dists.values(), map(repr, dists), count(), dists))
    return [(v, d) for d, _, _, v in order[:k]]


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
    finds a keyword in ``rows`` finds its witnesses too.
    """

    __slots__ = (
        "rows", "witness_rows", "candidate_rows", "source", "k", "per_center",
    )

    def __init__(
        self,
        entries: Dict[Label, Dict[Vertex, float]],
        witnesses: Dict[Label, Dict[Vertex, Vertex]],
        k: int,
        candidates: Optional[Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]]] = None,
        per_center: int = 1,
        source: Optional[RowSource] = None,
    ) -> None:
        self.rows = entries
        self.witness_rows = witnesses
        self.candidate_rows = candidates if candidates is not None else {}
        self.source = source
        self.k = k
        self.per_center = per_center

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
    return KeywordSketch(entries, witnesses, pads.k, candidates, per_center)
