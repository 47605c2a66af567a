"""Test-only oracle: the KPADS merge as a loop over vertex-keyed dicts.

:func:`repro.sketches.kpads.build_kpads` merges the PADS arrays with one
sort per keyword.  This is the dict loop it replaced, kept as the
independent reference the array merge is checked against, order
included: each center's minimum and its witness (a strict ``<``, so the
first carrier to reach the minimum wins), its candidate list (a
bisect-stable insertion, capped at ``per_center``) and the centers in
order of first arrival.  Carriers are visited in ``repr`` order, and in
interning order among equal reprs (the array merge's order, and a fixed
one where a set's iteration order is not).  Slow; do not optimise.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.sketches.base import DistanceSketch

Rows = Tuple[
    Dict[Label, Dict[Vertex, float]],
    Dict[Label, Dict[Vertex, Vertex]],
    Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]],
]


def reference_kpads_merge(
    graph: "GraphLike",
    pads: DistanceSketch,
    keywords: Optional[Iterable[Label]] = None,
    per_center: int = 4,
) -> Rows:
    """``(entries, witnesses, candidates)`` per keyword, as dicts."""
    g = freeze(graph)
    vocab = list(keywords) if keywords is not None else list(g.label_universe())
    entries: Dict[Label, Dict[Vertex, float]] = {}
    witnesses: Dict[Label, Dict[Vertex, Vertex]] = {}
    candidates: Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]] = {}
    for t in vocab:
        merged: Dict[Vertex, float] = {}
        wit: Dict[Vertex, Vertex] = {}
        lists: Dict[Vertex, List[Tuple[float, Vertex]]] = {}
        carriers = sorted(g.vertices_with_label(t), key=g.intern)
        for v in sorted(carriers, key=repr):
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
    return entries, witnesses, candidates
