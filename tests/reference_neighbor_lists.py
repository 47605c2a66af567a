"""Test-only oracle: the neighbor index as it was before the label-setting
rewrite of :func:`repro.semantics.rclique.build_neighbor_lists`.

One heap entry per relaxed edge, a linear scan for "origin already
listed": slow, but its ``(distance, push-counter)`` pop order *defines*
the tie order of every list, which the production index must reproduce
exactly.  Kept verbatim; do not optimise.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Set, Tuple

from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike


def reference_neighbor_lists(
    graph: "GraphLike",
    candidates: Dict[Label, Set[Vertex]],
    tau: float,
    m: int,
) -> Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]]:
    out: Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]] = {}
    for keyword, origins in candidates.items():
        lists: Dict[Vertex, List[Tuple[float, Vertex]]] = {}
        heap: List[Tuple[float, int, Vertex, Vertex]] = []
        counter = itertools.count()
        for o in sorted(origins, key=repr):
            if o in graph:
                heap.append((0.0, next(counter), o, o))
        heapq.heapify(heap)
        while heap:
            d, _, v, origin = heapq.heappop(heap)
            lst = lists.setdefault(v, [])
            if len(lst) >= m or any(o == origin for _, o in lst):
                continue
            lst.append((d, origin))
            for u, w in graph.neighbor_items(v):
                nd = d + w
                if nd <= tau and len(lists.get(u, ())) < m:
                    heapq.heappush(heap, (nd, next(counter), u, origin))
        out[keyword] = lists
    return out
