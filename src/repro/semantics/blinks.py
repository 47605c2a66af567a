"""The Blinks keyword-search semantic (He et al., SIGMOD'07; paper Sec. IV-B).

A query is ``(Q, tau)``.  An answer is a subtree rooted at ``r`` with one
leaf ``v_i`` per keyword ``q_i`` such that ``q_i in L(v_i)`` and
``d(r, v_i) <= tau``.  Answers are ranked by total root-to-leaf distance.

Evaluation is *backward expansion*: every vertex carrying ``q_i`` is a
search origin for ``q_i``; a multi-origin Dijkstra per keyword sweeps
backwards (the graph is undirected, so backward = forward here) and a
vertex becomes an answer root once every keyword's expansion has reached
it.  We track, per reached vertex and keyword, the nearest origin — the
witness leaf reported in the answer.  This runs all expansions to the
``tau`` cutoff, which is exactly the flooding cost the PPKWS paper's
baselines pay on the combined graph.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.wire import check_bound, check_count

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.budget import QueryBudget

__all__ = ["blinks_search", "keyword_expansion", "offset_expansion"]


def offset_expansion(
    graph: "GraphLike",
    seeds: Iterable[Tuple[float, Vertex, Vertex]],
    tau: float,
    budget: Optional["QueryBudget"] = None,
    pred: Optional[Dict[Vertex, Optional[Vertex]]] = None,
) -> Dict[Vertex, Match]:
    """Multi-source Dijkstra with per-source starting offsets, cut at ``tau``.

    ``seeds`` are ``(offset, vertex, witness)`` triples; the result maps
    every vertex ``u`` with ``min(offset + d(vertex, u)) <= tau`` to a
    :class:`Match` carrying that minimal total and the witness of the
    winning seed.  Equal totals resolve by seed order, then push order;
    a vertex is pushed only on a strict improvement (an entry that ties
    or trails an earlier one always loses to it).  ``pred``, if given,
    receives each reached vertex's predecessor on its shortest path
    (``None`` at a seed).  ``budget`` (if given) is charged one
    expansion per heap pop.
    """
    heap: List[Tuple[float, int, Vertex, Vertex, Optional[Vertex]]] = [
        (offset, rank, v, witness, None)
        for rank, (offset, v, witness) in enumerate(seeds)
        if offset <= tau
    ]
    counter = heap[-1][1] + 1 if heap else 0  # past the last seed's rank
    pushed: Dict[Vertex, float] = {}
    for offset, _, v, _, _ in heap:
        pushed[v] = min(offset, pushed.get(v, INF))
    heapq.heapify(heap)
    reached: Dict[Vertex, Match] = {}
    while heap:
        if budget is not None:
            budget.checkpoint()
        d, _, v, witness, parent = heapq.heappop(heap)
        if v in reached:
            continue
        reached[v] = Match(witness, d)
        if pred is not None:
            pred[v] = parent
        for u, w in graph.neighbor_items(v):
            nd = d + w
            if nd <= tau and nd < pushed.get(u, INF):
                pushed[u] = nd
                heapq.heappush(heap, (nd, counter, u, witness, v))
                counter += 1
    return reached


def keyword_expansion(
    graph: "GraphLike",
    origins: Iterable[Vertex],
    tau: float,
    budget: Optional["QueryBudget"] = None,
    pred: Optional[Dict[Vertex, Optional[Vertex]]] = None,
) -> Dict[Vertex, Match]:
    """Multi-origin Dijkstra with witness tracking, cut off at ``tau``.

    Returns, for every vertex within distance ``tau`` of some origin, a
    :class:`Match` holding the nearest origin and its distance.  Origins
    seed in ``repr`` order so equal-distance witness ties resolve the
    same way regardless of set iteration order (PYTHONHASHSEED).
    ``budget`` and ``pred`` are :func:`offset_expansion`'s.
    """
    seeds = [(0.0, o, o) for o in sorted(origins, key=repr) if o in graph]
    return offset_expansion(graph, seeds, tau, budget, pred)


def blinks_search(
    graph: "GraphLike",
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
    extra_origins: Optional[Dict[Label, Set[Vertex]]] = None,
    budget: Optional["QueryBudget"] = None,
) -> List[RootedAnswer]:
    """Top-``k`` Blinks answers for ``(keywords, tau)`` on ``graph``.

    Parameters
    ----------
    extra_origins:
        Additional per-keyword origin vertices admitted *as if* they
        carried the keyword.  PEval uses this to seed portal nodes so
        partial answers can route missing keywords through the public
        graph; plain baseline callers leave it unset.
    budget:
        Optional :class:`~repro.core.budget.QueryBudget` charged during
        the keyword expansions; expiry raises a
        :class:`~repro.exceptions.BudgetError`.

    Returns answers sorted by total weight (ascending), at most ``k``.
    """
    if not keywords:
        raise QueryError("Blinks query needs at least one keyword")
    check_bound("tau", tau)
    check_count("k", k)

    unique_keywords = list(dict.fromkeys(keywords))
    per_keyword: Dict[Label, Dict[Vertex, Match]] = {}
    for q in unique_keywords:
        origins: Set[Vertex] = set(graph.vertices_with_label(q))
        if extra_origins and q in extra_origins:
            origins |= {v for v in extra_origins[q] if v in graph}
        per_keyword[q] = (
            keyword_expansion(graph, origins, tau, budget=budget) if origins else {}
        )

    # Root discovery: vertices covered by every keyword expansion.  Start
    # from the smallest cover to keep the intersection cheap.
    covers = sorted(per_keyword.values(), key=len)
    if not covers or not covers[0]:
        return []
    candidate_roots = set(covers[0])
    for cover in covers[1:]:
        candidate_roots &= cover.keys()
        if not candidate_roots:
            return []

    answers = [
        RootedAnswer(
            r, {q: per_keyword[q][r].copy() for q in unique_keywords}
        )
        for r in candidate_roots
    ]
    answers.sort(key=RootedAnswer.sort_key)
    return answers[:k]
