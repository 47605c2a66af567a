"""Test-only oracle: r-clique star search as it was before the neighbor
index was settled lazily (:func:`repro.semantics.rclique.rclique_search`).

The index is built whole by :func:`reference_neighbor_lists` and
``FindTopAnswer`` reads complete lists, so its answers, their order and
their tie-breaks *define* what the paused index must reproduce.  The old
body statement for statement (budget and argument checks dropped); do
not optimise.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.rclique import _graph_radius_bound

from tests.reference_neighbor_lists import reference_neighbor_lists

_Stars = List[List[Tuple[Vertex, List[Tuple[int, Sequence[Tuple[float, Vertex]]]]]]]


def reference_find_top_answer(
    keywords: Sequence[Label],
    stars: _Stars,
    exclusions: Tuple[FrozenSet[Vertex], ...],
) -> Optional[RootedAnswer]:
    best: Optional[Tuple[int, Vertex, List[Tuple[int, Vertex, float]]]] = None
    best_weight = INF
    for i, rows in enumerate(stars):
        for root, others in rows:
            if root in exclusions[i]:
                continue
            weight = 0.0
            picks: List[Tuple[int, Vertex, float]] = []
            for j, nearest in others:
                excluded = exclusions[j]
                for d, u in nearest:
                    if u not in excluded:
                        break
                else:
                    break
                weight += d
                if weight >= best_weight:
                    break
                picks.append((j, u, d))
            else:
                if weight < best_weight:
                    best, best_weight = (i, root, picks), weight
    if best is None:
        return None
    i, root, picks = best
    matches: Dict[Label, Match] = {keywords[i]: Match(root, 0.0)}
    for j, u, d in picks:
        matches[keywords[j]] = Match(u, d)
    return RootedAnswer(root, matches)


def reference_rclique_search(
    graph: "GraphLike",
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
    extra_candidates: Optional[Iterable[Vertex]] = None,
    enforce_bound: bool = True,
    neighbor_list_size: Optional[int] = None,
    search_cutoff: Optional[float] = None,
) -> List[RootedAnswer]:
    unique_keywords = list(dict.fromkeys(keywords))
    extra = set(extra_candidates or ())
    candidates: Dict[Label, Set[Vertex]] = {}
    for q in unique_keywords:
        cand = set(graph.vertices_with_label(q)) | {v for v in extra if v in graph}
        if not cand:
            return []
        candidates[q] = cand

    if search_cutoff is not None:
        cutoff = search_cutoff
    elif enforce_bound:
        cutoff = tau
    else:
        cutoff = max(tau, _graph_radius_bound(graph))
    m = neighbor_list_size if neighbor_list_size is not None else k + 1
    lists = reference_neighbor_lists(graph, candidates, cutoff, m)
    stars: _Stars = [
        [
            (root, [
                (j, lists[qj].get(root, ()))
                for j, qj in enumerate(unique_keywords) if j != i
            ])
            for root in sorted(candidates[qi], key=repr)
        ]
        for i, qi in enumerate(unique_keywords)
    ]

    empty = tuple(frozenset() for _ in unique_keywords)
    first = reference_find_top_answer(unique_keywords, stars, empty)
    if first is None:
        return []

    results: List[RootedAnswer] = []
    seen_answers: Set[Tuple[Tuple[Label, Vertex], ...]] = set()
    seen_spaces: Set[Tuple[FrozenSet[Vertex], ...]] = {empty}
    heap: List[Tuple[float, int, Tuple[FrozenSet[Vertex], ...], RootedAnswer]] = []
    tiebreak = itertools.count()
    heapq.heappush(heap, (first.weight(), next(tiebreak), empty, first))

    pops_remaining = max(64, 16 * k)
    while heap and len(results) < k and pops_remaining > 0:
        pops_remaining -= 1
        _, _, space, answer = heapq.heappop(heap)
        signature = tuple(
            sorted(((q, m.vertex) for q, m in answer.matches.items()), key=repr)
        )
        if signature in seen_answers:
            continue
        seen_answers.add(signature)
        if not enforce_bound or answer.within_bound(tau):
            results.append(answer)
        for i, qi in enumerate(unique_keywords):
            matched = answer.matches[qi].vertex
            if matched is None:
                continue
            new_space = tuple(
                excl | {matched} if j == i else excl
                for j, excl in enumerate(space)
            )
            if new_space in seen_spaces:
                continue
            seen_spaces.add(new_space)
            nxt = reference_find_top_answer(unique_keywords, stars, new_space)
            if nxt is not None:
                heapq.heappush(heap, (nxt.weight(), next(tiebreak), new_space, nxt))

    results.sort(key=RootedAnswer.sort_key)
    return results
