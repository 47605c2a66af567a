"""The r-clique keyword-search semantic (Kargar & An, PVLDB'11; Sec. IV-A).

A query is ``(Q, tau)``; an answer assigns one matched vertex per keyword
so that the matches are pairwise close.  Following the paper's Algo 2 we
use the *star* form of the approximation algorithm: each answer has a
root ``v_i`` (itself matching one keyword) and, for every other keyword
``q_j``, the candidate ``u_j`` nearest to the root.  Stars are enumerated
best-first with Lawler-style search-space decomposition to produce top-k
distinct answers; the star weight ``sum_j d(v_i, u_j)`` 2-approximates
the clique weight and the triangle inequality bounds pairwise distances
by ``2 tau`` (paper Thm. A.5 analyses the resulting quality).

Nearest-candidate queries are answered from a per-query *neighbor index*
(the paper builds Kargar-An's ``R = 3`` neighbor index): one multi-origin
Dijkstra per keyword records for every vertex its ``m`` nearest candidate
origins, so decomposition (which excludes candidates) can fall back to
the next-nearest entry without re-searching.  Each search pauses between
distance buckets, resuming only while a star could use what it settles.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import INF
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.wire import check_bound, check_count

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.budget import QueryBudget

__all__ = ["rclique_search", "NeighborLists", "build_neighbor_lists"]


class _Search:
    """One keyword's search (:func:`build_neighbor_lists`), paused between
    distance buckets.  Weights are positive, so no later bucket appends
    anything closer than ``frontier[0]``: an entry is final once appended,
    a list complete once it holds ``m`` entries or the frontier is empty."""

    __slots__ = ("graph", "tau", "m", "budget", "seeds", "queued", "buckets",
                 "frontier", "lists")

    def __init__(self, graph: "GraphLike", origins: Set[Vertex], tau: float,
                 m: int, budget: Optional["QueryBudget"]) -> None:
        self.graph, self.tau, self.m, self.budget = graph, tau, m, budget
        # Seed in repr order so equal-distance ties resolve the same way
        # regardless of set iteration order (PYTHONHASHSEED).
        self.seeds = [o for o in sorted(origins, key=repr) if o in graph]
        #: per origin: vertex -> smallest distance queued so far
        self.queued: List[Dict[Vertex, float]] = [{o: 0.0} for o in self.seeds]
        self.buckets = {0.0: [(o, rank) for rank, o in enumerate(self.seeds)]}
        self.frontier = [0.0]
        self.lists: Dict[Vertex, List[Tuple[float, Vertex]]] = {}
        self.settle()  # distance 0: every origin lists itself

    def settle(self) -> None:
        """Dequeue the next bucket, one budget expansion per entry."""
        graph, tau, m, budget = self.graph, self.tau, self.m, self.budget
        queued, buckets, frontier, lists = (
            self.queued, self.buckets, self.frontier, self.lists)
        d = heapq.heappop(frontier)
        # edge weights are positive: bucket d is complete once popped
        for v, rank in buckets.pop(d):
            if budget is not None:
                budget.checkpoint()
            lst = lists.get(v)
            if lst is None:
                lst = lists[v] = []
            best = queued[rank]
            if len(lst) >= m or d > best[v]:
                continue  # list full, or stale: the pair settled closer
            lst.append((d, self.seeds[rank]))
            for u, w in graph.neighbor_items(v):
                nd = d + w
                if nd <= tau and nd < best.get(u, INF) and len(lists.get(u, ())) < m:
                    best[u] = nd
                    bucket = buckets.get(nd)
                    if bucket is None:
                        buckets[nd] = [(u, rank)]
                        heapq.heappush(frontier, nd)
                    else:
                        bucket.append((u, rank))

    def nearest(self, v: Vertex, excluded: FrozenSet[Vertex], weight: float = 0.0,
                bound: float = INF) -> Optional[Tuple[float, Vertex]]:
        """``v``'s first origin outside ``excluded``, settling buckets only
        while ``weight`` plus the next one's distance is under ``bound``."""
        while True:
            lst = self.lists.get(v, ())
            for d, u in lst:
                if u not in excluded:
                    return d, u
            frontier = self.frontier
            if len(lst) >= self.m or not (frontier and weight + frontier[0] < bound):
                return None
            self.settle()


class NeighborLists:
    """Per-vertex sorted lists of nearest candidate origins per keyword,
    settled as read: :attr:`lists` completes every search."""

    __slots__ = ("searches",)

    def __init__(self, searches: Dict[Label, _Search]):
        self.searches = searches

    @property
    def lists(self) -> Dict[Label, Dict[Vertex, List[Tuple[float, Vertex]]]]:
        for search in self.searches.values():
            while search.frontier:
                search.settle()
        return {q: search.lists for q, search in self.searches.items()}

    def nearest(self, v: Vertex, keyword: Label,
                excluded: FrozenSet[Vertex]) -> Optional[Tuple[float, Vertex]]:
        """The nearest non-excluded candidate for ``keyword`` from ``v``."""
        search = self.searches.get(keyword)
        return None if search is None else search.nearest(v, excluded)


def build_neighbor_lists(
    graph: "GraphLike",
    candidates: Dict[Label, Set[Vertex]],
    tau: float,
    m: int,
    budget: Optional["QueryBudget"] = None,
) -> NeighborLists:
    """One bounded multi-origin Dijkstra per keyword, keeping ``m`` origins.

    Each vertex's list holds its ``m`` nearest *distinct* origins in
    non-decreasing distance order (entries leave the queue in distance
    order, so appends keep lists sorted).  The search is label-setting
    over ``(vertex, origin)`` pairs: a pair is queued only on a strict
    improvement of its best queued distance, so it settles once —
    ``O(|V| * min(m, |origins|) * deg)`` queue entries per keyword.

    Entries leave in ``(distance, push order)`` order, ties among equal
    distances being what fixes each list's order.  The queue is one FIFO
    bucket per distinct distance under a heap of those distances — the
    same order as a heap of entries, with list appends in place of
    sifts wherever distances repeat (always, on unit weights).
    ``budget`` (if given) is charged one expansion per entry dequeued.
    Only distance 0 is settled here, the rest as the index is read.
    """
    return NeighborLists({
        keyword: _Search(graph, origins, tau, m, budget)
        for keyword, origins in candidates.items()
    })


#: per keyword ``i`` and, within it, in ``repr`` order of the root:
#: ``(i, root, [(j, keyword j's search) for every other keyword j])``
_Stars = List[Tuple[int, Vertex, List[Tuple[int, _Search]]]]


def _find_top_answer(
    keywords: Sequence[Label],
    stars: _Stars,
    exclusions: Tuple[FrozenSet[Vertex], ...],
    budget: Optional["QueryBudget"] = None,
) -> Optional[RootedAnswer]:
    """Algo 2's ``FindTopAnswer``: the star of least ``(weight, position)``.

    A list that runs out resumes only while its next distance could still
    beat the best weight.  Before any star is scored nothing bounds that,
    so such a root is deferred: scored after the pass, in reverse, it
    precedes all roots scored before it and wins ties (the next float up).
    """
    best: Optional[Tuple[int, Vertex, List[Tuple[int, Vertex, float]]]] = None
    best_weight = INF
    deferred: _Stars = []
    for i, root, others in stars:
        if budget is not None:
            budget.checkpoint()
        if root in exclusions[i]:
            continue
        weight = 0.0
        picks: List[Tuple[int, Vertex, float]] = []
        for j, search in others:
            excluded = exclusions[j]
            for d, u in search.lists.get(root, ()):
                if u not in excluded:
                    break
            else:
                if best is None:
                    deferred.append((i, root, others))
                    break
                frontier = search.frontier
                found = frontier and weight + frontier[0] < best_weight and (
                    search.nearest(root, excluded, weight, best_weight))
                if not found:
                    break  # keyword j has no candidate that could win
                d, u = found
            weight += d
            if weight >= best_weight:
                break
            picks.append((j, u, d))
        else:
            if weight < best_weight:
                best, best_weight = (i, root, picks), weight
    for i, root, others in reversed(deferred):
        bound = math.nextafter(best_weight, INF)
        weight, picks = 0.0, []
        for j, search in others:
            found = search.nearest(root, exclusions[j], weight, bound)
            if found is None or weight + found[0] >= bound:
                break
            weight += found[0]
            picks.append((j, found[1], found[0]))
        else:
            best, best_weight = (i, root, picks), weight
    if best is None:
        return None
    i, root, picks = best
    matches: Dict[Label, Match] = {keywords[i]: Match(root, 0.0)}
    for j, u, d in picks:
        matches[keywords[j]] = Match(u, d)
    return RootedAnswer(root, matches)


def rclique_search(
    graph: "GraphLike",
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
    extra_candidates: Optional[Iterable[Vertex]] = None,
    enforce_bound: bool = True,
    neighbor_list_size: Optional[int] = None,
    search_cutoff: Optional[float] = None,
    budget: Optional["QueryBudget"] = None,
) -> List[RootedAnswer]:
    """Top-``k`` (approximate) r-clique answers for ``(keywords, tau)``.

    Parameters
    ----------
    extra_candidates:
        Vertices admitted as candidates for *every* keyword regardless of
        their labels — PEval passes the portal nodes here (Algo 2 line 1),
        leaving their keywords to be completed on the public graph.
    enforce_bound:
        When true (baseline behaviour) answers whose star distances
        exceed ``tau`` are discarded during the search.  PEval disables
        this: a partial answer over the private graph may still shrink
        below ``tau`` once portal detours are refined in.
    neighbor_list_size:
        Entries kept per (vertex, keyword) in the neighbor index;
        defaults to ``k + 1`` which suffices for ``k`` decompositions.
    search_cutoff:
        Radius of the neighbor index (Kargar-An's ``R``).  Defaults to
        ``tau`` when the bound is enforced, otherwise to a bound covering
        the whole graph.  PEval passes ``tau`` explicitly: like the
        paper's ``R = 3`` neighbor index, matches beyond the radius are
        not recorded even though over-``tau`` partials are kept.
    budget:
        Optional :class:`~repro.core.budget.QueryBudget` charged during
        index construction and star enumeration; expiry raises a
        :class:`~repro.exceptions.BudgetError`.
    """
    if not keywords:
        raise QueryError("r-clique query needs at least one keyword")
    check_bound("tau", tau)
    check_count("k", k)

    unique_keywords = list(dict.fromkeys(keywords))
    extra = set(extra_candidates or ())
    candidates: Dict[Label, Set[Vertex]] = {}
    for q in unique_keywords:
        cand = set(graph.vertices_with_label(q)) | {v for v in extra if v in graph}
        if not cand:
            return []  # some keyword is unmatchable
        candidates[q] = cand

    # The index cutoff: with the bound enforced a match beyond tau is
    # useless; without it we cap exploration at the requested radius or,
    # failing that, at a bound covering the whole graph.
    if search_cutoff is not None:
        cutoff = search_cutoff
    elif enforce_bound:
        cutoff = tau
    else:
        cutoff = max(tau, _graph_radius_bound(graph))
    m = neighbor_list_size if neighbor_list_size is not None else k + 1
    index = build_neighbor_lists(graph, candidates, cutoff, m, budget=budget)
    # repr order: equal-weight stars tie-break deterministically.
    stars: _Stars = [
        (i, root, [(j, index.searches[qj])
                   for j, qj in enumerate(unique_keywords) if j != i])
        for i, qi in enumerate(unique_keywords)
        for root in sorted(candidates[qi], key=repr)
    ]

    empty = tuple(frozenset() for _ in unique_keywords)
    first = _find_top_answer(unique_keywords, stars, empty, budget)
    if first is None:
        return []

    results: List[RootedAnswer] = []
    seen_answers: Set[Tuple[Tuple[Label, Vertex], ...]] = set()
    seen_spaces: Set[Tuple[FrozenSet[Vertex], ...]] = {empty}
    heap: List[Tuple[float, int, Tuple[FrozenSet[Vertex], ...], RootedAnswer]] = []
    tiebreak = itertools.count()
    heapq.heappush(heap, (first.weight(), next(tiebreak), empty, first))

    # Pop budget: with remove-only decomposition the space lattice is
    # exponential, and when fewer than k distinct answers exist an
    # unbounded loop would enumerate all of it.  Decomposing only spaces
    # whose top answer is fresh keeps the frontier linear in k; the
    # budget is a belt-and-braces cap.
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
        # Decompose (Algo 2 line 10): one subspace per keyword, excluding
        # that keyword's matched vertex.
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
            nxt = _find_top_answer(unique_keywords, stars, new_space, budget)
            if nxt is not None:
                heapq.heappush(heap, (nxt.weight(), next(tiebreak), new_space, nxt))

    results.sort(key=RootedAnswer.sort_key)
    return results


def _graph_radius_bound(graph: "GraphLike") -> float:
    """A safe Dijkstra cutoff covering any shortest path in ``graph``.

    Sum of all edge weights upper-bounds every simple path; used only for
    small private graphs during PEval, where exactness matters more than
    the cutoff's tightness.
    """
    return sum(w for _, _, w in graph.edges()) or 1.0
