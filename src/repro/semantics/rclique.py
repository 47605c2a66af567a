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
    a list complete once it holds ``m`` entries or the frontier is empty.
    The attach and index-build sweeps use the same queue (DESIGN.md,
    "Equal-distance buckets")."""

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
_Star = Tuple[int, Vertex, List[Tuple[int, _Search]]]
_Stars = List[_Star]


def _cut_bound(search: _Search, root: Vertex, weight: float) -> float:
    """A lower bound, in every subspace excluding at least as much, on a
    star cut short at ``search`` with no candidate it could use: ``INF``
    (never an answer) when the root's list is full or the search is
    spent, else ``weight`` plus the least distance a later entry has."""
    if len(search.lists.get(root, ())) >= search.m or not search.frontier:
        return INF
    return weight + search.frontier[0]


#: a star's picks: ``(keyword j, its match, distance)`` per other keyword
_Picks = List[Tuple[int, Vertex, float]]


def _score(
    star: _Star,
    exclusions: Tuple[FrozenSet[Vertex], ...],
    bound: float,
    resume: bool,
) -> Optional[Tuple[float, Optional[_Picks]]]:
    """``star``'s weight and picks under ``exclusions`` when the weight is
    under ``bound``; else ``(lower bound for every child subspace, None)``.

    A list that runs out of usable origins resumes its search, while its
    next distance could still make the weight beat ``bound``, only if
    ``resume``; otherwise the star is deferred and the result is None.
    """
    i, root, others = star
    if root in exclusions[i]:
        return INF, None
    weight = 0.0
    picks: _Picks = []
    for j, search in others:
        excluded = exclusions[j]
        for d, u in search.lists.get(root, ()):
            if u not in excluded:
                break
        else:
            if not resume:
                return None
            found = search.nearest(root, excluded, weight, bound)
            if found is None:  # keyword j has no candidate that could win
                return _cut_bound(search, root, weight), None
            d, u = found
        weight += d
        if weight >= bound:
            return weight, None
        picks.append((j, u, d))
    return weight, picks


def _find_top_answer(
    keywords: Sequence[Label],
    stars: _Stars,
    exclusions: Tuple[FrozenSet[Vertex], ...],
    bounds: List[float],
    budget: Optional["QueryBudget"] = None,
) -> Tuple[Optional[RootedAnswer], List[float]]:
    """Algo 2's ``FindTopAnswer``: the star of least ``(weight, position)``,
    and the per-star lower bounds this scan leaves for the subspace's
    children.

    ``bounds[p]`` bounds star ``p``'s weight from below.  A child only
    adds exclusions, so a parent's exact score, the partial sum at which
    it cut a star short, or ``INF`` for a star it found unanswerable
    bounds every child (Kargar-An's branch and bound).  Stars are visited
    in ``(bound, position)`` order, and the scan stops at the first that
    cannot beat the best ``(weight, position)`` so far.

    A list that runs out resumes only while its next distance could still
    beat the best.  Before any star is scored nothing bounds that, so such
    a root is deferred and scored after the pass.  Each call charges
    ``budget`` one expansion per star, visited or not.
    """
    learned = list(bounds)
    best: Optional[Tuple[int, _Picks]] = None
    best_weight, best_pos = INF, len(stars)

    def beats(lower: float, p: int) -> bool:
        return lower < best_weight or (lower == best_weight and p < best_pos)

    def bound(p: int) -> float:
        # a star before the best in position wins a tie
        return best_weight if p > best_pos else math.nextafter(best_weight, INF)

    deferred: List[int] = []
    visited = 0
    for lower, p in sorted(zip(bounds, range(len(stars)))):
        if lower == INF or not beats(lower, p):
            break
        visited += 1
        if budget is not None:
            budget.checkpoint()
        scored = _score(stars[p], exclusions, bound(p), best is not None)
        if scored is None:
            deferred.append(p)
            continue
        learned[p], picks = scored
        if picks is not None:
            best, best_weight, best_pos = (p, picks), learned[p], p
    if budget is not None and visited < len(stars):
        budget.checkpoint(cost=len(stars) - visited)
    for p in deferred:
        if beats(bounds[p], p):
            scored = _score(stars[p], exclusions, bound(p), True)
            assert scored is not None  # a resumed scan never defers
            learned[p], picks = scored
            if picks is not None:
                best, best_weight, best_pos = (p, picks), learned[p], p
    if best is None:
        return None, learned
    p, picks = best
    i, root, _ = stars[p]
    matches: Dict[Label, Match] = {keywords[i]: Match(root, 0.0)}
    for j, u, d in picks:
        matches[keywords[j]] = Match(u, d)
    return RootedAnswer(root, matches), learned


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
    first, bounds = _find_top_answer(
        unique_keywords, stars, empty, [0.0] * len(stars), budget)
    if first is None:
        return []

    results: List[RootedAnswer] = []
    seen_answers: Set[Tuple[Tuple[Label, Vertex], ...]] = set()
    seen_spaces: Set[Tuple[FrozenSet[Vertex], ...]] = {empty}
    # each space with its top answer and the star bounds its scan left
    heap: List[Tuple[float, int, Tuple[FrozenSet[Vertex], ...], RootedAnswer,
                     List[float]]] = []
    tiebreak = itertools.count()
    heapq.heappush(heap, (first.weight(), next(tiebreak), empty, first, bounds))

    # Pop budget: with remove-only decomposition the space lattice is
    # exponential, and when fewer than k distinct answers exist an
    # unbounded loop would enumerate all of it.  Decomposing only spaces
    # whose top answer is fresh keeps the frontier linear in k; the
    # budget is a belt-and-braces cap.
    pops_remaining = max(64, 16 * k)
    while heap and len(results) < k and pops_remaining > 0:
        pops_remaining -= 1
        _, _, space, answer, bounds = heapq.heappop(heap)
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
            nxt, learned = _find_top_answer(
                unique_keywords, stars, new_space, bounds, budget)
            if nxt is not None:
                heapq.heappush(
                    heap, (nxt.weight(), next(tiebreak), new_space, nxt, learned))

    results.sort(key=RootedAnswer.sort_key)
    return results


def _graph_radius_bound(graph: "GraphLike") -> float:
    """A safe Dijkstra cutoff covering any shortest path in ``graph``.

    Sum of all edge weights upper-bounds every simple path; used only for
    small private graphs during PEval, where exactness matters more than
    the cutoff's tightness.
    """
    return sum(w for _, _, w in graph.edges()) or 1.0
