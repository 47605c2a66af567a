"""The k-nk semantic: top-k nearest keyword search (Jiang et al.,
SIGMOD'15; paper Sec. IV-C and Appx. A).

A query is a triple ``(v, q, k)``: find the ``k`` vertices nearest to the
query vertex ``v`` that carry keyword ``q``, ranked by distance.  The
index-free evaluation is a single Dijkstra from ``v`` that collects
matches lazily and stops at the ``k``-th — which is also exactly what
PEval runs on the private graph.

The paper notes (Sec. II) that the semantics "have been extended to the
conjunction and disjunction of multiple keywords":

* **conjunction** (``mode="and"``): the k nearest vertices carrying
  *every* query keyword;
* **disjunction** (``mode="or"``): the k nearest vertices carrying *at
  least one* query keyword.

Both are the same distance-ordered sweep with a different match
predicate, so :func:`knk_search` is :func:`knk_multi_search` with one
keyword — under either mode.
"""

from __future__ import annotations

from typing import Any, Callable, FrozenSet, Iterable, Optional, Sequence, Set

from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.graph.traversal import dijkstra_ordered
from repro.semantics.answers import KnkAnswer, Match
from repro.semantics.wire import check_count

__all__ = [
    "knk_search",
    "knk_multi_search",
    "check_knk_query",
    "check_mode",
    "display_keyword",
    "match_predicate",
    "matching_vertices",
]

_MODES = ("and", "or")


def check_knk_query(keywords: Sequence[Label], k: int, mode: str) -> None:
    """Raise :class:`QueryError` unless ``(keywords, k, mode)`` is a query."""
    check_count("k", k)
    if not keywords:
        raise QueryError("multi-keyword k-nk needs at least one keyword")
    check_mode("mode", mode)


def check_mode(field: str, mode: Any) -> str:
    """``mode`` if it is ``"and"`` or ``"or"``, else :class:`QueryError`."""
    if mode not in _MODES:
        raise QueryError(
            f"field {field!r}: mode must be one of {_MODES}, got {mode!r}"
        )
    return mode


def display_keyword(keywords: Sequence[Label], mode: str) -> str:
    """``"kw1&kw2"`` / ``"kw1|kw2"``: an answer's ``keyword`` field."""
    return ("&" if mode == "and" else "|").join(keywords)


def match_predicate(
    graph: "GraphLike", keywords: Sequence[Label], mode: str
) -> Callable[[Vertex], bool]:
    """The vertex-match test for a k-nk query.

    With one keyword conjunction and disjunction are the same test, and
    a plain ``has_label`` answers it without building a label set.
    """
    if len(keywords) == 1:
        keyword = keywords[0]
        return lambda v: graph.has_label(v, keyword)
    keyword_set = frozenset(keywords)
    if mode == "and":
        return lambda v: keyword_set <= graph.labels(v)
    return lambda v: bool(keyword_set & graph.labels(v))


def matching_vertices(
    graph: "GraphLike", keywords: Sequence[Label], mode: str
) -> FrozenSet[Vertex]:
    """The vertices :func:`match_predicate` accepts, from the inverted
    label index: for a small graph scanned far, one set probe per vertex
    beats a predicate call."""
    buckets = [graph.vertices_with_label(t) for t in keywords]
    if mode == "and":
        return frozenset.intersection(*buckets)
    return frozenset.union(*buckets)


def knk_multi_search(
    graph: "GraphLike",
    source: Vertex,
    keywords: Sequence[Label],
    k: int,
    mode: str = "and",
    cutoff: Optional[float] = None,
    extra_matches: Optional[Iterable[Vertex]] = None,
) -> KnkAnswer:
    """Top-``k`` nearest vertices matching ``keywords`` under ``mode``.

    Parameters
    ----------
    cutoff:
        Optional distance bound (matches further away are not reported).
    extra_matches:
        Vertices treated as matches regardless of labels — PEval admits
        the portal nodes this way so answers can later be completed with
        public-graph matches reached through them.

    The source vertex itself is a valid match when it carries the
    keywords (distance 0), consistent with [13].  The answer's
    ``keyword`` field records the query as ``"kw1&kw2"`` / ``"kw1|kw2"``
    for display purposes.
    """
    check_knk_query(keywords, k, mode)
    predicate = match_predicate(graph, keywords, mode)
    extras: Set[Vertex] = set(extra_matches or ())
    answer = KnkAnswer(source, display_keyword(keywords, mode), [])
    for v, d in dijkstra_ordered(graph, source, cutoff=cutoff):
        if predicate(v) or v in extras:
            answer.matches.append(Match(v, d))
            if len(answer.matches) >= k:
                break
    return answer


def knk_search(
    graph: "GraphLike",
    source: Vertex,
    keyword: Label,
    k: int,
    cutoff: Optional[float] = None,
    extra_matches: Optional[Iterable[Vertex]] = None,
) -> KnkAnswer:
    """Top-``k`` nearest vertices to ``source`` carrying ``keyword``."""
    if not keyword:
        raise QueryError("k-nk query needs a non-empty keyword")
    return knk_multi_search(
        graph, source, [keyword], k, cutoff=cutoff, extra_matches=extra_matches
    )
