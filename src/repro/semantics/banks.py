"""BANKS-style keyword search: explicit answer trees (Bhalotia et al.,
ICDE'02 — the paper's reference [2], the original backward expansion).

Where :mod:`repro.semantics.blinks` reports only the root and matched
leaves, BANKS materializes the *answer tree*: the union of shortest paths
from the root to one keyword origin per query keyword.  Trees are ranked
by total root-to-leaf distance, like the figure trees in the paper's
Fig. 1/2.

Implementation: one multi-origin Dijkstra per keyword (the Blinks
expansion kernel) that additionally records predecessor links, so each
root's tree is reconstructed by walking the per-keyword shortest-path
forests backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.protocol import GraphLike
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.blinks import keyword_expansion
from repro.semantics.wire import check_bound, check_count

__all__ = ["TreeAnswer", "banks_search", "keyword_expansion_with_paths"]


@dataclass
class TreeAnswer(RootedAnswer):
    """A rooted answer plus the explicit tree edges connecting it."""

    edges: Set[FrozenSet[Vertex]] = field(default_factory=set)

    def tree_weight(self, graph: "GraphLike") -> float:
        """Total weight of the answer tree's edges (BANKS's tree cost)."""
        return sum(graph.weight(*tuple(e)) for e in self.edges)

    def tree_vertices(self) -> Set[Vertex]:
        """All vertices appearing on the tree."""
        out: Set[Vertex] = {self.root}
        for e in self.edges:
            out.update(e)
        return out

    def is_connected_tree(self, graph: "GraphLike") -> bool:
        """Whether the edge set really connects root to every match.

        Used by validation/tests; the construction guarantees it, but a
        structured check keeps refactors honest.
        """
        adj: Dict[Vertex, Set[Vertex]] = {}
        for e in self.edges:
            u, v = tuple(e)
            if not graph.has_edge(u, v):
                return False
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        reached = {self.root}
        frontier = [self.root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in reached:
                        reached.add(y)
                        nxt.append(y)
            frontier = nxt
        return all(
            m.vertex in reached or m.vertex == self.root
            for m in self.matches.values()
            if m.vertex is not None
        )


def keyword_expansion_with_paths(
    graph: "GraphLike",
    origins: Iterable[Vertex],
    tau: float,
) -> Tuple[Dict[Vertex, Match], Dict[Vertex, Optional[Vertex]]]:
    """Multi-origin Dijkstra recording witnesses *and* predecessors.

    ``pred[v]`` is the next vertex on the shortest path from ``v`` back
    towards its nearest origin (``None`` at the origins themselves).
    """
    pred: Dict[Vertex, Optional[Vertex]] = {}
    return keyword_expansion(graph, origins, tau, pred=pred), pred


def banks_search(
    graph: "GraphLike",
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
) -> List[TreeAnswer]:
    """Top-``k`` BANKS answer trees for ``(keywords, tau)``.

    Each answer is a tree rooted at a connecting vertex whose leaves
    carry the query keywords, with ``d(root, leaf) <= tau`` per keyword.
    Ranked by total root-to-leaf distance (ties by root representation).
    """
    if not keywords:
        raise QueryError("BANKS query needs at least one keyword")
    check_bound("tau", tau)
    check_count("k", k)

    unique_keywords = list(dict.fromkeys(keywords))
    expansions: Dict[Label, Tuple[Dict[Vertex, Match], Dict[Vertex, Optional[Vertex]]]] = {}
    for q in unique_keywords:
        origins = graph.vertices_with_label(q)
        if not origins:
            return []
        expansions[q] = keyword_expansion_with_paths(graph, origins, tau)

    covers = sorted((exp[0] for exp in expansions.values()), key=len)
    candidate_roots = set(covers[0])
    for cover in covers[1:]:
        candidate_roots &= cover.keys()
        if not candidate_roots:
            return []

    answers: List[TreeAnswer] = []
    for root in candidate_roots:
        answer = TreeAnswer(root, {})
        for q in unique_keywords:
            reached, pred = expansions[q]
            match = reached[root]
            answer.matches[q] = match.copy()
            # Walk from the root back to the origin, collecting edges.
            v = root
            while pred[v] is not None:
                nxt = pred[v]
                answer.edges.add(frozenset((v, nxt)))
                v = nxt
        answers.append(answer)
    answers.sort(key=RootedAnswer.sort_key)
    return answers[:k]
