"""Answer qualification: the public-private answer test (Def. II.2).

An answer is *public-private* iff it contains (i) a keyword-carrying
vertex in the private graph's vertex set and (ii) a keyword-carrying
vertex in the public graph's vertex set.  The two conditions are
independent — a portal node belongs to both vertex sets, so a single
keyword-carrying portal satisfies both (the definition's memberships are
checked separately).

Distance ties are common on unit-weight graphs, and the test depends on
*which* witness a match slot holds, not only on its distance.  So the
steps that compare two routes for a slot keep the losing one when it
ties the match (within :data:`_EPS`) and ends on the side the match's
vertex lacks (:func:`note_tie`):

* PP-Blinks ARefine reads a keyword PEval missed off the Eq.-5 table,
  ``min_i d'(r, p_i) + via[q][p_i]``, a private-side route;
* PP-Blinks AComplete keeps the KPADS probe and the portal-exit routes
  it computes but does not take, and the sweep match a strictly nearer
  public route replaces;
* PP-r-clique AComplete reads the PKA row for the keywords it matched
  privately, and the Eq.-5 table for the ones it completed publicly.

:func:`qualify` then makes at most one swap to such a witness.  A swap
never changes a distance, so weights, bounds and the quality lemmas are
untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.graph.labeled_graph import Label, LabeledGraph, Vertex
from repro.graph.protocol import GraphLike
from repro.semantics.answers import Match, RootedAnswer

__all__ = ["answer_sides", "is_public_private_answer", "note_tie", "qualify"]

#: how far apart two route lengths may be and still tie
_EPS = 1e-12


def answer_sides(
    match_vertices: Iterable[Vertex],
    public: "GraphLike",
    private: LabeledGraph,
) -> Tuple[bool, bool]:
    """``(touches_private, touches_public)`` over keyword-match vertices."""
    touches_private = False
    touches_public = False
    for v in match_vertices:
        if v is None:
            continue
        if v in private:
            touches_private = True
        if v in public:
            touches_public = True
        if touches_private and touches_public:
            break
    return touches_private, touches_public


def is_public_private_answer(
    answer: RootedAnswer,
    public: "GraphLike",
    private: LabeledGraph,
) -> bool:
    """Def. II.2 for a rooted answer (only match vertices carry keywords)."""
    vertices = (m.vertex for m in answer.matches.values())
    touches_private, touches_public = answer_sides(vertices, public, private)
    return touches_private and touches_public


def note_tie(
    ties: Dict[Label, Tuple[float, Vertex]],
    keyword: Label,
    kept: Match,
    vertex: Optional[Vertex],
    distance: float,
    public: "GraphLike",
    private: LabeledGraph,
) -> None:
    """Record ``(distance, vertex)`` as ``keyword``'s tie if it is one.

    It is one when it lies within :data:`_EPS` of the ``kept`` match and
    ``vertex`` is on a side of Def. II.2 that ``kept.vertex`` is not (a
    portal match is on both, and needs none).
    """
    kept_vertex = kept.vertex
    if vertex is None or kept_vertex is None or abs(distance - kept.distance) > _EPS:
        return
    if kept_vertex in public:
        if kept_vertex in private or vertex not in private:
            return
    elif vertex not in public:
        return
    ties[keyword] = (distance, vertex)


def qualify(
    answer: RootedAnswer,
    ties: Dict[Label, Tuple[float, Vertex]],
    keywords: Sequence[Label],
    public: "GraphLike",
    private: LabeledGraph,
) -> bool:
    """Def. II.2 for ``answer``, after at most one swap to a recorded tie.

    Keywords are tried in sorted order.  A swap must keep the side the
    answer has: one non-portal match cannot serve both sides, so the
    other matches (or the witness itself, a portal) must still touch it.
    """
    matches = answer.matches
    touches_private, touches_public = answer_sides(
        (m.vertex for m in matches.values()), public, private
    )
    if touches_private and touches_public:
        return True
    for q in sorted(keywords):
        tie, match = ties.get(q), matches.get(q)
        if tie is None or match is None or abs(tie[0] - match.distance) > _EPS:
            continue
        witness = tie[1]
        others_private, others_public = answer_sides(
            (m.vertex for key, m in matches.items() if key != q), public, private
        )
        if touches_public:
            swap = witness in private and (others_public or witness in public)
        else:
            swap = witness in public and (others_private or witness in private)
        if swap:
            match.vertex = witness
            return True
    return False
