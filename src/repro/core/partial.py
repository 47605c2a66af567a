"""Partial answers and refinement indicators (paper Sec. III).

PEval runs the (modified) keyword-search algorithm on the private graph
and emits :class:`PartialAnswer` objects: an ordinary rooted answer plus

* the *refinement indicators* ``C`` — the vertex/keyword pairs whose
  recorded distances might shrink once the private graph is attached to
  the public one (consumed by ARefine), and
* completion and qualification bookkeeping — the keywords still routed
  through a portal or missing, and the equal-distance witnesses on the
  other side of Def. II.2 that the steps met while comparing routes
  (read by :func:`repro.core.qualify.qualify`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.graph.labeled_graph import Label, Vertex
from repro.semantics.answers import KnkAnswer, Match, RootedAnswer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.portals.keyword_map import SourceRow

__all__ = [
    "PairIndicator",
    "KeywordIndicator",
    "PartialAnswer",
    "PartialKnkAnswer",
    "salvage_rooted_answers",
]


@dataclass(frozen=True)
class PairIndicator:
    """A ``(v, u)`` vertex pair whose distance ARefine should tighten.

    ``keyword`` names the query keyword whose match produced the pair, so
    the refined distance can be written back into the right match slot.
    """

    v: Vertex
    u: Vertex
    keyword: Label


@dataclass(frozen=True)
class KeywordIndicator:
    """A ``(root, keyword)`` pair to tighten via portal-keyword detours.

    This is the Blinks-style indicator (paper Algo 4): the match vertex
    itself may change if a different keyword vertex becomes closer
    through the portals.
    """

    root: Vertex
    keyword: Label


@dataclass
class PartialAnswer:
    """A rooted partial answer with its refinement / completion metadata."""

    answer: RootedAnswer
    pair_indicators: List[PairIndicator] = field(default_factory=list)
    keyword_indicators: List[KeywordIndicator] = field(default_factory=list)
    #: keyword -> portal it is currently routed through (completion target)
    portal_routed: Dict[Label, Vertex] = field(default_factory=dict)
    #: keywords with no private match at all (Blinks "missing keywords")
    missing: Set[Label] = field(default_factory=set)
    #: keyword -> ``(distance, witness)`` of a route on the Def.-II.2 side
    #: the match may lack, kept where a step compared routes; qualification
    #: swaps to it only if it ties the match (:mod:`repro.core.qualify`)
    ties: Dict[Label, Tuple[float, Vertex]] = field(default_factory=dict)

    @property
    def root(self) -> Vertex:
        """The answer root (delegates to the wrapped answer)."""
        return self.answer.root

    def match(self, keyword: Label) -> Optional[Match]:
        """The match slot for ``keyword`` (``None`` if absent)."""
        return self.answer.matches.get(keyword)

    def set_match(self, keyword: Label, vertex: Optional[Vertex], d: float) -> None:
        """Write a match slot (creating it if needed)."""
        self.answer.matches[keyword] = Match(vertex, d)



def salvage_rooted_answers(
    partials: Iterable[PartialAnswer],
    tau: float,
    k: int,
) -> List[RootedAnswer]:
    """Best already-complete answers among ``partials`` (degraded mode).

    When a query budget expires mid-pipeline the interrupted step's work
    is lost, but partial answers whose every keyword is matched by a
    *genuine* vertex within ``tau`` are already structurally valid — the
    recorded distances are realized by actual paths, so they satisfy the
    achievability checks of :func:`repro.validation.validate_rooted_answer`.
    Keywords still routed through a portal or missing entirely disqualify
    an answer (the portal is not a real match).  The public-private
    qualification of Def. II.2 is *not* enforced here; degraded results
    are marked so callers know the answer set is best-effort.

    Bounded work: one pass plus a sort — safe to run after expiry.
    """
    out: List[RootedAnswer] = []
    for partial in partials:
        answer = partial.answer
        if partial.missing or partial.portal_routed or not answer.matches:
            continue
        if any(not m.is_resolved() for m in answer.matches.values()):
            continue
        if not answer.within_bound(tau):
            continue
        out.append(answer)
    out.sort(key=RootedAnswer.sort_key)
    return out[:k]


@dataclass
class PartialKnkAnswer:
    """PEval output for k-nk: the private top-k plus portal candidates.

    ``portal_entries`` lists ``(portal, d'(source, portal))`` pairs —
    completion extends each with the portal's public-side distance to the
    query keyword (Appx. A).  ``row`` is the source row PEval replayed;
    ``match_positions`` and ``portal_positions`` give the row entry of
    each match and each portal entry, where ARefine reads their refined
    distances.
    """

    answer: KnkAnswer
    pair_indicators: List[PairIndicator] = field(default_factory=list)
    portal_entries: List[Tuple[Vertex, float]] = field(default_factory=list)
    row: Optional["SourceRow"] = None
    match_positions: List[int] = field(default_factory=list)
    portal_positions: List[int] = field(default_factory=list)
