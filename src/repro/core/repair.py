"""Witness repair: re-qualify answers by equal-distance witness swaps.

Distance ties are common on unit-weight graphs, and the qualification of
Def. II.2 depends on *which* witness a match slot holds, not only on its
distance.  An answer whose matches all landed on private vertices can
therefore fail the public-private test even though an equally close
public witness exists (and vice versa).  Before pruning such an answer,
the AComplete steps call :func:`try_requalify`, which looks for a single
equal-distance swap that adds the missing side:

* missing the *public* side — for some keyword, a public-graph route of
  exactly the recorded distance (direct KPADS lookup for public roots,
  portal + KPADS for private roots);
* missing the *private* side — for some keyword, a portal-entry route of
  exactly the recorded distance ending at a private PKD witness.

Swaps never change distances, so weights, bounds and the quality lemmas
are untouched.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.partial import PartialAnswer
from repro.core.qualify import answer_sides
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF

__all__ = ["try_requalify"]

_EPS = 1e-12


class _PortalReach:
    """Best known distances from one root to the portals, memoized.

    The private side is the root's Eq.-4 table
    (:meth:`~repro.portals.oracle.CombinedDistanceOracle.vertex_detours`):
    ``d'(root, p_i) + dc(p_i, portal)`` through the Algo-7 combined
    portal map, whose ``i = j`` term is the private-only distance — the
    combined distance between two portals can beat both single-graph
    routes (a mixed path alternating sides), and ``dc`` is the only
    structure that records it.  A public root also has the sketch's
    direct estimate.  The values do not depend on the keyword being
    repaired, so one instance serves every keyword of an answer; the
    table is built on first use.
    """

    __slots__ = ("engine", "attachment", "root", "_detours", "_memo")

    def __init__(self, engine, attachment, root: Vertex) -> None:
        self.engine, self.attachment, self.root = engine, attachment, root
        self._detours: Optional[Dict[Vertex, float]] = None
        self._memo: Dict[Vertex, float] = {}

    def __call__(self, portal: Vertex) -> float:
        best = self._memo.get(portal)
        if best is None:
            if self._detours is None:
                self._detours = self.attachment.oracle.vertex_detours(self.root)
            best = self._detours.get(portal, INF)
            engine = self.engine
            if self.root in engine.public:
                best = min(
                    best, engine.index.provider().vertex_distance(self.root, portal)
                )
            self._memo[portal] = best
        return best


def _public_route(
    engine, attachment, root: Vertex, keyword: Label, cache,
    reach: _PortalReach,
) -> Tuple[float, Optional[Vertex]]:
    """Best public-side witness for (root, keyword), root public or private.

    Portals carrying the keyword (in either graph — labels union on the
    combined view) also count: a portal belongs to ``G.V``.
    """
    best, witness = INF, None
    if root in engine.public:
        best, witness = engine.index.provider().keyword_distance_with_witness(
            root, keyword
        )
    for portal, d1 in (
        attachment.oracle.vertex_portal.portal_distances(root).items()
    ):
        pub_d, w = cache.lookup(engine, portal, keyword)
        if w is not None and d1 + pub_d < best:
            best, witness = d1 + pub_d, w
    for portal in attachment.portals:
        if attachment.private.has_label(portal, keyword):
            d = reach(portal)
            if d < best:
                best, witness = d, portal
    return best, witness


def _private_route(
    engine, attachment, root: Vertex, keyword: Label, reach: _PortalReach
) -> Tuple[float, Optional[Vertex]]:
    """Best private-side witness for (root, keyword) through the portals."""
    pkd = attachment.oracle.pkd
    best, witness = INF, None
    for pj in attachment.portals:
        d = reach(pj)
        # a portal in G'.V carrying the keyword (even only via its public
        # labels) is itself a private-side witness
        if d < best and (
            engine.public.has_label(pj, keyword)
            or attachment.private.has_label(pj, keyword)
        ):
            best, witness = d, pj
        entry = pkd.get(pj, keyword)
        if entry is not None and d + entry.distance < best:
            best, witness = d + entry.distance, entry.vertex
    return best, witness


def try_requalify(
    engine,
    attachment,
    partial: PartialAnswer,
    keywords: List[Label],
    cache,
) -> bool:
    """Attempt one equal-distance witness swap to pass Def. II.2.

    Returns ``True`` if the answer now qualifies (possibly after a swap),
    ``False`` if no lossless swap exists.
    """
    public = engine.public
    private = attachment.private
    matches = partial.answer.matches
    touches_private, touches_public = answer_sides(
        (m.vertex for m in matches.values()), public, private
    )
    if touches_private and touches_public:
        return True

    reach = _PortalReach(engine, attachment, partial.root)
    for q in sorted(keywords):
        match = matches.get(q)
        if match is None or match.vertex is None:
            continue
        # Sides contributed by the *other* matches: a swap must not strip
        # the answer of the last witness for the side we are not fixing.
        others_private, others_public = answer_sides(
            (m.vertex for key, m in matches.items() if key != q),
            public, private,
        )
        if not touches_public:
            d, witness = _public_route(
                engine, attachment, partial.root, q, cache, reach
            )
            if witness is not None and abs(d - match.distance) <= _EPS:
                if others_private or witness in private:
                    match.vertex = witness
                    partial.public_matched.add(q)
        elif not touches_private:
            d, witness = _private_route(engine, attachment, partial.root, q, reach)
            if witness is not None and abs(d - match.distance) <= _EPS:
                if others_public or witness in public:
                    match.vertex = witness
        touches_private, touches_public = answer_sides(
            (m.vertex for m in matches.values()), public, private
        )
        if touches_private and touches_public:
            return True
    return False
