"""Dynamic private graphs (the paper's stated future work, Sec. IX).

The paper concludes: "We will extend the PPKWS to support keyword search
on dynamic graphs."  Private graphs are the natural place to start — they
are per-user, small, and change frequently (new collaborations, new
private facts) — while the public graph and its PADS/KPADS indexes stay
fixed.

:class:`DynamicPrivateGraph` wraps an attached private graph and keeps
the per-user PPKWS state consistent under mutation:

* **edge/vertex insertion** is handled *incrementally*: adding an edge
  ``(u, v, w)`` can only shorten distances, so the vertex-portal map, the
  portal-keyword map and the private portal map are repaired by bounded
  relaxations seeded at the two endpoints — no full rebuild.  Before its
  first in-place repair, the portal-keyword map reads every column off
  the attach-time portal rows and drops them
  (:meth:`~repro.portals.keyword_map.PortalKeywordDistanceMap.materialize`):
  from then on it keeps what its compare-and-replace ``record`` keeps.
* **edge/vertex deletion** can lengthen distances, which monotone
  relaxation cannot repair; deletions therefore trigger a rebuild of the
  per-user maps (still cheap: ``O(|P| (|G'| log |G'| + |P|^2))``).

Both paths produce exactly the state :meth:`PPKWS.attach` would build
from scratch (tested by comparing against a fresh attachment).
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from repro.core.framework import Attachment, PPKWS
from repro.exceptions import GraphError
from repro.graph.labeled_graph import LabeledGraph, Vertex
from repro.graph.traversal import INF
from repro.portals.distance_map import combined_portal_maps
from repro.portals.keyword_map import PrivateSweeps
from repro.portals.oracle import CombinedDistanceOracle

__all__ = ["DynamicPrivateGraph"]


class DynamicPrivateGraph:
    """Mutation interface for an attached private graph.

    Example
    -------
    >>> from repro.graph import LabeledGraph
    >>> pub = LabeledGraph.from_edges([(0, 1), (1, 2)], {2: {"t"}})
    >>> priv = LabeledGraph.from_edges([(0, "x")])
    >>> engine = PPKWS(pub, sketch_k=2)
    >>> _ = engine.attach("u", priv)
    >>> dyn = DynamicPrivateGraph(engine, "u")
    >>> dyn.add_edge("x", "y")            # incremental repair
    >>> dyn.add_labels("y", {"t"})
    """

    def __init__(self, engine: PPKWS, owner: str) -> None:
        self.engine = engine
        self.owner = owner
        # Validates the owner exists.
        engine.attachment(owner)

    # ------------------------------------------------------------------
    @property
    def attachment(self) -> Attachment:
        """The current per-user state (replaced on structural rebuilds)."""
        return self.engine.attachment(self.owner)

    @property
    def graph(self) -> LabeledGraph:
        """The underlying private graph."""
        return self.attachment.private

    # ------------------------------------------------------------------
    # monotone updates: incremental repair
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add (or shorten) a private edge and repair the maps in place.

        New vertices are created as needed.  If the edge touches a public
        vertex, that vertex becomes a *new portal* — a structural change
        that falls back to a rebuild.
        """
        att = self.attachment
        private = att.private
        new_portal = any(
            x not in private and x in self.engine.public for x in (u, v)
        )
        if private.has_edge(u, v) and private.weight(u, v) <= weight:
            return  # no-op: not an improvement
        private.add_edge(u, v, weight)
        if new_portal:
            self._rebuild()
            return
        # The rows are a snapshot of G' before the edge, and no label
        # changed: materializing now still reads the attach-time PKD.
        att.oracle.pkd.materialize()
        self._relax_from(u)
        self._relax_from(v)
        self._refresh_portal_map()

    def add_vertex(self, v: Vertex, labels: Optional[set] = None) -> None:
        """Add an isolated private vertex (labels optional).

        Becomes a portal if ``v`` exists in the public graph — structural,
        so that path rebuilds.
        """
        att = self.attachment
        if v in att.private:
            if labels:
                self.add_labels(v, labels)
            return
        att.private.add_vertex(v, labels)
        if v in self.engine.public:
            self._rebuild()
        else:
            # Reachable from nothing yet, but already a legal query source
            # (and root): cached answers about it are out of date.
            self.engine._bump_owner_epoch(self.owner)

    def add_labels(self, v: Vertex, labels: set) -> None:
        """Attach labels to a private vertex and extend the PKD map."""
        att = self.attachment
        att.oracle.pkd.materialize()
        att.private.add_labels(v, labels)
        # The new labels make v a witness for each portal at the already
        # known vertex-portal distances.
        for p in att.portals:
            d = att.oracle.vertex_portal.get(v, p)
            if d < INF:
                for t in labels:
                    att.oracle.pkd.record(p, t, v, d)
        # The maps changed in place: move this owner's epoch or the
        # service's answer cache keeps returning answers computed without
        # the new labels.
        self.engine._bump_owner_epoch(self.owner)

    # ------------------------------------------------------------------
    # non-monotone updates: rebuild
    # ------------------------------------------------------------------
    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove a private edge (distances may grow: rebuild)."""
        self.attachment.private.remove_edge(u, v)
        self._rebuild()

    def remove_vertex(self, v: Vertex) -> None:
        """Remove a private vertex and its edges (rebuild).

        Portals may be removed; the attachment must keep at least one
        portal or the user can no longer receive public-private answers.
        """
        att = self.attachment
        att.private.remove_vertex(v)
        if not any(p in att.private for p in att.portals if p != v):
            raise GraphError(
                "removing this vertex would leave the private graph "
                "with no portal nodes"
            )
        self._rebuild()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _relax_from(self, source: Vertex) -> None:
        """Monotone repair of vertex-portal distances from ``source``.

        After an edge insertion, improved distances propagate outward
        from the endpoints; a Dijkstra that only *enqueues improvements*
        touches exactly the affected region.
        """
        att = self.attachment
        private = att.private
        vpm = att.oracle.vertex_portal
        pkd = att.oracle.pkd
        portals = [p for p in att.portals if p in private]
        if source not in private:
            return

        for p in portals:
            # Best distance p -> source available after the change:
            # either the recorded one, p itself (if source IS p), or via
            # a neighbor's recorded distance plus the incident edge.
            seed = 0.0 if source == p else vpm.get(source, p)
            for nbr, w in private.neighbor_items(source):
                seed = min(seed, vpm.get(nbr, p) + w)
            if seed >= vpm.get(source, p):
                continue  # nothing improved towards this portal
            if seed == INF:
                continue
            # bounded relaxation: push only strict improvements
            counter = itertools.count()
            heap: List[Tuple[float, int, Vertex]] = [(seed, next(counter), source)]
            while heap:
                d, _, x = heapq.heappop(heap)
                if d >= vpm.get(x, p):
                    continue
                vpm.record(x, p, d)
                for t in private.labels(x):
                    pkd.record(p, t, x, d)
                for nbr, w in private.neighbor_items(x):
                    nd = d + w
                    if nd < vpm.get(nbr, p):
                        heapq.heappush(heap, (nd, next(counter), nbr))

    def _refresh_portal_map(self) -> None:
        """Recompute the portal maps from the repaired vertex-portal
        distances: attach's own builder, so no private traversal and only
        ``d'``-bounded public sweeps."""
        att = self.attachment
        combined_pm, private_pm, refined = combined_portal_maps(
            self.engine.public, att.portals, att.oracle.vertex_portal
        )
        new_att = Attachment(
            owner=att.owner,
            private=att.private,
            portals=att.portals,
            portal_map=combined_pm,
            private_portal_map=private_pm,
            refined_portal_pairs=frozenset(refined),
            sweeps=PrivateSweeps(att.private),
            oracle=CombinedDistanceOracle(
                att.private,
                combined_pm,
                att.oracle.vertex_portal,
                att.oracle.pkd,
                att.oracle.public,
            ),
        )
        self.engine._replace_attachment(self.owner, new_att)

    def _rebuild(self) -> None:
        """Full per-user rebuild (used for non-monotone changes)."""
        private = self.attachment.private
        self.engine.detach(self.owner)
        self.engine.attach(self.owner, private)
