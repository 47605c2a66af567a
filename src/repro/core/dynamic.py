"""Dynamic private graphs (the paper's stated future work, Sec. IX).

The paper concludes: "We will extend the PPKWS to support keyword search
on dynamic graphs."  Private graphs are the natural place to start — they
are per-user, small, and change frequently (new collaborations, new
private facts) — while the public graph and its PADS/KPADS indexes stay
fixed.

:class:`DynamicPrivateGraph` wraps an attached private graph and keeps
the per-user PPKWS state consistent under mutation by re-attaching:
every edit copies ``G'``, applies itself to the copy and builds a fresh
attachment over it, ``O(|P| (|G'| log |G'| + |P|^2))`` like any attach
(EXPERIMENTS.md, "Dynamic edits are re-attaches", has the measured
cost).  The resulting state is exactly what :meth:`PPKWS.attach` builds
from scratch, because it is built by the same code.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.framework import Attachment, PPKWS
from repro.graph.labeled_graph import LabeledGraph, Vertex

__all__ = ["DynamicPrivateGraph"]


class DynamicPrivateGraph:
    """Mutation interface for an attached private graph.

    Every edit is copy-on-write: it copies the current attachment's
    ``G'``, applies itself to the copy and swaps a fresh attachment over
    the copy in, with one write that moves the owner's epoch once.  An
    attachment and its ``G'`` never change once built, so a query that
    runs during an edit reads the old attachment throughout, and an edit
    that raises leaves the old attachment in place.  Concurrent edits of
    the same owner must be serialized by the caller: each copies the
    attachment it starts from, and the last swap wins.

    Example
    -------
    >>> from repro.graph import LabeledGraph
    >>> pub = LabeledGraph.from_edges([(0, 1), (1, 2)], {2: {"t"}})
    >>> priv = LabeledGraph.from_edges([(0, "x")])
    >>> engine = PPKWS(pub, sketch_k=2)
    >>> _ = engine.attach("u", priv)
    >>> dyn = DynamicPrivateGraph(engine, "u")
    >>> dyn.add_edge("x", "y")            # re-attaches an edited copy
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
        """The current per-user state (a new object after every edit)."""
        return self.engine.attachment(self.owner)

    @property
    def graph(self) -> LabeledGraph:
        """The current private graph (a new copy after every edit)."""
        return self.attachment.private

    # ------------------------------------------------------------------
    # insertions
    # ------------------------------------------------------------------
    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add (or shorten) a private edge.

        New vertices are created as needed; an endpoint that exists in
        the public graph becomes a portal.  An edge that is not shorter
        than the present one changes nothing.
        """
        private = self.graph
        if private.has_edge(u, v) and private.weight(u, v) <= weight:
            return  # no-op: not an improvement
        self._edit(LabeledGraph.add_edge, u, v, weight)

    def add_vertex(self, v: Vertex, labels: Optional[set] = None) -> None:
        """Add an isolated private vertex (labels optional).

        Becomes a portal if ``v`` exists in the public graph.  An
        existing vertex only gains ``labels``, if any are given.
        """
        if v in self.graph:
            if labels:
                self.add_labels(v, labels)
            return
        self._edit(LabeledGraph.add_vertex, v, labels)

    def add_labels(self, v: Vertex, labels: set) -> None:
        """Attach labels to a private vertex."""
        self._edit(LabeledGraph.add_labels, v, labels)

    # ------------------------------------------------------------------
    # deletions
    # ------------------------------------------------------------------
    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove a private edge."""
        self._edit(LabeledGraph.remove_edge, u, v)

    def remove_vertex(self, v: Vertex) -> None:
        """Remove a private vertex and its edges.

        Portals may be removed; the attachment must keep at least one
        portal or the user can no longer receive public-private answers,
        so removing the last one raises :class:`~repro.exceptions.GraphError`
        and keeps the graph as it was.
        """
        self._edit(LabeledGraph.remove_vertex, v)

    # ------------------------------------------------------------------
    def _edit(self, change: Callable[..., None], *args: object) -> None:
        """Apply ``change(copy, *args)`` to a copy of ``G'`` and swap in
        the attachment :meth:`PPKWS.attach` would build over the copy."""
        private = self.graph.copy()
        change(private, *args)
        self.engine._reattach(self.owner, private)
