"""A labeled, weighted, undirected graph (the mutable dict backend).

This is the data model of the paper (Sec. II): ``G = (V, E, L, Sigma)``
where each vertex carries a *set* of labels (keywords) and each edge has a
positive weight.

The repository splits graph storage by mutability.  ``LabeledGraph`` is
the *mutable* backend — dict-of-dicts adjacency keyed by arbitrary
hashables, O(1) edits and edge lookups, no third-party dependency — and
is used for the small per-user private graphs and for graph
construction.  An attached private graph is not edited in place:
:mod:`repro.core.dynamic` edits a copy and re-attaches it.  The large
public graph, which the framework treats as immutable once indexed, is
interned into the compact CSR backend
:class:`~repro.graph.frozen.FrozenGraph` instead; both satisfy the
read-only :class:`~repro.graph.protocol.GraphLike` protocol that the
traversal and search layers are written against.

Besides plain adjacency the graph maintains an inverted *label index*
(keyword -> set of vertices), which every keyword-search semantic uses to
locate search origins in O(1).
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError

Vertex = Hashable
Label = str
Edge = Tuple[Vertex, Vertex]

__all__ = ["LabeledGraph", "Vertex", "Label", "Edge"]


class LabeledGraph:
    """Labeled, weighted, undirected graph.

    Vertices may be any hashable object; labels are strings.  Edge weights
    must be positive (shortest-path algorithms rely on this).  Self-loops
    are rejected: they never participate in shortest paths and the paper's
    model does not use them.

    Example
    -------
    >>> g = LabeledGraph()
    >>> g.add_vertex("bob", labels={"DB"})
    >>> g.add_vertex("alice", labels={"AI"})
    >>> g.add_edge("bob", "alice", weight=2.0)
    >>> g.degree("bob")
    1
    >>> sorted(g.vertices_with_label("AI"))
    ['alice']
    """

    __slots__ = ("_adj", "_labels", "_label_index", "_num_edges", "name")

    def __init__(self, name: str = "") -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        self._labels: Dict[Vertex, FrozenSet[Label]] = {}
        self._label_index: Dict[Label, Set[Vertex]] = {}
        self._num_edges: int = 0
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex, labels: Optional[Iterable[Label]] = None) -> None:
        """Add vertex ``v``; merge ``labels`` into its label set if it exists."""
        if v not in self._adj:
            self._adj[v] = {}
            self._labels[v] = frozenset()
        if labels:
            self._set_labels(v, self._labels[v] | frozenset(labels))

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add the undirected edge ``(u, v)``, creating endpoints as needed.

        Re-adding an existing edge overwrites its weight.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if not weight > 0:  # NaN included: it fails every comparison
            raise GraphError(f"edge weight must be positive, got {weight}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._num_edges += 1
        self._adj[u][v] = weight
        self._adj[v][u] = weight

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``; raise if it is absent."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        del self._adj[v][u]
        self._num_edges -= 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v``, all its incident edges and its label-index entries."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        for nbr in list(self._adj[v]):
            self.remove_edge(v, nbr)
        self._set_labels(v, frozenset())
        del self._labels[v]
        del self._adj[v]

    def add_labels(self, v: Vertex, labels: Iterable[Label]) -> None:
        """Attach additional labels to an existing vertex."""
        if v not in self._adj:
            raise VertexNotFoundError(v)
        self._set_labels(v, self._labels[v] | frozenset(labels))

    def _set_labels(self, v: Vertex, new: FrozenSet[Label]) -> None:
        old = self._labels.get(v, frozenset())
        for dropped in old - new:
            bucket = self._label_index[dropped]
            bucket.discard(v)
            if not bucket:
                del self._label_index[dropped]
        for added in new - old:
            self._label_index.setdefault(added, set()).add(v)
        self._labels[v] = new

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` as defined in the paper (Sec. II)."""
        return self.num_vertices + self.num_edges

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adj)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate over each undirected edge once as ``(u, v, weight)``."""
        seen: Set[Vertex] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                if v not in seen:
                    yield (u, v, w)
            seen.add(u)

    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbors of ``v``."""
        try:
            return iter(self._adj[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def neighbor_items(self, v: Vertex) -> Iterable[Tuple[Vertex, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v`` (hot path helper)."""
        try:
            return self._adj[v].items()
        except KeyError:
            raise VertexNotFoundError(v) from None

    def degree(self, v: Vertex) -> int:
        """Number of neighbors of ``v``."""
        try:
            return len(self._adj[v])
        except KeyError:
            raise VertexNotFoundError(v) from None

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of edge ``(u, v)``; raises :class:`EdgeNotFoundError`."""
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def labels(self, v: Vertex) -> FrozenSet[Label]:
        """Label set ``L(v)``."""
        try:
            return self._labels[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def has_label(self, v: Vertex, label: Label) -> bool:
        """Whether ``label in L(v)``."""
        return label in self.labels(v)

    def vertices_with_label(self, label: Label) -> FrozenSet[Vertex]:
        """All vertices carrying ``label`` (the inverted index lookup)."""
        return frozenset(self._label_index.get(label, ()))

    def label_universe(self) -> FrozenSet[Label]:
        """The label alphabet ``Sigma`` actually used by some vertex."""
        return frozenset(self._label_index)

    def label_frequency(self, label: Label) -> int:
        """Number of vertices carrying ``label``."""
        return len(self._label_index.get(label, ()))

    def average_labels_per_vertex(self) -> float:
        """Mean ``|L(v)|`` — the paper reports this per dataset (Tab. V)."""
        if not self._labels:
            return 0.0
        return sum(len(ls) for ls in self._labels.values()) / len(self._labels)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "LabeledGraph":
        """Deep-copy the graph structure (labels are shared frozensets).

        Row by row and without re-validation, so every vertex keeps its
        ``neighbor_items`` order: a sweep of the copy settles
        equal-distance ties as a sweep of the original does.
        """
        out = LabeledGraph(name if name is not None else self.name)
        out._adj = {v: dict(row) for v, row in self._adj.items()}
        out._labels = dict(self._labels)
        out._label_index = {t: set(vs) for t, vs in self._label_index.items()}
        out._num_edges = self._num_edges
        return out

    def subgraph(self, keep: Iterable[Vertex], name: str = "") -> "LabeledGraph":
        """Vertex-induced subgraph on ``keep`` (unknown vertices ignored)."""
        keep_set = {v for v in keep if v in self._adj}
        out = LabeledGraph(name)
        for v in keep_set:
            out.add_vertex(v, self._labels[v])
        for v in keep_set:
            for u, w in self._adj[v].items():
                if u in keep_set and not out.has_edge(v, u):
                    out.add_edge(v, u, w)
        return out

    def union(self, other: "LabeledGraph", name: str = "") -> "LabeledGraph":
        """Graph union: ``Vc = V ∪ V'``, ``Ec = E ∪ E'`` (paper's ⊕).

        Shared vertices merge their label sets; a shared edge keeps the
        *minimum* of the two weights.  The minimum (rather than either
        side overwriting) preserves the invariant the whole framework
        rests on: both inputs are subgraphs of the union, so distances in
        the union never exceed distances in either input.
        """
        out = self.copy(name)
        for v in other.vertices():
            out.add_vertex(v, other.labels(v))
        for u, v, w in other.edges():
            if out.has_edge(u, v):
                out.add_edge(u, v, min(w, out.weight(u, v)))
            else:
                out.add_edge(u, v, w)
        return out

    def connected_components(self) -> Iterator[Set[Vertex]]:
        """Yield vertex sets of connected components (iterative BFS)."""
        seen: Set[Vertex] = set()
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                nxt = []
                for v in frontier:
                    for u in self._adj[v]:
                        if u not in component:
                            component.add(u)
                            nxt.append(u)
                frontier = nxt
            seen |= component
            yield component

    def is_connected(self) -> bool:
        """Whether the graph has at most one connected component."""
        components = self.connected_components()
        first = next(components, None)
        if first is None:
            return True
        return next(components, None) is None

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<LabeledGraph{tag} |V|={self.num_vertices} |E|={self.num_edges} "
            f"|Sigma|={len(self._label_index)}>"
        )

    def stats(self) -> Mapping[str, float]:
        """Summary statistics in the shape of the paper's Tab. V.

        All values are ``float`` (as declared), so the mapping has one
        uniform value type across backends —
        :meth:`FrozenGraph.stats <repro.graph.frozen.FrozenGraph.stats>`
        returns the identical shape.
        """
        return {
            "num_vertices": float(self.num_vertices),
            "num_edges": float(self.num_edges),
            "num_labels": float(len(self._label_index)),
            "avg_labels_per_vertex": self.average_labels_per_vertex(),
            "avg_degree": (2.0 * self.num_edges / self.num_vertices) if self._adj else 0.0,
        }

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, Vertex]],
        labels: Optional[Mapping[Vertex, Iterable[Label]]] = None,
        name: str = "",
    ) -> "LabeledGraph":
        """Build a unit-weight graph from an edge list and a label mapping."""
        g = cls(name)
        for u, v in edges:
            g.add_edge(u, v)
        for v, ls in (labels or {}).items():
            g.add_vertex(v, ls)
        return g

    def relabel_disjoint(self, other: "LabeledGraph") -> bool:
        """Whether this graph and ``other`` share no vertices."""
        small, large = (
            (self, other) if self.num_vertices <= other.num_vertices else (other, self)
        )
        return not any(v in large for v in small.vertices())


def path_weight(graph: LabeledGraph, path: Iterable[Vertex]) -> float:
    """Total weight of ``path`` (a vertex sequence) in ``graph``.

    Raises :class:`EdgeNotFoundError` if consecutive vertices are not
    adjacent, so this doubles as a path-validity check in tests.
    """
    total = 0.0
    a, b = itertools.tee(path)
    next(b, None)
    for u, v in zip(a, b):
        total += graph.weight(u, v)
    return total
