"""Frozen compact-graph backend: CSR arrays over interned integer ids.

The paper's deployment story is asymmetric: one huge *immutable* public
graph ``G`` shared by everyone, many tiny *mutable* private graphs
``G'``.  The dict-of-dicts :class:`~repro.graph.labeled_graph.LabeledGraph`
is the right shape for the private side (O(1) edits, arbitrary hashable
vertices) but pays for that flexibility on every public-graph traversal:
boxed floats, per-vertex hash tables, and incomparable vertices that
force an ``itertools.count`` tie-breaker into every heap entry.

:class:`FrozenGraph` is the public-side counterpart: vertices are
*interned* to dense ``int`` ids (in source iteration order, each
vertex's neighbors kept in the source's order) and adjacency lives in
three flat ``array`` buffers in CSR layout:

* ``indptr``  — ``array('q')`` of length ``n + 1``; vertex ``i``'s
  neighbors occupy positions ``indptr[i]:indptr[i+1]``,
* ``indices`` — ``array('q')`` of neighbor ids (each undirected edge
  appears twice, once per endpoint),
* ``weights`` — ``array('d')`` of the matching edge weights.

Labels are kept per-id (sharing the source's frozensets) and the
inverted label index stores interned-id arrays.  An id↔vertex table
translates at the API boundary, so the *public interface is still
vertex-keyed* — a ``FrozenGraph`` satisfies the read-only
:class:`~repro.graph.protocol.GraphLike` protocol and drops into the
traversal, sketch, portal and semantics layers unchanged.  The
traversal heap sweeps read it through :meth:`neighbor_items`, whose
source-order neighbors make ``freeze(g)`` settle ties exactly as ``g``
does.  The raw arrays (:meth:`FrozenGraph.csr` / :meth:`intern` /
:attr:`vertex_table` / :meth:`label_ids`) are read by the public-index
builds (:mod:`repro.graph.pagerank`, :mod:`repro.sketches.base`,
:mod:`repro.sketches.kpads`) and by the attach-time portal sweep,
:func:`~repro.graph.traversal.bounded_target_distances`.

Mutating methods are deliberately absent: accidental writes fail loudly
with ``AttributeError``.  To edit, :meth:`thaw` back to a
:class:`LabeledGraph`.

Shared-memory export
--------------------
Because the whole adjacency payload already lives in flat buffers, a
frozen graph can be *exported* into ``multiprocessing.shared_memory``
segments (:meth:`export_shared`) and re-attached zero-copy in another
process (:meth:`from_shared`): the CSR arrays and the concatenated
label buckets come back as ``memoryview`` casts over the shared pages —
no bytes are copied, only the id↔vertex table and per-id label sets
(arbitrary Python objects) travel through a pickle.  This is what the
process-based shard tier (:mod:`repro.serving.shards`) is built on.
"""

from __future__ import annotations

import hashlib
import pickle
from array import array
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex

__all__ = ["FrozenGraph", "SharedGraphHandle", "freeze"]


@dataclass(frozen=True)
class SharedGraphHandle:
    """A picklable reference to an exported frozen graph.

    Carries the shared-memory segment names plus the element counts
    needed to cast the (page-rounded) buffers back to their exact
    lengths.  Produced by :meth:`FrozenGraph.export_shared`, consumed by
    :meth:`FrozenGraph.from_shared` in a worker process.
    """

    indptr: str
    indices: str
    weights: str
    labels: str
    meta: str
    num_vertices: int
    nnz: int
    label_entries: int
    meta_nbytes: int


class FrozenGraph:
    """Immutable CSR-backed labeled graph (see module docstring).

    Example
    -------
    >>> g = LabeledGraph.from_edges([(0, 1), (1, 2)], {0: {"a"}, 2: {"b"}})
    >>> fg = FrozenGraph(g)
    >>> fg.num_vertices, fg.num_edges
    (3, 2)
    >>> sorted(fg.vertices_with_label("b"))
    [2]
    >>> fg.weight(0, 1)
    1.0
    """

    __slots__ = (
        "name",
        "_indptr",
        "_indices",
        "_weights",
        "_id_of",
        "_vertex_of",
        "_labels_by_id",
        "_label_ids",
        "_num_edges",
        "_shm",
    )

    def __init__(self, source, name: Optional[str] = None) -> None:
        """Intern ``source`` (any readable graph) into CSR arrays."""
        vertex_of: List[Vertex] = list(source.vertices())
        id_of: Dict[Vertex, int] = {v: i for i, v in enumerate(vertex_of)}
        if len(id_of) != len(vertex_of):
            raise GraphError("source graph yielded duplicate vertices")

        indptr = array("q", [0])
        indices = array("q")
        weights = array("d")
        for v in vertex_of:
            for u, w in source.neighbor_items(v):
                indices.append(id_of[u])
                weights.append(w)
            indptr.append(len(indices))

        labels_by_id: Tuple[FrozenSet[Label], ...] = tuple(
            frozenset(source.labels(v)) for v in vertex_of
        )
        label_ids: Dict[Label, array] = {}
        for i, ls in enumerate(labels_by_id):
            for t in ls:
                label_ids.setdefault(t, array("q")).append(i)

        self.name = name if name is not None else getattr(source, "name", "")
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._id_of = id_of
        self._vertex_of = vertex_of
        self._labels_by_id = labels_by_id
        self._label_ids = label_ids
        self._num_edges = len(indices) // 2

    # ------------------------------------------------------------------
    # interned-id surface (the fast-path API)
    # ------------------------------------------------------------------
    def csr(self) -> Tuple[array, array, array]:
        """The raw ``(indptr, indices, weights)`` CSR arrays."""
        return self._indptr, self._indices, self._weights

    def intern(self, v: Vertex) -> int:
        """The dense id of ``v``; raises :class:`VertexNotFoundError`."""
        try:
            return self._id_of[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    @property
    def vertex_table(self) -> List[Vertex]:
        """The id -> vertex table (do not mutate)."""
        return self._vertex_of

    @property
    def id_table(self) -> Mapping[Vertex, int]:
        """The vertex -> id table (do not mutate)."""
        return self._id_of

    def label_ids(self, label: Label) -> array:
        """Interned ids carrying ``label`` (empty array when unused)."""
        bucket = self._label_ids.get(label)
        return bucket if bucket is not None else array("q")

    # ------------------------------------------------------------------
    # vertex set
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._id_of

    def __len__(self) -> int:
        return len(self._vertex_of)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._vertex_of)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (interning order)."""
        return iter(self._vertex_of)

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._vertex_of)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def size(self) -> int:
        """``|G| = |V| + |E|`` as defined in the paper (Sec. II)."""
        return self.num_vertices + self.num_edges

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbors(self, v: Vertex) -> Iterator[Vertex]:
        """Iterate over the neighbors of ``v``."""
        i = self.intern(v)
        indptr = self._indptr
        return map(
            self._vertex_of.__getitem__, self._indices[indptr[i]:indptr[i + 1]]
        )

    def neighbor_items(self, v: Vertex) -> Iterable[Tuple[Vertex, float]]:
        """Iterate ``(neighbor, weight)`` pairs of ``v``."""
        i = self.intern(v)
        lo, hi = self._indptr[i], self._indptr[i + 1]
        return zip(
            map(self._vertex_of.__getitem__, self._indices[lo:hi]),
            self._weights[lo:hi],
        )

    def degree(self, v: Vertex) -> int:
        """Number of neighbors of ``v``."""
        i = self.intern(v)
        return self._indptr[i + 1] - self._indptr[i]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the undirected edge ``(u, v)`` exists (O(deg) scan)."""
        i = self._id_of.get(u)
        j = self._id_of.get(v)
        if i is None or j is None:
            return False
        indices = self._indices
        for pos in range(self._indptr[i], self._indptr[i + 1]):
            if indices[pos] == j:
                return True
        return False

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of edge ``(u, v)``; raises :class:`EdgeNotFoundError`."""
        i = self._id_of.get(u)
        j = self._id_of.get(v)
        if i is not None and j is not None:
            indices = self._indices
            for pos in range(self._indptr[i], self._indptr[i + 1]):
                if indices[pos] == j:
                    return self._weights[pos]
        raise EdgeNotFoundError(u, v)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``."""
        indptr, indices, weights, vx = (
            self._indptr, self._indices, self._weights, self._vertex_of,
        )
        for i in range(len(vx)):
            for pos in range(indptr[i], indptr[i + 1]):
                j = indices[pos]
                if i < j:
                    yield vx[i], vx[j], weights[pos]

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def labels(self, v: Vertex) -> FrozenSet[Label]:
        """Label set ``L(v)``."""
        return self._labels_by_id[self.intern(v)]

    def has_label(self, v: Vertex, label: Label) -> bool:
        """Whether ``label in L(v)``."""
        return label in self._labels_by_id[self.intern(v)]

    def vertices_with_label(self, label: Label) -> FrozenSet[Vertex]:
        """All vertices carrying ``label`` (the inverted index lookup)."""
        bucket = self._label_ids.get(label)
        if bucket is None:
            return frozenset()
        vx = self._vertex_of
        return frozenset(vx[i] for i in bucket)

    def label_universe(self) -> FrozenSet[Label]:
        """The label alphabet ``Sigma`` actually used by some vertex."""
        return frozenset(self._label_ids)

    def label_frequency(self, label: Label) -> int:
        """Number of vertices carrying ``label``."""
        bucket = self._label_ids.get(label)
        return len(bucket) if bucket is not None else 0

    def average_labels_per_vertex(self) -> float:
        """Mean ``|L(v)|`` (Tab. V)."""
        if not self._vertex_of:
            return 0.0
        return sum(len(ls) for ls in self._labels_by_id) / len(self._vertex_of)

    # ------------------------------------------------------------------
    # derived graphs / interop
    # ------------------------------------------------------------------
    def thaw(self, name: Optional[str] = None) -> LabeledGraph:
        """An independent mutable :class:`LabeledGraph` with equal content."""
        out = LabeledGraph(name if name is not None else self.name)
        for i, v in enumerate(self._vertex_of):
            out.add_vertex(v, self._labels_by_id[i])
        for u, v, w in self.edges():
            out.add_edge(u, v, w)
        return out

    def copy(self, name: Optional[str] = None) -> "FrozenGraph":
        """Frozen graphs are immutable: sharing is safe, so return self
        (unless a rename forces a shallow re-wrap)."""
        if name is None or name == self.name:
            return self
        return FrozenGraph(self, name=name)

    def subgraph(self, keep: Iterable[Vertex], name: str = "") -> LabeledGraph:
        """Vertex-induced subgraph on ``keep`` as a mutable graph."""
        return self.thaw().subgraph(keep, name)

    def union(
        self, other: Union["FrozenGraph", LabeledGraph], name: str = ""
    ) -> LabeledGraph:
        """Graph union ``⊕`` (materialized; see :meth:`LabeledGraph.union`).

        Combined graphs are per-user and short-lived, so the union is
        always produced on the mutable backend; prefer
        :func:`repro.graph.views.combine_lazy` when a read-only view is
        enough.
        """
        return self.thaw().union(other, name)

    # ------------------------------------------------------------------
    # shared-memory export / attach
    # ------------------------------------------------------------------
    def export_shared(self) -> Tuple[SharedGraphHandle, list]:
        """Export the flat buffers into shared-memory segments.

        Returns ``(handle, segments)``: the picklable
        :class:`SharedGraphHandle` to ship to workers, plus the live
        ``SharedMemory`` objects.  The **caller owns the segments** and
        must ``close()`` + ``unlink()`` them when every attached worker
        is gone (the shard pool does this at shutdown).

        Layout: three segments hold the raw CSR bytes verbatim; a fourth
        holds every inverted-index bucket concatenated into one ``'q'``
        run (bucket boundaries travel in the meta pickle, keyed by label
        in ``repr``-sorted order); the fifth holds a pickle of the
        Python-object remainder — name, id→vertex table, per-id label
        sets, bucket offsets and the edge count.
        """
        from multiprocessing import shared_memory

        concat = array("q")
        label_offsets: Dict[Label, Tuple[int, int]] = {}
        for label in sorted(self._label_ids, key=repr):
            start = len(concat)
            concat.extend(self._label_ids[label])
            label_offsets[label] = (start, len(concat))
        meta = pickle.dumps(
            {
                "name": self.name,
                "vertex_of": self._vertex_of,
                "labels_by_id": self._labels_by_id,
                "label_offsets": label_offsets,
                "num_edges": self._num_edges,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

        segments = []

        def _segment(payload: bytes) -> "shared_memory.SharedMemory":
            shm = shared_memory.SharedMemory(
                create=True, size=max(1, len(payload))
            )
            shm.buf[: len(payload)] = payload
            segments.append(shm)
            return shm

        try:
            seg_indptr = _segment(bytes(self._indptr))
            seg_indices = _segment(bytes(self._indices))
            seg_weights = _segment(bytes(self._weights))
            seg_labels = _segment(bytes(concat))
            seg_meta = _segment(meta)
        except Exception:
            for shm in segments:
                shm.close()
                shm.unlink()
            raise
        handle = SharedGraphHandle(
            indptr=seg_indptr.name,
            indices=seg_indices.name,
            weights=seg_weights.name,
            labels=seg_labels.name,
            meta=seg_meta.name,
            num_vertices=len(self._vertex_of),
            nnz=len(self._indices),
            label_entries=len(concat),
            meta_nbytes=len(meta),
        )
        return handle, segments

    @classmethod
    def from_shared(cls, handle: SharedGraphHandle) -> "FrozenGraph":
        """Attach to an exported graph zero-copy (worker side).

        The CSR arrays and label buckets come back as ``memoryview``
        casts over the shared pages; only the meta pickle (id↔vertex
        table + label sets) is materialized.  The segments stay alive on
        the instance for the graph's lifetime.

        No ``resource_tracker`` juggling on attach: spawn children share
        the parent's tracker process and its cache is a *set*, so an
        attach-side unregister would cancel the export-side register and
        the owner's eventual ``unlink()`` would miss — attaching leaves
        the registration exactly as the exporter made it (and the tracker
        remains a leak backstop if every process dies uncleanly).
        """
        from multiprocessing import shared_memory

        def _attach(name: str) -> "shared_memory.SharedMemory":
            return shared_memory.SharedMemory(name=name)

        seg_indptr = _attach(handle.indptr)
        seg_indices = _attach(handle.indices)
        seg_weights = _attach(handle.weights)
        seg_labels = _attach(handle.labels)
        seg_meta = _attach(handle.meta)
        meta = pickle.loads(bytes(seg_meta.buf[: handle.meta_nbytes]))
        seg_meta.close()

        item = array("q").itemsize
        n, nnz = handle.num_vertices, handle.nnz
        g = cls.__new__(cls)
        g.name = meta["name"]
        g._indptr = memoryview(seg_indptr.buf)[: (n + 1) * item].cast("q")
        g._indices = memoryview(seg_indices.buf)[: nnz * item].cast("q")
        g._weights = memoryview(seg_weights.buf)[: nnz * item].cast("d")
        labels_view = memoryview(seg_labels.buf)[
            : handle.label_entries * item
        ].cast("q")
        g._label_ids = {
            label: labels_view[s:e]
            for label, (s, e) in meta["label_offsets"].items()
        }
        g._vertex_of = meta["vertex_of"]
        g._id_of = {v: i for i, v in enumerate(g._vertex_of)}
        g._labels_by_id = meta["labels_by_id"]
        g._num_edges = meta["num_edges"]
        g._shm = (seg_indptr, seg_indices, seg_weights, seg_labels)
        return g

    def release_shared(self) -> None:
        """Detach from shared memory, copying the buffers back in-process.

        Workers never need this (process exit releases everything); it
        exists so same-process tests and the pool's local fallback can
        attach, use and cleanly close a shared graph without leaving the
        parent's segments pinned by live ``memoryview`` exports.
        """
        shm = getattr(self, "_shm", None)
        if shm is None:
            return
        self._indptr = array("q", self._indptr)
        self._indices = array("q", self._indices)
        self._weights = array("d", self._weights)
        self._label_ids = {
            label: array("q", bucket)
            for label, bucket in self._label_ids.items()
        }
        for seg in shm:
            seg.close()
        self._shm = None

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def stats(self) -> Mapping[str, float]:
        """Summary statistics — identical shape to :meth:`LabeledGraph.stats`."""
        n = self.num_vertices
        return {
            "num_vertices": float(n),
            "num_edges": float(self._num_edges),
            "num_labels": float(len(self._label_ids)),
            "avg_labels_per_vertex": self.average_labels_per_vertex(),
            "avg_degree": (2.0 * self._num_edges / n) if n else 0.0,
        }

    def nbytes(self) -> int:
        """Size of the flat CSR buffers in bytes (the adjacency payload)."""
        return (
            self._indptr.itemsize * len(self._indptr)
            + self._indices.itemsize * len(self._indices)
            + self._weights.itemsize * len(self._weights)
        )

    def digest(self) -> str:
        """sha-256 of the graph as laid out: vertex table, CSR, label buckets.

        Identifies the graph an on-disk index was built over
        (:mod:`repro.core.persist`).  Order-sensitive on purpose: a false
        mismatch costs one index rebuild, a false match serves wrong
        answers.  Labels are sorted because set iteration order differs
        between processes.
        """
        digest = hashlib.sha256(ascii(self._vertex_of).encode("ascii"))
        for buffer in self.csr():
            digest.update(buffer)
        for label in sorted(self._label_ids, key=repr):
            digest.update(ascii(label).encode("ascii"))
            digest.update(self._label_ids[label])
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.name!r}" if self.name else ""
        return (
            f"<FrozenGraph{tag} |V|={self.num_vertices} |E|={self.num_edges} "
            f"|Sigma|={len(self._label_ids)}>"
        )


def freeze(graph, name: Optional[str] = None) -> FrozenGraph:
    """Intern ``graph`` into a :class:`FrozenGraph` (no-op when frozen).

    Every route to an engine's public graph passes through here
    (:class:`~repro.core.framework.PublicIndex`, its ``build`` and
    :func:`~repro.core.persist.load_index`), so the engine always serves
    a frozen graph.
    """
    if isinstance(graph, FrozenGraph):
        return graph
    return FrozenGraph(graph, name=name)
