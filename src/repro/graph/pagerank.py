"""PageRank over the interned public graph.

PADS (paper Sec. V-A) ranks vertices by PageRank rather than by random
values: high-PageRank vertices lie on many shortest paths and make good
sketch centers.  The paper says "we employ any efficient algorithms to
obtain the PageRank" — both bodies here run over a
:class:`~repro.graph.frozen.FrozenGraph` (any other graph is frozen
first), and :func:`pagerank` picks one by size:

* below ``_NUMPY_THRESHOLD`` vertices, a plain-list power iteration over
  the interned ids (:func:`pagerank_pure`: no numpy set-up cost, and its
  float operations follow the source graph's iteration order), and
* from there on, an array sweep straight over the ``indptr``/``indices``
  buffers (:func:`pagerank_csr`, no per-edge Python loop at all).

Both treat the undirected graph as a random walk with uniform transition
probability over neighbors, damping ``alpha`` and uniform teleport, and
visit edges in the same order, so their results agree to within float
rounding.  The threshold stays where it is: moving it could change
PageRank ties, and with them PADS centers and answers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.exceptions import GraphError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import Vertex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike

__all__ = ["pagerank", "pagerank_pure", "pagerank_csr"]

_NUMPY_THRESHOLD = 2000


def pagerank(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """PageRank scores ``pr: V -> [0, 1]``, summing to 1.

    ``alpha`` is the damping factor in (0, 1).  Graphs below
    ``_NUMPY_THRESHOLD`` vertices run :func:`pagerank_pure`, larger ones
    :func:`pagerank_csr`.
    """
    if not 0.0 < alpha < 1.0:
        raise GraphError(f"alpha must be in (0, 1), got {alpha}")
    if graph.num_vertices == 0:
        return {}
    if graph.num_vertices < _NUMPY_THRESHOLD:
        return pagerank_pure(graph, alpha, max_iter, tol)
    return pagerank_csr(graph, alpha, max_iter, tol)


def pagerank_pure(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """Power iteration over interned ids and flat adjacency lists.

    The transient ``tolist`` copies exist only for the duration of the
    call — plain-list indexing is markedly faster than ``array`` access.
    """
    graph = freeze(graph)
    n = graph.num_vertices
    indptr_a, indices_a, _ = graph.csr()
    indptr = indptr_a.tolist()
    indices = indices_a.tolist()
    rank = [1.0 / n] * n
    base = (1.0 - alpha) / n
    for _ in range(max_iter):
        nxt = [0.0] * n
        dangling_mass = 0.0
        for i in range(n):
            start, end = indptr[i], indptr[i + 1]
            if start == end:
                dangling_mass += rank[i]
                continue
            share = alpha * rank[i] / (end - start)
            for pos in range(start, end):
                nxt[indices[pos]] += share
        spread = base + alpha * dangling_mass / n
        delta = 0.0
        for i in range(n):
            x = nxt[i] + spread
            nxt[i] = x
            delta += abs(x - rank[i])
        rank = nxt
        if delta < tol:
            break
    vx = graph.vertex_table
    return {vx[i]: rank[i] for i in range(n)}


def pagerank_csr(
    graph: "GraphLike",
    alpha: float = 0.85,
    max_iter: int = 100,
    tol: float = 1e-8,
) -> Dict[Vertex, float]:
    """Array sweep straight over the frozen CSR buffers.

    ``indices`` *is* the destination array, and the source array is one
    ``np.repeat`` over the ``indptr`` gaps.
    """
    graph = freeze(graph)
    n = graph.num_vertices
    indptr_a, indices_a, _ = graph.csr()
    indptr = np.frombuffer(indptr_a, dtype=np.int64)
    if len(indices_a):
        dst = np.frombuffer(indices_a, dtype=np.int64)
    else:
        dst = np.zeros(0, dtype=np.int64)
    gaps = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), gaps)
    dangling = gaps == 0
    safe_deg = np.where(dangling, 1.0, gaps.astype(np.float64))

    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        contrib = alpha * rank / safe_deg
        nxt = np.zeros(n)
        np.add.at(nxt, dst, contrib[src])
        dangling_mass = rank[dangling].sum()
        nxt += (1.0 - alpha) / n + alpha * dangling_mass / n
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    vx = graph.vertex_table
    return {vx[i]: float(rank[i]) for i in range(n)}
