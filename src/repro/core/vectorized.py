"""Numpy kernels over the frozen CSR arrays, kept for the benchmark only.

No production module imports this file.  The query pipelines run one
body per step (the pure dict/heap code), and the execution mode that
used to route AComplete through these kernels is gone.  What remains is
exactly what ``bench/layers.py`` imports or wraps by name:
:func:`runtime_for`, :meth:`VectorizedRuntime.probe_many`,
:meth:`VectorizedRuntime.top_candidates_many`, :func:`offset_sweep_batch`
and :func:`merge_rank`, plus the helpers they call.  The module goes
when the benchmark releases those names (ROADMAP item 1).

Each kernel is bit-identical to its pure counterpart, which
``tests/test_vectorized_equivalence.py`` holds.  Bit-identity of the
sweep kernel rests on one observation: with strictly positive edge
weights, Dijkstra settles vertices in *distance layers* and entries of
equal distance cannot relax each other, so the heap's pop order within a
layer is fully determined by the tie-break counter of
:func:`repro.semantics.blinks.offset_expansion`.  That counter orders entries
lexicographically by ``(class, r, c)`` where seeds (class 0) carry their
seed-list index and pushes (class 1) carry the global pop rank of their
source plus the CSR position of the generating edge.  The kernel settles
one layer at a time, picks each node's winning entry by that exact key,
orders winners by it to assign pop ranks, and rebuilds the result dicts
in rank order — same distances (identical float additions), same
witnesses, same dict insertion order as the heap loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.budget import QueryBudget
from repro.core.partial import PartialAnswer
from repro.graph.frozen import FrozenGraph
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF
from repro.semantics.answers import Match, RootedAnswer

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    _NUMPY = True
except Exception:  # pragma: no cover - containers without numpy
    np = None  # type: ignore[assignment]
    _NUMPY = False

__all__ = [
    "RankedMerge",
    "SweepCover",
    "VectorizedRuntime",
    "merge_rank",
    "numpy_available",
    "offset_sweep_batch",
    "runtime_for",
]

#: Per-sweep seed triples, exactly as `_portal_sweep_seeds` builds them.
Seeds = List[Tuple[float, Vertex, Vertex]]

#: One kernel column: a seed list plus its distance bound.
SweepColumn = Tuple[Seeds, float]


class SweepCover(Dict[Vertex, Match]):
    """A sweep result: the `offset_expansion` dict plus intern-space arrays.

    The dict part is bit-identical to the pure sweep (same keys, Match
    values and insertion order); ``ids``/``dists`` hold the same cover as
    parallel arrays in pop order, so the array-merge fast path of
    AComplete can consume the cover without a per-vertex Python loop.
    """

    __slots__ = ("ids", "dists")

    def __init__(self) -> None:
        super().__init__()
        self.ids: Any = None
        self.dists: Any = None


def numpy_available() -> bool:
    """Whether the numpy kernels can run at all in this interpreter."""
    return _NUMPY


class VectorizedRuntime:
    """Per-engine numpy views of the CSR buffers plus derived tables.

    Built once per engine (cached on the :class:`PPKWS` instance); the
    probe tables are built lazily because many callers never touch them.
    """

    def __init__(self, engine: Any) -> None:
        public = engine.public
        if not isinstance(public, FrozenGraph):  # pragma: no cover - guarded
            raise TypeError("VectorizedRuntime requires a FrozenGraph public side")
        self.engine = engine
        self.public = public
        indptr, indices, weights = public.csr()
        # frombuffer is zero-copy and accepts both array('q') buffers and
        # the memoryview casts a shared-memory replica exposes.
        self.indptr: Any = np.frombuffer(indptr, dtype=np.int64)
        self.indices: Any = np.frombuffer(indices, dtype=np.int64)
        self.weights: Any = np.frombuffer(weights, dtype=np.float64)
        self.n = int(self.indptr.shape[0] - 1)
        self.vertex_of: List[Vertex] = list(public.vertex_table)
        # The layered sweep is only bit-identical to the heap loop when
        # equal-distance vertices cannot relax each other, i.e. when
        # every edge weight is strictly positive.
        self.supported = bool(
            self.weights.size == 0 or float(self.weights.min()) > 0.0
        )
        # Lazy sketch-probe tables.
        self._pads_built = False
        self.pads_ptr: Any = None
        self.pads_centers: Any = None
        self.pads_d1: Any = None
        self._keyword_cols: Dict[Label, Tuple[Any, List[Optional[Vertex]]]] = {}
        self._wit_ok: Dict[Label, Any] = {}
        self._cand_cols: Dict[
            Tuple[Label, int], Tuple[Any, Any, Any, Any]
        ] = {}
        self._repr_rank: Any = None
        self._repr_ok: Optional[bool] = None

    # -- sketch-probe tables ------------------------------------------

    def _ensure_pads(self) -> None:
        """Flatten ``pads.entries`` into a CSR of (center, d1) rows.

        Row ``i`` holds vertex ``vertex_of[i]``'s sketch entries in the
        dict's iteration order — the order `estimate_with_witness`
        scans, which its first-wins tie-break depends on.
        """
        if self._pads_built:
            return
        pads = self.engine.index.pads
        intern = self.public.intern
        row_ptr: List[int] = [0]
        centers: List[int] = []
        d1: List[float] = []
        for i in range(self.n):
            sv = pads.entries.get(self.vertex_of[i])
            if sv:
                for w, d in sv.items():
                    centers.append(intern(w))
                    d1.append(d)
            row_ptr.append(len(centers))
        self.pads_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.pads_centers = np.asarray(centers, dtype=np.int64)
        self.pads_d1 = np.asarray(d1, dtype=np.float64)
        self._pads_built = True

    def _keyword_column(self, keyword: Label) -> Tuple[Any, List[Optional[Vertex]]]:
        """Dense center-id -> (KPADS distance, witness) for ``keyword``."""
        col = self._keyword_cols.get(keyword)
        if col is None:
            kpads = self.engine.index.kpads
            sketch = kpads.entries.get(keyword) or {}
            wits = kpads.witnesses.get(keyword, {})
            dist = np.full(self.n, np.inf, dtype=np.float64)
            wit_of: List[Optional[Vertex]] = [None] * self.n
            intern = self.public.intern
            for center, d2 in sketch.items():
                cid = intern(center)
                dist[cid] = d2
                wit_of[cid] = wits.get(center)
            col = (dist, wit_of)
            self._keyword_cols[keyword] = col
        return col

    def witness_ok(self, keyword: Label) -> Any:
        """Per-center bool column: does the keyword sketch hold a witness?

        The pure probe only improves a match when its witness is not
        None; the array merge needs the same guard as a mask.
        """
        ok = self._wit_ok.get(keyword)
        if ok is None:
            _, wit_of = self._keyword_column(keyword)
            ok = np.fromiter(
                (w is not None for w in wit_of), dtype=bool, count=self.n
            )
            self._wit_ok[keyword] = ok
        return ok

    def repr_rank(self) -> Any:
        """Per-vertex rank under ``repr`` ordering, or None on collision.

        `top_candidates` ranks by ``(total, repr(vertex))``; a repr
        collision (never the case for the project's str/int vertices)
        would make the rank table ambiguous, so the candidates kernel
        refuses and the caller falls back to the pure path.
        """
        if self._repr_ok is None:
            reprs = [repr(v) for v in self.vertex_of]
            if len(set(reprs)) != len(reprs):
                self._repr_ok = False
            else:
                order = sorted(range(self.n), key=reprs.__getitem__)
                rank = np.empty(self.n, dtype=np.int64)
                rank[np.asarray(order, dtype=np.int64)] = np.arange(
                    self.n, dtype=np.int64
                )
                self._repr_rank = rank
                self._repr_ok = True
        return self._repr_rank if self._repr_ok else None

    def _candidate_column(
        self, keyword: Label
    ) -> Tuple[Any, Any, Any, List[Vertex]]:
        """CSR over centers of the per-keyword candidate lists.

        Row ``cid`` holds KPADS ``candidates[keyword][center]`` in list
        order (sorted by distance, insertion-stable) — the order the
        pure merge scans.
        """
        key = (keyword, 0)
        cached = self._cand_cols.get(key)
        if cached is not None:
            return cached  # type: ignore[return-value]
        kpads = self.engine.index.kpads
        lists = kpads.candidates.get(keyword) or {}
        intern = self.public.intern
        ptr: List[int] = [0]
        d2: List[float] = []
        cand_ids: List[int] = []
        cand_of: Dict[Vertex, int] = {}
        cand_vertices: List[Vertex] = []
        by_cid: Dict[int, List[Tuple[float, Vertex]]] = {
            intern(center): lst for center, lst in lists.items()
        }
        for cid in range(self.n):
            for dd, u in by_cid.get(cid, ()):  # candidates can be private
                idx = cand_of.get(u)
                if idx is None:
                    idx = len(cand_vertices)
                    cand_of[u] = idx
                    cand_vertices.append(u)
                d2.append(dd)
                cand_ids.append(idx)
            ptr.append(len(d2))
        out = (
            np.asarray(ptr, dtype=np.int64),
            np.asarray(d2, dtype=np.float64),
            np.asarray(cand_ids, dtype=np.int64),
            cand_vertices,
        )
        self._cand_cols[key] = out
        return out

    # -- kernels -------------------------------------------------------

    def probe_ids(self, ids: Any, keyword: Label) -> Tuple[Any, Any]:
        """Array core of :meth:`probe_many` over interned vertex ids.

        Returns ``(best, center)`` arrays aligned with ``ids``: the
        minimal sketch total (``inf`` when no common finite center) and
        the winning center id (``-1`` for none), with equal-total ties
        resolved to the first sketch entry in row order — exactly the
        pure strict-``<`` scan of `estimate_with_witness`.
        """
        m = int(ids.size)
        best = np.full(m, np.inf, dtype=np.float64)
        center = np.full(m, -1, dtype=np.int64)
        if m == 0:
            return best, center
        kpads = self.engine.index.kpads
        if not kpads.entries.get(keyword):
            return best, center
        self._ensure_pads()
        kw_dist, _ = self._keyword_column(keyword)
        starts = self.pads_ptr[ids]
        counts = self.pads_ptr[ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return best, center
        cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, counts)
            + np.repeat(starts, counts)
        )
        rows = np.repeat(np.arange(m, dtype=np.int64), counts)
        totals = self.pads_d1[pos] + kw_dist[self.pads_centers[pos]]
        order = np.lexsort((pos, totals, rows))
        first = np.ones(order.size, dtype=bool)
        rows_sorted = rows[order]
        first[1:] = rows_sorted[1:] != rows_sorted[:-1]
        win = order[first]
        finite = totals[win] < np.inf
        win = win[finite]
        best[rows[win]] = totals[win]
        center[rows[win]] = self.pads_centers[pos[win]]
        return best, center

    def probe_many(
        self, vertices: Sequence[Vertex], keyword: Label
    ) -> Dict[Vertex, Tuple[float, Optional[Vertex]]]:
        """Batched, bit-identical `KeywordSketch.estimate_with_witness`.

        One gather + argmin over all ``vertices`` at once; equal-total
        ties resolve to the first sketch entry in row order, exactly as
        the pure strict-``<`` scan does.
        """
        out: Dict[Vertex, Tuple[float, Optional[Vertex]]] = {}
        if not vertices:
            return out
        kpads = self.engine.index.kpads
        if not kpads.entries.get(keyword):
            for v in vertices:
                out[v] = (INF, None)
            return out
        self._ensure_pads()
        kw_dist, kw_wit = self._keyword_column(keyword)
        intern = self.public.intern
        ids = np.asarray([intern(v) for v in vertices], dtype=np.int64)
        starts = self.pads_ptr[ids]
        counts = self.pads_ptr[ids + 1] - starts
        total = int(counts.sum())
        for v in vertices:
            out[v] = (INF, None)
        if total == 0:
            return out
        cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, counts)
            + np.repeat(starts, counts)
        )
        rows = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
        totals = self.pads_d1[pos] + kw_dist[self.pads_centers[pos]]
        # First-wins min per row: sort by (row, total, row position).
        order = np.lexsort((pos, totals, rows))
        first = np.ones(order.size, dtype=bool)
        rows_sorted = rows[order]
        first[1:] = rows_sorted[1:] != rows_sorted[:-1]
        win = order[first]
        for j in range(win.size):
            e = int(win[j])
            best = float(totals[e])
            if best == INF:
                continue  # no common finite center: stays (INF, None)
            center = int(self.pads_centers[pos[e]])
            out[vertices[int(rows[e])]] = (best, kw_wit[center])
        return out

    def top_candidates_many(
        self, vertices: Sequence[Vertex], keyword: Label, k: int
    ) -> Optional[List[List[Tuple[Vertex, float]]]]:
        """Batched, bit-identical `KeywordSketch.top_candidates`.

        Returns one ranked candidate list per input vertex, or None when
        the repr-rank table is unavailable (repr collision) and the
        caller must use the pure path.
        """
        rrank = self.repr_rank()
        if rrank is None:
            return None
        out: List[List[Tuple[Vertex, float]]] = [[] for _ in vertices]
        if not vertices:
            return out
        kpads = self.engine.index.kpads
        if not kpads.candidates.get(keyword):
            return out
        self._ensure_pads()
        cand_ptr, cand_d2, cand_ids, cand_vertices = self._candidate_column(
            keyword
        )
        intern = self.public.intern
        ids = np.asarray([intern(v) for v in vertices], dtype=np.int64)
        # Expand each vertex's PADS row into its centers...
        starts = self.pads_ptr[ids]
        counts = self.pads_ptr[ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return out
        cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ppos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, counts)
            + np.repeat(starts, counts)
        )
        rows1 = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
        centers = self.pads_centers[ppos]
        d1 = self.pads_d1[ppos]
        # ...then each center into its candidate list entries.
        cstarts = cand_ptr[centers]
        ccounts = cand_ptr[centers + 1] - cstarts
        ctotal = int(ccounts.sum())
        if ctotal == 0:
            return out
        ccum = np.concatenate(([0], np.cumsum(ccounts)[:-1]))
        cpos = (
            np.arange(ctotal, dtype=np.int64)
            - np.repeat(ccum, ccounts)
            + np.repeat(cstarts, ccounts)
        )
        rows = np.repeat(rows1, ccounts)
        totals = np.repeat(d1, ccounts) + cand_d2[cpos]
        cands = cand_ids[cpos]
        # Min-per-(row, candidate), first occurrence on ties — the pure
        # merge's strict-< update in scan order.
        seq = np.arange(ctotal, dtype=np.int64)
        order = np.lexsort((seq, totals, cands, rows))
        rs, cs = rows[order], cands[order]
        first = np.ones(ctotal, dtype=bool)
        first[1:] = (rs[1:] != rs[:-1]) | (cs[1:] != cs[:-1])
        win = order[first]
        wrows, wcands, wtotals = rows[win], cands[win], totals[win]
        # Rank per row by (total, repr(candidate)) and keep the top k.
        cand_rrank = np.asarray(
            [
                rrank[intern(u)] if u in self.public else -1
                for u in cand_vertices
            ],
            dtype=np.int64,
        )
        # Private candidates have no public repr rank; fall back to the
        # pure path for the (rare) mixed case rather than approximate.
        wr = cand_rrank[wcands]
        if bool((wr < 0).any()):
            return None
        rorder = np.lexsort((wr, wtotals, wrows))
        wrows, wcands, wtotals = wrows[rorder], wcands[rorder], wtotals[rorder]
        row_start = np.ones(wrows.size, dtype=bool)
        row_start[1:] = wrows[1:] != wrows[:-1]
        group_ids = np.cumsum(row_start) - 1
        group_first = np.flatnonzero(row_start)
        within = np.arange(wrows.size, dtype=np.int64) - group_first[group_ids]
        keep = within < k
        for j in np.flatnonzero(keep):
            e = int(j)
            out[int(wrows[e])].append(
                (cand_vertices[int(wcands[e])], float(wtotals[e]))
            )
        return out


def offset_sweep_batch(
    runtime: VectorizedRuntime,
    columns: Sequence[SweepColumn],
    budget: Optional[QueryBudget] = None,
) -> List[SweepCover]:
    """Layer-batched multi-column replica of `offset_expansion`.

    Each column is an independent ``(seeds, tau)`` sweep; columns share
    every kernel invocation (flat node index ``col * n + u``) but never
    interact.  Returns, per column, the exact dict `offset_expansion`
    would: same keys, same Match values, same insertion (pop) order.

    Budget accounting is per settled layer (``cost=len(winners)``) —
    equivalent in magnitude to the pure per-pop checkpoints minus stale
    pops, so expansion caps bind at nearly the same point but not
    guaranteed mid-step parity.
    """
    n = runtime.n
    ncols = len(columns)
    intern = runtime.public.intern
    indptr, indices, weights = runtime.indptr, runtime.indices, runtime.weights

    witnesses: List[Vertex] = []
    node_l: List[int] = []
    dist_l: List[float] = []
    k2_l: List[int] = []
    wit_l: List[int] = []
    tau_of = np.empty(ncols, dtype=np.float64)
    for c, (seeds, tau) in enumerate(columns):
        tau_of[c] = tau
        kept = 0
        for offset, portal, witness in seeds:
            if offset <= tau:
                node_l.append(c * n + intern(portal))
                dist_l.append(offset)
                k2_l.append(kept)
                kept += 1
                wit_l.append(len(witnesses))
                witnesses.append(witness)

    node = np.asarray(node_l, dtype=np.int64)
    dist = np.asarray(dist_l, dtype=np.float64)
    k1 = np.zeros(node.size, dtype=np.int64)
    k2 = np.asarray(k2_l, dtype=np.int64)
    k3 = np.zeros(node.size, dtype=np.int64)
    wit = np.asarray(wit_l, dtype=np.int64)

    settled = np.zeros(ncols * n, dtype=bool)
    log_node: List[Any] = []
    log_dist: List[Any] = []
    log_wit: List[Any] = []
    next_rank = 0

    while node.size:
        live = ~settled[node]
        if not live.all():
            node, dist = node[live], dist[live]
            k1, k2, k3, wit = k1[live], k2[live], k3[live], wit[live]
            if not node.size:
                break
        d_min = dist.min()
        layer = dist == d_min
        ln = node[layer]
        lk1, lk2, lk3, lw = k1[layer], k2[layer], k3[layer], wit[layer]
        # Winning entry per node: lexicographic min of (k1, k2, k3) —
        # the image of the pure tie-break counter (module docstring).
        order = np.lexsort((lk3, lk2, lk1, ln))
        ln_sorted = ln[order]
        is_first = np.ones(ln_sorted.size, dtype=bool)
        is_first[1:] = ln_sorted[1:] != ln_sorted[:-1]
        win = order[is_first]
        wn, ww = ln[win], lw[win]
        wk1, wk2, wk3 = lk1[win], lk2[win], lk3[win]
        # Pop order among the layer's winners = winning-key order.
        pop_order = np.lexsort((wk3, wk2, wk1))
        wn, ww = wn[pop_order], ww[pop_order]
        m = int(wn.size)
        if budget is not None:
            budget.checkpoint(cost=m)
        settled[wn] = True
        ranks = next_rank + np.arange(m, dtype=np.int64)
        next_rank += m
        log_node.append(wn)
        log_wit.append(ww)
        log_dist.append(np.full(m, d_min, dtype=np.float64))
        keep = ~layer
        node, dist = node[keep], dist[keep]
        k1, k2, k3, wit = k1[keep], k2[keep], k3[keep], wit[keep]
        # Push generation: one ragged CSR gather over all winners.
        u_local = wn % n
        src_col = wn // n
        starts = indptr[u_local]
        counts = indptr[u_local + 1] - starts
        total = int(counts.sum())
        if not total:
            continue
        cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        pos = (
            np.arange(total, dtype=np.int64)
            - np.repeat(cum, counts)
            + np.repeat(starts, counts)
        )
        tgt = np.repeat(src_col, counts) * n + indices[pos]
        nd = d_min + weights[pos]
        ok = (nd <= tau_of[np.repeat(src_col, counts)]) & ~settled[tgt]
        if not ok.any():
            continue
        node = np.concatenate((node, tgt[ok]))
        dist = np.concatenate((dist, nd[ok]))
        k1 = np.concatenate((k1, np.ones(int(ok.sum()), dtype=np.int64)))
        k2 = np.concatenate((k2, np.repeat(ranks, counts)[ok]))
        k3 = np.concatenate((k3, pos[ok]))
        wit = np.concatenate((wit, np.repeat(ww, counts)[ok]))

    results: List[SweepCover] = [SweepCover() for _ in range(ncols)]
    vertex_of = runtime.vertex_of
    for ni, wi, di in zip(log_node, log_wit, log_dist):
        for j in range(ni.size):
            flat = int(ni[j])
            results[flat // n][vertex_of[flat % n]] = Match(
                witnesses[int(wi[j])], float(di[j])
            )
    if log_node:
        all_nodes = np.concatenate(log_node)
        all_dists = np.concatenate(log_dist)
        cols = all_nodes // n
        for c in range(ncols):
            mask = cols == c
            results[c].ids = all_nodes[mask] % n
            results[c].dists = all_dists[mask]
    else:
        for cover in results:
            cover.ids = np.empty(0, dtype=np.int64)
            cover.dists = np.empty(0, dtype=np.float64)
    return results


class RankedMerge:
    """AComplete parts (a)+(b) for the fast-path roots, as ranked columns.

    Covers one query's *new public-only* answer roots (vertices reached
    by a sweep that are neither existing partials nor private-side
    vertices).  For those, the merged per-keyword match is a pure
    function of the sweep cover and the keyword-sketch probe:

    * match distance = sweep distance, improved by the probe exactly
      when the probe has a witness and is strictly closer (the pure
      part-(b) rule);
    * ``missing`` iff neither source reached the root.

    The candidate weights are accumulated in keyword order with the same
    IEEE additions as ``RootedAnswer.weight()``, and ``order`` ranks the
    roots by ``(weight, repr(root))`` — the exact ``sort_key()`` order —
    so the qualification walk can lazily :meth:`materialize` only the
    prefix it actually visits instead of building every candidate.
    """

    __slots__ = (
        "runtime", "keywords", "ids", "slow_touched_ids", "order",
        "weight", "_win", "_best", "_center", "_wit",
    )

    def __init__(
        self,
        runtime: VectorizedRuntime,
        keywords: List[Label],
        ids: Any,
        slow_touched_ids: Any,
        order: Any,
        weight: Any,
        win: List[Any],
        best: List[Any],
        center: List[Any],
        wit: List[List[Optional[Vertex]]],
    ) -> None:
        self.runtime = runtime
        self.keywords = keywords
        self.ids = ids
        self.slow_touched_ids = slow_touched_ids
        self.order = order
        self.weight = weight
        self._win = win
        self._best = best
        self._center = center
        self._wit = wit

    def __len__(self) -> int:
        return int(self.ids.size)

    def key(self, pos: int) -> Tuple[float, str]:
        """``sort_key()`` of the candidate at rank ``pos``."""
        j = int(self.order[pos])
        return (
            float(self.weight[j]),
            repr(self.runtime.vertex_of[int(self.ids[j])]),
        )

    def materialize(
        self, pos: int, swept: Dict[Label, Dict[Vertex, Match]]
    ) -> PartialAnswer:
        """Build the candidate at rank ``pos`` exactly as the pure merge.

        Match slots are written in keyword order (the pure part-(a)
        insertion order; part (b) only overwrites existing slots), so
        the resulting answer is bit-identical to the loop's.
        """
        j = int(self.order[pos])
        u = self.runtime.vertex_of[int(self.ids[j])]
        partial = PartialAnswer(answer=RootedAnswer(u, {}))
        for qi, q in enumerate(self.keywords):
            if bool(self._win[qi][j]):
                center = int(self._center[qi][j])
                partial.set_match(
                    q, self._wit[qi][center], float(self._best[qi][j])
                )
                partial.public_matched.add(q)
            else:
                hit = swept[q].get(u)
                if hit is None:
                    partial.set_match(q, None, INF)
                    partial.missing.add(q)
                else:
                    partial.set_match(q, hit.vertex, hit.distance)
        return partial


def merge_rank(
    runtime: VectorizedRuntime,
    keywords: List[Label],
    covers: Dict[Label, Dict[Vertex, Match]],
    exclude_ids: Any,
) -> Optional[RankedMerge]:
    """Rank a query's fast-path answer roots without materializing them.

    ``covers`` maps each keyword to its sweep cover (empty for unseeded
    keywords); ``exclude_ids`` holds the interned ids the caller must
    handle on the pure per-root path (existing partials and private-side
    vertices).  Returns None when the fast path cannot run — a repr
    collision breaks the rank table, or a cover lacks the kernel's
    arrays — and the caller falls back to the generic merge.
    """
    rrank = runtime.repr_rank()
    if rrank is None:
        return None
    cols: List[Optional[SweepCover]] = []
    for q in keywords:
        cover = covers.get(q)
        if not cover:
            cols.append(None)
        elif isinstance(cover, SweepCover) and cover.ids is not None:
            cols.append(cover)
        else:
            return None
    nonempty = [c for c in cols if c is not None]
    if nonempty:
        touched = np.unique(np.concatenate([c.ids for c in nonempty]))
    else:
        touched = np.empty(0, dtype=np.int64)
    if exclude_ids:
        excl = np.asarray(sorted(exclude_ids), dtype=np.int64)
        slow_mask = np.isin(touched, excl)
        slow_touched = touched[slow_mask]
        ids = touched[~slow_mask]
    else:
        slow_touched = np.empty(0, dtype=np.int64)
        ids = touched
    m = int(ids.size)
    weight = np.zeros(m, dtype=np.float64)
    win_l: List[Any] = []
    best_l: List[Any] = []
    center_l: List[Any] = []
    wit_l: List[List[Optional[Vertex]]] = []
    n = runtime.n
    for qi, q in enumerate(keywords):
        cover = cols[qi]
        sweep_d = np.full(m, np.inf, dtype=np.float64)
        if cover is not None and m:
            dcol = np.full(n, np.inf, dtype=np.float64)
            dcol[cover.ids] = cover.dists
            sweep_d = dcol[ids]
        best, center = runtime.probe_ids(ids, q)
        kw_wit = runtime._keyword_column(q)[1]
        win = np.zeros(m, dtype=bool)
        if m:
            has = center >= 0
            win[has] = runtime.witness_ok(q)[center[has]] & (
                best[has] < sweep_d[has]
            )
        final = np.where(win, best, sweep_d)
        weight = weight + final
        win_l.append(win)
        best_l.append(best)
        center_l.append(center)
        wit_l.append(kw_wit)
    order = (
        np.lexsort((rrank[ids], weight))
        if m
        else np.empty(0, dtype=np.int64)
    )
    return RankedMerge(
        runtime, list(keywords), ids, slow_touched, order, weight,
        win_l, best_l, center_l, wit_l,
    )


_UNSUPPORTED = object()


def runtime_for(engine: Any) -> Optional[VectorizedRuntime]:
    """The engine's cached :class:`VectorizedRuntime`, or None.

    None means this engine cannot run vectorized kernels at all: numpy
    missing, a dict-backend public graph, or non-positive edge weights.
    """
    cached = getattr(engine, "_csr_runtime", None)
    if cached is _UNSUPPORTED:
        return None
    if isinstance(cached, VectorizedRuntime):
        return cached
    if not _NUMPY or not isinstance(engine.public, FrozenGraph):
        # Deliberate engine mutation: `_csr_runtime` is a
        # write-once memo slot derived purely from the frozen public
        # graph, so caching it on the engine cannot perturb answers.
        engine._csr_runtime = _UNSUPPORTED
        return None
    runtime = VectorizedRuntime(engine)
    if not runtime.supported:
        engine._csr_runtime = _UNSUPPORTED
        return None
    engine._csr_runtime = runtime
    return runtime
