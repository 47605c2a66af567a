"""PP-knk: top-k nearest keyword search on top of PPKWS (Sec. IV-C, Appx. A).

* **PEval** is the unmodified k-nk algorithm on the private graph: a
  distance-ordered Dijkstra sweep from the query vertex collecting
  keyword matches.  The sweep additionally records every portal it
  passes — each is a gateway to public-side matches.
* **ARefine** tightens both the match distances and the portal distances
  with two-portal detours (Eq. 4), identical to PP-r-clique.
* **AComplete** extends each recorded portal with the public-side
  keyword distance ``d_hat(p, q)`` from PADS/KPADS (with witness), merges
  public candidates into the private ranking and keeps the top k.

Lemma A.1/A.4 guarantee: every private vertex belonging to the true
combined-graph top-k is returned, because private match distances are
exact on ``Gc`` after refinement while public candidates only ever carry
over-estimates.

Budget checkpoints, step timing, degradation bookkeeping and obs hooks
all live in :mod:`repro.core.engine` (rule RA008); this module only
declares the steps and registers the :data:`KNK` spec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.budget import QueryBudget
from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import (
    Attachment,
    KnkQueryResult,
    PPKWS,
    QueryCounters,
)
from repro.core.partial import PairIndicator, PartialKnkAnswer
from repro.core.pp_rclique import CompletionCache
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF, dijkstra_ordered
from repro.semantics.answers import KnkAnswer, Match
from repro.semantics.wire import knk_cache_params, knk_payload, knk_wire_params

__all__ = ["pp_knk_query", "peval_knk", "salvage_knk_answer"]


def salvage_knk_answer(partial: PartialKnkAnswer, k: int) -> KnkAnswer:
    """Best-effort k-nk answer from the private matches found so far.

    Private-sweep matches carry exact private-graph distances (only ever
    *tightened* by refinement towards the combined-graph distance), so
    every salvaged distance is achievable on ``Gc``.  Refinement may have
    unsorted the list, hence the re-sort.  Bounded work — safe after
    budget expiry.
    """
    source = partial.answer
    matches = [m.copy() for m in source.matches if m.is_resolved()]
    matches.sort(key=lambda m: (m.distance, repr(m.vertex)))
    return KnkAnswer(source.source, source.keyword, matches[:k])


def peval_knk(
    attachment: Attachment,
    source: Vertex,
    keyword: Label,
    k: int,
    budget: Optional[QueryBudget] = None,
    partial: Optional[PartialKnkAnswer] = None,
) -> PartialKnkAnswer:
    """Step 1: exact k-nk sweep on the private graph, recording portals.

    Pass a pre-built ``partial`` to accumulate matches in place — the
    pipeline does this so that a budget expiring mid-sweep still leaves
    the matches found so far available for the degraded result.
    """
    private = attachment.private
    portals = attachment.portals
    if partial is None:
        partial = PartialKnkAnswer(answer=KnkAnswer(source, keyword, []))
    answer = partial.answer
    for v, d in dijkstra_ordered(private, source, budget=budget):
        if v in portals:
            partial.portal_entries.append((v, d))
        if private.has_label(v, keyword):
            answer.matches.append(Match(v, d))
            partial.pair_indicators.append(PairIndicator(source, v, keyword))
            if len(answer.matches) >= k:
                break
    return partial


def _arefine(
    attachment: Attachment,
    partial: PartialKnkAnswer,
    counters: QueryCounters,
    reduced: bool,
    budget: Optional[QueryBudget] = None,
) -> None:
    """Step 2: refine match and portal distances with portal detours."""
    if reduced and not attachment.has_refined_portals:
        counters.refinement_checks += len(partial.pair_indicators) + len(
            partial.portal_entries
        )
        return
    oracle = attachment.oracle
    pairs = attachment.refined_by_source if reduced else None
    source = partial.answer.source
    for match in partial.answer.matches:
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        if match.vertex is None:
            continue
        refined = oracle.refine_pair(
            source, match.vertex, match.distance, pairs_by_source=pairs
        )
        if refined < match.distance:
            match.distance = refined
            counters.refinements_applied += 1
    refined_portals: List[Tuple[Vertex, float]] = []
    for portal, d in partial.portal_entries:
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        nd = oracle.refine_pair(source, portal, d, pairs_by_source=pairs)
        if nd < d:
            counters.refinements_applied += 1
        refined_portals.append((portal, nd))
    partial.portal_entries = refined_portals


def _acomplete(
    engine: PPKWS,
    attachment: Attachment,
    partial: PartialKnkAnswer,
    keyword: Label,
    k: int,
    cache: CompletionCache,
    budget: Optional[QueryBudget] = None,
) -> KnkAnswer:
    """Step 3: merge public candidates reached through portals (Appx. A)."""
    best: Dict[Vertex, float] = {}
    for m in partial.answer.matches:
        if m.vertex is not None and m.distance < best.get(m.vertex, INF):
            best[m.vertex] = m.distance
    for portal, d in partial.portal_entries:
        if budget is not None:
            budget.checkpoint()
        for witness, pub_d in cache.lookup_candidates(engine, portal, keyword, k):
            total = d + pub_d
            if total < best.get(witness, INF):
                best[witness] = total
    ranked = sorted(best.items(), key=lambda item: (item[1], repr(item[0])))
    final = KnkAnswer(partial.answer.source, keyword, [])
    final.matches = [Match(v, d) for v, d in ranked[:k]]
    return final


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
def _validate(ctx: PipelineContext) -> None:
    p = ctx.params
    if p["k"] < 1:
        raise QueryError(f"k must be >= 1, got {p['k']}")
    if p["source"] not in ctx.attachment.private:
        raise QueryError(
            f"k-nk query vertex {p['source']!r} must belong to the private graph"
        )


def _init(ctx: PipelineContext) -> None:
    # The partial exists before the sweep starts so a budget expiring
    # mid-peval still has matches to salvage.
    p = ctx.params
    ctx.state = PartialKnkAnswer(answer=KnkAnswer(p["source"], p["keyword"], []))


def _step_peval(ctx: PipelineContext) -> None:
    p = ctx.params
    ctx.state = peval_knk(
        ctx.attachment, p["source"], p["keyword"], p["k"], ctx.budget, ctx.state
    )
    ctx.counters.partial_answers = len(ctx.state.answer.matches)


def _step_arefine(ctx: PipelineContext) -> None:
    _arefine(
        ctx.attachment, ctx.state, ctx.counters,
        ctx.options.reduced_refinement, ctx.budget,
    )


def _step_acomplete(ctx: PipelineContext) -> None:
    p = ctx.params
    if ctx.cache is None:
        ctx.cache = CompletionCache(ctx.options.dp_completion)
    ctx.answers = _acomplete(
        ctx.engine, ctx.attachment, ctx.state, p["keyword"], p["k"],
        ctx.cache, ctx.budget,
    )
    ctx.counters.completion_lookups = ctx.cache.misses + ctx.cache.hits
    ctx.counters.completion_cache_hits = ctx.cache.hits


def _salvage(ctx: PipelineContext, step: str) -> KnkAnswer:
    return salvage_knk_answer(ctx.state, ctx.params["k"])


# ----------------------------------------------------------------------
# the vectorized AComplete (repro.core.vectorized numpy kernels)
# ----------------------------------------------------------------------
def _step_acomplete_vectorized(ctx: PipelineContext) -> None:
    """AComplete with the portal probes batched through the numpy kernel.

    One :meth:`CompletionCache.lookup_candidates_many` resolves every
    portal's public top-k in a single kernel invocation with the serial
    hit/miss accounting replicated, then the merge replays the serial
    loop over the precomputed lists — ranking and counters are
    bit-identical.  The kernel declines graphs whose vertex reprs
    collide or whose candidate lists include private vertices; the step
    then falls back to the serial body.
    """
    p = ctx.params
    if ctx.cache is None:
        ctx.cache = CompletionCache(ctx.options.dp_completion)
    partial = ctx.state
    keyword, k = p["keyword"], p["k"]
    runtime = ctx.vectorized.runtime
    lists = ctx.cache.lookup_candidates_many(
        ctx.engine, [portal for portal, _ in partial.portal_entries],
        keyword, k, runtime,
    )
    if lists is None:
        _step_acomplete(ctx)
        return
    best: Dict[Vertex, float] = {}
    for m in partial.answer.matches:
        if m.vertex is not None and m.distance < best.get(m.vertex, INF):
            best[m.vertex] = m.distance
    for (portal, d), candidates in zip(partial.portal_entries, lists):
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        for witness, pub_d in candidates:
            total = d + pub_d
            if total < best.get(witness, INF):
                best[witness] = total
    ranked = sorted(best.items(), key=lambda item: (item[1], repr(item[0])))
    final = KnkAnswer(partial.answer.source, keyword, [])
    final.matches = [Match(v, d) for v, d in ranked[:k]]
    ctx.answers = final
    ctx.counters.completion_lookups = ctx.cache.misses + ctx.cache.hits
    ctx.counters.completion_cache_hits = ctx.cache.hits


KNK = register_semantics(SemanticsSpec(
    name="knk",
    summary="Top-k nearest keyword matches (PP-knk, Sec. IV-C).",
    steps=(
        StepSpec("peval", _step_peval),
        StepSpec("arefine", _step_arefine),
        StepSpec("acomplete", _step_acomplete, _step_acomplete_vectorized),
    ),
    validate=_validate,
    init=_init,
    salvage=_salvage,
    count_answers=lambda a: len(a.matches),
    result_type=KnkQueryResult,
    wire_required=("network", "owner", "source", "keyword"),
    wire_optional=("k",),
    wire_params=knk_wire_params,
    wire_payload=knk_payload,
    wire_cache_params=knk_cache_params,
))


def pp_knk_query(
    engine: PPKWS,
    attachment: Attachment,
    source: Vertex,
    keyword: Label,
    k: int,
    cache: "CompletionCache | None" = None,
    budget: Optional[QueryBudget] = None,
) -> KnkQueryResult:
    """Run the full PEval -> ARefine -> AComplete pipeline for k-nk.

    ``cache`` lets batch sessions share one completion cache across
    queries; by default each query gets a fresh one (the paper's PKA).

    ``budget`` enables cooperative cancellation: expiry mid-step degrades
    the query to the private matches found so far (see
    :class:`~repro.core.framework.KnkQueryResult`).
    """
    return KNK.run(
        engine, attachment,
        {"source": source, "keyword": keyword, "k": k},
        budget=budget,
        cache=cache,
    )
