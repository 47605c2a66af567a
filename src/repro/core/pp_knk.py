"""PP-knk: top-k nearest keyword search on top of PPKWS (Sec. IV-C, Appx. A).

* **PEval** is the unmodified k-nk algorithm on the private graph: a
  distance-ordered Dijkstra sweep from the query vertex collecting
  keyword matches.  The sweep additionally records every portal it
  passes — each is a gateway to public-side matches.
* **ARefine** tightens both the match distances and the portal distances
  with two-portal detours (Eq. 4), as PP-r-clique does — but every pair
  starts at the query vertex, so Eq. 4's ``|P|^2`` half is one table per
  query.
* **AComplete** extends each recorded portal with the public-side
  keyword distance ``d_hat(p, q)`` from PADS/KPADS (with witness), merges
  public candidates into the private ranking and keeps the top k.

Lemma A.1/A.4 guarantee: every private vertex belonging to the true
combined-graph top-k is returned, because private match distances are
exact on ``Gc`` after refinement while public candidates only ever carry
over-estimates.

The multi-keyword extension (paper Sec. II) is the same pipeline — k-nk
is its one-keyword case.  PEval sweeps with the conjunctive or
disjunctive match predicate; AComplete's public side differs per mode:

* **disjunction** completes each portal with the *best single-keyword*
  KPADS candidates of every query keyword — a vertex matching any
  keyword matches the disjunction, so merging per-keyword candidate
  lists is exact with respect to the sketches;
* **conjunction** completes each portal with candidates drawn from the
  *rarest* keyword's KPADS lists and keeps only those carrying all query
  keywords (labels are checked on the public graph).  This mirrors the
  classic rarest-first strategy for conjunctive retrieval; candidates
  the sketch does not surface may be missed, so the conjunctive variant
  is approximate on the public side — private-side answers remain exact.

Budget checkpoints, step timing, degradation bookkeeping and obs hooks
all live in :mod:`repro.core.engine` (the engine equivalence suite
pins them); this module only
declares the steps and registers the :data:`KNK` and :data:`KNK_MULTI`
specs.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.budget import QueryBudget
from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import Attachment, KnkQueryResult
from repro.core.partial import PairIndicator, PartialKnkAnswer
from repro.core.pp_rclique import CompletionCache
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF, dijkstra_ordered
from repro.semantics.answers import KnkAnswer, Match
from repro.semantics.knk import check_knk_query, display_keyword, match_predicate
from repro.semantics.wire import (
    knk_cache_params,
    knk_multi_cache_params,
    knk_multi_wire_params,
    knk_payload,
    knk_wire_params,
)

__all__ = ["peval_knk"]


def peval_knk(
    attachment: Attachment,
    source: Vertex,
    keywords: Sequence[Label],
    k: int,
    mode: str = "and",
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
    matches = match_predicate(private, keywords, mode)
    if partial is None:
        partial = PartialKnkAnswer(
            answer=KnkAnswer(source, display_keyword(keywords, mode), [])
        )
    answer = partial.answer
    for v, d in dijkstra_ordered(private, source, budget=budget):
        if v in portals:
            partial.portal_entries.append((v, d))
        if matches(v):
            answer.matches.append(Match(v, d))
            partial.pair_indicators.append(
                PairIndicator(source, v, answer.keyword)
            )
            if len(answer.matches) >= k:
                break
    return partial


# ----------------------------------------------------------------------
# the specs
# ----------------------------------------------------------------------
def _query_of(params: Dict[str, Any]) -> Tuple[Sequence[Label], str]:
    """``(keywords, mode)`` of either spelling.

    ``knk`` sends one ``keyword`` and no mode: with one keyword
    conjunction and disjunction are the same query.
    """
    if "keyword" in params:
        return [params["keyword"]], "and"
    return params["keywords"], params["mode"]


def _validate(ctx: PipelineContext) -> None:
    p = ctx.params
    keywords, mode = _query_of(p)
    check_knk_query(keywords, p["k"], mode)
    try:
        known = p["source"] in ctx.attachment.private
    except TypeError:  # unhashable: no graph holds it
        known = False
    if not known:
        raise QueryError(
            f"k-nk query vertex {p['source']!r} must belong to the private graph"
        )


def _init(ctx: PipelineContext) -> None:
    # The partial exists before the sweep starts so a budget expiring
    # mid-peval still has matches to salvage.
    p = ctx.params
    keywords, p["mode"] = _query_of(p)
    p["keywords"] = list(dict.fromkeys(keywords))
    if ctx.cache is None:  # no session PKA to share: this query's own
        ctx.cache = CompletionCache(ctx.options.dp_completion)
    ctx.state = PartialKnkAnswer(answer=KnkAnswer(
        p["source"], display_keyword(p["keywords"], p["mode"]), []
    ))


def _step_peval(ctx: PipelineContext) -> None:
    p = ctx.params
    ctx.state = peval_knk(
        ctx.attachment, p["source"], p["keywords"], p["k"], p["mode"],
        ctx.budget, ctx.state,
    )
    ctx.counters.partial_answers = len(ctx.state.answer.matches)


def _step_arefine(ctx: PipelineContext) -> None:
    """Step 2: refine match and portal distances with portal detours.

    One :meth:`~repro.portals.oracle.CombinedDistanceOracle.vertex_detours`
    table rooted at the query vertex serves every refinement, so each
    match or portal costs an ``O(|P|)`` scan.
    """
    attachment, partial, counters = ctx.attachment, ctx.state, ctx.counters
    budget, reduced = ctx.budget, ctx.options.reduced_refinement
    if reduced and not attachment.has_refined_portals:
        counters.refinement_checks += len(partial.pair_indicators) + len(
            partial.portal_entries
        )
        return
    oracle = attachment.oracle
    source = partial.answer.source
    via = oracle.vertex_detours(
        source, attachment.refined_by_source if reduced else None
    )
    for match in partial.answer.matches:
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        if match.vertex is None:
            continue
        refined = oracle.refine_pair(
            source, match.vertex, match.distance, via=via
        )
        if refined < match.distance:
            match.distance = refined
            counters.refinements_applied += 1
    refined_portals: List[Tuple[Vertex, float]] = []
    for portal, d in partial.portal_entries:
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        nd = oracle.refine_pair(source, portal, d, via=via)
        if nd < d:
            counters.refinements_applied += 1
        refined_portals.append((portal, nd))
    partial.portal_entries = refined_portals


def _step_acomplete(ctx: PipelineContext) -> None:
    """Step 3: merge public candidates reached through portals (Appx. A).

    Each portal is probed after its budget checkpoint.
    """
    p, partial, budget = ctx.params, ctx.state, ctx.budget
    engine, cache = ctx.engine, ctx.cache
    public = engine.public
    k, probe = p["k"], p["keywords"]
    required = None
    if p["mode"] == "and" and len(probe) > 1:
        # Rarest-first, keeping candidates that carry every keyword.  One
        # keyword needs no filter: a KPADS list for ``q`` holds only
        # vertices that carry ``q``.
        required = frozenset(probe)
        probe = [min(probe, key=lambda t: (public.label_frequency(t), t))]
    best: Dict[Vertex, float] = {}
    for m in partial.answer.matches:
        if m.vertex is not None and m.distance < best.get(m.vertex, INF):
            best[m.vertex] = m.distance
    for portal, d in partial.portal_entries:
        if budget is not None:
            budget.checkpoint()
        for q in probe:
            for witness, pub_d in cache.lookup_candidates(engine, portal, q, k):
                if required is not None and not required <= public.labels(witness):
                    continue
                total = d + pub_d
                if total < best.get(witness, INF):
                    best[witness] = total
    ranked = sorted(best.items(), key=lambda item: (item[1], repr(item[0])))
    ctx.answers = KnkAnswer(
        partial.answer.source, partial.answer.keyword,
        [Match(v, d) for v, d in ranked[:k]],
    )
    ctx.counters.completion_lookups = cache.misses + cache.hits
    ctx.counters.completion_cache_hits = cache.hits


def _salvage(ctx: PipelineContext, step: str) -> KnkAnswer:
    """Best-effort k-nk answer from the private matches found so far.

    Private-sweep matches carry exact private-graph distances (only ever
    *tightened* by refinement towards the combined-graph distance), so
    every salvaged distance is achievable on ``Gc``.  Refinement may have
    unsorted the list, hence the re-sort.  Bounded work — safe after
    budget expiry.
    """
    found = ctx.state.answer
    matches = [m.copy() for m in found.matches if m.is_resolved()]
    matches.sort(key=lambda m: (m.distance, repr(m.vertex)))
    return KnkAnswer(found.source, found.keyword, matches[: ctx.params["k"]])


KNK = register_semantics(SemanticsSpec(
    name="knk",
    summary="Top-k nearest keyword matches (PP-knk, Sec. IV-C).",
    steps=(
        StepSpec("peval", _step_peval),
        StepSpec("arefine", _step_arefine),
        StepSpec("acomplete", _step_acomplete),
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

# The same pipeline under its multi-keyword wire spelling.
KNK_MULTI = register_semantics(replace(
    KNK,
    name="knk_multi",
    summary="Multi-keyword k-nk, conjunctive or disjunctive (Sec. II ext.).",
    wire_required=("network", "owner", "source", "keywords"),
    wire_optional=("k", "mode"),
    wire_params=knk_multi_wire_params,
    wire_cache_params=knk_multi_cache_params,
))
