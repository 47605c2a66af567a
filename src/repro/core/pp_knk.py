"""PP-knk: top-k nearest keyword search on top of PPKWS (Sec. IV-C, Appx. A).

* **PEval** is the k-nk algorithm on the private graph: a
  distance-ordered Dijkstra sweep from the query vertex collecting
  keyword matches, which also records every portal it passes — each is
  a gateway to public-side matches.  The sweep runs once per
  ``(attachment, source)`` and is kept as that source's row
  (:class:`~repro.portals.keyword_map.PrivateSweeps`, Sec. V-C's
  per-user state); a query replays it, with the labels read live.
* **ARefine** tightens both the match distances and the portal distances
  with two-portal detours (Eq. 4), as PP-r-clique does — but every pair
  starts at the query vertex, at a distance the row fixes, so each
  refined distance is computed once and kept in the row too.
* **AComplete** extends each recorded portal with the public-side
  keyword distance ``d_hat(p, q)`` from PADS/KPADS (with witness), merges
  public candidates into the private ranking and keeps the top k,
  ranking once per query (why no per-portal cut is needed: see
  ``_step_acomplete``).

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
  Each portal's list is cut to its top k *before* the label filter.

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
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF
from repro.semantics.answers import KnkAnswer, Match
from repro.semantics.knk import check_mode, display_keyword, matching_vertices
from repro.semantics.wire import (
    Field,
    check_count,
    check_keyword,
    check_keywords,
    check_vertex,
    knk_payload,
)
from repro.sketches.kpads import ranked

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

    The sweep is ``source``'s row on the attachment, replayed.  A budget
    is charged one checkpoint per heap pop the sweep recorded before each
    vertex, and the pops after the last one when the row runs out, so a
    capped query stops exactly where a live sweep would.  A portal's row
    is swept at attach; the first query from any other source fills its
    row with one unbudgeted sweep of ``G'``: a deadline can overshoot by
    that one sweep, the cost of one of attach's ``|P|`` portal sweeps.

    Pass a pre-built ``partial`` to accumulate matches in place — the
    pipeline does this so that a budget expiring mid-sweep still leaves
    the matches found so far available for the degraded result.
    """
    private = attachment.private
    portals = attachment.portals
    matched = matching_vertices(private, keywords, mode)
    if partial is None:
        partial = PartialKnkAnswer(
            answer=KnkAnswer(source, display_keyword(keywords, mode), [])
        )
    answer = partial.answer
    sweeps = attachment.sweeps
    row = partial.row = sweeps.row(private, source)
    entries = zip(
        map(sweeps.vertices.__getitem__, row.ids), row.distances, row.pops
    )
    for i, (v, d, pops) in enumerate(entries):
        if budget is not None:
            for _ in range(pops):
                budget.checkpoint()
        if v in portals:
            partial.portal_entries.append((v, d))
            partial.portal_positions.append(i)
        if v in matched:
            answer.matches.append(Match(v, d))
            partial.match_positions.append(i)
            partial.pair_indicators.append(
                PairIndicator(source, v, answer.keyword)
            )
            if len(answer.matches) >= k:
                break
    else:
        if budget is not None:
            for _ in range(row.tail):
                budget.checkpoint()
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
    source = ctx.params["source"]
    if source not in ctx.attachment.private:
        raise QueryError(
            f"k-nk query vertex {source!r} must belong to the private graph"
        )


def _init(ctx: PipelineContext) -> None:
    # The partial exists before the sweep starts so a budget expiring
    # mid-peval still has matches to salvage.
    p = ctx.params
    keywords, p["mode"] = _query_of(p)
    p["keywords"] = list(dict.fromkeys(keywords))
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

    Every refinement starts at the query vertex, from the distance its
    row fixes, so each is one entry of the row's refined column: an entry
    an earlier query refined is read back, and a new one is computed
    against one :meth:`~repro.portals.oracle.CombinedDistanceOracle.vertex_detours`
    table, built on this query's first new entry, and stored.
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
    column = partial.row.refined(reduced)
    via: Optional[Dict[Vertex, float]] = None

    def refined(i: int, v: Vertex, d: float) -> float:
        nonlocal via
        r = column[i]
        if r != r:  # NaN: no query refined this entry yet
            if via is None:
                via = oracle.vertex_detours(
                    source, attachment.refined_by_source if reduced else None
                )
            r = column[i] = oracle.refine_pair(source, v, d, via=via)
        return r

    for match, i in zip(partial.answer.matches, partial.match_positions):
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        r = refined(i, match.vertex, match.distance)
        if r < match.distance:
            match.distance = r
            counters.refinements_applied += 1
    refined_portals: List[Tuple[Vertex, float]] = []
    for (portal, d), i in zip(partial.portal_entries, partial.portal_positions):
        if budget is not None:
            budget.checkpoint()
        counters.refinement_checks += 1
        nd = refined(i, portal, d)
        if nd < d:
            counters.refinements_applied += 1
        refined_portals.append((portal, nd))
    partial.portal_entries = refined_portals


def _step_acomplete(ctx: PipelineContext) -> None:
    """Step 3: merge public candidates reached through portals (Appx. A).

    With no label filter (``knk``, disjunction, one-keyword conjunction)
    every portal's budget checkpoint is charged first, then one
    :meth:`~repro.sketches.kpads.KeywordSketch.fold` per probe keyword
    reads every portal's candidates, ``d + (d1 + x)``, into ``best``, and
    ``best`` is ranked once.  Rounding is monotone, so ``d + min_w (d1 +
    x)`` is ``min_w (d + (d1 + x))`` to the bit, the strict ``<`` keeps
    that least total whatever order the fold visits, and a pair it skips
    is dominated by an earlier one of no larger offset and center
    distance.  Ranking each portal's reach and cutting it to k first
    would drop nothing but a rounding tie: if ``u`` is outside ``p``'s
    top k, k vertices precede it under ``p``, each at most as far
    globally, unless adding ``d`` rounds a smaller distance up to ``u``'s
    total and ``repr`` decides.  Conjunction ranks (past k), cuts and then
    filters each portal's list, because a filtered-out vertex frees a
    slot; it tests a vertex's labels once per query.
    """
    p, partial, budget = ctx.params, ctx.state, ctx.budget
    engine = ctx.engine
    public = engine.public
    kpads, pads = engine.index.kpads, engine.index.pads
    k, probe, entries = p["k"], p["keywords"], partial.portal_entries
    best: Dict[Vertex, float] = {}
    for m in partial.answer.matches:
        if m.vertex is not None and m.distance < best.get(m.vertex, INF):
            best[m.vertex] = m.distance
    if p["mode"] == "and" and len(probe) > 1:
        # Rarest-first, keeping candidates that carry every keyword.  One
        # keyword needs no filter: a KPADS list for ``q`` holds only
        # vertices that carry ``q``.
        required = frozenset(probe)
        probe = [min(probe, key=lambda t: (public.label_frequency(t), t))]
        carries: Dict[Vertex, bool] = {}
        get = best.get
        for portal, d in entries:
            if budget is not None:
                budget.checkpoint()
            reach = kpads.reach(pads, portal, probe[0])
            for u, pub_d in ranked(reach, k) if len(reach) > k else reach.items():
                ok = carries.get(u)
                if ok is None:
                    ok = carries[u] = required <= public.labels(u)
                total = d + pub_d
                if ok and total < get(u, INF):
                    best[u] = total
    else:
        if budget is not None:
            for _ in entries:
                budget.checkpoint()
        for q in probe:
            kpads.fold(pads, entries, q, best)
    ctx.answers = KnkAnswer(
        partial.answer.source, partial.answer.keyword,
        [Match(v, d) for v, d in ranked(best, k)],
    )
    # One sketch read per (portal, keyword): no query re-reads a pair,
    # so k-nk keeps no PKA and reports no hits.
    ctx.counters.completion_lookups = len(entries) * len(probe)
    ctx.counters.completion_cache_hits = 0


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
    init=_init,
    salvage=_salvage,
    count_answers=lambda a: len(a.matches),
    result_type=KnkQueryResult,
    fields=(
        Field("source", check_vertex, key=True),
        Field("keyword", check_keyword, key=True),
        Field("k", check_count, 10, key=True),
    ),
    wire_payload=knk_payload,
    validate=_validate,
))

# The same pipeline under its multi-keyword wire spelling.
KNK_MULTI = register_semantics(replace(
    KNK,
    name="knk_multi",
    summary="Multi-keyword k-nk, conjunctive or disjunctive (Sec. II ext.).",
    fields=(
        Field("source", check_vertex, key=True),
        Field("keywords", check_keywords, key=True),
        Field("k", check_count, 10, key=True),
        Field("mode", check_mode, "and", key=True),
    ),
))
