"""PP-Blinks: the Blinks semantic on top of PPKWS (paper Sec. IV-B).

* **PEval** runs backward expansion on the private graph: one bounded
  multi-origin Dijkstra per keyword from its genuine private matches.
  Every traversed vertex becomes a candidate root; keywords that never
  reached a root are recorded as *missing*.  Portal nodes are always
  candidate roots — they are the seeds of the public-side expansion.
* **ARefine** (Algo 4) tightens each recorded root-to-keyword distance
  with two-portal detours ``d'(r,p_i) + dc(p_i,p_j) + d'(p_j,q)`` where
  the last leg comes from the portal-keyword distance map (PKD).
* **AComplete** (Algo 5) has three parts: (a) *backward expansion* — each
  portal-rooted partial answer floods up to ``x = max(tau - d)`` into the
  public graph, planting (or flood-updating) answers at public roots;
  (b) *retrieving missing keywords* — every answer tries to improve each
  keyword with a public-side route (a KPADS lookup for public roots, the
  best portal detour for private roots); (c) *qualification* — distance
  bound, completeness and the Def.-II.2 public-private test, walked in
  weight order until k survive.  Public-only roots are ranked before
  they are built: the walk builds only the prefix it reads.

Budget checkpoints, step timing, degradation bookkeeping and obs hooks
all live in :mod:`repro.core.engine` (the engine equivalence suite
pins them); this module only
declares the steps and registers the :data:`BLINKS` spec.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.budget import QueryBudget
from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import (
    Attachment,
    QueryCounters,
    QueryResult,
)
from repro.core.partial import KeywordIndicator, PartialAnswer, salvage_rooted_answers
from repro.core.pp_rclique import CompletionCache
from repro.core.repair import try_requalify
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF
from repro.semantics.answers import Match, RootedAnswer
from repro.semantics.blinks import (
    blinks_search,
    keyword_expansion,
    offset_expansion,
)
from repro.semantics.wire import (
    check_bound,
    check_count,
    rooted_cache_params,
    rooted_payload,
    rooted_wire_params,
)

__all__ = ["peval_blinks", "arefine_keywords"]


def peval_blinks(
    attachment: Attachment,
    keywords: Sequence[Label],
    tau: float,
    budget: Optional[QueryBudget] = None,
) -> Dict[Vertex, PartialAnswer]:
    """Step 1: backward expansion on the private graph, keyed by root."""
    private = attachment.private
    per_keyword: Dict[Label, Dict[Vertex, Match]] = {}
    roots: Set[Vertex] = set(p for p in attachment.portals if p in private)
    for q in keywords:
        origins = private.vertices_with_label(q)
        cover = keyword_expansion(private, origins, tau, budget=budget) if origins else {}
        per_keyword[q] = cover
        roots.update(cover)
    # The paper seeds the portals as search origins for every keyword, so
    # any private vertex within tau of a portal is traversed and becomes
    # a candidate root (its keywords complete through the public graph).
    # The vertex-portal map already holds those distances.
    vpm = attachment.oracle.vertex_portal
    for v in private.vertices():
        if budget is not None:
            budget.checkpoint()
        if v in roots:
            continue
        portal_d = vpm.portal_distances(v)
        if portal_d and min(portal_d.values()) <= tau:
            roots.add(v)

    partials: Dict[Vertex, PartialAnswer] = {}
    # repr order: which roots get processed before a budget expiry — and
    # hence the salvaged prefix of a degraded run — must not depend on
    # set iteration order (PYTHONHASHSEED).
    for r in sorted(roots, key=repr):
        if budget is not None:
            budget.checkpoint()
        partial = partials[r] = PartialAnswer(answer=RootedAnswer(r, {}))
        for q in keywords:
            hit = per_keyword[q].get(r)
            if hit is None:
                partial.missing.add(q)
                hit = Match(None, INF)
            else:
                partial.private_matched.add(q)
                partial.keyword_indicators.append(KeywordIndicator(r, q))
            partial.answer.matches[q] = hit  # the cover's own Match: no copy
    return partials


def arefine_keywords(
    attachment: Attachment,
    partials: Dict[Vertex, PartialAnswer],
    counters: QueryCounters,
    reduced: bool,
    budget: Optional[QueryBudget] = None,
) -> None:
    """Step 2: Algo 4 — refine (root, keyword) distances via portal pairs."""
    if reduced and not attachment.has_refined_portals:
        counters.refinement_checks += sum(
            len(p.keyword_indicators) for p in partials.values()
        )
        return
    oracle = attachment.oracle
    pairs = attachment.refined_by_source if reduced else None
    # Eq. 5's portal-pair minimum does not depend on the root: one table
    # per keyword, built on first use, serves every indicator.
    via: Dict[Label, Dict[Vertex, Tuple[float, Vertex]]] = {}
    for partial in partials.values():
        for ind in partial.keyword_indicators:
            if budget is not None:
                budget.checkpoint()
            counters.refinement_checks += 1
            match = partial.match(ind.keyword)
            if match is None:
                continue
            table = via.get(ind.keyword)
            if table is None:
                table = via[ind.keyword] = oracle.keyword_detours(ind.keyword, pairs)
            refined, witness = oracle.refine_vertex_keyword_with_witness(
                ind.root, ind.keyword, match.distance, via=table
            )
            if refined < match.distance:
                # The refined path ends at the portal-side nearest keyword
                # vertex, which becomes the new witness.
                match.distance = refined
                counters.refinements_applied += 1
                if witness is not None:
                    match.vertex = witness


def _portal_sweep_seeds(
    public: object,
    attachment: Attachment,
    partials: Dict[Vertex, PartialAnswer],
    keywords: List[Label],
) -> Dict[Label, List[Tuple[float, Vertex, Vertex]]]:
    """Per-keyword ``(offset, portal, witness)`` seeds for the public sweep.

    Portal order is ``repr``-sorted so the seed list — and hence the
    heap tie-breaking inside :func:`offset_expansion` — is identical no
    matter which process (or hash seed) builds it.
    """
    portal_seeds: List[Tuple[Vertex, PartialAnswer]] = [
        (p, partials[p])
        for p in sorted(attachment.portals, key=repr)
        if p in partials and p in public
    ]
    return {
        q: [
            (seed.answer.matches[q].distance, p, seed.answer.matches[q].vertex)
            for p, seed in portal_seeds
            if seed.answer.matches[q].distance < INF
        ]
        for q in keywords
    }


def _merge_swept_root(
    answers: Dict[Vertex, PartialAnswer],
    u: Vertex,
    swept: Dict[Label, Dict[Vertex, Match]],
    keywords: List[Label],
) -> PartialAnswer:
    """Part (a) for one swept vertex: flood-update or plant its answer."""
    existing = answers.get(u)
    if existing is None:
        existing = answers[u] = PartialAnswer(answer=RootedAnswer(u, {}))
    matches = existing.answer.matches
    for q in keywords:
        hit = swept[q].get(u)
        dst = matches.get(q)
        if hit is None:
            if dst is None:
                matches[q] = Match(None, INF)
                existing.missing.add(q)
        elif dst is None or hit.distance < dst.distance:
            # a fresh Match: the answer owns it, the cover stays read-only
            matches[q] = Match(hit.vertex, hit.distance)
            existing.missing.discard(q)
    return existing


def _complete_roots(
    ctx: PipelineContext,
    answers: Dict[Vertex, PartialAnswer],
    public_probe: Callable[[Vertex, Label], Tuple[float, Optional[Vertex]]],
) -> None:
    """Part (b): retrieve/improve every root's keywords via the public side.

    A public root probes KPADS directly; a private root exits through its
    portals and finishes with ``d_hat(portal, q)`` read from the keyword's
    PKA row (Sec. VI-B) — filled once per query through ``ctx.cache``,
    its reads accounted in bulk.
    """
    if ctx.cache is None:
        ctx.cache = CompletionCache(ctx.options.dp_completion)
    engine, cache, keywords = ctx.engine, ctx.cache, ctx.params["keywords"]
    public = engine.public
    vpm = ctx.attachment.oracle.vertex_portal
    rows = {q: cache.row(engine, vpm.portals, q) for q in keywords}
    reads = 0
    for root, partial in answers.items():
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        exits = vpm.portal_distances(root)
        reads += len(exits)
        root_is_public = root in public
        matches = partial.answer.matches
        for q in keywords:
            match = matches.get(q)
            current = match.distance if match is not None else INF
            best, witness = public_probe(root, q) if root_is_public else (INF, None)
            row = rows[q]
            for portal, d1 in exits.items():
                if row is None:  # dp_completion off: every read re-queries
                    pub_d, w = cache.lookup(engine, portal, q)
                elif d1 < current:
                    pub_d, w = row[portal]
                else:
                    continue  # d1 + d_hat >= current cannot improve the match
                if w is not None and d1 + pub_d < best:
                    best, witness = d1 + pub_d, w
            if witness is not None and best < current:
                matches[q] = Match(witness, best)
                partial.missing.discard(q)
                partial.public_matched.add(q)
    if cache.enabled:
        # every portal is a root, so each row entry was some root's first
        # read (counted by the fill); all the other reads hit the table
        cache.hits += reads * len(keywords) - sum(len(r) for r in rows.values())


def _qualify(ctx: PipelineContext, candidates: Iterable[PartialAnswer]) -> None:
    """Part (c): walk candidates in weight order, stop at k survivors.

    ``candidates`` must arrive in ``sort_key()`` order; the walk stops
    once the top-k survivors are in hand, so the (comparatively
    expensive) witness repair only ever touches the cheap prefix — and
    the survivors are the ranked answers as they stand.
    """
    p, counters = ctx.params, ctx.counters
    final: List[RootedAnswer] = []
    for partial in candidates:
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        if len(final) >= p["k"]:
            break
        if partial.missing or not partial.answer.within_bound(p["tau"]):
            counters.answers_pruned += 1
            continue
        if any(not m.is_resolved() for m in partial.answer.matches.values()):
            counters.answers_pruned += 1
            continue
        if p["require_public_private"] and not try_requalify(
            ctx.engine, ctx.attachment, partial, p["keywords"], ctx.cache
        ):
            counters.answers_pruned += 1
            continue
        final.append(partial.answer)
    counters.completion_lookups = ctx.cache.misses + ctx.cache.hits
    counters.completion_cache_hits = ctx.cache.hits
    ctx.answers = final


def _merge_ranked(
    answers: Iterable[PartialAnswer],
    n_fresh: int,
    fresh_key: Callable[[int], Tuple[float, str]],
    build: Callable[[int], PartialAnswer],
) -> Iterator[PartialAnswer]:
    """Part (c)'s candidates: built ``answers`` merged with ranked fresh roots.

    Fresh rank ``i`` (key ``fresh_key(i)``, ascending) is built only when
    the walk reaches it.  A tie goes to ``answers``, as in a stable sort
    that lists the PEval partials (every portal is one) before new roots.
    """
    slow = sorted(((pa.answer.sort_key(), pa) for pa in answers), key=itemgetter(0))
    si, fi = 0, 0
    while si < len(slow) or fi < n_fresh:
        if fi >= n_fresh or (si < len(slow) and slow[si][0] <= fresh_key(fi)):
            yield slow[si][1]
            si += 1
        else:
            yield build(fi)
            fi += 1


def _acomplete(ctx: PipelineContext) -> None:
    """Step 3: Algo 5 — expand, retrieve missing keywords, qualify.

    Ranked before built: most swept vertices are *fresh* roots, neither
    a PEval partial nor private, so with no portal exits and unread by
    salvage.  Their matches stay flat per-keyword columns, ranked by
    ``(weight, repr)``; the qualification walk builds only the prefix it
    reads, in exactly the stable ``sort_key()`` order of building all.
    """
    public, partials = ctx.engine.public, ctx.state
    keywords, tau = ctx.params["keywords"], ctx.params["tau"]
    public_probe = ctx.engine.index.provider().keyword_distance_with_witness

    # (a) Backward expansion from portal-rooted partial answers (lines 2-8).
    #
    # The paper expands each portal separately and flood-updates answers
    # that several portals reach (UpdateAns, lines 14-19).  The fixpoint
    # of those updates is, per keyword q, exactly
    #     min over portal-rooted answers a'  of  a'.match[q].d + d(p, u)
    # which one *offset* multi-source Dijkstra per keyword computes in a
    # single sweep — same final matches, |Q| sweeps instead of |P|.
    answers: Dict[Vertex, PartialAnswer] = dict(partials)
    seeds_by_kw = _portal_sweep_seeds(public, ctx.attachment, partials, keywords)
    swept = {
        q: offset_expansion(public, seeds, tau, ctx.budget) if seeds else {}
        for q, seeds in seeds_by_kw.items()
    }
    touched: Set[Vertex] = set().union(*swept.values())
    fresh: List[Vertex] = []  # repr order: the stable rank keeps it on ties
    for u in sorted(touched, key=repr):
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        if u in partials or u in ctx.attachment.private:
            _merge_swept_root(answers, u, swept, keywords)
        else:
            fresh.append(u)

    # (b) Retrieve missing keywords / improve via the public graph
    # (CompleteAns, lines 20-23).  A fresh root has no portal exits: its
    # match is the sweep's unless the probe's witness is strictly closer.
    _complete_roots(ctx, answers, public_probe)
    if ctx.budget is not None and fresh:
        ctx.budget.checkpoint(cost=len(fresh))
    wins: List[List[Optional[Tuple[Vertex, float]]]] = [[] for _ in keywords]
    dists: List[List[float]] = [[] for _ in keywords]
    for q, win_col, dist_col in zip(keywords, wins, dists):
        cover = swept[q]
        for u in fresh:
            hit = cover.get(u)
            d = INF if hit is None else hit.distance
            best, witness = public_probe(u, q)
            won = witness is not None and best < d
            win_col.append((witness, best) if won else None)
            dist_col.append(best if won else d)
    # sum() in keyword order is RootedAnswer.weight(), bit for bit
    keys = [(sum(ds), repr(u)) for ds, u in zip(zip(*dists), fresh)]
    order = sorted(range(len(fresh)), key=keys.__getitem__)

    def build(rank: int) -> PartialAnswer:
        i = order[rank]
        partial = _merge_swept_root({}, fresh[i], swept, keywords)
        for q, win_col in zip(keywords, wins):
            win = win_col[i]
            if win is not None:  # as _complete_roots writes a win
                partial.set_match(q, *win)
                partial.missing.discard(q)
                partial.public_matched.add(q)
        return partial

    # (c) Qualification.
    _qualify(ctx, _merge_ranked(
        answers.values(), len(order), lambda rank: keys[order[rank]], build
    ))


# ----------------------------------------------------------------------
# the spec (its steps are shared by PP-BANKS, see repro.core.pp_banks)
# ----------------------------------------------------------------------
def validate_blinks_params(ctx: PipelineContext) -> None:
    if not ctx.params["keywords"]:
        raise QueryError("Blinks query needs at least one keyword")
    check_bound("tau", ctx.params["tau"])
    check_count("k", ctx.params["k"])


def init_blinks_state(ctx: PipelineContext) -> None:
    ctx.params["keywords"] = list(dict.fromkeys(ctx.params["keywords"]))
    ctx.state = {}


def step_peval(ctx: PipelineContext) -> None:
    p = ctx.params
    ctx.state = peval_blinks(ctx.attachment, p["keywords"], p["tau"], ctx.budget)
    ctx.counters.partial_answers = len(ctx.state)


def step_arefine(ctx: PipelineContext) -> None:
    arefine_keywords(
        ctx.attachment, ctx.state, ctx.counters,
        ctx.options.reduced_refinement, ctx.budget,
    )


def step_acomplete(ctx: PipelineContext) -> None:
    _acomplete(ctx)  # by module name, so tests can patch it


def salvage_blinks(ctx: PipelineContext, step: str) -> List[RootedAnswer]:
    # AComplete mutates partials in place, so improvements it made before
    # expiry are kept by the salvage too.
    return salvage_rooted_answers(
        ctx.state.values(), ctx.params["tau"], ctx.params["k"]
    )


BLINKS = register_semantics(SemanticsSpec(
    name="blinks",
    summary="Top-k rooted-tree answers (PP-Blinks, Sec. IV-B).",
    steps=(
        StepSpec("peval", step_peval),
        StepSpec("arefine", step_arefine),
        StepSpec("acomplete", step_acomplete),
    ),
    validate=validate_blinks_params,
    init=init_blinks_state,
    salvage=salvage_blinks,
    count_answers=len,
    result_type=QueryResult,
    wire_required=("network", "owner", "keywords"),
    wire_optional=("tau", "k"),
    wire_params=rooted_wire_params,
    wire_payload=rooted_payload,
    wire_cache_params=rooted_cache_params,
    baseline_m1=lambda g, keywords, tau, k: blinks_search(g, keywords, tau, k),
    # M2 historically asks Blinks for every root and lets the caller
    # truncate after the public-private filter (pinned by the M2 tests).
    baseline_m2=lambda g, keywords, tau, k: blinks_search(
        g, keywords, tau, g.num_vertices
    ),
))

