"""PP-r-clique: the r-clique semantic on top of PPKWS (paper Sec. IV-A).

* **PEval** runs the Kargar-An star enumeration on the private graph with
  the portal nodes appended to every keyword's candidate set (Algo 2,
  line 1) and the ``tau`` bound *not* enforced — portal detours refined
  in later may still pull a partial answer under the bound.
* **ARefine** (Algo 3) tightens every recorded ``(root, match)`` distance
  with two-portal detours, ``d'(v,p_i) + dc(p_i,p_j) + d'(p_j,u)``
  (Eq. 4), guarded by the Lemma-VI.1 refined-portal table when the
  reduced-refinement optimization is on.
* **AComplete** resolves every keyword still routed through a portal by a
  KPADS lookup on the public side (``d_hat(p, q)`` plus the recorded
  ``d'(root, p)``), prunes answers that exceed ``tau`` or fail the
  public-private qualification (Def. II.2), and ranks by star weight.

Budget checkpoints, step timing, degradation bookkeeping and obs hooks
all live in :mod:`repro.core.engine` (the engine equivalence suite
pins them); this module only
declares the steps and registers the :data:`RCLIQUE` spec.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.budget import QueryBudget
from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import (
    Attachment,
    PPKWS,
    QueryCounters,
    QueryResult,
)
from repro.core.partial import PairIndicator, PartialAnswer, salvage_rooted_answers
from repro.core.repair import try_requalify
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.semantics.answers import RootedAnswer
from repro.semantics.rclique import rclique_search
from repro.semantics.wire import (
    check_bound,
    check_count,
    rooted_cache_params,
    rooted_payload,
    rooted_wire_params,
)

__all__ = ["peval_rclique", "arefine_pairs", "CompletionCache"]


class CompletionCache:
    """The Sec.-VI-B dynamic-programming table ``PKA``.

    Memoizes ``portal x keyword -> (distance, witness)`` public-side
    lookups so partial answers sharing a portal-keyword pair pay for it
    once.  With the optimization disabled the cache is bypassed and every
    answer re-queries the sketches (the ablation benchmark measures the
    difference).

    Entries depend only on the portal, the keyword and the (immutable)
    public index, so one cache may outlive a query — and any attach or
    detach: a :class:`~repro.core.batch.BatchSession` shares one across
    its queries for as long as the session lives.
    """

    __slots__ = ("enabled", "_table", "_list_table", "hits", "misses")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._table: Dict[Tuple[Vertex, Label], Tuple[float, Optional[Vertex]]] = {}
        self._list_table: Dict[
            Tuple[Vertex, Label, int], List[Tuple[Vertex, float]]
        ] = {}
        self.hits = 0
        self.misses = 0

    def reset_counters(self) -> None:
        """Zero the hit/miss counters (tables are kept)."""
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Drop all cached entries (never needed for correctness)."""
        self._table.clear()
        self._list_table.clear()

    def lookup(
        self,
        engine: PPKWS,
        portal: Vertex,
        keyword: Label,
    ) -> Tuple[float, Optional[Vertex]]:
        """``d_hat(portal, keyword)`` on the public graph, with witness."""
        key = (portal, keyword)
        if self.enabled and key in self._table:
            self.hits += 1
            return self._table[key]
        self.misses += 1
        result = engine.index.provider().keyword_distance_with_witness(
            portal, keyword
        )
        if self.enabled:
            self._table[key] = result
        return result

    def row(
        self, engine: PPKWS, portals: Iterable[Vertex], keyword: Label
    ) -> Optional[Dict[Vertex, Tuple[float, Optional[Vertex]]]]:
        """``keyword``'s PKA row over ``portals``, filled through :meth:`lookup`.

        ``None`` when the table is disabled: the caller then pays one
        :meth:`lookup` per read, which is what the ablation measures.
        A caller reading the row directly accounts its reads in bulk on
        :attr:`hits` (the fill already counted each entry's first read).
        """
        if not self.enabled:
            return None
        return {p: self.lookup(engine, p, keyword) for p in portals}

    def lookup_candidates(
        self,
        engine: PPKWS,
        portal: Vertex,
        keyword: Label,
        k: int,
    ) -> List[Tuple[Vertex, float]]:
        """Top-``k`` public keyword candidates near ``portal`` (PP-knk)."""
        key = (portal, keyword, k)
        if self.enabled and key in self._list_table:
            self.hits += 1
            return self._list_table[key]
        self.misses += 1
        result = engine.index.kpads.top_candidates(
            engine.index.pads, portal, keyword, k
        )
        if self.enabled:
            self._list_table[key] = result
        return result


def peval_rclique(
    attachment: Attachment,
    keywords: Sequence[Label],
    tau: float,
    max_answers: int,
    budget: Optional[QueryBudget] = None,
) -> List[PartialAnswer]:
    """Step 1: partial evaluation on the private graph (Algo 2)."""
    raw = rclique_search(
        attachment.private,
        keywords,
        tau,
        k=max_answers,
        extra_candidates=attachment.portals,
        enforce_bound=False,
        search_cutoff=tau,
        budget=budget,
    )
    partials: List[PartialAnswer] = []
    private = attachment.private
    for answer in raw:
        partial = PartialAnswer(answer=answer)
        for q, m in answer.matches.items():
            if m.vertex is None:
                partial.missing.add(q)
                continue
            # Every recorded pair is a refinement candidate (Algo 2 line 22).
            partial.pair_indicators.append(
                PairIndicator(answer.root, m.vertex, q)
            )
            if private.has_label(m.vertex, q):
                partial.private_matched.add(q)
            elif m.vertex in attachment.portals:
                partial.portal_routed[q] = m.vertex
            else:  # pragma: no cover - rclique_search only matches label/portal
                partial.missing.add(q)
        partials.append(partial)
    return partials


def arefine_pairs(
    attachment: Attachment,
    partials: List[PartialAnswer],
    counters: QueryCounters,
    reduced: bool,
    budget: Optional[QueryBudget] = None,
) -> None:
    """Step 2: Algo 3 — tighten every indicated pair through the portals."""
    if reduced and not attachment.has_refined_portals:
        # Lemma VI.1: no portal pair improved, so no private distance can.
        counters.refinement_checks += sum(len(p.pair_indicators) for p in partials)
        return
    oracle = attachment.oracle
    # Reduced refinement (Sec. VI-A): only detours through *refined*
    # portal pairs can beat a private shortest distance, so restrict the
    # Eq.-4 middle loop to them.
    pairs = attachment.refined_by_source if reduced else None
    for partial in partials:
        for ind in partial.pair_indicators:
            if budget is not None:
                budget.checkpoint()
            counters.refinement_checks += 1
            match = partial.match(ind.keyword)
            if match is None or match.vertex != ind.u:
                continue
            refined = oracle.refine_pair(ind.v, ind.u, match.distance, pairs_by_source=pairs)
            if refined < match.distance:
                match.distance = refined
                counters.refinements_applied += 1


def _acomplete(
    engine: PPKWS,
    attachment: Attachment,
    partials: List[PartialAnswer],
    keywords: List[Label],
    tau: float,
    counters: QueryCounters,
    cache: CompletionCache,
    require_public_private: bool,
    budget: Optional[QueryBudget] = None,
) -> List[RootedAnswer]:
    """Step 3: complete portal-routed keywords and qualify (Sec. IV-A (3))."""
    public = engine.public
    private = attachment.private
    completed: List[RootedAnswer] = []
    for partial in partials:
        if budget is not None:
            budget.checkpoint()
        if partial.missing:
            counters.answers_pruned += 1
            continue
        ok = True
        for q, portal in partial.portal_routed.items():
            match = partial.match(q)
            assert match is not None  # portal_routed entries always have a slot
            pub_d, witness = cache.lookup(engine, portal, q)
            if witness is None or match.distance + pub_d > tau:
                ok = False
                break
            partial.set_match(q, witness, match.distance + pub_d)
            partial.public_matched.add(q)
        if not ok or not partial.answer.within_bound(tau):
            counters.answers_pruned += 1
            continue
        if require_public_private and not try_requalify(
            engine, attachment, partial, keywords, cache
        ):
            counters.answers_pruned += 1
            continue
        completed.append(partial.answer)
    return completed


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
def _validate(ctx: PipelineContext) -> None:
    if not ctx.params["keywords"]:
        raise QueryError("r-clique query needs at least one keyword")
    check_bound("tau", ctx.params["tau"])
    check_count("k", ctx.params["k"])


def _init(ctx: PipelineContext) -> None:
    ctx.params["keywords"] = list(dict.fromkeys(ctx.params["keywords"]))
    ctx.state = []


def _step_peval(ctx: PipelineContext) -> None:
    p = ctx.params
    ctx.state = peval_rclique(
        ctx.attachment, p["keywords"], p["tau"], ctx.options.peval_answers,
        ctx.budget,
    )
    ctx.counters.partial_answers = len(ctx.state)


def _step_arefine(ctx: PipelineContext) -> None:
    arefine_pairs(
        ctx.attachment, ctx.state, ctx.counters,
        ctx.options.reduced_refinement, ctx.budget,
    )


def _step_acomplete(ctx: PipelineContext) -> None:
    p = ctx.params
    if ctx.cache is None:
        ctx.cache = CompletionCache(ctx.options.dp_completion)
    final = _acomplete(
        ctx.engine, ctx.attachment, ctx.state, p["keywords"], p["tau"],
        ctx.counters, ctx.cache, p["require_public_private"], ctx.budget,
    )
    ctx.counters.completion_lookups = ctx.cache.misses + ctx.cache.hits
    ctx.counters.completion_cache_hits = ctx.cache.hits
    final.sort(key=RootedAnswer.sort_key)
    ctx.answers = final[: p["k"]]


def _salvage(ctx: PipelineContext, step: str) -> List[RootedAnswer]:
    return salvage_rooted_answers(ctx.state, ctx.params["tau"], ctx.params["k"])


RCLIQUE = register_semantics(SemanticsSpec(
    name="rclique",
    summary="Top-k star answers (PP-r-clique, Sec. IV-A).",
    steps=(
        StepSpec("peval", _step_peval),
        StepSpec("arefine", _step_arefine),
        StepSpec("acomplete", _step_acomplete),
    ),
    validate=_validate,
    init=_init,
    salvage=_salvage,
    count_answers=len,
    result_type=QueryResult,
    wire_required=("network", "owner", "keywords"),
    wire_optional=("tau", "k"),
    wire_params=rooted_wire_params,
    wire_payload=rooted_payload,
    wire_cache_params=rooted_cache_params,
    baseline_m1=lambda g, keywords, tau, k: rclique_search(g, keywords, tau, k),
    # M2 historically over-generates (k * 8 stars, k + 1 neighbor lists)
    # so the public-private filter still leaves k answers (pinned by the
    # M2 tests).
    baseline_m2=lambda g, keywords, tau, k: rclique_search(
        g, keywords, tau, k * 8, neighbor_list_size=k + 1
    ),
))

