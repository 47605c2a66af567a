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
  A star that touches one side only reads the routes of the other before
  it is tested (:func:`_note_star_ties`): the PKA row through the root's
  portal exits for the keywords it matched privately, and the Eq.-5
  table for the ones it completed publicly.

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
from repro.core.qualify import answer_sides, note_tie, qualify
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF
from repro.semantics.answers import RootedAnswer
from repro.semantics.rclique import rclique_search
from repro.semantics.wire import ROOTED_FIELDS, rooted_payload

__all__ = ["peval_rclique", "arefine_pairs", "CompletionCache"]


class CompletionCache:
    """The Sec.-VI-B dynamic-programming table ``PKA``.

    Memoizes ``portal x keyword -> (distance, witness)`` public-side
    lookups so partial answers sharing a portal-keyword pair pay for it
    once.  With the optimization disabled the cache is bypassed and every
    answer re-queries the sketches (the ablation benchmark measures the
    difference).

    Entries depend only on the portal, the keyword and the (immutable)
    public index, so one cache may outlive a query: the service's
    ``batch`` op shares one across its items for as long as the batch
    holds its network's read lock.
    """

    __slots__ = ("enabled", "_table", "hits", "misses")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._table: Dict[Tuple[Vertex, Label], Tuple[float, Optional[Vertex]]] = {}
        self.hits = 0
        self.misses = 0

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

    def marks(self) -> Tuple[int, int]:
        """``(hits, misses)`` so far, for :meth:`report`."""
        return self.hits, self.misses

    def report(self, counters: QueryCounters, marks: Tuple[int, int]) -> None:
        """Write the lookups and hits since ``marks``: a batch's cache
        outlives its items, and each item reports its own reads."""
        hits = self.hits - marks[0]
        counters.completion_cache_hits = hits
        counters.completion_lookups = hits + self.misses - marks[1]


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
            if attachment.private.has_label(m.vertex, q):
                continue
            if m.vertex in attachment.portals:
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


def _note_star_ties(
    engine: PPKWS,
    attachment: Attachment,
    partial: PartialAnswer,
    cache: CompletionCache,
    via: Dict[Label, Dict[Vertex, Tuple[float, Vertex]]],
) -> None:
    """Keep the ties a star needs for the Def.-II.2 side it lacks.

    Every match of a star without a public vertex is private, so each
    keyword reads the PKA row through the root's portal exits.  Every
    match of one without a private vertex was completed publicly, so
    each keyword reads its Eq.-5 route off the keyword's table (built
    once per query in ``via``, every portal pair and the diagonal
    counted), then the exits whose PKA witness is a portal, which serve
    both sides and so are kept in its place when they tie too.
    """
    public, private = engine.public, attachment.private
    oracle, matches = attachment.oracle, partial.answer.matches
    touches_private, touches_public = answer_sides(
        (m.vertex for m in matches.values()), public, private
    )
    if touches_private == touches_public:
        return
    exits = oracle.vertex_portal.portal_distances(partial.root)
    for q, match in matches.items():
        if touches_public:
            table = via.get(q)
            if table is None:
                table = via[q] = oracle.keyword_detours(q)
            d, w = oracle.refine_vertex_keyword_with_witness(
                partial.root, q, INF, via=table
            )
            note_tie(partial.ties, q, match, w, d, public, private)
        best, witness = INF, None
        for portal, d1 in exits.items():
            pub_d, w = cache.lookup(engine, portal, q)
            if w is not None and d1 + pub_d < best and (
                touches_private or w in private
            ):
                best, witness = d1 + pub_d, w
        note_tie(partial.ties, q, match, witness, best, public, private)


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
    completed: List[RootedAnswer] = []
    via: Dict[Label, Dict[Vertex, Tuple[float, Vertex]]] = {}
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
        if not ok or not partial.answer.within_bound(tau):
            counters.answers_pruned += 1
            continue
        if require_public_private:
            _note_star_ties(engine, attachment, partial, cache, via)
            if not qualify(
                partial.answer, partial.ties, keywords, engine.public,
                attachment.private,
            ):
                counters.answers_pruned += 1
                continue
        completed.append(partial.answer)
    return completed


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
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
    marks = ctx.cache.marks()
    final = _acomplete(
        ctx.engine, ctx.attachment, ctx.state, p["keywords"], p["tau"],
        ctx.counters, ctx.cache, p["require_public_private"], ctx.budget,
    )
    ctx.cache.report(ctx.counters, marks)
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
    init=_init,
    salvage=_salvage,
    count_answers=len,
    result_type=QueryResult,
    fields=ROOTED_FIELDS,
    wire_payload=rooted_payload,
    baseline_m1=lambda g, keywords, tau, k: rclique_search(g, keywords, tau, k),
    # M2 historically over-generates (k * 8 stars, k + 1 neighbor lists)
    # so the public-private filter still leaves k answers (pinned by the
    # M2 tests).
    baseline_m2=lambda g, keywords, tau, k: rclique_search(
        g, keywords, tau, k * 8, neighbor_list_size=k + 1
    ),
))

