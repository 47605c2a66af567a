"""Test-only oracle: PP-knk AComplete as it was before each portal's
public reach folded in unranked (:func:`repro.core.pp_knk._step_acomplete`).

Every portal's KPADS candidates are ranked by ``(distance, repr)`` and
cut to k (:func:`reference_top_candidates`, the old
``KeywordSketch.top_candidates``), memoized per ``(portal, keyword, k)``
(:class:`ReferenceCache`), label-filtered under conjunction, and the
merged set is ranked again.  Pass a :class:`ReferenceCache` as the
pipeline's ``cache`` and :data:`REFERENCE_STEP` in place of the
production AComplete step.  The old bodies statement for statement;
do not optimise.  :data:`REFERENCE_PEVAL` is PEval as it was before
source rows: a live sweep that the budget charges itself (it also takes
the row, whose positions ARefine reads).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.engine import PipelineContext, StepSpec
from repro.core.partial import PairIndicator
from repro.graph.labeled_graph import Label, Vertex
from repro.graph.traversal import INF, dijkstra_ordered
from repro.semantics.answers import KnkAnswer, Match
from repro.semantics.knk import match_predicate


def reference_top_candidates(
    kpads, pads, v: Vertex, keyword: Label, k: int
) -> List[Tuple[Vertex, float]]:
    kw_lists = kpads.candidate_rows.get(keyword) or kpads.fetch(keyword)[2]
    sv = pads.rows.get(v) or pads.fetch(v)
    if not kw_lists or not sv:
        return []
    best: Dict[Vertex, float] = {}
    for w, d1 in sv.items():
        for d2, u in kw_lists.get(w, ()):
            total = d1 + d2
            if total < best.get(u, INF):
                best[u] = total
    ranked = sorted(best.items(), key=lambda item: (item[1], repr(item[0])))
    return ranked[:k]


class ReferenceCache:
    """The old candidate-list half of ``CompletionCache``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._list_table: Dict[
            Tuple[Vertex, Label, int], List[Tuple[Vertex, float]]
        ] = {}
        self.hits = 0
        self.misses = 0

    def lookup_candidates(self, engine, portal, keyword, k):
        key = (portal, keyword, k)
        if self.enabled and key in self._list_table:
            self.hits += 1
            return self._list_table[key]
        self.misses += 1
        result = reference_top_candidates(
            engine.index.kpads, engine.index.pads, portal, keyword, k
        )
        if self.enabled:
            self._list_table[key] = result
        return result


def reference_step_acomplete(ctx: PipelineContext) -> None:
    p, partial, budget = ctx.params, ctx.state, ctx.budget
    engine, cache = ctx.engine, ctx.cache
    public = engine.public
    k, probe = p["k"], p["keywords"]
    required = None
    if p["mode"] == "and" and len(probe) > 1:
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


REFERENCE_STEP = StepSpec("acomplete", reference_step_acomplete)


def reference_step_peval(ctx: PipelineContext) -> None:
    p, partial, att = ctx.params, ctx.state, ctx.attachment
    source, answer = p["source"], partial.answer
    partial.row = att.sweeps.row(att.private, source)
    matches = match_predicate(att.private, p["keywords"], p["mode"])
    sweep = dijkstra_ordered(att.private, source, budget=ctx.budget)
    for i, (v, d) in enumerate(sweep):
        if v in att.portals:
            partial.portal_entries.append((v, d))
            partial.portal_positions.append(i)
        if matches(v):
            answer.matches.append(Match(v, d))
            partial.match_positions.append(i)
            partial.pair_indicators.append(PairIndicator(source, v, answer.keyword))
            if len(answer.matches) >= p["k"]:
                break
    ctx.counters.partial_answers = len(answer.matches)


REFERENCE_PEVAL = StepSpec("peval", reference_step_peval)
