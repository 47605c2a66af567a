"""PP-knk AComplete: one ranking per query == a ranked, cut list per portal.

:func:`repro.core.pp_knk._step_acomplete` folds each portal's unranked
public reach into the merged ranking; ``tests/reference_knk_acomplete.py``
keeps the old body, which ranked and cut every portal's candidates to k
first.  This suite runs both on seeded public/private networks and holds
them equal:

* unit, dyadic, decimal and mixed weights (decimal weights round, so a
  sum taken in another order shows), with ``int`` vertices or
  :class:`Twin` vertices whose distinct instances share one ``repr``;
* both routes a public graph reaches the engine by (as a
  ``LabeledGraph`` or already frozen; ``tests.conftest.PREFROZEN``);
* ``knk``, disjunctive and conjunctive ``knk_multi``, ``dp_completion``
  on and off, and k = 1, 2 and 3 — below the length of a portal's reach
  over 4-entry center lists, so the old per-portal cut bites;
* ``max_expansions`` caps that land inside AComplete.

Answers, degradation bookkeeping and every counter must match; with
:class:`Twin` vertices the answers compare as ``(distance, repr)``.
The reference also sweeps live in PEval, and production runs twice: the
first run reads a row some query filled, the second replays it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.core.budget import QueryBudget
from repro.core.engine import semantics_spec
from repro.core.framework import PPKWS, QueryOptions
from repro.core.pp_knk import peval_knk
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import dijkstra_ordered
from repro.portals.keyword_map import PrivateSweeps
from repro.sketches.kpads import KeywordSketch

from tests.conftest import PREFROZEN, Twin, handed
from tests.reference_knk_acomplete import (
    REFERENCE_PEVAL, REFERENCE_STEP, ReferenceCache,
)

SEEDS = (*range(16), 390)  # 390: a fold that skips without its offset sort fails
WEIGHTS = {
    "unit": (1.0,),
    "dyadic": (0.5, 0.75, 1.25, 2.0),
    "decimal": (0.1, 0.2, 0.3, 0.7, 1.1),
    "mixed": (1.0, 1.0, 0.5, 2.0),
}
KS = (1, 2, 3)


def _network(seed: int):
    """A seeded public/private pair; ``seed % 4`` picks the weights and
    odd seeds use :class:`Twin` vertices."""
    rng = random.Random(seed)
    weights = list(WEIGHTS.values())[seed % 4]
    vertex = Twin if seed % 2 else int
    n = rng.randint(30, 50)
    public = LabeledGraph(f"pub{seed}")
    public.add_vertex(vertex(0))
    for i in range(1, n):
        public.add_edge(vertex(i), vertex(rng.randrange(i)), rng.choice(weights))
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if not public.has_edge(vertex(u), vertex(v)):
            public.add_edge(vertex(u), vertex(v), rng.choice(weights))
    for i in range(n):
        public.add_labels(vertex(i), rng.sample(("a", "b", "c"), rng.randint(0, 2)))

    nodes = [vertex(i) for i in sorted(rng.sample(range(n), 4))]
    nodes += [f"m{i}" for i in range(6)]
    private = LabeledGraph(f"priv{seed}")
    private.add_vertex(nodes[0])
    for i in range(1, len(nodes)):
        private.add_edge(nodes[i], nodes[rng.randrange(i)], rng.choice(weights))
    for m in nodes[4:]:
        private.add_labels(m, rng.sample(("a", "b", "z"), rng.randint(0, 1)))
    for _ in range(3):  # chords: a sweep then pops stale heap entries
        private.add_edge(*rng.sample(nodes, 2), rng.choice(weights))
    return public, private


def _engines(seed: int, prefrozen: bool):
    """``{dp_completion: engine}`` over one shared public index."""
    public, private = _network(seed)
    public = handed(public, prefrozen)
    engines, index = {}, None
    for dp in (True, False):
        engine = PPKWS(
            public, sketch_k=2, index=index,
            options=QueryOptions(dp_completion=dp),
        )
        index = engine.index
        engine.attach("owner", private)
        engines[dp] = engine
    return engines


def _configs():
    for k in KS:
        for source in ("m0", "m3"):
            for keyword in ("a", "b"):
                yield "knk", dict(source=source, keyword=keyword, k=k)
            for keywords in (["a", "b"], ["b", "c", "z"]):
                for mode in ("or", "and"):
                    yield "knk_multi", dict(
                        source=source, keywords=keywords, mode=mode, k=k
                    )


def _outcome(result, twins: bool):
    matches = result.answer.matches
    return {
        "answers": [
            (m.distance, repr(m.vertex)) if twins else (m.vertex, m.distance)
            for m in matches
        ],
        "counters": asdict(result.counters),
        "degraded": result.degraded,
        "interrupted_step": result.interrupted_step,
        "completed_steps": list(result.completed_steps),
    }


def _runs(engine, semantics, params, twins, cap=None):
    """``(production, production again, reference)`` outcomes of one query."""
    spec = semantics_spec(semantics)
    steps = (REFERENCE_PEVAL, spec.steps[1], REFERENCE_STEP)
    reference = replace(spec, steps=steps)
    attachment = engine.attachment("owner")
    outcomes = []
    for run, cache in (
        (spec, None), (spec, None),
        (reference, ReferenceCache(engine.options.dp_completion)),
    ):
        budget = None if cap is None else QueryBudget(max_expansions=cap)
        result = run.run(engine, attachment, dict(params), budget, cache)
        outcomes.append(_outcome(result, twins))
    return outcomes


@pytest.mark.parametrize("prefrozen", PREFROZEN)
@pytest.mark.parametrize("seed", SEEDS)
def test_equals_per_portal_reference(seed, prefrozen):
    engines = _engines(seed, prefrozen)
    answered = 0
    for dp, engine in engines.items():
        for semantics, params in _configs():
            got, again, want = _runs(engine, semantics, params, seed % 2)
            assert got == again == want, (semantics, params, dp)
            answered += len(got["answers"])
    assert answered  # the seeds are not vacuous


@pytest.mark.xfail(strict=True, reason="rounding tie (ROADMAP item 2): the per-portal "
                   "cut and the (distance, repr) rank keep different vertices")
@pytest.mark.parametrize("seed, source, keyword, k", [
    (50, "m3", "a", 1), (146, "m0", "b", 1), (150, "m0", "b", 3), (258, "m0", "a", 2),
])
def test_rounding_tie(seed, source, keyword, k):
    got, _, want = _runs(_engines(seed, False)[True], "knk",
                         dict(source=source, keyword=keyword, k=k), False)
    assert got == want


@pytest.mark.parametrize("seed", range(4))  # unit, dyadic + Twin, decimal, mixed + Twin
def test_attach_rows_equal_dijkstra_ordered(seed):
    """Attach sweeps one row per portal, each what a budgeted
    ``dijkstra_ordered`` yields: vertices, distances, pops and tail.  So
    does each with four ``1e-300`` chords in ``G'`` (``d + w == d``)."""
    att = _engines(seed, False)[True].attachment("owner")
    assert len(att.sweeps) == len(att.portals)  # no query has run
    rng, tiny = random.Random(seed), att.private.copy()
    for _ in range(4):
        tiny.add_edge(*rng.sample(list(tiny.vertices()), 2), 1e-300)
    for private, sweeps in ((att.private, att.sweeps), (tiny, PrivateSweeps(tiny))):
        for p in att.portals:
            row, budget, want, spent = sweeps.row(private, p), QueryBudget(), [], 0
            for v, d in dijkstra_ordered(private, p, budget=budget):
                want.append((v, d, budget.expansions - spent))
                spent = budget.expansions
            got = zip(map(sweeps.vertices.__getitem__, row.ids), row.distances,
                      row.pops)
            assert (list(got), row.tail) == (want, budget.expansions - spent)


def test_the_per_portal_cut_bites():
    """Some portal's reach is longer than k, so the reference's cut drops
    candidates the fold keeps: the suite above is not vacuous."""
    longest = 0
    for seed in SEEDS:
        engine = _engines(seed, False)[True]
        index = engine.index
        for portal in engine.attachment("owner").portals:
            for keyword in ("a", "b", "c"):
                reach = index.kpads.reach(index.pads, portal, keyword)
                longest = max(longest, len(reach))
    assert longest > 2 * max(KS)


@pytest.mark.parametrize("prefrozen", PREFROZEN)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_capped_runs_degrade_identically(seed, prefrozen):
    engine = _engines(seed, prefrozen)[True]
    interrupted = set()
    for semantics, params in _configs():
        if params["k"] != 2:
            continue
        full = QueryBudget(max_expansions=10**9)
        semantics_spec(semantics).run(
            engine, engine.attachment("owner"), dict(params), full
        )
        for cap in range(full.expansions + 1):
            got, again, want = _runs(engine, semantics, params, seed % 2, cap)
            assert got == again == want, (semantics, params, cap)
            interrupted.add(got["interrupted_step"])
    assert "acomplete" in interrupted  # the caps do land inside AComplete


@pytest.mark.parametrize("semantics,params", [
    ("knk", dict(source="m0", keyword="a", k=8)),
    ("knk_multi", dict(source="m3", keywords=["a", "b", "c"], mode="or", k=8)),
])
def test_one_keyword_and_disjunction_rank_no_portal(semantics, params, monkeypatch):
    """One ``fold`` per probe keyword over every swept portal, and no
    per-portal ``reach`` or ``top_candidates``: the only ranking is the
    final one, and one lookup is counted per ``(portal, keyword)``."""
    engine = _engines(4, False)[True]
    folds = []
    real = KeywordSketch.fold

    def counting(self, pads, entries, keyword, best):
        folds.append((keyword, [v for v, _ in entries]))
        return real(self, pads, entries, keyword, best)

    def per_portal(*args, **kwargs):
        raise AssertionError("a portal's candidates were read on their own")

    monkeypatch.setattr(KeywordSketch, "fold", counting)
    monkeypatch.setattr(KeywordSketch, "reach", per_portal)
    monkeypatch.setattr(KeywordSketch, "top_candidates", per_portal)
    result = engine.query(semantics, "owner", **params)
    keywords = params.get("keywords", [params.get("keyword")])
    attachment = engine.attachment("owner")
    swept = peval_knk(attachment, params["source"], keywords, params["k"], "or")
    portals = [v for v, _ in swept.portal_entries]
    assert portals and folds == [(q, portals) for q in keywords]
    assert result.counters.completion_lookups == len(portals) * len(keywords)
