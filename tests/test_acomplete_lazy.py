"""PP-Blinks / PP-BANKS AComplete: ranked before built == built then ranked.

:func:`repro.core.pp_blinks._acomplete` keeps the swept roots that are
neither PEval partials nor private vertices as flat per-keyword columns
and builds a :class:`PartialAnswer` only for the prefix the
qualification walk reads.  ``tests/reference_acomplete.py`` keeps the
eager body that built every root first.  This suite patches the
reference in and holds the two equal on seeded networks:

* unit, float and mixed weights (unit weights tie nearly every
  distance), with ``int`` vertices or :class:`Twin` vertices whose
  distinct instances share one ``repr``;
* both graph backends (``REPRO_ENGINE_BACKEND`` picks one);
* ``require_public_private`` and ``dp_completion`` on and off, and
  k = 1, 5 and every root;
* ``max_expansions`` caps spread over AComplete, where the degraded
  result must be equal too.

Payloads, degradation bookkeeping and every counter must match.
"""

from __future__ import annotations

import os
import random
from dataclasses import asdict

import pytest

import repro.core.pp_blinks as pp_blinks
from repro.core.budget import QueryBudget
from repro.core.framework import PPKWS, QueryOptions
from repro.graph.labeled_graph import LabeledGraph
from repro.semantics.wire import rooted_payload

from tests.conftest import Twin
from tests.reference_acomplete import reference_acomplete

_BACKENDS = {"dict": (False,), "frozen": (True,)}.get(
    os.environ.get("REPRO_ENGINE_BACKEND", ""), (False, True)
)

SEEDS = range(12)
WEIGHTS = ("unit", "float", "mixed")
EVERY_ROOT = 10**6


def _network(seed: int, n: int = 0):
    """A seeded public/private pair plus the seed's keyword queries.

    ``seed % 3`` picks the weights, odd seeds use :class:`Twin`
    vertices.  Edge weights come from a small set, so even float and
    mixed weights tie distances along distinct paths.
    """
    rng = random.Random(seed)
    weights = WEIGHTS[seed % 3]
    vertex = Twin if seed % 2 else int
    n = n or rng.randint(24, 44)

    def weight() -> float:
        if weights == "unit":
            return 1.0
        if weights == "float":
            return rng.choice([0.5, 0.75, 1.25, 2.0])
        return rng.choice([1.0, 1.0, 0.5, 2.0])

    public = LabeledGraph(f"pub{seed}")
    public.add_vertex(vertex(0))
    for i in range(1, n):
        public.add_edge(vertex(i), vertex(rng.randrange(i)), weight())
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if not public.has_edge(vertex(u), vertex(v)):
            public.add_edge(vertex(u), vertex(v), weight())
    for i in range(n):
        public.add_labels(vertex(i), rng.sample(("a", "b", "c"), rng.randint(0, 2)))

    nodes = [vertex(i) for i in sorted(rng.sample(range(n), 3))]
    nodes += [f"m{i}" for i in range(6)]
    private = LabeledGraph(f"priv{seed}")
    private.add_vertex(nodes[0])
    for i in range(1, len(nodes)):
        private.add_edge(nodes[i], nodes[rng.randrange(i)], weight())
    for _ in range(3):
        u, v = rng.sample(nodes, 2)
        if not private.has_edge(u, v):
            private.add_edge(u, v, weight())
    for m in nodes[3:]:
        private.add_labels(m, rng.sample(("a", "b", "z"), rng.randint(0, 2)))
    private.add_labels("m0", {"z"})
    queries = [
        (["a", "b"], rng.choice([3.0, 5.0])),
        (["b", "c", "z"], rng.choice([4.0, 6.0])),
    ]
    return public, private, queries


def _engines(seed: int, freeze: bool):
    """``{dp_completion: engine}`` over one shared public index."""
    public, private, queries = _network(seed)
    engines = {}
    index = None
    for dp in (True, False):
        engine = PPKWS(
            public, sketch_k=2, freeze=freeze, index=index,
            options=QueryOptions(dp_completion=dp),
        )
        index = engine.index
        engine.attach("owner", private)
        engines[dp] = engine
    return engines, queries


def _outcome(engine, semantics, params, cap=None):
    budget = None if cap is None else QueryBudget(max_expansions=cap)
    result = engine.query(semantics, "owner", budget=budget, **params)
    return {
        "answers": rooted_payload(result)["answers"],
        "counters": asdict(result.counters),
        "degraded": result.degraded,
        "interrupted_step": result.interrupted_step,
        "completed_steps": list(result.completed_steps),
    }


def _both(monkeypatch, engine, semantics, params, cap=None):
    got = _outcome(engine, semantics, params, cap)
    with monkeypatch.context() as m:
        m.setattr(pp_blinks, "_acomplete", reference_acomplete)
        want = _outcome(engine, semantics, params, cap)
    return got, want


def _configs(queries, ks):
    for semantics in ("blinks", "banks"):
        for keywords, tau in queries:
            for rpp in (True, False):
                for k in ks:
                    yield semantics, dict(
                        keywords=list(keywords), tau=tau, k=k,
                        require_public_private=rpp,
                    )


@pytest.mark.parametrize("freeze", _BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_equals_eager_reference(seed, freeze, monkeypatch):
    engines, queries = _engines(seed, freeze)
    answered = 0
    for dp, engine in engines.items():
        for semantics, params in _configs(queries, (1, 5, EVERY_ROOT)):
            got, want = _both(monkeypatch, engine, semantics, params)
            assert got == want, (semantics, params, dp)
            answered += len(got["answers"])
    assert answered  # the seeds are not vacuous


def _acomplete_window(monkeypatch, engine, semantics, params):
    """Budget expansions charged on entry to and exit from ``_acomplete``."""
    budget = QueryBudget(max_expansions=10**9)
    seen = []
    real = pp_blinks._acomplete

    def recording(ctx):
        start = ctx.budget.expansions
        real(ctx)
        seen.append((start, ctx.budget.expansions))

    with monkeypatch.context() as m:
        m.setattr(pp_blinks, "_acomplete", recording)
        engine.query(semantics, "owner", budget=budget, **params)
    return seen[0]


@pytest.mark.parametrize("freeze", _BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_capped_runs_degrade_identically(seed, freeze, monkeypatch):
    engines, queries = _engines(seed, freeze)
    interrupted = set()
    for dp, engine in engines.items():
        for semantics, params in _configs(queries, (5,)):
            lo, hi = _acomplete_window(monkeypatch, engine, semantics, params)
            caps = {lo + (hi - lo) * i // 8 for i in range(8)} | {hi - 1, hi}
            for cap in sorted(c for c in caps if c >= 0):
                got, want = _both(monkeypatch, engine, semantics, params, cap)
                assert got == want, (semantics, params, dp, cap)
                interrupted.add(got["interrupted_step"])
    assert "acomplete" in interrupted  # the caps do land inside AComplete


@pytest.mark.parametrize("freeze", _BACKENDS)
@pytest.mark.parametrize("seed", [2, 3])
def test_fresh_roots_past_the_walk_are_never_built(seed, freeze, monkeypatch):
    """Only the walked prefix of the fresh roots becomes a PartialAnswer.

    Seed 2 has ``int`` vertices, seed 3 :class:`Twin` vertices whose
    distinct instances share one ``repr``.
    """
    public, private, _ = _network(seed, n=160)
    engine = PPKWS(public, sketch_k=2, freeze=freeze)
    engine.attach("owner", private)
    params = dict(
        keywords=["a", "b"], tau=8.0, k=1, require_public_private=False
    )
    built = []

    class Counting(pp_blinks.PartialAnswer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.root)

    def fresh_built(acomplete):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(pp_blinks, "PartialAnswer", Counting)
            m.setattr(pp_blinks, "_acomplete", acomplete)
            result = engine.query("blinks", "owner", **params)
        return len(built) - result.counters.partial_answers, result

    lazy, result = fresh_built(pp_blinks._acomplete)
    eager, want = fresh_built(reference_acomplete)
    assert [a.root for a in result.answers] == [a.root for a in want.answers]
    assert result.answers, "the walk must reach a survivor"
    # _qualify pulls one candidate past its k-th survivor before stopping
    walked = result.counters.answers_pruned + len(result.answers) + 1
    assert lazy <= walked
    assert eager > 4 * walked  # many fresh roots exist: laziness shows
