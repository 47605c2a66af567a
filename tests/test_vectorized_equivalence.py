"""Vectorized == pure: the randomized equivalence property suite.

The vectorized execution path (``repro.core.vectorized``) is an
*optimization*, never a semantics change: every kernel replicates its
pure counterpart bit-for-bit — same float arithmetic, same tie-breaks,
same dict insertion order.  This suite pins that contract at two
levels:

* **kernel level** — ``offset_sweep_batch`` against
  ``semantics.blinks.offset_expansion``, ``probe_many`` /
  ``top_candidates_many`` against the ``KeywordSketch`` scans, on the
  seeded equivalence networks plus a tie-heavy unit-weight graph;
* **query level** — full pipelines through :class:`BatchSession` in
  ``execution_mode="pure"`` vs ``"vectorized"``, across backends
  (honouring ``REPRO_ENGINE_BACKEND``), seeds, semantics (including the
  ones that only have a pure path and must fall back), batch sizes and
  budget degradation.

Counters note: rooted pipelines are compared *minus* counters —
vectorized AComplete accounts probe/cache work differently (one batched
lookup instead of per-portal scans) while answers stay identical.
Budgets that expire in the shared pure steps (PEval/ARefine) must match
counters and all.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import obs
from repro.core.batch import BatchSession
from repro.core.budget import QueryBudget
from repro.core.engine import SemanticsSpec, StepSpec, register_semantics
from repro.core.framework import (
    PPKWS,
    QueryOptions,
    QueryResult,
    query_model_m1,
    query_model_m2,
)
from repro.semantics.blinks import offset_expansion as _offset_sweep
from repro.core.vectorized import (
    SweepMemo,
    numpy_available,
    offset_sweep_batch,
    plan_for,
    runtime_for,
    validate_execution_mode,
)
from repro.exceptions import QueryError
from repro.graph.labeled_graph import LabeledGraph

from tests.engine_equivalence_data import (
    KEYWORD_QUERIES,
    SEEDS,
    build_engine,
    canon_knk_result,
    canon_rooted_result,
    seeded_network,
)
from tests.test_engine_registry import scratch_registry  # noqa: F401

# Same contract as test_engine_equivalence: CI exports
# REPRO_ENGINE_BACKEND to split the matrix; locally both backends run.
_BACKENDS = {"dict": (False,), "frozen": (True,)}.get(
    os.environ.get("REPRO_ENGINE_BACKEND", ""), (False, True)
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="vectorized path needs numpy"
)


def _no_counters(canon):
    out = dict(canon)
    out.pop("counters")
    return out


def _members(engine):
    private = engine.attachment("owner").private
    return sorted(
        (v for v in private.vertices() if isinstance(v, str)), key=repr
    )


def _tie_engine():
    """A unit-weight engine: every Dijkstra layer is one big tie."""
    g = LabeledGraph("ties")
    rng = random.Random(5)
    n = 20
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i), 1.0)
    for _ in range(15):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, 1.0)
    for v in range(n):
        g.add_labels(v, {"a"} if v % 3 == 0 else {"b"})
    return PPKWS(g, sketch_k=2, freeze=True)


# ----------------------------------------------------------------------
# kernel level
# ----------------------------------------------------------------------
@needs_numpy
class TestSweepKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_columns_match_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        rng = random.Random(seed * 31 + 7)
        vertices = sorted(engine.public.vertices(), key=repr)
        columns = []
        for c in range(6):
            seeds = []
            for i in range(rng.randint(1, 6)):
                # Offsets above tau must be dropped by both kernels.
                seeds.append((
                    rng.choice([0.0, 0.5, 1.0, 1.0, 2.5, 9.0]),
                    rng.choice(vertices),
                    f"w{c}_{i}",
                ))
            columns.append((seeds, rng.choice([2.0, 4.0, 6.0, 8.0])))
        batched = offset_sweep_batch(runtime, columns)
        assert len(batched) == len(columns)
        for (seeds, tau), got in zip(columns, batched):
            want = _offset_sweep(engine.public, list(seeds), tau)
            assert list(got) == list(want)  # same insertion (pop) order
            assert got == want  # same Match values, bit for bit

    def test_tie_heavy_unit_weights(self):
        engine = _tie_engine()
        runtime = runtime_for(engine)
        assert runtime is not None
        # Duplicate (offset, portal) seeds with different witnesses: the
        # pure heap breaks the tie by push counter (first seed wins) and
        # the batched kernel must agree.
        seeds = [(0.0, 0, "w0"), (0.0, 3, "w1"), (1.0, 7, "w2"),
                 (0.0, 3, "w3")]
        for tau in (1.0, 2.0, 3.0, 5.0):
            columns = [(seeds, tau), (seeds[:2], tau), ([], tau)]
            batched = offset_sweep_batch(runtime, columns)
            for (col_seeds, col_tau), got in zip(columns, batched):
                want = _offset_sweep(engine.public, list(col_seeds), col_tau)
                assert list(got) == list(want)
                assert got == want

    def test_memo_returns_identical_results_without_rerunning(self):
        engine = build_engine(11, freeze=True)
        plan = plan_for(engine, "vectorized", memo=SweepMemo())
        assert plan is not None
        seeds = [(0.0, v, f"w{v}") for v in sorted(
            engine.public.vertices(), key=repr)[:3]]
        first = plan.sweeps([(seeds, 4.0)])
        again = plan.sweeps([(seeds, 4.0)])
        assert plan.memo.hits == 1
        assert again == first
        assert list(again[0]) == list(first[0])


@needs_numpy
class TestSketchKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_probe_many_matches_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        kpads, pads = engine.index.kpads, engine.index.pads
        vertices = sorted(engine.public.vertices(), key=repr)
        for keyword in ("a", "b", "c", "d", "z", "missing"):
            got = runtime.probe_many(vertices, keyword)
            for v in vertices:
                assert got[v] == kpads.estimate_with_witness(
                    pads, v, keyword
                ), (keyword, v)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_top_candidates_many_matches_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        kpads, pads = engine.index.kpads, engine.index.pads
        vertices = sorted(engine.public.vertices(), key=repr)
        for keyword in ("a", "b", "d", "missing"):
            for k in (1, 2, 4):
                got = runtime.top_candidates_many(vertices, keyword, k)
                # All-public candidate sets on these graphs: the ranked
                # path must be available, not falling back.
                assert got is not None
                for v, lst in zip(vertices, got):
                    assert lst == kpads.top_candidates(
                        pads, v, keyword, k
                    ), (keyword, k, v)


# ----------------------------------------------------------------------
# full-query level
# ----------------------------------------------------------------------
class TestFullQueryEquivalence:
    @pytest.mark.parametrize("freeze", _BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_rooted_semantics(self, seed, freeze):
        engine = build_engine(seed, freeze)
        pure = BatchSession(engine, "owner", execution_mode="pure")
        vec = BatchSession(engine, "owner", execution_mode="vectorized")
        for keywords, tau, k in KEYWORD_QUERIES:
            params = dict(keywords=list(keywords), tau=tau, k=k,
                          require_public_private=True)
            for semantics in ("blinks", "banks", "rclique"):
                rp = canon_rooted_result(pure.query(semantics, **params))
                rv = canon_rooted_result(vec.query(semantics, **params))
                assert _no_counters(rp) == _no_counters(rv), (
                    semantics, keywords, tau, k, freeze
                )

    @pytest.mark.parametrize("freeze", _BACKENDS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_knk_with_exact_counters(self, seed, freeze):
        engine = build_engine(seed, freeze)
        pure = BatchSession(engine, "owner", execution_mode="pure")
        vec = BatchSession(engine, "owner", execution_mode="vectorized")
        members = _members(engine)
        for source in (members[0], members[2]):
            for keyword in ("a", "z"):
                rp = canon_knk_result(
                    pure.query("knk", source=source, keyword=keyword, k=4)
                )
                rv = canon_knk_result(
                    vec.query("knk", source=source, keyword=keyword, k=4)
                )
                # k-nk AComplete replicates the pure candidate scan
                # one-to-one, so even the counters must match.
                assert rp == rv, (source, keyword, freeze)

    @pytest.mark.parametrize("freeze", _BACKENDS)
    def test_knk_multi_falls_back_identically(self, freeze):
        engine = build_engine(23, freeze)
        pure = BatchSession(engine, "owner", execution_mode="pure")
        vec = BatchSession(engine, "owner", execution_mode="vectorized")
        source = _members(engine)[0]
        for mode in ("and", "or"):
            rp = canon_knk_result(pure.query(
                "knk_multi", source=source, keywords=["a", "b"], k=4,
                mode=mode,
            ))
            rv = canon_knk_result(vec.query(
                "knk_multi", source=source, keywords=["a", "b"], k=4,
                mode=mode,
            ))
            assert rp == rv

    @pytest.mark.parametrize("freeze", _BACKENDS)
    @pytest.mark.parametrize("batch_size", (1, 3, 6))
    def test_batched_workloads_with_memo_reuse(self, freeze, batch_size):
        """One memo-sharing session == fresh pure runs, any batch size."""
        engine = build_engine(37, freeze)
        queries = [
            {"keywords": list(kw), "tau": tau, "k": k,
             "require_public_private": True}
            for kw, tau, k in KEYWORD_QUERIES
        ]
        # Repeat the workload so batches beyond len(KEYWORD_QUERIES)
        # re-ask earlier queries — the sweep memo must not change them.
        workload = [queries[i % len(queries)] for i in range(batch_size)]
        vec = BatchSession(engine, "owner", execution_mode="vectorized")
        got = vec.run_queries("blinks", workload)
        pure = BatchSession(engine, "owner", execution_mode="pure")
        for params, result in zip(workload, got):
            want = pure.query("blinks", **params)
            assert _no_counters(canon_rooted_result(result)) == _no_counters(
                canon_rooted_result(want)
            )
        if freeze and numpy_available() and batch_size > len(queries):
            assert vec.sweep_memo.hits > 0

    @pytest.mark.parametrize("freeze", _BACKENDS)
    def test_budget_degradation_parity_in_shared_steps(self, freeze):
        """Budgets expiring in PEval degrade identically, counters and all.

        PEval/ARefine run the same pure code in both modes, so a cap that
        binds there must produce the same salvage answers, the same
        ``interrupted_step`` *and* the same counters.
        """
        engine = build_engine(11, freeze)
        pure = BatchSession(engine, "owner", execution_mode="pure")
        vec = BatchSession(engine, "owner", execution_mode="vectorized")
        keywords, tau, k = KEYWORD_QUERIES[0]
        params = dict(keywords=list(keywords), tau=tau, k=k,
                      require_public_private=True)
        for cap in (1, 3):
            rp = canon_rooted_result(pure.query(
                "blinks", budget=QueryBudget(max_expansions=cap), **params
            ))
            rv = canon_rooted_result(vec.query(
                "blinks", budget=QueryBudget(max_expansions=cap), **params
            ))
            assert rp["degraded"] and rv["degraded"]
            assert rp["interrupted_step"] == "peval"
            assert rp == rv

    @pytest.mark.parametrize("freeze", _BACKENDS)
    def test_expired_deadline_degrades_both_modes(self, freeze):
        engine = build_engine(11, freeze)
        keywords, tau, k = KEYWORD_QUERIES[0]
        params = dict(keywords=list(keywords), tau=tau, k=k,
                      require_public_private=True)
        for mode in ("pure", "vectorized"):
            session = BatchSession(engine, "owner", execution_mode=mode)
            result = session.query(
                "blinks", budget=QueryBudget(deadline_ms=0.0), **params
            )
            assert result.degraded
            assert result.interrupted_step == "peval"

    def test_engine_options_mode_threads_through_query(self):
        """An engine whose *default* mode is vectorized answers like pure."""
        engine = build_engine(11, freeze=True)
        pub, priv = seeded_network(11)
        vec_engine = PPKWS(
            pub, sketch_k=2, freeze=True,
            options=QueryOptions(execution_mode="vectorized"),
        )
        vec_engine.attach("owner", priv)
        keywords, tau, k = KEYWORD_QUERIES[1]
        want = canon_rooted_result(engine.query(
            "blinks", "owner", keywords=list(keywords), tau=tau, k=k,
            require_public_private=True,
        ))
        got = canon_rooted_result(vec_engine.query(
            "blinks", "owner", keywords=list(keywords), tau=tau, k=k,
            require_public_private=True,
        ))
        assert _no_counters(want) == _no_counters(got)


# ----------------------------------------------------------------------
# mode selection and fallback
# ----------------------------------------------------------------------
class TestModeSelection:
    def test_validate_execution_mode(self):
        for mode in ("pure", "vectorized", "auto"):
            validate_execution_mode(mode)
        with pytest.raises(QueryError, match="unknown execution_mode"):
            validate_execution_mode("nope")

    def test_session_rejects_bad_mode(self):
        engine = build_engine(11)
        session = BatchSession(engine, "owner")
        with pytest.raises(QueryError, match="unknown execution_mode"):
            session.query(
                "blinks", execution_mode="turbo",
                keywords=["a"], tau=4.0, k=2, require_public_private=True,
            )

    @needs_numpy
    def test_auto_picks_vectorized_on_frozen(self):
        engine = build_engine(11, freeze=True)
        assert plan_for(engine, "auto") is not None
        assert plan_for(engine, "vectorized") is not None
        assert plan_for(engine, "pure") is None

    def test_dict_backend_falls_back(self):
        engine = build_engine(11, freeze=False)
        registry = obs.MetricsRegistry()
        obs.install(registry)
        try:
            # auto: silent fallback, no metric.
            assert plan_for(engine, "auto") is None
            assert registry.value("ppkws_vectorized_fallbacks_total") == 0
            # explicit vectorized: fallback is counted.
            assert plan_for(engine, "vectorized") is None
            assert registry.value("ppkws_vectorized_fallbacks_total") == 1
        finally:
            obs.uninstall()


# ----------------------------------------------------------------------
# satellite 3: query models route through the registry
# ----------------------------------------------------------------------
class TestQueryModelDispatch:
    def _toy_spec(self):
        def _step(ctx):
            ctx.answers = []

        return SemanticsSpec(
            name="toy_baseline",
            summary="test semantics with single-graph baselines",
            steps=(StepSpec("peval", _step),),
            validate=lambda ctx: None,
            init=lambda ctx: None,
            salvage=lambda ctx, step: [],
            count_answers=len,
            result_type=QueryResult,
            wire_required=("network", "owner"),
            wire_optional=(),
            wire_params=lambda req: {},
            wire_payload=lambda res: {},
            wire_cache_params=lambda req: (),
            baseline_m1=lambda g, keywords, tau, k: [
                ("m1", g.name, tuple(keywords), tau, k)
            ],
            baseline_m2=lambda g, keywords, tau, k: [],
        )

    def test_builtin_m1_m2_still_work(self, small_public_private):
        pub, priv = small_public_private
        pub_answers, priv_answers = query_model_m1(
            pub, priv, "blinks", ["db"], 5.0, k=3
        )
        assert isinstance(pub_answers, list)
        assert isinstance(priv_answers, list)
        answers = query_model_m2(pub, priv, "rclique", ["db"], 5.0, k=3)
        assert isinstance(answers, list)

    def test_plugin_baselines_are_dispatched(
        self, scratch_registry, small_public_private
    ):
        register_semantics(self._toy_spec())
        pub, priv = small_public_private
        pub_answers, priv_answers = query_model_m1(
            pub, priv, "toy_baseline", ["db", "x"], 3.0, k=7
        )
        assert pub_answers == [("m1", pub.name, ("db", "x"), 3.0, 7)]
        assert priv_answers == [("m1", priv.name, ("db", "x"), 3.0, 7)]
        assert query_model_m2(
            pub, priv, "toy_baseline", ["db"], 3.0, k=7
        ) == []

    def test_semantics_without_baseline_raise(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError, match="does not support query model"):
            query_model_m1(pub, priv, "knk", ["a"], 4.0)
        with pytest.raises(QueryError, match="does not support query model"):
            query_model_m2(pub, priv, "knk", ["a"], 4.0)

    def test_unknown_semantics_raise(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError, match="unknown semantics"):
            query_model_m1(pub, priv, "nope", ["a"], 4.0)
