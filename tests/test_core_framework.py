"""Tests for the PPKWS engine: indexes, attachments, query models."""

from __future__ import annotations

import pytest

from repro.core import (
    PPKWS,
    PublicIndex,
    QueryOptions,
    load_index,
    query_model_m1,
    query_model_m2,
    save_index,
)
from repro.exceptions import GraphError, QueryError
from repro.graph import FrozenGraph, LabeledGraph, combine, freeze
from repro.semantics.wire import knk_payload, rooted_payload


def _route_answers(engine):
    """Wire payloads of every built-in semantics for owner ``bob``."""
    out = [
        rooted_payload(getattr(engine, semantics)("bob", kws, tau=4.0, k=5))[
            "answers"
        ]
        for semantics in ("blinks", "rclique", "banks")
        for kws in (["db", "ai"], ["cv", "ml", "db"])
    ]
    out.append(knk_payload(engine.knk("bob", "x1", "cv", k=3))["answer"])
    out.append(
        knk_payload(engine.knk_multi("bob", "x2", ["db", "ml"], k=3))["answer"]
    )
    return out


class TestEngineLifecycle:
    def test_attach_builds_portal_state(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        att = engine.attach("bob", priv)
        assert att.portals == {2, 5}
        assert att.portal_map.portals >= {2, 5}
        assert engine.owners() == ["bob"]
        assert engine.attachment("bob") is att

    def test_attach_without_portals_rejected(self):
        pub = LabeledGraph.from_edges([(1, 2)])
        priv = LabeledGraph.from_edges([("a", "b")])
        engine = PPKWS(pub, sketch_k=1)
        with pytest.raises(GraphError):
            engine.attach("bob", priv)

    def test_duplicate_attach_rejected(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=1)
        engine.attach("bob", priv)
        with pytest.raises(GraphError):
            engine.attach("bob", priv)

    def test_detach(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=1)
        engine.attach("bob", priv)
        engine.detach("bob")
        assert engine.owners() == []
        with pytest.raises(GraphError):
            engine.detach("bob")
        with pytest.raises(GraphError):
            engine.attachment("bob")

    def test_shared_index_reuse(self, small_public_private):
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=2)
        e1 = PPKWS(pub, index=index)
        e2 = PPKWS(pub, index=index)
        assert e1.index is e2.index

    def test_foreign_index_rejected(self, small_public_private):
        pub, priv = small_public_private
        other = LabeledGraph.from_edges([(1, 2)])
        index = PublicIndex.build(other, k=1)
        with pytest.raises(GraphError):
            PPKWS(pub, index=index)

    def test_query_unattached_owner(self, small_public_private):
        pub, _ = small_public_private
        engine = PPKWS(pub, sketch_k=1)
        with pytest.raises(GraphError):
            engine.rclique("ghost", ["db"], tau=3.0)


class TestPublicIndex:
    def test_build_produces_all_parts(self, small_public_private):
        pub, _ = small_public_private
        index = PublicIndex.build(pub, k=2)
        assert index.pads.num_vertices == pub.num_vertices
        assert index.kpads.num_keywords == len(pub.label_universe())
        assert sum(index.pagerank_scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_every_construction_route_serves_a_frozen_graph(
        self, small_public_private, tmp_path
    ):
        """``PPKWS(g)``, ``PPKWS(freeze(g))``, ``index=build(g)`` and
        ``index=load_index(g, path)``: one backend, the same answers."""
        pub, priv = small_public_private
        save_index(PublicIndex.build(pub, k=2), tmp_path / "idx")
        routes = {
            "PPKWS(g)": lambda: PPKWS(pub, sketch_k=2),
            "PPKWS(freeze(g))": lambda: PPKWS(freeze(pub), sketch_k=2),
            "index=build(g)": lambda: PPKWS(
                pub, sketch_k=2, index=PublicIndex.build(pub, k=2)
            ),
            "index=load_index(g)": lambda: PPKWS(
                pub, sketch_k=2, index=load_index(pub, tmp_path / "idx")
            ),
        }
        want = None
        for route, build in routes.items():
            engine = build()
            assert isinstance(engine.public, FrozenGraph), route
            assert engine.public is engine.index.graph, route
            engine.attach("bob", priv)
            got = _route_answers(engine)
            assert all(got), route  # no payload is vacuous
            want = got if want is None else want
            assert got == want, route

    def test_shared_frozen_index_reuse(self, small_public_private):
        """One frozen index can back many engines (the deployment story)."""
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=2)
        assert isinstance(index.graph, FrozenGraph)
        e1 = PPKWS(pub, index=index)
        e2 = PPKWS(pub, index=index)
        assert e1.index is e2.index
        assert e1.public is index.graph
        e1.attach("bob", priv)
        e2.attach("bob", priv)
        a = e1.blinks("bob", ["db", "ai"], tau=4.0, k=5)
        b = e2.blinks("bob", ["db", "ai"], tau=4.0, k=5)
        assert rooted_payload(a)["answers"] == rooted_payload(b)["answers"]

    def test_provider_roundtrip(self, small_public_private):
        pub, _ = small_public_private
        index = PublicIndex.build(pub, k=3)
        provider = index.provider()
        # vertex 0 carries 'db'
        assert provider.keyword_distance(0, "db") == 0.0
        d, w = provider.keyword_distance_with_witness(1, "db")
        assert w == 0
        assert d >= 1.0


class TestQueryModels:
    def test_m1_returns_both_sides(self, small_public_private):
        pub, priv = small_public_private
        pub_answers, priv_answers = query_model_m1(
            pub, priv, "blinks", ["db", "ai"], tau=4.0
        )
        for a in pub_answers:
            assert all(m.vertex in pub for m in a.matches.values())
        for a in priv_answers:
            assert all(m.vertex in priv for m in a.matches.values())

    def test_m1_unknown_semantic(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError):
            query_model_m1(pub, priv, "nope", ["db"], tau=1.0)

    def test_m2_filters_public_private(self, small_public_private):
        pub, priv = small_public_private
        answers = query_model_m2(pub, priv, "blinks", ["db", "ai"], tau=4.0)
        for a in answers:
            vertices = [m.vertex for m in a.matches.values()]
            assert any(v in priv for v in vertices)
            assert any(v in pub for v in vertices)

    def test_m2_unfiltered(self, small_public_private):
        pub, priv = small_public_private
        all_answers = query_model_m2(
            pub, priv, "blinks", ["db", "ai"], tau=4.0,
            require_public_private=False,
        )
        filtered = query_model_m2(pub, priv, "blinks", ["db", "ai"], tau=4.0)
        assert len(all_answers) >= len(filtered)

    def test_m2_accepts_premade_combined(self, small_public_private):
        pub, priv = small_public_private
        gc = combine(pub, priv)
        a1 = query_model_m2(pub, priv, "rclique", ["db", "ai"], 4.0, combined=gc)
        a2 = query_model_m2(pub, priv, "rclique", ["db", "ai"], 4.0)
        assert [a.sort_key() for a in a1] == [a.sort_key() for a in a2]

    def test_m2_unknown_semantic(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError):
            query_model_m2(pub, priv, "nope", ["db"], tau=1.0)


class TestBreakdownAndCounters:
    def test_breakdown_populated(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        result = engine.blinks("bob", ["db", "ai"], tau=4.0)
        b = result.breakdown
        assert b.total == pytest.approx(b.peval + b.arefine + b.acomplete)
        fr = b.fractions()
        assert sum(fr) == pytest.approx(1.0)

    def test_empty_breakdown_fractions(self):
        from repro.core import StepBreakdown

        assert StepBreakdown().fractions() == (0.0, 0.0, 0.0)

    def test_counters_track_work(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        result = engine.rclique("bob", ["db", "cv"], tau=6.0)
        c = result.counters
        assert c.partial_answers > 0
        assert c.final_answers == len(result.answers)

    def test_dp_cache_hits_accumulate(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        result = engine.rclique("bob", ["db", "cv"], tau=6.0)
        assert result.counters.completion_lookups >= (
            result.counters.completion_cache_hits
        )


class TestQueryOptionsEquivalence:
    @pytest.mark.parametrize("semantic", ["rclique", "blinks"])
    def test_optimizations_do_not_change_answers(
        self, small_public_private, semantic
    ):
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=2)
        on = PPKWS(pub, index=index)
        off = PPKWS(
            pub,
            index=index,
            options=QueryOptions(reduced_refinement=False, dp_completion=False),
        )
        on.attach("bob", priv)
        off.attach("bob", priv)
        for keywords in (["db", "ai"], ["db", "cv"], ["ai", "ml", "cv"]):
            run_on = getattr(on, semantic)("bob", keywords, tau=6.0)
            run_off = getattr(off, semantic)("bob", keywords, tau=6.0)
            assert [a.sort_key() for a in run_on.answers] == [
                a.sort_key() for a in run_off.answers
            ]

    def test_optimizations_do_not_change_knk(self, small_public_private):
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=2)
        on = PPKWS(pub, index=index)
        off = PPKWS(
            pub,
            index=index,
            options=QueryOptions(reduced_refinement=False, dp_completion=False),
        )
        on.attach("bob", priv)
        off.attach("bob", priv)
        for keyword in ("db", "ai", "cv", "ml"):
            a = on.knk("bob", "x1", keyword, k=5).answer
            b = off.knk("bob", "x1", keyword, k=5).answer
            assert a.distances() == b.distances()
