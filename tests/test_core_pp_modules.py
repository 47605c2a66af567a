"""Focused tests for the PEval/ARefine/AComplete adapters and edge cases."""

from __future__ import annotations

import pytest

from repro.core import PPKWS, CompletionCache, answer_sides
from repro.core.pp_blinks import peval_blinks
from repro.core.pp_rclique import peval_rclique
from repro.core.pp_knk import peval_knk
from repro.graph import INF, LabeledGraph
from tests.engine_equivalence_data import build_engine


@pytest.fixture
def engine_pair(small_public_private):
    pub, priv = small_public_private
    engine = PPKWS(pub, sketch_k=4)
    attachment = engine.attach("bob", priv)
    return engine, attachment


class TestPEvalRclique:
    def test_partial_answers_have_indicators(self, engine_pair):
        _, att = engine_pair
        partials = peval_rclique(att, ["db", "cv"], tau=6.0, max_answers=16)
        assert partials
        for p in partials:
            assert p.pair_indicators  # every recorded pair refinable
            for q in ("db", "cv"):
                assert p.match(q) is not None

    def test_portal_routed_keywords_tracked(self, engine_pair):
        _, att = engine_pair
        # 'ml' exists only publicly (on portal 5's public labels)
        partials = peval_rclique(att, ["db", "ml"], tau=6.0, max_answers=16)
        routed = [p for p in partials if "ml" in p.portal_routed]
        assert routed
        for p in routed:
            assert p.portal_routed["ml"] in att.portals


class TestPEvalBlinks:
    def test_all_portals_are_roots(self, engine_pair):
        _, att = engine_pair
        partials = peval_blinks(att, ["db", "ai"], tau=5.0)
        for portal in att.portals:
            assert portal in partials

    def test_missing_keywords_recorded(self, engine_pair):
        _, att = engine_pair
        partials = peval_blinks(att, ["db", "not-a-keyword"], tau=5.0)
        for p in partials.values():
            assert "not-a-keyword" in p.missing
            assert p.match("not-a-keyword").distance == INF

    def test_match_distances_within_tau(self, engine_pair):
        _, att = engine_pair
        partials = peval_blinks(att, ["db", "ai"], tau=2.0)
        for p in partials.values():
            for q in ("db", "ai"):
                m = p.match(q)
                if m.is_resolved():
                    assert m.distance <= 2.0


class TestPEvalKnk:
    def test_portals_collected_in_order(self, engine_pair):
        _, att = engine_pair
        partial = peval_knk(att, "x1", ["cv"], k=3)
        distances = [d for _, d in partial.portal_entries]
        assert distances == sorted(distances)

    def test_matches_stop_at_k(self, engine_pair):
        _, att = engine_pair
        partial = peval_knk(att, "x1", ["db"], k=1)
        assert len(partial.answer.matches) == 1


class TestCompletionCache:
    def test_cache_hit_counting(self, engine_pair):
        engine, att = engine_pair
        cache = CompletionCache(enabled=True)
        portal = next(iter(att.portals))
        r1 = cache.lookup(engine, portal, "db")
        r2 = cache.lookup(engine, portal, "db")
        assert r1 == r2
        assert cache.hits == 1
        assert cache.misses == 1

    def test_disabled_cache_always_misses(self, engine_pair):
        engine, att = engine_pair
        cache = CompletionCache(enabled=False)
        portal = next(iter(att.portals))
        cache.lookup(engine, portal, "db")
        cache.lookup(engine, portal, "db")
        assert cache.hits == 0
        assert cache.misses == 2

    @pytest.mark.parametrize("seed", (11, 23, 37))
    def test_pka_row_equals_per_portal_lookups(self, seed):
        """AComplete's per-keyword PKA row vs. one ``lookup`` per read."""
        engine = build_engine(seed)
        portals = engine.attachment("owner").oracle.vertex_portal.portals
        cache = CompletionCache(enabled=True)
        for keyword in ("a", "b", "z", "nope"):
            row = cache.row(engine, portals, keyword)
            assert set(row) == set(portals)
            for portal in portals:
                fresh = CompletionCache(enabled=True).lookup(engine, portal, keyword)
                assert row[portal] == fresh
        # the fill is each entry's first read: all misses, then all hits
        assert (cache.misses, cache.hits) == (4 * len(portals), 0)
        again = cache.row(engine, portals, "a")
        assert again == {p: cache.lookup(engine, p, "a") for p in portals}
        assert (cache.misses, cache.hits) == (4 * len(portals), 2 * len(portals))

    def test_disabled_cache_has_no_row(self, engine_pair):
        """dp_completion off bypasses the table: callers pay per read."""
        engine, att = engine_pair
        cache = CompletionCache(enabled=False)
        assert cache.row(engine, att.portals, "db") is None
        assert (cache.misses, cache.hits) == (0, 0)


class TestDisconnectedPrivateGraph:
    """The model explicitly allows disconnected private graphs (Sec. II)."""

    @pytest.fixture
    def engine(self, small_public_private):
        pub, priv = small_public_private
        # a floating private component with its own keyword
        priv.add_edge("iso1", "iso2")
        priv.add_labels("iso1", {"island"})
        engine = PPKWS(pub, sketch_k=4)
        engine.attach("bob", priv)
        return engine

    def test_queries_do_not_crash(self, engine):
        result = engine.blinks("bob", ["db", "ai"], tau=5.0)
        assert isinstance(result.answers, list)
        result = engine.rclique("bob", ["db", "island"], tau=5.0)
        assert isinstance(result.answers, list)

    def test_island_keyword_unreachable_from_main(self, engine):
        # 'island' cannot join a public-private answer: the component has
        # no portal, so no tree can span it and the public graph.
        result = engine.blinks("bob", ["db", "island"], tau=10.0)
        assert result.answers == []

    def test_knk_from_island_source(self, engine):
        result = engine.knk("bob", "iso1", "island", k=2)
        assert result.answer.vertices() == ["iso1"]
        # no portal entries: the island cannot reach the public graph
        assert result.answer.distances() == [0.0]


class TestWeightedGraphsEndToEnd:
    def test_fractional_weights(self):
        pub = LabeledGraph()
        pub.add_edge(1, 2, 0.5)
        pub.add_edge(2, 3, 0.25)
        pub.add_labels(3, {"far"})
        priv = LabeledGraph()
        priv.add_edge(1, "a", 0.1)
        priv.add_labels("a", {"near"})
        engine = PPKWS(pub, sketch_k=4)
        engine.attach("u", priv)
        result = engine.blinks("u", ["near", "far"], tau=2.0, k=5)
        assert result.answers
        best = result.answers[0]
        assert best.matches["near"].distance <= 2.0
        assert best.matches["far"].distance <= 2.0


class TestMultipleOwners:
    def test_owners_are_isolated(self, small_public_private):
        pub, priv = small_public_private
        other = LabeledGraph()
        other.add_edge(0, "z1")
        other.add_labels("z1", {"zonly"})
        engine = PPKWS(pub, sketch_k=4)
        engine.attach("bob", priv)
        engine.attach("zoe", other)
        # zoe sees her keyword, bob doesn't
        z = engine.knk("zoe", "z1", "zonly", k=1)
        assert z.answer.vertices() == ["z1"]
        b = engine.rclique("bob", ["db", "zonly"], tau=6.0)
        assert b.answers == []  # zonly is invisible to bob

    def test_attachments_independent_portals(self, small_public_private):
        pub, priv = small_public_private
        other = LabeledGraph()
        other.add_edge(7, "w")
        engine = PPKWS(pub, sketch_k=2)
        a1 = engine.attach("bob", priv)
        a2 = engine.attach("wendy", other)
        assert a1.portals == {2, 5}
        assert a2.portals == {7}


class TestQualifyModule:
    def test_answer_sides_short_circuits(self, small_public_private):
        pub, priv = small_public_private
        sides = answer_sides(["x1", 0, None], pub, priv)
        assert sides == (True, True)
        assert answer_sides([], pub, priv) == (False, False)
        assert answer_sides([None], pub, priv) == (False, False)

    def test_portal_satisfies_both_sides(self, small_public_private):
        pub, priv = small_public_private
        assert answer_sides([2], pub, priv) == (True, True)
