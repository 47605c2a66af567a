"""Tests for multi-keyword k-nk (conjunction / disjunction)."""

from __future__ import annotations


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PPKWS
from repro.exceptions import QueryError
from repro.graph import LabeledGraph, combine, dijkstra
from repro.semantics import knk_multi_search
from tests.conftest import random_connected_graph


@pytest.fixture
def multi_label_graph():
    g = LabeledGraph.from_edges(
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        {1: {"a"}, 2: {"a", "b"}, 3: {"b"}, 4: {"a", "b"}},
    )
    return g


class TestKnkMultiSearch:
    def test_conjunction_requires_all(self, multi_label_graph):
        ans = knk_multi_search(multi_label_graph, 0, ["a", "b"], k=3, mode="and")
        assert ans.vertices() == [2, 4]
        assert ans.distances() == [2.0, 4.0]
        assert ans.keyword == "a&b"

    def test_disjunction_accepts_any(self, multi_label_graph):
        ans = knk_multi_search(multi_label_graph, 0, ["a", "b"], k=3, mode="or")
        assert ans.vertices() == [1, 2, 3]
        assert ans.keyword == "a|b"

    def test_single_keyword_equals_knk(self, multi_label_graph):
        from repro.semantics import knk_search

        multi = knk_multi_search(multi_label_graph, 0, ["a"], k=3, mode="or")
        single = knk_search(multi_label_graph, 0, "a", k=3)
        assert multi.distances() == single.distances()

    def test_invalid(self, multi_label_graph):
        with pytest.raises(QueryError):
            knk_multi_search(multi_label_graph, 0, [], k=1)
        with pytest.raises(QueryError):
            knk_multi_search(multi_label_graph, 0, ["a"], k=0)
        with pytest.raises(QueryError):
            knk_multi_search(multi_label_graph, 0, ["a"], k=1, mode="xor")

    def test_extra_matches(self, multi_label_graph):
        ans = knk_multi_search(
            multi_label_graph, 0, ["zz"], k=1, mode="and", extra_matches={3}
        )
        assert ans.vertices() == [3]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2000))
    def test_and_is_subset_of_or(self, seed):
        g = random_connected_graph(25, 8, seed)
        and_ans = knk_multi_search(g, 0, ["a", "b"], k=30, mode="and")
        or_ans = knk_multi_search(g, 0, ["a", "b"], k=30, mode="or")
        # every AND match also matches OR (same distances)
        or_map = dict(zip(or_ans.vertices(), or_ans.distances()))
        for v, d in zip(and_ans.vertices(), and_ans.distances()):
            if v in or_map:  # may be beyond OR's k-th entry
                assert or_map[v] == pytest.approx(d)


class TestPPKnkMulti:
    @pytest.fixture
    def engine(self, small_public_private):
        pub, priv = small_public_private
        # add overlapping labels so conjunctions are satisfiable
        pub.add_labels(3, {"db"})     # 3 carries ai + db
        priv.add_labels("x2", {"db"})  # x2 carries ai + db
        engine = PPKWS(pub, sketch_k=8)
        engine.attach("bob", priv)
        return engine, pub, priv

    def test_disjunction_sound(self, engine):
        eng, pub, priv = engine
        gc = combine(pub, priv)
        result = eng.knk_multi("bob", "x1", ["db", "ai"], k=5, mode="or")
        exact = dijkstra(gc, "x1")
        for m in result.answer.matches:
            assert m.distance >= exact.get(m.vertex, float("inf")) - 1e-9
            assert gc.labels(m.vertex) & {"db", "ai"}

    def test_conjunction_matches_carry_all_keywords(self, engine):
        eng, pub, priv = engine
        gc = combine(pub, priv)
        result = eng.knk_multi("bob", "x1", ["db", "ai"], k=5, mode="and")
        assert result.answer.matches, "expected conjunctive matches"
        for m in result.answer.matches:
            assert {"db", "ai"} <= gc.labels(m.vertex)

    def test_private_conjunctive_matches_guaranteed(self, engine):
        eng, pub, priv = engine
        gc = combine(pub, priv)
        from repro.semantics import knk_multi_search

        truth = knk_multi_search(gc, "x1", ["db", "ai"], k=5, mode="and")
        result = eng.knk_multi("bob", "x1", ["db", "ai"], k=5, mode="and")
        got = {m.vertex: m.distance for m in result.answer.matches}
        kth = truth.kth_distance()
        for m in truth.matches:
            if m.vertex in priv and m.distance < kth:
                assert m.vertex in got
                assert got[m.vertex] == pytest.approx(m.distance)

    def test_invalid_queries(self, engine):
        eng, _, _ = engine
        with pytest.raises(QueryError):
            eng.knk_multi("bob", "x1", [], k=3)
        with pytest.raises(QueryError):
            eng.knk_multi("bob", "x1", ["db"], k=0)
        with pytest.raises(QueryError):
            eng.knk_multi("bob", "not-private", ["db"], k=3)
        with pytest.raises(QueryError):
            eng.knk_multi("bob", "x1", ["db"], k=3, mode="nand")

    def test_breakdown_populated(self, engine):
        eng, _, _ = engine
        result = eng.knk_multi("bob", "x1", ["db", "ai"], k=3, mode="or")
        assert result.breakdown.total > 0
        assert result.counters.final_answers == len(result.answer.matches)
