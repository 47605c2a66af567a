"""Tests for answer dataclasses and partial-answer bookkeeping."""

from __future__ import annotations


from repro.core import PartialAnswer
from repro.core.partial import KeywordIndicator, PairIndicator, PartialKnkAnswer
from repro.graph import INF
from repro.semantics import KnkAnswer, Match, RootedAnswer


class TestMatch:
    def test_resolved(self):
        assert Match("v", 1.0).is_resolved()
        assert not Match(None, 1.0).is_resolved()
        assert not Match("v", INF).is_resolved()

    def test_copy_independent(self):
        m = Match("v", 1.0)
        c = m.copy()
        c.distance = 9.0
        assert m.distance == 1.0


class TestRootedAnswer:
    def _answer(self):
        return RootedAnswer("r", {"a": Match("u", 1.0), "b": Match("w", 3.0)})

    def test_weight_and_max(self):
        a = self._answer()
        assert a.weight() == 4.0
        assert a.max_distance() == 3.0

    def test_empty_answer(self):
        a = RootedAnswer("r")
        assert a.weight() == 0.0
        assert a.max_distance() == 0.0

    def test_within_bound(self):
        a = self._answer()
        assert a.within_bound(3.0)
        assert not a.within_bound(2.9)

    def test_is_complete(self):
        a = self._answer()
        assert a.is_complete(iter(["a", "b"]))
        assert not a.is_complete(iter(["a", "zzz"]))
        a.matches["a"] = Match(None, INF)
        assert not a.is_complete(iter(["a"]))

    def test_vertices_includes_root_and_matches(self):
        a = self._answer()
        assert set(a.vertices()) == {"r", "u", "w"}

    def test_copy_deep(self):
        a = self._answer()
        c = a.copy()
        c.matches["a"].distance = 99.0
        assert a.matches["a"].distance == 1.0

    def test_sort_key_orders_by_weight(self):
        light = RootedAnswer("r1", {"a": Match("u", 1.0)})
        heavy = RootedAnswer("r2", {"a": Match("u", 5.0)})
        assert sorted([heavy, light], key=RootedAnswer.sort_key)[0] is light


class TestKnkAnswer:
    def test_accessors(self):
        a = KnkAnswer("s", "t", [Match("u", 1.0), Match("w", 2.0)])
        assert a.distances() == [1.0, 2.0]
        assert a.vertices() == ["u", "w"]
        assert a.kth_distance() == 2.0
        assert len(a) == 2

    def test_empty(self):
        a = KnkAnswer("s", "t")
        assert a.kth_distance() == INF
        assert a.vertices() == []


class TestPartialAnswer:
    def test_match_slots(self):
        p = PartialAnswer(answer=RootedAnswer("r"))
        assert p.match("a") is None
        p.set_match("a", "u", 2.0)
        assert p.match("a").vertex == "u"
        assert p.root == "r"

    def test_indicators_hashable(self):
        assert PairIndicator(1, 2, "a") == PairIndicator(1, 2, "a")
        assert len({KeywordIndicator("r", "q"), KeywordIndicator("r", "q")}) == 1


class TestPartialKnkAnswer:
    def test_holds_portal_entries(self):
        p = PartialKnkAnswer(answer=KnkAnswer("s", "t"))
        p.portal_entries.append(("p", 1.0))
        assert p.portal_entries == [("p", 1.0)]
        assert p.pair_indicators == []
