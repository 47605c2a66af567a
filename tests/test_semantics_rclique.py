"""Tests for the r-clique baseline semantic (Kargar-An star approximation)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import QueryBudget
from repro.exceptions import QueryError
from repro.graph import LabeledGraph, dijkstra
from repro.semantics import build_neighbor_lists, rclique_search
from tests.conftest import random_connected_graph
from tests.reference_neighbor_lists import reference_neighbor_lists


@pytest.fixture
def two_cluster_graph():
    """Two keyword clusters at distance 4: {a1(x), a2(y)} and {b1(x), b2(y)}."""
    g = LabeledGraph.from_edges(
        [("a1", "a2"), ("a2", "m1"), ("m1", "m2"), ("m2", "m3"), ("m3", "b1"),
         ("b1", "b2")],
        {"a1": {"x"}, "a2": {"y"}, "b1": {"x"}, "b2": {"y"}},
    )
    return g


class TestNeighborLists:
    def test_lists_sorted_and_capped(self, two_cluster_graph):
        g = two_cluster_graph
        lists = build_neighbor_lists(g, {"x": {"a1", "b1"}}, tau=10.0, m=2)
        for v in g.vertices():
            entries = lists.lists["x"].get(v, [])
            assert len(entries) <= 2
            distances = [d for d, _ in entries]
            assert distances == sorted(distances)

    def test_nearest_respects_exclusions(self, two_cluster_graph):
        g = two_cluster_graph
        lists = build_neighbor_lists(g, {"x": {"a1", "b1"}}, tau=10.0, m=2)
        d1, u1 = lists.nearest("a2", "x", frozenset())
        assert (u1, d1) == ("a1", 1.0)
        d2, u2 = lists.nearest("a2", "x", frozenset({"a1"}))
        assert (u2, d2) == ("b1", 4.0)
        assert lists.nearest("a2", "x", frozenset({"a1", "b1"})) is None

    def test_tau_cutoff(self, two_cluster_graph):
        lists = build_neighbor_lists(
            two_cluster_graph, {"x": {"a1"}}, tau=1.0, m=2
        )
        assert "b1" not in lists.lists["x"]


def _index_case(seed: int):
    """A seeded graph, candidate sets (labels plus extra 'portal'
    candidates shared by every keyword), a radius and a list size."""
    rng = random.Random(seed)
    n = rng.randint(8, 28)
    graph = random_connected_graph(n, extra_edges=rng.randint(0, n), seed=seed)
    if seed % 3:  # 1: unit weights, every distance ties with many others;
        # 2: float weights, ties only where paths coincide; 0: as generated
        reweighted = LabeledGraph(graph.name)
        for v in graph.vertices():
            reweighted.add_vertex(v, graph.labels(v))
        for u, v, _ in graph.edges():
            w = 1.0 if seed % 3 == 1 else rng.choice([0.5, 0.75, 1.25, 2.0])
            reweighted.add_edge(u, v, w)
        graph = reweighted
    extra = set(rng.sample(range(n), rng.randint(0, 4))) | {"ghost"}
    candidates = {
        q: set(graph.vertices_with_label(q)) | extra for q in ("a", "b", "c")
    }
    widest = max(len(c) for c in candidates.values())
    m = rng.choice([1, 2, 3, widest + 1])  # binding and slack list sizes
    tau = rng.choice([1.0, 2.5, 4.0, 50.0])
    return graph, candidates, tau, m


class TestNeighborIndexProperties:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_reference_implementation(self, seed):
        """Exactly the old per-edge-push index, tie order included."""
        graph, candidates, tau, m = _index_case(seed)
        got = build_neighbor_lists(graph, candidates, tau, m).lists
        want = reference_neighbor_lists(graph, candidates, tau, m)
        assert got == want

    @pytest.mark.parametrize("seed", range(60))
    def test_entries_are_exact_nearest_origins(self, seed):
        """Against one plain Dijkstra per origin, no shared code."""
        graph, candidates, tau, m = _index_case(seed)
        index = build_neighbor_lists(graph, candidates, tau, m).lists
        for q, origins in candidates.items():
            exact = {o: dijkstra(graph, o) for o in origins if o in graph}
            for v in graph.vertices():
                entries = index[q].get(v, [])
                listed = [o for _, o in entries]
                distances = [d for d, _ in entries]
                assert len(set(listed)) == len(listed) <= m
                assert distances == sorted(distances)
                for d, o in entries:
                    assert d == exact[o][v] and d <= tau
                # the list is the m nearest: nothing unlisted is closer
                within = sorted(
                    dist[v] for dist in exact.values() if dist.get(v, tau + 1) <= tau
                )
                assert distances == within[:m]

    def test_budget_charged_once_per_settled_pair(self):
        """Unit weights, slack lists: nothing stale or rejected is queued."""
        graph, candidates, tau, _ = _index_case(1)
        m = 1 + max(len(c) for c in candidates.values())
        budget = QueryBudget(max_expansions=10**9)
        index = build_neighbor_lists(graph, candidates, tau, m, budget=budget)
        settled = sum(len(l) for ls in index.lists.values() for l in ls.values())
        assert budget.expansions == settled > 0


class TestRcliqueSearch:
    def test_local_cluster_preferred(self, two_cluster_graph):
        answers = rclique_search(two_cluster_graph, ["x", "y"], tau=2.0, k=2)
        assert answers
        best = answers[0]
        vertices = {m.vertex for m in best.matches.values()}
        assert vertices in ({"a1", "a2"}, {"b1", "b2"})
        assert best.weight() == 1.0

    def test_bound_prunes_cross_cluster(self, two_cluster_graph):
        # force exclusions so only cross-cluster stars remain: they exceed
        # tau=2 and must be pruned
        answers = rclique_search(two_cluster_graph, ["x", "y"], tau=2.0, k=10)
        for a in answers:
            assert a.within_bound(2.0)

    def test_enforce_bound_false_keeps_wide_answers(self, two_cluster_graph):
        answers = rclique_search(
            two_cluster_graph, ["x", "y"], tau=0.5, k=10, enforce_bound=False
        )
        assert answers  # nothing within tau, but partials are kept

    def test_top_k_distinct_answers(self, two_cluster_graph):
        answers = rclique_search(two_cluster_graph, ["x", "y"], tau=10.0, k=4)
        signatures = [
            tuple(sorted((q, m.vertex) for q, m in a.matches.items()))
            for a in answers
        ]
        assert len(signatures) == len(set(signatures))
        weights = [a.weight() for a in answers]
        assert weights == sorted(weights)

    def test_missing_keyword_returns_empty(self, two_cluster_graph):
        assert rclique_search(two_cluster_graph, ["x", "nope"], tau=3.0) == []

    def test_extra_candidates_match_any_keyword(self, two_cluster_graph):
        answers = rclique_search(
            two_cluster_graph, ["x", "zz"], tau=3.0, k=3,
            extra_candidates={"m1"},
        )
        # zz has no real matches; only the portal m1 can stand in for it
        assert answers
        for a in answers:
            assert a.matches["zz"].vertex == "m1"

    def test_invalid_queries(self, two_cluster_graph):
        with pytest.raises(QueryError):
            rclique_search(two_cluster_graph, [], tau=1.0)
        with pytest.raises(QueryError):
            rclique_search(two_cluster_graph, ["x"], tau=-1)
        with pytest.raises(QueryError):
            rclique_search(two_cluster_graph, ["x"], tau=1.0, k=0)

    def test_single_keyword_roots_are_matches(self, two_cluster_graph):
        answers = rclique_search(two_cluster_graph, ["x"], tau=1.0, k=5)
        roots = {a.root for a in answers}
        assert roots == {"a1", "b1"}


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000))
def test_rclique_star_distances_are_exact(seed):
    """Each reported match distance equals d(root, match) in the graph."""
    g = random_connected_graph(25, 8, seed)
    answers = rclique_search(g, ["a", "b"], tau=4.0, k=5)
    for ans in answers:
        exact = dijkstra(g, ans.root)
        for q, m in ans.matches.items():
            assert g.has_label(m.vertex, q) or m.vertex == ans.root
            assert m.distance == pytest.approx(exact[m.vertex])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2000))
def test_rclique_greedy_weight_vs_optimum(seed):
    """Thm A.5 shape: the greedy star weight is within (l-1) * OPT of the
    best star on brute-forceable instances (l = #keywords = 2 -> optimal)."""
    g = random_connected_graph(18, 6, seed)
    keywords = ["a", "b"]
    answers = rclique_search(g, keywords, tau=5.0, k=1)
    if not answers:
        return
    got = answers[0].weight()
    # brute force the best star
    best = float("inf")
    for root_kw, other_kw in ((0, 1), (1, 0)):
        for root in g.vertices_with_label(keywords[root_kw]):
            exact = dijkstra(g, root)
            candidates = [
                exact.get(v, float("inf"))
                for v in g.vertices_with_label(keywords[other_kw])
            ]
            if candidates:
                best = min(best, min(candidates))
    if best <= 5.0:
        # l = 2 so (l-1) = 1: greedy must be optimal on two keywords
        assert got == pytest.approx(best)
