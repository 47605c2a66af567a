"""Tests for PageRank (both bodies, either side of the size threshold)."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph import LabeledGraph, pagerank, pagerank_csr, pagerank_pure
from tests.conftest import random_connected_graph

# the package re-exports the function under the submodule's name
PAGERANK_MODULE = sys.modules["repro.graph.pagerank"]


class TestPagerankBasics:
    def test_empty_graph(self):
        assert pagerank(LabeledGraph()) == {}

    def test_single_vertex(self):
        g = LabeledGraph()
        g.add_vertex(1)
        assert pagerank(g) == {1: pytest.approx(1.0)}

    def test_scores_sum_to_one(self, triangle_graph):
        scores = pagerank(triangle_graph)
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_graph_uniform_scores(self):
        # A 4-cycle is vertex-transitive: all scores equal.
        g = LabeledGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        scores = pagerank(g)
        values = list(scores.values())
        assert max(values) - min(values) < 1e-6

    def test_hub_scores_highest(self):
        # Star graph: center must dominate.
        g = LabeledGraph.from_edges([(0, i) for i in range(1, 8)])
        scores = pagerank(g)
        assert scores[0] == max(scores.values())

    def test_invalid_alpha(self, triangle_graph):
        with pytest.raises(GraphError):
            pagerank(triangle_graph, alpha=0.0)
        with pytest.raises(GraphError):
            pagerank(triangle_graph, alpha=1.0)

    def test_unknown_backend(self, triangle_graph):
        # There is no backend to choose: size alone picks the body.
        with pytest.raises(TypeError):
            pagerank(triangle_graph, backend="magic")

    def test_dangling_vertices_handled(self):
        g = LabeledGraph.from_edges([(0, 1)])
        g.add_vertex(2)  # isolated: dangling mass redistributes
        for body in (pagerank_pure, pagerank_csr):
            scores = body(g)
            assert sum(scores.values()) == pytest.approx(1.0, abs=1e-6)
            assert scores[2] > 0


class TestBackendAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_pure_and_numpy_agree(self, seed):
        g = random_connected_graph(30, 12, seed)
        pure = pagerank_pure(g, max_iter=200, tol=1e-12)
        vec = pagerank_csr(g, max_iter=200, tol=1e-12)
        for v in g.vertices():
            assert pure[v] == pytest.approx(vec[v], abs=1e-6)

    def test_auto_backend_selects(self, triangle_graph, monkeypatch):
        # Below the threshold the plain-list body runs, from it the CSR one.
        assert pagerank(triangle_graph) == pagerank_pure(triangle_graph)
        monkeypatch.setattr(PAGERANK_MODULE, "_NUMPY_THRESHOLD", 3)
        assert pagerank(triangle_graph) == pagerank_csr(triangle_graph)
        assert set(pagerank(triangle_graph)) == {"a", "b", "c"}
