"""Unit tests for :mod:`repro.graph.labeled_graph`."""

from __future__ import annotations

import pytest

from repro.exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graph import LabeledGraph, path_weight


class TestConstruction:
    def test_empty_graph(self):
        g = LabeledGraph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.size == 0
        assert list(g.vertices()) == []

    def test_add_vertex_with_labels(self):
        g = LabeledGraph()
        g.add_vertex("v", {"x", "y"})
        assert g.labels("v") == {"x", "y"}
        assert g.vertices_with_label("x") == {"v"}

    def test_add_vertex_merges_labels(self):
        g = LabeledGraph()
        g.add_vertex("v", {"x"})
        g.add_vertex("v", {"y"})
        assert g.labels("v") == {"x", "y"}

    def test_add_edge_creates_vertices(self):
        g = LabeledGraph()
        g.add_edge(1, 2, 3.0)
        assert 1 in g and 2 in g
        assert g.weight(1, 2) == 3.0
        assert g.weight(2, 1) == 3.0

    def test_add_edge_rejects_self_loop(self):
        g = LabeledGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_add_edge_rejects_nonpositive_weight(self):
        g = LabeledGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 2, 0.0)
        with pytest.raises(GraphError):
            g.add_edge(1, 2, -1.0)

    def test_readd_edge_overwrites_weight_not_count(self):
        g = LabeledGraph()
        g.add_edge(1, 2, 1.0)
        g.add_edge(1, 2, 5.0)
        assert g.num_edges == 1
        assert g.weight(1, 2) == 5.0

    def test_size_is_v_plus_e(self, triangle_graph):
        assert triangle_graph.size == 3 + 3


class TestRemoval:
    def test_remove_edge(self, triangle_graph):
        triangle_graph.remove_edge("a", "b")
        assert not triangle_graph.has_edge("a", "b")
        assert triangle_graph.num_edges == 2

    def test_remove_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.remove_edge("a", "zzz")

    def test_remove_vertex_clears_edges_and_labels(self, triangle_graph):
        triangle_graph.remove_vertex("c")
        assert "c" not in triangle_graph
        assert triangle_graph.num_edges == 1
        assert triangle_graph.vertices_with_label("blue") == frozenset()
        # "red" is still carried by "a"
        assert triangle_graph.vertices_with_label("red") == {"a"}

    def test_remove_missing_vertex_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            triangle_graph.remove_vertex("zzz")


class TestLabels:
    def test_label_index_tracks_additions(self):
        g = LabeledGraph()
        g.add_vertex(1)
        g.add_labels(1, {"t"})
        assert g.vertices_with_label("t") == {1}
        assert g.label_frequency("t") == 1

    def test_add_labels_unknown_vertex_raises(self):
        g = LabeledGraph()
        with pytest.raises(VertexNotFoundError):
            g.add_labels(1, {"t"})

    def test_label_universe(self, triangle_graph):
        assert triangle_graph.label_universe() == {"red", "green", "blue"}

    def test_has_label(self, triangle_graph):
        assert triangle_graph.has_label("c", "red")
        assert not triangle_graph.has_label("b", "red")

    def test_average_labels_per_vertex(self, triangle_graph):
        assert triangle_graph.average_labels_per_vertex() == pytest.approx(4 / 3)

    def test_unknown_label_is_empty(self, triangle_graph):
        assert triangle_graph.vertices_with_label("nope") == frozenset()
        assert triangle_graph.label_frequency("nope") == 0


class TestInspection:
    def test_neighbors_and_degree(self, triangle_graph):
        assert set(triangle_graph.neighbors("a")) == {"b", "c"}
        assert triangle_graph.degree("a") == 2

    def test_neighbors_unknown_vertex_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            list(triangle_graph.neighbors("zzz"))
        with pytest.raises(VertexNotFoundError):
            triangle_graph.degree("zzz")
        with pytest.raises(VertexNotFoundError):
            triangle_graph.labels("zzz")

    def test_edges_iterates_each_once(self, triangle_graph):
        edges = list(triangle_graph.edges())
        assert len(edges) == 3
        pairs = {frozenset((u, v)) for u, v, _ in edges}
        assert pairs == {
            frozenset(("a", "b")),
            frozenset(("b", "c")),
            frozenset(("a", "c")),
        }

    def test_weight_missing_edge_raises(self, triangle_graph):
        with pytest.raises(EdgeNotFoundError):
            triangle_graph.weight("a", "zzz")

    def test_stats_shape(self, triangle_graph):
        stats = triangle_graph.stats()
        assert stats["num_vertices"] == 3
        assert stats["num_edges"] == 3
        assert stats["avg_degree"] == pytest.approx(2.0)


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle_graph):
        cp = triangle_graph.copy()
        cp.remove_edge("a", "b")
        assert triangle_graph.has_edge("a", "b")
        assert not cp.has_edge("a", "b")
        assert cp.labels("c") == triangle_graph.labels("c")
        cp.add_labels("c", {"new"})
        assert triangle_graph.vertices_with_label("new") == frozenset()

    def test_copy_keeps_neighbor_order(self):
        g = LabeledGraph.from_edges([("a", "b"), ("c", "b"), ("c", "a")])
        assert list(g.copy().neighbors("c")) == list(g.neighbors("c")) == ["b", "a"]
        assert g.copy().num_edges == 3

    def test_subgraph_induced(self, triangle_graph):
        sub = triangle_graph.subgraph(["a", "b"])
        assert sub.num_vertices == 2
        assert sub.num_edges == 1
        assert sub.labels("a") == {"red"}

    def test_subgraph_ignores_unknown(self, triangle_graph):
        sub = triangle_graph.subgraph(["a", "zzz"])
        assert sub.num_vertices == 1

    def test_union_merges_vertices_edges_labels(self):
        g1 = LabeledGraph.from_edges([(1, 2)], {1: {"x"}})
        g2 = LabeledGraph.from_edges([(2, 3)], {2: {"y"}})
        u = g1.union(g2)
        assert u.num_vertices == 3
        assert u.num_edges == 2
        assert u.labels(2) == {"y"}
        assert u.labels(1) == {"x"}

    def test_union_shared_edge_takes_min_weight(self):
        g1 = LabeledGraph()
        g1.add_edge(1, 2, 5.0)
        g2 = LabeledGraph()
        g2.add_edge(1, 2, 1.0)
        assert g1.union(g2).weight(1, 2) == 1.0
        assert g2.union(g1).weight(1, 2) == 1.0

    def test_connected_components(self):
        g = LabeledGraph.from_edges([(1, 2), (3, 4)])
        comps = sorted(map(sorted, g.connected_components()))
        assert comps == [[1, 2], [3, 4]]
        assert not g.is_connected()

    def test_empty_graph_is_connected(self):
        assert LabeledGraph().is_connected()

    def test_relabel_disjoint(self):
        g1 = LabeledGraph.from_edges([(1, 2)])
        g2 = LabeledGraph.from_edges([(3, 4)])
        g3 = LabeledGraph.from_edges([(2, 3)])
        assert g1.relabel_disjoint(g2)
        assert not g1.relabel_disjoint(g3)


class TestPathWeight:
    def test_path_weight(self, triangle_graph):
        assert path_weight(triangle_graph, ["a", "b", "c"]) == 3.0

    def test_invalid_path_raises(self, triangle_graph):
        g = triangle_graph
        g.remove_edge("a", "c")
        with pytest.raises(EdgeNotFoundError):
            path_weight(g, ["a", "c"])

    def test_single_vertex_path_is_zero(self, triangle_graph):
        assert path_weight(triangle_graph, ["a"]) == 0.0


class TestFromEdges:
    def test_from_edges_with_labels(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3)], {3: {"z"}})
        assert g.num_vertices == 3
        assert g.labels(3) == {"z"}

    def test_iteration_protocols(self, triangle_graph):
        assert len(triangle_graph) == 3
        assert set(iter(triangle_graph)) == {"a", "b", "c"}
        assert "a" in triangle_graph


def test_nan_weight_rejected():
    """NaN fails every comparison, ``weight <= 0`` included."""
    g = LabeledGraph()
    with pytest.raises(GraphError):
        g.add_edge("a", "b", float("nan"))
    assert "a" not in g
