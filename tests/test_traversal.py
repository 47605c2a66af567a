"""Unit + property tests for :mod:`repro.graph.traversal`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import VertexNotFoundError
from repro.graph import (
    INF,
    LabeledGraph,
    bfs_hops,
    bounded_target_distances,
    dijkstra,
    dijkstra_ordered,
    dijkstra_with_paths,
    eccentricity,
    freeze,
    multi_source_dijkstra,
    nearest_vertices_with_label,
    path_weight,
    shortest_distance,
    shortest_path,
    vertices_within_hops,
)
from tests.conftest import random_connected_graph


class TestDijkstra:
    def test_distances_on_triangle(self, triangle_graph):
        dist = dijkstra(triangle_graph, "a")
        assert dist == {"a": 0.0, "b": 1.0, "c": 3.0}

    def test_unknown_source_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            dijkstra(triangle_graph, "zzz")

    def test_cutoff_excludes_far_vertices(self, triangle_graph):
        dist = dijkstra(triangle_graph, "a", cutoff=1.5)
        assert "c" not in dist
        assert dist["b"] == 1.0

    def test_targets_early_stop_still_correct(self, triangle_graph):
        dist = dijkstra(triangle_graph, "a", targets={"b"})
        assert dist["b"] == 1.0

    def test_disconnected_vertex_unreachable(self):
        g = LabeledGraph.from_edges([(1, 2)])
        g.add_vertex(3)
        assert 3 not in dijkstra(g, 1)

    def test_mixed_vertex_types_no_comparison_error(self):
        # Regression test: equal-distance heap entries must not compare
        # incomparable vertex objects.
        g = LabeledGraph()
        g.add_edge(0, "a", 1.0)
        g.add_edge(0, "b", 1.0)
        g.add_edge(0, 1, 1.0)
        dist = dijkstra(g, 0)
        assert dist == {0: 0.0, "a": 1.0, "b": 1.0, 1: 1.0}


class TestDijkstraOrdered:
    def test_yields_nondecreasing(self, triangle_graph):
        order = list(dijkstra_ordered(triangle_graph, "a"))
        distances = [d for _, d in order]
        assert distances == sorted(distances)
        assert order[0] == ("a", 0.0)

    def test_lazy_consumption(self, triangle_graph):
        gen = dijkstra_ordered(triangle_graph, "a")
        assert next(gen)[0] == "a"

    def test_cutoff(self, triangle_graph):
        out = dict(dijkstra_ordered(triangle_graph, "a", cutoff=1.0))
        assert out == {"a": 0.0, "b": 1.0}


class TestDijkstraWithPaths:
    def test_predecessors_reconstruct_distances(self, triangle_graph):
        dist, pred = dijkstra_with_paths(triangle_graph, "a")
        assert pred["a"] is None
        # walk back from c: c <- b <- a because 1 + 2 < 4
        assert pred["c"] == "b"
        assert dist["c"] == 3.0


class TestMultiSource:
    def test_nearest_of_two_sources(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3), (3, 4), (4, 5)])
        dist = multi_source_dijkstra(g, [1, 5])
        assert dist[3] == 2.0
        assert dist[2] == 1.0
        assert dist[4] == 1.0

    def test_empty_sources(self):
        g = LabeledGraph.from_edges([(1, 2)])
        assert multi_source_dijkstra(g, []) == {}


class TestShortestPath:
    def test_path_matches_distance(self, triangle_graph):
        path = shortest_path(triangle_graph, "a", "c")
        assert path == ["a", "b", "c"]
        assert path_weight(triangle_graph, path) == shortest_distance(
            triangle_graph, "a", "c"
        )

    def test_unreachable_returns_none(self):
        g = LabeledGraph.from_edges([(1, 2)])
        g.add_vertex(3)
        assert shortest_path(g, 1, 3) is None
        assert shortest_distance(g, 1, 3) == INF

    def test_source_equals_target(self, triangle_graph):
        assert shortest_path(triangle_graph, "a", "a") == ["a"]
        assert shortest_distance(triangle_graph, "a", "a") == 0.0

    def test_unknown_target_raises(self, triangle_graph):
        with pytest.raises(VertexNotFoundError):
            shortest_path(triangle_graph, "a", "zzz")


class TestBfsHops:
    def test_hop_counts_ignore_weights(self, triangle_graph):
        hops = bfs_hops(triangle_graph, "a")
        assert hops == {"a": 0, "b": 1, "c": 1}

    def test_max_hops(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        hops = bfs_hops(g, 1, max_hops=2)
        assert 4 not in hops
        assert hops[3] == 2

    def test_vertices_within_hops(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        assert vertices_within_hops(g, 1, 1) == {1, 2}


class TestEccentricity:
    def test_path_graph(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3)])
        assert eccentricity(g, 1) == 2.0
        assert eccentricity(g, 2) == 1.0


class TestNearestWithLabel:
    def test_collects_in_distance_order(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3), (3, 4)])
        g.add_labels(2, {"t"})
        g.add_labels(4, {"t"})
        hits = nearest_vertices_with_label(g, 1, "t", k=2)
        assert hits == [(2, 1.0), (4, 3.0)]

    def test_accept_admits_extras(self):
        g = LabeledGraph.from_edges([(1, 2), (2, 3)])
        hits = nearest_vertices_with_label(g, 1, "t", k=1, accept=lambda v: v == 3)
        assert hits == [(3, 2.0)]

    def test_source_can_match(self):
        g = LabeledGraph.from_edges([(1, 2)], {1: {"t"}})
        assert nearest_vertices_with_label(g, 1, "t", k=1) == [(1, 0.0)]


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 40))
def test_dijkstra_triangle_inequality(seed: int, n: int):
    """d(s, v) <= d(s, u) + w(u, v) for every settled edge."""
    g = random_connected_graph(n, n // 2, seed)
    dist = dijkstra(g, 0)
    for u, v, w in g.edges():
        if u in dist and v in dist:
            assert dist[v] <= dist[u] + w + 1e-9
            assert dist[u] <= dist[v] + w + 1e-9


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_shortest_path_weight_equals_distance(seed: int, n: int):
    g = random_connected_graph(n, n // 2, seed)
    dist = dijkstra(g, 0)
    for target in list(dist)[:10]:
        path = shortest_path(g, 0, target)
        assert path is not None
        assert path_weight(g, path) == pytest.approx(dist[target])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_multi_source_equals_min_of_singles(seed: int, n: int):
    g = random_connected_graph(n, n // 3, seed)
    sources = [0, n - 1]
    combined = multi_source_dijkstra(g, sources)
    singles = [dijkstra(g, s) for s in sources]
    for v in g.vertices():
        expected = min((d.get(v, INF) for d in singles), default=INF)
        assert combined.get(v, INF) == pytest.approx(expected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_bfs_hops_lower_bound_on_distance(seed: int, n: int):
    """With weights >= 1, hop count lower-bounds weighted distance."""
    g = random_connected_graph(n, n // 3, seed)
    hops = bfs_hops(g, 0)
    dist = dijkstra(g, 0)
    for v, h in hops.items():
        assert dist[v] >= h - 1e-9


class TestBoundedTargetDistances:
    @pytest.mark.parametrize("backend", ("dict", "csr"))
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_equals_dijkstra_below_each_bound(self, backend, seed):
        """Exactly the targets closer than their bound, at their distance,
        ``d + w == d`` steps (``1e-300`` chords) included."""
        import random

        rng = random.Random(seed)
        g = random_connected_graph(25, 8, seed)
        for _ in range(3):
            g.add_edge(*rng.sample(range(25), 2), 1e-300)
        g.add_edge("far", "farther", 1.0)  # a second component
        graph = freeze(g) if backend == "csr" else g
        source = rng.randrange(25)
        exact = dijkstra(g, source)
        targets = rng.sample(range(25), 6) + ["far", "ghost"]
        bounds = {
            t: rng.choice([INF, 0.0, 1.0, 2.0, 3.0, 5.0, exact.get(t, 4.0)])
            for t in targets
        }
        assert bounded_target_distances(graph, source, bounds) == {
            t: exact[t] for t, b in bounds.items() if exact.get(t, INF) < b
        }

    def test_settles_in_distance_then_id_order(self):
        """``c`` joins distance 1 during it, and pops before ``b`` by id."""
        g = LabeledGraph()
        for u, v, w in (("s", "a", 1.0), ("a", "c", 1e-300), ("s", "b", 1.0)):
            g.add_edge(u, v, w)
        assert list(freeze(g).vertex_table) == ["s", "a", "c", "b"]
        got = bounded_target_distances(g, "s", {"b": INF, "c": INF})
        assert list(got.items()) == [("c", 1.0), ("b", 1.0)]

    def test_no_targets_no_sweep(self, triangle_graph):
        assert bounded_target_distances(triangle_graph, "a", {}) == {}

    def test_unknown_source_raises(self, triangle_graph):
        for graph in (triangle_graph, freeze(triangle_graph)):
            with pytest.raises(VertexNotFoundError):
                bounded_target_distances(graph, "zzz", {"a": INF})
