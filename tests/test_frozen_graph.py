"""FrozenGraph unit tests + property-style equivalence vs LabeledGraph."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import EdgeNotFoundError, VertexNotFoundError
from repro.graph import FrozenGraph, LabeledGraph, freeze
from repro.graph.pagerank import pagerank, pagerank_csr, pagerank_pure
from repro.graph.traversal import (
    INF,
    bfs_hops,
    dijkstra,
    dijkstra_ordered,
    dijkstra_with_paths,
    multi_source_dijkstra,
    nearest_vertices_with_label,
    shortest_distance,
    shortest_path,
)
from repro.sketches.pads import build_pads
from tests.conftest import random_connected_graph
from tests.reference_dict_backend import (
    reference_build_sketch,
    reference_pagerank_numpy,
    reference_pagerank_pure,
)


# ----------------------------------------------------------------------
# construction and the read API
# ----------------------------------------------------------------------
class TestFrozenGraphBasics:
    def test_counts_match_source(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        assert fg.num_vertices == triangle_graph.num_vertices
        assert fg.num_edges == triangle_graph.num_edges
        assert len(fg) == len(triangle_graph)
        assert fg.size == triangle_graph.size

    def test_vertex_set_and_iteration_order(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        assert list(fg.vertices()) == list(triangle_graph.vertices())
        assert list(iter(fg)) == list(iter(triangle_graph))
        for v in triangle_graph.vertices():
            assert v in fg
        assert "nope" not in fg

    def test_adjacency_round_trip(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        for v in triangle_graph.vertices():
            assert sorted(fg.neighbors(v), key=repr) == sorted(
                triangle_graph.neighbors(v), key=repr
            )
            assert dict(fg.neighbor_items(v)) == dict(triangle_graph.neighbor_items(v))
            assert fg.degree(v) == triangle_graph.degree(v)
        assert fg.weight("b", "c") == 2.0
        assert fg.has_edge("a", "c") and fg.has_edge("c", "a")
        assert not fg.has_edge("a", "missing")

    def test_edges_yield_each_edge_once(self, paper_public_graph):
        fg = FrozenGraph(paper_public_graph)
        frozen_edges = {frozenset((u, v)) for u, v, _ in fg.edges()}
        dict_edges = {
            frozenset((u, v)) for u, v, _ in paper_public_graph.edges()
        }
        assert frozen_edges == dict_edges
        assert len(list(fg.edges())) == fg.num_edges

    def test_labels(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        assert fg.labels("c") == {"blue", "red"}
        assert fg.has_label("a", "red")
        assert not fg.has_label("b", "red")
        assert fg.vertices_with_label("red") == {"a", "c"}
        assert fg.vertices_with_label("unused") == frozenset()
        assert fg.label_universe() == triangle_graph.label_universe()
        assert fg.label_frequency("red") == 2
        assert fg.label_frequency("unused") == 0

    def test_missing_vertex_errors(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        with pytest.raises(VertexNotFoundError):
            fg.intern("zz")
        with pytest.raises(VertexNotFoundError):
            list(fg.neighbors("zz"))
        with pytest.raises(VertexNotFoundError):
            fg.labels("zz")
        with pytest.raises(EdgeNotFoundError):
            fg.weight("a", "zz")

    def test_intern_and_vertex_table_are_inverse(self, paper_public_graph):
        fg = FrozenGraph(paper_public_graph)
        vx = fg.vertex_table
        for i, v in enumerate(vx):
            assert fg.intern(v) == i
        indptr, indices, weights = fg.csr()
        assert len(indptr) == fg.num_vertices + 1
        assert len(indices) == len(weights) == 2 * fg.num_edges

    def test_mutation_is_impossible(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        with pytest.raises(AttributeError):
            fg.add_edge("a", "d")
        with pytest.raises(AttributeError):
            fg.add_vertex("d")
        with pytest.raises(AttributeError):
            fg.remove_edge("a", "b")

    def test_empty_graph(self):
        fg = FrozenGraph(LabeledGraph("empty"))
        assert fg.num_vertices == 0
        assert fg.num_edges == 0
        assert fg.stats()["avg_degree"] == 0.0
        assert pagerank(fg) == {}


class TestFreezeThawCopy:
    def test_freeze_is_noop_on_frozen(self, triangle_graph):
        fg = freeze(triangle_graph)
        assert freeze(fg) is fg

    def test_copy_shares_immutable_instance(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        assert fg.copy() is fg
        renamed = fg.copy(name="other")
        assert renamed is not fg
        assert renamed.name == "other"
        assert renamed.num_edges == fg.num_edges

    def test_thaw_round_trip(self, paper_public_graph):
        fg = FrozenGraph(paper_public_graph)
        thawed = fg.thaw()
        assert isinstance(thawed, LabeledGraph)
        assert set(thawed.vertices()) == set(paper_public_graph.vertices())
        for v in paper_public_graph.vertices():
            assert thawed.labels(v) == paper_public_graph.labels(v)
        assert {frozenset((u, v)) for u, v, _ in thawed.edges()} == {
            frozenset((u, v)) for u, v, _ in paper_public_graph.edges()
        }
        # Thawed graphs are mutable and independent.
        thawed.add_edge("v0", "brand-new")
        assert "brand-new" not in fg

    def test_union_with_dict_graph(self, small_public_private):
        pub, priv = small_public_private
        fg = freeze(pub)
        combined = fg.union(priv, name="gc")
        reference = pub.union(priv, name="gc")
        assert combined.num_vertices == reference.num_vertices
        assert combined.num_edges == reference.num_edges

    def test_subgraph_goes_through_thaw(self, triangle_graph):
        fg = FrozenGraph(triangle_graph)
        sub = fg.subgraph(["a", "b"])
        assert isinstance(sub, LabeledGraph)
        assert set(sub.vertices()) == {"a", "b"}


class TestStats:
    def test_stats_all_floats_and_identical_shape(self, paper_public_graph):
        fg = FrozenGraph(paper_public_graph)
        fs = fg.stats()
        ds = paper_public_graph.stats()
        assert set(fs) == set(ds)
        for key, value in fs.items():
            assert isinstance(value, float), key
            assert isinstance(ds[key], float), key
            assert value == pytest.approx(ds[key])

    def test_nbytes_is_flat_array_payload(self, paper_public_graph):
        fg = FrozenGraph(paper_public_graph)
        n, m = fg.num_vertices, fg.num_edges
        assert fg.nbytes() == 8 * (n + 1) + 8 * (2 * m) + 8 * (2 * m)


# ----------------------------------------------------------------------
# property-style equivalence on random graphs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 17, 42])
def test_dijkstra_equivalence_random(seed):
    g = random_connected_graph(60, 25, seed)
    fg = freeze(g)
    for v in g:  # the adjacency of both backends, in order
        assert list(fg.neighbor_items(v)) == list(g.neighbor_items(v))
    for source in (0, 7, 31):
        # settle order included: the backends break ties alike
        assert list(dijkstra(fg, source).items()) == list(dijkstra(g, source).items())
        assert list(dijkstra(fg, source, cutoff=4.0).items()) == list(
            dijkstra(g, source, cutoff=4.0).items()
        )
        assert list(dijkstra_ordered(fg, source)) == list(dijkstra_ordered(g, source))
        dist_f, pred_f = dijkstra_with_paths(fg, source)
        dist_d, pred_d = dijkstra_with_paths(g, source)
        assert dist_f == dist_d
        assert pred_f == pred_d


@pytest.mark.parametrize("seed", [5, 23])
def test_traversal_variants_equivalence_random(seed):
    g = random_connected_graph(50, 20, seed)
    fg = freeze(g)
    assert list(dijkstra_ordered(fg, 0)) == list(dijkstra_ordered(g, 0))
    assert multi_source_dijkstra(fg, [0, 9, 17]) == multi_source_dijkstra(g, [0, 9, 17])
    assert bfs_hops(fg, 0) == bfs_hops(g, 0)
    assert bfs_hops(fg, 0, max_hops=3) == bfs_hops(g, 0, max_hops=3)
    for target in (1, 29, 44):
        assert shortest_distance(fg, 0, target) == pytest.approx(
            shortest_distance(g, 0, target)
        )
        assert shortest_path(fg, 0, target) == shortest_path(g, 0, target)
    for k in (1, 3, 10):
        assert nearest_vertices_with_label(fg, 0, "a", k) == (
            nearest_vertices_with_label(g, 0, "a", k)
        )


def test_unreachable_target_is_inf_on_both_backends():
    g = LabeledGraph()
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    fg = freeze(g)
    assert shortest_distance(g, 0, 3) == INF
    assert shortest_distance(fg, 0, 3) == INF
    assert shortest_path(fg, 0, 3) is None
    # Targets absent from the graph must not break early-stopping.
    assert dijkstra(fg, 0, targets=[99, 1]) == dijkstra(g, 0, targets=[99, 1])


@pytest.mark.parametrize("seed", [11, 29])
def test_label_api_equivalence_random(seed):
    g = random_connected_graph(80, 30, seed, labels=("a", "b", "c", "d"))
    fg = freeze(g)
    assert fg.label_universe() == g.label_universe()
    for label in ("a", "b", "c", "d", "missing"):
        assert fg.vertices_with_label(label) == g.vertices_with_label(label)
        assert fg.label_frequency(label) == g.label_frequency(label)
    for v in g.vertices():
        assert fg.labels(v) == g.labels(v)
        assert fg.degree(v) == g.degree(v)
    assert fg.stats() == pytest.approx(g.stats())


@pytest.mark.parametrize("seed", [7, 13])
def test_pagerank_backends_agree(seed):
    g = random_connected_graph(70, 30, seed)
    fg = freeze(g)
    # The interned bodies against the dict-graph bodies they replaced:
    # the same float operations in the same order, so the same bits.
    assert pagerank_pure(fg) == reference_pagerank_pure(g)
    assert pagerank_csr(fg) == reference_pagerank_numpy(g)
    pure, csr = pagerank_pure(fg), pagerank_csr(fg)
    for v in g.vertices():
        assert csr[v] == pytest.approx(pure[v], abs=1e-9)
    # A LabeledGraph argument is frozen first: the same scores.
    assert pagerank(fg) == pagerank(g)


@pytest.mark.parametrize("seed", [19, 31])
def test_pads_identical_across_backends(seed):
    g = random_connected_graph(45, 18, seed)
    fg = freeze(g)
    ranks = pagerank_pure(g)
    pads_d = reference_build_sketch(g, ranks, 2, kind="PADS")
    pads_f = build_pads(fg, k=2, ranks=ranks)
    assert pads_f.entries == pads_d.entries
    assert pads_f.total_entries == pads_d.total_entries
    # A LabeledGraph argument is frozen first: the same sketch.
    assert build_pads(g, k=2, ranks=ranks).entries == pads_f.entries
    # Rounding sums, then 1e-300 chords (d + w == d), at k = 1, 2, 3.
    rng = random.Random(seed)
    for weights in ((0.1, 0.2, 0.3, 0.7), (1.0,) * 6 + (1e-300,)):
        for u, v, _ in list(g.edges()):
            g.add_edge(u, v, rng.choice(weights))
        for k in (1, 2, 3):  # repr: every row in order, every float to the bit
            want = repr(reference_build_sketch(g, ranks, k).entries)
            assert repr(build_pads(g, k=k, ranks=ranks).entries) == want
