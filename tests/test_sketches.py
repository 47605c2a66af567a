"""Tests for ADS / PADS / KPADS (paper Sec. V)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import IndexBuildError
from repro.graph import INF, LabeledGraph, dijkstra, pagerank
from repro.sketches import (
    approximation_factor,
    build_ads,
    build_kpads,
    build_pads,
    build_sketch_from_ranks,
    measure_quality,
    random_ranks,
    timed_build,
)
from tests.conftest import random_connected_graph


class TestSketchConstruction:
    def test_every_vertex_has_its_own_center(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=1)
        for v in paper_public_graph.vertices():
            assert pads.sketch(v).get(v) == 0.0

    def test_top_priority_vertex_in_all_sketches(self, paper_public_graph):
        ranks = pagerank(paper_public_graph)
        top = max(ranks, key=lambda v: ranks[v])
        pads = build_pads(paper_public_graph, k=1, ranks=ranks)
        for v in paper_public_graph.vertices():
            # the graph is connected, so the global top priority center
            # is visible from everywhere
            assert top in pads.sketch(v)

    def test_invalid_k(self, triangle_graph):
        with pytest.raises(IndexBuildError):
            build_sketch_from_ranks(triangle_graph, {"a": 1, "b": 2, "c": 3}, 0)

    def test_missing_ranks_rejected(self, triangle_graph):
        with pytest.raises(IndexBuildError):
            build_sketch_from_ranks(triangle_graph, {"a": 1.0}, 1)

    def test_sketch_sizes_grow_with_k(self, paper_public_graph):
        sizes = [
            build_pads(paper_public_graph, k=k).total_entries for k in (1, 2, 3)
        ]
        assert sizes == sorted(sizes)

    def test_ads_deterministic_per_seed(self, paper_public_graph):
        a1 = build_ads(paper_public_graph, k=2, seed=3)
        a2 = build_ads(paper_public_graph, k=2, seed=3)
        assert a1.entries == a2.entries

    def test_random_ranks_in_unit_interval(self, paper_public_graph):
        ranks = random_ranks(paper_public_graph, seed=1)
        assert all(0.0 <= r <= 1.0 for r in ranks.values())
        assert len(ranks) == paper_public_graph.num_vertices


class TestEstimation:
    def test_self_distance_zero(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        assert pads.estimate("v1", "v1") == 0.0

    def test_estimate_is_upper_bound(self, paper_public_graph):
        """d_hat >= d for every pair (common-center paths are real paths)."""
        pads = build_pads(paper_public_graph, k=2)
        for s in paper_public_graph.vertices():
            exact = dijkstra(paper_public_graph, s)
            for t in paper_public_graph.vertices():
                est = pads.estimate(s, t)
                assert est >= exact.get(t, INF) - 1e-9

    def test_unknown_vertices_inf(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        assert pads.estimate("v1", "nope") == INF
        assert pads.estimate("nope", "nope") == INF

    def test_disconnected_pairs_inf(self):
        g = LabeledGraph.from_edges([(1, 2), (3, 4)])
        pads = build_pads(g, k=2)
        assert pads.estimate(1, 3) == INF

    def test_center_pair_exact(self, paper_public_graph):
        """If u is a center of v's sketch, the estimate is exact."""
        pads = build_pads(paper_public_graph, k=2)
        exact_from = {}
        for v in paper_public_graph.vertices():
            for center, d in pads.sketch(v).items():
                if center not in exact_from:
                    exact_from[center] = dijkstra(paper_public_graph, center)
                assert d == pytest.approx(exact_from[center][v])
                assert pads.estimate(v, center) == pytest.approx(d)

    def test_stats_helpers(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        figures = (pads.num_vertices, pads.total_entries, pads.average_size(),
                   set(pads.centers()))
        assert not pads.rows  # read off the arrays, no row decoded
        assert pads.num_vertices == paper_public_graph.num_vertices
        assert pads.total_entries == sum(
            len(pads.sketch(v)) for v in paper_public_graph.vertices()
        )
        assert pads.average_size() > 0
        assert set(pads.centers()) <= set(paper_public_graph.vertices())
        rows = pads.entries
        assert figures == (
            len(rows), sum(map(len, rows.values())),
            sum(map(len, rows.values())) / len(rows),
            set().union(*rows.values()),
        )


class TestApproximationGuarantee:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_2c_minus_1_bound(self, seed):
        """Lemma V.1: d_hat <= (2c-1) d on random connected graphs."""
        g = random_connected_graph(40, 15, seed)
        k = 2
        pads = build_pads(g, k=k)
        factor = approximation_factor(g.num_vertices, k)
        exact = dijkstra(g, 0)
        for t, d in exact.items():
            if d > 0:
                assert pads.estimate(0, t) <= factor * d + 1e-9

    def test_factor_degenerate_cases(self):
        assert approximation_factor(1, 2) == 1
        assert approximation_factor(0, 2) == 1
        assert approximation_factor(100, 1) >= 1
        assert approximation_factor(100, 2) == 2 * 7 - 1


class TestPadsVsAds:
    def test_pads_more_accurate_on_hubby_graph(self):
        """On a graph with a clear hub structure PADS must beat ADS."""
        g = LabeledGraph()
        # Two stars joined by their centers: the centers cover all paths.
        for i in range(1, 20):
            g.add_edge("hub1", f"a{i}")
            g.add_edge("hub2", f"b{i}")
        g.add_edge("hub1", "hub2")
        ads = build_ads(g, k=1, seed=5)
        pads = build_pads(g, k=1)
        qa = measure_quality(g, ads, 200, seed=9)
        qp = measure_quality(g, pads, 200, seed=9)
        assert qp.mean_approx_ratio <= qa.mean_approx_ratio + 1e-9
        assert qp.mean_approx_ratio == pytest.approx(1.0, abs=0.05)


class TestKpads:
    def test_merge_keeps_minimum(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        for t in paper_public_graph.label_universe():
            merged = kpads.sketch(t)
            for center, d in merged.items():
                candidates = [
                    pads.sketch(v).get(center, INF)
                    for v in paper_public_graph.vertices_with_label(t)
                ]
                assert d == pytest.approx(min(candidates))

    def test_keyword_estimate_upper_bounds_true_distance(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        for s in paper_public_graph.vertices():
            exact = dijkstra(paper_public_graph, s)
            for t in paper_public_graph.label_universe():
                true = min(
                    (exact.get(v, INF)
                     for v in paper_public_graph.vertices_with_label(t)),
                    default=INF,
                )
                est = kpads.estimate(pads, s, t)
                assert est >= true - 1e-9

    def test_witness_carries_keyword(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        for s in ("v1", "p4", "v7"):
            for t in ("a", "f", "c"):
                d, witness = kpads.estimate_with_witness(pads, s, t)
                if witness is not None:
                    assert paper_public_graph.has_label(witness, t)

    def test_vertex_carrying_keyword_estimates_zero(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        # v0 carries "a": its own sketch center (v0, 0) merges into
        # KPADS(a), so the estimate from v0 must be 0.
        assert kpads.estimate(pads, "v0", "a") == 0.0

    def test_unknown_keyword_inf(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        assert kpads.estimate(pads, "v1", "zzz") == INF
        assert kpads.estimate_with_witness(pads, "v1", "zzz") == (INF, None)

    def test_restricted_vocabulary(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads, keywords=["a"])
        assert kpads.num_keywords == 1
        assert kpads.sketch("f") == {}

    def test_top_candidates_sorted_and_labeled(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads, per_center=4)
        cands = kpads.top_candidates(pads, "v13", "e", k=5)
        assert cands
        distances = [d for _, d in cands]
        assert distances == sorted(distances)
        for v, _ in cands:
            assert paper_public_graph.has_label(v, "e")

    def test_top_candidates_distinct(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=3)
        kpads = build_kpads(paper_public_graph, pads, per_center=4)
        cands = kpads.top_candidates(pads, "v0", "f", k=10)
        vertices = [v for v, _ in cands]
        assert len(vertices) == len(set(vertices))

    def test_total_entries_counts(self, paper_public_graph):
        pads = build_pads(paper_public_graph, k=2)
        kpads = build_kpads(paper_public_graph, pads)
        figures = (kpads.num_keywords, kpads.total_entries)
        assert not kpads.rows and not kpads.reach_rows  # no keyword decoded
        assert figures == (
            len(paper_public_graph.label_universe()),
            sum(len(kpads.sketch(t)) for t in paper_public_graph.label_universe()),
        )


class TestQualityMeasurement:
    def test_exact_sketch_has_ratio_one(self, paper_public_graph):
        # A very large k makes the sketch exact.
        pads = build_pads(paper_public_graph, k=50)
        q = measure_quality(paper_public_graph, pads, 100, seed=3)
        assert q.mean_approx_ratio == pytest.approx(1.0)
        assert q.exact_fraction == pytest.approx(1.0)
        assert q.mean_relative_error == pytest.approx(0.0)

    def test_empty_graph_quality(self):
        g = LabeledGraph()
        pads = build_pads(g, k=1)
        q = measure_quality(g, pads, 10)
        assert q.pairs_sampled == 0

    def test_timed_build_returns_sketch(self, triangle_graph):
        sketch, secs = timed_build(lambda: build_pads(triangle_graph, k=1))
        assert secs >= 0
        assert sketch.num_vertices == 3
