"""Tests for portal distance maps, PKD/vertex-portal maps and oracles.

The central exactness property (checked here against brute force): the
Algo-7 fixpoint map equals all-pairs shortest distances *between portals*
on the materialized combined graph, and Eq. 4/5 refinement with an exact
public provider reproduces true combined-graph distances for private
vertex pairs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import INF, LabeledGraph, combine, dijkstra, portal_nodes
from repro.portals import (
    CombinedDistanceOracle,
    ExactPublicDistance,
    PortalDistanceMap,
    all_pairs_portal_distances,
    build_private_maps,
    refine_portal_distances,
)
from repro.sketches import build_kpads, build_pads
from repro.portals.oracle import SketchPublicDistance
from tests.conftest import random_connected_graph


def _random_public_private(seed: int, n_pub: int = 30, n_priv: int = 12):
    """Random overlapping pair: private vertices 0..overlap-1 are shared."""
    import random as _random

    rng = _random.Random(seed)
    pub = random_connected_graph(n_pub, n_pub // 3, seed)
    priv = LabeledGraph(f"priv{seed}")
    overlap = rng.randint(2, 4)
    portals = rng.sample(range(n_pub), overlap)
    locals_ = [f"x{i}" for i in range(n_priv - overlap)]
    verts = portals + locals_
    for i, v in enumerate(verts[1:], start=1):
        priv.add_edge(v, verts[rng.randrange(i)], rng.choice([1.0, 2.0]))
    for v in locals_:
        if rng.random() < 0.7:
            priv.add_labels(v, rng.sample(["a", "b", "c"], rng.randint(1, 2)))
    return pub, priv


class TestPortalDistanceMap:
    def test_diagonal_zero(self):
        m = PortalDistanceMap([1, 2])
        assert m.get(1, 1) == 0.0

    def test_symmetric_set_get(self):
        m = PortalDistanceMap([1, 2])
        m.set(1, 2, 3.0)
        assert m.get(1, 2) == 3.0
        assert m.get(2, 1) == 3.0

    def test_missing_pair_inf(self):
        m = PortalDistanceMap([1, 2, 3])
        assert m.get(1, 3) == INF

    def test_improve(self):
        m = PortalDistanceMap([1, 2])
        assert m.improve(1, 2, 5.0)
        assert not m.improve(1, 2, 6.0)
        assert m.improve(2, 1, 4.0)
        assert m.get(1, 2) == 4.0
        assert not m.improve(1, 1, 0.0)

    def test_pairs_iterates_once(self):
        m = PortalDistanceMap([1, 2, 3])
        m.set(1, 2, 1.0)
        m.set(2, 3, 2.0)
        pairs = list(m.pairs())
        assert len(pairs) == 2
        assert len(m) == 2

    def test_copy_independent(self):
        m = PortalDistanceMap([1, 2])
        m.set(1, 2, 1.0)
        c = m.copy()
        c.set(1, 2, 0.5)
        assert m.get(1, 2) == 1.0

    def test_mixed_vertex_types(self):
        m = PortalDistanceMap([1, "a"])
        m.set(1, "a", 2.0)
        assert m.get("a", 1) == 2.0


class TestAllPairsPortalDistances:
    def test_matches_dijkstra(self, paper_public_graph):
        portals = ["p1", "p2", "p4"]
        pmap = all_pairs_portal_distances(paper_public_graph, portals)
        for p in portals:
            exact = dijkstra(paper_public_graph, p)
            for q in portals:
                assert pmap.get(p, q) == pytest.approx(exact[q])

    def test_absent_portals_unreachable(self, paper_public_graph):
        pmap = all_pairs_portal_distances(paper_public_graph, ["p1", "ghost"])
        assert pmap.get("p1", "ghost") == INF


class TestRefinePortalDistances:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 4000))
    def test_fixpoint_equals_combined_dijkstra(self, seed):
        """Algo 7 output == true portal distances on the combined graph."""
        pub, priv = _random_public_private(seed)
        portals = portal_nodes(pub, priv)
        pub_map = all_pairs_portal_distances(pub, portals)
        priv_map = all_pairs_portal_distances(priv, portals)
        combined_map, refined = refine_portal_distances(pub_map, priv_map)
        gc = combine(pub, priv)
        for p in portals:
            exact = dijkstra(gc, p)
            for q in portals:
                assert combined_map.get(p, q) == pytest.approx(
                    exact.get(q, INF)
                ), f"portal pair ({p},{q}) wrong"

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 4000))
    def test_refined_pairs_are_strict_improvements(self, seed):
        pub, priv = _random_public_private(seed)
        portals = portal_nodes(pub, priv)
        pub_map = all_pairs_portal_distances(pub, portals)
        priv_map = all_pairs_portal_distances(priv, portals)
        combined_map, refined = refine_portal_distances(pub_map, priv_map)
        for p, q in refined:
            assert combined_map.get(p, q) < priv_map.get(p, q)
        # and both orientations are present
        assert all((q, p) in refined for p, q in refined)


class TestPrivateMaps:
    def test_vertex_portal_distances_exact(self, small_public_private):
        pub, priv = small_public_private
        portals = portal_nodes(pub, priv)
        _, vpm = build_private_maps(priv, portals)
        for p in portals:
            exact = dijkstra(priv, p)
            for v in priv.vertices():
                assert vpm.get(v, p) == pytest.approx(exact.get(v, INF))

    def test_pkd_nearest_keyword_vertex(self, small_public_private):
        pub, priv = small_public_private
        portals = portal_nodes(pub, priv)
        pkd, _ = build_private_maps(priv, portals)
        # from portal 5, nearest 'cv' vertex is x3 at distance 1
        entry = pkd.get(5, "cv")
        assert entry is not None
        assert entry.vertex == "x3"
        assert entry.distance == 1.0

    def test_pkd_missing_keyword(self, small_public_private):
        pub, priv = small_public_private
        portals = portal_nodes(pub, priv)
        pkd, _ = build_private_maps(priv, portals)
        assert pkd.get(5, "nothing") is None
        assert pkd.distance(5, "nothing") == INF

    def test_lengths(self, small_public_private):
        pub, priv = small_public_private
        portals = portal_nodes(pub, priv)
        pkd, vpm = build_private_maps(priv, portals)
        assert len(vpm) == priv.num_vertices * len(portals)
        assert len(pkd) > 0


class TestExactPublicDistance:
    def test_vertex_distance(self, paper_public_graph):
        provider = ExactPublicDistance(paper_public_graph)
        exact = dijkstra(paper_public_graph, "v0")
        assert provider.vertex_distance("v0", "v7") == pytest.approx(exact["v7"])

    def test_unknown_vertex_inf(self, paper_public_graph):
        provider = ExactPublicDistance(paper_public_graph)
        assert provider.vertex_distance("v0", "ghost") == INF

    def test_keyword_distance_with_witness(self, paper_public_graph):
        provider = ExactPublicDistance(paper_public_graph)
        d, w = provider.keyword_distance_with_witness("v13", "c")
        assert d == 1.0
        assert w == "v4"

    def test_missing_keyword(self, paper_public_graph):
        provider = ExactPublicDistance(paper_public_graph)
        assert provider.keyword_distance("v0", "zzz") == INF


def _build_oracle(pub, priv, exact=False):
    portals = portal_nodes(pub, priv)
    pub_map = all_pairs_portal_distances(pub, portals)
    priv_map = all_pairs_portal_distances(priv, portals)
    combined_map, refined = refine_portal_distances(pub_map, priv_map)
    pkd, vpm = build_private_maps(priv, portals)
    if exact:

        class _ExactAsSketch:
            def __init__(self, graph):
                self._p = ExactPublicDistance(graph)

            def vertex_distance(self, u, v):
                return self._p.vertex_distance(u, v)

            def keyword_distance(self, v, t):
                return self._p.keyword_distance(v, t)

            def keyword_distance_with_witness(self, v, t):
                return self._p.keyword_distance_with_witness(v, t)

        provider = _ExactAsSketch(pub)
    else:
        pads = build_pads(pub, k=3)
        provider = SketchPublicDistance(pads, build_kpads(pub, pads))
    return CombinedDistanceOracle(priv, combined_map, vpm, pkd, provider), refined


class TestCombinedOracle:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_refine_pair_exact_on_private_pairs(self, seed):
        """Eq. 4 with d'(v1,v2) as the upper bound gives dc(v1,v2) exactly."""
        pub, priv = _random_public_private(seed)
        oracle, _ = _build_oracle(pub, priv, exact=True)
        gc = combine(pub, priv)
        verts = list(priv.vertices())[:6]
        for v1 in verts:
            d_priv = dijkstra(priv, v1)
            d_gc = dijkstra(gc, v1)
            for v2 in verts:
                upper = d_priv.get(v2, INF)
                refined = oracle.refine_pair(v1, v2, upper)
                assert refined == pytest.approx(d_gc.get(v2, INF)), (v1, v2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 3000))
    def test_refine_pair_restricted_equals_full(self, seed):
        """Lemma VI.1: restricting to refined pairs loses nothing."""
        pub, priv = _random_public_private(seed)
        oracle, refined_pairs = _build_oracle(pub, priv, exact=True)
        verts = list(priv.vertices())[:6]
        for v1 in verts:
            d_priv = dijkstra(priv, v1)
            for v2 in verts:
                upper = d_priv.get(v2, INF)
                full = oracle.refine_pair(v1, v2, upper)
                by_source = {}
                for pi, pj in refined_pairs:
                    by_source.setdefault(pi, []).append(pj)
                restricted = oracle.refine_pair(
                    v1, v2, upper, pairs_by_source=by_source
                )
                assert restricted == pytest.approx(full)

    def test_refine_vertex_keyword(self, small_public_private):
        pub, priv = small_public_private
        oracle, refined = _build_oracle(pub, priv, exact=True)
        gc = combine(pub, priv)
        # true dc(x1, 'cv'): x1 -> x2 -> x4 -> 5 -> x3 = 4 within private,
        # refined paths may shortcut through the public side.
        d_gc = dijkstra(gc, "x1")
        true = min(d_gc[v] for v in gc.vertices_with_label("cv") if v in priv)
        d_priv = dijkstra(priv, "x1")
        upper = min(
            (d_priv.get(v, INF) for v in priv.vertices_with_label("cv")),
            default=INF,
        )
        refined_d = oracle.refine_vertex_keyword("x1", "cv", upper)
        assert refined_d == pytest.approx(true)

    @pytest.mark.parametrize("reduced", (True, False))
    @pytest.mark.parametrize("seed", (11, 23, 37))
    def test_keyword_detours_equal_the_per_root_double_loop(self, seed, reduced):
        """ARefine's per-keyword Eq.-5 table vs. the loop it replaced.

        The reference below *is* the old per-root body: every root
        re-walks its ``(p_i, p_j)`` pairs in map order with a strict
        ``<``, so distance *and* witness must agree, ties included.
        """
        from tests.engine_equivalence_data import build_engine

        attachment = build_engine(seed).attachment("owner")
        oracle = attachment.oracle
        pairs = attachment.refined_by_source if reduced else None
        pmap, pkd, vpm = oracle.portal_map, oracle.pkd, oracle.vertex_portal
        for keyword in ("a", "b", "z", "nope"):
            table = oracle.keyword_detours(keyword, pairs)
            for v in attachment.private.vertices():
                for upper in (INF, 3.0, 1.0, 0.0):
                    best, witness = upper, None
                    for pi, d1 in vpm.portal_distances(v).items():
                        middles = pmap.portals if pairs is None else pairs.get(pi, ())
                        for pj in middles:
                            entry = pkd.get(pj, keyword)
                            if entry is None:
                                continue
                            total = d1 + pmap.get(pi, pj) + entry.distance
                            if total < best:
                                best, witness = total, entry.vertex
                    assert oracle.refine_vertex_keyword_with_witness(
                        v, keyword, upper, pairs
                    ) == (best, witness)
                    assert oracle.refine_vertex_keyword_with_witness(
                        v, keyword, upper, via=table
                    ) == (best, witness)

    def test_private_to_public_vertex(self, small_public_private):
        pub, priv = small_public_private
        oracle, _ = _build_oracle(pub, priv, exact=True)
        gc = combine(pub, priv)
        d_gc = dijkstra(gc, "x1")
        got = oracle.private_to_public_vertex("x1", 0)
        # paths must cross a portal, which on the combined graph is true
        # anyway for private->public-only vertices
        assert got == pytest.approx(d_gc[0])

    def test_private_to_public_keyword_witness(self, small_public_private):
        pub, priv = small_public_private
        oracle, _ = _build_oracle(pub, priv, exact=True)
        d, w = oracle.private_to_public_keyword("x1", "ml")
        assert w == 5  # vertex 5 (portal) carries 'ml' in the public graph
        assert d == pytest.approx(3.0)  # x1-x2-x4-5

    def test_sketch_provider_upper_bounds(self, small_public_private):
        pub, priv = small_public_private
        oracle_est, _ = _build_oracle(pub, priv, exact=False)
        oracle_exact, _ = _build_oracle(pub, priv, exact=True)
        for v in ("x1", "x2", "x3"):
            for t in ("db", "ai", "cv", "ml"):
                est, _ = oracle_est.private_to_public_keyword(v, t)
                exact, _ = oracle_exact.private_to_public_keyword(v, t)
                assert est >= exact - 1e-9
