"""Tests for portal distance maps, PKD/vertex-portal maps and oracles.

The central exactness property (checked here against brute force): the
Algo-7 fixpoint map equals all-pairs shortest distances *between portals*
on the materialized combined graph, and Eq. 4/5 refinement with an exact
public provider reproduces true combined-graph distances for private
vertex pairs.
"""

from __future__ import annotations

import heapq
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.portals.distance_map as distance_map
import repro.portals.keyword_map as keyword_map
from repro.core import DynamicPrivateGraph
from repro.core.framework import PPKWS
from repro.graph import (
    INF, FrozenGraph, LabeledGraph, combine, dijkstra, freeze, portal_nodes,
)
from repro.portals import (
    CombinedDistanceOracle, ExactPublicDistance, PortalDistanceMap,
    PortalKeywordEntry, all_pairs_portal_distances, build_private_maps,
    combined_portal_maps, refine_portal_distances,
)
from repro.sketches import build_kpads, build_pads
from repro.portals.oracle import SketchPublicDistance
from tests.conftest import handed, random_connected_graph
from tests.engine_equivalence_data import build_engine


def _random_public_private(seed: int, n_pub: int = 30, n_priv: int = 12):
    """Random overlapping pair: private vertices 0..overlap-1 are shared."""
    rng = random.Random(seed)
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
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_heap_fixpoint(self, seed):
        """Bit and order equal to the heap body (``_reference_refine``):
        ties, rounding sums and ``d + w == d`` steps (``1e-300`` pairs)."""
        rng, portals, maps = random.Random(seed), [*range(7), "x", "y", "z"], []
        for m in (PortalDistanceMap(portals), PortalDistanceMap(portals)):
            for p, q in itertools.combinations(portals, 2):
                if rng.random() < 0.4:
                    m.set(p, q, rng.choice((1e-300, 0.1, 0.2, 0.3, 1.0, 1.1, 2.5)))
            maps.append(m)
        got, want = refine_portal_distances(*maps), _reference_refine(*maps)
        assert got[1] == want[1]
        assert [(p, list(r.items())) for p, r in got[0]._adj.items()] == [
            (p, list(r.items())) for p, r in want[0]._adj.items()]


class TestPrivateMaps:
    @pytest.fixture
    def maps(self, small_public_private):
        pub, priv = small_public_private
        portals = portal_nodes(pub, priv)
        return (priv, portals, *build_private_maps(priv, portals))

    def test_vertex_portal_distances_exact(self, maps):
        priv, portals, _, vpm = maps
        for p in portals:
            exact = dijkstra(priv, p)
            for v in priv.vertices():
                assert vpm.get(v, p) == pytest.approx(exact.get(v, INF))

    def test_pkd_nearest_keyword_vertex(self, maps):
        # from portal 5, nearest 'cv' vertex is x3 at distance 1
        assert maps[2].get(5, "cv") == PortalKeywordEntry("x3", 1.0)

    def test_pkd_missing_keyword(self, maps):
        assert maps[2].get(5, "nothing") is None
        assert maps[2].distance(5, "nothing") == INF

    def test_lengths(self, maps):
        priv, portals, pkd, vpm = maps
        assert len(vpm) == priv.num_vertices * len(portals)
        assert len(pkd) > 0

    @pytest.mark.parametrize("edges,change", [
        ([(0, "x"), (0, "y")], lambda dyn: dyn.add_labels("y", {"a"})),
        ([(0, "x")], lambda dyn: (dyn.add_vertex("y", {"a"}), dyn.add_edge(0, "y"))),
    ], ids=("label", "edge"))
    def test_dynamic_repair_keeps_the_rows_tie(self, edges, change):
        """A tied carrier added in place keeps the row's first, as attach would."""
        engine = PPKWS(LabeledGraph.from_edges([(0, 1)]), sketch_k=2)
        engine.attach("u", LabeledGraph.from_edges(edges, {"x": {"a"}}))
        change(DynamicPrivateGraph(engine, "u"))
        pkd = engine.attachment("u").oracle.pkd
        assert pkd.get(0, "a") == PortalKeywordEntry("x", 1.0)


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
        provider = ExactPublicDistance(pub)
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


# ----------------------------------------------------------------------
# what an attach builds, against the recipe it replaced
# ----------------------------------------------------------------------
# The reference below is the attach body as it stood before the per-user
# maps were rebuilt around one private sweep per portal: two unbounded
# all-pairs passes (private, then public), the Algo-7 fixpoint through
# ``PortalDistanceMap.get``/``set``, and a second set of private sweeps
# for PKD and the vertex-portal map.  It survives only here.  Its
# fixpoint is a ``(distance, push counter)`` heap of pairs: the pops and
# writes of the heap body that preceded the equal-distance buckets.
def _reference_all_pairs(graph, portals):
    portal_list = sorted(portals, key=repr)
    pmap = PortalDistanceMap(portal_list)
    present = [p for p in portal_list if p in graph]
    for p in present:
        dist = dijkstra(graph, p, targets=set(present))
        for q in present:
            if q != p and dist.get(q, INF) < INF:
                pmap.improve(p, q, dist[q])
    return pmap


def _reference_refine(public_map, private_map):
    portals = public_map.portals | private_map.portals
    combined = PortalDistanceMap(portals)
    counter = itertools.count()
    queue = []
    for p, q in itertools.combinations(sorted(portals, key=repr), 2):
        d = min(public_map.get(p, q), private_map.get(p, q))
        if d < INF:
            combined.set(p, q, d)
            heapq.heappush(queue, (d, next(counter), p, q))
    portal_list = list(portals)
    while queue:
        dist, _, p1, p2 = heapq.heappop(queue)
        if dist > combined.get(p1, p2):
            continue
        for pi in portal_list:
            if pi == p1 or pi == p2:
                continue
            via_p1 = combined.get(pi, p1)
            if via_p1 + dist < combined.get(pi, p2):
                combined.set(pi, p2, via_p1 + dist)
                heapq.heappush(queue, (via_p1 + dist, next(counter), pi, p2))
            via_p2 = combined.get(pi, p2)
            if via_p2 + dist < combined.get(pi, p1):
                combined.set(pi, p1, via_p2 + dist)
                heapq.heappush(queue, (via_p2 + dist, next(counter), pi, p1))
    refined = set()
    for p, q, d in combined.pairs():
        if d < private_map.get(p, q):
            refined.add((p, q))
            refined.add((q, p))
    return combined, refined


def _reference_private_maps(private, portals):
    portal_list = sorted((p for p in portals if p in private), key=repr)
    pkd, vpm = {}, {}
    for p in portal_list:
        for v, d in dijkstra(private, p).items():
            vpm.setdefault(v, {})[p] = d
            for t in private.labels(v):
                if (p, t) not in pkd or d < pkd[(p, t)].distance:
                    pkd[(p, t)] = PortalKeywordEntry(v, d)  # strictly closer
    return pkd, vpm


def _reference_attach_maps(public, private, portals):
    private_pm = _reference_all_pairs(private, portals)
    public_pm = _reference_all_pairs(public, portals)
    combined_pm, refined = _reference_refine(public_pm, private_pm)
    pkd, vpm = _reference_private_maps(private, portals)
    return private_pm, combined_pm, refined, pkd, vpm


def _attach_maps(public, private, portals):
    """The five maps exactly as :meth:`PPKWS.attach` builds them."""
    pkd, vpm = build_private_maps(private, portals)
    combined_pm, private_pm, refined = combined_portal_maps(public, portals, vpm)
    return private_pm, combined_pm, refined, pkd, vpm


def _in_order(private_pm, combined_pm, refined, pkd, vpm):
    """Every map as nested lists: values *and* iteration order."""
    return {
        "private_portal_map": [
            (p, list(row.items())) for p, row in private_pm._adj.items()
        ],
        "portal_map": [
            (p, list(row.items())) for p, row in combined_pm._adj.items()
        ],
        "refined_portal_pairs": [list(refined), list(frozenset(refined))],
        "pkd": list(pkd.items()),
        "vertex_portal": [(v, list(row.items()))
                          for v, row in getattr(vpm, "_by_vertex", vpm).items()],
    }


def _eighths(rng, most=24):
    """A float weight on the 1/8 grid: 0.125 .. 3.0.

    Non-integer floats whose path sums are exact, so a distance does not
    depend on the direction its path was summed in.  That is what lets
    the property below demand *bit* equality with the old recipe, which
    kept the smaller of a pair's two directional sums where the new one
    sweeps each public pair once (see DESIGN.md, "What an attach runs").
    """
    return rng.randint(1, most) / 8.0


def _two_component_pair(seed):
    """``(public, private, portals, tied)`` for the attach property.

    The private graph has two components, each holding at least two
    portals, so every cross-component ``d'`` is infinite and the public
    sweeps for those pairs run unbounded.  ``tied`` is a portal pair
    whose private distance equals its public one to the bit: ``q`` hangs
    off ``p`` by a single private edge weighing ``d(p, q)`` on ``G``.
    """
    rng = random.Random(seed)
    n_pub = 36
    pub = LabeledGraph(f"pub{seed}")
    pub.add_vertex(0)
    for v in range(1, n_pub):
        pub.add_edge(v, rng.randrange(v), _eighths(rng))
    for _ in range(n_pub // 3):
        u, v = rng.sample(range(n_pub), 2)
        if not pub.has_edge(u, v):
            pub.add_edge(u, v, _eighths(rng))
    for v in range(n_pub):
        if rng.random() < 0.5:
            pub.add_labels(v, rng.sample(["a", "b", "c"], rng.randint(1, 2)))

    shared = rng.sample(range(n_pub), 7)
    p, q = shared[0], shared[1]
    sides = (
        [p] + shared[2:4] + [f"x{i}" for i in range(7)],
        shared[4:7] + [f"y{i}" for i in range(5)],
    )
    priv = LabeledGraph(f"priv{seed}")
    for verts in sides:
        for i in range(1, len(verts)):
            priv.add_edge(verts[i], verts[rng.randrange(i)], _eighths(rng, 40))
        for _ in range(3):
            u, v = rng.sample(verts, 2)
            if not priv.has_edge(u, v):
                priv.add_edge(u, v, _eighths(rng, 40))
    priv.add_edge(p, q, dijkstra(pub, p)[q])
    for v in list(priv.vertices()):
        if rng.random() < 0.6:
            priv.add_labels(v, rng.sample(["a", "b", "c", "d"], rng.randint(1, 2)))
    portals = portal_nodes(pub, priv)
    assert portals == frozenset(shared)
    return pub, priv, portals, (p, q)


class TestAttachMaps:
    @pytest.mark.parametrize("backend", ("dict", "csr"))
    @pytest.mark.parametrize("seed", range(24))
    def test_equal_brute_force_and_the_old_recipe(self, seed, backend):
        pub, priv, portals, (p, q) = _two_component_pair(seed)
        public = freeze(pub) if backend == "csr" else pub
        maps = _attach_maps(public, priv, portals)
        private_pm, combined_pm, refined, pkd, vpm = maps

        # the construction did what it promises
        assert any(
            private_pm.get(a, b) == INF for a in portals for b in portals
        ), "no cross-component pair: every public sweep was bounded"
        assert private_pm.get(p, q) == dijkstra(pub, p)[q]

        # dc == Dijkstra on the materialized union, for every portal pair
        # (== not approx: sums on the 1/8 grid are exact)
        union = pub.union(priv)
        for a in portals:
            exact = dijkstra(union, a)
            for b in portals:
                assert combined_pm.get(a, b) == exact.get(b, INF), (a, b)

        # a tie between G and G' is not a refinement
        assert ((p, q) in refined) == (
            combined_pm.get(p, q) < private_pm.get(p, q)
        )
        if combined_pm.get(p, q) == dijkstra(pub, p)[q]:
            assert (p, q) not in refined and (q, p) not in refined

        # PKD == the nearest labelled private vertex, by brute force
        for a in portals:
            exact = dijkstra(priv, a)
            for t in ("a", "b", "c", "d", "nope"):
                carriers = [
                    exact[v] for v in priv.vertices_with_label(t) if v in exact
                ]
                entry = pkd.get(a, t)
                if not carriers:
                    assert entry is None
                    continue
                assert entry.distance == min(carriers)
                assert priv.has_label(entry.vertex, t)
                assert exact[entry.vertex] == entry.distance
            for v in priv.vertices():
                assert vpm.get(v, a) == exact.get(v, INF)

        # and all five maps are the old recipe's, to the bit and the order
        assert _in_order(*maps) == _in_order(
            *_reference_attach_maps(public, priv, portals)
        )

    @pytest.mark.parametrize("backend", ("dict", "csr"))
    @pytest.mark.parametrize("seed", range(8))
    def test_inexact_float_sums_stay_within_rounding(self, seed, backend):
        """Weights off the 1/8 grid: equal up to the direction of a sum.

        ``0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1``: the old recipe swept
        each public pair from both ends and kept the smaller sum, the
        new one sweeps it once, so here the maps may differ in the last
        bits — and in nothing else.
        """
        pub, priv, portals, _ = _two_component_pair(seed)
        rng = random.Random(seed)
        for g in (pub, priv):
            for u, v, w in list(g.edges()):
                g.add_edge(u, v, w * rng.uniform(0.9, 1.1))
        public = freeze(pub) if backend == "csr" else pub
        private_pm, combined_pm, refined, _, _ = _attach_maps(public, priv, portals)
        ref_private, ref_combined, _, _, _ = _reference_attach_maps(
            public, priv, portals
        )
        union = pub.union(priv)
        for a in portals:
            exact = dijkstra(union, a)
            for b in portals:
                assert private_pm.get(a, b) == ref_private.get(a, b)
                assert combined_pm.get(a, b) == pytest.approx(
                    ref_combined.get(a, b), rel=1e-12
                )
                assert combined_pm.get(a, b) == pytest.approx(
                    exact.get(b, INF), rel=1e-12
                )
        for a, b in refined:
            assert combined_pm.get(a, b) < private_pm.get(a, b)

    def test_attach_runs_one_private_sweep_per_portal(self, monkeypatch):
        """|P| full private Dijkstras and nothing else over ``G'``."""
        pub, priv, portals, _ = _two_component_pair(3)
        engine = PPKWS(pub, sketch_k=2)
        calls, sweep = [], keyword_map.PrivateSweeps._sweep
        public_sweeps, bounded = [], distance_map.bounded_target_distances
        monkeypatch.setattr(keyword_map.PrivateSweeps, "_sweep", lambda rows, i: (
            calls.append((rows, rows.vertices[i])), sweep(rows, i))[1])
        monkeypatch.setattr(distance_map, "bounded_target_distances", lambda g, s, b: (
            public_sweeps.append((g, s)), bounded(g, s, b))[1])
        # any other traversal of either graph would have to come from here
        assert not hasattr(distance_map, "dijkstra")
        assert not hasattr(keyword_map, "dijkstra")
        attachment = engine.attach("owner", priv)
        assert sorted(source for _, source in calls) == sorted(portals)
        assert all(sweeps is attachment.sweeps for sweeps, _ in calls)
        assert len(attachment.sweeps) == len(portals)
        # the public half: one bounded sweep per portal but the last
        assert len(public_sweeps) == len(portals) - 1
        assert all(graph is engine.public for graph, _ in public_sweeps)
        assert attachment.portals == portals

    def test_public_sweep_stays_inside_the_private_radius(self):
        """A 401-vertex public path, portals 200 hops apart, and a private
        shortcut of length 3: the public sweep expands 3 vertices, not 201.
        """
        class ReadLog:
            """``indptr`` that logs every index the kernel reads."""

            def __init__(self, indptr, reads):
                self.indptr, self.reads = indptr, reads

            def __getitem__(self, i):
                self.reads.append(i)
                return self.indptr[i]

        class Recording(FrozenGraph):
            """Logs the vertices whose adjacency a CSR kernel scans.

            A kernel expands vertex ``i`` by reading ``indptr[i]`` and
            then ``indptr[i + 1]``, so every other read is an expanded
            vertex.  Off until :attr:`reads` is a list (the index build
            wants the plain arrays).
            """

            reads = None

            def csr(self):
                indptr, indices, weights = super().csr()
                if Recording.reads is None:
                    return indptr, indices, weights
                return ReadLog(indptr, Recording.reads), indices, weights

            @property
            def expanded(self):
                return [self.vertex_table[i] for i in Recording.reads[::2]]

        path = LabeledGraph("path")
        names = [f"v{i:03d}" for i in range(401)]
        for u, v in zip(names, names[1:]):
            path.add_edge(u, v)
        pub = Recording(path)
        priv = LabeledGraph("shortcut")
        priv.add_edge("v100", "x", 1.5)
        priv.add_edge("x", "v300", 1.5)

        engine = PPKWS(pub, sketch_k=2)
        assert engine.public is pub
        Recording.reads = []
        attachment = engine.attach("owner", priv)
        assert attachment.private_portal_map.get("v100", "v300") == 3.0
        assert attachment.portal_map.get("v100", "v300") == 3.0
        assert not attachment.has_refined_portals
        # strictly inside d' = 3 of the sweep's source, and nothing else
        exact = dijkstra(path, "v100")
        engine.detach("owner")
        Recording.reads = []
        engine.attach("owner", priv)
        assert pub.expanded, "the public sweep never ran"
        assert all(exact[v] < 3.0 for v in pub.expanded)
        assert len(set(pub.expanded)) <= 5  # v098..v102

        # the same kernel, asked without a bound, walks to the target
        Recording.reads = []
        full = all_pairs_portal_distances(pub, attachment.portals)
        Recording.reads, expanded = None, pub.expanded
        assert full.get("v100", "v300") == 200.0
        assert len(set(expanded)) >= 200


# ----------------------------------------------------------------------
# Eq. 4 through the rooted table, against the double loop it replaced
# ----------------------------------------------------------------------
# The reference is ``CombinedDistanceOracle.refine_pair`` as it stood
# before Eq. 4 was split into a table rooted at ``v1`` and an O(|P|) scan:
# one ``(p_i, p_j)`` double loop per call, with the running-best early
# exit.  It survives only here.
def _reference_refine_pair(oracle, v1, v2, upper, pairs_by_source=None):
    best = upper
    from_v1 = oracle.vertex_portal.portal_distances(v1)
    to_v2 = oracle.vertex_portal.portal_distances(v2)
    if not from_v1 or not to_v2:
        return best
    pmap = oracle.portal_map
    for pi, d1 in from_v1.items():
        if d1 >= best:
            continue
        if pairs_by_source is not None:
            for pj in pairs_by_source.get(pi, ()):
                d2 = to_v2.get(pj)
                if d2 is None:
                    continue
                total = d1 + pmap.get(pi, pj) + d2
                if total < best:
                    best = total
        else:
            for pj, d2 in to_v2.items():
                total = d1 + pmap.get(pi, pj) + d2
                if total < best:
                    best = total
    return best


class TestVertexDetours:
    @pytest.mark.parametrize("weights", ("eighths", "floats"))
    @pytest.mark.parametrize("backend", ("dict", "csr"))
    @pytest.mark.parametrize("seed", range(8))
    def test_refine_pair_equals_the_double_loop_to_the_bit(
        self, seed, backend, weights
    ):
        """With and without ``via=``, full and reduced, every vertex pair.

        The private graph has two components, so cross-component ``d'``
        are infinite; the pairs include ``v1 == v2`` and portal
        endpoints; ``floats`` moves every weight off the 1/8 grid so sums
        round.  ``==``, not approx: the table pre-sums ``d'(v1, p_i) +
        dc(p_i, p_j)`` just as the loop's left-to-right sum did, and
        takes minima, which rounding preserves.
        """
        pub, priv, portals, _ = _two_component_pair(seed)
        if weights == "floats":
            rng = random.Random(seed)
            for g in (pub, priv):
                for u, v, w in list(g.edges()):
                    g.add_edge(u, v, w * rng.uniform(0.9, 1.1))
        engine = PPKWS(handed(pub, backend == "csr"), sketch_k=2)
        attachment = engine.attach("owner", priv)
        oracle = attachment.oracle
        vertices = sorted(priv.vertices(), key=repr)
        assert portals <= set(vertices)
        assert any(
            oracle.vertex_portal.get(v, p) == INF for v in vertices for p in portals
        ), "the private graph is connected: no d' is infinite"
        assert attachment.has_refined_portals

        improved = 0
        for pairs in (None, attachment.refined_by_source):
            for v1 in vertices:
                via = oracle.vertex_detours(v1, pairs)
                private = dijkstra(priv, v1)
                for v2 in vertices:
                    for upper in (private.get(v2, INF), INF, 1.0):
                        want = _reference_refine_pair(oracle, v1, v2, upper, pairs)
                        assert oracle.refine_pair(v1, v2, upper, pairs) == want, (
                            v1, v2, upper,
                        )
                        assert oracle.refine_pair(v1, v2, upper, via=via) == want
                        improved += want < upper
        assert improved, "no detour ever beat its bound"
