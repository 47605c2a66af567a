"""PP-truss: the sixth registered semantics, validated against brute force.

Three layers:

* the :func:`repro.semantics.truss.truss_search` oracle on hand-built
  graphs (known trusses, keyword filtering, the ``k < 2`` contract);
* the headline equivalence — the ``truss`` spec through the engine's
  PEval/ARefine/AComplete pipeline equals the oracle run on the
  *materialized* combined graph, across several seeded random
  public-private graphs and several ``k``;
* the surrounding machinery: Def.-II.2 qualification, degradation under
  an expansion budget, the generic ``PPKWS.query`` entry point, the
  ``truss`` wire op and ``truss`` items of a wire ``batch``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import semantics_spec
from repro.core.framework import PPKWS
from repro.exceptions import QueryError
from repro.graph.labeled_graph import LabeledGraph
from repro.semantics.truss import TrussAnswer, edge_key, truss_search
from repro.service import PPKWSService

SEEDS = (3, 17, 91)
VOCAB = ("a", "b", "c", "d")


def seeded_pp_graph(seed):
    """A random public graph plus an overlapping private graph.

    A ring backbone keeps both graphs connected-ish; random chords at a
    generous density guarantee triangles, so nontrivial k-trusses exist.
    """
    rng = random.Random(seed)
    n_pub = 28
    pub = LabeledGraph(f"pub{seed}")
    for i in range(n_pub):
        pub.add_vertex(f"p{i}", rng.sample(VOCAB, rng.randint(1, 2)))
    for i in range(n_pub):
        pub.add_edge(f"p{i}", f"p{(i + 1) % n_pub}")
    for i in range(n_pub):
        for j in range(i + 2, n_pub):
            if rng.random() < 0.18:
                pub.add_edge(f"p{i}", f"p{j}")

    portals = rng.sample([f"p{i}" for i in range(n_pub)], 6)
    private_only = [f"s{seed}x{i}" for i in range(8)]
    priv = LabeledGraph(f"priv{seed}")
    for v in portals:
        priv.add_vertex(v, rng.sample(VOCAB, 1))
    for v in private_only:
        priv.add_vertex(v, rng.sample(VOCAB, rng.randint(1, 2)))
    members = portals + private_only
    for i, v in enumerate(members[1:], start=1):
        priv.add_edge(members[rng.randrange(i)], v)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if rng.random() < 0.3 and not priv.has_edge(members[i], members[j]):
                priv.add_edge(members[i], members[j])
    return pub, priv


def engine_for(pub, priv):
    engine = PPKWS(pub, sketch_k=2)
    engine.attach("alice", priv)
    return engine


def spans_both(answer, pub, priv):
    """The Def.-II.2 qualification predicate, stated independently."""
    has_private = any(priv.has_edge(u, v) for u, v in answer.edges)
    has_public = any(pub.has_edge(u, v) for u, v in answer.edges)
    return has_private and has_public


# ----------------------------------------------------------------------
# the brute-force oracle on hand-built graphs
# ----------------------------------------------------------------------
class TestTrussOracle:
    def test_two_triangles_sharing_an_edge(self):
        # 1-2-3 and 2-3-4: every edge is in a triangle -> all survive k=3.
        g = LabeledGraph.from_edges(
            [(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)],
            {1: {"a"}, 2: {"b"}, 3: {"a"}, 4: {"c"}},
        )
        [answer] = truss_search(g, 3)
        assert set(answer.vertices) == {1, 2, 3, 4}
        assert len(answer.edges) == 5

    def test_k4_peels_weak_triangles(self):
        # K4 on 1..4 survives k=4; the pendant triangle (4,5,6) does not.
        k4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        g = LabeledGraph.from_edges(k4 + [(4, 5), (4, 6), (5, 6)])
        [answer] = truss_search(g, 4)
        assert set(answer.vertices) == {1, 2, 3, 4}
        assert truss_search(g, 3)[0].vertices == (1, 2, 3, 4, 5, 6)

    def test_keyword_filter_drops_uncovered_components(self):
        g = LabeledGraph.from_edges(
            [(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12)],
            {1: {"a"}, 2: {"b"}, 3: {"b"}, 10: {"a"}, 11: {"a"}, 12: {"a"}},
        )
        both = truss_search(g, 3)
        assert len(both) == 2
        covered = truss_search(g, 3, keywords=["a", "b"])
        assert [set(a.vertices) for a in covered] == [{1, 2, 3}]
        assert truss_search(g, 3, keywords=["z"]) == []

    def test_k_below_two_rejected(self):
        g = LabeledGraph.from_edges([(1, 2)])
        with pytest.raises(QueryError, match="k-truss requires k >= 2"):
            truss_search(g, 1)

    def test_answers_sort_largest_first(self):
        g = LabeledGraph.from_edges(
            [(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12),
             (12, 13), (11, 13)],
        )
        answers = truss_search(g, 3)
        sizes = [len(a.vertices) for a in answers]
        assert sizes == sorted(sizes, reverse=True)


# ----------------------------------------------------------------------
# the headline equivalence: pipeline == brute force on materialized Gc
# ----------------------------------------------------------------------
class TestPipelineMatchesBruteForce:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", (3, 4))
    def test_unqualified_answers_equal_oracle(self, seed, k):
        pub, priv = seeded_pp_graph(seed)
        engine = engine_for(pub, priv)
        combined = pub.union(priv)
        result = engine.query(
            "truss", "alice", k=k, require_public_private=False,
        )
        assert not result.degraded
        assert result.answers == truss_search(combined, k)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_keyword_filtered_answers_equal_oracle(self, seed):
        pub, priv = seeded_pp_graph(seed)
        engine = engine_for(pub, priv)
        combined = pub.union(priv)
        for keywords in (["a"], ["a", "b"], ["a", "b", "c", "d"]):
            result = engine.query(
                "truss", "alice", k=3, keywords=keywords,
                require_public_private=False,
            )
            assert result.answers == truss_search(combined, 3, keywords)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_qualified_answers_span_both_graphs(self, seed):
        pub, priv = seeded_pp_graph(seed)
        engine = engine_for(pub, priv)
        combined = pub.union(priv)
        result = engine.query("truss", "alice", k=3)
        expected = [
            a for a in truss_search(combined, 3)
            if spans_both(a, pub, priv)
        ]
        assert result.answers == expected
        assert all(spans_both(a, pub, priv) for a in result.answers)

    def test_oracle_equivalence_is_not_vacuous(self):
        # At least one seed must produce a nonempty 3-truss, else the
        # parametrized equality above proves nothing.
        nonempty = 0
        for seed in SEEDS:
            pub, priv = seeded_pp_graph(seed)
            nonempty += bool(truss_search(pub.union(priv), 3))
        assert nonempty == len(SEEDS)


# ----------------------------------------------------------------------
# pipeline machinery: validation, counters, degradation
# ----------------------------------------------------------------------
class TestPipelineMachinery:
    def test_k_below_two_is_a_query_error(self):
        pub, priv = seeded_pp_graph(3)
        engine = engine_for(pub, priv)
        with pytest.raises(QueryError, match="k >= 2"):
            engine.query("truss", "alice", k=1)

    def test_breakdown_and_counters_populated(self):
        pub, priv = seeded_pp_graph(3)
        engine = engine_for(pub, priv)
        result = engine.query("truss", "alice", k=3)
        assert result.completed_steps == ("peval", "arefine", "acomplete")
        assert result.breakdown.peval >= 0.0
        assert result.counters.refinement_checks == priv.num_edges
        assert result.counters.completion_lookups > 0

    def test_tiny_expansion_budget_degrades_with_salvage(self):
        pub, priv = seeded_pp_graph(3)
        engine = engine_for(pub, priv)
        budget = engine.make_budget(max_expansions=2)
        result = engine.query("truss", "alice", k=3, budget=budget)
        assert result.degraded
        assert result.interrupted_step in ("peval", "arefine", "acomplete")
        # Salvage peels private edges only: every salvaged answer lives
        # entirely inside the private graph.
        for answer in result.answers:
            assert all(priv.has_edge(u, v) for u, v in answer.edges)

    def test_salvage_answers_are_truss_answers(self):
        pub, priv = seeded_pp_graph(17)
        engine = engine_for(pub, priv)
        budget = engine.make_budget(max_expansions=priv.num_edges + 3)
        result = engine.query("truss", "alice", k=3, budget=budget)
        assert result.degraded
        assert all(isinstance(a, TrussAnswer) for a in result.answers)


# ----------------------------------------------------------------------
# generic entry points and the wire
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_engine_generic_query(self):
        pub, priv = seeded_pp_graph(3)
        engine = engine_for(pub, priv)
        direct = semantics_spec("truss").run(
            engine, engine.attachment("alice"), {"k": 3}
        )
        generic = engine.query("truss", "alice", k=3)
        assert generic.answers == direct.answers

    def test_batch_session_generic_query(self):
        pub, priv = seeded_pp_graph(3)
        engine = engine_for(pub, priv)
        svc = PPKWSService(sketch_k=2)
        svc.adopt_network("net", engine)
        single = svc.execute({
            "op": "truss", "network": "net", "owner": "alice", "k": 3,
        })
        resp = svc.execute({
            "op": "batch", "network": "net", "owner": "alice",
            "queries": [{"op": "truss", "k": 3, "no_cache": True}],
        })
        (item,) = resp["results"]
        assert item["status"] == "ok"
        assert item["answers"] == single["answers"]
        assert item["answers"]

    def test_wire_op_round_trip(self):
        pub, priv = seeded_pp_graph(3)
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "alice", priv)
        resp = svc.execute({
            "op": "truss", "network": "net", "owner": "alice", "k": 3,
        })
        assert resp["status"] == "ok"
        assert resp["answers"]
        first = resp["answers"][0]
        assert set(first) == {"vertices", "edges"}
        assert all(isinstance(e, list) and len(e) == 2 for e in first["edges"])
        engine = svc._engine("net")
        expected = engine.query("truss", "alice", k=3)
        assert len(resp["answers"]) == len(expected.answers)

    def test_wire_rejects_bad_k(self):
        pub, priv = seeded_pp_graph(3)
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "alice", priv)
        resp = svc.execute({
            "op": "truss", "network": "net", "owner": "alice", "k": 0,
        })
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"

    def test_edge_key_orders_pairs(self):
        assert edge_key(2, 1) == edge_key(1, 2)
