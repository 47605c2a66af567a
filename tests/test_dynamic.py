"""Tests for dynamic private graphs (copy-on-write re-attaches).

Core invariant: after any sequence of mutations, the per-user state
equals what a fresh :meth:`PPKWS.attach` would build from the mutated
private graph — checked field by field (vertex-portal distances, PKD,
combined portal map).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PPKWS, DynamicPrivateGraph
from repro.exceptions import GraphError
from repro.graph import INF, LabeledGraph, dijkstra
from tests.conftest import random_connected_graph


def _knk_answers(engine: PPKWS, owner: str) -> list:
    """k-nk from every private vertex (filling its row) to every label."""
    private = engine.attachment(owner).private
    return [(r.answer.vertices(), r.answer.distances()) for r in (
        engine.knk(owner, s, t, k=4) for s in private
        for t in sorted(private.label_universe()))]


def _state_equal(engine: PPKWS, owner: str) -> None:
    """Assert the live attachment matches a from-scratch rebuild, k-nk
    answers from rows filled before the mutations included."""
    att = engine.attachment(owner)
    fresh_engine = PPKWS(engine.public, index=engine.index)
    fresh = fresh_engine.attach(owner, att.private.copy())
    assert _knk_answers(engine, owner) == _knk_answers(fresh_engine, owner)

    private = att.private
    for p in att.portals:
        for v in private.vertices():
            live = att.oracle.vertex_portal.get(v, p)
            want = fresh.oracle.vertex_portal.get(v, p)
            assert live == pytest.approx(want), (v, p)
        for t in private.label_universe():
            assert att.oracle.pkd.distance(p, t) == pytest.approx(
                fresh.oracle.pkd.distance(p, t)
            ), (p, t)
        for q in att.portals:
            assert att.portal_map.get(p, q) == pytest.approx(
                fresh.portal_map.get(p, q)
            ), (p, q)
    assert att.refined_portal_pairs == fresh.refined_portal_pairs


@pytest.fixture
def dynamic_setup(small_public_private):
    pub, priv = small_public_private
    engine = PPKWS(pub, sketch_k=4)
    engine.attach("bob", priv)
    _knk_answers(engine, "bob")
    return engine, DynamicPrivateGraph(engine, "bob")


class TestIncrementalInsert:
    def test_add_edge_repairs_maps(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_edge("x1", "x3")  # shortcut across the private graph
        _state_equal(engine, "bob")

    def test_add_edge_new_private_vertex(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_edge("x2", "brand-new", 2.0)
        assert "brand-new" in dyn.graph
        _state_equal(engine, "bob")

    def test_add_edge_weight_improvement(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_edge("x1", "x2", 0.5)  # shorten an existing edge
        _state_equal(engine, "bob")

    def test_add_edge_noop_when_not_improving(self, dynamic_setup):
        engine, dyn = dynamic_setup
        before = dyn.graph.weight("x1", "x2")
        dyn.add_edge("x1", "x2", before + 5.0)
        assert dyn.graph.weight("x1", "x2") == before

    def test_add_edge_creating_portal_rebuilds(self, dynamic_setup):
        engine, dyn = dynamic_setup
        # vertex 7 is public but not private: the edge makes it a portal
        dyn.add_edge("x4", 7)
        assert 7 in engine.attachment("bob").portals
        _state_equal(engine, "bob")

    def test_add_labels_extends_pkd(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_labels("x4", {"newkw"})
        att = engine.attachment("bob")
        d = att.oracle.pkd.distance(5, "newkw")
        assert d == pytest.approx(dijkstra(dyn.graph, 5)["x4"])
        _state_equal(engine, "bob")

    def test_add_vertex_isolated(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_vertex("floater", {"t"})
        assert "floater" in dyn.graph
        _state_equal(engine, "bob")

    def test_add_vertex_becomes_portal(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_vertex(0)  # exists in the public graph
        assert 0 in engine.attachment("bob").portals

    def test_add_existing_vertex_with_labels(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_vertex("x4", {"extra"})
        assert dyn.graph.has_label("x4", "extra")


class TestDeletions:
    def test_remove_edge_rebuilds(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_edge("x1", "x3")  # give an alternative path first
        dyn.remove_edge("x2", "x4")
        _state_equal(engine, "bob")

    def test_remove_vertex_rebuilds(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.remove_vertex("x3")
        assert "x3" not in dyn.graph
        _state_equal(engine, "bob")

    def test_remove_last_portal_rejected(self, small_public_private):
        pub, _ = small_public_private
        priv = LabeledGraph()
        priv.add_edge(2, "only")  # single portal: 2
        engine = PPKWS(pub, sketch_k=2)
        att = engine.attach("bob", priv)
        dyn = DynamicPrivateGraph(engine, "bob")
        with pytest.raises(GraphError):
            dyn.remove_vertex(2)
        assert engine.attachment("bob") is att
        assert 2 in dyn.graph


class TestQueriesAfterMutation:
    def test_new_keyword_reachable_after_edge_insert(self, dynamic_setup):
        engine, dyn = dynamic_setup
        # before: no 'robotics' anywhere
        dyn.add_edge("x1", "robo-lab")
        dyn.add_labels("robo-lab", {"robotics"})
        result = engine.knk("bob", "x1", "robotics", k=1)
        assert result.answer.vertices() == ["robo-lab"]
        assert result.answer.distances() == [1.0]

    def test_blinks_sees_updated_distances(self, dynamic_setup):
        engine, dyn = dynamic_setup
        before = engine.blinks("bob", ["db", "cv"], tau=6.0, k=5)
        dyn.add_edge("x1", "x3", 1.0)  # db vertex now adjacent to cv vertex
        after = engine.blinks("bob", ["db", "cv"], tau=6.0, k=5)
        assert after.answers
        assert after.answers[0].weight() <= (
            before.answers[0].weight() if before.answers else INF
        )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1000))
def test_random_mutation_sequence_stays_consistent(seed):
    """Apply a random insert-heavy mutation sequence; state must equal a
    fresh rebuild after every step (checked at the end for speed)."""
    rng = random.Random(seed)
    pub = random_connected_graph(20, 6, seed)
    priv = LabeledGraph("p")
    priv.add_edge(0, "a0")
    priv.add_edge("a0", "a1")
    priv.add_edge(1, "a1")
    engine = PPKWS(pub, sketch_k=4)
    engine.attach("u", priv)
    dyn = DynamicPrivateGraph(engine, "u")
    names = ["a0", "a1", "a2", "a3", "a4"]
    for step in range(6):
        _knk_answers(engine, "u")
        op = rng.random()
        u = rng.choice(names)
        v = rng.choice(names)
        if op < 0.6 and u != v:
            dyn.add_edge(u, v, rng.choice([0.5, 1.0, 2.0]))
        elif op < 0.8:
            dyn.add_vertex(rng.choice(names))
            dyn.add_labels(rng.choice([n for n in names if n in dyn.graph]),
                           {rng.choice("xyz")})
        else:
            edges = list(dyn.graph.edges())
            if len(edges) > 4:
                e = rng.choice(edges)
                try:
                    dyn.remove_edge(e[0], e[1])
                except GraphError:
                    pass
    _state_equal(engine, "u")


class TestEpochInvalidation:
    """Dynamic edits must advance the attachment epoch.

    The serving layer keys its cross-request answer cache on
    ``PPKWS.attachment_epoch``; a repair that swaps or mutates per-user
    state without bumping it would let cached answers outlive the data
    they were computed from (regression: ``add_edge`` once wrote
    ``_attachments`` directly and ``add_labels`` bumped nothing).
    """

    def test_add_edge_bumps_attachment_epoch(self, dynamic_setup):
        engine, dyn = dynamic_setup
        before = engine.attachment_epoch
        dyn.add_edge("x1", "x3")
        assert engine.attachment_epoch > before

    def test_add_labels_bumps_attachment_epoch(self, dynamic_setup):
        engine, dyn = dynamic_setup
        before = engine.attachment_epoch
        dyn.add_labels("x4", {"newkw"})
        assert engine.attachment_epoch > before

    def test_removals_bump_attachment_epoch(self, dynamic_setup):
        engine, dyn = dynamic_setup
        dyn.add_edge("x1", "x3")
        before = engine.attachment_epoch
        dyn.remove_edge("x2", "x4")
        assert engine.attachment_epoch == before + 1
