"""Frozen vs dict engines return identical answers across all pipelines.

The tentpole guarantee of the frozen backend is *transparency*: a PPKWS
engine whose public graph was interned into CSR arrays must return the
same answers, distances and work counters as one built over the plain
dict graph.  These tests build both engines side by side on the shared
fixtures and compare every query pipeline (blinks, rclique, banks, knk,
knk_multi) plus the indexes themselves.
"""

from __future__ import annotations

import pytest

from repro.core.framework import PPKWS
from repro.graph import FrozenGraph, LabeledGraph
from tests.conftest import random_connected_graph


def _engines(pub, priv, owner="bob"):
    """(frozen engine, dict engine) over the same public/private pair."""
    frozen = PPKWS(pub, sketch_k=2, freeze=True)
    plain = PPKWS(pub, sketch_k=2, freeze=False)
    assert isinstance(frozen.public, FrozenGraph)
    assert isinstance(plain.public, LabeledGraph)
    frozen.attach(owner, priv)
    plain.attach(owner, priv)
    return frozen, plain


def _canon_rooted(answers):
    """Backend-independent form of a rooted answer list (order preserved)."""
    return [
        (
            a.root,
            sorted(
                (q, m.vertex, m.distance) for q, m in a.matches.items()
            ),
        )
        for a in answers
    ]


def _canon_knk(answer):
    return (
        answer.source,
        answer.keyword,
        [(m.vertex, m.distance) for m in answer.matches],
    )


@pytest.fixture
def engine_pair(small_public_private):
    pub, priv = small_public_private
    return _engines(pub, priv)


# ----------------------------------------------------------------------
# index equivalence
# ----------------------------------------------------------------------
class TestIndexEquivalence:
    def test_pagerank_scores_identical(self, engine_pair):
        frozen, plain = engine_pair
        assert frozen.index.pagerank_scores == plain.index.pagerank_scores

    def test_pads_identical(self, engine_pair):
        frozen, plain = engine_pair
        assert frozen.index.pads.entries == plain.index.pads.entries

    def test_kpads_identical(self, engine_pair):
        frozen, plain = engine_pair
        assert frozen.index.kpads.entries == plain.index.kpads.entries
        assert frozen.index.kpads.witnesses == plain.index.kpads.witnesses
        assert frozen.index.kpads.candidates == plain.index.kpads.candidates

    def test_attachments_identical(self, engine_pair):
        frozen, plain = engine_pair
        af = frozen.attachment("bob")
        ap = plain.attachment("bob")
        assert af.portals == ap.portals
        assert af.refined_portal_pairs == ap.refined_portal_pairs
        for p in af.portals:
            for q in af.portals:
                assert af.portal_map.get(p, q) == ap.portal_map.get(p, q)


# ----------------------------------------------------------------------
# query-pipeline equivalence on the shared fixture
# ----------------------------------------------------------------------
class TestPipelineEquivalence:
    @pytest.mark.parametrize("keywords,tau", [
        (["db", "ai"], 4.0),
        (["db", "cv"], 6.0),
        (["ml", "ai"], 5.0),
    ])
    def test_blinks(self, engine_pair, keywords, tau):
        frozen, plain = engine_pair
        rf = frozen.blinks("bob", keywords, tau=tau, k=5)
        rp = plain.blinks("bob", keywords, tau=tau, k=5)
        assert _canon_rooted(rf.answers) == _canon_rooted(rp.answers)
        assert rf.counters == rp.counters
        assert not rf.degraded and not rp.degraded

    @pytest.mark.parametrize("keywords,tau", [
        (["db", "ai"], 4.0),
        (["db", "cv"], 6.0),
    ])
    def test_rclique(self, engine_pair, keywords, tau):
        frozen, plain = engine_pair
        rf = frozen.rclique("bob", keywords, tau=tau, k=5)
        rp = plain.rclique("bob", keywords, tau=tau, k=5)
        assert _canon_rooted(rf.answers) == _canon_rooted(rp.answers)
        assert rf.counters == rp.counters

    def test_banks_including_tree_edges(self, engine_pair):
        frozen, plain = engine_pair
        rf = frozen.banks("bob", ["db", "ai"], tau=4.0, k=5)
        rp = plain.banks("bob", ["db", "ai"], tau=4.0, k=5)
        assert _canon_rooted(rf.answers) == _canon_rooted(rp.answers)
        for af, ap in zip(rf.answers, rp.answers):
            assert af.edges == ap.edges

    @pytest.mark.parametrize("source,keyword", [
        ("x1", "cv"), ("x1", "db"), (2, "ml"), (5, "ai"),
    ])
    def test_knk(self, engine_pair, source, keyword):
        frozen, plain = engine_pair
        rf = frozen.knk("bob", source, keyword, k=4)
        rp = plain.knk("bob", source, keyword, k=4)
        assert _canon_knk(rf.answer) == _canon_knk(rp.answer)
        assert rf.counters == rp.counters

    @pytest.mark.parametrize("mode", ["and", "or"])
    def test_knk_multi(self, engine_pair, mode):
        frozen, plain = engine_pair
        rf = frozen.knk_multi("bob", "x1", ["db", "ai"], k=5, mode=mode)
        rp = plain.knk_multi("bob", "x1", ["db", "ai"], k=5, mode=mode)
        assert _canon_knk(rf.answer) == _canon_knk(rp.answer)


# ----------------------------------------------------------------------
# query-pipeline equivalence on random public/private pairs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [2, 9])
def test_random_graph_pipeline_equivalence(seed):
    labels = ("t0", "t1", "t2")
    pub = random_connected_graph(60, 25, seed, labels=labels)
    priv = LabeledGraph("priv")
    # Two portals into the public graph plus a private-only tail.
    priv.add_edge(0, "m1")
    priv.add_edge("m1", "m2")
    priv.add_edge("m2", 13)
    priv.add_labels("m1", {"t0"})
    priv.add_labels("m2", {"t1"})
    frozen, plain = _engines(pub, priv)

    rf = frozen.blinks("bob", ["t0", "t1"], tau=6.0, k=5)
    rp = plain.blinks("bob", ["t0", "t1"], tau=6.0, k=5)
    assert _canon_rooted(rf.answers) == _canon_rooted(rp.answers)
    assert rf.counters == rp.counters

    rf = frozen.rclique("bob", ["t0", "t2"], tau=6.0, k=5)
    rp = plain.rclique("bob", ["t0", "t2"], tau=6.0, k=5)
    assert _canon_rooted(rf.answers) == _canon_rooted(rp.answers)

    kf = frozen.knk("bob", "m1", "t2", k=3)
    kp = plain.knk("bob", "m1", "t2", k=3)
    assert _canon_knk(kf.answer) == _canon_knk(kp.answer)

    kf = frozen.knk_multi("bob", "m2", ["t0", "t2"], k=3, mode="and")
    kp = plain.knk_multi("bob", "m2", ["t0", "t2"], k=3, mode="and")
    assert _canon_knk(kf.answer) == _canon_knk(kp.answer)


def test_shared_frozen_index_reuse(small_public_private):
    """One frozen index can back many engines (the deployment story)."""
    pub, priv = small_public_private
    from repro.core.framework import PublicIndex

    index = PublicIndex.build(pub, k=2)
    assert isinstance(index.graph, FrozenGraph)
    e1 = PPKWS(pub, index=index)
    e2 = PPKWS(pub, index=index)
    assert e1.index is e2.index
    assert e1.public is index.graph
    e1.attach("bob", priv)
    e2.attach("bob", priv)
    a = e1.blinks("bob", ["db", "ai"], tau=4.0, k=5)
    b = e2.blinks("bob", ["db", "ai"], tau=4.0, k=5)
    assert _canon_rooted(a.answers) == _canon_rooted(b.answers)
