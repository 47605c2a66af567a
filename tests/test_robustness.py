"""Robustness and failure-injection tests across the stack.

Exercises inputs real deployments produce: unicode labels, extreme
weights, degenerate graphs, huge parameters, and partially corrupted
on-disk artifacts — the library must fail loudly (typed exceptions) or
work correctly, never silently corrupt results.
"""

from __future__ import annotations

import time

import pytest

from repro import validate_knk_answer, validate_rooted_answer
from repro.core import PPKWS, PublicIndex, QueryOptions, load_index, save_index
from repro.exceptions import (
    DeadlineExceededError,
    GraphError,
    IndexCorruptError,
)
from repro.graph import LabeledGraph, combine, dijkstra, load_graph, save_graph
from repro.semantics import blinks_search, knk_search

from .conftest import random_connected_graph


class TestUnicodeAndOddLabels:
    def test_unicode_labels_roundtrip(self, tmp_path):
        g = LabeledGraph()
        g.add_vertex("京", {"データベース", "🔬"})
        g.add_vertex("都", {"ΑΙ"})
        g.add_edge("京", "都")
        path = tmp_path / "u.graph"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.labels("京") == {"データベース", "🔬"}

    def test_unicode_query_end_to_end(self):
        pub = LabeledGraph.from_edges(
            [("a", "b")], {"a": {"数据库"}, "b": {"视觉"}}
        )
        priv = LabeledGraph.from_edges([("a", "x")], {"x": {"隐私"}})
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("u", priv)
        result = engine.blinks("u", ["数据库", "隐私"], tau=3.0)
        assert result.answers

    def test_label_with_space_is_two_tokens_on_disk(self, tmp_path):
        # the text format is whitespace-delimited: spaces split labels,
        # which is documented behaviour, not corruption
        g = LabeledGraph()
        g.add_vertex("v", {"two words"})
        path = tmp_path / "g.graph"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.labels("v") == {"two", "words"}


class TestExtremeWeights:
    def test_tiny_and_huge_weights(self):
        g = LabeledGraph()
        g.add_edge(0, 1, 1e-9)
        g.add_edge(1, 2, 1e9)
        dist = dijkstra(g, 0)
        assert dist[2] == pytest.approx(1e9 + 1e-9)

    def test_float_accumulation_in_search(self):
        g = LabeledGraph()
        for i in range(100):
            g.add_edge(i, i + 1, 0.1)
        g.add_labels(100, {"far"})
        ans = knk_search(g, 0, "far", k=1)
        assert ans.distances()[0] == pytest.approx(10.0, rel=1e-9)


class TestDegenerateGraphs:
    def test_single_vertex_public_graph(self):
        pub = LabeledGraph()
        pub.add_vertex(0, {"t"})
        priv = LabeledGraph()
        priv.add_edge(0, "x")
        priv.add_labels("x", {"s"})
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("u", priv)
        result = engine.blinks("u", ["t", "s"], tau=2.0)
        assert result.answers  # portal 0 carries t, x carries s

    def test_star_private_graph_many_portals(self):
        pub = LabeledGraph.from_edges([(i, i + 1) for i in range(20)])
        pub.add_labels(19, {"t"})
        priv = LabeledGraph()
        for i in range(0, 19, 2):
            priv.add_edge("hub", i)
        engine = PPKWS(pub, sketch_k=2)
        att = engine.attach("u", priv)
        assert len(att.portals) == 10
        result = engine.knk("u", "hub", "t", k=1)
        assert result.answer.matches
        # hub -> portal 18 -> 19
        assert result.answer.distances()[0] == 2.0

    def test_huge_k_values(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("u", priv)
        result = engine.knk("u", "x1", "db", k=10**6)
        assert len(result.answer.matches) < 100  # bounded by the graph
        blinks = engine.blinks("u", ["db", "ai"], tau=4.0, k=10**6)
        assert len(blinks.answers) < 100

    def test_tau_zero(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("u", priv)
        result = engine.blinks("u", ["db", "ai"], tau=0.0)
        # only a vertex carrying both keywords could answer; none does
        assert result.answers == []


class TestCorruptedArtifacts:
    def test_truncated_index_file(self, tmp_path, small_public_private):
        pub, _ = small_public_private
        index = PublicIndex.build(pub, k=2)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        content = path.read_bytes()
        # the header and the first sections survive, the checksum does
        # not: a typed error, never a half-loaded index
        for keep in (len(content) // 2, len(content) - 1, 40, 3):
            (tmp_path / "trunc.jsonl").write_bytes(content[:keep])
            with pytest.raises(IndexCorruptError):
                load_index(pub, tmp_path / "trunc.jsonl")

    def test_garbage_index_file(self, tmp_path, small_public_private):
        pub, _ = small_public_private
        path = tmp_path / "garbage.jsonl"
        for garbage in (b"this is not an index\n", b"\x00" * 512, b"PPKWSIDX"):
            path.write_bytes(garbage)
            with pytest.raises(IndexCorruptError):
                load_index(pub, path)

    def test_graph_file_with_bad_weight(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("e 1 2 banana\n")
        with pytest.raises(ValueError):
            load_graph(path)

    def test_graph_file_with_negative_weight(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("e 1 2 -3\n")
        with pytest.raises(GraphError):
            load_graph(path)


@pytest.fixture
def engine(small_public_private):
    pub, priv = small_public_private
    eng = PPKWS(pub, sketch_k=4)
    eng.attach("u", priv)
    return eng


class TestBudgetDegradation:
    """A budget expiring in any pipeline step degrades, never corrupts."""

    def _assert_valid_degraded(self, engine, result, tau):
        gc = combine(engine.public, engine.attachment("u").private)
        assert result.degraded
        for answer in result.answers:
            report = validate_rooted_answer(gc, answer, tau)
            assert report.valid, report.problems

    def test_zero_deadline_degrades_in_peval(self, engine):
        for method in (engine.blinks, engine.rclique, engine.banks):
            result = method("u", ["db", "ai"], 4.0, deadline_ms=0.0)
            assert result.degraded
            assert result.completed_steps == ()
            assert result.interrupted_step == "peval"
            self._assert_valid_degraded(engine, result, tau=4.0)

    def test_expiry_during_arefine_salvages_partials(self, engine, monkeypatch):
        import repro.core.pp_blinks as mod

        def expiring_arefine(*args, **kwargs):
            raise DeadlineExceededError(11.0, 10.0)

        monkeypatch.setattr(mod, "arefine_keywords", expiring_arefine)
        result = engine.blinks("u", ["db", "ai"], 4.0, deadline_ms=10_000.0)
        assert result.completed_steps == ("peval",)
        assert result.interrupted_step == "arefine"
        self._assert_valid_degraded(engine, result, tau=4.0)

    def test_expiry_during_acomplete_salvages_partials(self, engine, monkeypatch):
        import repro.core.pp_blinks as mod

        real_acomplete = mod._acomplete

        def expiring_acomplete(*args, **kwargs):
            real_acomplete(*args, **kwargs)  # improvements made first survive
            raise DeadlineExceededError(11.0, 10.0)

        monkeypatch.setattr(mod, "_acomplete", expiring_acomplete)
        result = engine.blinks("u", ["db", "ai"], 4.0, deadline_ms=10_000.0)
        assert result.completed_steps == ("peval", "arefine")
        assert result.interrupted_step == "acomplete"
        self._assert_valid_degraded(engine, result, tau=4.0)

    def test_rclique_acomplete_expiry(self, engine, monkeypatch):
        import repro.core.pp_rclique as mod

        def expiring_acomplete(*args, **kwargs):
            raise DeadlineExceededError(11.0, 10.0)

        monkeypatch.setattr(mod, "_acomplete", expiring_acomplete)
        result = engine.rclique("u", ["db", "ai"], 4.0, deadline_ms=10_000.0)
        assert result.completed_steps == ("peval", "arefine")
        assert result.interrupted_step == "acomplete"
        self._assert_valid_degraded(engine, result, tau=4.0)

    def test_knk_degrades_to_private_matches(self, engine):
        gc = combine(engine.public, engine.attachment("u").private)
        result = engine.knk("u", "x1", "cv", k=3, deadline_ms=0.0)
        assert result.degraded
        assert result.interrupted_step == "peval"
        report = validate_knk_answer(gc, result.answer)
        assert report.valid, report.problems
        multi = engine.knk_multi("u", "x1", ["cv", "db"], k=3, mode="or",
                                 deadline_ms=0.0)
        assert multi.degraded

    def test_expansion_cap_degrades_mid_sweep(self, engine):
        # a small cap lands inside the PEval sweep; matches found before
        # the cap are kept and carry achievable distances
        gc = combine(engine.public, engine.attachment("u").private)
        result = engine.knk("u", "x1", "db", k=5, max_expansions=2)
        assert result.degraded
        report = validate_knk_answer(gc, result.answer)
        assert report.valid, report.problems

    def test_no_deadline_is_identical_to_unbudgeted(self, engine):
        plain = engine.blinks("u", ["db", "ai"], 4.0)
        explicit_none = engine.blinks("u", ["db", "ai"], 4.0, deadline_ms=None)
        generous = engine.blinks("u", ["db", "ai"], 4.0, deadline_ms=1e9,
                                 max_expansions=10**9)
        keys = [a.sort_key() for a in plain.answers]
        assert keys == [a.sort_key() for a in explicit_none.answers]
        assert keys == [a.sort_key() for a in generous.answers]
        assert not plain.degraded and not generous.degraded
        assert plain.completed_steps == ("peval", "arefine", "acomplete")

    def test_options_level_default_budget(self, small_public_private):
        pub, priv = small_public_private
        eng = PPKWS(pub, sketch_k=2, options=QueryOptions(deadline_ms=0.0))
        eng.attach("u", priv)
        result = eng.blinks("u", ["db", "ai"], 4.0)
        assert result.degraded
        # a per-call budget overrides the engine default
        ok = eng.blinks("u", ["db", "ai"], 4.0, deadline_ms=1e9)
        assert not ok.degraded

    def test_deadline_bounds_wall_clock_on_large_graph(self):
        # acceptance: a tight deadline returns promptly on a graph where
        # the unbounded query takes far longer; bound kept deliberately
        # loose (scheduler noise) — CI enforces the hard 300s timeout
        pub = random_connected_graph(1500, 800, seed=11, labels=("t0", "t1", "t2"))
        priv = random_connected_graph(400, 200, seed=12, labels=("s0",))
        eng = PPKWS(pub, sketch_k=2)
        eng.attach("u", priv)
        start = time.perf_counter()
        result = eng.blinks("u", ["t0", "s0"], tau=50.0, deadline_ms=10.0)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        assert result.degraded
        assert elapsed_ms < 2000.0


class TestBaselineRobustness:
    def test_blinks_on_empty_graph(self):
        g = LabeledGraph()
        assert blinks_search(g, ["t"], tau=1.0) == []

    def test_duplicate_edges_keep_single_count(self):
        g = LabeledGraph()
        for _ in range(5):
            g.add_edge(1, 2, 1.0)
        assert g.num_edges == 1

    def test_combined_of_identical_graphs(self, small_public_private):
        pub, _ = small_public_private
        doubled = combine(pub, pub)
        assert doubled.num_vertices == pub.num_vertices
        assert doubled.num_edges == pub.num_edges
