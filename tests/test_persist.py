"""Tests for public-index persistence (the flat binary format)."""

from __future__ import annotations

import hashlib
import json
import os
import random
import struct
import sys
import threading
from array import array

import pytest

from repro.core import PPKWS, PublicIndex, load_index, save_index
from repro.exceptions import IndexBuildError, IndexCorruptError
from repro.graph import FrozenGraph, LabeledGraph, freeze
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import KeywordSketch
from tests.conftest import (
    PREFROZEN,
    handed,
    join_index_file,
    random_connected_graph,
    split_index_file,
)
from tests.engine_equivalence_data import SEEDS, run_workload, seeded_network


@pytest.fixture
def index_and_graph():
    g = random_connected_graph(30, 10, seed=77)
    return PublicIndex.build(g, k=2), g


class TestRoundTrip:
    def test_pads_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        assert loaded.pads.entries == index.pads.entries
        assert loaded.pads.k == index.pads.k

    def test_kpads_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        assert loaded.kpads.entries == index.kpads.entries
        assert loaded.kpads.witnesses == index.kpads.witnesses
        for t in index.kpads.candidates:
            for c, lst in index.kpads.candidates[t].items():
                assert loaded.kpads.candidates[t][c] == [
                    (d, v) for d, v in lst
                ]

    def test_pagerank_identical(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(g, path)
        for v, s in index.pagerank_scores.items():
            assert loaded.pagerank_scores[v] == pytest.approx(s)

    def test_engine_uses_loaded_index(self, tmp_path, small_public_private):
        pub, priv = small_public_private
        index = PublicIndex.build(pub, k=4)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(pub, path)
        e1 = PPKWS(pub, index=index)
        e2 = PPKWS(pub, index=loaded)
        e1.attach("bob", priv)
        e2.attach("bob", priv.copy())
        r1 = e1.blinks("bob", ["db", "ai"], tau=5.0)
        r2 = e2.blinks("bob", ["db", "ai"], tau=5.0)
        assert [a.sort_key() for a in r1.answers] == [
            a.sort_key() for a in r2.answers
        ]

    def test_string_vertices(self, tmp_path, paper_public_graph):
        index = PublicIndex.build(paper_public_graph, k=2)
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        loaded = load_index(paper_public_graph, path)
        assert loaded.pads.entries == index.pads.entries


class TestErrors:
    def test_vertex_count_mismatch(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx.jsonl"
        save_index(index, path)
        other = LabeledGraph.from_edges([(1, 2)])
        with pytest.raises(IndexBuildError):
            load_index(other, path)

    def test_missing_header(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "bad.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes()[:20])  # torn inside the header
        with pytest.raises(IndexBuildError):
            load_index(g, path)

    def test_bad_version(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "bad.idx"
        save_index(index, path)
        sections = split_index_file(path.read_bytes())
        path.write_bytes(join_index_file(sections, version=99))
        with pytest.raises(IndexBuildError, match="version 99"):
            load_index(g, path)

    def test_unknown_record(self, tmp_path, index_and_graph):
        """A section this version does not know, behind a valid checksum."""
        index, g = index_and_graph
        path = tmp_path / "bad.idx"
        save_index(index, path)
        sections = list(split_index_file(path.read_bytes()).values())
        path.write_bytes(join_index_file(sections + [b"mystery!"]))
        with pytest.raises(IndexCorruptError, match="section table"):
            load_index(g, path)

    def test_unsupported_vertex_type(self, tmp_path):
        g = LabeledGraph.from_edges([((1, 2), (3, 4))])  # tuple vertices
        index = PublicIndex.build(g, k=1)
        with pytest.raises(IndexBuildError):
            save_index(index, tmp_path / "idx.jsonl")

    @pytest.mark.parametrize("vertex", [True, 1.5, None, (1, 2)])
    def test_refused_vertex_types_leave_no_file(self, tmp_path, vertex):
        """``bool`` is an ``int`` to ``isinstance`` — and still refused."""
        g = LabeledGraph.from_edges([(vertex, "b")], {"b": {"x"}})
        index = PublicIndex.build(g, k=1)
        with pytest.raises(IndexBuildError, match="only int and str"):
            save_index(index, tmp_path / "idx")
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# the round-trip property: order and floats included
# ----------------------------------------------------------------------
_NAMES = ["plain", "two words", "a:b", "i:7", "line\nbreak", "naïve-ü", "日本", ""]


def _property_graph(seed: int, vertices: str, weights: str) -> LabeledGraph:
    rng = random.Random(seed)
    n = 14
    if vertices == "int":
        names = list(range(n))
    elif vertices == "str":
        names = [f"{_NAMES[i % len(_NAMES)]}#{i}" for i in range(n)]
    else:  # mixed; 7 and "7" are different vertices
        names = [i if i % 2 else f"{_NAMES[i % len(_NAMES)]}{i}" for i in range(n)]
        names[0] = "7"
    weight = {
        "unit": lambda: 1.0,
        "float": lambda: rng.choice([0.1 + 0.2, 0.3, 1 / 3, 2.5]),
        "mixed": lambda: rng.choice([1.0, 2.0, 0.1 + 0.2, 1 / 3]),
    }[weights]
    g = LabeledGraph(f"prop{seed}")
    g.add_vertex(names[0])
    for i in range(1, n):
        g.add_edge(names[i], names[rng.randrange(i)], weight())
    for _ in range(8):
        u, v = rng.sample(names, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, weight())
    for v in names:
        g.add_labels(v, rng.sample(["x", "key word", "ключ", "a:b"], rng.randint(0, 2)))
    return g


def _maps(index: PublicIndex):
    """Every map of the index as ``(name, items list)``, order preserved."""
    yield "pagerank", list(index.pagerank_scores.items())
    yield "pads owners", list(index.pads.entries)
    for v, sketch in index.pads.entries.items():
        yield f"pads[{v!r}]", list(sketch.items())
    for name in ("entries", "witnesses", "candidates"):
        outer = getattr(index.kpads, name)
        yield f"kpads.{name} keys", list(outer)
        for t, inner in outer.items():
            yield f"kpads.{name}[{t!r}]", list(inner.items())


def _assert_same_index(loaded: PublicIndex, built: PublicIndex) -> None:
    assert (loaded.pads.k, loaded.pads.kind) == (built.pads.k, built.pads.kind)
    assert (loaded.kpads.k, loaded.kpads.per_center) == (
        built.kpads.k, built.kpads.per_center,
    )
    for (name, got), (_, want) in zip(_maps(loaded), _maps(built)):
        assert got == want, name  # list equality: the order is part of it
        # == lets 1 pass for 1.0 and 'a' for 'a'; types and float bits must
        # match too (repr of a float is its shortest exact form)
        assert repr(got) == repr(want), name
    assert len(list(_maps(loaded))) == len(list(_maps(built)))


class TestRoundTripProperty:
    @pytest.mark.parametrize("weights", ["unit", "float", "mixed"])
    @pytest.mark.parametrize("vertices", ["int", "str", "mixed"])
    @pytest.mark.parametrize("prefrozen", PREFROZEN, ids=["dict", "frozen"])
    def test_loaded_index_is_the_built_one(self, tmp_path, vertices, weights, prefrozen):
        for seed in (1, 2, 3):
            g = _property_graph(seed, vertices, weights)
            built = PublicIndex.build(handed(g, prefrozen), k=2)
            assert isinstance(built.graph, FrozenGraph)
            path = tmp_path / f"{seed}.idx"
            save_index(built, path)
            _assert_same_index(load_index(built.graph, path), built)
            # the LabeledGraph and a fresh freeze of it load it too, and
            # every route serves a frozen graph
            for graph in (g, freeze(g)):
                loaded = load_index(graph, path)
                assert isinstance(loaded.graph, FrozenGraph)
                _assert_same_index(loaded, built)

    def test_equal_indexes_give_identical_bytes(self, tmp_path):
        g = _property_graph(5, "mixed", "mixed")
        save_index(PublicIndex.build(g, k=2), tmp_path / "a.idx")
        save_index(PublicIndex.build(g, k=2), tmp_path / "b.idx")
        first = (tmp_path / "a.idx").read_bytes()
        assert (tmp_path / "b.idx").read_bytes() == first
        # ... and a loaded index saves back to the same bytes
        save_index(load_index(g, tmp_path / "a.idx"), tmp_path / "c.idx")
        assert (tmp_path / "c.idx").read_bytes() == first

    def test_keyword_without_carriers_and_empty_candidate_list(self, tmp_path):
        g = LabeledGraph.from_edges([("a", "b"), ("b", "c")], {"a": {"x"}})
        built = PublicIndex.build(g, k=2)
        pads = built.pads
        # "ghost" has no carriers; center "c" of "x" has no candidates and
        # the maps are deliberately not in the graph's vertex order
        kpads = KeywordSketch(
            {"ghost": {}, "x": {"c": 2.0, "a": 0.0}},
            {"ghost": {}, "x": {"c": "a", "a": "a"}},
            pads.k,
            {"ghost": {}, "x": {"c": [], "a": [(0.0, "a"), (1.0, "b")]}},
            per_center=2,
        )
        hand_made = PublicIndex(built.graph, pads, kpads, built.pagerank_scores)
        save_index(hand_made, tmp_path / "idx")
        loaded = load_index(g, tmp_path / "idx")
        _assert_same_index(loaded, hand_made)
        assert loaded.kpads.candidates["x"]["c"] == []
        assert loaded.kpads.entries["ghost"] == {}

    def test_vertex_missing_from_the_graph_is_refused_at_save(self, tmp_path):
        g = LabeledGraph.from_edges([(1, 2)], {1: {"x"}})
        built = PublicIndex.build(g, k=1)
        stray = DistanceSketch({1: {99: 1.0}}, 1, kind="PADS")
        bad = PublicIndex(built.graph, stray, built.kpads, built.pagerank_scores)
        with pytest.raises(IndexBuildError, match="flattened"):
            save_index(bad, tmp_path / "idx")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("prefrozen", PREFROZEN, ids=["dict", "frozen"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_engine_over_loaded_index_replays_the_golden_workload(
        self, tmp_path, seed, prefrozen
    ):
        """The strongest order check: every golden row, byte for byte.

        ``dict`` builds, loads and constructs from the ``LabeledGraph``
        (the ``repro query --index`` route), ``frozen`` from its freeze.
        """
        data = os.path.join(
            os.path.dirname(__file__), "data", "engine_equivalence.json"
        )
        with open(data, encoding="utf-8") as fh:
            expected = json.load(fh)["seeds"][str(seed)]
        public, private = seeded_network(seed)
        public = handed(public, prefrozen)
        save_index(PublicIndex.build(public, k=2), tmp_path / "idx")
        loaded = load_index(public, tmp_path / "idx")
        engine = PPKWS(public, sketch_k=2, index=loaded)
        assert isinstance(engine.public, FrozenGraph)
        engine.attach("owner", private)
        actual = run_workload(engine)
        for semantics in ("blinks", "rclique", "banks", "knk", "knk_multi"):
            assert json.dumps(actual[semantics], sort_keys=True) == json.dumps(
                expected[semantics], sort_keys=True
            ), f"seed {seed} {semantics}"


class TestLayout:
    """The documented layout, read back without the loader."""

    def test_sections_are_what_the_docstring_says(self, tmp_path, index_and_graph):
        index, g = index_and_graph
        path = tmp_path / "idx"
        save_index(index, path)
        raw = path.read_bytes()
        assert raw[:8] == b"PPKWSIDX"
        assert struct.unpack_from("<II", raw, 8) == (3, 14)
        sections = split_index_file(raw)
        meta = json.loads(sections["meta"])
        assert meta["k"] == 2 and meta["num_vertices"] == g.num_vertices
        assert meta["vertices"] == list(index.graph.vertices())
        assert meta["labels"] == list(index.kpads.entries)
        ids = array("i", sections["pads.centers"])
        dists = array("d", sections["pads.dists"])
        assert len(ids) == len(dists) == index.pads.total_entries
        first_owner = meta["vertices"][array("i", sections["pads.owners"])[0]]
        stop = array("i", sections["pads.indptr"])[1]
        assert dict(
            zip((meta["vertices"][i] for i in ids[:stop]), dists[:stop])
        ) == index.pads.entries[first_owner]


def _pinned_str_graph() -> LabeledGraph:
    rng = random.Random(23)
    g = LabeledGraph("pinned-str")
    names = [f"v{i}" for i in range(50)]
    g.add_vertex(names[0])
    for i in range(1, 50):
        g.add_edge(names[i], names[rng.randrange(i)], rng.choice([0.5, 1 / 3, 1.0, 0.1 + 0.2]))
    for _ in range(25):
        u, v = rng.sample(names, 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, rng.choice([1.0, 2.5]))
    for v in names:
        g.add_labels(v, rng.sample([7, 8, 9, 10], rng.randint(0, 2)))
    return g


class TestPinnedBytes:
    """The file of a fresh build, byte for byte, as recorded before the
    sketches were built straight into their arrays.  Labels are ints, so
    the keyword order does not depend on PYTHONHASHSEED."""

    @pytest.mark.parametrize("graph, k, sha256", [
        (lambda: random_connected_graph(60, 30, seed=11, labels=(1, 2, 3)), 2,
         "a2867e61233197680320158bf42c8b2641a98dba1a44dc10482d2ed841bb5eaa"),
        (_pinned_str_graph, 3,
         "14d10296734d797cd55f0ea04eae87eea8eed89f2d153506961aa7894ad044e0"),
    ], ids=["int", "str"])
    def test_a_fresh_build_saves_the_pinned_bytes(self, tmp_path, graph, k, sha256):
        save_index(PublicIndex.build(graph(), k=k), tmp_path / "idx")
        assert hashlib.sha256((tmp_path / "idx").read_bytes()).hexdigest() == sha256


# ----------------------------------------------------------------------
# rows decoded on first touch
# ----------------------------------------------------------------------
class TestRowsOnFirstTouch:
    def test_one_estimate_decodes_two_pads_rows(self, tmp_path, index_and_graph):
        """Guards against a load that decodes every row up front, and a
        probe that decodes more of a keyword than it reads."""
        index, g = index_and_graph
        save_index(index, tmp_path / "idx")
        assert (len(index.pads.rows), len(index.kpads.rows)) == (0, 0)  # saved undecoded
        loaded = load_index(g, tmp_path / "idx")
        assert (len(loaded.pads.rows), len(loaded.kpads.rows)) == (0, 0)
        u, v = list(g.vertices())[:2]
        assert loaded.pads.estimate(u, v) == index.pads.estimate(u, v)
        assert sorted(loaded.pads.rows) == sorted([u, v])
        assert len(loaded.kpads.rows) == 0
        kpads = loaded.kpads
        kpads.top_candidates(loaded.pads, u, "a", 3)
        assert list(kpads.reach_rows) == ["a"]  # the candidates only
        assert not kpads.rows and not kpads.witness_rows and not kpads.candidate_rows
        kpads.estimate_with_witness(loaded.pads, u, "b")
        assert list(kpads.rows) == list(kpads.witness_rows) == ["b"]
        assert list(kpads.reach_rows) == ["a"] and not kpads.candidate_rows

    def test_untouched_and_touched_loads_save_the_same_bytes(
        self, tmp_path, index_and_graph
    ):
        index, g = index_and_graph
        save_index(index, tmp_path / "a.idx")
        first = (tmp_path / "a.idx").read_bytes()
        save_index(load_index(g, tmp_path / "a.idx"), tmp_path / "b.idx")
        assert (tmp_path / "b.idx").read_bytes() == first
        touched = load_index(g, tmp_path / "a.idx")
        vertices = list(g.vertices())
        touched.pads.estimate(vertices[-1], vertices[3])
        touched.kpads.estimate_with_witness(touched.pads, vertices[5], "c")
        save_index(touched, tmp_path / "c.idx")  # file order, not touch order
        assert (tmp_path / "c.idx").read_bytes() == first

    @pytest.mark.parametrize("route", ["built", "loaded"])
    def test_concurrent_first_touch(self, tmp_path, route):
        """Threads racing to decode the same rows answer as a reference
        index decoded by one thread; built and loaded indexes both decode
        on first touch."""
        g = random_connected_graph(80, 40, seed=5)
        built = PublicIndex.build(g, k=2)
        save_index(built, tmp_path / "idx")
        fresh = (
            PublicIndex.build(g, k=2) if route == "built"
            else load_index(g, tmp_path / "idx")
        )
        vertices = list(g.vertices())

        def answers(index):
            pads, kpads = index.pads, index.kpads
            out = []
            for u in vertices:
                out.append(pads.estimate(u, vertices[0]))
                for t in ("a", "b", "c", "missing"):
                    out.append(kpads.estimate_with_witness(pads, u, t))
                    out.append(kpads.top_candidates(pads, u, t, 4))
            return out

        expected = answers(built)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _in_threads(8, lambda: answers(fresh))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected] * 8

    def test_first_decoded_row_wins(self, tmp_path, index_and_graph):
        """Every thread decodes the same row before any publishes it; all
        of them must end up reading the one row that was published."""
        index, g = index_and_graph
        save_index(index, tmp_path / "idx")
        loaded = load_index(g, tmp_path / "idx")
        pads, kpads = loaded.pads, loaded.kpads
        decoded = threading.Barrier(4)

        def in_step(source):
            def decode(key):
                row = source(key)
                decoded.wait()
                return row
            return decode

        pads.source, kpads.source = in_step(pads.source), in_step(kpads.source)
        u = next(iter(g.vertices()))
        rows = _in_threads(4, lambda: pads.sketch(u))
        triples = _in_threads(4, lambda: kpads.fetch("a"))
        assert all(row is pads.rows[u] for row in rows)
        published = (kpads.rows["a"], kpads.witness_rows["a"], kpads.candidate_rows["a"])
        assert all(a is b for triple in triples for a, b in zip(triple, published))


def _in_threads(n, fn):
    """``fn()`` run by ``n`` threads released together; their results."""
    start = threading.Barrier(n)
    results = [None] * n

    def worker(i):
        start.wait()
        results[i] = fn()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results
