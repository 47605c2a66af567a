"""The batched KPADS probe equals the per-vertex one, element for element.

:meth:`KeywordSketch.estimate_with_witness_many` answers many vertices
for one keyword in one pass over the sketches' flat arrays (the index
file's ``pads.*`` and ``kpads.*`` sections).  It must return exactly what
:meth:`KeywordSketch.estimate_with_witness` returns for each vertex:
the same float and the same witness, ties included (the first center in
the PADS row's order wins).  Held here on seeded graphs with unit
weights (ties everywhere) and float weights, ``int`` and :class:`Twin`
vertices, on built indexes and on the same indexes saved and loaded;
plus an unknown keyword, a vertex with no PADS row, an empty PADS row,
empty input and the short-input scalar path.  The batched probe decodes
no row and an unknown keyword is not cached, and each thread's lookup
columns are left clear, so concurrent readers do not see each other's
keywords.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sketches.kpads as kpads_module
from repro.core.framework import PublicIndex
from repro.core.persist import load_index, save_index
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import INF
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import ARRAY_PROBE_MIN

from tests.conftest import Twin

KEYWORDS = ("a", "b", "c", "missing")


def _graph(seed: int, vertex=int, unit: bool = True) -> LabeledGraph:
    rng = random.Random(seed)
    n = rng.randint(60, 140)
    graph = LabeledGraph(f"g{seed}")
    graph.add_vertex(vertex(0))

    def weight() -> float:
        return 1.0 if unit else rng.choice([0.5, 0.75, 1.25, 2.0])

    for i in range(1, n):
        graph.add_edge(vertex(i), vertex(rng.randrange(i)), weight())
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(vertex(u), vertex(v)):
            graph.add_edge(vertex(u), vertex(v), weight())
    for i in range(n):
        graph.add_labels(vertex(i), rng.sample(("a", "b", "c"), rng.randint(0, 2)))
    return graph


def _probe_set(index: PublicIndex, seed: int, ghost):
    """Every vertex, shuffled, one repeated, and one the graph lacks."""
    vertices = list(index.graph.vertices())
    random.Random(seed).shuffle(vertices)
    return vertices + vertices[:3] + [ghost]


def _assert_equal_probes(index: PublicIndex, vertices) -> int:
    """Batched == scalar on every keyword; returns the ties seen."""
    pads, kpads = index.pads, index.kpads
    assert len(vertices) >= ARRAY_PROBE_MIN
    ties = 0
    for keyword in KEYWORDS:
        got = kpads.estimate_with_witness_many(pads, vertices, keyword)
        want = [kpads.estimate_with_witness(pads, v, keyword) for v in vertices]
        assert got == want, keyword
        for (d, w), v in zip(want, vertices):
            if w is None:
                continue
            totals = [
                d1 + kpads.sketch(keyword)[c]
                for c, d1 in pads.sketch(v).items() if c in kpads.sketch(keyword)
            ]
            ties += totals.count(d) > 1
            assert type(w) is type(v)
    return ties


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "float"))
@pytest.mark.parametrize("vertex", (int, Twin), ids=("int", "twin"))
def test_built_index(vertex, unit):
    ties = 0
    for seed in range(6):
        index = PublicIndex.build(_graph(seed, vertex, unit))
        assert index.pads.arrays is not None and index.kpads.arrays is not None
        ties += _assert_equal_probes(index, _probe_set(index, seed, vertex(10**6)))
    if unit:
        assert ties  # equal totals through distinct centers were exercised


@pytest.mark.parametrize("unit", (True, False), ids=("unit", "float"))
def test_saved_and_loaded_index(tmp_path, unit):
    for seed in range(6):
        graph = _graph(seed, int, unit)
        built = PublicIndex.build(graph)
        path = tmp_path / f"{seed}.idx"
        save_index(built, path)
        loaded = load_index(graph, path)
        vertices = _probe_set(loaded, seed, 10**6)
        for keyword in KEYWORDS:
            assert loaded.kpads.estimate_with_witness_many(
                loaded.pads, vertices, keyword
            ) == built.kpads.estimate_with_witness_many(built.pads, vertices, keyword)
        # the batched probe reads the sections; it decodes no row
        assert not loaded.pads.rows and not loaded.kpads.rows
        _assert_equal_probes(loaded, vertices)


def test_empty_pads_row_in_a_loaded_index(tmp_path):
    graph = _graph(3)
    built = PublicIndex.build(graph)
    hollow = next(iter(graph.vertices()))
    rows = {v: {} if v == hollow else row for v, row in built.pads.entries.items()}
    pads = DistanceSketch(rows, built.pads.k, kind="PADS")  # a row of no entries
    built = PublicIndex(built.graph, pads, built.kpads, built.pagerank_scores)
    save_index(built, tmp_path / "hollow.idx")
    loaded = load_index(graph, tmp_path / "hollow.idx")
    vertices = _probe_set(loaded, 3, 10**6)
    _assert_equal_probes(loaded, vertices)
    got = loaded.kpads.estimate_with_witness_many(loaded.pads, vertices, "a")
    assert got[vertices.index(hollow)] == (INF, None)


def test_short_and_empty_input_take_the_scalar_loop(monkeypatch):
    index = PublicIndex.build(_graph(1))
    pads, kpads = index.pads, index.kpads
    vertices = list(index.graph.vertices())
    batched = []
    real = kpads_module._first_minima

    def spy(*args):
        batched.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(kpads_module, "_first_minima", spy)
    assert kpads.estimate_with_witness_many(pads, [], "a") == []
    short = vertices[: ARRAY_PROBE_MIN - 1]
    assert kpads.estimate_with_witness_many(pads, short, "a") == [
        kpads.estimate_with_witness(pads, v, "a") for v in short
    ]
    assert batched == []
    kpads.estimate_with_witness_many(pads, vertices, "a")
    assert batched == [len(vertices)]


def test_an_unknown_keyword_is_not_cached():
    index = PublicIndex.build(_graph(2))
    pads, kpads = index.pads, index.kpads
    vertices = list(index.graph.vertices())
    assert len(vertices) >= ARRAY_PROBE_MIN
    got = kpads.estimate_with_witness_many(pads, vertices, "missing")
    assert got == [(INF, None)] * len(vertices)
    kpads.estimate_with_witness_many(pads, vertices, "a")
    decoded = (kpads.rows, kpads.witness_rows, kpads.candidate_rows, kpads.reach_rows)
    assert not pads.rows and not any(decoded)
    # and a scalar probe of an unknown keyword keeps nothing
    assert kpads.estimate_with_witness(pads, vertices[0], "missing") == (INF, None)
    assert kpads.reach(pads, vertices[0], "missing") == {}
    assert not any(decoded)


def test_the_thread_keyword_columns_are_left_clear():
    index = PublicIndex.build(_graph(4))
    vertices = list(index.graph.vertices())
    for keyword in KEYWORDS:
        index.kpads.estimate_with_witness_many(index.pads, vertices, keyword)
    dists, witnesses = kpads_module._keyword_columns(len(vertices))
    assert (dists == INF).all() and (witnesses == -1).all()


def test_concurrent_readers_get_their_own_answers():
    index = PublicIndex.build(_graph(5, unit=False))
    pads, kpads = index.pads, index.kpads
    vertices = _probe_set(index, 5, 10**6)
    want = {
        keyword: [kpads.estimate_with_witness(pads, v, keyword) for v in vertices]
        for keyword in KEYWORDS
    }

    def probe(i: int) -> bool:
        keyword = KEYWORDS[i % len(KEYWORDS)]
        return kpads.estimate_with_witness_many(pads, vertices, keyword) == want[keyword]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(probe, range(200), timeout=120))
    finally:
        sys.setswitchinterval(interval)
