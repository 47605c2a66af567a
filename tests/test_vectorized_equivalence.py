"""The benchmark's numpy kernels equal their pure counterparts.

``repro.core.vectorized`` is held only because ``bench/layers.py``
imports or wraps its kernels by name; no query path runs them.  So this
suite pins only what the benchmark measures, at the kernel level:
``offset_sweep_batch`` against ``semantics.blinks.offset_expansion``,
and ``probe_many`` / ``top_candidates_many`` against the
``KeywordSketch`` scans, on the seeded equivalence networks plus a
tie-heavy unit-weight graph.  Same float arithmetic, same tie-breaks,
same dict insertion order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.framework import PPKWS
from repro.core.vectorized import (
    numpy_available,
    offset_sweep_batch,
    runtime_for,
)
from repro.graph.labeled_graph import LabeledGraph
from repro.semantics.blinks import offset_expansion as _offset_sweep

from tests.engine_equivalence_data import SEEDS, build_engine

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the kernels need numpy"
)


def _tie_engine():
    """A unit-weight engine: every Dijkstra layer is one big tie."""
    g = LabeledGraph("ties")
    rng = random.Random(5)
    n = 20
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i), 1.0)
    for _ in range(15):
        u, v = rng.sample(range(n), 2)
        if not g.has_edge(u, v):
            g.add_edge(u, v, 1.0)
    for v in range(n):
        g.add_labels(v, {"a"} if v % 3 == 0 else {"b"})
    return PPKWS(g, sketch_k=2, freeze=True)


@needs_numpy
class TestSweepKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_columns_match_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        rng = random.Random(seed * 31 + 7)
        vertices = sorted(engine.public.vertices(), key=repr)
        columns = []
        for c in range(6):
            seeds = []
            for i in range(rng.randint(1, 6)):
                # Offsets above tau must be dropped by both kernels.
                seeds.append((
                    rng.choice([0.0, 0.5, 1.0, 1.0, 2.5, 9.0]),
                    rng.choice(vertices),
                    f"w{c}_{i}",
                ))
            columns.append((seeds, rng.choice([2.0, 4.0, 6.0, 8.0])))
        batched = offset_sweep_batch(runtime, columns)
        assert len(batched) == len(columns)
        for (seeds, tau), got in zip(columns, batched):
            want = _offset_sweep(engine.public, list(seeds), tau)
            assert list(got) == list(want)  # same insertion (pop) order
            assert got == want  # same Match values, bit for bit

    def test_tie_heavy_unit_weights(self):
        engine = _tie_engine()
        runtime = runtime_for(engine)
        assert runtime is not None
        # Duplicate (offset, portal) seeds with different witnesses: the
        # pure heap breaks the tie by push counter (first seed wins) and
        # the batched kernel must agree.
        seeds = [(0.0, 0, "w0"), (0.0, 3, "w1"), (1.0, 7, "w2"),
                 (0.0, 3, "w3")]
        for tau in (1.0, 2.0, 3.0, 5.0):
            columns = [(seeds, tau), (seeds[:2], tau), ([], tau)]
            batched = offset_sweep_batch(runtime, columns)
            for (col_seeds, col_tau), got in zip(columns, batched):
                want = _offset_sweep(engine.public, list(col_seeds), col_tau)
                assert list(got) == list(want)
                assert got == want


@needs_numpy
class TestSketchKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_probe_many_matches_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        kpads, pads = engine.index.kpads, engine.index.pads
        vertices = sorted(engine.public.vertices(), key=repr)
        for keyword in ("a", "b", "c", "d", "z", "missing"):
            got = runtime.probe_many(vertices, keyword)
            for v in vertices:
                assert got[v] == kpads.estimate_with_witness(
                    pads, v, keyword
                ), (keyword, v)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_top_candidates_many_matches_pure(self, seed):
        engine = build_engine(seed, freeze=True)
        runtime = runtime_for(engine)
        assert runtime is not None
        kpads, pads = engine.index.kpads, engine.index.pads
        vertices = sorted(engine.public.vertices(), key=repr)
        for keyword in ("a", "b", "d", "missing"):
            for k in (1, 2, 4):
                got = runtime.top_candidates_many(vertices, keyword, k)
                # All-public candidate sets on these graphs: the ranked
                # path must be available, not falling back.
                assert got is not None
                for v, lst in zip(vertices, got):
                    assert lst == kpads.top_candidates(
                        pads, v, keyword, k
                    ), (keyword, k, v)
