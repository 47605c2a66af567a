"""The array KPADS merge equals the dict loop it replaced, order included.

:func:`repro.sketches.kpads.build_kpads` sorts each keyword's gathered
PADS entries by ``(center, distance, arrival)``; every decoded map must
equal :func:`tests.reference_kpads_merge.reference_kpads_merge`'s as a
list of items (keys, values and their order).  Held on seeded graphs with
``int``, ``str`` and :class:`Twin` vertices (equal reprs), unit weights
(ties everywhere) and float weights, candidate lists of 1 and 4, and a
``keywords=`` vocabulary with a keyword no vertex carries.
"""

from __future__ import annotations

import random

import pytest

from repro.core.framework import PublicIndex
from repro.exceptions import IndexBuildError
from repro.graph.labeled_graph import LabeledGraph
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import build_kpads
from tests.conftest import Twin
from tests.reference_kpads_merge import reference_kpads_merge

VERTEX_TYPES = {"int": int, "str": lambda i: f"v{i:03d}", "twin": Twin}


def _graph(seed: int, vertex, unit: bool) -> LabeledGraph:
    rng = random.Random(seed)
    n = rng.randint(30, 90)
    graph = LabeledGraph(f"merge{seed}")
    graph.add_vertex(vertex(0))

    def weight() -> float:
        return 1.0 if unit else rng.choice([0.5, 1.0, 1.5, 0.1 + 0.2])

    for i in range(1, n):
        graph.add_edge(vertex(i), vertex(rng.randrange(i)), weight())
    for _ in range(n // 2):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(vertex(u), vertex(v)):
            graph.add_edge(vertex(u), vertex(v), weight())
    for i in range(n):
        graph.add_labels(vertex(i), rng.sample(("a", "b", "c", 7), rng.randint(0, 3)))
    return graph


def _items(rows):
    """Every map as a list of items: equal lists, equal order."""
    return [
        (t, list(inner.items())) for table in rows for t, inner in table.items()
    ]


@pytest.mark.parametrize("per_center", [1, 4])
@pytest.mark.parametrize("unit", [True, False], ids=["unit", "float"])
@pytest.mark.parametrize("vertex", list(VERTEX_TYPES))
@pytest.mark.parametrize("seed", range(6))
def test_array_merge_is_the_dict_loop(seed, vertex, unit, per_center):
    graph = _graph(seed, VERTEX_TYPES[vertex], unit)
    pads = PublicIndex.build(graph, k=2).pads
    for keywords in (None, ["c", "nobody", 7, "a"]):
        kpads = build_kpads(graph, pads, keywords=keywords, per_center=per_center)
        want = reference_kpads_merge(graph, pads, keywords, per_center)
        got = (kpads.entries, kpads.witnesses, kpads.candidates)
        assert list(got[0]) == list(want[0])
        assert _items(got) == _items(want)
        assert repr(_items(got)) == repr(_items(want))  # types, float bits


def test_pads_over_other_vertices_are_refused():
    graph = _graph(0, int, True)
    stray = DistanceSketch({0: {0: 0.0}, 1: {0: 1.0}}, 2)  # another vertex table
    with pytest.raises(IndexBuildError, match="vertices"):
        build_kpads(graph, stray)
