"""r-clique over a paused neighbor index == r-clique over a complete one.

:func:`repro.semantics.rclique.rclique_search` settles each keyword's
multi-origin search one distance bucket at a time, and only while a star
could still use what the next bucket would list.
``tests/reference_rclique.py`` keeps the eager search that completed every
list first.  This suite holds the two equal on seeded graphs:

* unit, float and mixed weights from small sets, so distances tie along
  distinct paths, with ``int`` vertices or :class:`Twin` vertices whose
  distinct instances share one ``repr``;
* list sizes ``m`` that bind and that are slack, with extra "portal"
  candidates on every keyword;
* tau from 1 to 50, k = 1, 5 and 32, and the bound enforced or not;
* both graph types (the mutable ``LabeledGraph`` and a ``FrozenGraph``).

Answers must match in order, vertices and weights, and every list the
paused index holds when the search returns must be a prefix of the
complete list at that vertex.  A bench-shaped network pins how lazy the
index is.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.semantics.rclique as rclique
from repro import query_model_m1, query_model_m2
from repro.core.budget import QueryBudget
from repro.exceptions import QueryError
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import LabeledGraph
from repro.semantics import banks_search, blinks_search, rclique_search

from tests.conftest import Twin
from tests.reference_neighbor_lists import reference_neighbor_lists
from tests.reference_rclique import reference_rclique_search

_BACKENDS = (False, True)
SEEDS = range(36)
WEIGHTS = ("unit", "float", "mixed")
QUERIES = (["a", "b"], ["a", "b", "c"], ["c", "a", "c"], ["b"])


def _graph(seed: int):
    """A seeded connected graph labelled ``a``/``b``/``c``, up to five of
    its vertices to admit as "portal" candidates for every keyword, and
    the generator, which then draws the query settings.

    ``seed % 3`` picks the weights, odd seeds use :class:`Twin` vertices.
    """
    rng = random.Random(seed)
    weights = WEIGHTS[seed % 3]
    vertex = Twin if seed % 2 else int
    n = rng.randint(10, 36)

    def weight() -> float:
        if weights == "unit":
            return 1.0
        if weights == "float":
            return rng.choice([0.5, 0.75, 1.25, 2.0])
        return rng.choice([1.0, 1.0, 0.5, 2.0])

    graph = LabeledGraph(f"g{seed}")
    graph.add_vertex(vertex(0))
    for i in range(1, n):
        graph.add_edge(vertex(i), vertex(rng.randrange(i)), weight())
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        if not graph.has_edge(vertex(u), vertex(v)):
            graph.add_edge(vertex(u), vertex(v), weight())
    for i in range(n):
        graph.add_labels(vertex(i), rng.sample(("a", "b", "c"), rng.randint(0, 2)))
    portals = {vertex(i) for i in rng.sample(range(n), rng.randint(0, 5))}
    return graph, portals, rng


def _capturing(monkeypatch):
    """Patch ``build_neighbor_lists`` to record each index it returns,
    with the arguments it was built from."""
    built = []
    real = rclique.build_neighbor_lists

    def recording(graph, candidates, tau, m, budget=None):
        index = real(graph, candidates, tau, m, budget=budget)
        built.append((index, graph, candidates, tau, m))
        return index

    monkeypatch.setattr(rclique, "build_neighbor_lists", recording)
    return built


def _shape(answers):
    return [
        (a.root, {q: (m.vertex, m.distance) for q, m in a.matches.items()})
        for a in answers
    ]


@pytest.mark.parametrize("frozen", _BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_equals_eager_reference(seed, frozen, monkeypatch):
    graph, portals, rng = _graph(seed)
    if frozen:
        graph = freeze(graph)
    built = _capturing(monkeypatch)
    answered = 0
    for keywords in QUERIES:
        for k in (1, 5, 32):
            for enforce in (True, False):
                kwargs = dict(
                    extra_candidates=portals or None,
                    enforce_bound=enforce,
                    neighbor_list_size=rng.choice([None, 1, 2, 3, 40]),
                    search_cutoff=rng.choice([None, None, rng.choice([2.0, 4.0])]),
                )
                tau = rng.choice([1.0, 2.5, 4.0, 7.0, 50.0])
                built.clear()
                got = rclique_search(graph, keywords, tau, k, **kwargs)
                want = reference_rclique_search(graph, keywords, tau, k, **kwargs)
                assert _shape(got) == _shape(want), (keywords, tau, k, kwargs)
                answered += len(got)
                for index, g, candidates, cutoff, m in built:
                    complete = reference_neighbor_lists(g, candidates, cutoff, m)
                    for q, search in index.searches.items():
                        for v, held in search.lists.items():
                            assert complete[q].get(v, [])[: len(held)] == held
    assert answered  # the seeds are not vacuous


def _bench_shaped(seed: int):
    """The benchmark's private graphs: 18 portals then 102 private
    vertices, each joined to a random earlier one, plus 60 chords at unit
    weight; 3 Zipf-drawn labels a vertex from 40 words; and eight
    keyword triples over the mid-popular words."""
    rng = random.Random(seed)
    vertices = [f"p{i}" for i in range(18)] + [f"v{i}" for i in range(102)]
    graph = LabeledGraph(f"bench{seed}")
    graph.add_vertex(vertices[0])
    for i in range(1, len(vertices)):
        graph.add_edge(vertices[i], vertices[rng.randrange(i)], 1.0)
    chords = 0
    while chords < 60:
        u, v = rng.sample(vertices, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, 1.0)
            chords += 1
    words = [f"t{i}" for i in range(40)]
    popularity = [1.0 / (r + 1) for r in range(len(words))]
    for v in vertices:
        graph.add_labels(v, set(rng.choices(words, popularity, k=3)))
    queries = [rng.sample(words[2:12], 3) for _ in range(8)]
    return graph, set(vertices[:18]), queries


def test_index_settles_at_most_half_of_itself(monkeypatch):
    """PEval's call shape (tau 5, k 32, the portals on every keyword):
    over the queries, the searches dequeue at most half the pairs their
    complete indexes settle.  An eager index dequeues at least all."""
    graph, portals, queries = _bench_shaped(0)
    counted = QueryBudget(max_expansions=10**9)
    built = []
    real = rclique.build_neighbor_lists

    def charging_its_own_budget(graph, candidates, tau, m, budget=None):
        index = real(graph, candidates, tau, m, budget=counted)
        built.append(index)
        return index

    monkeypatch.setattr(rclique, "build_neighbor_lists", charging_its_own_budget)
    for keywords in queries:
        answers = rclique_search(
            graph, keywords, 5.0, 32, extra_candidates=portals,
            enforce_bound=False, search_cutoff=5.0,
        )
        assert len(answers) == 32
    dequeued = counted.expansions
    settled = sum(
        len(lst)
        for index in built for lists in index.lists.values() for lst in lists.values()
    )
    assert len(built) == len(queries)
    assert 0 < dequeued <= settled // 2, (dequeued, settled)


_SEARCHES = {
    "rclique": rclique_search,
    "blinks": blinks_search,
    "banks": banks_search,
    "m1-rclique": lambda g, kw, tau, k: query_model_m1(g, g, "rclique", kw, tau, k),
    "m1-blinks": lambda g, kw, tau, k: query_model_m1(g, g, "blinks", kw, tau, k),
    "m2-rclique": lambda g, kw, tau, k: query_model_m2(
        g, g, "rclique", kw, tau, k, require_public_private=False
    ),
}


@pytest.mark.parametrize(
    "tau,k",
    [(math.nan, 5), (-1.0, 5), ("2", 5), (True, 5), (2.0, 2.5), (2.0, 0),
     (2.0, "5"), (2.0, True)],
)
@pytest.mark.parametrize("search", sorted(_SEARCHES))
def test_malformed_bound_or_count_is_refused(search, tau, k):
    """The wire's ``check_bound``/``check_count`` guard the direct API and
    the M1/M2 baselines: NaN, non-numbers and fractional counts are
    refused, not answered with ``[]``."""
    graph, _, _ = _graph(0)
    with pytest.raises(QueryError):
        _SEARCHES[search](graph, ["a", "b"], tau, k)
