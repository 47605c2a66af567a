"""Seeded networks + workload for the engine-equivalence golden suite.

The engine refactor (``repro.core.engine``) must keep every answer of the
five pre-existing semantics **bit-identical**.  This module builds the
deterministic public/private pairs and the query workload both sides of
that contract share:

* ``scripts/capture_equivalence.py`` ran this workload against the
  pre-refactor pipelines and froze the canonicalized results into
  ``tests/data/engine_equivalence.json``;
* ``tests/test_engine_equivalence.py`` re-runs the same workload against
  the current code and asserts the canonical forms match the frozen file
  exactly — counters, degradation bookkeeping and all.

Budgeted runs use ``max_expansions`` only: expansion counting is exact
and deterministic, unlike wall-clock deadlines, so even the *degraded*
results (salvage paths, ``interrupted_step``) are pinned.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.budget import QueryBudget
from repro.core.framework import (
    PPKWS,
    KnkQueryResult,
    QueryOptions,
    QueryResult,
)
from repro.graph.labeled_graph import LabeledGraph

from tests.conftest import handed, random_connected_graph

#: The seeded networks the golden file covers.
SEEDS: Tuple[int, ...] = (11, 23, 37)

#: (keywords, tau, k) triples for the rooted semantics.
KEYWORD_QUERIES: Tuple[Tuple[Tuple[str, ...], float, int], ...] = (
    (("a", "b"), 4.0, 5),
    (("a", "z"), 6.0, 3),
    (("b", "c", "z"), 8.0, 4),
)

#: ``max_expansions`` budgets per rooted query (None = unbudgeted).  Cap
#: 10 expires inside PEval for every semantics; 40 and 150 did too for
#: Blinks/BANKS until the expansion kernels stopped queueing entries that
#: could never settle, and now land in AComplete / materialize.
ROOTED_BUDGETS: Tuple[Optional[int], ...] = (None, 10, 40, 150)

#: ``max_expansions`` budgets per k-nk query.
KNK_BUDGETS: Tuple[Optional[int], ...] = (None, 5, 12)

#: the single keywords the k-nk workload asks for (``z`` is private-only).
KNK_KEYWORDS: Tuple[str, ...] = ("a", "z")

#: Budgets for the ablated-options engine (reduced refinement and the
#: completion cache both off): cap 50 interrupts ARefine on blinks, 400
#: interrupts PEval, ARefine or AComplete on r-clique depending on the
#: query, pinning salvage paths the default options never reach (no
#: refined portal pairs => ARefine is loop-free).
ABLATION_BUDGETS: Tuple[Optional[int], ...] = (None, 50, 400)


def seeded_network(seed: int) -> Tuple[LabeledGraph, LabeledGraph]:
    """One deterministic public/private pair with portal structure."""
    public = random_connected_graph(
        n=36, extra_edges=18, seed=seed, labels=("a", "b", "c", "d")
    )
    rng = random.Random(seed * 7919 + 13)
    portals = sorted(rng.sample(range(36), 3))
    members = [f"m{i}" for i in range(6)]
    nodes: List[Any] = list(portals) + members
    private = LabeledGraph(f"priv{seed}")
    private.add_vertex(nodes[0])
    for i in range(1, len(nodes)):
        private.add_edge(nodes[i], nodes[rng.randrange(i)], rng.choice([1.0, 1.0, 2.0]))
    for _ in range(4):
        u, v = rng.sample(nodes, 2)
        if not private.has_edge(u, v):
            private.add_edge(u, v, rng.choice([1.0, 2.0]))
    for m in members:
        private.add_labels(m, rng.sample(("a", "b", "z"), rng.randint(1, 2)))
    # Guarantee the private-only keyword and a shared one exist.
    private.add_labels(members[0], {"z"})
    private.add_labels(members[1], {"a"})
    return public, private


def build_engine(
    seed: int, prefrozen: bool = True, ablate: bool = False
) -> PPKWS:
    """A PPKWS engine over the seeded pair with ``"owner"`` attached.

    ``prefrozen`` picks how the public graph is handed over: frozen, or
    as the ``LabeledGraph`` the engine then freezes (same engine).

    ``ablate=True`` turns both Sec.-VI optimizations off (full ARefine
    double loop, no completion cache) so the workload also pins the
    unoptimized code paths.
    """
    public, private = seeded_network(seed)
    options = (
        QueryOptions(reduced_refinement=False, dp_completion=False)
        if ablate
        else None
    )
    engine = PPKWS(handed(public, prefrozen), sketch_k=2, options=options)
    engine.attach("owner", private)
    return engine


# ----------------------------------------------------------------------
# canonicalization (JSON-able, backend- and refactor-independent)
# ----------------------------------------------------------------------
def _canon_rooted_answer(answer: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "root": repr(answer.root),
        "weight": answer.weight(),
        "matches": {
            q: [repr(m.vertex), m.distance]
            for q, m in sorted(answer.matches.items())
        },
    }
    edges = getattr(answer, "edges", None)
    if edges is not None:
        out["edges"] = sorted(sorted(repr(v) for v in e) for e in edges)
    return out


def canon_rooted_result(result: QueryResult) -> Dict[str, Any]:
    """Canonical form of a Blinks / r-clique / BANKS result."""
    return {
        "degraded": result.degraded,
        "completed_steps": list(result.completed_steps),
        "interrupted_step": result.interrupted_step,
        "counters": asdict(result.counters),
        "answers": [_canon_rooted_answer(a) for a in result.answers],
    }


def canon_knk_result(result: KnkQueryResult) -> Dict[str, Any]:
    """Canonical form of a (multi-)k-nk result."""
    answer = result.answer
    return {
        "degraded": result.degraded,
        "completed_steps": list(result.completed_steps),
        "interrupted_step": result.interrupted_step,
        "counters": asdict(result.counters),
        "answer": {
            "source": repr(answer.source),
            "keyword": answer.keyword,
            "matches": [
                [repr(m.vertex), m.distance] for m in answer.matches
            ],
        },
    }


def _budget(max_expansions: Optional[int]) -> Optional[QueryBudget]:
    if max_expansions is None:
        return None
    return QueryBudget(max_expansions=max_expansions)


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run_ablation_workload(engine: PPKWS) -> Dict[str, List[Dict[str, Any]]]:
    """The rooted + k-nk workload on an ablated-options engine."""
    private = engine.attachment("owner").private
    members = sorted((v for v in private.vertices() if isinstance(v, str)), key=repr)
    out: Dict[str, List[Dict[str, Any]]] = {"blinks": [], "rclique": [], "knk": []}
    for keywords, tau, k in KEYWORD_QUERIES:
        for cap in ABLATION_BUDGETS:
            query = {"keywords": list(keywords), "tau": tau, "k": k,
                     "max_expansions": cap}
            for semantics in ("blinks", "rclique"):
                method = getattr(engine, semantics)
                result = method("owner", list(keywords), tau, k=k, budget=_budget(cap))
                out[semantics].append(
                    {"query": dict(query), "result": canon_rooted_result(result)}
                )
    for cap in KNK_BUDGETS:
        result = engine.knk("owner", members[0], "a", k=4, budget=_budget(cap))
        out["knk"].append(
            {
                "query": {"source": repr(members[0]), "keyword": "a", "k": 4,
                          "max_expansions": cap},
                "result": canon_knk_result(result),
            }
        )
    return out


def knk_sources(engine: PPKWS) -> List[Any]:
    """The workload's k-nk query vertices: two members and a portal."""
    attachment = engine.attachment("owner")
    members = sorted(
        (v for v in attachment.private.vertices() if isinstance(v, str)),
        key=repr,
    )
    return [members[0], members[2], sorted(attachment.portals, key=repr)[0]]


def run_workload(engine: PPKWS) -> Dict[str, List[Dict[str, Any]]]:
    """Every (semantics, query, budget) combination, canonicalized."""
    sources = knk_sources(engine)

    out: Dict[str, List[Dict[str, Any]]] = {
        "blinks": [], "rclique": [], "banks": [], "knk": [], "knk_multi": [],
    }
    for keywords, tau, k in KEYWORD_QUERIES:
        for cap in ROOTED_BUDGETS:
            query = {"keywords": list(keywords), "tau": tau, "k": k,
                     "max_expansions": cap}
            for semantics in ("blinks", "rclique", "banks"):
                method = getattr(engine, semantics)
                result = method("owner", list(keywords), tau, k=k, budget=_budget(cap))
                out[semantics].append(
                    {"query": dict(query), "result": canon_rooted_result(result)}
                )
    for source in sources:
        for keyword in KNK_KEYWORDS:
            for cap in KNK_BUDGETS:
                result = engine.knk("owner", source, keyword, k=4, budget=_budget(cap))
                out["knk"].append(
                    {
                        "query": {"source": repr(source), "keyword": keyword,
                                  "k": 4, "max_expansions": cap},
                        "result": canon_knk_result(result),
                    }
                )
    for mode in ("and", "or"):
        for cap in KNK_BUDGETS:
            result = engine.knk_multi(
                "owner", sources[0], ["a", "b"], k=4, mode=mode,
                budget=_budget(cap),
            )
            out["knk_multi"].append(
                {
                    "query": {"source": repr(sources[0]),
                              "keywords": ["a", "b"], "k": 4, "mode": mode,
                              "max_expansions": cap},
                    "result": canon_knk_result(result),
                }
            )
    return out


def capture_all() -> Dict[str, Any]:
    """The full golden payload: one workload run per seed.

    Each seed runs the default-options workload plus the ablated-options
    one (stored under the ``"ablation"`` key of the per-seed dict).
    """
    seeds: Dict[str, Any] = {}
    for seed in SEEDS:
        per_seed: Dict[str, Any] = run_workload(build_engine(seed))
        per_seed["ablation"] = run_ablation_workload(build_engine(seed, ablate=True))
        seeds[str(seed)] = per_seed
    return {"format": 1, "seeds": seeds}
