"""Bit-identity contract for the ``repro.core.engine`` refactor.

``tests/data/engine_equivalence.json`` froze the canonicalized results
of the full workload (``tests/engine_equivalence_data.py``) as produced
by the pre-refactor pipelines.  This suite re-runs the identical
workload against the current code and asserts exact equality — answers,
counters, ``completed_steps``/``interrupted_step`` bookkeeping and the
degraded salvage paths all included.

The two workload tests run once per route a public graph reaches the
engine by: handed over as the mutable ``LabeledGraph`` (``dict``, the
engine freezes it) or already frozen (``frozen``).  Both must replay the
golden file.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

import pytest

from repro.core.budget import QueryBudget
from repro.graph import combine
from repro.validation import validate_rooted_answer
from tests.conftest import PREFROZEN
from tests.engine_equivalence_data import (
    ABLATION_BUDGETS,
    KEYWORD_QUERIES,
    KNK_BUDGETS,
    KNK_KEYWORDS,
    ROOTED_BUDGETS,
    SEEDS,
    _budget,
    build_engine,
    canon_knk_result,
    canon_rooted_result,
    knk_sources,
    run_ablation_workload,
    run_workload,
    seeded_network,
)

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "engine_equivalence.json")


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with open(DATA, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["format"] == 1
    return payload


def _diff_runs(expected: List[Dict[str, Any]],
               actual: List[Dict[str, Any]], label: str) -> None:
    assert len(actual) == len(expected), label
    for exp, act in zip(expected, actual):
        assert act["query"] == exp["query"], label
        assert act["result"] == exp["result"], (
            f"{label}: result drifted for query {exp['query']!r}"
        )


@pytest.mark.parametrize("prefrozen", PREFROZEN, ids=lambda f: "frozen" if f else "dict")
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_bit_identical(golden: Dict[str, Any], seed: int,
                                prefrozen: bool) -> None:
    expected = golden["seeds"][str(seed)]
    actual = run_workload(build_engine(seed, prefrozen=prefrozen))
    for semantics in ("blinks", "rclique", "banks", "knk", "knk_multi"):
        _diff_runs(expected[semantics], actual[semantics],
                   f"seed {seed} {semantics}")


@pytest.mark.parametrize("prefrozen", PREFROZEN, ids=lambda f: "frozen" if f else "dict")
@pytest.mark.parametrize("seed", SEEDS)
def test_ablated_workload_bit_identical(golden: Dict[str, Any], seed: int,
                                        prefrozen: bool) -> None:
    expected = golden["seeds"][str(seed)]["ablation"]
    actual = run_ablation_workload(
        build_engine(seed, prefrozen=prefrozen, ablate=True)
    )
    for semantics in ("blinks", "rclique", "knk"):
        _diff_runs(expected[semantics], actual[semantics],
                   f"seed {seed} ablation/{semantics}")


@pytest.mark.parametrize("ablate", (False, True), ids=("default", "ablated"))
@pytest.mark.parametrize("seed", SEEDS)
def test_capped_run_is_the_uncapped_answers_or_a_valid_degraded_set(
    seed: int, ablate: bool
) -> None:
    """An expansion cap may degrade a rooted query, never change an ``ok``.

    Capped golden rows move whenever a kernel does less work per answer
    (the cap then binds later), so what the file pins for them is an
    implementation detail.  What must hold for *any* cap: a run that
    finished reports exactly the uncapped answers, and a run that did
    not is marked ``degraded`` and every answer it salvaged is
    achievable on the combined graph within ``tau``.
    """
    engine = build_engine(seed, ablate=ablate)
    gc = combine(*seeded_network(seed))
    caps = ABLATION_BUDGETS if ablate else ROOTED_BUDGETS
    for semantics in ("blinks", "rclique", "banks"):
        method = getattr(engine, semantics)
        for keywords, tau, k in KEYWORD_QUERIES:
            full = canon_rooted_result(method("owner", list(keywords), tau, k=k))
            assert not full["degraded"]
            for cap in filter(None, caps):
                got = method(
                    "owner", list(keywords), tau, k=k,
                    budget=QueryBudget(max_expansions=cap),
                )
                label = f"seed {seed} {semantics} {keywords} cap {cap}"
                if not got.degraded:
                    assert canon_rooted_result(got)["answers"] == full["answers"], label
                    continue
                assert got.interrupted_step is not None, label
                for answer in got.answers:
                    report = validate_rooted_answer(gc, answer, tau)
                    assert report.valid, (label, report.problems)


@pytest.mark.parametrize("seed", SEEDS)
def test_knk_is_knk_multi_with_one_keyword(seed: int) -> None:
    """Answers, counters and capped-run bookkeeping, under either mode."""
    engine = build_engine(seed)
    for source in knk_sources(engine):
        for keyword in KNK_KEYWORDS:
            for cap in KNK_BUDGETS:
                single = canon_knk_result(engine.knk(
                    "owner", source, keyword, k=4, budget=_budget(cap)
                ))
                for mode in ("and", "or"):
                    multi = canon_knk_result(engine.knk_multi(
                        "owner", source, [keyword], k=4, mode=mode,
                        budget=_budget(cap),
                    ))
                    assert multi == single, (seed, source, keyword, cap, mode)


@pytest.mark.parametrize("seed", SEEDS)
def test_named_methods_are_query_by_name(seed: int) -> None:
    """``engine.<name>(...)`` is ``engine.query("<name>", ...)``."""
    engine = build_engine(seed)
    keywords, tau, k = KEYWORD_QUERIES[0]
    source = knk_sources(engine)[0]
    for cap in (None, 10):
        for name in ("blinks", "rclique", "banks"):
            named = getattr(engine, name)(
                "owner", list(keywords), tau, k=k, budget=_budget(cap)
            )
            generic = engine.query(
                name, "owner", budget=_budget(cap), keywords=list(keywords),
                tau=tau, k=k, require_public_private=True,
            )
            assert canon_rooted_result(named) == canon_rooted_result(generic)
        named = engine.knk("owner", source, "a", k=4, budget=_budget(cap))
        generic = engine.query(
            "knk", "owner", budget=_budget(cap), source=source, keyword="a", k=4
        )
        assert canon_knk_result(named) == canon_knk_result(generic)
        named = engine.knk_multi(
            "owner", source, ["a", "b"], k=4, mode="or", budget=_budget(cap)
        )
        generic = engine.query(
            "knk_multi", "owner", budget=_budget(cap), source=source,
            keywords=["a", "b"], k=4, mode="or",
        )
        assert canon_knk_result(named) == canon_knk_result(generic)
