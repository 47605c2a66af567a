"""Bit-identity contract for the ``repro.core.engine`` refactor.

``tests/data/engine_equivalence.json`` froze the canonicalized results
of the full workload (``tests/engine_equivalence_data.py``) as produced
by the pre-refactor pipelines.  This suite re-runs the identical
workload against the current code and asserts exact equality — answers,
counters, ``completed_steps``/``interrupted_step`` bookkeeping and the
degraded salvage paths all included.

The backend dimension is driven by ``REPRO_ENGINE_BACKEND`` so CI's
``semantics-matrix`` job can pin one backend per matrix leg:

* ``dict``   — mutable adjacency-dict backend only
* ``frozen`` — frozen CSR-style backend only
* unset      — both
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

import pytest

from repro.core.budget import QueryBudget
from repro.graph import combine
from repro.validation import validate_rooted_answer
from tests.engine_equivalence_data import (
    ABLATION_BUDGETS,
    KEYWORD_QUERIES,
    ROOTED_BUDGETS,
    SEEDS,
    build_engine,
    canon_rooted_result,
    run_ablation_workload,
    run_workload,
    seeded_network,
)

DATA = os.path.join(os.path.dirname(__file__), "data",
                    "engine_equivalence.json")

_BACKENDS = {"dict": (False,), "frozen": (True,)}.get(
    os.environ.get("REPRO_ENGINE_BACKEND", ""), (False, True)
)


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


@pytest.mark.parametrize("freeze", _BACKENDS, ids=lambda f: "frozen" if f else "dict")
@pytest.mark.parametrize("seed", SEEDS)
def test_workload_bit_identical(golden: Dict[str, Any], seed: int,
                                freeze: bool) -> None:
    expected = golden["seeds"][str(seed)]
    actual = run_workload(build_engine(seed, freeze=freeze))
    for semantics in ("blinks", "rclique", "banks", "knk", "knk_multi"):
        _diff_runs(expected[semantics], actual[semantics],
                   f"seed {seed} {semantics}")


@pytest.mark.parametrize("freeze", _BACKENDS, ids=lambda f: "frozen" if f else "dict")
@pytest.mark.parametrize("seed", SEEDS)
def test_ablated_workload_bit_identical(golden: Dict[str, Any], seed: int,
                                        freeze: bool) -> None:
    expected = golden["seeds"][str(seed)]["ablation"]
    actual = run_ablation_workload(
        build_engine(seed, freeze=freeze, ablate=True)
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
