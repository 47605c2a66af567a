"""PP-BANKS: tree answers on top of PPKWS.

BANKS answers are Blinks answers plus the materialized tree, so the
framework part is exactly PP-Blinks; only the *presentation* differs.
Reconstructing trees during search would defeat PPKWS (it would traverse
the combined graph), so PP-BANKS:

1. runs the PP-Blinks steps (PEval / ARefine / AComplete — the spec
   literally shares the step functions of :mod:`repro.core.pp_blinks`)
   to get the top-k rooted answers, then
2. materializes each answer's tree by shortest-path reconstruction over
   the *lazy* combined view (:func:`repro.graph.views.combine_lazy`) —
   ``O(k)`` point-to-point searches, no graph copy.

A pleasant side effect: reconstruction computes exact combined-graph
paths, so the returned match distances are exact (they can only improve
on the sketch estimates that ranked the answers).

The ``materialize`` step is engine-timed like any other but has no
:class:`~repro.core.framework.StepBreakdown` slot (the breakdown is the
paper's three-step accounting); a budget expiring mid-materialization
salvages the trees already built plus the remaining rooted answers.
"""

from __future__ import annotations

from typing import List

from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import QueryResult
from repro.core.pp_blinks import (
    init_blinks_state,
    salvage_blinks,
    step_acomplete,
    step_arefine,
    step_peval,
    validate_blinks_params,
)
from repro.graph.traversal import shortest_path
from repro.graph.views import combine_lazy
from repro.semantics.answers import RootedAnswer
from repro.semantics.banks import TreeAnswer
from repro.semantics.wire import (
    rooted_cache_params,
    rooted_payload,
    rooted_wire_params,
)

__all__ = ["BANKS"]


def _step_materialize(ctx: PipelineContext) -> None:
    """Step 4: reconstruct each answer's tree on the lazy combined view."""
    view = combine_lazy(ctx.engine.public, ctx.attachment.private)
    trees: List[RootedAnswer] = ctx.scratch.setdefault("trees", [])
    for idx, answer in enumerate(ctx.answers):
        # Progress markers for salvage: trees built so far, index of the
        # answer being materialized when the budget expired.
        ctx.scratch["idx"] = idx
        tree = TreeAnswer(answer.root, {})
        for q, m in answer.matches.items():
            tree.matches[q] = m.copy()
            if m.vertex is None or m.vertex == answer.root:
                continue
            path = shortest_path(view, answer.root, m.vertex, budget=ctx.budget)
            if path is None:  # pragma: no cover - answers are connected
                continue
            total = 0.0
            for u, v in zip(path, path[1:]):
                tree.edges.add(frozenset((u, v)))
                total += view.weight(u, v)
            # Exact path length can only improve on the sketch estimate.
            if total < tree.matches[q].distance:
                tree.matches[q].distance = total
        trees.append(tree)
    trees.sort(key=RootedAnswer.sort_key)
    ctx.answers = list(trees)


def _salvage(ctx: PipelineContext, step: str) -> List[RootedAnswer]:
    if step == "materialize":
        # Trees already materialized keep their edges / exact paths; the
        # remaining rooted answers ride along as-is (ranked, no edges).
        trees: List[RootedAnswer] = ctx.scratch.get("trees", [])
        idx: int = ctx.scratch.get("idx", 0)
        salvaged = list(trees) + list(ctx.answers[idx:])
        salvaged.sort(key=RootedAnswer.sort_key)
        return salvaged
    return salvage_blinks(ctx, step)


BANKS = register_semantics(SemanticsSpec(
    name="banks",
    summary="Top-k tree answers (PP-BANKS: Blinks + lazy materialization).",
    steps=(
        StepSpec("peval", step_peval),
        StepSpec("arefine", step_arefine),
        StepSpec("acomplete", step_acomplete),
        StepSpec("materialize", _step_materialize),
    ),
    validate=validate_blinks_params,
    init=init_blinks_state,
    salvage=_salvage,
    count_answers=len,
    result_type=QueryResult,
    wire_required=("network", "owner", "keywords"),
    wire_optional=("tau", "k"),
    wire_params=rooted_wire_params,
    wire_payload=rooted_payload,
    wire_cache_params=rooted_cache_params,
))

