"""Test-only oracle: PP-Blinks AComplete as it was before roots were
ranked before they were built (:func:`repro.core.pp_blinks._acomplete`).

Every swept vertex becomes a :class:`PartialAnswer` in part (a), every
answer runs the per-root completion of part (b), and part (c) walks the
stable ``sort_key()`` sort of them all.  Slow, but its candidate order,
budget checkpoints and counters *define* what the lazy body must
reproduce.  Same signature as the production body, so a test can patch
it in for either execution mode.  The old body statement for statement
(comments dropped); do not optimise.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.engine import PipelineContext
from repro.core.partial import PartialAnswer
from repro.core.pp_blinks import (
    _complete_roots,
    _merge_swept_root,
    _portal_sweep_seeds,
    _qualify,
)
from repro.graph.labeled_graph import Label, Vertex
from repro.semantics.answers import Match
from repro.semantics.blinks import offset_expansion


def reference_acomplete(
    ctx: PipelineContext,
    swept: Optional[Dict[Label, Dict[Vertex, Match]]] = None,
    public_probe: Optional[
        Callable[[Vertex, Label], Tuple[float, Optional[Vertex]]]
    ] = None,
) -> None:
    public, partials = ctx.engine.public, ctx.state
    keywords, tau = ctx.params["keywords"], ctx.params["tau"]
    if public_probe is None:
        public_probe = ctx.engine.index.provider().keyword_distance_with_witness

    answers: Dict[Vertex, PartialAnswer] = dict(partials)
    if swept is None:
        seeds_by_kw = _portal_sweep_seeds(public, ctx.attachment, partials, keywords)
        swept = {
            q: offset_expansion(public, seeds, tau, ctx.budget) if seeds else {}
            for q, seeds in seeds_by_kw.items()
        }
    touched: Set[Vertex] = set()
    for cover in swept.values():
        touched.update(cover)
    for u in sorted(touched, key=repr):
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        _merge_swept_root(answers, u, swept, keywords)

    _complete_roots(ctx, answers, public_probe)

    _qualify(ctx, sorted(answers.values(), key=lambda p: p.answer.sort_key()))
