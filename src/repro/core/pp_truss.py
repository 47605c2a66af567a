"""PP-truss: public-private k-truss community search.

The sixth registered semantics — and the engine's proof of generality:
the paper's PEval / ARefine / AComplete frame carries a *cohesive
subgraph* semantics, not just distance-based keyword search, without the
engine changing at all.

* **PEval** computes, for every private edge ``(u, v)``, its support on
  the private graph alone: ``|N'(u) ∩ N'(v)|``.  Private-only supports
  are lower bounds on the combined-graph supports (adding public edges
  can only add triangles).
* **ARefine** corrects each private edge's support to its exact value on
  ``Gc`` using the union neighborhoods ``N_Gc(x) = N(x) ∪ N'(x)`` —
  the truss analogue of the Eq.-4 distance refinement (portals are
  exactly the vertices whose neighborhoods grow).
* **AComplete** extends the support table to the public edges (same
  union-neighborhood count), peels the combined edge set down to the
  k-truss, splits it into connected components and keeps those covering
  the query keywords and — when ``require_public_private`` is set —
  containing at least one private and one public edge (the Def.-II.2
  qualification: an answer must genuinely span both graphs).

Because supports entering the peel are exact on ``Gc``, and a k-truss is
the unique maximal subgraph with all supports >= k - 2, the pipeline's
output equals :func:`repro.semantics.truss.truss_search` on the
materialized combined graph (the equivalence the test suite pins).

On budget expiry the salvage peels the *private* edges whose supports
were computed so far — a best-effort private-side community answer (an
over-approximation when ARefine already raised some supports with public
triangles); the Def.-II.2 qualification is skipped since completion
never ran.

Budget checkpoints, step timing, degradation bookkeeping and obs hooks
all live in :mod:`repro.core.engine` (the engine equivalence suite
pins them); this module only
declares the steps and registers the :data:`TRUSS` spec.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Sequence, Set

from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
)
from repro.core.framework import Attachment, PPKWS, QueryResult
from repro.exceptions import QueryError
from repro.graph.labeled_graph import Label, Vertex
from repro.semantics.truss import (
    EdgeKey,
    TrussAnswer,
    covers_keywords,
    edge_key,
    peel_truss,
    truss_components,
)
from repro.semantics.wire import (
    Field,
    check_count,
    check_flag,
    check_keywords,
    truss_payload,
)

__all__ = ["TRUSS"]


def _combined_neighbors(
    engine: PPKWS, attachment: Attachment, cache: Dict[Vertex, Set[Vertex]], v: Vertex
) -> Set[Vertex]:
    """``N_Gc(v) = N(v) ∪ N'(v)``, memoized per query."""
    hit = cache.get(v)
    if hit is None:
        hit = set()
        if v in engine.public:
            hit.update(engine.public.neighbors(v))
        if v in attachment.private:
            hit.update(attachment.private.neighbors(v))
        cache[v] = hit
    return hit


def _step_peval(ctx: PipelineContext) -> None:
    """Private-edge supports on the private graph alone (lower bounds)."""
    private = ctx.attachment.private
    support: Dict[EdgeKey, int] = ctx.state
    adj = {v: set(private.neighbors(v)) for v in private.vertices()}
    for e in sorted(
        (edge_key(u, v) for u, v, _ in private.edges()), key=repr
    ):
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        u, v = e
        support[e] = len(adj[u] & adj[v])
    threshold = ctx.params["k"] - 2
    ctx.counters.partial_answers = sum(
        1 for s in support.values() if s >= threshold
    )


def _step_arefine(ctx: PipelineContext) -> None:
    """Correct private-edge supports to exact combined-graph values."""
    support: Dict[EdgeKey, int] = ctx.state
    nbrs: Dict[Vertex, Set[Vertex]] = ctx.scratch.setdefault("nbrs", {})
    for e in sorted(support, key=repr):
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        ctx.counters.refinement_checks += 1
        u, v = e
        exact = len(
            _combined_neighbors(ctx.engine, ctx.attachment, nbrs, u)
            & _combined_neighbors(ctx.engine, ctx.attachment, nbrs, v)
        )
        if exact != support[e]:
            support[e] = exact
            ctx.counters.refinements_applied += 1


def _step_acomplete(ctx: PipelineContext) -> None:
    """Public-edge supports, global peel, components, qualification."""
    engine = ctx.engine
    attachment = ctx.attachment
    support: Dict[EdgeKey, int] = ctx.state
    nbrs: Dict[Vertex, Set[Vertex]] = ctx.scratch.setdefault("nbrs", {})
    public_edges = sorted(
        (edge_key(u, v) for u, v, _ in engine.public.edges()), key=repr
    )
    for e in public_edges:
        if e in support:  # a portal-portal edge present in both graphs
            continue
        if ctx.budget is not None:
            ctx.budget.checkpoint()
        u, v = e
        support[e] = len(
            _combined_neighbors(engine, attachment, nbrs, u)
            & _combined_neighbors(engine, attachment, nbrs, v)
        )
    ctx.counters.completion_lookups = len(support)

    adj: Dict[Vertex, Set[Vertex]] = {}
    for u, v in support:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    surviving = peel_truss(adj, support, ctx.params["k"], ctx.budget)
    answers = truss_components(adj, surviving)

    keywords: Sequence[Label] = ctx.params["keywords"]
    private = attachment.private
    public = engine.public

    def combined_labels(v: Vertex):
        out = frozenset()
        if v in public:
            out |= public.labels(v)
        if v in private:
            out |= private.labels(v)
        return out

    kept: List[TrussAnswer] = []
    for a in answers:
        if keywords and not covers_keywords(combined_labels, a.vertices, keywords):
            ctx.counters.answers_pruned += 1
            continue
        if ctx.params["require_public_private"]:
            # Def. II.2: a public-private answer must span both graphs —
            # here, carry at least one private and one public edge
            # (shared portal-portal edges count for both sides).
            has_private = any(private.has_edge(u, v) for u, v in a.edges)
            has_public = any(public.has_edge(u, v) for u, v in a.edges)
            if not (has_private and has_public):
                ctx.counters.answers_pruned += 1
                continue
        kept.append(a)
    ctx.answers = kept


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------
def _check_k(field: str, value: Any) -> int:
    if check_count(field, value) < 2:
        raise QueryError(f"field {field!r}: k-truss requires k >= 2, got {value}")
    return value


def _init(ctx: PipelineContext) -> None:
    p = ctx.params
    p["keywords"] = list(dict.fromkeys(p["keywords"]))
    ctx.state = {}


def _salvage(ctx: PipelineContext, step: str) -> List[TrussAnswer]:
    """Best-effort private-side communities from the supports seen so far."""
    private = ctx.attachment.private
    support = {
        e: s for e, s in ctx.state.items() if private.has_edge(e[0], e[1])
    }
    adj: Dict[Vertex, Set[Vertex]] = {}
    for u, v in support:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    surviving = peel_truss(adj, support, ctx.params["k"])
    answers = truss_components(adj, surviving)
    keywords = ctx.params["keywords"]
    if keywords:
        answers = [
            a for a in answers
            if covers_keywords(private.labels, a.vertices, keywords)
        ]
    return answers


TRUSS = register_semantics(SemanticsSpec(
    name="truss",
    summary="Keyword-covering k-truss communities (public-private k-truss).",
    steps=(
        StepSpec("peval", _step_peval),
        StepSpec("arefine", _step_arefine),
        StepSpec("acomplete", _step_acomplete),
    ),
    init=_init,
    salvage=_salvage,
    count_answers=len,
    result_type=QueryResult,
    fields=(
        Field("k", _check_k, key=True),
        Field("keywords", partial(check_keywords, least=0), (), key=True),
        Field("require_public_private", check_flag, True, wire=False),
    ),
    wire_payload=truss_payload,
))

