"""The PPKWS query engine: one PEval → ARefine → AComplete orchestrator.

The paper's central claim is that PEval/ARefine/AComplete is a *general
frame* over keyword-search semantics.  This module makes the claim
structural: every semantics is a declarative :class:`SemanticsSpec` — a
validator, a state initializer, an ordered tuple of :class:`StepSpec`
callables and a salvage function — registered with a process-wide
registry, and :func:`run_pipeline` is the **only** code that

* threads :class:`~repro.core.budget.QueryBudget` checkpoints between
  steps (``recheck`` at every step boundary after the first),
* times steps into the :class:`~repro.core.framework.StepBreakdown`,
* fires the ``core.engine.step`` fault-injection point,
* handles :class:`~repro.exceptions.BudgetError` degradation — the
  ``completed_steps`` / ``interrupted_step`` bookkeeping and the call
  into the spec's salvage function, and
* records the query into :mod:`repro.obs` (``ppkws_step_seconds``,
  ``ppkws_query_work_total``) exactly once.

The five original pipelines (``blinks``, ``rclique``, ``knk`` and
``knk_multi`` — one module, ``pp_knk`` — and ``banks``) are specs now;
``pp_truss`` — the public-private k-truss port — is the sixth, and the
proof that adding a semantics is a one-module job.  The engine
equivalence suite (``tests/test_engine_equivalence.py``) keeps it that
way: its golden fixtures pin every semantics' payloads and degradation
fields, so a ``pp_*`` module that hand-rolls its own step loop shows up
as a diff.

Degradation contract (kept bit-identical to the pre-engine pipelines):

* the budget is **not** rechecked before the first step;
* when a recheck at a step boundary raises, the previous step's timer is
  the one still in scope, so its elapsed time lands in the *new* step's
  breakdown slot (a deliberate quirk the equivalence fixtures pin);
* ``completed_steps`` holds the steps that finished, ``interrupted_step``
  the one cut short, and the salvage function sees both the mutable
  pipeline state and the interrupted step name.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)

from repro import faults
from repro.core.budget import QueryBudget
from repro.core.framework import (
    Attachment,
    KnkQueryResult,
    PPKWS,
    QueryCounters,
    QueryOptions,
    QueryResult,
    StepBreakdown,
    _Timer,
)
from repro.exceptions import BudgetError, QueryError
from repro.faults.points import ENGINE_STEP
from repro.obs import observe_pipeline

__all__ = [
    "PipelineContext",
    "StepSpec",
    "SemanticsSpec",
    "run_pipeline",
    "register_semantics",
    "unregister_semantics",
    "semantics_spec",
    "registered_semantics",
    "registry_version",
    "ensure_builtin_semantics",
]

AnyResult = Union[QueryResult, KnkQueryResult]


@dataclass
class PipelineContext:
    """Everything one query run threads through its steps.

    ``params`` are the normalized query parameters (the spec's ``init``
    may rewrite them, e.g. deduplicating keywords); ``state`` is the
    mutable partial-answer structure salvage reads after a budget expiry
    (initialized *before* the first step so a mid-step interrupt always
    has something to salvage); ``answers`` is where the final step
    leaves the completed answers; ``scratch`` is free-form per-run
    storage for multi-step coordination (e.g. BANKS' materialized-tree
    progress).
    """

    engine: PPKWS
    attachment: Attachment
    params: Dict[str, Any]
    options: QueryOptions
    counters: QueryCounters
    breakdown: StepBreakdown
    budget: Optional[QueryBudget] = None
    cache: Optional[Any] = None
    state: Any = None
    answers: Any = None
    scratch: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class StepSpec:
    """One named pipeline step: a side-effecting callable on the context."""

    name: str
    run: Callable[[PipelineContext], None]


@dataclass(frozen=True)
class SemanticsSpec:
    """A keyword-search semantics, declaratively.

    The pipeline fields drive :func:`run_pipeline`; the ``wire_*``
    fields let :mod:`repro.service` generate the query op (request
    schema, cache key, response payload) straight from the registry, so
    a newly registered semantics shows up in ``help`` and on the wire
    without touching the service.
    """

    # -- pipeline ------------------------------------------------------
    name: str
    summary: str
    steps: Tuple[StepSpec, ...]
    validate: Callable[[PipelineContext], None]
    init: Callable[[PipelineContext], None]
    salvage: Callable[[PipelineContext, str], Any]
    count_answers: Callable[[Any], int]
    result_type: Callable[..., AnyResult]
    # -- wire protocol -------------------------------------------------
    wire_required: Tuple[str, ...]
    wire_optional: Tuple[str, ...]
    wire_params: Callable[[Dict[str, Any]], Dict[str, Any]]
    wire_payload: Callable[[AnyResult], Dict[str, Any]]
    wire_cache_params: Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]]
    # -- baselines (Appx. D query models) ------------------------------
    #: run this semantics directly on one plain graph — M1 evaluates it
    #: on G and G' separately, M2 on the combined graph.  Signature:
    #: ``(graph, keywords, tau, k) -> answers``.  None = the semantics
    #: has no single-graph baseline (query_model_m1/m2 raise QueryError).
    baseline_m1: Optional[Callable[..., Any]] = None
    baseline_m2: Optional[Callable[..., Any]] = None

    def run(
        self,
        engine: PPKWS,
        attachment: Attachment,
        params: Dict[str, Any],
        budget: Optional[QueryBudget] = None,
        cache: Optional[Any] = None,
    ) -> AnyResult:
        """Run this semantics through the engine (see :func:`run_pipeline`)."""
        return run_pipeline(self, engine, attachment, params, budget, cache)


def run_pipeline(
    spec: SemanticsSpec,
    engine: PPKWS,
    attachment: Attachment,
    params: Dict[str, Any],
    budget: Optional[QueryBudget] = None,
    cache: Optional[Any] = None,
) -> AnyResult:
    """The one PEval → ARefine → AComplete loop all semantics share.

    Validation errors (:class:`~repro.exceptions.QueryError`) propagate;
    :class:`~repro.exceptions.BudgetError` degrades the query to
    whatever the spec can salvage (see the module docstring for the
    exact bookkeeping contract).
    """
    counters = QueryCounters()
    breakdown = StepBreakdown()
    ctx = PipelineContext(
        engine=engine,
        attachment=attachment,
        params=params,
        options=engine.options,
        counters=counters,
        breakdown=breakdown,
        budget=budget,
        cache=cache,
    )
    spec.validate(ctx)
    spec.init(ctx)

    completed: List[str] = []
    step = spec.steps[0].name
    t = _Timer()
    try:
        for i, s in enumerate(spec.steps):
            step = s.name
            # The first step runs on whatever budget is left; boundaries
            # between steps re-arm the adaptive deadline check.  When the
            # boundary recheck raises, ``t`` below is still the previous
            # step's timer — see the module docstring.
            if i and ctx.budget is not None:
                ctx.budget.recheck()
            faults.fire(ENGINE_STEP)
            with _Timer() as t:
                s.run(ctx)
            breakdown.record(step, t.elapsed)
            completed.append(step)
    except BudgetError:
        breakdown.record(step, t.elapsed)
        answers = spec.salvage(ctx, step)
        counters.final_answers = spec.count_answers(answers)
        result = spec.result_type(
            answers, breakdown, counters,
            degraded=True,
            completed_steps=tuple(completed),
            interrupted_step=step,
        )
        observe_pipeline(spec.name, result)
        return result

    answers = ctx.answers
    counters.final_answers = spec.count_answers(answers)
    result = spec.result_type(answers, breakdown, counters)
    observe_pipeline(spec.name, result)
    return result


# ----------------------------------------------------------------------
# the semantics registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, SemanticsSpec] = {}
_REGISTRY_LOCK = threading.Lock()
#: bumped on every successful (un)register_semantics; lets callers cache
#: registry-derived structures with one lock-free int comparison instead
#: of re-sorting the name list per request (the serving hot path).
_REGISTRY_VERSION = 0


def register_semantics(spec: SemanticsSpec) -> SemanticsSpec:
    """Register ``spec`` process-wide; returns it for assignment style.

    Raises ``ValueError`` on a duplicate name or a structurally broken
    spec (no steps, an unnamed or non-callable step, duplicate step
    names) — a bad plugin should fail at import time, not mid-query.
    """
    if not spec.steps:
        raise ValueError(f"semantics {spec.name!r} declares no steps")
    seen: set = set()
    for s in spec.steps:
        if not s.name:
            raise ValueError(f"semantics {spec.name!r} has an unnamed step")
        if not callable(s.run):
            raise ValueError(
                f"semantics {spec.name!r} step {s.name!r} is missing its "
                "run callable"
            )
        if s.name in seen:
            raise ValueError(
                f"semantics {spec.name!r} declares step {s.name!r} twice"
            )
        seen.add(s.name)
    global _REGISTRY_VERSION
    with _REGISTRY_LOCK:
        if spec.name in _REGISTRY:
            raise ValueError(f"duplicate semantics {spec.name!r}")
        _REGISTRY[spec.name] = spec
        _REGISTRY_VERSION += 1
    return spec


def unregister_semantics(name: str) -> None:
    """Undo :func:`register_semantics` for ``name``; bumps :func:`registry_version`."""
    global _REGISTRY_VERSION
    with _REGISTRY_LOCK:
        del _REGISTRY[name]
        _REGISTRY_VERSION += 1


def semantics_spec(name: str) -> SemanticsSpec:
    """The registered spec called ``name``.

    Raises :class:`~repro.exceptions.QueryError` (wire code
    ``bad_request``) when no such semantics exists.
    """
    ensure_builtin_semantics()
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise QueryError(
                f"unknown semantics {name!r} (registered: {known})"
            ) from None


def registered_semantics() -> Tuple[str, ...]:
    """All registered semantics names, sorted."""
    ensure_builtin_semantics()
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def registry_version() -> int:
    """A counter that changes whenever a semantics registers or is removed.

    Reading it is lock-free (a single int load), so per-request caches
    keyed on it cost one comparison instead of a lock + sort — see
    ``repro.service._current_ops``.
    """
    ensure_builtin_semantics()
    return _REGISTRY_VERSION


_BUILTINS_LOADED = False
_BUILTINS_LOCK = threading.Lock()


def ensure_builtin_semantics() -> None:
    """Import the built-in pipeline modules so their specs register.

    The engine must not import them at module level (they import the
    engine), so registration is lazy and idempotent.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_LOCK:
        if _BUILTINS_LOADED:
            return
        import repro.core.pp_blinks  # noqa: F401
        import repro.core.pp_rclique  # noqa: F401
        import repro.core.pp_knk  # noqa: F401
        import repro.core.pp_banks  # noqa: F401
        import repro.core.pp_truss  # noqa: F401
        _BUILTINS_LOADED = True
