"""Instrumentation hooks called from the engine's hot layers.

Each hook is one function call per *query* (never per inner-loop
iteration) and returns immediately when no registry is installed, so the
un-observed fast path pays a global read plus a ``None`` check — within
noise of the pre-observability code (``bench/`` runs un-observed, so the
``BENCHMARK.json`` bounds hold it).

The pipeline hook lives here rather than in the pipeline modules so the
metric names stay in one catalogue:

``ppkws_step_seconds{pipeline,step}``
    Histogram of per-step wall time (PEval / ARefine / AComplete).
``ppkws_pipeline_degraded_total{pipeline,interrupted_step}``
    Queries whose budget expired mid-pipeline.
``ppkws_query_work_total{pipeline,counter}``
    The :class:`~repro.core.framework.QueryCounters` fields, summed.
``ppkws_batch_cache_hits_total`` / ``ppkws_batch_cache_misses_total``
    :class:`~repro.core.batch.BatchSession` completion-cache traffic.

The serving-layer hooks differ in one way: the service and executor
resolve their *own* effective registry (constructor-injected, else the
installed one), so these take the registry explicitly instead of
reading the global:

``ppkws_answer_cache_hits_total`` / ``ppkws_answer_cache_misses_total``
    Cross-request :class:`~repro.serving.cache.AnswerCache` traffic.
``ppkws_executor_queue_depth``
    Gauge of submitted-but-unfinished executor requests.
``ppkws_executor_wait_seconds`` / ``ppkws_worker_request_seconds{worker}``
    Queue wait and per-worker run-latency histograms.
``ppkws_executor_completed_total{worker}``
    Per-worker completion counter.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Optional

from repro.obs.registry import MetricsRegistry, installed

__all__ = [
    "observe_pipeline",
    "observe_batch_cache",
    "observe_batch_request",
    "observe_answer_cache",
    "observe_executor_queue",
    "observe_executor_request",
]

_STEPS = ("peval", "arefine", "acomplete")


def observe_pipeline(pipeline: str, result: Any) -> None:
    """Record one pipeline query result into the installed registry.

    ``result`` is a :class:`~repro.core.framework.QueryResult` or
    :class:`~repro.core.framework.KnkQueryResult`; duck-typing avoids an
    import cycle (core imports obs, not vice versa).
    """
    registry = installed()
    if registry is None:
        return
    breakdown = result.breakdown
    for step in _STEPS:
        registry.observe(
            "ppkws_step_seconds",
            getattr(breakdown, step),
            labels={"pipeline": pipeline, "step": step},
        )
    counters = result.counters
    for f in dataclass_fields(counters):
        value = getattr(counters, f.name)
        if value:
            registry.inc(
                "ppkws_query_work_total",
                amount=value,
                labels={"pipeline": pipeline, "counter": f.name},
            )
    if result.degraded:
        registry.inc(
            "ppkws_pipeline_degraded_total",
            labels={
                "pipeline": pipeline,
                "interrupted_step": result.interrupted_step or "unknown",
            },
        )


def observe_batch_cache(hits: int, misses: int) -> None:
    """Record completion-cache traffic deltas from a batch query."""
    if hits == 0 and misses == 0:
        return
    registry = installed()
    if registry is None:
        return
    if hits:
        registry.inc("ppkws_batch_cache_hits_total", amount=hits)
    if misses:
        registry.inc("ppkws_batch_cache_misses_total", amount=misses)


def observe_batch_request(items_by_status: "dict[str, int]") -> None:
    """Record one ``{"op": "batch"}`` request and its per-item outcomes."""
    registry = installed()
    if registry is None:
        return
    registry.inc("ppkws_batch_requests_total")
    for status, count in items_by_status.items():
        if count:
            registry.inc(
                "ppkws_batch_items_total",
                amount=count,
                labels={"status": status},
            )


def observe_answer_cache(registry: Optional[MetricsRegistry], hit: bool) -> None:
    """Record one cross-request answer-cache lookup outcome."""
    if registry is None:
        return
    if hit:
        registry.inc("ppkws_answer_cache_hits_total")
    else:
        registry.inc("ppkws_answer_cache_misses_total")


def observe_executor_queue(
    registry: Optional[MetricsRegistry], depth: int
) -> None:
    """Update the executor's queue-depth gauge."""
    if registry is None:
        return
    registry.set_gauge("ppkws_executor_queue_depth", depth)


def observe_executor_request(
    registry: Optional[MetricsRegistry],
    worker: str,
    wait_s: float,
    run_s: float,
) -> None:
    """Record one completed executor request: wait + per-worker latency."""
    if registry is None:
        return
    registry.observe("ppkws_executor_wait_seconds", wait_s)
    registry.observe(
        "ppkws_worker_request_seconds", run_s, labels={"worker": worker}
    )
    registry.inc("ppkws_executor_completed_total", labels={"worker": worker})
