"""The generated metric catalogue: every ``ppkws_*`` series, in one place.

This file is the single source of truth for metric names.  It was
generated by scanning the tree for registry calls and is kept honest in
both directions:

* **RA003** (:mod:`repro.analysis.rules.metrics`) fails the ``static``
  CI job when source code records a ``ppkws_*`` name missing from
  :data:`METRICS`;
* ``python -m repro.analysis --check-catalogue`` fails when a catalogue
  entry is missing from the README metric table, or lists a name no
  longer used anywhere in ``src/repro`` (a stale entry).

To add a metric: record it in code, add a :class:`Metric` entry here,
and add a row to the README's metric table — the CI gate enforces all
three stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

__all__ = ["Metric", "METRICS", "metric_names", "missing_from_text"]


@dataclass(frozen=True)
class Metric:
    """One catalogued metric family."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    help: str


def _m(name: str, kind: str, labels: Tuple[str, ...], help_text: str) -> Metric:
    return Metric(name=name, kind=kind, labels=labels, help=help_text)


#: name -> metric. Sorted by name; regenerate ordering when adding entries.
METRICS: Dict[str, Metric] = {
    metric.name: metric
    for metric in (
        _m(
            "ppkws_answer_cache_hits_total",
            "counter",
            (),
            "Cross-request answer-cache hits served by the service.",
        ),
        _m(
            "ppkws_answer_cache_misses_total",
            "counter",
            (),
            "Cross-request answer-cache misses (computed fresh).",
        ),
        _m(
            "ppkws_batch_cache_hits_total",
            "counter",
            (),
            "BatchSession completion-cache hits.",
        ),
        _m(
            "ppkws_batch_cache_misses_total",
            "counter",
            (),
            "BatchSession completion-cache misses.",
        ),
        _m(
            "ppkws_batch_items_total",
            "counter",
            ("status",),
            "Per-item outcomes inside {'op': 'batch'} requests "
            "(ok / degraded / cached / error).",
        ),
        _m(
            "ppkws_batch_requests_total",
            "counter",
            (),
            "{'op': 'batch'} wire requests admitted by the service.",
        ),
        _m(
            "ppkws_executor_completed_total",
            "counter",
            ("worker",),
            "Requests completed by each executor worker.",
        ),
        _m(
            "ppkws_executor_queue_depth",
            "gauge",
            (),
            "Submitted-but-unfinished requests in the executor.",
        ),
        _m(
            "ppkws_executor_wait_seconds",
            "histogram",
            (),
            "Queue wait before an executor worker picks a request up.",
        ),
        _m(
            "ppkws_faults_injected_total",
            "counter",
            ("point",),
            "Faults injected by an active repro.faults schedule, per point.",
        ),
        _m(
            "ppkws_in_flight_requests",
            "gauge",
            (),
            "Requests currently inside the service facade.",
        ),
        _m(
            "ppkws_index_corrupt_total",
            "counter",
            (),
            "Corrupt index files detected and quarantined to <path>.corrupt.",
        ),
        _m(
            "ppkws_internal_errors_total",
            "counter",
            ("error",),
            "Non-ReproError internals that crossed the facade boundary, "
            "plus observer malfunctions (error label prefixed 'observer:').",
        ),
        _m(
            "ppkws_networks",
            "gauge",
            (),
            "Registered (fully built) networks.",
        ),
        _m(
            "ppkws_pipeline_degraded_total",
            "counter",
            ("pipeline", "interrupted_step"),
            "Queries whose budget expired mid-pipeline.",
        ),
        _m(
            "ppkws_query_work_total",
            "counter",
            ("pipeline", "counter"),
            "QueryCounters fields summed across queries.",
        ),
        _m(
            "ppkws_rejected_total",
            "counter",
            (),
            "Requests rejected by admission control (overloaded).",
        ),
        _m(
            "ppkws_request_seconds",
            "histogram",
            ("op",),
            "End-to-end facade latency per op.",
        ),
        _m(
            "ppkws_retry_after_hint_total",
            "counter",
            (),
            "Overload rejections that carried a retry_after_ms hint.",
        ),
        _m(
            "ppkws_requests_total",
            "counter",
            ("op", "status"),
            "Facade requests by op and terminal status.",
        ),
        _m(
            "ppkws_shard_requests_total",
            "counter",
            ("kind",),
            "Requests routed whole to a shard worker (kind='execute').",
        ),
        _m(
            "ppkws_shard_respawns_total",
            "counter",
            (),
            "Shard worker process deaths recovered by respawn + "
            "admin-log replay.",
        ),
        _m(
            "ppkws_step_seconds",
            "histogram",
            ("pipeline", "step"),
            "Per-step wall time (PEval / ARefine / AComplete).",
        ),
        _m(
            "ppkws_worker_request_seconds",
            "histogram",
            ("worker",),
            "Per-worker request run latency in the executor.",
        ),
        _m(
            "ppkws_worker_respawns_total",
            "counter",
            (),
            "Executor worker deaths recovered by respawning the worker.",
        ),
    )
}


def metric_names() -> FrozenSet[str]:
    """The closed set of catalogued metric names."""
    return frozenset(METRICS)


def missing_from_text(text: str) -> List[str]:
    """Catalogued names absent from ``text`` (README sync check)."""
    return sorted(name for name in METRICS if name not in text)
