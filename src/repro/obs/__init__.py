"""Observability: process-wide metrics, query traces, Prometheus export.

The ROADMAP's production story ("heavy traffic from millions of users")
needs a monitoring plane: per-op request/latency/degradation metrics, the
per-step timings the paper plots in Fig. 6, cache hit rates, and a ring
of recent slow/degraded/errored query traces.  This package provides it
with zero dependencies and near-zero cost when disabled.

Quick tour::

    from repro import obs

    registry = obs.MetricsRegistry()
    obs.install(registry)                 # process-wide, or pass
                                          # PPKWSService(registry=...)

    service.execute({"op": "blinks", ...})

    registry.value("ppkws_requests_total",
                   labels={"op": "blinks", "status": "ok"})
    print(obs.render_prometheus(registry))   # scrape-ready text

Per-request traces ride in responses behind a request flag
(``"trace": true``) and the service keeps the most recent slow / degraded
/ errored traces in a bounded ring buffer, exposed by the ``metrics``
service op.  See the README's "Observability" section for the metric
catalogue.
"""

from repro.obs.hooks import (
    observe_answer_cache,
    observe_batch_cache,
    observe_batch_request,
    observe_executor_queue,
    observe_executor_request,
    observe_pipeline,
)
from repro.obs.prometheus import render_prometheus
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    HistogramValue,
    MetricsRegistry,
    install,
    installed,
    uninstall,
)
from repro.obs.trace import QueryTrace, TraceRing

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramValue",
    "MetricsRegistry",
    "QueryTrace",
    "TraceRing",
    "install",
    "installed",
    "observe_answer_cache",
    "observe_batch_cache",
    "observe_batch_request",
    "observe_executor_queue",
    "observe_executor_request",
    "observe_pipeline",
    "render_prometheus",
    "uninstall",
]
