"""Unit tests for the observability layer (:mod:`repro.obs`)."""

from __future__ import annotations

import threading

import pytest

from repro import PPKWS, PPKWSService, obs
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    QueryTrace,
    TraceRing,
    render_prometheus,
)


@pytest.fixture(autouse=True)
def no_global_registry():
    """Each test starts and ends with observability uninstalled."""
    obs.uninstall()
    yield
    obs.uninstall()


class TestMetricsRegistry:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        reg.inc("requests_total", labels={"op": "blinks", "status": "ok"})
        reg.inc("requests_total", amount=2, labels={"op": "blinks", "status": "ok"})
        assert reg.value(
            "requests_total", labels={"op": "blinks", "status": "ok"}
        ) == 3.0
        # distinct label sets are distinct series
        assert reg.value(
            "requests_total", labels={"op": "blinks", "status": "error"}
        ) == 0.0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        reg.inc("c", labels={"a": 1, "b": 2})
        assert reg.value("c", labels={"b": 2, "a": 1}) == 1.0

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.set_gauge("in_flight", 3)
        reg.set_gauge("in_flight", 1)
        assert reg.value("in_flight") == 1.0

    def test_histogram_buckets_and_sum(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.0007)   # -> le=0.001 bucket
        reg.observe("lat", 0.3)      # -> le=0.5 bucket
        reg.observe("lat", 99.0)     # -> +Inf bucket
        hist = reg.histogram("lat")
        assert hist is not None
        assert hist.count == 3
        assert hist.sum == pytest.approx(0.3007 + 99.0)
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS
        # cumulative counts are monotone and end at the total
        cumulative = hist.cumulative_counts()
        assert cumulative[-1] == 3
        assert all(a <= b for a, b in zip(cumulative, cumulative[1:]))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.inc("c", labels={"op": "knk"})
        reg.set_gauge("g", 7.0)
        reg.observe("h", 0.01)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == {"op=knk": 1.0}
        assert snap["gauges"]["g"] == {"": 7.0}
        assert snap["histograms"]["h"][""]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.reset()
        assert reg.value("c") == 0.0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_thread_safety_of_updates(self):
        reg = MetricsRegistry()
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def worker():
            barrier.wait()
            for _ in range(per_thread):
                reg.inc("c", labels={"op": "x"})
                reg.observe("h", 0.001)

        ts = [threading.Thread(target=worker) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert reg.value("c", labels={"op": "x"}) == threads * per_thread
        assert reg.histogram("h").count == threads * per_thread

    def test_install_uninstall(self):
        reg = MetricsRegistry()
        assert obs.installed() is None
        assert obs.install(reg) is None
        assert obs.installed() is reg
        assert obs.uninstall() is reg
        assert obs.installed() is None


class TestPrometheusRenderer:
    def test_none_registry_renders_empty(self):
        assert render_prometheus(None) == ""

    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.inc("ppkws_requests_total", labels={"op": "blinks", "status": "ok"})
        reg.set_gauge("ppkws_in_flight_requests", 2)
        text = render_prometheus(reg)
        assert "# TYPE ppkws_requests_total counter" in text
        assert 'ppkws_requests_total{op="blinks",status="ok"} 1' in text
        assert "# TYPE ppkws_in_flight_requests gauge" in text
        assert "ppkws_in_flight_requests 2" in text
        assert text.endswith("\n")

    def test_histogram_triplet(self):
        reg = MetricsRegistry()
        reg.observe("lat_seconds", 0.002, labels={"op": "knk"})
        text = render_prometheus(reg)
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{op="knk",le="0.0025"} 1' in text
        assert 'lat_seconds_bucket{op="knk",le="+Inf"} 1' in text
        assert 'lat_seconds_sum{op="knk"} 0.002' in text
        assert 'lat_seconds_count{op="knk"} 1' in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.inc("c", labels={"msg": 'quote " and \\ slash'})
        text = render_prometheus(reg)
        assert r'msg="quote \" and \\ slash"' in text


class TestTraceRing:
    def test_bounded(self):
        ring = TraceRing(capacity=3)
        for i in range(10):
            ring.record(QueryTrace(op=f"op{i}", status="ok", duration_ms=1.0))
        assert len(ring) == 3
        assert ring.recorded == 10
        assert [t["op"] for t in ring.snapshot()] == ["op7", "op8", "op9"]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=0)

    def test_trace_to_dict_minimal_and_full(self):
        minimal = QueryTrace(op="stats", status="ok", duration_ms=0.5)
        assert minimal.to_dict() == {
            "op": "stats", "status": "ok", "duration_ms": 0.5,
        }
        full = QueryTrace(
            op="blinks", status="degraded", duration_ms=12.0,
            network="net", owner="bob",
            step_ms={"peval": 3.0}, counters={"final_answers": 2},
            expansions=128, degraded=True,
            completed_steps=("peval",), interrupted_step="arefine",
            error=None,
        )
        d = full.to_dict()
        assert d["network"] == "net" and d["owner"] == "bob"
        assert d["degraded"] is True
        assert d["completed_steps"] == ["peval"]
        assert d["interrupted_step"] == "arefine"
        assert d["expansions"] == 128


class TestPipelineObservation:
    def test_engine_queries_record_step_metrics(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        reg = MetricsRegistry()
        obs.install(reg)
        try:
            engine.blinks("bob", ["db", "ai"], tau=4.0)
            engine.knk("bob", "x1", "cv", k=2)
        finally:
            obs.uninstall()
        for pipeline in ("blinks", "knk"):
            for step in ("peval", "arefine", "acomplete"):
                hist = reg.histogram(
                    "ppkws_step_seconds",
                    labels={"pipeline": pipeline, "step": step},
                )
                assert hist is not None and hist.count == 1, (pipeline, step)
        # work counters landed too
        assert reg.value(
            "ppkws_query_work_total",
            labels={"pipeline": "blinks", "counter": "final_answers"},
        ) > 0

    def test_banks_not_double_counted_as_blinks(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        reg = MetricsRegistry()
        obs.install(reg)
        try:
            engine.banks("bob", ["db", "ai"], tau=4.0)
        finally:
            obs.uninstall()
        banks = reg.histogram(
            "ppkws_step_seconds", labels={"pipeline": "banks", "step": "peval"}
        )
        assert banks is not None and banks.count == 1
        assert reg.histogram(
            "ppkws_step_seconds", labels={"pipeline": "blinks", "step": "peval"}
        ) is None

    def test_degraded_pipeline_counted(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        reg = MetricsRegistry()
        obs.install(reg)
        try:
            result = engine.blinks("bob", ["db", "ai"], tau=4.0, deadline_ms=0)
        finally:
            obs.uninstall()
        assert result.degraded
        assert reg.value(
            "ppkws_pipeline_degraded_total",
            labels={"pipeline": "blinks", "interrupted_step": "peval"},
        ) == 1.0

    def test_no_registry_records_nothing(self, small_public_private):
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("bob", priv)
        # no install: must simply not blow up (and obviously record nowhere)
        engine.blinks("bob", ["db", "ai"], tau=4.0)


class TestBatchCacheObservation:
    def test_cache_hits_and_misses_recorded(self, small_public_private):
        pub, priv = small_public_private
        service = PPKWSService(sketch_k=2)
        service.create_network("net", pub)
        service.attach_user("net", "bob", priv)
        item = {"op": "blinks", "keywords": ["db", "ai"], "tau": 4.0,
                "no_cache": True, "trace": True}
        reg = MetricsRegistry()
        obs.install(reg)
        try:
            resp = service.execute({  # the second item is a warm re-run
                "op": "batch", "network": "net", "owner": "bob",
                "queries": [item, item],
            })
        finally:
            obs.uninstall()
        first, again = (e["counters"] for e in resp["results"])
        hits = reg.value("ppkws_batch_cache_hits_total")
        misses = reg.value("ppkws_batch_cache_misses_total")
        assert hits == (
            first["completion_cache_hits"] + again["completion_cache_hits"]
        )
        assert hits + misses == (
            first["completion_lookups"] + again["completion_lookups"]
        )
        assert again["completion_cache_hits"] == again["completion_lookups"]
        assert 0 < misses < hits


class TestOneRegistry:
    """Every layer records into the one installed registry: requests,
    the answer cache, the engine steps and the batch op.  The service
    has no registry of its own to split them across — an injected
    ``PPKWSService(registry=...)`` used to receive only the request,
    answer-cache and gauge families while the engine and batch hooks
    wrote to the installed one."""

    FAMILIES = (
        "ppkws_requests_total",
        "ppkws_request_seconds",
        "ppkws_answer_cache_misses_total",
        "ppkws_step_seconds",
        "ppkws_query_work_total",
        "ppkws_batch_requests_total",
        "ppkws_batch_items_total",
        "ppkws_batch_cache_hits_total",
        "ppkws_batch_cache_misses_total",
    )

    def test_blinks_and_batch_land_every_family(
        self, small_public_private, installed_registry
    ):
        with pytest.raises(TypeError):
            PPKWSService(registry=MetricsRegistry())
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        item = {"op": "blinks", "keywords": ["db", "ai"], "tau": 4.0}
        assert svc.execute(
            dict(item, network="net", owner="bob")
        )["status"] == "ok"
        resp = svc.execute({
            "op": "batch", "network": "net", "owner": "bob",
            "queries": [dict(item, no_cache=True), dict(item, no_cache=True)],
        })
        assert [e["status"] for e in resp["results"]] == ["ok", "ok"]
        metrics = svc.execute({"op": "metrics"})["metrics"]
        reported = set().union(*metrics.values())
        assert [f for f in self.FAMILIES if f not in reported] == []
