"""Concurrent-serving throughput benchmark.

The serving core exists for one measurable reason: a workload of
read-only queries spread over several networks should be served at a
multiple of the old serial facade's throughput.  On a GIL-bound
single-core runner thread overlap alone cannot multiply CPU-bound
throughput, so the comparison is between the two *serving models*:

* **serial / no cache** — the pre-redesign model: one thread calling
  ``execute`` in a loop, every query fully evaluated;
* **4 workers / no cache, thread mode** — pool overlap only (reported
  for transparency; on one core this hovers around 1x);
* **4 workers / no cache, process mode** — the shard pool
  (:mod:`repro.serving.shards`): worker threads become I/O pumps and
  queries evaluate in shard processes against shared-memory graph
  replicas, so on a multi-core runner CPU-bound throughput finally
  multiplies (on one core the IPC overhead makes it *slower* — the
  strict ``> 2.5x`` gate only applies with four or more cores);
* **4 workers / answer cache** — the new serving core: the pool plus
  the cross-request answer cache, so repeated queries are served
  without touching the engine.

Both no-cache pool runs land in the JSON under ``modes.threaded`` and
``modes.process`` with their own ``workers_only_speedup``; the
top-level ``workers_only_speedup`` stays the threaded number for
comparability with older runs.

The workload is deliberately repetitive (each distinct query recurs
``REPEATS`` times across the batch on average), which is exactly the
regime the answer cache targets, and requests are spread over the
networks by the Zipfian tenant-popularity model
(:func:`repro.datasets.queries.zipfian_tenant_workload`) rather than
round-robin: a couple of hot tenants take most of the traffic, like real
multi-tenant serving.  The distinct-query count and the per-tenant
request distribution are reported so both skews are visible.
Everything is persisted to ``bench_results/serving_throughput.json``.
"""

from __future__ import annotations

import json
import os
import time
from statistics import median

from benchmarks.conftest import SCALE, STRICT, emit
from repro.bench.reporting import write_report
from repro.datasets.queries import zipfian_tenant_workload
from repro.graph import LabeledGraph
from repro.graph.generators import assign_zipf_labels, barabasi_albert_graph
from repro.service import PPKWSService
from repro.serving import ServiceExecutor

N_VERTICES = 300 if SCALE == "small" else 700
NETWORKS = 4
WORKERS = 4
REPEATS = 5
ZIPF_EXPONENT = 1.1
WORKLOAD_SEED = 53
TAU = 5.0
VOCABULARY = [f"kw{i}" for i in range(16)]

#: distinct read-only queries per network (mixed rooted / k-nk ops)
QUERY_SHAPES = [
    {"op": "blinks", "keywords": ["kw0", "kw1"], "tau": TAU, "k": 5},
    {"op": "blinks", "keywords": ["kw1", "kw3"], "tau": TAU, "k": 5},
    {"op": "rclique", "keywords": ["kw0", "kw5"], "tau": TAU, "k": 5},
    {"op": "knk", "source": "m1", "keyword": "kw3", "k": 5},
    {"op": "knk", "source": "m2", "keyword": "kw4", "k": 5},
    {"op": "knk_multi", "source": "m1", "keywords": ["kw2", "kw4"], "k": 5},
]


def _public_graph() -> LabeledGraph:
    g = barabasi_albert_graph(N_VERTICES, m=2, seed=47, name="serving-pub")
    assign_zipf_labels(g, VOCABULARY, labels_per_vertex=1.5, seed=47)
    return g


def _private_graph() -> LabeledGraph:
    priv = LabeledGraph("serving-priv")
    priv.add_edge(0, "m1")
    priv.add_edge("m1", "m2")
    priv.add_edge("m2", 17)
    priv.add_labels("m1", {"kw0"})
    priv.add_labels("m2", {"kw1"})
    return priv


def _build_service(cached: bool) -> PPKWSService:
    svc = PPKWSService(
        sketch_k=2,
        answer_cache_size=4096 if cached else 0,
        answer_cache_ttl_s=None,
    )
    pub = _public_graph()
    priv = _private_graph()
    for i in range(NETWORKS):
        svc.create_network(f"net{i}", pub)
        svc.attach_user(f"net{i}", "u", priv)
    return svc


def _workload() -> list:
    """NETWORKS x QUERY_SHAPES x REPEATS requests, Zipf-skewed by tenant.

    The query shape cycles (so the same key never runs back-to-back) while
    each request's network comes from the seeded Zipfian tenant draw —
    ``net0`` is the hot tenant, ``net3`` the cold tail."""
    total = NETWORKS * len(QUERY_SHAPES) * REPEATS
    tenants = zipfian_tenant_workload(
        [f"net{n}" for n in range(NETWORKS)], total,
        exponent=ZIPF_EXPONENT, seed=WORKLOAD_SEED,
    )
    requests = []
    for i, network in enumerate(tenants):
        req = dict(QUERY_SHAPES[i % len(QUERY_SHAPES)])
        req.update({"network": network, "owner": "u"})
        requests.append(req)
    return requests


def _assert_all_ok(responses) -> None:
    bad = [r for r in responses if r.get("status") != "ok"]
    assert not bad, f"{len(bad)} non-ok responses, first: {bad[:1]}"


def _run_serial(svc, requests) -> float:
    start = time.perf_counter()
    responses = [svc.execute(r) for r in requests]
    elapsed = time.perf_counter() - start
    _assert_all_ok(responses)
    return elapsed


def _run_pooled(svc, requests, mode: str = "thread") -> float:
    with ServiceExecutor(svc, workers=WORKERS, mode=mode) as pool:
        start = time.perf_counter()
        responses = pool.execute_many(requests)
        elapsed = time.perf_counter() - start
    _assert_all_ok(responses)
    return elapsed


def _cache_latencies(svc) -> tuple:
    """Median cold latency vs min cache-hit latency on fresh keys."""
    colds, hits = [], []
    for k in (7, 8, 9):  # ks unused by the workload -> guaranteed cold
        req = {
            "op": "blinks", "network": "net0", "owner": "u",
            "keywords": ["kw0", "kw1"], "tau": TAU, "k": k,
        }
        start = time.perf_counter()
        cold = svc.execute(req)
        colds.append(time.perf_counter() - start)
        assert cold["status"] == "ok" and "cached" not in cold
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            hit = svc.execute(req)
            best = min(best, time.perf_counter() - start)
            assert hit["cached"] is True
        hits.append(best)
    return median(colds), median(hits)


def test_serving_throughput(benchmark):
    requests = _workload()
    distinct = len({json.dumps(r, sort_keys=True) for r in requests})
    tenant_counts: dict = {}
    for r in requests:
        tenant_counts[r["network"]] = tenant_counts.get(r["network"], 0) + 1

    serial_svc = _build_service(cached=False)
    serial_svc.execute(requests[0])  # warm-up
    serial_s = _run_serial(serial_svc, requests)

    pooled_nocache_svc = _build_service(cached=False)
    pooled_nocache_svc.execute(requests[0])
    pooled_nocache_s = _run_pooled(pooled_nocache_svc, requests)

    process_svc = _build_service(cached=False)
    process_svc.execute(requests[0])
    process_s = _run_pooled(process_svc, requests, mode="process")

    pooled_cached_svc = _build_service(cached=True)
    pooled_cached_s = _run_pooled(pooled_cached_svc, requests)

    cold_s, hit_s = _cache_latencies(pooled_cached_svc)

    n = len(requests)
    cores = len(os.sched_getaffinity(0))
    results = {
        "scale": SCALE,
        "networks": NETWORKS,
        "workers": WORKERS,
        "cores": cores,
        "requests": n,
        "distinct_requests": distinct,
        "zipf_exponent": ZIPF_EXPONENT,
        "tenant_requests": tenant_counts,
        "serial_no_cache": {"seconds": serial_s, "rps": n / serial_s},
        "workers_no_cache": {
            "seconds": pooled_nocache_s, "rps": n / pooled_nocache_s,
        },
        "workers_cached": {
            "seconds": pooled_cached_s, "rps": n / pooled_cached_s,
        },
        "modes": {
            "threaded": {
                "seconds": pooled_nocache_s,
                "rps": n / pooled_nocache_s,
                "workers_only_speedup": serial_s / pooled_nocache_s,
            },
            "process": {
                "seconds": process_s,
                "rps": n / process_s,
                "workers_only_speedup": serial_s / process_s,
            },
        },
        "throughput_speedup": serial_s / pooled_cached_s,
        "workers_only_speedup": serial_s / pooled_nocache_s,
        "cold_query_ms": cold_s * 1e3,
        "cached_query_ms": hit_s * 1e3,
        "cache_hit_speedup": cold_s / hit_s if hit_s else float("inf"),
        "answer_cache": pooled_cached_svc.answer_cache.stats(),
    }
    out_dir = os.environ.get(
        "REPRO_BENCH_DIR", os.path.join(os.getcwd(), "bench_results")
    )
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "serving_throughput.json"), "w") as fh:
        json.dump(results, fh, indent=2)

    tenant_mix = ", ".join(
        f"{net}={tenant_counts.get(net, 0)}"
        for net in sorted(tenant_counts)
    )
    report = (
        f"Concurrent serving ({NETWORKS} networks, {n} requests, "
        f"{distinct} distinct; Zipf s={ZIPF_EXPONENT}: {tenant_mix}; "
        f"{cores} cores)\n"
        f"  serial, no cache   : {serial_s:7.3f}s "
        f"({n / serial_s:7.1f} req/s)\n"
        f"  {WORKERS} workers, no cache: {pooled_nocache_s:7.3f}s "
        f"({n / pooled_nocache_s:7.1f} req/s, "
        f"{results['workers_only_speedup']:.2f}x, thread mode)\n"
        f"  {WORKERS} shard processes : {process_s:7.3f}s "
        f"({n / process_s:7.1f} req/s, "
        f"{results['modes']['process']['workers_only_speedup']:.2f}x, "
        f"process mode)\n"
        f"  {WORKERS} workers + cache : {pooled_cached_s:7.3f}s "
        f"({n / pooled_cached_s:7.1f} req/s, "
        f"{results['throughput_speedup']:.2f}x)\n"
        f"  cache hit latency  : cold {cold_s * 1e3:7.2f}ms  "
        f"hit {hit_s * 1e3:7.3f}ms "
        f"({results['cache_hit_speedup']:.0f}x)\n"
    )
    emit(report)
    write_report("serving_throughput", report)

    benchmark.pedantic(
        lambda: _run_pooled(_build_service(cached=True), requests),
        rounds=1, iterations=1,
    )

    # The pool + cache throughput ratio is reported, not asserted: one-shot
    # runs on a 2-core box read from 1.55x to 2.2x, and ``bench/``'s
    # ``hot_cached`` workload measures the quantity under a bound.
    if STRICT:
        assert results["cache_hit_speedup"] >= 10.0, report
    # The process tier can only beat the GIL where there are cores to
    # run on; on fewer the IPC tax dominates and the number is reported
    # honestly instead of asserted.
    if STRICT and cores >= 4:
        assert results["modes"]["process"]["workers_only_speedup"] > 2.5, (
            report
        )
