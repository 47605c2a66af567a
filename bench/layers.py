"""The traced run: per-layer metrics and unit costs of ``BENCHMARK.json``.

One run does, in order: a traced set-up (fresh build and save of the
index, then a warm restart that loads it), the workload's untimed
requests, an untraced stretch of the stream, a traced stretch of the same
stream, and the unit costs.  Per-request numbers are means over the
traced stretch; ``trace.overhead_ratio`` is its wall per request over the
untraced stretch's.  End-to-end numbers never come from here.

A layer is a module of ``repro``; its spans are opened by shims this file
puts around that module's public calls (``bench/trace.py``), so nothing in
the program knows it is being traced.  The engine's step split and work
counters are the exception: they are read from the result object
``run_pipeline`` returns, and are marked ``program_reported`` in
``layers.json``.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench import OUT, ROOT, gen
from bench.client import SAMPLE_CAP, Client, Phases
from bench.trace import Tracer
from bench.yardstick import Yardstick

#: shares of ``--seconds`` the two stretches get; the rest of the run's
#: budget goes to the second set-up and the unit costs
UNTRACED_SHARE = 0.2
TRACED_SHARE = 0.4
UNIT_BATCHES = 5
INF = float("inf")

#: span name -> (module, class or None, attributes) to wrap
Spans = Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]]

#: the calls on the query path
QUERY_SPANS: Spans = {
    "service.execute": [("repro.service", "PPKWSService", ("execute",))],
    "serving.rwlock.read": [
        ("repro.serving.rwlock", "RWLock", ("acquire_read", "release_read")),
    ],
    "serving.rwlock.write": [
        ("repro.serving.rwlock", "RWLock", ("acquire_write", "release_write")),
    ],
    "serving.cache.lookup": [("repro.serving.cache", "AnswerCache", ("lookup",))],
    "serving.cache.store": [("repro.serving.cache", "AnswerCache", ("store",))],
    "core.engine.run_pipeline": [("repro.core.engine", None, ("run_pipeline",))],
    "semantics.search": [
        ("repro.semantics.rclique", None,
         ("rclique_search", "build_neighbor_lists")),
        ("repro.semantics.blinks", None, ("blinks_search", "keyword_expansion")),
        ("repro.semantics.knk", None, ("knk_search",)),
    ],
    "graph.traversal": [
        ("repro.graph.traversal", None, (
            "dijkstra", "dijkstra_ordered", "dijkstra_with_paths",
            "multi_source_dijkstra", "shortest_path",
            "nearest_vertices_with_label", "bfs_hops",
        )),
    ],
    "core.vectorized": [
        ("repro.core.vectorized", None, ("offset_sweep_batch", "merge_rank")),
        ("repro.core.vectorized", "VectorizedRuntime",
         ("probe_many", "top_candidates_many")),
    ],
    "sketches.probe": [
        ("repro.sketches.base", "DistanceSketch",
         ("estimate", "estimate_to_sketch")),
        ("repro.sketches.kpads", "KeywordSketch",
         ("estimate", "estimate_with_witness", "top_candidates")),
    ],
    "portals.oracle": [
        ("repro.portals.oracle", "CombinedDistanceOracle", (
            "refine_pair", "refine_vertex_keyword",
            "refine_vertex_keyword_with_witness", "private_to_public_vertex",
            "private_to_public_keyword",
        )),
    ],
    "portals.build": [
        ("repro.portals.distance_map", None,
         ("all_pairs_portal_distances", "refine_portal_distances")),
        ("repro.portals.keyword_map", None, ("build_private_maps",)),
    ],
    "core.framework.attach": [("repro.core.framework", "PPKWS", ("attach",))],
    "semantics.wire.serialize": [
        ("repro.semantics.wire", None, ("serialize_rooted", "serialize_knk")),
    ],
}

#: the same for the calls only set-up makes
SETUP_SPANS: Spans = {
    "core.framework.index_build": [
        ("repro.core.framework", "PublicIndex", ("build",)),
    ],
    "graph.pagerank": [("repro.graph.pagerank", None, ("pagerank",))],
    "sketches.build_pads": [("repro.sketches.pads", None, ("build_pads",))],
    "sketches.build_kpads": [("repro.sketches.kpads", None, ("build_kpads",))],
    "graph.frozen.freeze": [("repro.graph.frozen", None, ("freeze",))],
    "core.persist.load_index": [("repro.core.persist", None, ("load_index",))],
    "core.persist.save_index": [("repro.core.persist", None, ("save_index",))],
}


def _size(result: Any) -> float:
    try:
        return float(len(result))
    except TypeError:
        return 0.0


class EngineReport:
    """Sums of what ``run_pipeline`` results say about themselves."""

    def __init__(self) -> None:
        self.steps = {"peval": 0.0, "arefine": 0.0, "acomplete": 0.0}
        self.counters: Dict[str, float] = {}

    def add(self, result: Any) -> float:
        for step in self.steps:
            self.steps[step] += getattr(result.breakdown, step)
        for name, value in vars(result.counters).items():
            self.counters[name] = self.counters.get(name, 0.0) + value
        return 0.0


def install(
    tracer: Tracer, spans: Spans, items: Dict[str, Callable[[Any], float]]
) -> None:
    for name, targets in spans.items():
        for module_name, class_name, attributes in targets:
            owner = import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for attribute in attributes:
                tracer.wrap(owner, attribute, name, items.get(name))


def traced_set_up(
    dataset: gen.Dataset, index_path: str
) -> Tuple[Client, Dict[str, List[float]]]:
    """Fresh build + save, then a warm restart; spans around both."""
    from repro import PPKWSService

    tracer = Tracer()
    install(tracer, SETUP_SPANS, {})
    client = Client(None, Yardstick())
    try:
        for _ in range(2):  # the first builds and saves, the second loads
            client.service = PPKWSService()
            client.set_up(dataset, index_path)
    finally:
        tracer.unwrap()
    return client, tracer.totals()


def per_call_us(batch: Callable[[], int]) -> float:
    """Median over batches of a batch's wall per call, in microseconds."""
    costs = []
    for _ in range(UNIT_BATCHES):
        start = perf_counter()
        calls = batch()
        costs.append((perf_counter() - start) / calls * 1e6)
    return statistics.median(costs)


def unit_costs(dataset: gen.Dataset, service: Any) -> Dict[str, float]:
    """Microseconds per call of single kernels, on the shared dataset."""
    from repro.core.engine import semantics_spec
    from repro.core.vectorized import offset_sweep_batch, runtime_for
    from repro.graph.traversal import dijkstra
    from repro.portals.distance_map import (
        all_pairs_portal_distances, refine_portal_distances,
    )
    from repro.semantics.wire import serialize_knk, serialize_rooted
    from repro.serving.cache import AnswerCache
    from repro.serving.rwlock import RWLock

    # the engine behind the wire: the unit costs call its layers directly
    engine = service._engine(gen.NETWORK)
    owners = dataset.owners
    attachments = [engine.attachment(owner) for owner in owners]
    portals = [p for a in attachments for p in sorted(a.portals)]
    out: Dict[str, float] = {}

    frozen = engine.public
    thawed = frozen.thaw()
    some = portals[::6]
    for name, graph in (("dict", thawed), ("csr", frozen)):
        def sweep(graph: Any = graph) -> int:
            for p in some:
                dijkstra(graph, p, cutoff=5.0)
            return len(some)
        out[f"unit.graph.traversal.dijkstra_{name}_us"] = per_call_us(sweep)
    del thawed

    runtime = runtime_for(engine)
    columns = [
        ([(0.0, p, p) for p in sorted(a.portals)], 5.0) for a in attachments[:4]
    ]
    out["unit.core.vectorized.sweep_us"] = per_call_us(
        lambda: len(offset_sweep_batch(runtime, columns))
    )

    pads, kpads = engine.index.pads, engine.index.kpads
    pairs = list(zip(portals, portals[7:] + portals[:7]))

    def estimates() -> int:
        for u, v in pairs:
            pads.estimate(u, v)
        return len(pairs)
    out["unit.sketches.pads_estimate_us"] = per_call_us(estimates)

    words = [f"t{i}" for i in range(0, gen.LABELS, 8)]

    def candidates() -> int:
        for p in some:
            for word in words:
                kpads.top_candidates(pads, p, word, gen.KNK_K)
        return len(some) * len(words)
    out["unit.sketches.kpads_top_candidates_us"] = per_call_us(candidates)

    vertex_pairs = []
    for owner, attachment in zip(owners, attachments):
        vertices = sorted(dataset.private_labels[owner])
        vertex_pairs += [
            (attachment.oracle, u, v)
            for u, v in zip(vertices[::4], vertices[2::4])
        ]

    def refine() -> int:
        for oracle, u, v in vertex_pairs:
            oracle.refine_pair(u, v, INF)
        return len(vertex_pairs)
    out["unit.portals.refine_pair_us"] = per_call_us(refine)

    maps = [
        (all_pairs_portal_distances(frozen, a.portals), a.private_portal_map)
        for a in attachments[:4]
    ]

    def fixpoint() -> int:
        for public_map, private_map in maps:
            refine_portal_distances(public_map, private_map)
        return len(maps)
    out["unit.portals.refine_fixpoint_us"] = per_call_us(fixpoint)

    keyword_requests, knk_request = gen.unit_requests(dataset)
    rooted: List[Any] = []
    for request in keyword_requests:
        rooted = semantics_spec(request["op"]).run(
            engine, engine.attachment(request["owner"]),
            {"keywords": request["keywords"], "tau": float(request["tau"]),
             "k": request["k"], "require_public_private": True},
        ).answers
        if rooted:
            break
    if not rooted:
        raise RuntimeError("no unit keyword request has an answer to serialize")
    request = knk_request
    knk = semantics_spec("knk").run(
        engine, engine.attachment(request["owner"]),
        {"source": request["source"], "keyword": request["keyword"],
         "k": request["k"]},
    ).answer

    def rooted_batch() -> int:
        for _ in range(40):
            for answer in rooted:
                serialize_rooted(answer)
        return 40 * len(rooted)

    def knk_batch() -> int:
        for _ in range(200):
            serialize_knk(knk)
        return 200
    out["unit.semantics.wire.serialize_rooted_us"] = per_call_us(rooted_batch)
    out["unit.semantics.wire.serialize_knk_us"] = per_call_us(knk_batch)

    response = service.execute(knk_request)
    cache = AnswerCache()

    def stores() -> int:
        for i in range(200):
            cache.store(("knk", i), 0, response)
        return 200

    def hits() -> int:
        for i in range(200):
            cache.lookup(("knk", i), 0)
        return 200
    out["unit.serving.cache.store_us"] = per_call_us(stores)
    out["unit.serving.cache.hit_us"] = per_call_us(hits)

    lock = RWLock()

    def read_lock() -> int:
        for _ in range(2000):
            lock.acquire_read()
            lock.release_read()
        return 2000
    out["unit.serving.rwlock.read_us"] = per_call_us(read_lock)
    return out


def serving_unit_costs(seed: int, yardstick: Yardstick) -> Dict[str, float]:
    """What a worker thread and a shard process add to one request.

    Measured on a network a twentieth the size: the cost in question is
    the hand-off, not the query.  Both pools are shut down before
    returning.
    """
    from repro import PPKWSService
    from repro.serving import ServiceExecutor

    small = gen.Dataset(0.05)
    service = PPKWSService()
    client = Client(service, yardstick)
    client.set_up(small)
    requests = gen.stream(small, "cold_knk", seed, 0.05).timed
    out: Dict[str, float] = {}

    cached = requests[0]
    service.execute(cached)

    def direct_hits() -> int:
        for _ in range(300):
            service.execute(cached)
        return 300
    direct = per_call_us(direct_hits)
    executor = ServiceExecutor(service, workers=1)
    try:
        def pooled_hits() -> int:
            for _ in range(300):
                executor.submit(cached).result()
            return 300
        out["unit.serving.executor.roundtrip_us"] = per_call_us(pooled_hits) - direct
    finally:
        executor.shutdown()

    cursor = iter(requests[1:])

    def cold_misses() -> int:
        for _ in range(60):
            service.execute(next(cursor))
        return 60
    direct = per_call_us(cold_misses)
    service.enable_sharding(1)
    try:
        out["unit.serving.shards.route_us"] = per_call_us(cold_misses) - direct
    finally:
        service.disable_sharding()
    if client.failed:
        raise RuntimeError(f"set-up of the small network failed: {client.problems}")
    return out


def analysis_run_s() -> float:
    """Wall of ``python -m repro.analysis src`` (its exit code is not ours)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src"], cwd=ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    return perf_counter() - start


def layer_values(
    totals: Dict[str, List[float]], setup: Dict[str, List[float]],
    report: EngineReport, traced: Any, untraced: Any,
    cache_stats: Dict[str, Any], index_bytes: int,
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every per-layer metric but the unit costs, by name: those that are
    means over the traced requests, then those one set-up gave."""
    zero = [0.0] * 4
    requests = max(1, traced.sent)

    def calls(name: str) -> float:
        return totals.get(name, zero)[0] / requests

    def self_us(name: str) -> float:
        return totals.get(name, zero)[1] / requests * 1e6

    def step_us(name: str) -> float:
        return report.steps[name] / requests * 1e6

    def setup_s(name: str) -> float:
        return setup.get(name, zero)[2]

    lookups = totals.get("serving.cache.lookup", zero)
    pipelines = totals.get("core.engine.run_pipeline", zero)
    counters = report.counters
    pruned = counters.get("answers_pruned", 0.0)
    return {
        "service.execute.calls": calls("service.execute"),
        "service.execute.self_us": self_us("service.execute"),
        "serving.rwlock.read_us": self_us("serving.rwlock.read"),
        "serving.rwlock.write_us": self_us("serving.rwlock.write"),
        "serving.cache.lookup_us": self_us("serving.cache.lookup"),
        "serving.cache.store_us": self_us("serving.cache.store"),
        "serving.cache.hit_ratio": lookups[3] / max(1.0, lookups[0]),
        "serving.cache.stale_hits": cache_stats.get("stale_hits", 0),
        "serving.cache.evictions": cache_stats.get("evictions", 0),
        "serving.cache.expirations": cache_stats.get("expirations", 0),
        "core.engine.run_pipeline.calls": calls("core.engine.run_pipeline"),
        "core.engine.run_pipeline.self_us": self_us("core.engine.run_pipeline"),
        "core.engine.run_pipeline.wall_share": pipelines[2] / traced.wall,
        "core.engine.peval_us": step_us("peval"),
        "core.engine.arefine_us": step_us("arefine"),
        "core.engine.acomplete_us": step_us("acomplete"),
        "core.engine.partial_answers": (
            counters.get("partial_answers", 0.0) / max(1.0, pipelines[0])
        ),
        "core.engine.completion_hit_ratio": (
            counters.get("completion_cache_hits", 0.0)
            / max(1.0, counters.get("completion_lookups", 0.0))
        ),
        "core.engine.pruned_ratio": (
            pruned / max(1.0, pruned + counters.get("final_answers", 0.0))
        ),
        "semantics.search.calls": calls("semantics.search"),
        "semantics.search.self_us": self_us("semantics.search"),
        "graph.traversal.calls": calls("graph.traversal"),
        "graph.traversal.self_us": self_us("graph.traversal"),
        "graph.traversal.settled": (
            totals.get("graph.traversal", zero)[3] / requests
        ),
        "core.vectorized.calls": calls("core.vectorized"),
        "core.vectorized.self_us": self_us("core.vectorized"),
        "sketches.probe.calls": calls("sketches.probe"),
        "sketches.probe.self_us": self_us("sketches.probe"),
        "portals.oracle.calls": calls("portals.oracle"),
        "portals.oracle.self_us": self_us("portals.oracle"),
        "portals.build.self_us": self_us("portals.build"),
        "core.framework.attach.calls": calls("core.framework.attach"),
        "core.framework.attach.self_us": self_us("core.framework.attach"),
        "semantics.wire.serialize.calls": calls("semantics.wire.serialize"),
        "semantics.wire.serialize.self_us": self_us("semantics.wire.serialize"),
        "trace.overhead_ratio": (
            traced.wall / requests / (untraced.wall / max(1, untraced.sent))
        ),
        "trace.unattributed_share": (
            1.0 - sum(t[1] for t in totals.values()) / traced.wall
        ),
    }, {
        "core.framework.index_build_s": setup_s("core.framework.index_build"),
        "graph.pagerank_s": setup_s("graph.pagerank"),
        "sketches.build_pads_s": setup_s("sketches.build_pads"),
        "sketches.build_kpads_s": setup_s("sketches.build_kpads"),
        # both set-ups freeze the wire graph once (freezing again is free)
        "graph.frozen.freeze_s": setup_s("graph.frozen.freeze") / 2,
        "core.persist.load_index_s": setup_s("core.persist.load_index"),
        "core.persist.save_index_s": setup_s("core.persist.save_index"),
        "core.persist.index_bytes": float(index_bytes),
    }


def traced_run(
    dataset: gen.Dataset, stream: gen.Stream, workload: str, seed: int,
    seconds: Optional[float], oracle: Any, extra: Dict[str, Any],
) -> Tuple[Client, Dict[str, Tuple[float, int]]]:
    """The whole traced run; returns the client and ``name -> (value, n)``.

    ``seconds`` is ``None`` under ``--quick``: counts are then fixed, a
    third of the stream untraced and the rest traced.
    """
    phases = Phases()
    index_path = os.path.join(OUT, f"index-traced-{workload}-{seed}.idx")
    if os.path.exists(index_path):
        os.remove(index_path)
    client, setup = traced_set_up(dataset, index_path)
    index_bytes = os.path.getsize(index_path)
    os.remove(index_path)
    phases.done("set_up")

    for request in stream.warmup:
        client.send(request)
    gc.collect()
    phases.done("warm_up")
    if seconds is None:
        head = stream.timed[: len(stream.timed) // 3]
        untraced = client.timed_loop(head, sample_cap=None)
    else:
        untraced = client.timed_loop(
            stream.timed, seconds=seconds * UNTRACED_SHARE
        )
    report = EngineReport()
    tracer = Tracer(keep=50_000)
    install(tracer, QUERY_SPANS, {
        "serving.cache.lookup": lambda hit: float(hit is not None),
        "graph.traversal": _size,
        "core.engine.run_pipeline": report.add,
    })
    try:
        traced = client.timed_loop(
            stream.timed, untraced.sent,
            None if seconds is None else seconds * TRACED_SHARE,
            sample_cap=None if seconds is None else SAMPLE_CAP,
        )
    finally:
        tracer.unwrap()
    phases.done("timed")
    tracer.dump(os.path.join(OUT, f"trace-{workload}-seed{seed}.json"))
    observed, _ = client.send({"op": "metrics"})
    cache_stats = observed.get("answer_cache") or {}
    client.check(oracle, untraced.samples + traced.samples)
    phases.done("dump_check")

    units = unit_costs(dataset, client.service)
    units.update(serving_unit_costs(seed, client.yardstick))
    units["unit.analysis.run_s"] = analysis_run_s()
    phases.done("units")

    extra["answer_cache"] = cache_stats
    extra["traced_requests"] = traced.sent
    extra["untraced_requests"] = untraced.sent
    extra["phases_s"] = phases.seconds
    per_request, once = layer_values(
        tracer.totals(), setup, report, traced, untraced, cache_stats,
        index_bytes,
    )
    metrics = {name: (value, traced.sent) for name, value in per_request.items()}
    metrics.update((name, (value, 1)) for name, value in once.items())
    metrics.update((name, (value, UNIT_BATCHES)) for name, value in units.items())
    return client, metrics
