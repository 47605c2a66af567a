"""Tests for the process-based replica pool (repro.serving.shards).

The process-pool tests spawn real shard workers; they share one
module-scoped pooled service to keep spawn cost bounded.  Response
comparisons strip ``breakdown`` — per-step wall times are the one
legitimately nondeterministic response field.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core.engine import registered_semantics, semantics_spec
from repro.exceptions import ReproError
from repro.faults import FaultSchedule, FaultSpec
from repro.faults.points import SHARD_WORKER
from repro.graph.frozen import FrozenGraph, freeze
from repro.graph.labeled_graph import LabeledGraph
from repro.service import PPKWSService


def strip(response):
    """A response minus its nondeterministic per-step timings."""
    return {k: v for k, v in response.items() if k != "breakdown"}


def build_graphs(seed: int = 7, n: int = 60, edges: int = 150):
    """The deterministic public/private pair the shard tests share."""
    rng = random.Random(seed)
    pub = LabeledGraph()
    for i in range(n):
        labels = ["DB"] if i % 7 == 0 else (["AI"] if i % 5 == 0 else [])
        pub.add_vertex(f"p{i}", labels)
    for _ in range(edges):
        u, v = rng.sample(range(n), 2)
        pub.add_edge(f"p{u}", f"p{v}", rng.uniform(0.5, 3.0))
    priv = LabeledGraph()
    priv.add_vertex("u0", ["DB"])
    priv.add_edge("u0", "u1", 1.0)
    priv.add_edge("u1", "p3", 1.0)
    return pub, priv


KNK = {
    "op": "knk", "network": "net", "owner": "bob",
    "source": "u0", "keyword": "DB", "k": 5,
}
BLINKS = {
    "op": "blinks", "network": "net", "owner": "bob",
    "keywords": ["DB", "AI"], "tau": 14.0, "k": 4,
}
BANKS = {
    "op": "banks", "network": "net", "owner": "bob",
    "keywords": ["DB", "AI"], "tau": 14.0, "k": 3,
}
#: one request per built-in query op — each must cross the worker pipe
QUERIES = {
    "knk": KNK,
    "blinks": BLINKS,
    "banks": BANKS,
    "rclique": {
        "op": "rclique", "network": "net", "owner": "bob",
        "keywords": ["DB", "AI"], "tau": 14.0, "k": 3,
    },
    "knk_multi": {
        "op": "knk_multi", "network": "net", "owner": "bob",
        "source": "u0", "keywords": ["DB", "AI"], "k": 4, "mode": "or",
    },
    "truss": {
        "op": "truss", "network": "net", "owner": "bob",
        "k": 2, "keywords": ["DB"],
    },
}


def make_service(**kwargs):
    pub, priv = build_graphs()
    svc = PPKWSService(answer_cache_size=0, **kwargs)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


# ----------------------------------------------------------------------
# shared-memory export / attach round trip (in-process)
# ----------------------------------------------------------------------
class TestSharedExportRoundTrip:
    def test_attached_replica_is_equivalent(self):
        pub, _ = build_graphs()
        frozen = freeze(pub)
        handle, segments = frozen.export_shared()
        try:
            replica = FrozenGraph.from_shared(handle)
            try:
                assert replica.num_vertices == frozen.num_vertices
                assert replica.num_edges == frozen.num_edges
                assert list(replica.vertex_table) == list(frozen.vertex_table)
                for v in list(frozen.vertex_table)[:10]:
                    assert sorted(map(repr, replica.neighbors(v))) == sorted(
                        map(repr, frozen.neighbors(v))
                    )
                    assert replica.labels(v) == frozen.labels(v)
            finally:
                replica.release_shared()
        finally:
            for seg in segments:
                seg.close()
                seg.unlink()


# ----------------------------------------------------------------------
# the retired scatter-gather field is just an unknown field now
# ----------------------------------------------------------------------
def assert_fanout_is_ignored(svc, base):
    """``fanout`` changes nothing but the unknown-field warning."""
    plain = svc.execute(dict(base))
    assert plain["status"] == "ok"
    assert "warnings" not in plain
    fanned = svc.execute(dict(base, fanout=True))
    assert fanned.pop("warnings") == ["unknown field 'fanout'"]
    assert strip(fanned) == strip(plain)


class TestRetiredFanoutField:
    @pytest.mark.parametrize("request_base", [KNK, BLINKS, BANKS])
    def test_fanout_is_ignored_without_a_pool(self, request_base):
        assert_fanout_is_ignored(make_service(), request_base)

    def test_help_no_longer_lists_fanout(self):
        resp = make_service().execute({"op": "help"})
        assert resp["global_fields"] == ["no_cache", "op", "trace", "v"]


# ----------------------------------------------------------------------
# the process pool
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pooled():
    """One shared pooled service (spawning workers is expensive)."""
    svc = make_service()
    svc.enable_sharding(2)
    yield svc
    svc.disable_sharding()


class TestShardServingPool:
    def test_enable_twice_rejected(self, pooled):
        svc = pooled
        with pytest.raises(ReproError):
            svc.enable_sharding(2)

    def test_routed_request_matches_serial(self, pooled):
        svc = pooled
        baseline = make_service()
        builtin = {
            name for name in registered_semantics()
            if semantics_spec(name).validate.__module__.startswith("repro.")
        }
        assert builtin == set(QUERIES)  # a new op needs a routed request
        for base in QUERIES.values():
            serial = strip(baseline.execute(dict(base)))
            assert serial["status"] == "ok"
            assert serial.get("answers") or serial["answer"]["matches"]
            routed = strip(svc.execute(dict(base)))
            assert routed == serial

    def test_fanout_is_ignored_with_a_pool(self, pooled):
        svc = pooled
        for base in (KNK, BLINKS, BANKS):
            assert_fanout_is_ignored(svc, base)

    def test_shard_metrics_recorded(self, pooled, installed_registry):
        svc, registry = pooled, installed_registry
        svc.execute(dict(KNK))  # routed
        assert registry.value(
            "ppkws_shard_requests_total", labels={"kind": "execute"}
        ) >= 1
        series = registry.snapshot()["counters"]["ppkws_shard_requests_total"]
        assert list(series) == ["kind=execute"]

    def test_health_reports_pool(self, pooled):
        svc = pooled
        resp = svc.execute({"op": "health"})
        shards = resp["shards"]
        assert shards["mode"] == "process"
        assert shards["shards"] == 2
        assert shards["alive"] == 2
        assert shards["shutdown"] is False
        assert shards["networks"] == ["net"]

    def test_admin_churn_replicates(self, pooled):
        svc = pooled
        _, priv = build_graphs()
        svc.attach_user("net", "eve", priv)
        try:
            resp = svc.execute(dict(KNK, owner="eve"))
            assert resp["status"] == "ok"
        finally:
            svc.detach_user("net", "eve")
        resp = svc.execute(dict(KNK, owner="eve"))
        assert resp["code"] == "unknown_owner"

    def test_create_and_drop_replicate(self, pooled):
        svc = pooled
        pub2, priv2 = build_graphs(seed=11, n=20, edges=40)
        svc.create_network("net2", pub2)
        svc.attach_user("net2", "bob", priv2)
        try:
            req = dict(KNK, network="net2")
            assert svc.execute(req)["status"] == "ok"
            health = svc.execute({"op": "health"})["shards"]
            assert health["networks"] == ["net", "net2"]
        finally:
            svc.drop_network("net2")
        health = svc.execute({"op": "health"})["shards"]
        assert health["networks"] == ["net"]
        assert svc.execute(dict(KNK, network="net2"))["code"] == (
            "unknown_network"
        )

    def test_no_cache_requests_still_route(self, pooled):
        svc = pooled
        resp = svc.execute(dict(KNK, no_cache=True))
        assert resp["status"] == "ok"


class TestShardServingAfterWarmRestart:
    def test_loaded_index_crosses_the_worker_pipe(self, tmp_path):
        """A warm-loaded index, rows still undecoded, replicates to workers."""
        pub, priv = build_graphs()
        path = str(tmp_path / "net.idx")
        PPKWSService().create_network("net", pub, index_path=path)  # build, save
        saved = os.stat(path).st_mtime_ns
        svc = PPKWSService(answer_cache_size=0)
        svc.create_network("net", pub, index_path=path)  # warm load
        assert os.stat(path).st_mtime_ns == saved  # loaded, not rebuilt
        svc.attach_user("net", "bob", priv)
        svc.enable_sharding(2)
        try:
            baseline = make_service()
            for base in QUERIES.values():
                serial = strip(baseline.execute(dict(base)))
                assert serial["status"] == "ok"
                assert strip(svc.execute(dict(base))) == serial
        finally:
            svc.disable_sharding()


# ----------------------------------------------------------------------
# chaos: kill a shard process mid-query
# ----------------------------------------------------------------------
class TestShardChaos:
    def test_killed_worker_yields_internal_error_and_selfheals(self):
        svc = make_service()
        pool = svc.enable_sharding(2)
        try:
            assert svc.execute(dict(KNK))["status"] == "ok"
            pool.inject_faults(FaultSchedule(
                [FaultSpec(SHARD_WORKER, "kill")], seed=3
            ))
            # Each worker dies on its next received task; drive requests
            # until both kills have fired.
            saw_internal = 0
            for _ in range(6):
                resp = svc.execute(dict(KNK))
                if resp["status"] == "error":
                    assert resp["code"] == "internal"
                    assert resp["retryable"] is True
                    assert "error" in resp
                    saw_internal += 1
            assert saw_internal >= 1
            pool.inject_faults(None)
            # Self-healed: workers respawned, queries flow again.
            health = svc.execute({"op": "health"})["shards"]
            assert health["alive"] == 2
            assert health["respawns"] >= 1
            baseline = make_service()
            assert strip(svc.execute(dict(KNK))) == strip(
                baseline.execute(dict(KNK))
            )
        finally:
            svc.disable_sharding()

    def test_injected_raise_is_a_wellformed_error(self):
        svc = make_service()
        pool = svc.enable_sharding(1)
        try:
            pool.inject_faults(FaultSchedule(
                [FaultSpec(SHARD_WORKER, "raise")], seed=3
            ))
            resp = svc.execute(dict(KNK))
            assert resp["status"] == "error"
            assert resp["code"] == "internal"
            pool.inject_faults(None)
            assert svc.execute(dict(KNK))["status"] == "ok"
        finally:
            svc.disable_sharding()


# ----------------------------------------------------------------------
# executor integration: mode="process"
# ----------------------------------------------------------------------
class TestProcessModeExecutor:
    def test_process_mode_owns_and_releases_the_pool(self):
        from repro.serving import ServiceExecutor

        svc = make_service()
        with ServiceExecutor(svc, workers=2, mode="process") as pool:
            assert pool.health()["mode"] == "process"
            assert svc.shard_pool is not None
            responses = pool.execute_many([dict(KNK) for _ in range(4)])
            assert all(r["status"] == "ok" for r in responses)
        assert svc.shard_pool is None

    def test_bad_mode_rejected(self):
        from repro.serving import ServiceExecutor

        with pytest.raises(ValueError):
            ServiceExecutor(make_service(), workers=1, mode="fiber")


# ----------------------------------------------------------------------
# regression: enable_sharding must not spawn workers under _shard_lock
# ----------------------------------------------------------------------
class _RecordingPool:
    """Stands in for ShardServingPool; records lock state at construction."""

    calls: list = []
    service = None

    def __init__(self, shards):
        svc = type(self).service
        acquired = svc._shard_lock.acquire(blocking=False)
        if acquired:
            svc._shard_lock.release()
        type(self).calls.append(acquired)

    def networks(self):
        return []

    def admin_create(self, *args, **kwargs):
        pass

    def admin_attach(self, *args, **kwargs):
        pass

    def shutdown(self):
        pass


class TestEnableShardingLockDiscipline:
    """RA010 regression: pool construction spawns worker processes and
    waits for their handshakes (up to 60s); doing that while holding
    ``_shard_lock`` convoyed every concurrent enable/disable/health
    probe behind process startup.  The fix reserves under the lock and
    constructs outside it."""

    def test_pool_constructed_outside_shard_lock(self, monkeypatch):
        svc = PPKWSService(answer_cache_size=0)
        _RecordingPool.calls = []
        _RecordingPool.service = svc
        monkeypatch.setattr("repro.service.ShardServingPool", _RecordingPool)
        pool = svc.enable_sharding(1)
        assert isinstance(pool, _RecordingPool)
        assert _RecordingPool.calls == [True], (
            "ShardServingPool was constructed while _shard_lock was held"
        )
        with pytest.raises(ReproError):
            svc.enable_sharding(1)
        svc.disable_sharding()
        assert svc.shard_pool is None

    def test_reservation_rejects_concurrent_enable(self, monkeypatch):
        import threading

        svc = PPKWSService(answer_cache_size=0)
        started = threading.Event()
        release = threading.Event()

        class SlowPool(_RecordingPool):
            def __init__(self, shards):
                started.set()
                assert release.wait(5)

        monkeypatch.setattr("repro.service.ShardServingPool", SlowPool)
        worker = threading.Thread(target=svc.enable_sharding, args=(1,))
        worker.start()
        try:
            assert started.wait(5)
            # Mid-construction: the reservation must make a second
            # enable fail fast instead of double-spawning a pool.
            with pytest.raises(ReproError):
                svc.enable_sharding(1)
        finally:
            release.set()
            worker.join(5)
        assert svc.shard_pool is not None
        svc.disable_sharding()

    def test_failed_construction_clears_reservation(self, monkeypatch):
        svc = PPKWSService(answer_cache_size=0)

        class BoomPool(_RecordingPool):
            def __init__(self, shards):
                raise RuntimeError("spawn failed")

        monkeypatch.setattr("repro.service.ShardServingPool", BoomPool)
        with pytest.raises(RuntimeError):
            svc.enable_sharding(1)
        # The reservation must not leak: a retry proceeds normally.
        _RecordingPool.calls = []
        _RecordingPool.service = svc
        monkeypatch.setattr("repro.service.ShardServingPool", _RecordingPool)
        assert isinstance(svc.enable_sharding(1), _RecordingPool)
        svc.disable_sharding()
