"""Tests for the bounded worker pool (ServiceExecutor)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults
from repro.exceptions import ExecutorShutdownError, ReproError
from repro.faults import FaultSchedule, FaultSpec
from repro.faults.points import EXECUTOR_WORKER
from repro.serving import ServiceExecutor
from repro.service import PPKWSService, PROTOCOL_VERSION


class EchoService:
    """Minimal ``execute`` stand-in: echoes the request, thread-safely."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def execute(self, request):
        with self._lock:
            self.calls += 1
        return {"status": "ok", "echo": request.get("n")}


class BlockingService:
    """Blocks every request on a barrier — proves genuine overlap."""

    def __init__(self, parties: int) -> None:
        self.barrier = threading.Barrier(parties, timeout=10)

    def execute(self, request):
        self.barrier.wait()
        return {"status": "ok"}


class ExplodingService:
    def execute(self, request):
        raise RuntimeError("contract break")


class TestBasics:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ServiceExecutor(EchoService(), workers=0)

    def test_submit_resolves_to_response(self):
        with ServiceExecutor(EchoService(), workers=2) as pool:
            future = pool.submit({"n": 7})
            assert future.result(timeout=10) == {"status": "ok", "echo": 7}

    def test_execute_many_preserves_order(self):
        svc = EchoService()
        with ServiceExecutor(svc, workers=4) as pool:
            responses = pool.execute_many([{"n": i} for i in range(50)])
        assert [r["echo"] for r in responses] == list(range(50))
        assert svc.calls == 50

    def test_error_responses_are_results_not_exceptions(self):
        class ErrorService:
            def execute(self, request):
                return {"status": "error", "error": "nope", "retryable": False}

        with ServiceExecutor(ErrorService(), workers=1) as pool:
            resp = pool.submit({}).result(timeout=10)
        assert resp["status"] == "error"

    def test_contract_break_surfaces_on_the_future(self):
        with ServiceExecutor(ExplodingService(), workers=1) as pool:
            future = pool.submit({})
            with pytest.raises(RuntimeError, match="contract break"):
                future.result(timeout=10)


class TestConcurrency:
    def test_four_workers_overlap(self):
        """All four requests must be inside ``execute`` simultaneously —
        with a serial loop the shared barrier would time out."""
        svc = BlockingService(parties=4)
        with ServiceExecutor(svc, workers=4) as pool:
            responses = pool.execute_many([{} for _ in range(4)])
        assert all(r["status"] == "ok" for r in responses)

    def test_pool_size_bounds_overlap(self):
        """With one worker, two barrier parties never meet: the pool
        really is bounded, so the second request would deadlock if it
        ran concurrently.  Use a cancel-after-timeout barrier to assert
        the *absence* of overlap without hanging the suite."""
        svc = BlockingService(parties=2)
        svc.barrier = threading.Barrier(2, timeout=0.2)
        results = []
        with ServiceExecutor(svc, workers=1) as pool:
            futures = [pool.submit({}) for _ in range(2)]
            for f in futures:
                try:
                    results.append(f.result(timeout=10))
                except threading.BrokenBarrierError:
                    results.append("timeout")
        assert results.count("timeout") == 2  # neither ever saw a peer


class TestShutdown:
    def test_queued_work_is_drained(self):
        svc = EchoService()
        pool = ServiceExecutor(svc, workers=1)
        futures = [pool.submit({"n": i}) for i in range(20)]
        pool.shutdown(wait=True)
        assert [f.result(timeout=10)["echo"] for f in futures] == list(range(20))

    def test_submit_after_shutdown_raises(self):
        pool = ServiceExecutor(EchoService(), workers=1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit({})

    def test_shutdown_error_is_in_taxonomy(self):
        """Pin the exception type: a `ReproError` that still satisfies the
        original `RuntimeError` contract callers may already catch."""
        pool = ServiceExecutor(EchoService(), workers=1)
        pool.shutdown()
        with pytest.raises(ExecutorShutdownError) as excinfo:
            pool.submit({})
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, RuntimeError)

    def test_shutdown_is_idempotent(self):
        pool = ServiceExecutor(EchoService(), workers=2)
        pool.shutdown()
        pool.shutdown()

    def test_context_manager_shuts_down(self):
        with ServiceExecutor(EchoService(), workers=2) as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.submit({})

    def test_workers_property(self):
        with ServiceExecutor(EchoService(), workers=3) as pool:
            assert pool.workers == 3


class GateService:
    """``execute`` blocks on an event the test controls."""

    def __init__(self) -> None:
        self.gate = threading.Event()

    def execute(self, request):
        assert self.gate.wait(timeout=10)
        return {"status": "ok", "n": request.get("n")}


class TestSelfHealing:
    """Worker deaths (injected kills at ``serving.executor.worker``)."""

    @pytest.fixture(autouse=True)
    def _no_leaked_schedule(self):
        faults.deactivate()
        yield
        faults.deactivate()

    def test_worker_death_quarantines_request_and_respawns(
        self, installed_registry
    ):
        reg = installed_registry
        with ServiceExecutor(EchoService(), workers=2) as pool:
            sched = FaultSchedule([FaultSpec(EXECUTOR_WORKER, "kill", at_hit=1)])
            with faults.injected(sched):
                resp = pool.submit({"n": 1}).result(timeout=10)
                # the poison request resolves to a well-formed quarantine
                # response, not a hung future or a raised exception
                assert resp["status"] == "error"
                assert resp["code"] == "internal"
                assert resp["retryable"] is False
                assert "worker died" in resp["error"]
                # the literal version in executor.py must track the
                # service protocol (the import would be a cycle)
                assert resp["v"] == PROTOCOL_VERSION
                # the pool still works: the next request is served
                assert pool.submit({"n": 2}).result(timeout=10)["echo"] == 2
            health = pool.health()
            assert health["workers"] == 2
            assert health["alive"] == 2  # the dead worker respawned
            assert health["respawns"] == 1
            assert health["pending"] == 0
            assert health["shutdown"] is False
        assert reg.value("ppkws_worker_respawns_total") == 1.0

    def test_every_future_resolves_under_repeated_kills(self):
        """Drain guarantee: kill on *every* hit still resolves all futures."""
        with ServiceExecutor(EchoService(), workers=1) as pool:
            sched = FaultSchedule(
                [FaultSpec(EXECUTOR_WORKER, "kill", at_hit=1, every=True)]
            )
            with faults.injected(sched):
                futures = [pool.submit({"n": i}) for i in range(5)]
                responses = [f.result(timeout=10) for f in futures]
            assert all(r["code"] == "internal" for r in responses)
            assert pool.health()["respawns"] == 5
            # fault off: the same pool serves again
            assert pool.submit({"n": 9}).result(timeout=10)["echo"] == 9

    def test_death_during_shutdown_fails_inflight_future(self):
        """A worker dying mid-shutdown must fail its request loudly
        (ExecutorShutdownError), not fabricate a quarantine response —
        and the pool must still drain to a clean exit."""
        svc = GateService()
        pool = ServiceExecutor(svc, workers=1)
        sched = FaultSchedule([FaultSpec(EXECUTOR_WORKER, "kill", at_hit=2)])
        with faults.injected(sched):
            first = pool.submit({"n": 1})   # hit 1: survives, blocks on gate
            second = pool.submit({"n": 2})  # hit 2: killed after dequeue
            pool.shutdown(wait=False)       # shutdown before the kill lands
            svc.gate.set()
            assert first.result(timeout=10)["status"] == "ok"
            with pytest.raises(ExecutorShutdownError, match="worker died"):
                second.result(timeout=10)
        for t in pool._workers:
            t.join(timeout=10)
        health = pool.health()
        assert health["shutdown"] is True
        assert health["pending"] == 0

    def test_bind_executor_registration(self):
        class BindService(EchoService):
            def __init__(self):
                super().__init__()
                self.bound = []

            def bind_executor(self, executor):
                self.bound.append(executor)

        svc = BindService()
        with ServiceExecutor(svc, workers=1) as pool:
            assert svc.bound == [pool]


class TestMetrics:
    def test_executor_metrics_recorded(self, installed_registry):
        reg = installed_registry
        with ServiceExecutor(EchoService(), workers=2) as pool:
            pool.execute_many([{"n": i} for i in range(10)])
            # wait until the last completion was observed
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                total = sum(
                    reg.value(
                        "ppkws_executor_completed_total",
                        labels={"worker": str(w)},
                    )
                    for w in range(2)
                )
                if total == 10:
                    break
                time.sleep(0.01)
        assert total == 10
        assert reg.value("ppkws_executor_queue_depth") == 0
        wait_hist = reg.histogram("ppkws_executor_wait_seconds")
        assert wait_hist is not None and wait_hist.count == 10
        per_worker = sum(
            (reg.histogram(
                "ppkws_worker_request_seconds", labels={"worker": str(w)}
            ) or type("H", (), {"count": 0})).count
            for w in range(2)
        )
        assert per_worker == 10

    def test_no_registry_is_fine(self):
        with ServiceExecutor(EchoService(), workers=1) as pool:
            assert pool.submit({}).result(timeout=10)["status"] == "ok"

    def test_falls_back_to_service_registry(self, installed_registry):
        """The service's registry is the installed one, so the executor
        and the service it drives record into the same place."""
        reg = installed_registry
        with ServiceExecutor(PPKWSService(), workers=1) as pool:
            pool.submit({"op": "help"}).result(timeout=10)
            pool.shutdown()
        assert reg.value(
            "ppkws_executor_completed_total", labels={"worker": "0"}
        ) == 1.0
        assert reg.value(
            "ppkws_requests_total", labels={"op": "help", "status": "ok"}
        ) == 1.0
