"""A bounded worker pool executing service requests concurrently.

:class:`ServiceExecutor` is the serving layer's concurrency engine: a
fixed set of worker threads pulls request dicts off a FIFO queue and
runs them through ``service.execute``.  Combined with the service's
per-network reader-writer locks, read-only queries on different
networks — and different owners of one network — genuinely overlap,
while the facade's admission control, budgets and error contract apply
unchanged (workers call the same ``execute`` everyone else does, and
``execute`` never raises library errors).

Two entry points::

    with ServiceExecutor(service, workers=4) as pool:
        future = pool.submit({"op": "knk", ...})       # -> Future
        responses = pool.execute_many(batch_of_dicts)  # ordered list

Self-healing
------------
A worker thread that *dies* — anything escaping the worker loop, e.g.
an injected :class:`~repro.exceptions.WorkerKilledError` at the
``serving.executor.worker`` fault point — no longer strands the queue:
the same thread re-enters its loop immediately (a logical respawn,
counted in ``ppkws_worker_respawns_total`` and :meth:`health`), and the
request it was holding is *quarantined*: its future resolves to a
well-formed ``status: "error"`` / ``code: "internal"`` response rather
than hanging forever or poisoning the next request.  If the death
happens while the executor is shutting down the future instead fails
with :class:`~repro.exceptions.ExecutorShutdownError`.  Either way the
drain guarantee stands: every future returned by :meth:`submit`
resolves.

Observability (recorded into the installed metrics registry, see
:func:`repro.obs.hooks.observe_executor_request`):

``ppkws_executor_queue_depth``
    Gauge: requests submitted but not yet finished.
``ppkws_executor_wait_seconds``
    Histogram: time a request spent queued before a worker picked it up.
``ppkws_worker_request_seconds{worker}``
    Per-worker latency histogram.
``ppkws_executor_completed_total{worker}``
    Per-worker completion counter.
``ppkws_worker_respawns_total``
    Counter: worker deaths recovered by respawn.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Sequence

from repro import faults
from repro.exceptions import ExecutorShutdownError
from repro.faults.points import EXECUTOR_WORKER
from repro.obs.hooks import observe_executor_queue, observe_executor_request
from repro.obs.registry import installed

__all__ = ["ServiceExecutor"]

#: queue sentinel telling a worker to exit
_STOP = object()


class _Item:
    """One queued request with its recovery bookkeeping.

    ``accounted`` flips once the normal path has decremented the
    pending gauge, so crash recovery never double-decrements.
    """

    __slots__ = ("request", "future", "submitted", "accounted")

    def __init__(
        self,
        request: Dict[str, Any],
        future: "Future[Dict[str, Any]]",
        submitted: float,
    ) -> None:
        self.request = request
        self.future = future
        self.submitted = submitted
        self.accounted = False


class ServiceExecutor:
    """Run requests against a service on a bounded pool of workers.

    ``service`` is anything with an ``execute(dict) -> dict`` method —
    normally a :class:`~repro.service.PPKWSService`.  ``workers`` fixes
    the pool size.  ``queue_size`` bounds the backlog: ``0`` (default)
    means unbounded, a positive value makes :meth:`submit` block once
    that many requests are waiting (backpressure for producers that
    outrun the pool; the service's own ``max_in_flight`` admission
    control still applies per request).

    ``mode`` selects the execution tier.  ``"thread"`` (default) is the
    classic pool: CPU-bound queries share one GIL, so it only overlaps
    I/O and lock waits.  ``"process"`` additionally calls
    ``service.enable_sharding(workers)``: the worker threads become I/O
    pumps (a pipe ``recv`` releases the GIL) while the queries execute
    in shard worker *processes* against shared-memory graph replicas —
    see :mod:`repro.serving.shards`.  The executor owns the pool it
    started and disables sharding again on :meth:`shutdown`.

    If the service exposes ``bind_executor``, the executor registers
    itself so the service's ``health`` op can report worker liveness.
    """

    def __init__(
        self,
        service: Any,
        workers: int = 4,
        queue_size: int = 0,
        mode: str = "thread",
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        if mode not in ("thread", "process"):
            raise ValueError(f"bad executor mode {mode!r}")
        self._service = service
        self.mode = mode
        self._owns_shard_pool = False
        if mode == "process":
            enable = getattr(service, "enable_sharding", None)
            if not callable(enable):
                raise ValueError(
                    "mode='process' needs a service with enable_sharding()"
                )
            if getattr(service, "shard_pool", None) is None:
                enable(workers)
                self._owns_shard_pool = True
        self._queue: "queue.Queue[Any]" = queue.Queue(maxsize=queue_size)
        self._shutdown = False
        self._shutdown_lock = threading.Lock()
        #: submitted but not yet completed (the queue-depth gauge source)
        self._pending = 0
        self._pending_lock = threading.Lock()
        #: worker id -> the item it is executing right now
        self._current: Dict[int, _Item] = {}
        self._current_lock = threading.Lock()
        self._respawns = 0
        self._workers = [
            threading.Thread(
                target=self._worker_main,
                args=(i,),
                name=f"ppkws-exec-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for t in self._workers:
            t.start()
        bind = getattr(service, "bind_executor", None)
        if callable(bind):
            bind(self)

    @property
    def workers(self) -> int:
        """The fixed pool size."""
        return len(self._workers)

    # ------------------------------------------------------------------
    def _adjust_pending(self, delta: int) -> None:
        with self._pending_lock:
            self._pending += delta
            depth = self._pending
        observe_executor_queue(depth)

    # ------------------------------------------------------------------
    def submit(self, request: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Enqueue one request; resolves to its response dict.

        The future only carries an exception if the service itself
        breaks its "never raises" contract, the executor is broken, or
        a worker dies during shutdown while holding the request
        (:class:`~repro.exceptions.ExecutorShutdownError`); normal
        failures — including a worker death outside shutdown, surfaced
        as ``code: "internal"`` — are ``status: "error"`` *results*.
        Raises :class:`~repro.exceptions.ExecutorShutdownError` (a
        ``RuntimeError`` subclass) after :meth:`shutdown`.
        """
        with self._shutdown_lock:
            if self._shutdown:
                raise ExecutorShutdownError()
            future: "Future[Dict[str, Any]]" = Future()
            self._adjust_pending(+1)
        self._queue.put(_Item(request, future, time.perf_counter()))
        return future

    def execute_many(
        self, requests: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Run a whole workload; responses in request order."""
        futures = [self.submit(r) for r in requests]
        return [f.result() for f in futures]

    # ------------------------------------------------------------------
    def _worker_main(self, worker_id: int) -> None:
        """Thread body: run the loop forever, respawning after a death."""
        while True:
            try:
                self._worker_loop(worker_id)
                return
            except BaseException as exc:  # worker death: recover + respawn
                self._recover_worker(worker_id, exc)
                # Always re-enter the loop — even mid-shutdown the
                # worker must keep draining until it eats its _STOP,
                # or queued futures would never resolve.

    def _worker_loop(self, worker_id: int) -> None:
        label = str(worker_id)
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            if not item.future.set_running_or_notify_cancel():
                self._adjust_pending(-1)
                continue
            with self._current_lock:
                self._current[worker_id] = item
            # An exception anywhere between here and the pop below is a
            # worker death: it escapes to _worker_main with the item
            # still registered in _current, so _recover_worker can
            # resolve its future.  The injected kill fires outside the
            # response try for exactly that reason.
            faults.fire(EXECUTOR_WORKER)
            started = time.perf_counter()
            try:
                response = self._service.execute(item.request)
            except BaseException as exc:  # pragma: no cover - contract break
                item.future.set_exception(exc)
            else:
                item.future.set_result(response)
            finally:
                done = time.perf_counter()
                self._adjust_pending(-1)
                item.accounted = True
                observe_executor_request(
                    worker=label,
                    wait_s=started - item.submitted,
                    run_s=done - started,
                )
            with self._current_lock:
                self._current.pop(worker_id, None)

    def _recover_worker(self, worker_id: int, exc: BaseException) -> None:
        """Resolve whatever a dead worker was holding; count the respawn."""
        with self._current_lock:
            item = self._current.pop(worker_id, None)
            self._respawns += 1
        if item is not None:
            if not item.accounted:
                self._adjust_pending(-1)
                item.accounted = True
            if not item.future.done():
                with self._shutdown_lock:
                    shutting_down = self._shutdown
                if shutting_down:
                    item.future.set_exception(ExecutorShutdownError(
                        "worker died while the executor was shutting down; "
                        f"request abandoned ({type(exc).__name__}: {exc})"
                    ))
                else:
                    # Quarantine: a well-formed v1 error response, so the
                    # caller sees an ordinary internal failure rather than
                    # a hung future.  The protocol version is the literal
                    # 1 — importing repro.service here would be a cycle;
                    # tests pin it against service.PROTOCOL_VERSION.
                    item.future.set_result({
                        "v": 1,
                        "status": "error",
                        "error": (
                            "worker died while executing this request: "
                            f"{type(exc).__name__}: {exc}"
                        ),
                        "code": "internal",
                        "retryable": False,
                    })
        registry = installed()
        if registry is not None:
            registry.inc("ppkws_worker_respawns_total")

    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """A JSON-friendly liveness snapshot (used by the ``health`` op)."""
        with self._current_lock:
            busy = len(self._current)
            respawns = self._respawns
        with self._pending_lock:
            pending = self._pending
        with self._shutdown_lock:
            shutdown = self._shutdown
        return {
            "mode": self.mode,
            "workers": len(self._workers),
            "alive": sum(1 for t in self._workers if t.is_alive()),
            "busy": busy,
            "pending": pending,
            "respawns": respawns,
            "shutdown": shutdown,
        }

    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) join the workers.

        Already-queued requests are drained before the workers exit —
        every future returned by :meth:`submit` resolves.  Idempotent.
        """
        with self._shutdown_lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._workers:
            self._queue.put(_STOP)
        if wait:
            for t in self._workers:
                t.join()
        if self._owns_shard_pool:
            # Started by our mode="process" constructor, ours to stop.
            self._service.disable_sharding()
            self._owns_shard_pool = False

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown(wait=True)
