"""Process-based serving: a pool of shared-memory engine replicas.

Threads cannot multiply CPU-bound keyword-search throughput under the
GIL — the serving benchmark's ``workers_only_speedup`` hovered around
1x no matter how many workers the :class:`~repro.serving.executor.
ServiceExecutor` ran.  This module is the escape hatch: whole requests
execute in separate *processes*, each a full replica of the service.

Architecture
------------

* **Shared-memory replicas.**  The public graph's flat CSR buffers are
  exported once into ``multiprocessing.shared_memory`` segments
  (:meth:`repro.graph.frozen.FrozenGraph.export_shared`) and every
  worker re-attaches zero-copy — k workers cost one copy of the
  adjacency payload, not k.  The (cheap, picklable) PADS/KPADS sketches
  ride along in the admin log, so workers never rebuild the index.
* **Workers.**  Each worker is one ``spawn``-ed process running a full
  :class:`~repro.service.PPKWSService` replica (answer cache off — the
  parent's cache is authoritative).  Admin ops are *replayed* from an
  ordered log: the parent broadcasts every ``create`` / ``attach`` /
  ``detach`` / ``drop`` and keeps the log so a respawned worker can be
  rebuilt from scratch.
* **One read path.**  :meth:`ShardServingPool.route` ships a whole
  request to one worker (round-robin), putting the entire evaluation
  outside the parent's GIL.  A query is never split across workers:
  every worker holds the whole graph and index, so an intra-query
  scatter-gather had nothing worker-local to prune and measured slower
  than the serial body (EXPERIMENTS.md, "Serving paths").

Fault injection: the ``serving.shards.worker`` point fires in the
worker after every request receive.  A ``kill`` there exits the
process (the real crash); the parent maps the dead pipe to a
well-formed ``code: "internal"`` response, respawns the worker and
replays the admin log — chaos tests assert the pool self-heals.

Metrics: ``ppkws_shard_requests_total{kind}``,
``ppkws_shard_respawns_total`` (see the README catalogue / RA003).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import FaultInjectedError, ReproError, WorkerKilledError
from repro.faults.points import SHARD_WORKER
from repro.graph.frozen import FrozenGraph
from repro.obs.registry import installed

__all__ = ["ShardServingPool"]


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
def _apply_admin(svc: Any, pending: Dict[str, list], rec: tuple) -> None:
    """Apply one admin-log record to the worker's replica service.

    ``attach`` for a network this worker has not created yet is buffered
    and applied right after its ``create`` — enable-time replication can
    race a concurrent attach broadcast, and the log keeps both.
    """
    from repro.core.framework import PPKWS, PublicIndex

    op = rec[0]
    if op == "create":
        _, name, handle, (pads, kpads, scores), options = rec
        graph = FrozenGraph.from_shared(handle)
        engine = PPKWS(
            graph, options=options,
            index=PublicIndex(graph, pads, kpads, scores),
        )
        svc.adopt_network(name, engine)
        for owner, private in pending.pop(name, ()):
            svc.attach_user(name, owner, private)
    elif op == "attach":
        _, network, owner, private = rec
        if network in svc.networks():
            # Replay is idempotent: enable-time replication can race an
            # attach broadcast and the log legitimately holds both.
            if owner in svc._engine(network).owners():
                svc.detach_user(network, owner)
            svc.attach_user(network, owner, private)
        else:
            pending.setdefault(network, []).append((owner, private))
    elif op == "detach":
        _, network, owner = rec
        if network in svc.networks():
            svc.detach_user(network, owner)
    elif op == "drop":
        _, name = rec
        pending.pop(name, None)
        if name in svc.networks():
            graph = svc._engine(name).public
            svc.drop_network(name)
            # Unpin the shared pages now — a GC'd memoryview export
            # would otherwise make SharedMemory.__del__ noisy.
            graph.release_shared()
    else:  # pragma: no cover - protocol drift guard
        raise ReproError(f"unknown admin record {op!r}")


def _shard_worker_main(shard_id: int, conn: Any) -> None:
    """Spawn entry point: serve one replica until ``stop`` or death."""
    from repro import faults
    from repro.core.engine import ensure_builtin_semantics
    from repro.service import PPKWSService

    ensure_builtin_semantics()
    svc = PPKWSService(answer_cache_size=0)
    pending: Dict[str, list] = {}
    conn.send(("ready", shard_id))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            os._exit(0)
        op = msg[0]
        if op == "stop":
            for name in svc.networks():
                # unpin before interpreter exit
                svc._engine(name).public.release_shared()
            conn.send(("ok", None))
            return
        if op == "ping":
            conn.send(("ok", shard_id))
            continue
        if op == "faults":
            _, specs, seed = msg
            faults.activate(
                faults.FaultSchedule(specs, seed) if specs is not None else None
            )
            conn.send(("ok", None))
            continue
        if op == "admin":
            try:
                _apply_admin(svc, pending, msg[1])
            except ReproError as exc:
                conn.send(("error", type(exc).__name__, str(exc)))
            else:
                conn.send(("ok", None))
            continue
        # execute: the injection point for worker-process chaos.
        try:
            faults.fire(SHARD_WORKER)
        except WorkerKilledError:
            os._exit(1)  # the real thing: no reply, no cleanup
        except FaultInjectedError as exc:
            conn.send(("error", type(exc).__name__, str(exc)))
            continue
        if op == "execute":
            conn.send(("ok", svc.execute(msg[1])))
        else:  # pragma: no cover - protocol drift guard
            conn.send(("error", "ReproError", f"unknown message {op!r}"))


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class _Worker:
    """Parent-side handle: process + pipe + the lock serializing both."""

    __slots__ = ("shard_id", "process", "conn", "lock")

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process: Any = None
        self.conn: Any = None
        #: held across every send+recv pair so replies cannot be stolen
        self.lock = threading.Lock()


class ShardServingPool:
    """k replica worker processes behind a round-robin request router.

    Construct via :meth:`repro.service.PPKWSService.enable_sharding`,
    which also replays existing networks into the pool and broadcasts
    subsequent admin ops.  Shard metrics go to the installed registry.
    The pool owns the shared-memory segments it exports and unlinks them
    in :meth:`shutdown`.
    """

    def __init__(
        self,
        shards: int = 2,
        spawn_timeout_s: float = 60.0,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        import multiprocessing

        self._ctx = multiprocessing.get_context("spawn")
        self._spawn_timeout_s = spawn_timeout_s
        #: the replayable admin history (records as shipped to workers)
        self._log: List[tuple] = []
        self._log_lock = threading.Lock()
        #: replicated network -> its live shared-memory segments (owned
        #: by the pool)
        self._segments: Dict[str, list] = {}
        #: the last fault schedule shipped (re-armed on respawn)
        self._fault_state: Tuple[Optional[tuple], Optional[int]] = (None, None)
        self._respawns = 0
        self._rr = 0
        self._rr_lock = threading.Lock()
        self._shutdown = False
        self._workers = [_Worker(i) for i in range(shards)]
        try:
            for w in self._workers:
                self._start_worker(w)
        except BaseException:
            self.shutdown()
            raise

    # -- lifecycle ------------------------------------------------------
    def _start_worker(self, w: _Worker) -> None:
        """(Re)spawn ``w`` and replay the admin log into it."""
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(w.shard_id, child_conn),
            name=f"ppkws-shard-{w.shard_id}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        if not parent_conn.poll(self._spawn_timeout_s):
            proc.terminate()
            raise ReproError(
                f"shard worker {w.shard_id} failed to start within "
                f"{self._spawn_timeout_s}s"
            )
        parent_conn.recv()  # ("ready", shard_id)
        w.process, w.conn = proc, parent_conn
        for rec in list(self._log):
            parent_conn.send(("admin", rec))
            parent_conn.recv()
        specs, seed = self._fault_state
        if specs is not None:
            parent_conn.send(("faults", specs, seed))
            parent_conn.recv()

    def _respawn_locked(self, w: _Worker) -> None:
        """Replace a dead worker (caller holds ``w.lock``)."""
        try:
            if w.process is not None:
                w.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover
            pass
        if w.conn is not None:
            w.conn.close()
        self._respawns += 1
        registry = installed()
        if registry is not None:
            registry.inc("ppkws_shard_respawns_total")
        self._start_worker(w)

    def _call(self, w: _Worker, msg: tuple) -> tuple:
        """One send+recv round trip; respawns on a dead pipe and raises."""
        with w.lock:
            try:
                w.conn.send(msg)
                status: tuple = w.conn.recv()
                return status
            except (EOFError, OSError, BrokenPipeError):
                self._respawn_locked(w)
                raise FaultInjectedError(
                    SHARD_WORKER.name,
                    f"shard worker {w.shard_id} died mid-request "
                    "(respawned from the admin log)",
                ) from None

    def shutdown(self) -> None:
        """Stop workers, close pipes, unlink every shared segment."""
        if self._shutdown:
            return
        self._shutdown = True
        for w in self._workers:
            with w.lock:
                if w.conn is None:
                    continue
                try:
                    w.conn.send(("stop",))
                    if w.conn.poll(5.0):
                        w.conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
                w.conn.close()
                if w.process is not None:
                    w.process.join(timeout=5.0)
                    if w.process.is_alive():  # pragma: no cover
                        w.process.terminate()
        for segments in self._segments.values():
            for seg in segments:
                try:
                    seg.close()
                    seg.unlink()
                except (FileNotFoundError, OSError):  # pragma: no cover
                    pass
        self._segments.clear()

    def __enter__(self) -> "ShardServingPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- admin replication ----------------------------------------------
    def _broadcast(self, rec: tuple) -> None:
        """Append ``rec`` to the log and apply it on every worker.

        A worker that rejects or dies on the record is rebuilt from the
        (already updated) log — replication converges on the log, so a
        transient worker failure cannot fork the replicas.
        """
        with self._log_lock:
            self._log.append(rec)
            for w in self._workers:
                with w.lock:
                    try:
                        w.conn.send(("admin", rec))
                        status = w.conn.recv()
                    except (EOFError, OSError, BrokenPipeError):
                        self._respawn_locked(w)
                        continue
                    if status[0] != "ok":
                        self._respawn_locked(w)

    def _compact_log(self, network: str) -> None:
        """Drop a network's records once a ``drop`` supersedes them."""
        self._log = [
            rec for rec in self._log
            if not (len(rec) > 1 and rec[1] == network)
        ]

    def admin_create(self, name: str, engine: Any) -> None:
        """Replicate ``name``: export the graph, ship handle + index."""
        handle, segments = engine.public.export_shared()
        self._segments[name] = segments
        index = engine.index
        self._broadcast((
            "create", name, handle,
            (index.pads, index.kpads, index.pagerank_scores),
            engine.options,
        ))

    def admin_attach(self, network: str, owner: str, private: Any) -> None:
        self._broadcast(("attach", network, owner, private))

    def admin_detach(self, network: str, owner: str) -> None:
        self._broadcast(("detach", network, owner))

    def admin_drop(self, name: str) -> None:
        with self._log_lock:
            self._compact_log(name)
        self._broadcast(("drop", name))
        for seg in self._segments.pop(name, ()):  # workers re-attach no more
            try:
                seg.close()
                seg.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass

    # -- fault shipping --------------------------------------------------
    def inject_faults(self, schedule: Any) -> None:
        """Arm ``schedule`` (or ``None``) in every worker process.

        Ships ``(specs, seed)`` — a :class:`~repro.faults.FaultSchedule`
        holds a lock and cannot travel whole — and remembers them so a
        respawned worker comes back with the same faults armed (a chaos
        run keeps chaosing through kills).
        """
        state = (
            (tuple(schedule.specs), schedule.seed)
            if schedule is not None
            else (None, None)
        )
        self._fault_state = state
        for w in self._workers:
            try:
                self._call(w, ("faults",) + state)
            except FaultInjectedError:
                pass  # the respawn re-armed them from _fault_state

    # -- the read path ---------------------------------------------------
    def route(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute a whole request in one worker (round-robin).

        A dead worker yields a well-formed retryable ``internal`` error
        (the executor's quarantine contract) — never an exception — and
        the worker is respawned behind the caller's back.
        """
        with self._rr_lock:
            w = self._workers[self._rr % len(self._workers)]
            self._rr += 1
        registry = installed()
        if registry is not None:
            registry.inc(
                "ppkws_shard_requests_total", labels={"kind": "execute"}
            )
        try:
            status = self._call(w, ("execute", request))
        except FaultInjectedError as exc:
            return {
                "v": 1,
                "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "code": "internal",
                "retryable": True,
            }
        if status[0] == "ok":
            response: Dict[str, Any] = status[1]
            return response
        return {
            "v": 1,
            "status": "error",
            "error": f"{status[1]}: {status[2]}",
            "code": "internal",
            "retryable": False,
        }

    # -- introspection ---------------------------------------------------
    def networks(self) -> List[str]:
        """The names shipped to the workers (and not dropped since)."""
        return sorted(self._segments)

    def health(self) -> Dict[str, Any]:
        """A JSON-friendly pool snapshot for the ``health`` op."""
        alive = sum(
            1
            for w in self._workers
            if w.process is not None and w.process.is_alive()
        )
        return {
            "mode": "process",
            "shards": len(self._workers),
            "alive": alive,
            "respawns": self._respawns,
            "shutdown": self._shutdown,
            "networks": self.networks(),
        }
