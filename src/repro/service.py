"""An embeddable PPKWS service: dict-in / dict-out request execution.

Applications embedding the library (or wrapping it behind RPC) want a
single stable entry point rather than the full Python API.
:class:`PPKWSService` manages named networks (public graph + per-user
attachments + indexes) and executes plain-dict requests::

    service = PPKWSService()
    service.create_network("collab", public_graph)
    service.attach_user("collab", "bob", private_graph)
    response = service.execute({
        "op": "blinks", "network": "collab", "owner": "bob",
        "keywords": ["DB", "AI"], "tau": 4.0, "k": 5,
    })

Wire protocol (v1)
------------------

Responses are plain dicts with ``status`` = ``"ok"`` / ``"degraded"`` /
``"error"`` — no library exception ever escapes :meth:`execute`, making
the facade safe to expose to untrusted request producers.  Every
response echoes ``"v": 1`` (the protocol version).  Error responses
carry a stable machine-readable ``code`` next to the human ``error``
message — one of ``bad_request`` / ``unknown_network`` /
``unknown_owner`` / ``overloaded`` / ``budget_exhausted`` /
``internal`` — mapped centrally from the exception type, never by
string matching.  Unknown top-level request fields are *not* silently
ignored: the response carries a ``warnings`` list naming them.  A
request may pin ``"v": 1``; any other version is rejected as
``bad_request``.  ``{"op": "help"}`` returns the full op catalogue
(required/optional fields, read-vs-admin mode, cacheability) straight
from the declarative op registry this module dispatches on.

Concurrency contract
--------------------

The service is built to be driven concurrently (see
:class:`repro.serving.ServiceExecutor` for the worker pool):

* Each network has a writer-preferring reader-writer lock
  (:class:`repro.serving.RWLock`).  Read-only ops (queries, ``stats``)
  take the read side, so queries on different networks — and different
  owners of one network — genuinely run in parallel.  Admin ops
  (``create_network`` / ``attach`` / ``detach`` / ``drop``) take the
  write side, whether they arrive through :meth:`execute` or the direct
  Python methods.
* The service admits at most ``max_in_flight`` concurrent requests
  (default: unlimited).  Requests beyond the cap fail fast with
  ``code: "overloaded"`` and ``retryable: true``.
* The registry and per-engine attachment maps are additionally guarded
  by plain locks, so concurrent creates/attaches of one name resolve to
  exactly one winner and queries never observe a half-registered
  network.

Answer cache
------------

Completed ``status: "ok"`` responses of the query ops are cached in a
cross-request LRU+TTL :class:`repro.serving.AnswerCache` keyed on
``(network, owner, op, canonicalized params)`` (defaults applied, so
``{"tau": 5.0}`` and an omitted ``tau`` share an entry).  Staleness is
epoch-based and per *owner*: a private graph is visible to its owner
only, so an entry lives until that owner's attachment changes
(``attach`` / ``detach`` / a dynamic repair) or its network is created
or dropped, and an entry from before such a change is never served
after it; another owner's ``attach`` leaves it a hit.  (The ``epoch`` of
``stats`` / ``health`` still counts every admin op of the network.)
Cache hits carry ``"cached": true``; per-request ``"no_cache":
true`` bypasses the cache, and ``"trace": true`` requests always
execute (their trace describes a real run).  Budget fields are
deliberately *not* part of the key: a cached answer is a complete,
unbudgeted-equivalent result, so serving it under any budget is sound.

Robustness contract
-------------------

* Query requests may carry ``deadline_ms`` / ``max_expansions``.  A
  query whose budget expires returns ``status: "degraded"`` with the
  answers completed so far plus ``completed_steps`` /
  ``interrupted_step`` describing how far the pipeline got.
* Malformed requests get explicit ``"missing field 'keywords'"``-style
  messages; unexpected internal failures are reported as
  ``"ExceptionClass: message"`` and counted under the
  ``ppkws_internal_errors_total`` metric.

Observability (see :mod:`repro.obs` and the README's catalogue):

* Every request increments ``ppkws_requests_total{op,status}`` and
  records a ``ppkws_request_seconds{op}`` latency histogram sample;
  answer-cache traffic lands in ``ppkws_answer_cache_hits_total`` /
  ``..._misses_total``.
* Slow (``>= slow_query_ms``), degraded and errored requests land in a
  bounded in-memory ring of :class:`~repro.obs.QueryTrace` records.
* A ``{"op": "metrics"}`` request returns the metric snapshot, recent
  traces, answer-cache stats and a Prometheus text rendering; like
  ``help`` it bypasses admission control so operators keep their eyes
  during overload.
* Any query request may set ``"trace": true`` to receive its own
  ``counters`` and ``trace`` (per-step timings, budget expansions,
  degradation fields) in the response.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import faults
from repro.core.engine import (
    SemanticsSpec,
    registered_semantics,
    registry_version,
    semantics_spec,
)
from repro.core.framework import PIPELINE_STEPS, PPKWS, QueryOptions
from repro.core.persist import load_index, save_index
from repro.exceptions import (
    BudgetError,
    FaultInjectedError,
    IndexCorruptError,
    OwnerNotAttachedError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    UnknownNetworkError,
)
from repro.faults.points import SERVICE_EXECUTE
from repro.graph.frozen import freeze
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.traversal import INF
from repro.obs import (
    MetricsRegistry,
    QueryTrace,
    TraceRing,
    installed,
    observe_answer_cache,
    observe_batch_request,
    render_prometheus,
)
from repro.semantics.wire import check_bound
from repro.serving import AnswerCache, RWLock
from repro.serving.shards import ShardServingPool

__all__ = ["OpSpec", "PPKWSService", "PROTOCOL_VERSION", "ERROR_CODES"]

#: The wire-protocol version echoed as ``"v"`` in every response.
PROTOCOL_VERSION = 1

#: The closed enum of machine-readable error codes (wire contract).
ERROR_CODES: Tuple[str, ...] = (
    "bad_request",
    "unknown_network",
    "unknown_owner",
    "overloaded",
    "budget_exhausted",
    "internal",
)

#: Request fields accepted on every op, next to the per-op spec fields.
GLOBAL_REQUEST_FIELDS = frozenset({"op", "v", "trace", "no_cache"})
_FLAG_FIELDS = ("no_cache", "trace")  # exact bools, else bad_request

#: The one central exception -> wire-code map (first match wins; order
#: matters because the later entries are superclasses of earlier ones).
_CODE_BY_EXCEPTION: Tuple[Tuple[type, str], ...] = (
    # An injected fault is an infrastructure failure, not a caller error
    # — before ReproError, whose subclass it is.
    (FaultInjectedError, "internal"),
    (ServiceOverloadedError, "overloaded"),
    (UnknownNetworkError, "unknown_network"),
    (OwnerNotAttachedError, "unknown_owner"),
    (BudgetError, "budget_exhausted"),
    (ReproError, "bad_request"),
)


def _error_code(exc: BaseException) -> str:
    """The stable wire code for an exception (``internal`` if unmapped)."""
    for exc_type, code in _CODE_BY_EXCEPTION:
        if isinstance(exc, exc_type):
            return code
    return "internal"


def _error_response(exc: BaseException) -> Dict[str, Any]:
    """The wire error body for ``exc`` (a whole response or a batch item)."""
    code = _error_code(exc)
    if isinstance(exc, ReproError) and code != "internal":
        # A bare str() of e.g. KeyError is just the quoted key
        # ("'collab'") — leaked engine internals rather than a
        # message — so non-library errors get the class prefix.
        message = str(exc) or repr(exc)
    else:
        message = f"{type(exc).__name__}: {exc}"
    return {
        "status": "error",
        "error": message,
        "code": code,
        "retryable": getattr(exc, "retryable", False),
    }


def _require(request: Dict[str, Any], *fields: str) -> None:
    """Raise a clear error for the first missing request field."""
    for f in fields:
        if f not in request:
            raise ReproError(f"missing field {f!r}")


def _graph_from_request(request: Dict[str, Any], field_name: str) -> LabeledGraph:
    """Build a graph from a request payload.

    Accepts either a ready :class:`LabeledGraph` under ``field_name`` or
    the wire-friendly pair ``<field>_edges`` (list of ``[u, v]`` or
    ``[u, v, weight]``) and optional ``<field>_labels``
    (vertex -> label list).  The wire form is validated, not trusted:
    a weight that is not a positive finite number (``NaN`` would poison
    every distance through its edge), labels that are not a list of
    strings, or an unhashable vertex raise a :class:`ReproError` naming
    the field — ``bad_request`` on the wire, before anything is built.
    """
    graph = request.get(field_name)
    if isinstance(graph, LabeledGraph):
        return graph
    if graph is not None:
        raise ReproError(
            f"field {field_name!r} must be a LabeledGraph "
            f"(or send {field_name + '_edges'!r} instead)"
        )
    edges_field, labels_field = f"{field_name}_edges", f"{field_name}_labels"
    _require(request, edges_field)
    edges = request[edges_field]
    labels = request.get(labels_field)
    if labels is None:  # absent or null: no labels; false, "" or [] are errors
        labels = {}
    if not isinstance(edges, (list, tuple)):
        raise ReproError(
            f"field {edges_field!r} must be a list of [u, v] or [u, v, weight]"
        )
    if not isinstance(labels, dict):
        raise ReproError(
            f"field {labels_field!r} must map each vertex to a list of labels"
        )
    out = LabeledGraph()
    where = edges_field
    try:
        for edge in edges:
            if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
                raise ReproError(
                    f"field {edges_field!r} entries must be [u, v] or [u, v, weight]"
                )
            if len(edge) == 3:
                w = edge[2]
                # NaN fails both comparisons; bool is an int only by accident
                if (
                    not isinstance(w, (int, float))
                    or isinstance(w, bool)
                    or not 0 < w < INF
                ):
                    raise ReproError(
                        f"field {edges_field!r}: weight of edge "
                        f"{list(edge[:2])!r} must be a positive finite "
                        f"number, got {w!r}"
                    )
            out.add_edge(*edge)
        where = labels_field
        for v, ls in labels.items():
            if not isinstance(ls, (list, tuple, set, frozenset)):
                raise ReproError(
                    f"field {labels_field!r}: labels of {v!r} must be a list "
                    f"of strings, got {ls!r}"
                )
            out.add_vertex(v, ls)
    except TypeError:
        # what a JSON array or object does as a dict key or set member
        raise ReproError(
            f"field {where!r}: vertices and labels must be hashable "
            f"(strings or numbers)"
        ) from None
    # one look at each *distinct* label, not at every vertex's list
    for label in out.label_universe():
        if not isinstance(label, str):
            raise ReproError(
                f"field {labels_field!r}: labels must be strings, got {label!r}"
            )
    return out


def _budget_args(request: Dict[str, Any]) -> Dict[str, Any]:
    """Per-request budget keywords for the engine entry points (their
    values were validated by :meth:`PPKWSService._check_fields`)."""
    return {f: request[f] for f in _BUDGET_FIELDS if request.get(f) is not None}


def _degradation_fields(result: Any) -> Dict[str, Any]:
    """Status plus pipeline-progress fields for a query result."""
    if not result.degraded:
        return {"status": "ok"}
    return {
        "status": "degraded",
        "completed_steps": list(result.completed_steps),
        "interrupted_step": result.interrupted_step,
    }


# ----------------------------------------------------------------------
# the declarative op registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpSpec:
    """One wire op: handler plus everything dispatch needs to know.

    ``mode`` drives both admission and locking, so the rwlock side is
    derived rather than hand-maintained per handler:

    * ``"read"`` — admitted, runs under the network's *read* lock, may
      be served from the answer cache when ``cacheable``;
    * ``"admin"`` — admitted; the underlying service method takes the
      network's *write* lock itself (so direct Python-API calls get the
      same exclusion);
    * ``"control"`` — introspection (``metrics`` / ``help``): no
      admission slot, no lock — must survive overload.

    ``required`` / ``optional`` are the op's accepted fields (on top of
    the :data:`GLOBAL_REQUEST_FIELDS`); missing required fields become
    ``bad_request`` errors and unrecognized fields become ``warnings``.
    ``cache_params`` canonicalizes the op's query parameters (defaults
    applied) into the hashable tail of the answer-cache key.
    """

    name: str
    handler: Callable[["PPKWSService", Dict[str, Any]], Dict[str, Any]]
    required: Tuple[str, ...] = ()
    optional: Tuple[str, ...] = ()
    mode: str = "read"
    cacheable: bool = False
    cache_params: Optional[Callable[[Dict[str, Any]], Tuple[Any, ...]]] = None
    summary: str = ""
    #: every accepted field: computed once, read on every request
    known_fields: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in ("read", "admin", "control"):
            raise ValueError(f"bad op mode {self.mode!r}")
        object.__setattr__(
            self, "known_fields",
            GLOBAL_REQUEST_FIELDS.union(self.required, self.optional),
        )


#: budget knobs shared by every query op
_BUDGET_FIELDS: Tuple[str, ...] = ("deadline_ms", "max_expansions")

#: fields that name a registry entry: strings or nothing
_NAME_FIELDS: Tuple[str, ...] = ("network", "owner")


def _query_op(spec: SemanticsSpec) -> OpSpec:
    """Build the wire op for one registered semantics.

    Everything — request schema, cache key, response payload, the
    ``help`` entry — comes from the spec's ``wire_*`` fields, so
    registering a semantics (see ``README.md`` "Semantics plugins") is
    all it takes to put it on the wire.
    """
    def handler(
        service: "PPKWSService", request: Dict[str, Any]
    ) -> Dict[str, Any]:
        return service._semantics_query(request, spec)

    return OpSpec(
        spec.name, handler,
        required=spec.wire_required,
        optional=tuple(spec.wire_optional) + _BUDGET_FIELDS,
        cacheable=True,
        cache_params=spec.wire_cache_params,
        summary=spec.summary,
    )


_OPS_LOCK = threading.Lock()
_OPS_CACHE: Tuple[int, Dict[str, "OpSpec"]] = (-1, {})


def _current_ops() -> Dict[str, "OpSpec"]:
    """The live op registry: static ops plus one query op per semantics.

    Rebuilt (and memoized on :func:`~repro.core.engine.registry_version`)
    whenever the semantics registry changes, so dispatch and ``help``
    follow every (un)registration made after import automatically.
    The hot path is one lock-free int comparison — the previous memo key
    (the sorted name tuple) took the registry lock and re-sorted the
    names on *every* request, a measurable per-request tax under the
    serving benchmark.
    """
    global _OPS_CACHE
    version = registry_version()
    cached_version, cached = _OPS_CACHE
    if cached_version == version:
        return cached
    with _OPS_LOCK:
        cached_version, cached = _OPS_CACHE
        if cached_version == version:
            return cached
        ops: Dict[str, OpSpec] = {}
        for name in registered_semantics():
            if name in PPKWSService._STATIC_OPS:
                raise ValueError(
                    f"semantics {name!r} collides with a built-in op"
                )
            ops[name] = _query_op(semantics_spec(name))
        ops.update(PPKWSService._STATIC_OPS)
        _OPS_CACHE = (version, ops)
        return ops


class PPKWSService:
    """Named-network registry plus a uniform request executor.

    ``max_in_flight`` caps concurrently executing requests; ``None``
    (the default) disables admission control.

    ``answer_cache_size`` / ``answer_cache_ttl_s`` configure the
    cross-request answer cache (entries / per-entry freshness bound in
    seconds).  A size of ``0`` disables answer caching entirely; a TTL
    of ``None`` keeps entries until evicted or their owner's attachment
    (or their network's life) changes.

    ``registry`` receives this service's request metrics; when ``None``
    the process-wide registry (:func:`repro.obs.install`) is used, and
    when none is installed either, instrumentation reduces to a ``None``
    check per request.  ``slow_query_ms`` is the latency above which an
    otherwise-healthy request is recorded in the trace ring of size
    ``trace_ring_size``.
    """

    def __init__(
        self,
        sketch_k: int = 2,
        options: Optional[QueryOptions] = None,
        max_in_flight: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        slow_query_ms: float = 1000.0,
        trace_ring_size: int = 128,
        answer_cache_size: int = 1024,
        answer_cache_ttl_s: Optional[float] = 60.0,
    ):
        self._sketch_k = sketch_k
        self._options = options
        #: name -> engine; ``None`` marks a reservation (build in flight)
        self._engines: Dict[str, Optional[PPKWS]] = {}
        #: guards every check-then-act on :attr:`_engines` and the epochs
        self._engines_lock = threading.Lock()
        #: name -> monotonic epoch; bumped by every admin op, *never*
        #: deleted (a re-created network must not revive old answers)
        self._epochs: Dict[str, int] = {}
        #: name -> the epoch of its last create / adopt / drop: which
        #: life of the name an answer-cache entry belongs to
        self._lifecycles: Dict[str, int] = {}
        #: name -> the network's reader-writer lock (kept across drop so
        #: late requests against a dropped name still lock consistently)
        self._network_locks: Dict[Any, RWLock] = {}
        self._network_locks_lock = threading.Lock()
        self._answer_cache: Optional[AnswerCache] = (
            AnswerCache(answer_cache_size, answer_cache_ttl_s)
            if answer_cache_size
            else None
        )
        self._max_in_flight = max_in_flight
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._registry = registry
        self._slow_query_ms = slow_query_ms
        self._traces = TraceRing(trace_ring_size)
        #: per-thread scratch where query handlers deposit the result /
        #: budget objects so ``execute`` can assemble the QueryTrace
        self._tls = threading.local()
        #: executors serving this service (weak: an executor keeps the
        #: service alive, never the reverse); feeds the ``health`` op
        self._executors: "weakref.WeakSet[Any]" = weakref.WeakSet()
        self._executors_lock = threading.Lock()
        #: EWMA of *uncached query* latency (ms) feeding ``retry_after_ms``
        #: hints on overload rejections; seeded with a plausible prior.
        #: Guarded by :attr:`_avg_lock` — an unsynchronized float RMW can
        #: lose whole updates, and the value steers client back-off.
        self._avg_request_ms = 5.0
        self._avg_lock = threading.Lock()
        #: the process-based shard pool (:meth:`enable_sharding`), plus
        #: the lock serializing enable/disable against each other
        self._shard_pool: Optional[ShardServingPool] = None
        self._shard_lock = threading.Lock()
        #: True while an enable_sharding is constructing its pool
        #: outside the lock — the reservation that keeps a concurrent
        #: enable exact without holding _shard_lock across process spawn
        self._shard_reserved = False

    def _metrics_registry(self) -> Optional[MetricsRegistry]:
        """The effective registry: constructor-injected, else installed."""
        return self._registry if self._registry is not None else installed()

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The cross-request answer cache (``None`` when disabled)."""
        return self._answer_cache

    def bind_executor(self, executor: Any) -> None:
        """Register an executor so ``health`` can report its liveness.

        Called by :class:`~repro.serving.ServiceExecutor` on
        construction; the reference is weak, so a discarded executor
        disappears from health output on its own.
        """
        with self._executors_lock:
            self._executors.add(executor)

    def _warn(self, message: str) -> None:
        """Attach a warning to the response of the request being executed.

        Handlers report non-fatal conditions (e.g. a quarantined corrupt
        index) through here; outside a request (direct Python-API calls)
        the warning has no response to ride on and is dropped.
        """
        ctx = getattr(self._tls, "ctx", None)
        if ctx is not None:
            ctx.setdefault("warnings", []).append(message)

    # ------------------------------------------------------------------
    # per-network locks and epochs
    # ------------------------------------------------------------------
    def _network_lock(self, network: Any, create: bool = False) -> RWLock:
        """The reader-writer lock for ``network``.

        Only ``create_network`` and ``adopt_network`` pass ``create``:
        every other op on a name that was never created raises
        :class:`UnknownNetworkError` here, so request-supplied names
        cannot grow the map.  A dropped name keeps its lock.
        """
        with self._network_locks_lock:
            lock = self._network_locks.get(network)
            if lock is None:
                if not create:
                    raise UnknownNetworkError(network)
                lock = self._network_locks[network] = RWLock()
            return lock

    def network_epoch(self, network: str) -> int:
        """The network's current cache epoch (0 before any admin op)."""
        with self._engines_lock:
            return self._epochs.get(network, 0)

    def _bump_epoch(self, network: str) -> None:
        with self._engines_lock:
            self._epochs[network] = self._epochs.get(network, 0) + 1

    def _answer_token(self, network: str, owner: Any) -> Tuple[int, Any]:
        """What a cached answer of ``owner`` must match to be served:
        (the network's life, that owner's engine epoch).  One registry-lock
        round trip; the engine's per-owner read is a lock-free dict get."""
        with self._engines_lock:
            engine = self._engines.get(network)
            lifecycle = self._lifecycles.get(network, 0)
        return lifecycle, None if engine is None else engine.owner_epoch(owner)

    # ------------------------------------------------------------------
    # administration
    # ------------------------------------------------------------------
    def create_network(
        self,
        name: str,
        public: LabeledGraph,
        index_path: Optional[str] = None,
    ) -> None:
        """Register a public graph under ``name`` and build its index.

        ``index_path`` enables index persistence: an existing file there
        is loaded instead of rebuilding the PADS/KPADS sketches (the only
        expensive artifact), and after a fresh build the index is saved
        there for the next start.  A missing or *stale* file (written
        for another graph — checked by digest, not just size — or under
        another ``sketch_k``) silently falls back to a fresh build that
        overwrites it — persistence is a cache, never a correctness
        risk.  A *corrupt* file (failed checksum, truncation,
        version skew — :class:`~repro.exceptions.IndexCorruptError`) is
        quarantined to ``<index_path>.corrupt`` and reported via a
        ``warnings`` entry on the response before the rebuild, so disk
        trouble is visible instead of silently papered over.  An
        *unwritable* ``index_path`` is a configuration error and raises
        :class:`ReproError` (the network is not registered).

        Thread-safe: the name is reserved under the registry lock before
        the (expensive) index build starts, so concurrent creates of the
        same name resolve to exactly one winner — the others fail with
        ``"already exists"`` — without serializing builds of *different*
        networks.  Takes the network's write lock, and bumps its cache
        epoch so answers from a previous same-named network can never be
        served against the new one.
        """
        with self._network_lock(name, create=True).write_locked():
            self._create_network_exclusive(name, public, index_path)
            pool = self._shard_pool
            if pool is not None:
                pool.admin_create(name, self._engine(name))
        registry = self._metrics_registry()
        if registry is not None:
            registry.set_gauge("ppkws_networks", len(self.networks()))

    def adopt_network(self, name: str, engine: PPKWS) -> None:
        """Register an already-built engine under ``name``.

        The shard-worker replication path: the worker re-attaches the
        shared-memory graph and rebuilds the engine around the shipped
        index (:mod:`repro.serving.shards`), then adopts it here —
        ``create_network`` would re-freeze and re-index from scratch.
        Same exclusion and epoch discipline as a regular create.
        """
        with self._network_lock(name, create=True).write_locked():
            with self._engines_lock:
                if name in self._engines:
                    raise ReproError(f"network {name!r} already exists")
                self._engines[name] = engine
                self._epochs[name] = self._lifecycles[name] = (
                    self._epochs.get(name, 0) + 1
                )

    def _create_network_exclusive(
        self,
        name: str,
        public: LabeledGraph,
        index_path: Optional[str],
    ) -> None:
        with self._engines_lock:
            if name in self._engines:
                raise ReproError(f"network {name!r} already exists")
            self._engines[name] = None  # reserve while we build
        try:
            index = None
            frozen_public = freeze(public)
            if index_path is not None:
                try:
                    index = load_index(frozen_public, index_path)
                    if index.pads.k != self._sketch_k:
                        index = None  # stale: written under another sketch_k
                except FileNotFoundError:
                    index = None
                except IndexCorruptError as exc:
                    # Damaged file: quarantine the evidence, warn, rebuild.
                    index = None
                    self._quarantine_index(index_path, exc)
                except (ReproError, OSError, ValueError, KeyError, TypeError):
                    # Stale (or otherwise unusable) index file: rebuild
                    # and replace it.
                    index = None
            engine = PPKWS(
                frozen_public,
                sketch_k=self._sketch_k,
                options=self._options,
                index=index,
            )
            if index_path is not None and index is None:
                try:
                    save_index(engine.index, index_path)
                except OSError as exc:
                    # An unwritable/invalid path is a caller error, not a
                    # cache miss: surface it as a library error so the
                    # facade's "no library exception escapes" contract
                    # holds (OSError used to propagate out of execute).
                    raise ReproError(
                        f"cannot save index to {index_path!r}: {exc}"
                    ) from exc
        except BaseException:
            with self._engines_lock:
                self._engines.pop(name, None)  # release the reservation
            raise
        with self._engines_lock:
            self._engines[name] = engine
            self._epochs[name] = self._lifecycles[name] = (
                self._epochs.get(name, 0) + 1
            )

    def _quarantine_index(self, index_path: str, exc: IndexCorruptError) -> None:
        """Move a corrupt index file aside and report the event.

        The damaged bytes are preserved at ``<index_path>.corrupt`` for
        post-mortem inspection (the rebuild would otherwise overwrite
        them), ``ppkws_index_corrupt_total`` counts the event, and the
        in-flight request (if any) gets a ``warnings`` entry.
        """
        quarantine_path = f"{index_path}.corrupt"
        try:
            os.replace(index_path, quarantine_path)
        except OSError:
            # The file vanished or the directory is read-only; the
            # rebuild path below will surface any real config error.
            quarantine_path = None  # type: ignore[assignment]
        registry = self._metrics_registry()
        if registry is not None:
            registry.inc("ppkws_index_corrupt_total")
        where = (
            f"quarantined to {quarantine_path!r}"
            if quarantine_path is not None
            else "quarantine failed; rebuilding over it"
        )
        self._warn(
            f"corrupt index file {index_path!r} ({exc.reason}); "
            f"{where}; rebuilding index"
        )

    def drop_network(self, name: str) -> None:
        """Forget a network and all its attachments.  Thread-safe.

        Takes the network's write lock (in-flight readers finish first)
        and bumps its epoch so cached answers die with it.
        """
        with self._network_lock(name).write_locked():
            with self._engines_lock:
                if self._engines.get(name) is None:
                    # Absent, or reserved by an in-flight create (not ours
                    # to drop until the create finishes).
                    raise UnknownNetworkError(name)
                del self._engines[name]
                self._epochs[name] = self._lifecycles[name] = (
                    self._epochs.get(name, 0) + 1
                )
            pool = self._shard_pool
            if pool is not None:
                pool.admin_drop(name)
        registry = self._metrics_registry()
        if registry is not None:
            registry.set_gauge("ppkws_networks", len(self.networks()))

    def attach_user(self, network: str, owner: str, private: LabeledGraph) -> int:
        """Attach a user's private graph; returns the portal count.

        Takes the network's write lock.  The engine bumps this owner's
        epoch, so none of *its* answers computed before the attach
        survives it; other owners' cached answers stay valid.
        """
        with self._network_lock(network).write_locked():
            engine = self._engine(network)
            attachment = engine.attach(owner, private)
            self._bump_epoch(network)
            pool = self._shard_pool
            if pool is not None:
                pool.admin_attach(network, owner, private)
        return len(attachment.portals)

    def detach_user(self, network: str, owner: str) -> None:
        """Detach a user's private graph (write lock; the owner's cached
        answers die with the attachment, nobody else's)."""
        with self._network_lock(network).write_locked():
            self._engine(network).detach(owner)
            self._bump_epoch(network)
            pool = self._shard_pool
            if pool is not None:
                pool.admin_detach(network, owner)

    def networks(self) -> List[str]:
        """Registered network names (reservations excluded)."""
        with self._engines_lock:
            return sorted(n for n, e in self._engines.items() if e is not None)

    def _engine(self, network: str) -> PPKWS:
        with self._engines_lock:
            try:
                engine = self._engines[network]
            except KeyError:
                raise UnknownNetworkError(network) from None
        if engine is None:
            raise UnknownNetworkError(network, "is still being created")
        return engine

    # ------------------------------------------------------------------
    # process-based sharding
    # ------------------------------------------------------------------
    @property
    def shard_pool(self) -> Optional[ShardServingPool]:
        """The active shard pool (``None`` unless sharding is enabled)."""
        return self._shard_pool

    def enable_sharding(self, shards: int = 2) -> ShardServingPool:
        """Start a :class:`ShardServingPool` and replicate into it.

        The public graphs are exported to shared memory once and every
        worker process re-attaches them zero-copy; from here on,
        cache-miss query requests execute inside a worker (outside this
        process's GIL) and admin ops are broadcast to keep the replicas
        current.  Returns the pool (also at :attr:`shard_pool`).
        """
        # Reserve under the lock, construct outside it: the pool spawns
        # worker processes and waits for their handshakes (up to 60s),
        # and holding _shard_lock across that would convoy every
        # concurrent enable/disable/health probe behind process startup
        # (found by RA010).  The reservation keeps double-enable exact.
        with self._shard_lock:
            if self._shard_pool is not None or self._shard_reserved:
                raise ReproError("sharding is already enabled")
            self._shard_reserved = True
        try:
            pool = ShardServingPool(
                shards, registry=self._metrics_registry()
            )
        except BaseException:
            with self._shard_lock:
                self._shard_reserved = False
            raise
        with self._shard_lock:
            self._shard_pool = pool
            self._shard_reserved = False
        # Replicate the networks that predate the pool.  The pool is
        # published *first* so concurrent admin ops broadcast on their
        # own; each network's write lock serializes this loop against
        # them, and pool.networks() skips names such a broadcast already
        # shipped (worker-side attach replay is idempotent).
        for name in self.networks():
            with self._network_lock(name).write_locked():
                try:
                    engine = self._engine(name)
                except UnknownNetworkError:
                    continue  # dropped while we were replicating
                if name in pool.networks():
                    continue
                pool.admin_create(name, engine)
                for owner in engine.owners():
                    pool.admin_attach(
                        name, owner, engine.attachment(owner).private
                    )
        return pool

    def disable_sharding(self) -> None:
        """Stop the shard pool (workers exit, segments are unlinked).

        Safe to call when sharding was never enabled.  Requests fall
        back to in-process execution immediately.
        """
        with self._shard_lock:
            pool, self._shard_pool = self._shard_pool, None
        if pool is not None:
            pool.shutdown()

    # ------------------------------------------------------------------
    # request execution
    # ------------------------------------------------------------------
    @contextmanager
    def _admit(self) -> Iterator[None]:
        """Reserve an execution slot, or fail fast when saturated.

        Only entered when ``max_in_flight`` is set (see :meth:`execute`).
        """
        with self._admission_lock:
            if self._in_flight >= self._max_in_flight:
                raise ServiceOverloadedError(self._in_flight, self._max_in_flight)
            self._in_flight += 1
        try:
            yield
        finally:
            with self._admission_lock:
                self._in_flight -= 1

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one request dict; never raises library errors."""
        started = time.perf_counter()
        self._tls.ctx = ctx = {}
        error_class: Optional[str] = None
        internal_error = False
        query_class = False
        op = request.get("op") if isinstance(request, dict) else None
        try:
            faults.fire(SERVICE_EXECUTE)
            if not isinstance(request, dict):
                raise ReproError("request must be a dict with an 'op' field")
            ops = _current_ops()
            spec = ops.get(op)
            if spec is None:
                raise ReproError(
                    f"unknown op {op!r}; valid ops: {sorted(ops)} "
                    "(send {'op': 'help'} for the catalogue)"
                )
            # Cacheable == the generated per-semantics query ops: the
            # request class whose latency the overload hint models.
            query_class = spec.cacheable
            version = request.get("v")
            # exact int: True == 1 must not pin v1
            if version is not None and (
                type(version) is not int or version != PROTOCOL_VERSION
            ):
                raise ReproError(
                    f"unsupported protocol version {version!r} "
                    f"(this service speaks v{PROTOCOL_VERSION})"
                )
            self._check_fields(spec, request)
            if spec.mode == "control":
                # Introspection must survive overload: no admission slot.
                response = spec.handler(self, request)
            elif self._max_in_flight is None:  # nothing to admit against
                response = self._execute_locked(spec, request)
            else:
                with self._admit():
                    response = self._execute_locked(spec, request)
        except (ReproError, KeyError, TypeError, ValueError, OSError,
                AttributeError) as exc:
            error_class = type(exc).__name__
            response = _error_response(exc)
            internal_error = response["code"] == "internal"
            if response["code"] == "overloaded":
                # How long the caller should back off before resubmitting:
                # roughly one average request draining from the pool.
                response["retry_after_ms"] = self._retry_after_hint_ms()
        finally:
            self._tls.ctx = None
        if "warnings" in ctx:
            response["warnings"] = ctx["warnings"]
        response["v"] = PROTOCOL_VERSION
        self._observe_request(request, op, response, ctx, started,
                              error_class, internal_error, query_class)
        return response

    def _check_fields(
        self, spec: "OpSpec", request: Dict[str, Any], prefix: str = ""
    ) -> None:
        """Warn about unknown fields, then reject a missing field, a bad
        flag, a non-string network or owner, or a malformed budget field.

        In that order, so the warnings survive onto the error response.
        Everything here runs before any lock, registry or cache access.
        ``prefix`` names the batch item the request came from.
        """
        known = spec.known_fields
        if not request.keys() <= known:
            for f in sorted((str(f) for f in request), key=str):
                if f not in known:
                    self._warn(f"{prefix}unknown field {f!r}")
        for f in spec.required:
            if f not in request:
                raise ReproError(f"{prefix}missing field {f!r}")
        for f in _FLAG_FIELDS:
            if f in request and type(request[f]) is not bool:
                raise ReproError(f"{prefix}field {f!r} must be true or false")
        for f in _NAME_FIELDS:  # an absent field reads as "" and passes
            if type(request.get(f, "")) is not str and f in known:
                raise ReproError(f"{prefix}field {f!r} must be a string")
        if "max_expansions" in known:  # the query ops and batch
            deadline = request.get("deadline_ms")
            if deadline is not None:
                try:
                    check_bound("deadline_ms", deadline)
                except QueryError as exc:
                    raise QueryError(f"{prefix}{exc}") from None
            cap = request.get("max_expansions")
            if cap is not None and (type(cap) is not int or cap < 0):
                raise QueryError(
                    f"{prefix}field 'max_expansions' must be an integer "
                    f">= 0, got {cap!r}"
                )

    def _execute_locked(
        self, spec: "OpSpec", request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run an admitted request under the derived rwlock side."""
        if spec.mode == "admin":
            # The service methods themselves take the write lock, so the
            # exclusion also covers direct Python-API calls.
            return spec.handler(self, request)
        with self._network_lock(request["network"]).read_locked():
            return self._execute_cached(spec, request)

    def _execute_cached(
        self, spec: "OpSpec", request: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Serve a read op, via the answer cache when eligible.

        Runs under the network's read lock, so the token observed here
        (:meth:`_answer_token`) cannot move before the store: admin ops
        need the write side.  A stored entry is only ever reused while
        its network's life and its owner's epoch are both current.

        With sharding enabled, the miss path of a query op executes in
        a shard worker *process* (``pool.route``) instead of here — the
        read lock is still held in this process, so replicas cannot
        drift mid-request.
        """
        cache = self._answer_cache
        key = None
        if (
            cache is not None
            and spec.cacheable
            and not request.get("no_cache")
            and not request.get("trace")  # a trace describes a real run
        ):
            key = self._cache_key(spec, request)
        pool = self._shard_pool if spec.cacheable else None

        def run() -> Dict[str, Any]:
            if pool is not None:
                return pool.route(request)
            return spec.handler(self, request)
        if key is None:
            return run()  # skips the token read (a registry-lock round trip)
        return self._through_cache(
            key, self._answer_token(request["network"], request["owner"]), run
        )

    def _through_cache(
        self,
        key: Optional[Tuple[Any, ...]],
        epoch: Tuple[int, Any],
        run: Callable[[], Dict[str, Any]],
        prefix: str = "",
    ) -> Dict[str, Any]:
        """Answer-cache lookup -> ``run`` -> store; ``key=None`` just runs.

        Only ``status: "ok"`` responses are stored.  ``prefix`` names
        the batch item in the store-failure warning.
        """
        cache = self._answer_cache
        if cache is None or key is None:
            return run()
        try:
            hit = cache.lookup(key, epoch)
        except FaultInjectedError:
            # A broken cache degrades to a miss, never a failed request.
            hit = None
        observe_answer_cache(self._metrics_registry(), hit is not None)
        if hit is not None:
            hit["cached"] = True
            return hit
        response = run()
        if response.get("status") == "ok":
            try:
                cache.store(key, epoch, response)
            except (FaultInjectedError, TypeError):
                # The answer is sound; only its memoization was lost (a
                # fault, or a payload that is not wire-shaped).
                self._warn(
                    f"{prefix}answer cache store failed; response not cached"
                )
        return response

    def _cache_key(
        self, spec: "OpSpec", request: Dict[str, Any]
    ) -> Optional[Tuple[Any, ...]]:
        """The answer-cache key, or ``None`` when the request resists
        canonicalization (the handler then produces the real error)."""
        if spec.cache_params is None:
            return None
        try:
            key = (
                spec.name,
                request["network"],
                request["owner"],
            ) + spec.cache_params(request)
            hash(key)
        except (TypeError, ValueError, KeyError):
            return None
        return key

    def _retry_after_hint_ms(self) -> float:
        """Suggested back-off before resubmitting an overloaded request."""
        with self._avg_lock:
            avg = self._avg_request_ms
        return round(min(max(avg, 1.0), 5000.0), 3)

    # -- observability --------------------------------------------------
    def _observe_request(
        self,
        request: Any,
        op: Any,
        response: Dict[str, Any],
        ctx: Dict[str, Any],
        started: float,
        error_class: Optional[str],
        internal_error: bool,
        query_class: bool = False,
    ) -> None:
        """Record one finished request: metrics, trace ring, trace field.

        Defensive by design: observability must never break the facade's
        "no exception escapes" contract, so any failure here is swallowed
        after marking the response.
        """
        try:
            duration_ms = (time.perf_counter() - started) * 1000.0
            status = response.get("status", "error")
            # The EWMA feeds retry_after_ms — "how long until a slot
            # drains".  Only *uncached, completed query* work models
            # that: sub-millisecond cache hits and metrics/help chatter
            # used to drag the average to the clamp floor, so an
            # overloaded client was told to retry after ~1ms while cold
            # queries took orders of magnitude longer.  Locked: a lost
            # float RMW update is not benign when clients pace on it.
            if (
                query_class
                and not response.get("cached")
                and status in ("ok", "degraded")
            ):
                with self._avg_lock:
                    self._avg_request_ms += 0.2 * (
                        duration_ms - self._avg_request_ms
                    )
            op_label = op if isinstance(op, str) else repr(op)
            # The QueryTrace (plus the counters asdict) is only built
            # when someone will actually see it — the per-request cost
            # of assembling one unconditionally showed up as a
            # measurable slice of serving throughput.
            want_trace = isinstance(request, dict) and request.get("trace") is True
            record = status != "ok" or duration_ms >= self._slow_query_ms
            if want_trace or record:
                trace = QueryTrace(
                    op=op_label,
                    status=status,
                    duration_ms=duration_ms,
                    error=error_class,
                )
                if isinstance(request, dict):
                    network = request.get("network")
                    owner = request.get("owner")
                    trace.network = network if isinstance(network, str) else None
                    trace.owner = owner if isinstance(owner, str) else None
                result = ctx.get("result")
                if result is not None:
                    trace.step_ms = {
                        step: getattr(result.breakdown, step) * 1000.0
                        for step in PIPELINE_STEPS
                    }
                    trace.counters = asdict(result.counters)
                    trace.degraded = result.degraded
                    trace.completed_steps = tuple(result.completed_steps)
                    trace.interrupted_step = result.interrupted_step
                budget = ctx.get("budget")
                if budget is not None:
                    trace.expansions = budget.expansions

                if want_trace:
                    if result is not None:
                        response["counters"] = dict(trace.counters)
                    response["trace"] = trace.to_dict()

                if record:
                    self._traces.record(trace)

            registry = self._metrics_registry()
            if registry is not None:
                registry.inc(
                    "ppkws_requests_total",
                    labels={"op": op_label, "status": status},
                )
                registry.observe(
                    "ppkws_request_seconds",
                    duration_ms / 1000.0,
                    labels={"op": op_label},
                )
                if internal_error:
                    registry.inc(
                        "ppkws_internal_errors_total",
                        labels={"error": error_class or "unknown"},
                    )
                if error_class == "ServiceOverloadedError":
                    registry.inc("ppkws_rejected_total")
                if "retry_after_ms" in response:
                    registry.inc("ppkws_retry_after_hint_total")
                registry.set_gauge("ppkws_in_flight_requests", self._in_flight)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            # Observability must never break a request, but a broken
            # observer must not be silent either: these are the concrete
            # malfunction classes shape drift in the result/trace
            # plumbing produces, and each firing is counted so a
            # dashboard shows the telemetry gap instead of nothing.
            try:
                registry = self._metrics_registry()
                if registry is not None:
                    registry.inc(
                        "ppkws_internal_errors_total",
                        labels={"error": f"observer:{type(exc).__name__}"},
                    )
            except Exception:  # pragma: no cover - the metrics sink itself broke
                pass

    def _stash(self, result: Any, budget: Any) -> None:
        """Deposit query internals for :meth:`_observe_request`."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is not None:
            ctx["result"] = result
            ctx["budget"] = budget

    def recent_traces(self) -> List[Dict[str, Any]]:
        """The slow/degraded/errored query traces currently in the ring."""
        return self._traces.snapshot()

    # -- handlers -------------------------------------------------------
    def _semantics_query(
        self, request: Dict[str, Any], spec: SemanticsSpec
    ) -> Dict[str, Any]:
        """The one wire handler every registered semantics runs through."""
        engine = self._engine(request["network"])
        budget = engine.make_budget(**_budget_args(request))
        result = spec.run(
            engine,
            engine.attachment(request["owner"]),
            spec.wire_params(request),
            budget=budget,
        )
        self._stash(result, budget)
        out = _degradation_fields(result)
        out.update(spec.wire_payload(result))
        return out

    def _op_batch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``{"op": "batch"}``: many query items, one admission slot.

        ``queries`` is a list of per-item dicts shaped like the
        individual query requests minus ``network`` / ``owner`` (the
        batch supplies both; item-level values are overridden).  The
        whole batch occupies one admission slot and runs under one
        read lock; ``deadline_ms`` / ``max_expansions`` bound the *whole
        batch* via :class:`~repro.core.batch.BatchBudget` even splitting.

        Every item participates in the answer cache individually — a hit
        skips execution (and does not consume batch budget) and carries
        ``"cached": true``; stored entries are shared with the individual
        query ops.  Items fail individually: a bad item yields an
        ``{"status": "error", ...}`` entry and the rest of the batch
        still runs.  All items execute through one
        :class:`~repro.core.batch.BatchSession`, so they share a
        completion cache.
        """
        from repro.core.batch import BatchBudget, BatchSession

        network = request["network"]
        queries = request["queries"]
        if not isinstance(queries, list):
            raise ReproError("field 'queries' must be a list of query dicts")
        session = BatchSession(self._engine(network), request["owner"])
        budget_args = _budget_args(request)
        batch = BatchBudget(
            budget_args.get("deadline_ms"), budget_args.get("max_expansions")
        )
        ops = _current_ops()
        epoch = self._answer_token(network, request["owner"])
        results: List[Dict[str, Any]] = []
        counts: Dict[str, int] = {}
        for i, item in enumerate(queries):
            entry = self._batch_item(
                session, ops, i, item, batch, len(queries) - i, epoch,
                request,
            )
            results.append(entry)
            status = str(entry.get("status", "error"))
            counts[status] = counts.get(status, 0) + 1
        observe_batch_request(counts)
        return {"status": "ok", "results": results}

    def _batch_item(
        self,
        session: Any,
        ops: Dict[str, "OpSpec"],
        index: int,
        item: Any,
        batch: Any,
        items_left: int,
        epoch: Tuple[int, Any],
        request: Dict[str, Any],
    ) -> Dict[str, Any]:
        """One batch item: cache lookup, execution, error isolation."""
        try:
            if not isinstance(item, dict):
                raise ReproError(
                    f"queries[{index}] must be a dict with an 'op' field"
                )
            item_op = item.get("op")
            op_spec = ops.get(item_op)
            if op_spec is None or not op_spec.cacheable:
                # Only the generated query ops are batchable — admin /
                # control ops inside a batch would dodge their locking.
                valid = sorted(n for n, s in ops.items() if s.cacheable)
                raise ReproError(
                    f"queries[{index}]: op {item_op!r} is not a query op; "
                    f"valid ops: {valid}"
                )
            item_request = dict(item)
            item_request["network"] = request["network"]
            item_request["owner"] = request["owner"]
            prefix = f"queries[{index}]: "
            self._check_fields(op_spec, item_request, prefix)
            key = (
                None if item_request.get("no_cache")
                else self._cache_key(op_spec, item_request)
            )

            def run() -> Dict[str, Any]:
                sem_spec = semantics_spec(item_op)
                slice_budget = batch.slice_for(items_left)
                result = session.query(
                    item_op,
                    budget=slice_budget,
                    **sem_spec.wire_params(item_request),
                )
                batch.charge(slice_budget)
                entry: Dict[str, Any] = _degradation_fields(result)
                entry.update(sem_spec.wire_payload(result))
                return entry

            entry = self._through_cache(key, epoch, run, prefix)
            entry.setdefault("cached", False)
            return entry
        except (ReproError, KeyError, TypeError, ValueError,
                AttributeError) as exc:
            return _error_response(exc)

    def _op_stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        engine = self._engine(request["network"])
        out: Dict[str, Any] = {
            "status": "ok",
            "public": dict(engine.public.stats()),
            "owners": engine.owners(),
            "index_entries": engine.index.pads.total_entries,
            "epoch": self.network_epoch(request["network"]),
        }
        owner = request.get("owner")
        if owner is not None:
            attachment = engine.attachment(owner)
            out["attachment"] = {
                "private_vertices": attachment.private.num_vertices,
                "private_edges": attachment.private.num_edges,
                "portals": len(attachment.portals),
                "refined_portal_pairs": len(attachment.refined_portal_pairs) // 2,
            }
        return out

    def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The observability op: snapshot + traces + cache + Prometheus."""
        registry = self._metrics_registry()
        return {
            "status": "ok",
            "metrics": registry.snapshot() if registry is not None else {},
            "recent_traces": self._traces.snapshot(),
            "answer_cache": (
                self._answer_cache.stats()
                if self._answer_cache is not None
                else None
            ),
            "prometheus": render_prometheus(registry),
        }

    def _op_health(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Liveness/readiness: per-network state plus worker health.

        A control op — no admission slot, no network lock — so operators
        can still see the service while it is overloaded or mid-admin.
        """
        with self._engines_lock:
            networks: Dict[str, Dict[str, Any]] = {}
            for name, engine in self._engines.items():
                info: Dict[str, Any] = {
                    "ready": engine is not None,
                    "epoch": self._epochs.get(name, 0),
                }
                if engine is not None:
                    info["owners"] = len(engine.owners())
                networks[name] = info
        with self._admission_lock:
            in_flight = self._in_flight
        with self._executors_lock:
            executors = [ex.health() for ex in self._executors]
        pool = self._shard_pool
        return {
            "status": "ok",
            "networks": networks,
            "in_flight": in_flight,
            "max_in_flight": self._max_in_flight,
            "executors": executors,
            "shards": pool.health() if pool is not None else None,
            "faults_active": faults.is_active(),
        }

    def _op_help(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """The op catalogue, straight from the registry."""
        ops = {
            name: {
                "summary": spec.summary,
                "required": list(spec.required),
                "optional": list(spec.optional),
                "mode": spec.mode,
                "cacheable": spec.cacheable,
            }
            for name, spec in sorted(_current_ops().items())
        }
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "ops": ops,
            "global_fields": sorted(GLOBAL_REQUEST_FIELDS),
            "error_codes": list(ERROR_CODES),
        }

    # -- admin handlers -------------------------------------------------
    def _op_create_network(self, request: Dict[str, Any]) -> Dict[str, Any]:
        public = _graph_from_request(request, "public")
        self.create_network(
            request["network"], public, index_path=request.get("index_path")
        )
        return {"status": "ok", "network": request["network"]}

    def _op_attach(self, request: Dict[str, Any]) -> Dict[str, Any]:
        private = _graph_from_request(request, "private")
        portals = self.attach_user(request["network"], request["owner"], private)
        return {"status": "ok", "owner": request["owner"], "portals": portals}

    def _op_detach(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.detach_user(request["network"], request["owner"])
        return {"status": "ok", "owner": request["owner"]}

    def _op_drop(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.drop_network(request["network"])
        return {"status": "ok", "network": request["network"]}

    #: The static (non-query) op registry.  Query ops are *generated* —
    #: one per registered semantics, straight from its ``wire_*`` spec
    #: fields — and merged with these by :func:`_current_ops`, which
    #: dispatch and ``help`` consult.
    _STATIC_OPS: Dict[str, OpSpec] = {
        spec.name: spec
        for spec in (
            OpSpec(
                "stats", _op_stats,
                required=("network",), optional=("owner",),
                summary="Network statistics, owners and cache epoch.",
            ),
            OpSpec(
                "batch", _op_batch,
                required=("network", "owner", "queries"),
                optional=_BUDGET_FIELDS,
                summary=(
                    "Run many query items under one admission slot, with "
                    "a whole-batch budget and per-item caching."
                ),
            ),
            OpSpec(
                "metrics", _op_metrics, mode="control",
                summary="Metrics snapshot, traces, cache stats, Prometheus.",
            ),
            OpSpec(
                "help", _op_help, mode="control",
                summary="This catalogue: ops, fields, modes, error codes.",
            ),
            OpSpec(
                "health", _op_health, mode="control",
                summary="Per-network readiness plus executor worker liveness.",
            ),
            OpSpec(
                "create_network", _op_create_network, mode="admin",
                required=("network",),
                optional=("public", "public_edges", "public_labels",
                          "index_path"),
                summary="Register a public graph and build its index.",
            ),
            OpSpec(
                "attach", _op_attach, mode="admin",
                required=("network", "owner"),
                optional=("private", "private_edges", "private_labels"),
                summary="Attach an owner's private graph (portal discovery).",
            ),
            OpSpec(
                "detach", _op_detach, mode="admin",
                required=("network", "owner"),
                summary="Detach an owner's private graph.",
            ),
            OpSpec(
                "drop", _op_drop, mode="admin",
                required=("network",),
                summary="Forget a network and all its attachments.",
            ),
        )
    }
