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
string matching.  ``{"op": "help"}`` returns the full op catalogue
(required/optional fields, read-vs-admin mode, cacheability) straight
from the declarative op registry this module dispatches on.

One request path
----------------

A query runs through fixed stages: field check → admission slot →
read lock → answer cache → :meth:`PPKWSService._semantics_query` →
trace.  The field check is the op's one table of
:class:`~repro.semantics.wire.Field` rows — the global ``op`` / ``v`` /
``trace`` / ``no_cache`` rows plus the op's own, a query op's taken
from its semantics' ``fields``.  Before any lock, registry or cache it
refuses a missing or malformed field as ``bad_request`` naming it,
warns about fields no row names, and yields the params the handler
reads, whose key rows are the answer-cache key.  A ``batch`` item is a
request that takes its network, owner, admission slot and read lock
from the batch and runs the same stages, so an item field means what
it means on a single request.

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
* The registry is one map of immutable per-network records (lock,
  engine, epoch, lifecycle).  Every change replaces a whole record under
  one plain lock while holding the network's write lock, so concurrent
  creates of one name resolve to exactly one winner and a reader sees a
  whole record or none.

Answer cache
------------

Completed ``status: "ok"`` responses of the query ops are cached in a
cross-request LRU+TTL :class:`repro.serving.AnswerCache` keyed on the
op's key rows: op, network, owner and the query fields, defaults
applied (``{"tau": 5.0}`` and an omitted ``tau`` share an entry).
Staleness is epoch-based and per *owner*: a private graph is visible to its owner
only, so an entry lives until that owner's attachment changes
(``attach`` / ``detach`` / a dynamic edit) or its network is created
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
* Unexpected internal failures are reported as
  ``"ExceptionClass: message"`` and counted under the
  ``ppkws_internal_errors_total`` metric.

Observability (see :mod:`repro.obs` and the README's catalogue): every
metric lands in the process-wide registry (:func:`repro.obs.install`).

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
* Any query request (or batch item) may set ``"trace": true`` to receive
  its own ``counters`` and ``trace`` (per-step timings, budget
  expansions, degradation fields) in the response.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import faults
from repro.core.budget import BatchBudget, QueryBudget
from repro.core.engine import (
    SemanticsSpec,
    registered_semantics,
    registry_version,
    semantics_spec,
)
from repro.core.framework import PIPELINE_STEPS, PPKWS, QueryOptions
from repro.core.persist import load_index, save_index
from repro.core.pp_rclique import CompletionCache
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
    QueryTrace,
    TraceRing,
    installed,
    observe_answer_cache,
    observe_batch_cache,
    observe_batch_request,
    render_prometheus,
)
from repro.semantics.wire import (
    REQUIRED,
    VERTEX_TYPES,
    Field,
    FieldTable,
    check_bound,
    check_count,
    check_flag,
    check_name,
    check_vertex,
    nullable,
)
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


#: What a handler may raise and the facade maps to an error response.
_HANDLED = (ReproError, KeyError, TypeError, ValueError, AttributeError)

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


def _graph_fields(field: str) -> Tuple[Field, ...]:
    """A graph payload's rows, as sent: :func:`_graph_from_request` checks them."""
    return tuple(
        Field(name, lambda field, value: value, None)
        for name in (field, f"{field}_edges", f"{field}_labels")
    )


def _graph_from_request(params: Dict[str, Any], field_name: str) -> LabeledGraph:
    """Build a graph from a request payload.

    Accepts either a ready :class:`LabeledGraph` under ``field_name`` or
    the wire-friendly pair ``<field>_edges`` (list of ``[u, v]`` or
    ``[u, v, weight]``) and optional ``<field>_labels``
    (vertex -> label list).  The wire form is validated, not trusted:
    a vertex that is not a string or an integer
    (:func:`~repro.semantics.wire.check_vertex`), a weight that is not a
    positive finite number (``NaN`` would poison every distance through
    its edge) or labels that are not a list of strings raise a
    :class:`ReproError` naming the field — ``bad_request`` on the wire,
    before anything is built.
    """
    graph = params[field_name]
    if isinstance(graph, LabeledGraph):
        return graph
    edges_field, labels_field = f"{field_name}_edges", f"{field_name}_labels"
    if graph is not None:
        raise ReproError(
            f"field {field_name!r} must be a LabeledGraph "
            f"(or send {edges_field!r} instead)"
        )
    edges, labels = params[edges_field], params[labels_field]
    if edges is None:
        raise ReproError(f"missing field {edges_field!r}")
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
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
            raise ReproError(
                f"field {edges_field!r} entries must be [u, v] or [u, v, weight]"
            )
        # the exact-type test keeps the common case call-free (a public
        # graph is ~10^5 endpoints); check_vertex decides everything else
        if type(edge[0]) not in VERTEX_TYPES or type(edge[1]) not in VERTEX_TYPES:
            check_vertex(edges_field, edge[0])
            check_vertex(edges_field, edge[1])
        if len(edge) == 3:
            w = edge[2]
            # exact types: bool is an int only by accident; NaN fails both
            # comparisons
            if type(w) not in (int, float) or not 0 < w < INF:
                raise ReproError(
                    f"field {edges_field!r}: weight of edge {list(edge[:2])!r} "
                    f"must be a positive finite number, got {w!r}"
                )
        out.add_edge(*edge)
    try:
        for v, ls in labels.items():
            if type(v) not in VERTEX_TYPES:
                check_vertex(labels_field, v)
            if not isinstance(ls, (list, tuple, set, frozenset)):
                raise ReproError(
                    f"field {labels_field!r}: labels of {v!r} must be a list "
                    f"of strings, got {ls!r}"
                )
            out.add_vertex(v, ls)
    except TypeError:  # what a JSON array or object does as a set member
        raise ReproError(f"field {labels_field!r}: labels must be strings") from None
    # one look at each *distinct* label, not at every vertex's list
    for label in out.label_universe():
        if not isinstance(label, str):
            raise ReproError(
                f"field {labels_field!r}: labels must be strings, got {label!r}"
            )
    return out


def _tighter(limit: Any, bound: Any) -> Any:
    """The smaller of two optional budget limits (``None``: no limit)."""
    return bound if limit is None else limit if bound is None else min(limit, bound)


def _trace(
    request: Any,
    op: Any,
    response: Dict[str, Any],
    duration_ms: float,
    error: Optional[str],
    ctx: Dict[str, Any],
) -> QueryTrace:
    """The :class:`QueryTrace` of one finished request or batch item.

    ``ctx`` holds what the query stage stashed (``result``, ``budget``).
    A request that asked for it (``"trace": true``) also gets the trace
    in its ``response``, plus the engine's ``counters`` when a query ran.
    """
    fields = request if isinstance(request, dict) else {}
    network, owner = fields.get("network"), fields.get("owner")
    result, budget = ctx.get("result"), ctx.get("budget")
    trace = QueryTrace(
        op=op if isinstance(op, str) else repr(op),
        status=response.get("status", "error"),
        duration_ms=duration_ms,
        network=network if isinstance(network, str) else None,
        owner=owner if isinstance(owner, str) else None,
        expansions=None if budget is None else budget.expansions,
        error=error,
    )
    if result is not None:
        trace.step_ms = {
            step: getattr(result.breakdown, step) * 1000.0
            for step in PIPELINE_STEPS
        }
        trace.counters = asdict(result.counters)
        trace.degraded = result.degraded
        trace.completed_steps = tuple(result.completed_steps)
        trace.interrupted_step = result.interrupted_step
    if fields.get("trace") is True:
        if result is not None:
            response["counters"] = dict(trace.counters)
        response["trace"] = trace.to_dict()
    return trace


# ----------------------------------------------------------------------
# the declarative op registry
# ----------------------------------------------------------------------
def _check_version(field: str, value: Any) -> Any:
    # exact int: True == 1 must not pin v1
    if value is not None and (type(value), value) != (int, PROTOCOL_VERSION):
        raise QueryError(
            f"field {field!r}: unsupported protocol version {value!r} "
            f"(this service speaks v{PROTOCOL_VERSION})"
        )
    return value


def _check_queries(field: str, value: Any) -> List[Any]:
    if not isinstance(value, list):
        raise QueryError(f"field {field!r} must be a list of query dicts")
    return value


_OP = Field("op", check_name, key=True)
#: the rows every op reads (``help``'s ``global_fields``)
_GLOBAL_FIELDS: Tuple[Field, ...] = (
    _OP,
    Field("v", _check_version, None),
    Field("trace", check_flag, False),
    Field("no_cache", check_flag, False),
)
_NETWORK = Field("network", check_name, key=True)
_OWNER = Field("owner", check_name, key=True)
#: budget knobs shared by every query op and batch
_BUDGET_FIELDS: Tuple[Field, ...] = (
    Field("deadline_ms", nullable(check_bound), None),
    Field("max_expansions", nullable(partial(check_count, least=0)), None),
)


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

    ``fields`` are the op's own rows (``help`` lists them as
    ``required`` / ``optional``); :attr:`table` adds the global rows,
    and its params are what the handler gets.
    """

    name: str
    handler: Callable[["PPKWSService", Dict[str, Any]], Dict[str, Any]]
    fields: Tuple[Field, ...] = ()
    mode: str = "read"
    cacheable: bool = False
    summary: str = ""

    def __post_init__(self) -> None:
        if self.mode not in ("read", "admin", "control"):
            raise ValueError(f"bad op mode {self.mode!r}")

    @cached_property
    def table(self) -> FieldTable:
        """Every row the op reads: compiled once, applied per request."""
        return FieldTable(_GLOBAL_FIELDS + self.fields)


def _query_op(spec: SemanticsSpec) -> OpSpec:
    """Build the wire op for one registered semantics.

    Everything — request checks, cache key, response payload, the
    ``help`` entry — comes from the spec's ``fields`` rows and
    ``wire_payload``, so registering a semantics (see ``README.md``
    "Semantics plugins") is all it takes to put it on the wire.
    """
    return OpSpec(
        spec.name,
        lambda service, params: service._semantics_query(params, spec),
        fields=(_NETWORK, _OWNER)
        + tuple(f for f in spec.fields if f.wire)
        + _BUDGET_FIELDS,
        cacheable=True,
        summary=spec.summary,
    )


_OPS_LOCK = threading.Lock()
_OPS_CACHE: Tuple[int, Dict[str, "OpSpec"]] = (-1, {})


def _op_spec(
    ops: Dict[str, "OpSpec"], request: Dict[str, Any], prefix: str = ""
) -> Optional["OpSpec"]:
    """The op ``request`` names, or ``None`` when no op has that name.

    An absent ``op`` is a missing field, like any other required one.  A
    present ``op`` passes its row first: a list or dict must be the
    caller's error, not a ``TypeError`` from the registry lookup."""
    if "op" not in request:
        raise ReproError(f"{prefix}missing field 'op'")
    op = request["op"]
    try:
        _OP.check(_OP.name, op)
    except QueryError as exc:
        raise QueryError(f"{prefix}{exc}") from None
    return ops.get(op)


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


@dataclass(frozen=True)
class _Network:
    """One name's registry record; every change replaces it whole.

    ``engine`` is ``None`` while the first build runs (``building``) and
    after a drop; the record, and so ``lock``, outlives the drop, so
    late requests against a dropped name still lock consistently.
    ``epoch`` counts every admin op of the name and is never reset (a
    re-created network must not revive old answers); ``lifecycle`` is
    the epoch of its last create / adopt / drop: which life of the name
    an answer-cache entry belongs to.
    """

    lock: RWLock
    engine: Optional[PPKWS] = None
    epoch: int = 0
    lifecycle: int = 0
    building: bool = False


class PPKWSService:
    """Named-network registry plus a uniform request executor.

    ``max_in_flight`` caps concurrently executing requests; ``None``
    (the default) disables admission control.

    ``answer_cache_size`` / ``answer_cache_ttl_s`` configure the
    cross-request answer cache (entries / per-entry freshness bound in
    seconds).  A size of ``0`` disables answer caching entirely; a TTL
    of ``None`` keeps entries until evicted or their owner's attachment
    (or their network's life) changes.

    Metrics go to the process-wide registry (:func:`repro.obs.install`);
    when none is installed, instrumentation reduces to a ``None`` check
    per request.  ``slow_query_ms`` is the latency above which an
    otherwise-healthy request is recorded in the trace ring of size
    ``trace_ring_size``.
    """

    def __init__(
        self,
        sketch_k: int = 2,
        options: Optional[QueryOptions] = None,
        max_in_flight: Optional[int] = None,
        slow_query_ms: float = 1000.0,
        trace_ring_size: int = 128,
        answer_cache_size: int = 1024,
        answer_cache_ttl_s: Optional[float] = 60.0,
    ):
        self._sketch_k = sketch_k
        self._options = options
        #: name -> its record; a name gets one on its first create
        self._networks: Dict[Any, _Network] = {}
        self._networks_lock = threading.Lock()
        self._answer_cache: Optional[AnswerCache] = (
            AnswerCache(answer_cache_size, answer_cache_ttl_s)
            if answer_cache_size
            else None
        )
        self._max_in_flight = max_in_flight
        self._in_flight = 0
        self._admission_lock = threading.Lock()
        self._slow_query_ms = slow_query_ms
        self._traces = TraceRing(trace_ring_size)
        #: per-thread scratch where the query stage deposits the result /
        #: budget objects and handlers their warnings
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
    # the network registry
    # ------------------------------------------------------------------
    def _network_lock(self, network: Any, create: bool = False) -> RWLock:
        """The reader-writer lock for ``network``.

        Only a create (:meth:`_install`) passes ``create``: every other
        op on a name that was never created raises
        :class:`UnknownNetworkError` here, so request-supplied names
        cannot grow the map.  A dropped name keeps its lock.  The read is
        lock-free: records are immutable and a name's lock never changes.
        """
        record = self._networks.get(network)
        if record is None:
            if not create:
                raise UnknownNetworkError(network)
            with self._networks_lock:
                record = self._networks.get(network)
                if record is None:
                    record = self._networks[network] = _Network(RWLock())
        return record.lock

    def _update(self, name: str, **changes: Any) -> None:
        """Replace ``name``'s record by a copy with ``changes``.

        The caller holds the network's write lock, so no other admin op
        of the name races the read-modify-write.
        """
        with self._networks_lock:
            self._networks[name] = replace(self._networks[name], **changes)

    def _new_life(self, name: str, engine: Optional[PPKWS]) -> None:
        """Start a new life of ``name`` around ``engine`` (``None``: the
        drop).  Its epoch moves, so no cached answer crosses over, and
        the ``ppkws_networks`` gauge follows."""
        epoch = self._networks[name].epoch + 1
        self._update(
            name, engine=engine, epoch=epoch, lifecycle=epoch, building=False
        )
        registry = installed()
        if registry is not None:
            registry.set_gauge("ppkws_networks", len(self.networks()))

    def network_epoch(self, network: str) -> int:
        """The network's current cache epoch (0 before any admin op)."""
        record = self._networks.get(network)
        return 0 if record is None else record.epoch

    def _answer_token(self, network: str, owner: Any) -> Tuple[int, Any]:
        """What a cached answer of ``owner`` must match to be served:
        (the network's life, that owner's engine epoch).  The caller
        holds the network's read lock, so the record cannot move; both
        reads are lock-free dict gets."""
        record = self._networks[network]
        engine = record.engine
        epoch = None if engine is None else engine.owner_epoch(owner)
        return record.lifecycle, epoch

    def _records(self) -> List[Tuple[Any, _Network]]:
        with self._networks_lock:
            return list(self._networks.items())

    def networks(self) -> List[str]:
        """Registered network names (builds in flight excluded)."""
        return sorted(n for n, r in self._records() if r.engine is not None)

    def _engine(self, network: str) -> PPKWS:
        # A build in flight holds the write lock, so every locked caller
        # sees the finished engine (or no record); only lock-free callers
        # can find a record still building, and it reads as unknown.
        record = self._networks.get(network)
        if record is None or record.engine is None:
            raise UnknownNetworkError(network)
        return record.engine

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

        Thread-safe: the build runs under the network's write lock, so
        concurrent creates of the same name resolve to exactly one
        winner — the others fail with ``"already exists"`` — without
        serializing builds of *different* networks.  The new life bumps
        the name's cache epoch so answers from a previous same-named
        network can never be served against the new one.
        """
        self._install(name, partial(self._build_engine, public, index_path))

    def adopt_network(self, name: str, engine: PPKWS) -> None:
        """Register an already-built engine under ``name``.

        The shard-worker replication path: the worker re-attaches the
        shared-memory graph and rebuilds the engine around the shipped
        index (:mod:`repro.serving.shards`), then adopts it here —
        ``create_network`` would re-freeze and re-index from scratch.
        """
        self._install(name, lambda: engine)

    def _install(self, name: str, build: Callable[[], PPKWS]) -> None:
        """Give ``name`` a new life around ``build()``'s engine: the one
        exclusion and epoch discipline of every create."""
        with self._network_lock(name, create=True).write_locked():
            if self._networks[name].engine is not None:
                raise ReproError(f"network {name!r} already exists")
            self._update(name, building=True)
            try:
                engine = build()
            except BaseException:
                self._update(name, building=False)
                raise
            self._new_life(name, engine)
            self._replicate(lambda pool: pool.admin_create(name, engine))

    def _build_engine(
        self, public: LabeledGraph, index_path: Optional[str]
    ) -> PPKWS:
        index = None
        frozen_public = freeze(public)
        if index_path is not None:
            try:
                index = load_index(frozen_public, index_path)
            except IndexCorruptError as exc:
                # Damaged file: quarantine the evidence, warn, rebuild.
                self._quarantine_index(index_path, exc)
            except (ReproError, OSError, ValueError, KeyError, TypeError):
                pass  # missing, stale or otherwise unusable: rebuild it
            if index is not None and index.pads.k != self._sketch_k:
                index = None  # stale: written under another sketch_k
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
                # facade's "no library exception escapes" contract holds.
                raise ReproError(
                    f"cannot save index to {index_path!r}: {exc}"
                ) from exc
        return engine

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
            where = f"quarantined to {quarantine_path!r}"
        except OSError:
            # The file vanished or the directory is read-only; the
            # rebuild path below will surface any real config error.
            where = "quarantine failed; rebuilding over it"
        registry = installed()
        if registry is not None:
            registry.inc("ppkws_index_corrupt_total")
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
            self._engine(name)  # an absent name is unknown_network
            self._new_life(name, None)
            self._replicate(lambda pool: pool.admin_drop(name))

    def attach_user(self, network: str, owner: str, private: LabeledGraph) -> int:
        """Attach a user's private graph; returns the portal count.

        Takes the network's write lock.  The engine bumps this owner's
        epoch, so none of *its* answers computed before the attach
        survives it; other owners' cached answers stay valid.
        """
        with self._network_lock(network).write_locked():
            attachment = self._engine(network).attach(owner, private)
            self._update(network, epoch=self._networks[network].epoch + 1)
            self._replicate(
                lambda pool: pool.admin_attach(network, owner, private)
            )
        return len(attachment.portals)

    def detach_user(self, network: str, owner: str) -> None:
        """Detach a user's private graph (write lock; the owner's cached
        answers die with the attachment, nobody else's)."""
        with self._network_lock(network).write_locked():
            self._engine(network).detach(owner)
            self._update(network, epoch=self._networks[network].epoch + 1)
            self._replicate(lambda pool: pool.admin_detach(network, owner))

    # ------------------------------------------------------------------
    # process-based sharding
    # ------------------------------------------------------------------
    def _replicate(self, admin: Callable[[ShardServingPool], Any]) -> None:
        """Replay one admin op into the shard pool, when sharding is on
        (the caller holds the network's write lock)."""
        pool = self._shard_pool
        if pool is not None:
            admin(pool)

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
            pool = ShardServingPool(shards)
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
                engine = self._networks[name].engine
                if engine is None or name in pool.networks():
                    continue  # dropped meanwhile, or already shipped
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
        spec: Optional[OpSpec] = None
        op = request.get("op") if isinstance(request, dict) else None
        try:
            faults.fire(SERVICE_EXECUTE)
            if not isinstance(request, dict):
                raise ReproError("request must be a dict with an 'op' field")
            ops = _current_ops()
            spec = _op_spec(ops, request)
            if spec is None:
                raise ReproError(
                    f"unknown op {op!r}; valid ops: {sorted(ops)} "
                    "(send {'op': 'help'} for the catalogue)"
                )
            # the field check, before any lock, registry or cache
            params = spec.table.apply(request, "", self._warn)
            if spec.mode == "control":
                # Introspection must survive overload: no admission slot.
                response = spec.handler(self, params)
            elif self._max_in_flight is None:  # nothing to admit against
                response = self._execute_locked(spec, request, params)
            else:
                with self._admit():
                    response = self._execute_locked(spec, request, params)
        except _HANDLED + (OSError,) as exc:
            error_class = type(exc).__name__
            response = _error_response(exc)
            if response["code"] == "overloaded":
                # How long the caller should back off before resubmitting:
                # roughly one average request draining from the pool.
                response["retry_after_ms"] = self._retry_after_hint_ms()
        finally:
            self._tls.ctx = None
        if "warnings" in ctx:
            response["warnings"] = ctx["warnings"]
        response["v"] = PROTOCOL_VERSION
        # Cacheable == the generated per-semantics query ops: the
        # request class whose latency the overload hint models.
        query_class = spec is not None and spec.cacheable
        self._observe_request(request, op, query_class, response, ctx,
                              started, error_class)
        return response

    def _execute_locked(
        self, spec: "OpSpec", request: Dict[str, Any], params: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run an admitted request under the derived rwlock side.

        With sharding enabled, the cache-miss path of a query op runs in
        a shard worker *process* (``pool.route``); the read lock is still
        held here, so replicas cannot drift mid-request.
        """
        if spec.mode == "admin":
            # The service methods themselves take the write lock, so the
            # exclusion also covers direct Python-API calls.
            return spec.handler(self, params)
        with self._network_lock(params["network"]).read_locked():
            if not spec.cacheable:
                return spec.handler(self, params)
            pool = self._shard_pool
            if pool is not None:
                return self._cached(spec, params, partial(pool.route, request))
            return self._cached(spec, params, partial(spec.handler, self, params))

    def _cached(
        self,
        spec: "OpSpec",
        params: Dict[str, Any],
        run: Callable[[], Dict[str, Any]],
        prefix: str = "",
    ) -> Dict[str, Any]:
        """The answer-cache stage of a query op: a hit, else ``run()``
        with an ``ok`` response stored.

        Runs under the network's read lock, so the token read here
        (:meth:`_answer_token`) cannot move before the store: admin ops
        need the write side.  An entry is only reused while its network's
        life and its owner's epoch are both current.  ``run`` alone
        answers when the cache is off, and for ``no_cache`` and ``trace``
        requests (a trace describes a real run).  ``prefix`` names the
        batch item in the store-failure warning.
        """
        cache = self._answer_cache
        if cache is None or params["no_cache"] or params["trace"]:
            return run()
        key = spec.table.key(params)
        token = self._answer_token(params["network"], params["owner"])
        try:
            hit = cache.lookup(key, token)
        except FaultInjectedError:
            # A broken cache degrades to a miss, never a failed request.
            hit = None
        observe_answer_cache(hit is not None)
        if hit is not None:
            hit["cached"] = True
            return hit
        response = run()
        if response.get("status") == "ok":
            try:
                cache.store(key, token, response)
            except (FaultInjectedError, TypeError):
                # The answer is sound; only its memoization was lost (a
                # fault, or a payload that is not wire-shaped).
                self._warn(
                    f"{prefix}answer cache store failed; response not cached"
                )
        return response

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
        query_class: bool,
        response: Dict[str, Any],
        ctx: Dict[str, Any],
        started: float,
        error_class: Optional[str],
    ) -> None:
        """Record one finished request: metrics, trace ring, trace field.

        Defensive by design: observability must never break the facade's
        "no exception escapes" contract, so a failure here is counted,
        not raised.
        """
        registry = installed()
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
            # The QueryTrace is only built when someone will actually
            # see it — the per-request cost of assembling one
            # unconditionally showed up as a measurable slice of serving
            # throughput.
            record = status != "ok" or duration_ms >= self._slow_query_ms
            if record or (
                isinstance(request, dict) and request.get("trace") is True
            ):
                trace = _trace(request, op, response, duration_ms,
                               error_class, ctx)
                if record:
                    self._traces.record(trace)
            if registry is None:
                return
            labels = {"op": op if isinstance(op, str) else repr(op)}
            registry.inc(
                "ppkws_requests_total", labels=dict(labels, status=status)
            )
            registry.observe(
                "ppkws_request_seconds", duration_ms / 1000.0, labels=labels
            )
            if error_class is not None and response["code"] == "internal":
                registry.inc(
                    "ppkws_internal_errors_total", labels={"error": error_class}
                )
            if "retry_after_ms" in response:  # an overload rejection
                registry.inc("ppkws_rejected_total")
                registry.inc("ppkws_retry_after_hint_total")
            registry.set_gauge("ppkws_in_flight_requests", self._in_flight)
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            # Observability must never break a request, but a broken
            # observer must not be silent either: these are the concrete
            # malfunction classes shape drift in the result/trace
            # plumbing produces, and each firing is counted so a
            # dashboard shows the telemetry gap instead of nothing.
            try:
                if registry is not None:
                    registry.inc(
                        "ppkws_internal_errors_total",
                        labels={"error": f"observer:{type(exc).__name__}"},
                    )
            except Exception:  # pragma: no cover - the metrics sink itself broke
                pass

    def recent_traces(self) -> List[Dict[str, Any]]:
        """The slow/degraded/errored query traces currently in the ring."""
        return self._traces.snapshot()

    # -- handlers -------------------------------------------------------
    def _semantics_query(
        self,
        params: Dict[str, Any],
        spec: SemanticsSpec,
        cache: Optional[CompletionCache] = None,
        cap: Optional[QueryBudget] = None,
    ) -> Dict[str, Any]:
        """The query stage every registered semantics runs through.

        A batch item passes its batch's shared completion ``cache`` and
        its budget slice ``cap``; the tighter of ``cap`` and the
        request's own budget fields applies.
        """
        engine = self._engine(params["network"])
        deadline_ms, max_expansions = params["deadline_ms"], params["max_expansions"]
        if cap is not None:
            deadline_ms = _tighter(deadline_ms, cap.deadline_ms)
            max_expansions = _tighter(max_expansions, cap.max_expansions)
        budget = engine.make_budget(deadline_ms, max_expansions)
        result = spec.run(
            engine,
            engine.attachment(params["owner"]),
            params,
            budget=budget,
            cache=cache,
        )
        ctx = getattr(self._tls, "ctx", None)
        if ctx is not None:  # for the trace builder (:func:`_trace`)
            ctx.update(result=result, budget=budget)
        out: Dict[str, Any] = {"status": "degraded" if result.degraded else "ok"}
        if result.degraded:
            out["completed_steps"] = list(result.completed_steps)
            out["interrupted_step"] = result.interrupted_step
        out.update(spec.wire_payload(result))
        return out

    def _op_batch(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """``{"op": "batch"}``: many query items, one admission slot.

        ``queries`` is a list of per-item dicts shaped like the
        individual query requests minus ``network`` / ``owner`` (the
        batch supplies both; item-level values are overridden).  The
        whole batch holds one admission slot and one read lock; each
        item then runs the single-request stages — field check, answer
        cache, :meth:`_semantics_query`, trace — so ``v``, ``trace``,
        ``no_cache`` and the budget fields mean what they mean on a
        single request.  ``deadline_ms`` / ``max_expansions`` bound the
        *whole batch*: before its answer-cache lookup, item ``i`` is
        sliced an even :class:`~repro.core.budget.BatchBudget` share of
        what is left over all ``len(queries) - i`` remaining items, and an
        item's own budget fields can only tighten its slice.  A cache hit
        skips execution, spends none of its slice (the share flows to
        later items) and carries ``"cached": true``.  Items fail
        individually.  The rooted items (blinks, banks, rclique) share
        one completion cache, the Sec.-VI-B PKA, for the batch's length:

        >>> from repro.graph import LabeledGraph
        >>> service = PPKWSService(sketch_k=2)
        >>> service.create_network(
        ...     "n", LabeledGraph.from_edges([(0, 1)], {1: {"t"}}))
        >>> service.attach_user(
        ...     "n", "bob", LabeledGraph.from_edges([(0, "x")], {"x": {"s"}}))
        1
        >>> item = {"op": "blinks", "keywords": ["t", "s"], "tau": 3.0,
        ...         "no_cache": True, "trace": True}
        >>> response = service.execute({"op": "batch", "network": "n",
        ...                             "owner": "bob", "queries": [item, item]})
        >>> [(e["counters"]["completion_lookups"],
        ...   e["counters"]["completion_cache_hits"])
        ...  for e in response["results"]]  # the repeat only hits
        [(4, 2), (4, 4)]
        """
        network, owner = params["network"], params["owner"]
        queries = params["queries"]
        engine = self._engine(network)
        engine.attachment(owner)  # an unknown owner fails the whole batch
        cache = CompletionCache(enabled=engine.options.dp_completion)
        batch = BatchBudget(params["deadline_ms"], params["max_expansions"])
        ops = _current_ops()
        ctx = self._tls.ctx
        results: List[Dict[str, Any]] = []
        for i, item in enumerate(queries):
            started = time.perf_counter()
            prefix = f"queries[{i}]: "
            error_class: Optional[str] = None
            try:
                if not isinstance(item, dict):
                    raise ReproError(
                        f"queries[{i}] must be a dict with an 'op' field"
                    )
                item = dict(item, network=network, owner=owner)
                spec = _op_spec(ops, item, prefix)
                if spec is None or not spec.cacheable:
                    # Only the generated query ops are batchable — admin /
                    # control ops inside a batch would dodge their locking.
                    valid = sorted(n for n, s in ops.items() if s.cacheable)
                    raise ReproError(
                        f"{prefix}op {item.get('op')!r} is not a query op; "
                        f"valid ops: {valid}"
                    )
                item_params = spec.table.apply(item, prefix, self._warn)
                run = partial(
                    self._semantics_query, item_params,
                    semantics_spec(spec.name), cache,
                    batch.slice_for(len(queries) - i),
                )
                entry = self._cached(spec, item_params, run, prefix)
                entry.setdefault("cached", False)
            except _HANDLED as exc:
                error_class = type(exc).__name__
                entry = _error_response(exc)
            stashed = {k: ctx.pop(k) for k in ("result", "budget") if k in ctx}
            batch.charge(stashed.get("budget"))
            if isinstance(item, dict) and item.get("trace") is True:
                ms = (time.perf_counter() - started) * 1000.0
                _trace(item, item.get("op"), entry, ms, error_class, stashed)
            results.append(entry)
        observe_batch_cache(cache.hits, cache.misses)
        observe_batch_request(Counter(str(e["status"]) for e in results))
        return {"status": "ok", "results": results}

    def _op_stats(self, params: Dict[str, Any]) -> Dict[str, Any]:
        engine = self._engine(params["network"])
        out: Dict[str, Any] = {
            "status": "ok",
            "public": dict(engine.public.stats()),
            "owners": engine.owners(),
            "index_entries": engine.index.pads.total_entries,
            "epoch": self.network_epoch(params["network"]),
        }
        owner = params["owner"]
        if owner is not None:
            attachment = engine.attachment(owner)
            out["attachment"] = {
                "private_vertices": attachment.private.num_vertices,
                "private_edges": attachment.private.num_edges,
                "portals": len(attachment.portals),
                "refined_portal_pairs": len(attachment.refined_portal_pairs) // 2,
            }
        return out

    def _op_metrics(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The observability op: snapshot + traces + cache + Prometheus."""
        registry = installed()
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

    def _op_health(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Liveness/readiness: per-network state plus worker health.

        A control op — no admission slot, no network lock — so operators
        can still see the service while it is overloaded or mid-admin.
        """
        networks: Dict[str, Dict[str, Any]] = {}
        for name, record in self._records():
            engine = record.engine
            if engine is None and not record.building:
                continue  # dropped
            networks[name] = {"ready": engine is not None, "epoch": record.epoch}
            if engine is not None:
                networks[name]["owners"] = len(engine.owners())
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

    def _op_help(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """The op catalogue, straight from the ops' field rows."""
        ops = {
            name: {
                "summary": spec.summary,
                "required": [f.name for f in spec.fields if f.default is REQUIRED],
                "optional": [f.name for f in spec.fields if f.default is not REQUIRED],
                "mode": spec.mode,
                "cacheable": spec.cacheable,
            }
            for name, spec in sorted(_current_ops().items())
        }
        return {
            "status": "ok",
            "protocol": PROTOCOL_VERSION,
            "ops": ops,
            "global_fields": sorted(f.name for f in _GLOBAL_FIELDS),
            "error_codes": list(ERROR_CODES),
        }

    # -- admin handlers -------------------------------------------------
    def _op_create_network(self, params: Dict[str, Any]) -> Dict[str, Any]:
        public = _graph_from_request(params, "public")
        self.create_network(
            params["network"], public, index_path=params["index_path"]
        )
        return {"status": "ok", "network": params["network"]}

    def _op_attach(self, params: Dict[str, Any]) -> Dict[str, Any]:
        private = _graph_from_request(params, "private")
        portals = self.attach_user(params["network"], params["owner"], private)
        return {"status": "ok", "owner": params["owner"], "portals": portals}

    def _op_detach(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.detach_user(params["network"], params["owner"])
        return {"status": "ok", "owner": params["owner"]}

    def _op_drop(self, params: Dict[str, Any]) -> Dict[str, Any]:
        self.drop_network(params["network"])
        return {"status": "ok", "network": params["network"]}

    #: The static (non-query) op registry.  Query ops are *generated* —
    #: one per registered semantics, straight from its ``fields`` rows —
    #: and merged with these by :func:`_current_ops`, which dispatch and
    #: ``help`` consult.
    _STATIC_OPS: Dict[str, OpSpec] = {
        spec.name: spec
        for spec in (
            OpSpec(
                "stats", _op_stats,
                fields=(_NETWORK, Field("owner", check_name, None)),
                summary="Network statistics, owners and cache epoch.",
            ),
            OpSpec(
                "batch", _op_batch,
                fields=(_NETWORK, _OWNER, Field("queries", _check_queries))
                + _BUDGET_FIELDS,
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
                fields=(_NETWORK,) + _graph_fields("public")
                + (Field("index_path", nullable(check_name), None),),
                summary="Register a public graph and build its index.",
            ),
            OpSpec(
                "attach", _op_attach, mode="admin",
                fields=(_NETWORK, _OWNER) + _graph_fields("private"),
                summary="Attach an owner's private graph (portal discovery).",
            ),
            OpSpec(
                "detach", _op_detach, mode="admin",
                fields=(_NETWORK, _OWNER),
                summary="Detach an owner's private graph.",
            ),
            OpSpec(
                "drop", _op_drop, mode="admin",
                fields=(_NETWORK,),
                summary="Forget a network and all its attachments.",
            ),
        )
    }
