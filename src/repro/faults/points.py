"""The injection-point catalogue: every :class:`FaultPoint`, in one place.

A fault point is a *name* for one place in the production code where the
fault layer may act — nothing more.  The constants below are the only
sanctioned way to refer to a point: call sites pass the constant, never
a string literal, so a renamed point breaks loudly at import time
instead of silently disarming a chaos schedule.  :class:`FaultSpec`
refuses anything but a :class:`FaultPoint`, and ``fire``'s
``FaultPoint`` annotation lets mypy flag a literal in the strictly typed
modules.

The catalogue is mirrored in the README's "Fault tolerance & crash
safety" section; ``tests/test_faults.py`` asserts the two stay in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "FaultPoint",
    "PERSIST_SAVE_WRITE",
    "PERSIST_SAVE_FSYNC",
    "PERSIST_SAVE_RENAME",
    "PERSIST_LOAD_READ",
    "GRAPH_SAVE_WRITE",
    "GRAPH_SAVE_FSYNC",
    "GRAPH_SAVE_RENAME",
    "GRAPH_LOAD_READ",
    "EXECUTOR_WORKER",
    "SHARD_WORKER",
    "CACHE_LOOKUP",
    "CACHE_STORE",
    "RWLOCK_ACQUIRE_READ",
    "RWLOCK_ACQUIRE_WRITE",
    "SERVICE_EXECUTE",
    "ENGINE_STEP",
    "all_points",
    "point_named",
]


@dataclass(frozen=True)
class FaultPoint:
    """One named place where a fault schedule may act.

    ``stream`` marks write-stream points: only those support the
    ``truncate`` action (byte-accurate torn writes via
    :func:`repro.faults.wrap_write`); at non-stream points a
    ``truncate`` spec degrades to a raise.
    """

    name: str
    layer: str  # "persist" | "graph-io" | "serving" | "service" | "core"
    description: str
    stream: bool = False


_REGISTRY: Dict[str, FaultPoint] = {}


def _point(
    name: str, layer: str, description: str, stream: bool = False
) -> FaultPoint:
    if name in _REGISTRY:
        raise ValueError(f"duplicate fault point {name!r}")
    point = FaultPoint(name, layer, description, stream)
    _REGISTRY[name] = point
    return point


# -- index persistence (repro.core.persist) ----------------------------
PERSIST_SAVE_WRITE = _point(
    "persist.save.write", "persist",
    "byte stream of the binary index tmp-file write (truncate = torn write)",
    stream=True,
)
PERSIST_SAVE_FSYNC = _point(
    "persist.save.fsync", "persist",
    "crash after the index tmp file is written but before fsync",
)
PERSIST_SAVE_RENAME = _point(
    "persist.save.rename", "persist",
    "crash after fsync but before the atomic rename over the index path",
)
PERSIST_LOAD_READ = _point(
    "persist.load.read", "persist",
    "I/O failure opening/reading the index file in load_index",
)

# -- graph text persistence (repro.graph.io) ---------------------------
GRAPH_SAVE_WRITE = _point(
    "graph.save.write", "graph-io",
    "text stream of the graph tmp-file write (truncate = torn write)",
    stream=True,
)
GRAPH_SAVE_FSYNC = _point(
    "graph.save.fsync", "graph-io",
    "crash after the graph tmp file is written but before fsync",
)
GRAPH_SAVE_RENAME = _point(
    "graph.save.rename", "graph-io",
    "crash after fsync but before the atomic rename over the graph path",
)
GRAPH_LOAD_READ = _point(
    "graph.load.read", "graph-io",
    "I/O failure opening/reading a graph file in load_graph",
)

# -- the serving layer (repro.serving) ---------------------------------
EXECUTOR_WORKER = _point(
    "serving.executor.worker", "serving",
    "executor worker body after dequeue, before execute (kill = worker death)",
)
SHARD_WORKER = _point(
    "serving.shards.worker", "serving",
    "shard worker body after a request is received (kill = shard process death)",
)
CACHE_LOOKUP = _point(
    "serving.cache.lookup", "serving",
    "answer-cache lookup (the service degrades a failure to a miss)",
)
CACHE_STORE = _point(
    "serving.cache.store", "serving",
    "answer-cache store (the service drops the insert, keeps the answer)",
)
RWLOCK_ACQUIRE_READ = _point(
    "serving.rwlock.acquire_read", "serving",
    "before a reader enters a network's RWLock (delay = slow reader)",
)
RWLOCK_ACQUIRE_WRITE = _point(
    "serving.rwlock.acquire_write", "serving",
    "before a writer enters a network's RWLock (delay = slow admin op)",
)

# -- the service facade (repro.service) --------------------------------
SERVICE_EXECUTE = _point(
    "service.execute", "service",
    "top of PPKWSService.execute, inside the error boundary",
)

# -- the query engine (repro.core.engine) ------------------------------
ENGINE_STEP = _point(
    "core.engine.step", "core",
    "before each pipeline step in run_pipeline (raise = failed step)",
)


def all_points() -> Tuple[FaultPoint, ...]:
    """Every registered fault point, in registration order."""
    return tuple(_REGISTRY.values())


def point_named(name: str) -> FaultPoint:
    """The :class:`FaultPoint` called ``name`` (``ValueError`` if unknown)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(
            f"unknown fault point {name!r} (known points: {known})"
        ) from None
