"""The concurrent serving layer: worker pool, rwlocks and answer cache.

This package holds the serving-side machinery the facade composes:

* :class:`~repro.serving.executor.ServiceExecutor` — a bounded worker
  pool running request dicts through ``service.execute`` concurrently
  (``submit`` -> future, ``execute_many`` -> ordered responses).
* :class:`~repro.serving.rwlock.RWLock` — the writer-preferring
  reader-writer lock the service takes per network: read-only queries
  share it, admin ops (attach / detach / drop) take it exclusively.
* :class:`~repro.serving.cache.AnswerCache` — the cross-request LRU+TTL
  answer cache with epoch-based invalidation (an owner's attach or
  detach bumps that owner's epoch, so none of its stale answers can be
  served; other owners' entries stay hits).
* :mod:`~repro.serving.shards` — the process-based tier: the public
  graph's CSR buffers exported to shared memory, one service replica
  per worker *process*, whole requests routed round-robin.
  ``ServiceExecutor(..., mode="process")`` turns it on.
"""

from repro.serving.cache import AnswerCache
from repro.serving.executor import ServiceExecutor
from repro.serving.rwlock import RWLock
from repro.serving.shards import ShardServingPool

__all__ = [
    "AnswerCache",
    "RWLock",
    "ServiceExecutor",
    "ShardServingPool",
]
