"""A writer-preferring reader-writer lock for the serving layer.

The service facade serves two very different request classes: read-only
queries (Blinks / r-clique / BANKS / k-nk / stats), which never mutate a
network and may run in parallel, and admin operations (attach / detach /
drop), which restructure per-network state and must be exclusive.  A
plain mutex would serialize the read side; :class:`RWLock` lets any
number of readers proceed together while writers get exclusivity.

Semantics:

* Any number of readers may hold the lock concurrently.
* A writer holds the lock alone (no readers, no other writers).
* Writers are *preferred*: once a writer is waiting, new readers queue
  behind it.  Under sustained query traffic an attach would otherwise
  starve forever.
* The lock is **not reentrant** on either side; a thread acquiring the
  read side while holding the write side (or vice versa) deadlocks.
  The service takes it exactly once per request, around the handler.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro import faults
from repro.faults.points import RWLOCK_ACQUIRE_READ, RWLOCK_ACQUIRE_WRITE

__all__ = ["RWLock"]


class _Held:
    """``with`` form of one lock side.  A plain object: a
    ``@contextmanager`` generator per request showed in the hit floor."""

    __slots__ = ("_enter", "_exit")

    def __init__(self, enter: Callable[[], None], exit_: Callable[[], None]):
        self._enter = enter
        self._exit = exit_

    def __enter__(self) -> None:
        self._enter()

    def __exit__(self, *exc: Any) -> None:
        self._exit()


class RWLock:
    """Shared/exclusive lock with writer preference."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    # -- read side ------------------------------------------------------
    def acquire_read(self) -> None:
        """Block until no writer is active or waiting, then enter shared."""
        # The fault point fires *before* the lock is touched, so an
        # injected raise or delay can never leak a partially-held lock.
        faults.fire(RWLOCK_ACQUIRE_READ)
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    # -- write side -----------------------------------------------------
    def acquire_write(self) -> None:
        """Block until the lock is free, then enter exclusive."""
        # Before the lock for the same leak-freedom reason as acquire_read.
        faults.fire(RWLOCK_ACQUIRE_WRITE)
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()

    # -- context managers ----------------------------------------------
    def read_locked(self) -> _Held:
        """``with lock.read_locked():`` — shared access."""
        return _Held(self.acquire_read, self.release_read)

    def write_locked(self) -> _Held:
        """``with lock.write_locked():`` — exclusive access."""
        return _Held(self.acquire_write, self.release_write)

    # -- introspection (tests / metrics) --------------------------------
    @property
    def readers(self) -> int:
        """Readers currently inside the lock (racy; diagnostics only)."""
        return self._readers

    @property
    def write_active(self) -> bool:
        """Whether a writer currently holds the lock (racy; diagnostics)."""
        return self._writer_active
