"""Cross-request answer cache: LRU + TTL + epoch-based invalidation.

The paper amortizes work *within* a query (PKA memoization) and the
service's ``batch`` op shares one PKA across the rooted items of one
batch.  This
module generalizes the idea one level up: completed ``status: "ok"`` responses
are cached at the serving layer keyed on
``(network, owner, op, canonicalized params)``, so a repeated query is
answered without touching the engine at all.

Staleness is handled by *epochs*, not by enumerating affected keys.  An
entry remembers the epoch it was computed under — an opaque token,
compared with ``!=`` only; a lookup presents the *current* one and any
entry with a different token is treated as a miss and purged.  The
service's token is ``(network life, owner epoch)``: an answer is an
owner-side fact (a private graph is visible to its owner only), so it
lives until *that owner's* attachment changes (``attach`` / ``detach`` /
a dynamic edit, counted by the engine) or the network is created or
dropped.  Another owner's ``attach`` leaves it a hit.  Both counters
never shrink and the life survives ``drop`` (keyed by name), so neither
a re-attach nor re-creating a network under an old name can revive
answers from a previous life.

Entries additionally carry a TTL (wall-clock freshness bound for
operators who mutate state outside the facade) and the table is
bounded LRU.  Stored values are *wire-shaped* — exact ``dict`` /
``list`` containers over immutable atoms (``str`` / ``int`` / ``float``
/ ``bool`` / ``None``, as keys too; tuples of those as values).  Insert
(:func:`_wire_snapshot`) copies every container, shares the atoms and
refuses anything else (a ``set``, a ``dict`` subclass, an object) with
``TypeError``; the service serves such an answer uncached.  The same
walk records each container's shape in its copy's type: a dict of atoms
stays an exact ``dict``, lists and dicts of those become private tags,
and so does every other dict.  A hit (:func:`_wire_clone`) copies the
tagged rows with ``dict.copy`` in C, spends a Python frame only on the
remaining containers, inspects no leaf and returns exact ``dict`` /
``list`` only.  No container is ever shared and no atom can change, so
neither the service nor its callers can mutate a cached answer in place.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from itertools import chain
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro import faults
from repro.faults.points import CACHE_LOOKUP, CACHE_STORE

__all__ = ["AnswerCache"]

_ATOMS = frozenset({str, int, float, bool, type(None)})
#: A snapshot keeps a dict of atoms an exact ``dict``: a hit copies it with
#: one ``dict.copy``, and the collector untracks it (never a subclass).  A
#: list of those is a ``_Rows``, a dict of them a ``_Table``, any other
#: dict a ``_Nested``; no tag leaves this module.
_Rows = type("_Rows", (tuple,), {"__slots__": ()})
_Table = type("_Table", (dict,), {"__slots__": ()})
_Nested = type("_Nested", (dict,), {"__slots__": ()})
_FLAT = frozenset({dict})
_CONTAINERS = frozenset({dict, list, _Rows, _Table, _Nested})


def _is_atom(value: Any) -> bool:
    """Whether ``value`` is immutable all the way down (shareable)."""
    kind = type(value)
    return kind in _ATOMS or (kind is tuple and all(map(_is_atom, value)))


def _wire_snapshot(value: Any) -> Any:
    """A private, shape-tagged copy of wire-shaped ``value`` (``TypeError``
    otherwise); a container reads its children's shapes off their types,
    and a list of exact ``dict`` rows of atoms is checked and copied in C."""
    kind = type(value)
    if kind is list:
        if _FLAT.issuperset(map(type, value)) and _ATOMS.issuperset(
            map(type, chain(*value, *map(dict.values, value)))  # keys, values
        ):
            return _Rows(map(dict.copy, value))
        out = [v if type(v) in _ATOMS else _wire_snapshot(v) for v in value]
        return _Rows(out) if _FLAT.issuperset(map(type, out)) else out
    if kind is dict and _ATOMS.issuperset(map(type, value)):  # the keys
        if _ATOMS.issuperset(map(type, value.values())):
            return value.copy()
        out = {
            k: v if type(v) in _ATOMS else _wire_snapshot(v)
            for k, v in value.items()
        }
        return (_Table if _FLAT.issuperset(map(type, out.values())) else _Nested)(out)
    if _is_atom(value):
        return value
    raise TypeError(f"uncacheable {kind.__name__} in response")


def _wire_clone(value: Any) -> Any:
    """Exact ``dict`` / ``list`` copies of a :func:`_wire_snapshot`'s
    containers, sharing its atoms; rows of atoms are copied in C."""
    kind = type(value)
    if kind is _Nested:
        out = value.copy()
        for k, v in value.items():
            if type(v) in _CONTAINERS:
                out[k] = _wire_clone(v)
        return out
    if kind is dict:
        return value.copy()
    if kind is _Rows:
        return list(map(dict.copy, value))
    if kind is _Table:
        return {k: v.copy() for k, v in value.items()}
    if kind is list:
        return [_wire_clone(v) if type(v) in _CONTAINERS else v for v in value]
    return value


class AnswerCache:
    """Bounded, TTL'd, epoch-validated response cache.  Thread-safe.

    ``max_entries`` bounds the table (LRU eviction).  ``ttl_s`` is the
    per-entry freshness bound in seconds; ``None`` disables expiry.
    ``clock`` is injectable for tests (defaults to ``time.monotonic``).
    """

    def __init__(
        self,
        max_entries: int = 1024,
        ttl_s: Optional[float] = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        #: key -> (epoch, stored_at, value)
        self._table: "OrderedDict[Hashable, Tuple[Any, float, Any]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        #: lookups dropped because the entry's epoch token moved on
        self.stale_hits = 0

    # ------------------------------------------------------------------
    def lookup(self, key: Hashable, epoch: Any) -> Optional[Any]:
        """The cached value for ``key`` at ``epoch``, or ``None``.

        A present entry whose epoch differs from ``epoch`` (its owner's
        attachment changed since it was stored) or whose TTL has lapsed
        is purged and counts as a miss.  Hits return a container copy
        (:func:`_wire_clone`) and refresh the entry's LRU position.

        The copy happens *outside* the lock (entries are never mutated
        in place, so copying a reference after release is safe): a large
        response does not serialize every concurrent hit behind one copy.
        """
        faults.fire(CACHE_LOOKUP)
        with self._lock:
            entry = self._table.get(key)
            if entry is None:
                self.misses += 1
                return None
            stored_epoch, stored_at, value = entry
            if stored_epoch != epoch:
                del self._table[key]
                self.stale_hits += 1
                self.misses += 1
                return None
            if self.ttl_s is not None and self._clock() - stored_at > self.ttl_s:
                del self._table[key]
                self.expirations += 1
                self.misses += 1
                return None
            self._table.move_to_end(key)
            self.hits += 1
        return _wire_clone(value)

    def store(self, key: Hashable, epoch: Any, value: Any) -> None:
        """Insert a snapshot of ``value`` computed under ``epoch``, or raise
        ``TypeError`` (nothing stored) if ``value`` is not wire-shaped."""
        faults.fire(CACHE_STORE)
        snapshot = _wire_snapshot(value)
        with self._lock:
            if key in self._table:
                self._table.move_to_end(key)
            self._table[key] = (epoch, self._clock(), snapshot)
            while len(self._table) > self.max_entries:
                self._table.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._table.clear()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._table)

    @property
    def hit_rate(self) -> float:
        """Hits / lookups since construction (0.0 before any lookup)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, Any]:
        """A JSON-friendly counter snapshot (for the ``metrics`` op)."""
        with self._lock:
            return {
                "entries": len(self._table),
                "max_entries": self.max_entries,
                "ttl_s": self.ttl_s,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "stale_hits": self.stale_hits,
            }
