"""RA010 good fixture: slow work happens outside exclusive locks.

``AnswerCache.lookup`` is the PR 8 fix shape — take a reference under
the lock, copy after releasing it.  ``Index.query`` shows the
rwlock read-side exemption: blocking IO under a *read* lock is fine
because readers do not serialize each other.
"""

import threading

from repro.serving.cache import _wire_clone


class AnswerCache:
    def __init__(self):
        self._lock = threading.Lock()
        self._table = {}

    def lookup(self, key):
        with self._lock:
            entry = self._table.get(key)
        if entry is None:
            return None
        return _wire_clone(entry)


class Index:
    def __init__(self, rw_lock, path):
        self._rw_lock = rw_lock
        self._path = path

    def query(self):
        with self._rw_lock.read_locked():
            return self._load()

    def _load(self):
        with open(self._path, "r") as fh:
            return fh.read()


class Journal:
    def __init__(self, path):
        self._journal_lock = threading.Lock()
        self._path = path
        self._entries = []

    def append(self, entry):
        with self._journal_lock:
            self._entries.append(entry)
            snapshot = list(self._entries)
        self._write(snapshot)

    def _write(self, snapshot):
        with open(self._path, "w") as fh:
            fh.write(repr(snapshot))
