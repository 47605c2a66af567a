"""RA010 bad fixture: blocking operations under exclusive locks.

``AnswerCache.lookup`` reintroduces the PR 8 bug — the hit copy
inside the table lock, convoying every concurrent lookup behind the
copy.  ``Journal.append`` blocks one call hop away: the lock is held at
the call site, the file IO happens inside the callee.
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


class Journal:
    def __init__(self, path):
        self._journal_lock = threading.Lock()
        self._path = path
        self._entries = []

    def append(self, entry):
        with self._journal_lock:
            self._entries.append(entry)
            self._flush()

    def _flush(self):
        with open(self._path, "w") as fh:
            fh.write(repr(self._entries))
