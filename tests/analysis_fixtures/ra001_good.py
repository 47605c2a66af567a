"""RA001 good fixture: every registry write holds its guarding lock."""

import threading


class Service:
    def __init__(self):
        self._engines = {}
        self._engines_lock = threading.Lock()
        self._lifecycles = {}
        self._attachments = {}
        self._attachments_lock = threading.Lock()
        self._owner_epochs = {}

    def register(self, name, engine):
        with self._engines_lock:
            self._engines[name] = engine

    def forget(self, name):
        with self._engines_lock:
            del self._engines[name]

    def evict(self, name):
        with self._engines_lock:
            self._engines.pop(name, None)
            self._lifecycles[name] = self._lifecycles.get(name, 0) + 1

    def swap(self, owner, attachment):
        with self._attachments_lock:
            self._attachments[owner] = attachment
            self._owner_epochs[owner] = self._owner_epochs.get(owner, 0) + 1

    def lookup(self, name):
        # Reads stay lock-free: single-key dict reads are atomic.
        return self._engines.get(name), self._lifecycles.get(name, 0)
