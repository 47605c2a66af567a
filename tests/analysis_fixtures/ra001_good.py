"""RA001 good fixture: every registry write holds its guarding lock."""

import threading


class Service:
    def __init__(self):
        self._networks = {}
        self._networks_lock = threading.Lock()
        self._attachments = {}
        self._attachments_lock = threading.Lock()
        self._owner_epochs = {}

    def register(self, name, record):
        with self._networks_lock:
            self._networks[name] = record

    def forget(self, name):
        with self._networks_lock:
            del self._networks[name]

    def evict(self, name):
        with self._networks_lock:
            self._networks.pop(name, None)

    def swap(self, owner, attachment):
        with self._attachments_lock:
            self._attachments[owner] = attachment
            self._owner_epochs[owner] = self._owner_epochs.get(owner, 0) + 1

    def lookup(self, name):
        # Reads stay lock-free: single-key dict reads are atomic.
        return self._networks.get(name)
