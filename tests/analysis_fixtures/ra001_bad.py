"""RA001 bad fixture: guarded registry attributes written without locks."""

import threading


class Service:
    def __init__(self):
        # Constructor initialisation is exempt: the object is unshared.
        self._engines = {}
        self._engines_lock = threading.Lock()
        self._lifecycles = {}
        self._attachments = {}
        self._attachments_lock = threading.Lock()
        self._owner_epochs = {}

    def register(self, name, engine):
        self._engines[name] = engine  # unlocked item write

    def forget(self, name):
        del self._engines[name]  # unlocked delete

    def evict(self, name):
        self._lifecycles.pop(name, None)  # unlocked mutating method

    def swap(self, owner, attachment):
        self._attachments[owner] = attachment  # unlocked item write
        # unlocked epoch bump
        self._owner_epochs[owner] = self._owner_epochs.get(owner, 0) + 1
