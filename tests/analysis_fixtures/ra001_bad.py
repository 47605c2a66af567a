"""RA001 bad fixture: guarded registry attributes written without locks."""

import threading


class Service:
    def __init__(self):
        # Constructor initialisation is exempt: the object is unshared.
        self._networks = {}
        self._networks_lock = threading.Lock()
        self._attachments = {}
        self._attachments_lock = threading.Lock()
        self._owner_epochs = {}

    def register(self, name, record):
        self._networks[name] = record  # unlocked item write

    def forget(self, name):
        del self._networks[name]  # unlocked delete

    def evict(self, name):
        self._networks.pop(name, None)  # unlocked mutating method

    def swap(self, owner, attachment):
        self._attachments[owner] = attachment  # unlocked item write
        # unlocked epoch bump
        self._owner_epochs[owner] = self._owner_epochs.get(owner, 0) + 1

    def deferred_register(self, name, record):
        with self._networks_lock:
            # defined under the lock, but runs after it is released
            def later():
                self._networks[name] = record

            return later

    def deferred_forget(self, name):
        with self._networks_lock:
            # same for a lambda: the pop runs when the caller invokes it
            return lambda: self._networks.pop(name, None)
