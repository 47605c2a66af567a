"""Tests for the cross-request answer cache (LRU + TTL + epochs)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving import AnswerCache
from repro.serving import cache as cache_module


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


class TestBasics:
    def test_roundtrip_and_miss(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        assert cache.lookup(("k",), epoch=0) is None
        cache.store(("k",), epoch=0, value={"status": "ok", "n": 1})
        assert cache.lookup(("k",), epoch=0) == {"status": "ok", "n": 1}
        assert cache.hits == 1 and cache.misses == 1
        assert len(cache) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            AnswerCache(max_entries=0)

    def test_clear_keeps_counters(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        cache.store("k", 0, 1)
        cache.lookup("k", 0)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_hit_rate_and_stats(self):
        cache = AnswerCache(max_entries=4, ttl_s=30.0)
        assert cache.hit_rate == 0.0
        cache.store("k", 0, 1)
        cache.lookup("k", 0)
        cache.lookup("absent", 0)
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert stats["ttl_s"] == 30.0
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0
        assert stats["expirations"] == 0
        assert stats["stale_hits"] == 0


class TestEpochs:
    def test_stale_epoch_is_a_miss_and_purges(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        cache.store("k", epoch=3, value="answer")
        assert cache.lookup("k", epoch=4) is None  # the network changed
        assert cache.stale_hits == 1
        # the entry is gone even if the epoch were to "come back"
        assert cache.lookup("k", epoch=3) is None
        assert cache.misses == 2

    def test_current_epoch_still_served(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        cache.store("k", epoch=7, value="answer")
        assert cache.lookup("k", epoch=7) == "answer"


class TestTTL:
    def test_expiry(self):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=10.0, clock=clock)
        cache.store("k", 0, "v")
        clock.advance(9.0)
        assert cache.lookup("k", 0) == "v"
        clock.advance(2.0)  # 11s total > ttl
        assert cache.lookup("k", 0) is None
        assert cache.expirations == 1
        assert len(cache) == 0

    def test_none_ttl_never_expires(self):
        clock = FakeClock()
        cache = AnswerCache(max_entries=4, ttl_s=None, clock=clock)
        cache.store("k", 0, "v")
        clock.advance(1e9)
        assert cache.lookup("k", 0) == "v"


class TestLRU:
    def test_eviction_order(self):
        cache = AnswerCache(max_entries=2, ttl_s=None)
        cache.store("a", 0, 1)
        cache.store("b", 0, 2)
        cache.store("c", 0, 3)  # evicts "a"
        assert cache.lookup("a", 0) is None
        assert cache.lookup("b", 0) == 2
        assert cache.evictions == 1

    def test_hit_refreshes_position(self):
        cache = AnswerCache(max_entries=2, ttl_s=None)
        cache.store("a", 0, 1)
        cache.store("b", 0, 2)
        cache.lookup("a", 0)  # a becomes most-recent
        cache.store("c", 0, 3)  # evicts "b", not "a"
        assert cache.lookup("a", 0) == 1
        assert cache.lookup("b", 0) is None

    def test_restore_refreshes_position(self):
        cache = AnswerCache(max_entries=2, ttl_s=None)
        cache.store("a", 0, 1)
        cache.store("b", 0, 2)
        cache.store("a", 0, 10)  # re-store moves to the back
        cache.store("c", 0, 3)  # evicts "b"
        assert cache.lookup("a", 0) == 10
        assert cache.lookup("b", 0) is None


class TestIsolation:
    def test_mutating_the_hit_does_not_poison_the_cache(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        cache.store("k", 0, {"answers": [1, 2]})
        first = cache.lookup("k", 0)
        first["answers"].append(3)
        first["cached"] = True
        assert cache.lookup("k", 0) == {"answers": [1, 2]}

    def test_mutating_the_stored_value_after_store(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        value = {"answers": [1]}
        cache.store("k", 0, value)
        value["answers"].append(2)
        assert cache.lookup("k", 0) == {"answers": [1]}


class TestThreadSafety:
    def test_concurrent_store_lookup(self):
        cache = AnswerCache(max_entries=64, ttl_s=None)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = ("k", (base + i) % 32)
                    cache.store(key, 0, i)
                    got = cache.lookup(key, 0)
                    assert got is None or isinstance(got, int)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(b,)) for b in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not errors
        assert len(cache) <= 64


class TestHitContention:
    def test_concurrent_hits_do_not_serialize_on_the_copy(self, monkeypatch):
        # Regression: lookup() used to copy the value while still
        # holding the table lock, so N concurrent hits on a large
        # response took N * copy_time.
        self._runs_outside_the_table_lock(
            monkeypatch, "_wire_clone", lambda cache: cache.lookup("big", 0)
        )

    def test_store_snapshot_runs_outside_the_table_lock(self, monkeypatch):
        self._runs_outside_the_table_lock(
            monkeypatch, "_wire_snapshot",
            lambda cache: cache.store("new", 0, {"n": [2]}),
        )

    @staticmethod
    def _runs_outside_the_table_lock(monkeypatch, copier, blocked_call):
        """While one thread is parked *inside* ``copier``, every other
        operation on the table completes."""
        cache = AnswerCache(max_entries=8, ttl_s=None)
        cache.store("big", 0, {"n": [1]})
        real = getattr(cache_module, copier)
        parked, release = threading.Event(), threading.Event()

        def parking_copier(value):
            if not parked.is_set():  # only the first caller parks
                parked.set()
                assert release.wait(10)
            return real(value)

        monkeypatch.setattr(cache_module, copier, parking_copier)
        seen = []

        def others():
            cache.store("other", 0, {"n": [3]})
            seen.append(cache.lookup("other", 0))
            seen.append(cache.stats()["entries"])

        first = threading.Thread(target=blocked_call, args=(cache,))
        second = threading.Thread(target=others)
        first.start()
        try:
            assert parked.wait(5)
            second.start()
            second.join(5)
            assert not second.is_alive(), "table lock held across the copy"
            assert seen == [{"n": [3]}, 2]
        finally:
            release.set()
            first.join(5)
        assert not first.is_alive()

    def test_hit_rate_is_consistent_under_races(self):
        # hit_rate reads two counters; unlocked it could pair a fresh
        # hits value with a stale misses value and report > 1.0.
        cache = AnswerCache(max_entries=8, ttl_s=None)
        cache.store("k", 0, 1)
        stop = threading.Event()
        errors = []

        def churn():
            while not stop.is_set():
                cache.lookup("k", 0)
                cache.lookup("absent", 0)

        def read():
            try:
                while not stop.is_set():
                    rate = cache.hit_rate
                    assert 0.0 <= rate <= 1.0
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=churn) for _ in range(2)]
        threads.append(threading.Thread(target=read))
        for t in threads:
            t.start()
        time.sleep(0.2)
        stop.set()
        for t in threads:
            t.join(5)
        assert not errors
