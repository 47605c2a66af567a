"""Tests for batch sessions with persistent completion caches.

CI's ``semantics-matrix`` job re-runs this whole file across graph
backends (``REPRO_ENGINE_BACKEND``) — the answers-identical assertions
below double as cross-backend gates.
"""

from __future__ import annotations

import os

import pytest

from repro.core import BatchSession, PPKWS
from repro.datasets.queries import KeywordQuery, KnkQuery
from repro.exceptions import QueryError

_FREEZE = os.environ.get("REPRO_ENGINE_BACKEND", "frozen") != "dict"


def _params(queries, k=10):
    """``run_queries`` parameter dicts for a keyword workload."""
    return [
        {
            "keywords": list(q.keywords), "tau": q.tau, "k": k,
            "require_public_private": True,
        }
        for q in queries
    ]


@pytest.fixture
def session(small_public_private):
    pub, priv = small_public_private
    engine = PPKWS(pub, sketch_k=4, freeze=_FREEZE)
    engine.attach("bob", priv)
    return BatchSession(engine, "bob"), engine


class TestBatchSession:
    def test_answers_identical_to_individual_queries(self, session):
        batch, engine = session
        for keywords in (["db", "ai"], ["db", "cv"], ["db", "ai"]):
            via_batch = batch.blinks(keywords, tau=4.0)
            direct = engine.blinks("bob", keywords, tau=4.0)
            assert [a.sort_key() for a in via_batch.answers] == [
                a.sort_key() for a in direct.answers
            ]

    def test_cache_warms_across_queries(self, session):
        batch, _ = session
        batch.rclique(["db", "ml"], tau=5.0)
        misses_first = batch.cache_misses
        batch.rclique(["db", "ml"], tau=5.0)
        # the repeat query re-hits the same portal-keyword pairs
        assert batch.cache_hits > 0
        assert batch.cache_misses == misses_first

    def test_knk_batch(self, session):
        batch, engine = session
        queries = [KnkQuery("x1", "cv", 3), KnkQuery("x2", "cv", 3)]
        results = batch.run_knk_queries(queries)
        assert len(results) == 2
        direct = engine.knk("bob", "x1", "cv", 3)
        assert results[0].answer.distances() == direct.answer.distances()

    def test_knk_multi_shares_the_session_cache(self, session):
        batch, engine = session
        params = {"source": "x1", "keywords": ["cv", "db"], "k": 3, "mode": "or"}
        first, again = batch.run_queries("knk_multi", [params, params])
        assert batch.cache_misses > 0
        # the repeat re-hits the same (portal, keyword, k) lists
        assert batch.cache_hits == batch.cache_misses
        direct = engine.knk_multi("bob", "x1", ["cv", "db"], 3, mode="or")
        assert first.answer == again.answer == direct.answer

    def test_keyword_workload(self, session):
        batch, _ = session
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
        ]
        results = batch.run_queries("blinks", _params(queries))
        assert len(results) == 2
        results = batch.run_queries("rclique", _params(queries))
        assert len(results) == 2

    def test_run_queries_generic_parameter_dicts(self, session):
        """The replacement API: any semantics, explicit parameter dicts."""
        batch, engine = session
        results = batch.run_queries(
            "knk", [{"source": "x1", "keyword": "cv", "k": 3}]
        )
        direct = engine.knk("bob", "x1", "cv", 3)
        assert results[0].answer.distances() == direct.answer.distances()
        with pytest.raises(QueryError):
            batch.run_queries("nope", [])

    def test_invalidate_clears_tables(self, session):
        batch, _ = session
        batch.blinks(["db", "ai"], tau=4.0)
        batch.invalidate()
        before = batch.cache_hits
        batch.blinks(["db", "ai"], tau=4.0)
        # after invalidation the first lookups miss again
        assert batch.cache_misses > 0
        # counters can be reset independently
        batch.cache.reset_counters()
        assert batch.cache_hits == 0 and batch.cache_misses == 0

    def test_spent_batch_budget_degrades_tail(self, session):
        batch, _ = session
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
            KeywordQuery(("db", "ml"), 4.0),
        ]
        results = batch.run_queries("blinks", _params(queries), deadline_ms=0.0)
        assert len(results) == 3
        assert all(r.degraded for r in results)

    def test_generous_batch_budget_matches_unbudgeted(self, session):
        batch, _ = session
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
        ]
        plain = batch.run_queries("blinks", _params(queries))
        budgeted = batch.run_queries(
            "blinks", _params(queries), deadline_ms=1e9, max_expansions=10**9
        )
        assert all(not r.degraded for r in budgeted)
        for a, b in zip(plain, budgeted):
            assert [x.sort_key() for x in a.answers] == [
                x.sort_key() for x in b.answers
            ]

    def test_knk_batch_expansion_budget(self, session):
        batch, _ = session
        queries = [KnkQuery("x1", "cv", 3), KnkQuery("x2", "cv", 3)]
        # two expansions across the whole batch: both queries degrade
        results = batch.run_knk_queries(queries, max_expansions=2)
        assert all(r.degraded for r in results)
        full = batch.run_knk_queries(queries, max_expansions=10**9)
        assert all(not r.degraded for r in full)

    def test_doctest_example(self):
        import doctest

        import repro.core.batch as mod

        failures, _ = doctest.testmod(mod)
        assert failures == 0


class TestEpochInvalidation:
    """Sessions hold facts of two lifetimes (see the module docstring):
    the PKA is public-side and survives every attach and detach; the
    ``Attachment`` follows its own owner's epoch only."""

    def test_other_owners_attach_keeps_completion_cache_warm(
        self, session, small_public_private
    ):
        batch, engine = session
        _, priv = small_public_private
        batch.blinks(["db", "ai"], tau=4.0)
        misses_before, hits_before = batch.cache_misses, batch.cache_hits
        attachment = batch.attachment

        engine.attach("carol", priv.copy())
        batch.blinks(["db", "ai"], tau=4.0)
        engine.detach("carol")
        batch.blinks(["db", "ai"], tau=4.0)

        # the repeats are pure hits: no PKA refill, and bob's attachment
        # was never re-read
        assert batch.cache_misses == misses_before
        assert batch.cache_hits > hits_before
        assert batch.attachment is attachment

    def test_own_reattach_swaps_the_attachment_and_keeps_public_facts(
        self, session, small_public_private
    ):
        from repro.exceptions import OwnerNotAttachedError

        batch, engine = session
        _, priv = small_public_private
        keywords = ["db", "ml"]
        batch.rclique(keywords, tau=5.0)
        misses_before = batch.cache_misses
        old_attachment = batch.attachment

        engine.detach("bob")
        for _ in range(2):  # every query while detached, not just the first
            with pytest.raises(OwnerNotAttachedError):
                batch.rclique(keywords, tau=5.0)
        engine.attach("bob", priv.copy())

        after = batch.rclique(keywords, tau=5.0)
        assert batch.attachment is engine.attachment("bob")
        assert batch.attachment is not old_attachment
        # same portals, same keywords: the PKA rows are still good
        assert batch.cache_misses == misses_before
        direct = engine.rclique("bob", keywords, tau=5.0)
        assert [a.sort_key() for a in after.answers] == [
            a.sort_key() for a in direct.answers
        ]

    def test_attach_mid_batch_keeps_answers_identical(
        self, session, small_public_private
    ):
        batch, engine = session
        _, priv = small_public_private
        keywords = ["db", "ai"]
        before = batch.blinks(keywords, tau=4.0)
        engine.attach("carol", priv)
        after = batch.blinks(keywords, tau=4.0)
        direct = engine.blinks("bob", keywords, tau=4.0)
        assert [a.sort_key() for a in after.answers] == [
            a.sort_key() for a in direct.answers
        ]
        assert [a.sort_key() for a in before.answers] == [
            a.sort_key() for a in after.answers
        ]

    def test_reattach_mid_batch_is_picked_up(self, small_public_private):
        from repro.core import BatchSession, PPKWS

        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=4)
        engine.attach("bob", priv)
        batch = BatchSession(engine, "bob")
        old = batch.knk("x1", "cv", 1)
        old_dist = old.answer.matches[0].distance

        engine.detach("bob")
        priv.add_edge("x1", "x3")  # x3 carries "cv" at distance 1
        engine.attach("bob", priv)

        new = batch.knk("x1", "cv", 1)  # same session object, no restart
        assert new.answer.matches[0].distance == 1.0
        assert new.answer.matches[0].distance < old_dist

    def test_detached_owner_raises_cleanly(self, session):
        from repro.exceptions import OwnerNotAttachedError

        batch, engine = session
        batch.blinks(["db", "ai"], tau=4.0)
        engine.detach("bob")
        with pytest.raises(OwnerNotAttachedError):
            batch.blinks(["db", "ai"], tau=4.0)

    def test_no_epoch_change_keeps_cache_warm(self, session):
        batch, _ = session
        batch.rclique(["db", "ml"], tau=5.0)
        misses_before = batch.cache_misses
        batch.rclique(["db", "ml"], tau=5.0)
        assert batch.cache_misses == misses_before
        assert batch.cache_hits > 0
