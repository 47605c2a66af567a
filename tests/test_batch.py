"""The wire ``batch`` op as the one batch path, through ``execute``.

A batch runs its items under one read lock; the rooted items (Blinks,
BANKS, r-clique) share one completion cache, the Sec.-VI-B PKA, for the
batch's length, while k-nk items read the sketches directly.  Answers
are bit-identical to single requests either way.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.datasets.queries import KeywordQuery, KnkQuery
from repro.service import PPKWSService


def _items(op, queries, k=10, **extra):
    """Batch items for a keyword workload."""
    return [
        dict(op=op, keywords=list(q.keywords), tau=q.tau, k=k, **extra)
        for q in queries
    ]


def _knk_items(queries, **extra):
    return [
        dict(op="knk", source=q.source, keyword=q.keyword, k=q.k, **extra)
        for q in queries
    ]


def _batch(service, queries, **extra):
    """The ``results`` of one wire batch for owner bob."""
    resp = service.execute(dict(
        extra, op="batch", network="net", owner="bob", queries=queries,
    ))
    assert resp["status"] == "ok", resp
    return resp["results"]


def _single(service, item):
    """One uncached single request of ``item`` for owner bob."""
    return service.execute(dict(item, network="net", owner="bob",
                                no_cache=True))


@pytest.fixture
def session(small_public_private):
    pub, priv = small_public_private
    service = PPKWSService(sketch_k=4)
    service.create_network("net", pub)
    service.attach_user("net", "bob", priv)
    return service


class TestBatchSession:
    """Answers, the shared PKA and the whole-batch budget (the class
    keeps the name of the Python batch session the wire op replaced)."""

    def test_answers_identical_to_individual_queries(self, session):
        items = [
            {"op": "blinks", "keywords": keywords, "tau": 4.0,
             "no_cache": True}
            for keywords in (["db", "ai"], ["db", "cv"], ["db", "ai"])
        ]
        for item, entry in zip(items, _batch(session, items)):
            assert entry["status"] == "ok"
            assert entry["answers"] == _single(session, item)["answers"]

    def test_cache_warms_across_queries(self, session):
        item = {"op": "rclique", "keywords": ["db", "ml"], "tau": 5.0,
                "no_cache": True, "trace": True}
        first, again = (e["counters"] for e in _batch(session, [item, item]))
        assert first["completion_lookups"] > first["completion_cache_hits"]
        # the repeat re-hits the same portal-keyword pairs: no misses
        assert again["completion_cache_hits"] == again["completion_lookups"] > 0

    def test_knk_batch(self, session):
        items = _knk_items([KnkQuery("x1", "cv", 3), KnkQuery("x2", "cv", 3)])
        results = _batch(session, items)
        assert [e["status"] for e in results] == ["ok", "ok"]
        assert results[0]["answer"] == _single(session, items[0])["answer"]

    @pytest.mark.parametrize("semantics,params", [
        ("knk", {"source": "x1", "keyword": "cv", "k": 3}),
        ("knk_multi", {"source": "x1", "keywords": ["cv", "db"], "k": 3,
                       "mode": "or"}),
        ("blinks", {"keywords": ["db", "ai"], "tau": 4.0, "k": 10}),
        ("rclique", {"keywords": ["db", "ml"], "tau": 5.0, "k": 10}),
    ])
    def test_repeated_query_reports_its_own_lookups(
        self, session, semantics, params
    ):
        """An item's completion counters are its own reads, not the
        batch's running totals; only rooted items share a PKA."""
        item = dict(params, op=semantics, trace=True, no_cache=True)
        alone = _single(session, item)["counters"]
        lookups = alone["completion_lookups"]
        assert lookups > 0
        registry = obs.MetricsRegistry()
        obs.install(registry)
        try:
            runs = [e["counters"] for e in _batch(session, [item] * 3)]
        finally:
            obs.uninstall()
        assert [c["completion_lookups"] for c in runs] == [lookups] * 3
        pka_reads = registry.value("ppkws_batch_cache_hits_total") + (
            registry.value("ppkws_batch_cache_misses_total")
        )
        if semantics.startswith("knk"):  # no PKA: every read is a probe
            assert [c["completion_cache_hits"] for c in runs] == [0] * 3
            assert pka_reads == 0
            return
        assert runs[0]["completion_cache_hits"] == alone["completion_cache_hits"]
        for warm in runs[1:]:  # every read of a repeat hits the table
            assert warm["completion_cache_hits"] == warm["completion_lookups"]
        assert pka_reads == 3 * lookups

    def test_keyword_workload(self, session):
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
        ]
        for op in ("blinks", "rclique"):
            results = _batch(session, _items(op, queries))
            assert [e["status"] for e in results] == ["ok", "ok"]

    def test_run_queries_generic_parameter_dicts(self, session):
        """Any registered query op is a batch item: its parameter dict
        plus ``op``; an unknown op fails that item only."""
        item = {"op": "knk", "source": "x1", "keyword": "cv", "k": 3}
        knk, nope = _batch(session, [item, {"op": "nope"}])
        assert knk["answer"] == _single(session, item)["answer"]
        assert nope["status"] == "error"
        assert nope["code"] == "bad_request"

    def test_spent_batch_budget_degrades_tail(self, session):
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
            KeywordQuery(("db", "ml"), 4.0),
        ]
        results = _batch(session, _items("blinks", queries), deadline_ms=0.0)
        assert len(results) == 3
        assert all(e["status"] == "degraded" for e in results)

    def test_generous_batch_budget_matches_unbudgeted(self, session):
        queries = [
            KeywordQuery(("db", "ai"), 4.0),
            KeywordQuery(("db", "cv"), 4.0),
        ]
        items = _items("blinks", queries, no_cache=True)
        plain = _batch(session, items)
        budgeted = _batch(
            session, items, deadline_ms=1e9, max_expansions=10**9
        )
        assert all(e["status"] == "ok" for e in budgeted)
        assert [e["answers"] for e in plain] == [e["answers"] for e in budgeted]

    def test_knk_batch_expansion_budget(self, session):
        items = _knk_items(
            [KnkQuery("x1", "cv", 3), KnkQuery("x2", "cv", 3)], no_cache=True
        )
        # two expansions across the whole batch: both queries degrade
        results = _batch(session, items, max_expansions=2)
        assert all(e["status"] == "degraded" for e in results)
        full = _batch(session, items, max_expansions=10**9)
        assert all(e["status"] == "ok" for e in full)

    def test_doctest_example(self):
        import doctest

        import repro.service as mod

        failures, attempted = doctest.testmod(mod)
        assert failures == 0
        assert attempted > 0


class TestEpochInvalidation:
    """A wire batch holds its network's read lock, so an attach or
    detach lands between two batches, never inside one; the next batch
    sees the owner's current attachment."""

    def test_attach_mid_batch_keeps_answers_identical(
        self, session, small_public_private
    ):
        _, priv = small_public_private
        item = {"op": "blinks", "keywords": ["db", "ai"], "tau": 4.0,
                "no_cache": True}
        (before,) = _batch(session, [item])
        session.attach_user("net", "carol", priv)
        (after,) = _batch(session, [item])
        assert after["answers"] == _single(session, item)["answers"]
        assert before["answers"] == after["answers"]

    def test_reattach_mid_batch_is_picked_up(
        self, session, small_public_private
    ):
        _, priv = small_public_private
        item = {"op": "knk", "source": "x1", "keyword": "cv", "k": 1}
        (old,) = _batch(session, [item])
        old_dist = old["answer"]["matches"][0]["distance"]

        session.detach_user("net", "bob")
        priv.add_edge("x1", "x3")  # x3 carries "cv" at distance 1
        session.attach_user("net", "bob", priv)

        (new,) = _batch(session, [item])  # the cached answer went stale
        assert new["cached"] is False
        assert new["answer"]["matches"][0]["distance"] == 1.0
        assert new["answer"]["matches"][0]["distance"] < old_dist

    def test_detached_owner_raises_cleanly(self, session):
        item = {"op": "blinks", "keywords": ["db", "ai"], "tau": 4.0}
        _batch(session, [item])
        session.detach_user("net", "bob")
        resp = session.execute({"op": "batch", "network": "net",
                                "owner": "bob", "queries": [item]})
        assert resp["status"] == "error"
        assert resp["code"] == "unknown_owner"

    def test_no_epoch_change_keeps_cache_warm(self, session):
        item = {"op": "rclique", "keywords": ["db", "ml"], "tau": 5.0}
        (first,) = _batch(session, [item])
        (again,) = _batch(session, [item])
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["answers"] == first["answers"]
