"""The ``{"op": "batch"}`` wire op, end to end through ``execute``.

One request, many query items: per-item status / ``cached`` flags,
answer-cache sharing with the individual query ops (both directions),
per-item error isolation, whole-batch budget splitting, item parity with
single requests, the retired ``execution_mode`` field, and the batch
metrics.
"""

from __future__ import annotations

import copy

import pytest

from repro import obs
from repro.datasets import yago_like
from repro.service import PPKWSService


BLINKS_ITEM = {"op": "blinks", "keywords": ["db"], "tau": 5.0, "k": 3}
KNK_ITEM = {"op": "knk", "source": "x1", "keyword": "ai", "k": 2}
RCLIQUE_ITEM = {"op": "rclique", "keywords": ["db", "ml"], "tau": 6.0, "k": 2}

def _service(small_public_private):
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


@pytest.fixture
def service(small_public_private):
    return _service(small_public_private)


def _batch(service, queries, **extra):
    request = {"op": "batch", "network": "net", "owner": "bob", "queries": queries}
    request.update(extra)
    return service.execute(request)


class TestHappyPath:
    def test_mixed_semantics_batch(self, service):
        resp = _batch(service, [dict(BLINKS_ITEM), dict(KNK_ITEM), dict(RCLIQUE_ITEM)])
        assert resp["status"] == "ok"
        assert len(resp["results"]) == 3
        blinks, knk, rclique = resp["results"]
        for entry in resp["results"]:
            assert entry["status"] == "ok"
            assert entry["cached"] is False
        assert isinstance(blinks["answers"], list)
        assert knk["answer"]["source"] == "x1"
        assert isinstance(rclique["answers"], list)

    def test_items_match_individual_ops(self, service):
        resp = _batch(service, [dict(BLINKS_ITEM), dict(KNK_ITEM)])
        single_blinks = service.execute(
            dict(BLINKS_ITEM, network="net", owner="bob", no_cache=True)
        )
        single_knk = service.execute(
            dict(KNK_ITEM, network="net", owner="bob", no_cache=True)
        )
        assert resp["results"][0]["answers"] == single_blinks["answers"]
        assert resp["results"][1]["answer"] == single_knk["answer"]

    def test_empty_batch_is_ok(self, service):
        resp = _batch(service, [])
        assert resp["status"] == "ok"
        assert resp["results"] == []

    def test_single_admission_slot(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2, max_in_flight=1)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        resp = _batch(svc, [dict(BLINKS_ITEM), dict(KNK_ITEM), dict(RCLIQUE_ITEM)])
        assert resp["status"] == "ok"
        assert [e["status"] for e in resp["results"]] == ["ok"] * 3


class TestAnswerCache:
    def test_repeat_item_is_cached_within_and_across_batches(self, service):
        first = _batch(service, [dict(BLINKS_ITEM), dict(BLINKS_ITEM)])
        assert first["results"][0]["cached"] is False
        assert first["results"][1]["cached"] is True
        second = _batch(service, [dict(BLINKS_ITEM)])
        assert second["results"][0]["cached"] is True
        assert (
            second["results"][0]["answers"] == first["results"][0]["answers"]
        )

    def test_individual_op_seeds_batch_items(self, service):
        single = service.execute(dict(BLINKS_ITEM, network="net", owner="bob"))
        assert single["status"] == "ok"
        resp = _batch(service, [dict(BLINKS_ITEM)])
        assert resp["results"][0]["cached"] is True
        assert resp["results"][0]["answers"] == single["answers"]

    def test_batch_items_seed_individual_ops(self, service):
        resp = _batch(service, [dict(KNK_ITEM)])
        assert resp["results"][0]["cached"] is False
        single = service.execute(dict(KNK_ITEM, network="net", owner="bob"))
        assert single["cached"] is True
        assert single["answer"] == resp["results"][0]["answer"]

    def test_no_cache_item_never_caches(self, service):
        item = dict(BLINKS_ITEM, no_cache=True)
        first = _batch(service, [item])
        again = _batch(service, [item])
        assert first["results"][0]["cached"] is False
        assert again["results"][0]["cached"] is False


class TestItemErrors:
    def test_bad_items_fail_individually(self, service):
        resp = _batch(service, [
            42,                                   # not a dict
            {"op": "nope", "keywords": ["db"]},   # unknown op
            {"op": "metrics"},                    # not a query op
            {"op": "blinks"},                     # missing keywords
            dict(BLINKS_ITEM),                    # fine
        ])
        assert resp["status"] == "ok"
        statuses = [e["status"] for e in resp["results"]]
        assert statuses == ["error"] * 4 + ["ok"]
        for entry in resp["results"][:4]:
            assert entry["code"] == "bad_request"
            assert entry["retryable"] is False
        assert "queries[0]" in resp["results"][0]["error"]
        assert "not a query op" in resp["results"][2]["error"]
        assert "missing field 'keywords'" in resp["results"][3]["error"]

    def test_malformed_keyword_fields_fail_that_item_only(self, service):
        before = service.answer_cache.stats()
        resp = _batch(service, [
            dict(BLINKS_ITEM, keywords="ai"),     # not list()-split
            dict(KNK_ITEM, keyword=["cv"]),       # unhashable, not internal
            dict(KNK_ITEM, keyword=""),
            {"op": "knk_multi", "source": "x1", "keywords": "ai"},
            {"op": "truss", "k": 3, "keywords": ["db", 7]},
        ])
        assert resp["status"] == "ok"
        for entry in resp["results"]:
            assert entry["status"] == "error"
            assert entry["code"] == "bad_request"
            assert "keyword" in entry["error"]
        assert service.answer_cache.stats() == before

    def test_item_network_and_owner_are_overridden(self, service):
        # Item-level network/owner must not escape the batch's.
        resp = _batch(service, [dict(BLINKS_ITEM, network="other", owner="mallory")])
        assert resp["results"][0]["status"] == "ok"

    def test_unknown_item_field_warns(self, service):
        resp = _batch(service, [dict(BLINKS_ITEM, wat=1)])
        assert resp["results"][0]["status"] == "ok"
        assert any(
            "queries[0]: unknown field 'wat'" in w
            for w in resp.get("warnings", ())
        )

    def test_bad_item_execution_mode_fails_that_item_only(self, service):
        # execution_mode is retired: even a bad value fails nothing now,
        # it only warns as an unknown field of that item.
        resp = _batch(service, [
            dict(BLINKS_ITEM, execution_mode="turbo"),
            dict(KNK_ITEM),
        ])
        first, second = resp["results"]
        assert first["status"] == "ok"
        assert second["status"] == "ok"
        assert resp["warnings"] == ["queries[0]: unknown field 'execution_mode'"]


class TestWholeBatchErrors:
    def test_unknown_network(self, service):
        resp = service.execute({
            "op": "batch", "network": "ghost", "owner": "bob",
            "queries": [dict(BLINKS_ITEM)],
        })
        assert resp["status"] == "error"
        assert resp["code"] == "unknown_network"

    def test_unknown_owner(self, service):
        resp = service.execute({
            "op": "batch", "network": "net", "owner": "mallory",
            "queries": [dict(BLINKS_ITEM)],
        })
        assert resp["status"] == "error"
        assert resp["code"] == "unknown_owner"

    def test_queries_must_be_a_list(self, service):
        resp = _batch(service, "not-a-list")
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert "must be a list" in resp["error"]

    def test_bad_batch_execution_mode(self, service):
        # A retired field is no bad_request: the batch runs and warns.
        resp = _batch(service, [dict(BLINKS_ITEM)], execution_mode="turbo")
        assert resp["status"] == "ok"
        assert resp["results"][0]["status"] == "ok"
        assert resp["warnings"] == ["unknown field 'execution_mode'"]


class TestBatchBudget:
    def test_zero_deadline_degrades_every_item(self, service):
        resp = _batch(service, [dict(BLINKS_ITEM), dict(RCLIQUE_ITEM)], deadline_ms=0)
        assert resp["status"] == "ok"
        for entry in resp["results"]:
            assert entry["status"] == "degraded"
            assert entry["interrupted_step"]
        # Degraded entries must not poison the answer cache.
        fresh = _batch(service, [dict(BLINKS_ITEM)])
        assert fresh["results"][0]["status"] == "ok"
        assert fresh["results"][0]["cached"] is False

    def test_cached_items_consume_no_budget(self, service):
        warm = _batch(service, [dict(BLINKS_ITEM)])
        assert warm["results"][0]["status"] == "ok"
        resp = _batch(service, [dict(BLINKS_ITEM)], deadline_ms=0)
        entry = resp["results"][0]
        assert entry["status"] == "ok"
        assert entry["cached"] is True

    @pytest.mark.parametrize("batch_cap, item_cap", [
        (10**6, 0),    # the item's own cap is the tighter one
        (0, 10**6),    # the batch slice is: an item cannot loosen it
    ], ids=["item_tighter", "slice_tighter"])
    def test_tighter_of_item_and_slice_applies(
        self, service, batch_cap, item_cap
    ):
        resp = _batch(
            service,
            [dict(BLINKS_ITEM, max_expansions=item_cap, no_cache=True)],
            max_expansions=batch_cap,
        )
        assert resp["results"][0]["status"] == "degraded"
        roomy = _batch(
            service,
            [dict(BLINKS_ITEM, max_expansions=10**6, no_cache=True)],
            max_expansions=10**6,
        )
        assert roomy["results"][0]["status"] == "ok"


    def test_every_remaining_item_counts_in_the_split(self):
        """Before item ``i``'s answer-cache lookup, the batch budget is
        split evenly over all ``len(queries) - i`` remaining items, hits
        included; a hit spends none of its share, so the share flows to
        the items after it.  Nine hits behind a cold item shrink its
        slice to a tenth; nine hits ahead of it leave it the whole
        allowance."""
        ds = yago_like(num_vertices=300, num_labels=20, seed=3)
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", ds.public)
        svc.attach_user("net", "bob", ds.private_graphs["user0"])
        cold = {"op": "blinks", "keywords": ["t5"], "tau": 1.0, "k": 1,
                "no_cache": True, "trace": True}
        hits = [{"op": "blinks", "keywords": [f"t{j}"], "tau": 1.0, "k": 1}
                for j in range(10, 19)]
        (probe,) = _batch(svc, [cold], max_expansions=10**6)["results"]
        need = probe["trace"]["expansions"]
        assert need >= 10
        assert [e["cached"] for e in _batch(svc, hits)["results"]] == [False] * 9
        (alone,) = _batch(svc, [cold], max_expansions=need)["results"]
        assert alone["status"] == "ok"

        first = _batch(svc, [cold] + hits, max_expansions=need)["results"]
        assert [e["cached"] for e in first[1:]] == [True] * 9
        assert first[0]["status"] == "degraded"
        last = _batch(svc, hits + [cold], max_expansions=need)["results"]
        assert [e["cached"] for e in last[:-1]] == [True] * 9
        assert last[-1]["status"] == "ok"


class TestExecutionModes:
    """The retired ``execution_mode`` field selects nothing any more."""

    def test_batch_modes_agree_on_answers(self, service):
        items = [
            dict(BLINKS_ITEM, no_cache=True),
            dict(KNK_ITEM, no_cache=True),
            dict(RCLIQUE_ITEM, no_cache=True),
        ]
        want = _payload(_batch(service, copy.deepcopy(items)))
        for mode in ("pure", "vectorized", "auto"):
            got = _batch(service, copy.deepcopy(items), execution_mode=mode)
            assert got["warnings"] == ["unknown field 'execution_mode'"]
            assert _payload(got) == want, mode

    def test_item_mode_overrides_batch_mode(self, service):
        # Neither level overrides the other: both are unknown fields.
        resp = _batch(
            service,
            [dict(BLINKS_ITEM, no_cache=True, execution_mode="pure")],
            execution_mode="vectorized",
        )
        want = service.execute(
            dict(BLINKS_ITEM, network="net", owner="bob", no_cache=True)
        )
        assert resp["results"][0]["answers"] == want["answers"]
        assert sorted(resp["warnings"]) == [
            "queries[0]: unknown field 'execution_mode'",
            "unknown field 'execution_mode'",
        ]


class TestMetrics:
    def test_batch_counters(self, service):
        registry = obs.MetricsRegistry()
        obs.install(registry)
        try:
            _batch(service, [
                dict(BLINKS_ITEM),          # ok
                dict(BLINKS_ITEM),          # answer-cache hit, still "ok"
                {"op": "nope"},             # error
            ])
        finally:
            obs.uninstall()
        assert registry.value("ppkws_batch_requests_total") == 1
        assert registry.value("ppkws_batch_items_total", labels={"status": "ok"}) == 2
        assert registry.value(
            "ppkws_batch_items_total", labels={"status": "error"}
        ) == 1

    def test_batch_in_help(self, service):
        helped = service.execute({"op": "help"})
        batch = helped["ops"]["batch"]
        assert batch["required"] == ["network", "owner", "queries"]
        assert batch["optional"] == ["deadline_ms", "max_expansions"]


def _payload(resp):
    """A response minus its timings and warnings, batch items included."""
    out = {k: v for k, v in resp.items() if k not in ("breakdown", "warnings")}
    if "results" in out:
        out["results"] = [_payload(entry) for entry in out["results"]]
    return out


@pytest.mark.parametrize(
    "mode", ["vectorized", "bogus", ["x"]], ids=["vectorized", "bogus", "list"]
)
def test_execution_mode_is_only_an_unknown_field(small_public_private, mode):
    """The retired ``execution_mode`` selects nothing: a query carrying it
    gets the payload of the same query without it, plus an unknown-field
    warning, on a cold key and a warm one — as a request, on a batch and
    on a batch item."""
    single = dict(KNK_ITEM, network="net", owner="bob")
    batch = {"op": "batch", "network": "net", "owner": "bob",
             "queries": [dict(BLINKS_ITEM), dict(KNK_ITEM)]}
    item = copy.deepcopy(batch)
    item["queries"][0]["execution_mode"] = mode
    cases = [
        (single, dict(single, execution_mode=mode), "unknown field"),
        (batch, dict(batch, execution_mode=mode), "unknown field"),
        (batch, item, "queries[0]: unknown field"),
    ]
    for plain, carrying, warning in cases:
        without = _service(small_public_private)
        with_mode = _service(small_public_private)
        for key in ("cold", "warm"):
            want = without.execute(copy.deepcopy(plain))
            got = with_mode.execute(copy.deepcopy(carrying))
            assert got["status"] == "ok", (key, got)
            assert got["warnings"] == [f"{warning} 'execution_mode'"], key
            assert _payload(got) == _payload(want), key


# ----------------------------------------------------------------------
# one request path: an item means what the same request means alone
# ----------------------------------------------------------------------
PARITY_ITEMS = {
    "blinks": dict(BLINKS_ITEM),
    "banks": dict(BLINKS_ITEM, op="banks"),
    "rclique": dict(RCLIQUE_ITEM),
    "knk": dict(KNK_ITEM),
    "knk_multi": {"op": "knk_multi", "source": "x1", "keywords": ["ai", "db"], "k": 2},
    "truss": {"op": "truss", "k": 2, "keywords": ["db", "ai"]},
}

PARITY_FIELDS = {
    "plain": {},
    "trace": {"trace": True},
    "no_expansions": {"max_expansions": 0},
    "zero_deadline": {"deadline_ms": 0},
    "bad_version": {"v": 99},
    "pinned_version": {"v": 1},
    "no_cache": {"no_cache": True},
    "unknown_field": {"frobnicate": 1},
    "bad_k": {"k": 0},
}


def _parity_view(resp, prefix=""):
    """What must agree between a single request and a batch item: status,
    payload (minus timings), warnings (minus the item prefix), the
    ``cached`` flag, and whether ``trace`` / ``counters`` came back."""
    def strip(text):
        return text[len(prefix):] if prefix and text.startswith(prefix) else text

    view = {k: v for k, v in resp.items()
            if k not in ("breakdown", "trace", "counters", "v", "cached",
                         "warnings", "error")}
    view["error"] = strip(resp["error"]) if "error" in resp else None
    view["cached"] = resp.get("cached", False)
    view["traced"] = ("trace" in resp, "counters" in resp)
    view["warnings"] = [strip(w) for w in resp.get("warnings", ())]
    return view


class TestItemParity:
    """A batch item runs the single-request stages: field check, answer
    cache, query, trace.  So every item field — ``v``, ``trace``,
    ``no_cache``, the budget fields, unknown fields — means what it means
    on a single request, on the first run and on the repeat."""

    @pytest.mark.parametrize("fields", list(PARITY_FIELDS))
    @pytest.mark.parametrize("op", list(PARITY_ITEMS))
    def test_item_answers_like_a_single_request(
        self, small_public_private, op, fields
    ):
        item = dict(PARITY_ITEMS[op], **PARITY_FIELDS[fields])
        alone = _service(small_public_private)
        batched = _service(small_public_private)
        for run in ("first", "repeat"):
            single = alone.execute(dict(item, network="net", owner="bob"))
            outer = _batch(batched, [item])
            assert outer["status"] == "ok"
            (entry,) = outer["results"]
            entry = dict(entry)
            if "warnings" in outer:
                entry["warnings"] = outer["warnings"]
            assert _parity_view(entry, "queries[0]: ") == _parity_view(single), run
