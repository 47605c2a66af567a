"""Protocol-level tests: answer cache semantics, epochs, error codes.

The shape matrix lives in ``test_service_shapes.py``; these tests pin
the *behavioral* wire contract of the v1 protocol:

* the cross-request answer cache — hits marked ``cached``, ``no_cache``
  / ``trace`` bypass, canonicalized keys (defaults applied), only
  ``status: "ok"`` responses cached;
* epoch-based invalidation — the acceptance property that an owner's
  answer cached *before* its ``attach`` / ``detach`` / dynamic repair or
  its network's ``drop`` is **never** served after it, including through
  the direct Python API, ``batch`` items and a drop-and-recreate of the
  same network name — while every *other* owner's answers stay hits;
* the central exception-type -> error-code map;
* concurrent serving through :class:`~repro.serving.ServiceExecutor`
  against multiple networks.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import (
    BudgetExhaustedError,
    DeadlineExceededError,
    OwnerNotAttachedError,
    QueryError,
    ReproError,
    ServiceOverloadedError,
    UnknownNetworkError,
)
from repro.service import PPKWSService, _error_code
from repro.serving import ServiceExecutor


@pytest.fixture
def service(small_public_private) -> PPKWSService:
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


def blinks_req(**extra):
    req = {
        "op": "blinks", "network": "net", "owner": "bob",
        "keywords": ["db", "ai"], "tau": 4.0, "k": 3,
    }
    req.update(extra)
    return req


def knk_req(**extra):
    req = {
        "op": "knk", "network": "net", "owner": "bob",
        "source": "x1", "keyword": "cv", "k": 2,
    }
    req.update(extra)
    return req


#: one valid request per op that names a network or an owner
NAMED_REQUESTS = {
    "blinks": blinks_req(),
    "knk": knk_req(),
    "stats": {"op": "stats", "network": "net", "owner": "bob"},
    "batch": {"op": "batch", "network": "net", "owner": "bob", "queries": []},
    "create_network": {"op": "create_network", "network": "net2",
                       "public_edges": [["a", "b"]]},
    "attach": {"op": "attach", "network": "net", "owner": "carol",
               "private_edges": [["x1", "z"]]},
    "detach": {"op": "detach", "network": "net", "owner": "bob"},
    "drop": {"op": "drop", "network": "net"},
}


def strip_meta(resp):
    return {
        k: v for k, v in resp.items() if k not in ("cached", "v", "warnings")
    }


class TestAnswerCacheSemantics:
    def test_repeat_query_is_a_marked_hit_with_identical_payload(self, service):
        cold = service.execute(blinks_req())
        hit = service.execute(blinks_req())
        assert "cached" not in cold
        assert hit["cached"] is True
        assert strip_meta(hit) == strip_meta(cold)
        assert service.answer_cache.hits == 1

    def test_default_params_share_an_entry_with_explicit_defaults(self, service):
        service.execute(knk_req(k=10))
        hit = service.execute({
            "op": "knk", "network": "net", "owner": "bob",
            "source": "x1", "keyword": "cv",  # k omitted -> default 10
        })
        assert hit.get("cached") is True

    def test_distinct_params_are_distinct_entries(self, service):
        service.execute(blinks_req())
        other = service.execute(blinks_req(k=5))
        assert "cached" not in other

    def test_distinct_owners_are_distinct_entries(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        svc.attach_user("net", "carol", priv)
        svc.execute(blinks_req())
        carol = svc.execute(blinks_req(owner="carol"))
        assert "cached" not in carol

    def test_no_cache_flag_bypasses(self, service):
        service.execute(blinks_req())
        resp = service.execute(blinks_req(no_cache=True))
        assert "cached" not in resp

    def test_trace_requests_bypass(self, service):
        service.execute(blinks_req())
        resp = service.execute(blinks_req(trace=True))
        assert "cached" not in resp
        assert "trace" in resp  # a real run, with a real trace

    @pytest.mark.parametrize("flag", ["no_cache", "trace"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, [True]])
    @pytest.mark.parametrize("via", ["single", "batch_item"])
    def test_flags_take_exact_bools_only(self, service, flag, value, via):
        service.execute(knk_req())  # a cached entry a bad flag must not touch
        stats = service.answer_cache.stats()
        if via == "single":
            resp = service.execute(knk_req(**{flag: value}))
            prefix = ""
        else:
            item = {k: v for k, v in knk_req(**{flag: value}).items()
                    if k not in ("network", "owner")}
            outer = service.execute({
                "op": "batch", "network": "net", "owner": "bob",
                "queries": [item, {k: v for k, v in item.items() if k != flag}],
            })
            assert outer["status"] == "ok"
            resp, good = outer["results"]
            assert good["status"] == "ok" and good["cached"] is True
            prefix = "queries[0]: "
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert resp["error"] == f"{prefix}field {flag!r} must be true or false"
        assert "trace" not in resp and "cached" not in resp
        after = service.answer_cache.stats()
        assert after["entries"] == stats["entries"]
        assert after["hits"] == stats["hits"] + (via == "batch_item")

    def test_error_responses_are_not_cached(self, service):
        bad = knk_req(owner="nobody")
        first = service.execute(bad)
        second = service.execute(bad)
        assert first["status"] == second["status"] == "error"
        assert "cached" not in second

    def test_degraded_responses_are_not_cached(self, service):
        req = blinks_req(deadline_ms=0)
        assert service.execute(req)["status"] == "degraded"
        second = service.execute(req)
        assert "cached" not in second

    def test_cache_can_be_disabled(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2, answer_cache_size=0)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        assert svc.answer_cache is None
        svc.execute(blinks_req())
        assert "cached" not in svc.execute(blinks_req())

    def test_cache_traffic_is_observable(
        self, small_public_private, installed_registry
    ):
        pub, priv = small_public_private
        reg = installed_registry
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        svc.execute(blinks_req())
        svc.execute(blinks_req())
        assert reg.value("ppkws_answer_cache_misses_total") == 1.0
        assert reg.value("ppkws_answer_cache_hits_total") == 1.0


class TestEpochInvalidation:
    def test_answer_cached_before_attach_is_never_served_after(self, service):
        """The acceptance property, per owner: an attach or detach
        strictly invalidates *its owner's* answers and nobody else's (a
        private graph is visible to its owner only)."""
        cold = service.execute(blinks_req())
        assert service.execute(blinks_req())["cached"] is True

        service.attach_user("net", "carol", _tiny_private())

        # bob's answers are unaffected by carol's attach: still a hit
        after = service.execute(blinks_req())
        assert after["cached"] is True
        assert after["answers"] == cold["answers"]

        # carol's own answers do die with her attachment
        carol_req = blinks_req(owner="carol", keywords=["db"])
        assert service.execute(carol_req)["status"] == "ok"
        assert service.execute(carol_req)["cached"] is True
        service.detach_user("net", "carol")
        assert service.execute(carol_req)["code"] == "unknown_owner"
        service.attach_user("net", "carol", _tiny_private())
        assert "cached" not in service.execute(carol_req)
        assert service.execute(blinks_req())["cached"] is True  # bob again

    def test_detach_and_reattach_changes_the_answer(self, small_public_private):
        """Content-visible staleness: re-attaching with a different
        private graph must change the served answer, not replay it."""
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)

        cold = svc.execute(knk_req())
        old_best = cold["answer"]["matches"][0]["distance"]
        assert svc.execute(knk_req())["cached"] is True

        svc.detach_user("net", "bob")
        priv.add_edge("x1", "x3")  # x3 carries "cv": distance becomes 1
        svc.attach_user("net", "bob", priv)

        fresh = svc.execute(knk_req())
        assert "cached" not in fresh
        new_best = fresh["answer"]["matches"][0]["distance"]
        assert new_best == 1.0
        assert new_best < old_best

    def test_detach_via_wire_invalidates(self, service):
        service.execute(knk_req())
        assert service.execute(knk_req())["cached"] is True
        resp = service.execute({"op": "detach", "network": "net", "owner": "bob"})
        assert resp["status"] == "ok"
        gone = service.execute(knk_req())
        assert gone["status"] == "error"
        assert gone["code"] == "unknown_owner"
        assert "cached" not in gone

    def test_drop_and_recreate_does_not_revive_answers(
        self, small_public_private
    ):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        svc.execute(blinks_req())
        assert svc.execute(blinks_req())["cached"] is True

        svc.drop_network("net")
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)

        resp = svc.execute(blinks_req())
        assert "cached" not in resp

    def test_epoch_is_monotonic_across_admin_ops(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        assert svc.network_epoch("net") == 0
        svc.create_network("net", pub)
        assert svc.network_epoch("net") == 1
        svc.attach_user("net", "bob", priv)
        assert svc.network_epoch("net") == 2
        svc.detach_user("net", "bob")
        assert svc.network_epoch("net") == 3
        svc.drop_network("net")
        assert svc.network_epoch("net") == 4  # survives the drop

    def test_stats_reports_the_epoch(self, service):
        resp = service.execute({"op": "stats", "network": "net"})
        assert resp["epoch"] == service.network_epoch("net") == 2


@pytest.fixture
def two_owners(small_public_private) -> PPKWSService:
    """bob and carol on one network, each with a private copy."""
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv.copy())
    svc.attach_user("net", "carol", priv.copy())
    return svc


def _ask(svc, owner, via):
    """bob's/carol's knk answer as a single request or a one-item batch.

    Returns the query's entry with ``cached`` normalized to a bool; a
    batch that fails as a whole (detached owner) returns its top level.
    """
    if via == "single":
        entry = svc.execute(knk_req(owner=owner))
    else:
        item = {k: v for k, v in knk_req().items()
                if k not in ("network", "owner")}
        resp = svc.execute({"op": "batch", "network": "net", "owner": owner,
                            "queries": [item]})
        entry = resp["results"][0] if resp["status"] == "ok" else resp
    entry["cached"] = bool(entry.get("cached"))
    return entry


def _best(entry):
    return entry["answer"]["matches"][0]["distance"]


@pytest.mark.parametrize("via", ["single", "batch"])
class TestOwnerIsolation:
    """An owner-side cached fact lives until *that owner's* attachment
    (or the network's life) changes — through single requests and
    ``batch`` items alike, which share entries and the validity token."""

    def _warm(self, svc, via):
        for owner in ("bob", "carol"):
            assert _ask(svc, owner, via)["cached"] is False
            assert _ask(svc, owner, via)["cached"] is True

    def test_other_owners_attach_and_detach_leave_a_hit(self, two_owners, via):
        self._warm(two_owners, via)
        cold = _ask(two_owners, "bob", via)
        two_owners.detach_user("net", "carol")
        two_owners.attach_user("net", "dave", _tiny_private())
        hit = _ask(two_owners, "bob", via)
        assert hit["cached"] is True
        assert hit["answer"] == cold["answer"]
        assert two_owners.answer_cache.stale_hits == 0

    def test_detached_owner_is_unknown_never_a_cached_ok(self, two_owners, via):
        self._warm(two_owners, via)
        two_owners.detach_user("net", "bob")
        gone = _ask(two_owners, "bob", via)
        assert gone["status"] == "error"
        assert gone["code"] == "unknown_owner"
        assert gone["cached"] is False
        assert _ask(two_owners, "carol", via)["cached"] is True

    def test_reattach_with_a_different_graph_serves_the_new_answer(
        self, two_owners, small_public_private, via
    ):
        _, priv = small_public_private
        self._warm(two_owners, via)
        old_best = _best(_ask(two_owners, "bob", via))
        two_owners.detach_user("net", "bob")
        changed = priv.copy()
        changed.add_edge("x1", "x3")  # x3 carries "cv": distance becomes 1
        two_owners.attach_user("net", "bob", changed)

        fresh = _ask(two_owners, "bob", via)
        assert fresh["cached"] is False
        assert _best(fresh) == 1.0 < old_best
        assert _ask(two_owners, "bob", via)["cached"] is True
        carol = _ask(two_owners, "carol", via)
        assert carol["cached"] is True
        assert _best(carol) == old_best

    def test_drop_and_recreate_revives_no_owner(
        self, two_owners, small_public_private, via
    ):
        pub, priv = small_public_private
        self._warm(two_owners, via)
        two_owners.drop_network("net")
        assert _ask(two_owners, "bob", via)["code"] == "unknown_network"
        two_owners.create_network("net", pub)
        # before anyone re-attaches: unknown owners, not their old answers
        for owner in ("bob", "carol"):
            gone = _ask(two_owners, owner, via)
            assert gone["code"] == "unknown_owner"
            assert gone["cached"] is False
        # the new life's first attach repeats the old life's owner epoch
        # (1); the network's life in the token keeps the entries dead
        two_owners.attach_user("net", "bob", priv.copy())
        two_owners.attach_user("net", "carol", priv.copy())
        for owner in ("bob", "carol"):
            assert _ask(two_owners, owner, via)["cached"] is False

    def test_dynamic_mutation_invalidates_its_owner_only(self, two_owners, via):
        """``DynamicPrivateGraph`` edits bump only the engine's epoch
        for that owner; the answer cache must see it (it used to read
        the service's own per-network counter and kept serving the
        pre-mutation answer)."""
        from repro.core.dynamic import DynamicPrivateGraph

        self._warm(two_owners, via)
        old_best = _best(_ask(two_owners, "bob", via))
        dyn = DynamicPrivateGraph(two_owners._engine("net"), "bob")

        dyn.add_labels("x4", {"cv"})  # re-attach: x1-x2-x4
        relabelled = _ask(two_owners, "bob", via)
        assert relabelled["cached"] is False
        assert _best(relabelled) == 2.0 < old_best

        dyn.add_edge("x1", "x4")  # re-attach: the shortcut
        shortcut = _ask(two_owners, "bob", via)
        assert shortcut["cached"] is False
        assert _best(shortcut) == 1.0

        dyn.remove_edge("x1", "x4")  # re-attach: shortcut gone
        rebuilt = _ask(two_owners, "bob", via)
        assert rebuilt["cached"] is False
        assert _best(rebuilt) == 2.0

        carol = _ask(two_owners, "carol", via)
        assert carol["cached"] is True
        assert _best(carol) == old_best


class TestErrorCodeMap:
    @pytest.mark.parametrize("exc,code", [
        (ServiceOverloadedError(1, 1), "overloaded"),
        (UnknownNetworkError("n"), "unknown_network"),
        (OwnerNotAttachedError("o"), "unknown_owner"),
        (BudgetExhaustedError(1, 1), "budget_exhausted"),
        (DeadlineExceededError(2.0, 1.0), "budget_exhausted"),
        (ReproError("nope"), "bad_request"),
        (QueryError("empty"), "bad_request"),
        (KeyError("k"), "internal"),
        (ValueError("v"), "internal"),
    ])
    def test_exception_to_code(self, exc, code):
        assert _error_code(exc) == code

    def test_unknown_network_on_the_wire(self, service):
        resp = service.execute(blinks_req(network="nope"))
        assert resp["code"] == "unknown_network"
        assert "nope" in resp["error"]

    def test_unknown_owner_on_the_wire(self, service):
        resp = service.execute(blinks_req(owner="nobody"))
        assert resp["code"] == "unknown_owner"

    @pytest.mark.parametrize("value", [["bob"], {"a": 1}, 7, True],
                             ids=["list", "dict", "int", "bool"])
    @pytest.mark.parametrize("op, field", [
        pytest.param(op, field, id=f"{op}-{field}")
        for op in NAMED_REQUESTS for field in ("network", "owner", "op")
        if field in NAMED_REQUESTS[op]
    ])
    def test_non_string_network_is_bad_request(
        self, small_public_private, installed_registry, op, field, value
    ):
        """A network, owner or op is a name: anything but a string is the
        caller's error, named by field, found before any lock, registry
        or cache sees it (lists and dicts used to be ``internal``, and
        ``create_network`` registered ``7`` under a name no read op
        could ask for)."""
        pub, priv = small_public_private
        registry = installed_registry
        service = PPKWSService(sketch_k=2)
        service.create_network("net", pub)
        service.attach_user("net", "bob", priv)
        before = service.answer_cache.stats()
        resp = service.execute(dict(NAMED_REQUESTS[op], **{field: value}))
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert f"field {field!r} must be a string" in resp["error"]
        assert not registry.value("ppkws_internal_errors_total")
        assert service.answer_cache.stats() == before
        assert service.networks() == ["net"]
        assert service.execute(knk_req())["status"] == "ok"  # bob attached

    @pytest.mark.parametrize("value", [["knk"], {"a": 1}, 7, True],
                             ids=["list", "dict", "int", "bool"])
    def test_non_string_batch_item_op_is_bad_request(
        self, small_public_private, installed_registry, value
    ):
        """A batch item's ``op`` passes the same row before the op
        registry sees it."""
        pub, priv = small_public_private
        registry = installed_registry
        service = PPKWSService(sketch_k=2)
        service.create_network("net", pub)
        service.attach_user("net", "bob", priv)
        before = service.answer_cache.stats()
        resp = service.execute(dict(NAMED_REQUESTS["batch"], queries=[{"op": value}]))
        assert resp["status"] == "ok"
        [item] = resp["results"]
        assert item["code"] == "bad_request"
        assert item["error"] == "queries[0]: field 'op' must be a string"
        assert not registry.value("ppkws_internal_errors_total")
        assert service.answer_cache.stats() == before
        assert service.networks() == ["net"]
        assert service.execute(knk_req())["status"] == "ok"

    @pytest.mark.parametrize("request_", [
        # a bare string must not be list()-split into ['a', 'i']
        blinks_req(keywords="ai"),
        blinks_req(op="banks", keywords="ai"),
        blinks_req(op="rclique", keywords="ai"),
        blinks_req(keywords=["db", ""]),
        blinks_req(keywords=["db", 7]),
        {"op": "truss", "network": "net", "owner": "bob", "k": 3, "keywords": "ai"},
        {"op": "knk_multi", "network": "net", "owner": "bob",
         "source": "x1", "keywords": "ai"},
        knk_req(keyword=["cv"]),
        knk_req(keyword=""),
        # an empty query is refused by the field row, not by the engine
        # after a cache miss
        blinks_req(keywords=[]),
        blinks_req(op="banks", keywords=[]),
        blinks_req(op="rclique", keywords=[]),
    ], ids=lambda r: f"{r['op']}-{r.get('keywords', r.get('keyword'))!r}")
    def test_malformed_keyword_fields_are_bad_requests(self, service, request_):
        before = service.answer_cache.stats()
        resp = service.execute(request_)
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert "keyword" in resp["error"]
        # rejected before the cache saw a key: nothing counted or stored
        assert service.answer_cache.stats() == before

    @pytest.mark.parametrize("field, request_", [
        # nothing is coerced: each of these used to be answered (or was
        # ``internal``) after an int()/float() or a failed hash
        ("k", knk_req(k=True)),
        ("k", knk_req(k=2.5)),
        ("k", knk_req(k="2")),
        ("k", knk_req(k=float("nan"))),
        ("k", knk_req(k=0)),
        ("k", blinks_req(k=2.0)),
        ("k", {"op": "truss", "network": "net", "owner": "bob", "k": "3"}),
        ("k", {"op": "knk_multi", "network": "net", "owner": "bob",
               "source": "x1", "keywords": ["db"], "k": None}),
        ("source", knk_req(source=["u"])),
        ("source", knk_req(source=True)),
        ("source", {"op": "knk_multi", "network": "net", "owner": "bob",
                    "source": {"x": 1}, "keywords": ["db"]}),
        ("mode", {"op": "knk_multi", "network": "net", "owner": "bob",
                  "source": "x1", "keywords": ["db"], "mode": 1}),
        # refused by the field rows, not by the engine after a cache miss
        pytest.param("mode", {"op": "knk_multi", "network": "net",
                              "owner": "bob", "source": "x1",
                              "keywords": ["db"], "mode": "nand"},
                     id="mode-knk_multi-nand"),
        pytest.param("k", {"op": "truss", "network": "net", "owner": "bob",
                           "k": 1}, id="k-truss-below-2"),
        ("tau", blinks_req(tau=float("nan"))),
        ("tau", blinks_req(tau="5")),
        ("tau", blinks_req(tau=True)),
        ("tau", blinks_req(tau=-1)),
        ("tau", blinks_req(op="rclique", tau=[4.0])),
        ("tau", blinks_req(op="banks", tau=None)),
    ], ids=lambda v: v if isinstance(v, str) else f"{v['op']}")
    def test_malformed_scalar_fields_are_bad_requests(self, service, field, request_):
        for warm in (knk_req(), blinks_req()):  # the well-formed lines exist
            assert service.execute(warm)["status"] == "ok"
        before = service.answer_cache.stats()
        resp = service.execute(request_)
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert repr(field) in resp["error"]
        # rejected before the cache saw a key: no hit on k=2's line for
        # k="2", nothing counted or stored
        assert service.answer_cache.stats() == before

    @pytest.mark.parametrize("request_", [
        knk_req(k=1), blinks_req(tau=0), blinks_req(tau=3), blinks_req(k=1),
        knk_req(source="x2"), knk_req(source=2),  # vertex 2 is a portal
    ])
    def test_well_formed_scalar_fields_still_answer(self, service, request_):
        assert service.execute(request_)["status"] == "ok"

    def test_int_and_float_tau_share_a_cache_line(self, service):
        assert "cached" not in service.execute(blinks_req(tau=4))
        assert service.execute(blinks_req(tau=4.0))["cached"] is True

    def test_malformed_batch_item_fields_are_bad_requests(self, service):
        resp = service.execute({
            "op": "batch", "network": "net", "owner": "bob",
            "queries": [
                {"op": "knk", "source": ["u"], "keyword": "cv"},
                {"op": "blinks", "keywords": ["db"], "tau": float("nan")},
                {"op": "knk", "source": "x1", "keyword": "cv", "k": 2},
            ],
        })
        codes = [entry.get("code") for entry in resp["results"]]
        assert codes == ["bad_request", "bad_request", None]
        assert resp["results"][2]["status"] == "ok"

    def test_bad_knk_multi_mode_is_rejected_before_any_step(self, service):
        from repro import faults
        from repro.faults.points import ENGINE_STEP

        request = {"op": "knk_multi", "network": "net", "owner": "bob",
                   "source": "x1", "keywords": ["db"], "mode": "nand"}
        schedule = faults.FaultSchedule([faults.FaultSpec(ENGINE_STEP, "raise")])
        with faults.injected(schedule):
            resp = service.execute(request)
        # a step that started would have hit the fault (code ``internal``)
        assert resp["code"] == "bad_request"
        assert "mode must be one of" in resp["error"]
        assert schedule.hits(ENGINE_STEP) == 0


class TestWireVertexIds:
    """A wire vertex is a string or an integer, checked once
    (``semantics.wire.check_vertex``) for graph payloads and ``source``
    alike: anything else is a ``bad_request`` naming the field, before
    anything is built.  ``true`` used to attach as public vertex ``1``
    (``True == 1``), and ``null`` / floats built a graph that only an
    ``index_path`` create refused."""

    BAD = [True, None, 1.5, float("nan"), ["u"]]
    IDS = ["true", "null", "float", "nan", "list"]

    @pytest.mark.parametrize("vertex", BAD, ids=IDS)
    def test_private_edge_vertex(self, service, vertex):
        before = service.execute({"op": "stats", "network": "net"})
        resp = service.execute({
            "op": "attach", "network": "net", "owner": "eve",
            "private_edges": [[vertex, "x"]],
        })
        assert resp["code"] == "bad_request"
        assert "'private_edges'" in resp["error"]
        after = service.execute({"op": "stats", "network": "net"})
        assert after["owners"] == before["owners"] == ["bob"]
        assert after["epoch"] == before["epoch"]

    @pytest.mark.parametrize("persisted", [False, True],
                             ids=["in_memory", "index_path"])
    @pytest.mark.parametrize("vertex", BAD, ids=IDS)
    def test_public_edge_vertex(self, tmp_path, vertex, persisted):
        svc = PPKWSService(sketch_k=2)
        request = {"op": "create_network", "network": "n",
                   "public_edges": [[0, 1], [1, vertex]]}
        if persisted:
            request["index_path"] = str(tmp_path / "n.idx")
        resp = svc.execute(request)
        assert resp["code"] == "bad_request"
        assert "'public_edges'" in resp["error"]
        assert svc.networks() == []

    def test_index_path_is_a_string_not_a_descriptor(self, tmp_path):
        """An integer ``index_path`` used to be opened as a descriptor of
        the server process, which the failed load then closed."""
        fd = os.open(tmp_path / "held", os.O_RDWR | os.O_CREAT)
        try:
            svc = PPKWSService(sketch_k=2)
            resp = svc.execute({"op": "create_network", "network": "n",
                                "public_edges": [[0, 1]], "index_path": fd})
            assert resp["code"] == "bad_request"
            assert "'index_path'" in resp["error"]
            assert svc.networks() == []
            os.fstat(fd)  # still open
        finally:
            try:
                os.close(fd)
            except OSError:
                pass

    def test_label_map_vertex(self, service):
        resp = service.execute({
            "op": "attach", "network": "net", "owner": "eve",
            "private_edges": [[2, "x"]],
            "private_labels": {1.5: ["db"]},
        })
        assert resp["code"] == "bad_request"
        assert "'private_labels'" in resp["error"]

    @pytest.mark.parametrize("vertex", BAD, ids=IDS)
    def test_source_vertex(self, service, vertex):
        resp = service.execute(knk_req(source=vertex))
        assert resp["code"] == "bad_request"
        assert "'source'" in resp["error"]

    @pytest.mark.parametrize("vertex", [9, "e9"], ids=["int", "str"])
    def test_int_and_str_vertices_pass(self, service, vertex):
        resp = service.execute({
            "op": "attach", "network": "net", "owner": "eve",
            "private_edges": [[2, vertex]],
            "private_labels": {vertex: ["db"]},
        })
        assert resp["status"] == "ok" and resp["portals"] == 1
        resp = service.execute(knk_req(owner="eve", source=vertex))
        assert resp["status"] == "ok"


class TestWarnings:
    def test_multiple_unknown_fields_sorted(self, service):
        resp = service.execute(blinks_req(zeta=1, alpha=2))
        assert resp["warnings"] == ["unknown field 'alpha'", "unknown field 'zeta'"]

    def test_non_string_unknown_key_warns_in_sorted_position(self, service):
        req = blinks_req(zeta=1)
        req[7] = "seven"
        resp = service.execute(req)
        assert resp["status"] == "ok"
        assert resp["warnings"] == ["unknown field '7'", "unknown field 'zeta'"]

    def test_global_fields_never_warn(self, service):
        resp = service.execute(blinks_req(v=1, trace=False, no_cache=False))
        assert "warnings" not in resp

    def test_warnings_survive_errors(self, service):
        req = blinks_req(bogus=1)
        del req["keywords"]
        resp = service.execute(req)
        assert resp["status"] == "error"
        assert resp["warnings"] == ["unknown field 'bogus'"]


def _tiny_private():
    from repro.graph import LabeledGraph

    priv = LabeledGraph("tiny")
    priv.add_vertex(0)  # portal
    priv.add_vertex("y1", {"db"})
    priv.add_edge(0, "y1")
    return priv


class TestExecutorServiceIntegration:
    def _build_networks(self, svc, small_public_private, n=4):
        pub, priv = small_public_private
        for i in range(n):
            svc.create_network(f"net{i}", pub)
            svc.attach_user(f"net{i}", "bob", priv)

    def test_parallel_reads_across_networks(self, small_public_private):
        svc = PPKWSService(sketch_k=2)
        self._build_networks(svc, small_public_private)
        reqs = [
            blinks_req(network=f"net{i % 4}", k=2 + (i % 3))
            for i in range(24)
        ]
        with ServiceExecutor(svc, workers=4) as pool:
            responses = pool.execute_many(reqs)
        assert all(r["status"] == "ok" for r in responses)
        # 12 distinct (network, k) keys; the 12 repeats are spaced far
        # enough behind their twins that most hit the cache (a worker
        # stalled on an early slow query can race a few into recompute,
        # so the pooled count is a lower bound, not an exact 12)
        assert sum(1 for r in responses if r.get("cached")) >= 6
        # deterministic part: afterwards every distinct key is cached
        for req in reqs[:12]:
            assert svc.execute(req)["cached"] is True

    def test_admin_churn_under_concurrent_reads(self, small_public_private):
        """Readers racing an attach/detach flip never see internal
        errors, and bob's answers are bit-stable throughout (carol's
        churn must not leak into bob's cached entries)."""
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        tiny = _tiny_private()

        reqs = []
        for i in range(30):
            if i % 10 == 3:
                reqs.append({
                    "op": "attach", "network": "net", "owner": "carol",
                    "private": tiny,
                })
            elif i % 10 == 7:
                reqs.append({"op": "detach", "network": "net", "owner": "carol"})
            else:
                reqs.append(blinks_req())
        with ServiceExecutor(svc, workers=4) as pool:
            responses = pool.execute_many(reqs)

        assert all(r.get("code") != "internal" for r in responses)
        bob_answers = {
            _freeze(r["answers"])
            for r in responses
            if r.get("status") == "ok" and "answers" in r
        }
        assert len(bob_answers) == 1  # identical payload every time


def _freeze(obj):
    if isinstance(obj, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in obj.items()))
    if isinstance(obj, list):
        return tuple(_freeze(x) for x in obj)
    return obj
