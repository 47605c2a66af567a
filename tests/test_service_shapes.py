"""Response-shape contract tests: every op x {ok, degraded, error}.

The facade's wire contract is the *exact* set of top-level keys each
``(op, status)`` pair returns — RPC wrappers and dashboards key off
them, so a key silently appearing or vanishing is a breaking change.
These tests pin the full matrix, including the protocol-version echo
(``"v": 1`` on every response), the machine-readable ``code`` on every
error, the ``cached`` marker on answer-cache hits, the ``warnings``
list for unrecognized request fields, the ``counters`` / ``trace`` keys
that only the ``"trace": true`` request flag may add, and the
``metrics`` op's snapshot shape.
"""

from __future__ import annotations

from typing import Any, Dict

import pytest

from repro.service import ERROR_CODES, PROTOCOL_VERSION, PPKWSService

ROOTED_OPS = ("blinks", "rclique", "banks")
KNK_OPS = ("knk", "knk_multi")
QUERY_OPS = ROOTED_OPS + KNK_OPS

#: every response echoes the protocol version
V_KEYS = {"v"}
ERROR_KEYS = {"status", "error", "retryable", "code", "v"}
DEGRADATION_KEYS = {"completed_steps", "interrupted_step"}
TRACE_KEYS = {"counters", "trace"}

#: the exact QueryCounters field set every ``counters`` payload carries
COUNTER_FIELDS = {
    "partial_answers",
    "refinement_checks",
    "refinements_applied",
    "completion_lookups",
    "completion_cache_hits",
    "answers_pruned",
    "final_answers",
}


@pytest.fixture
def service(small_public_private) -> PPKWSService:
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


def _query(op: str, **extra: Any) -> Dict[str, Any]:
    req: Dict[str, Any] = {"op": op, "network": "net", "owner": "bob"}
    if op in ROOTED_OPS:
        req.update({"keywords": ["db", "ai"], "tau": 4.0, "k": 3})
    elif op == "knk":
        req.update({"source": "x1", "keyword": "cv", "k": 2})
    else:  # knk_multi
        req.update({"source": "x1", "keywords": ["cv", "ml"], "k": 2})
    req.update(extra)
    return req


class TestQueryOpShapes:
    @pytest.mark.parametrize("op", ROOTED_OPS)
    def test_rooted_ok(self, service, op):
        resp = service.execute(_query(op))
        assert resp["status"] == "ok"
        assert resp["v"] == PROTOCOL_VERSION
        assert set(resp) == {"status", "answers", "breakdown"} | V_KEYS
        assert set(resp["breakdown"]) == {"peval", "arefine", "acomplete"}

    @pytest.mark.parametrize("op", KNK_OPS)
    def test_knk_ok(self, service, op):
        resp = service.execute(_query(op))
        assert resp["status"] == "ok"
        assert set(resp) == {"status", "answer"} | V_KEYS
        assert set(resp["answer"]) == {"source", "keyword", "matches"}

    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_cached_repeat_adds_only_cached_marker(self, service, op):
        cold = service.execute(_query(op))
        hit = service.execute(_query(op))
        assert hit["cached"] is True
        assert set(hit) == set(cold) | {"cached"}

    @pytest.mark.parametrize("op", ROOTED_OPS)
    def test_rooted_degraded(self, service, op):
        resp = service.execute(_query(op, deadline_ms=0))
        assert resp["status"] == "degraded"
        assert set(resp) == (
            {"status", "answers", "breakdown"} | DEGRADATION_KEYS | V_KEYS
        )

    @pytest.mark.parametrize("op", KNK_OPS)
    def test_knk_degraded(self, service, op):
        resp = service.execute(_query(op, deadline_ms=0))
        assert resp["status"] == "degraded"
        assert set(resp) == {"status", "answer"} | DEGRADATION_KEYS | V_KEYS

    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_query_error(self, service, op):
        req = _query(op)
        del req["owner"]
        resp = service.execute(req)
        assert resp["status"] == "error"
        assert set(resp) == ERROR_KEYS
        assert resp["retryable"] is False
        assert resp["code"] == "bad_request"

    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_unknown_field_warns(self, service, op):
        resp = service.execute(_query(op, frobnicate=1))
        assert resp["status"] == "ok"
        assert resp["warnings"] == ["unknown field 'frobnicate'"]

    def test_error_code_enum_is_closed(self, service):
        assert set(ERROR_CODES) == {
            "bad_request", "unknown_network", "unknown_owner",
            "overloaded", "budget_exhausted", "internal",
        }


class TestTraceFlagShapes:
    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_ok_with_trace(self, service, op):
        resp = service.execute(_query(op, trace=True))
        assert resp["status"] == "ok"
        base = (
            {"status", "answers", "breakdown"}
            if op in ROOTED_OPS
            else {"status", "answer"}
        )
        assert set(resp) == base | TRACE_KEYS | V_KEYS
        assert set(resp["counters"]) == COUNTER_FIELDS
        assert resp["trace"]["op"] == op
        assert resp["trace"]["status"] == "ok"

    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_degraded_with_trace(self, service, op):
        resp = service.execute(_query(op, deadline_ms=0, trace=True))
        assert resp["status"] == "degraded"
        assert set(resp["counters"]) == COUNTER_FIELDS
        assert resp["trace"]["degraded"] is True
        assert resp["trace"]["interrupted_step"] in (
            "peval", "arefine", "acomplete"
        )

    def test_error_with_trace_has_trace_but_no_counters(self, service):
        # No query result exists, so no counters — but the trace record
        # still describes the failed request.
        resp = service.execute({"op": "blinks", "trace": True})
        assert resp["status"] == "error"
        assert set(resp) == ERROR_KEYS | {"trace"}
        assert resp["trace"]["error"] == "ReproError"

    @pytest.mark.parametrize("op", QUERY_OPS)
    def test_no_flag_means_no_trace_keys(self, service, op):
        resp = service.execute(_query(op))
        assert not TRACE_KEYS & set(resp)


class TestAdminOpShapes:
    PUBLIC_EDGES = [[0, 1], [1, 2], [2, 0]]
    PRIVATE_EDGES = [[0, "q1"]]

    def test_create_network_ok(self):
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": self.PUBLIC_EDGES,
        })
        assert resp == {"status": "ok", "network": "n", "v": PROTOCOL_VERSION}

    def test_create_network_error(self, service):
        resp = service.execute({
            "op": "create_network", "network": "net",
            "public_edges": self.PUBLIC_EDGES,
        })
        assert set(resp) == ERROR_KEYS
        assert resp["code"] == "bad_request"

    def test_attach_ok_and_error(self, service):
        resp = service.execute({
            "op": "attach", "network": "net", "owner": "eve",
            "private_edges": self.PRIVATE_EDGES,
        })
        assert set(resp) == {"status", "owner", "portals"} | V_KEYS
        assert resp["status"] == "ok"
        dup = service.execute({
            "op": "attach", "network": "net", "owner": "eve",
            "private_edges": self.PRIVATE_EDGES,
        })
        assert set(dup) == ERROR_KEYS

    def test_detach_ok_and_error(self, service):
        resp = service.execute({"op": "detach", "network": "net", "owner": "bob"})
        assert resp == {"status": "ok", "owner": "bob", "v": PROTOCOL_VERSION}
        resp = service.execute({"op": "detach", "network": "net", "owner": "bob"})
        assert set(resp) == ERROR_KEYS
        assert resp["code"] == "unknown_owner"

    def test_drop_ok_and_error(self, service):
        resp = service.execute({"op": "drop", "network": "net"})
        assert resp == {"status": "ok", "network": "net", "v": PROTOCOL_VERSION}
        resp = service.execute({"op": "drop", "network": "net"})
        assert set(resp) == ERROR_KEYS
        assert resp["code"] == "unknown_network"

    def test_stats_ok(self, service):
        resp = service.execute({"op": "stats", "network": "net"})
        assert set(resp) == (
            {"status", "public", "owners", "index_entries", "epoch"} | V_KEYS
        )
        with_owner = service.execute(
            {"op": "stats", "network": "net", "owner": "bob"}
        )
        assert set(with_owner) == (
            {"status", "public", "owners", "index_entries", "epoch",
             "attachment"} | V_KEYS
        )
        assert set(with_owner["attachment"]) == {
            "private_vertices", "private_edges", "portals",
            "refined_portal_pairs",
        }

    def test_stats_error(self, service):
        resp = service.execute({"op": "stats", "network": "nope"})
        assert set(resp) == ERROR_KEYS
        assert resp["code"] == "unknown_network"


class TestMetricsOpShape:
    def test_metrics_shape(self, service):
        resp = service.execute({"op": "metrics"})
        assert set(resp) == (
            {"status", "metrics", "recent_traces", "answer_cache",
             "prometheus"} | V_KEYS
        )
        assert resp["status"] == "ok"
        # no registry installed: empty-but-well-typed payloads
        assert resp["metrics"] == {}
        assert isinstance(resp["recent_traces"], list)
        assert resp["prometheus"] == ""
        assert set(resp["answer_cache"]) >= {"entries", "hits", "misses"}

    def test_metrics_with_registry(self, small_public_private):
        from repro.obs import MetricsRegistry

        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2, registry=MetricsRegistry())
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        svc.execute(_query("blinks"))
        resp = svc.execute({"op": "metrics"})
        assert set(resp["metrics"]) == {"counters", "gauges", "histograms"}
        assert "ppkws_requests_total" in resp["metrics"]["counters"]
        assert "# TYPE ppkws_requests_total counter" in resp["prometheus"]


class TestHelpOpShape:
    def test_help_catalogue(self, service):
        resp = service.execute({"op": "help"})
        assert set(resp) == (
            {"status", "protocol", "ops", "global_fields", "error_codes"}
            | V_KEYS
        )
        assert resp["protocol"] == PROTOCOL_VERSION
        assert resp["error_codes"] == list(ERROR_CODES)
        for op, entry in resp["ops"].items():
            assert set(entry) == {
                "summary", "required", "optional", "mode", "cacheable"
            }, op
        assert resp["ops"]["blinks"]["mode"] == "read"
        assert resp["ops"]["blinks"]["cacheable"] is True
        assert resp["ops"]["attach"]["mode"] == "admin"
        assert resp["ops"]["metrics"]["mode"] == "control"
        assert set(resp["ops"]) == {
            "blinks", "rclique", "banks", "knk", "knk_multi", "truss",
            "batch", "stats", "metrics", "help", "health",
            "create_network", "attach", "detach", "drop",
        }
        # Query ops are generated from the semantics registry: every
        # registered semantics appears, with its wire schema.
        from repro.core.engine import registered_semantics, semantics_spec

        for name in registered_semantics():
            entry = resp["ops"][name]
            spec = semantics_spec(name)
            assert entry["summary"] == spec.summary
            assert entry["required"] == list(spec.wire_required)
            assert entry["optional"] == (
                list(spec.wire_optional)
                + ["deadline_ms", "max_expansions"]
            )
            assert entry["mode"] == "read"
            assert entry["cacheable"] is True


class TestUnknownAndOverloadShapes:
    def test_unknown_op(self, service):
        resp = service.execute({"op": "explode"})
        assert set(resp) == ERROR_KEYS
        assert "unknown op" in resp["error"]
        assert resp["code"] == "bad_request"

    def test_overloaded_is_retryable(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2, max_in_flight=0)
        resp = svc.execute({"op": "stats", "network": "x"})
        assert set(resp) == ERROR_KEYS | {"retry_after_ms"}
        assert resp["retryable"] is True
        assert resp["code"] == "overloaded"
        assert 1.0 <= resp["retry_after_ms"] <= 5000.0

    def test_bad_protocol_version(self, service):
        # True == 1 and 1.0 == 1, but only the int 1 pins v1
        for version in (2, True, 1.0, "1"):
            resp = service.execute({"op": "stats", "network": "net", "v": version})
            assert set(resp) == ERROR_KEYS, version
            assert resp["code"] == "bad_request", version
            assert "protocol version" in resp["error"], version

    def test_pinned_protocol_version_accepted(self, service):
        resp = service.execute({"op": "stats", "network": "net", "v": 1})
        assert resp["status"] == "ok"
