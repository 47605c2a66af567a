"""Tests for the embeddable service facade."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ReproError
from repro.service import PPKWSService


@pytest.fixture
def service(small_public_private):
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=4)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


class TestAdministration:
    def test_create_and_list(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("a", pub)
        assert svc.networks() == ["a"]

    def test_duplicate_network_rejected(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("a", pub)
        with pytest.raises(ReproError):
            svc.create_network("a", pub)

    def test_drop_network(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("a", pub)
        svc.drop_network("a")
        assert svc.networks() == []
        with pytest.raises(ReproError):
            svc.drop_network("a")

    def test_attach_returns_portal_count(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("a", pub)
        assert svc.attach_user("a", "bob", priv) == 2
        svc.detach_user("a", "bob")


class TestExecute:
    def test_blinks_request(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "k": 3,
        })
        assert resp["status"] == "ok"
        assert resp["answers"]
        answer = resp["answers"][0]
        assert set(answer["matches"]) == {"db", "ai"}
        assert "peval" in resp["breakdown"]

    def test_rclique_request(self, service):
        resp = service.execute({
            "op": "rclique", "network": "net", "owner": "bob",
            "keywords": ["db", "cv"], "tau": 6.0,
        })
        assert resp["status"] == "ok"

    def test_banks_request_includes_tree(self, service):
        resp = service.execute({
            "op": "banks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0,
        })
        assert resp["status"] == "ok"
        assert any("tree_edges" in a for a in resp["answers"])

    def test_knk_request(self, service):
        resp = service.execute({
            "op": "knk", "network": "net", "owner": "bob",
            "source": "x1", "keyword": "cv", "k": 3,
        })
        assert resp["status"] == "ok"
        assert resp["answer"]["matches"]

    def test_knk_multi_request(self, service):
        resp = service.execute({
            "op": "knk_multi", "network": "net", "owner": "bob",
            "source": "x1", "keywords": ["db", "ai"], "mode": "or", "k": 4,
        })
        assert resp["status"] == "ok"
        assert resp["answer"]["keyword"] == "db|ai"

    def test_stats_request(self, service):
        resp = service.execute({"op": "stats", "network": "net", "owner": "bob"})
        assert resp["status"] == "ok"
        assert resp["attachment"]["portals"] == 2
        assert resp["owners"] == ["bob"]

    def test_stats_without_owner(self, service):
        resp = service.execute({"op": "stats", "network": "net"})
        assert resp["status"] == "ok"
        assert "attachment" not in resp


class TestExecuteAdminOps:
    def test_full_lifecycle_through_execute(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({"op": "create_network", "network": "n", "public": pub})
        assert resp["status"] == "ok"
        resp = svc.execute({"op": "attach", "network": "n", "owner": "bob",
                            "private": priv})
        assert resp == {"status": "ok", "owner": "bob", "portals": 2, "v": 1}
        resp = svc.execute({"op": "blinks", "network": "n", "owner": "bob",
                            "keywords": ["db", "ai"], "tau": 4.0})
        assert resp["status"] == "ok" and resp["answers"]
        assert svc.execute({"op": "detach", "network": "n",
                            "owner": "bob"})["status"] == "ok"
        assert svc.execute({"op": "drop", "network": "n"})["status"] == "ok"
        assert svc.networks() == []

    def test_create_network_from_wire_edges(self):
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": [[0, 1], [1, 2, 2.5]],
            "public_labels": {2: ["t"]},
        })
        assert resp["status"] == "ok"
        resp = svc.execute({"op": "attach", "network": "n", "owner": "u",
                            "private_edges": [[0, "x"]],
                            "private_labels": {"x": ["s"]}})
        assert resp["status"] == "ok" and resp["portals"] == 1
        resp = svc.execute({"op": "knk", "network": "n", "owner": "u",
                            "source": "x", "keyword": "t", "k": 1})
        assert resp["status"] == "ok"
        assert resp["answer"]["matches"][0]["vertex"] == 2

    def test_malformed_edge_payload(self):
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({"op": "create_network", "network": "n",
                            "public_edges": [[0, 1, 2, 3]]})
        assert resp["status"] == "error"
        assert "public_edges" in resp["error"]
        resp = svc.execute({"op": "create_network", "network": "n",
                            "public": "not a graph"})
        assert resp["status"] == "error"

    @pytest.mark.parametrize("payload, names", [
        ({"private_edges": [["a", "z", "1"]]}, "private_edges"),
        ({"private_edges": [["a", "z", float("nan")]]}, "private_edges"),
        ({"private_edges": [["a", "z", float("inf")]]}, "private_edges"),
        ({"private_edges": [["a", "z", 0]]}, "private_edges"),
        ({"private_edges": [["a", "z", True]]}, "private_edges"),
        ({"private_edges": [["a", ["z"]]]}, "private_edges"),
        ({"private_edges": "az"}, "private_edges"),
        ({"private_edges": [["a", "z"]], "private_labels": [["z", "q"]]},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": {"z": "qq"}},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": {"z": [["q"]]}},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": {"z": [7]}},
         "private_labels"),
        # falsy is not absent: only a missing field or null means no labels
        ({"private_edges": [["a", "z"]], "private_labels": False},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": ""},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": 0},
         "private_labels"),
        ({"private_edges": [["a", "z"]], "private_labels": []},
         "private_labels"),
    ])
    def test_wire_graphs_are_validated_not_trusted(self, payload, names):
        """A malformed wire graph is the caller's error, named by field,
        and leaves the network, the owner and the answer cache alone."""
        svc = PPKWSService(sketch_k=2)
        assert svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": [["a", "b"], ["b", "c"], ["c", "d", 2.5]],
            "public_labels": {"d": ["t"]},
        })["status"] == "ok"
        assert svc.execute({
            "op": "attach", "network": "n", "owner": "other",
            "private_edges": [["a", "y"]],
        })["status"] == "ok"
        query = {"op": "knk", "network": "n", "owner": "other",
                 "source": "y", "keyword": "t", "k": 1}
        first = svc.execute(query)
        before = svc.execute({"op": "stats", "network": "n"})

        resp = svc.execute(
            {"op": "attach", "network": "n", "owner": "u", **payload}
        )
        assert resp["status"] == "error" and resp["code"] == "bad_request"
        assert names in resp["error"]
        assert svc.execute({"op": "stats", "network": "n"}) == before
        assert svc.execute(
            {"op": "knk", "network": "n", "owner": "u", "source": "a",
             "keyword": "t", "k": 1}
        )["code"] == "unknown_owner"
        # the other owner's answer is still there, and still a cache hit
        assert svc.execute(query) == {**first, "cached": True}

        # the same function guards create_network
        public = {k.replace("private", "public"): v for k, v in payload.items()}
        resp = svc.execute({"op": "create_network", "network": "m", **public})
        assert resp["status"] == "error" and resp["code"] == "bad_request"
        assert names.replace("private", "public") in resp["error"]
        assert svc.networks() == ["n"]

    def test_duplicate_create_via_execute(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.execute({"op": "create_network", "network": "n", "public": pub})
        resp = svc.execute({"op": "create_network", "network": "n", "public": pub})
        assert resp["status"] == "error"
        assert resp["retryable"] is False


class TestDeadlinesAndDegradation:
    def test_degraded_response_shape(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "deadline_ms": 0,
        })
        assert resp["status"] == "degraded"
        assert resp["completed_steps"] == []
        assert resp["interrupted_step"] == "peval"
        assert "answers" in resp and "breakdown" in resp

    def test_degraded_knk(self, service):
        resp = service.execute({
            "op": "knk", "network": "net", "owner": "bob",
            "source": "x1", "keyword": "cv", "deadline_ms": 0,
        })
        assert resp["status"] == "degraded"
        assert "answer" in resp

    def test_generous_deadline_is_ok(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0,
            "deadline_ms": 1e9, "max_expansions": 10**9,
        })
        assert resp["status"] == "ok"
        assert "completed_steps" not in resp

    def test_max_expansions_degrades(self, service):
        resp = service.execute({
            "op": "rclique", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "max_expansions": 1,
        })
        assert resp["status"] == "degraded"

    @pytest.mark.parametrize("field,value", [
        ("max_expansions", float("inf")),
        ("max_expansions", float("nan")),
        ("max_expansions", "5"),
        ("max_expansions", True),
        ("max_expansions", 2.7),
        ("max_expansions", -1),
        ("deadline_ms", float("nan")),
        ("deadline_ms", "x"),
        ("deadline_ms", "10"),
        ("deadline_ms", True),
        ("deadline_ms", -1),
    ])
    @pytest.mark.parametrize("where", ["request", "batch", "batch_item"])
    @pytest.mark.parametrize("no_cache", [False, True])
    def test_malformed_budget_field_is_bad_request(
        self, service, field, value, where, no_cache
    ):
        knk = {"op": "knk", "source": "x1", "keyword": "cv"}
        if no_cache:
            knk["no_cache"] = True
        # An ok answer for the same key is already cached: budget fields
        # are not part of the key, so only validation can refuse it.
        warm = service.execute({"network": "net", "owner": "bob", "op": "knk",
                                "source": "x1", "keyword": "cv"})
        assert warm["status"] == "ok"
        before = service.answer_cache.stats()
        bad = {field: value}
        if where == "request":
            resp = service.execute(dict(knk, network="net", owner="bob", **bad))
        else:
            item = dict(knk, **bad) if where == "batch_item" else knk
            batch = {"op": "batch", "network": "net", "owner": "bob",
                     "queries": [item]}
            if where == "batch":
                batch.update(bad)
            resp = service.execute(batch)
            if where == "batch_item":
                assert resp["status"] == "ok"
                (resp,) = resp["results"]
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert repr(field) in resp["error"]
        assert service.answer_cache.stats() == before


class TestObservability:
    def test_degraded_request_is_fully_observable(self, service):
        """Acceptance: a degraded blinks request increments
        ``ppkws_requests_total{op="blinks",status="degraded"}``, records a
        latency histogram sample, and lands in the trace ring."""
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "deadline_ms": 0,
        })
        assert resp["status"] == "degraded"
        assert reg.value(
            "ppkws_requests_total",
            labels={"op": "blinks", "status": "degraded"},
        ) == 1.0
        hist = reg.histogram("ppkws_request_seconds", labels={"op": "blinks"})
        assert hist is not None and hist.count == 1
        traces = service.recent_traces()
        assert len(traces) == 1
        trace = traces[0]
        assert trace["op"] == "blinks" and trace["status"] == "degraded"
        assert trace["degraded"] is True
        assert trace["interrupted_step"] == "peval"
        assert trace["network"] == "net" and trace["owner"] == "bob"

    def test_broken_observer_is_counted_not_silent(self, service, monkeypatch):
        """Regression: observer failures were swallowed blind.  A request
        must still succeed, but the telemetry gap has to show up in
        ``ppkws_internal_errors_total{error="observer:..."}``."""
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg

        def broken_record(trace):
            raise ValueError("trace ring corrupted")

        monkeypatch.setattr(service._traces, "record", broken_record)
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "deadline_ms": 0,
        })
        assert resp["status"] == "degraded"  # the request is unaffected
        assert reg.value(
            "ppkws_internal_errors_total",
            labels={"error": "observer:ValueError"},
        ) == 1.0

    def test_ok_requests_counted_but_not_ringed(self, service):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0,
        })
        assert resp["status"] == "ok"
        assert reg.value(
            "ppkws_requests_total", labels={"op": "blinks", "status": "ok"}
        ) == 1.0
        assert service.recent_traces() == []  # fast + healthy: not ringed

    def test_slow_queries_are_ringed(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2, slow_query_ms=0.0)  # everything is slow
        svc.create_network("n", pub)
        svc.attach_user("n", "bob", priv)
        resp = svc.execute({"op": "stats", "network": "n"})
        assert resp["status"] == "ok"
        assert any(t["op"] == "stats" for t in svc.recent_traces())

    def test_error_requests_are_counted_and_ringed(self, service):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg
        service.execute({"op": "blinks", "network": "net", "owner": "bob"})
        assert reg.value(
            "ppkws_requests_total", labels={"op": "blinks", "status": "error"}
        ) == 1.0
        (trace,) = service.recent_traces()
        assert trace["status"] == "error"
        assert trace["error"] == "ReproError"

    def test_trace_flag_adds_counters_and_trace(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0, "max_expansions": 10**9,
            "trace": True,
        })
        assert resp["status"] == "ok"
        assert set(resp["counters"]) == {
            "partial_answers", "refinement_checks", "refinements_applied",
            "completion_lookups", "completion_cache_hits",
            "answers_pruned", "final_answers",
        }
        trace = resp["trace"]
        assert trace["op"] == "blinks"
        assert set(trace["step_ms"]) == {"peval", "arefine", "acomplete"}
        assert trace["expansions"] > 0  # budget object was threaded through
        assert trace["duration_ms"] >= 0.0

    def test_no_trace_fields_without_flag(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0,
        })
        assert "trace" not in resp and "counters" not in resp

    def test_metrics_op(self, service):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg
        service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "tau": 4.0,
        })
        resp = service.execute({"op": "metrics"})
        assert resp["status"] == "ok"
        assert "ppkws_requests_total" in resp["metrics"]["counters"]
        assert 'ppkws_requests_total{op="blinks",status="ok"} 1' in (
            resp["prometheus"]
        )
        assert resp["recent_traces"] == []

    def test_metrics_op_bypasses_admission_control(self, service):
        service._max_in_flight = 0
        assert service.execute({"op": "stats", "network": "net"})["status"] == "error"
        assert service.execute({"op": "metrics"})["status"] == "ok"

    def test_metrics_op_without_registry(self, service):
        resp = service.execute({"op": "metrics"})
        assert resp["status"] == "ok"
        assert resp["metrics"] == {}
        assert resp["prometheus"] == ""

    def test_installed_registry_is_picked_up(self, service):
        from repro import obs
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        obs.install(reg)
        try:
            service.execute({"op": "stats", "network": "net"})
        finally:
            obs.uninstall()
        assert reg.value(
            "ppkws_requests_total", labels={"op": "stats", "status": "ok"}
        ) == 1.0


class TestAdmissionControl:
    def test_saturated_service_is_retryable(self, service):
        service._max_in_flight = 0
        resp = service.execute({"op": "stats", "network": "net"})
        assert resp["status"] == "error"
        assert resp["retryable"] is True
        assert "overloaded" in resp["error"]

    def test_slot_released_after_request(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2, max_in_flight=1)
        svc.create_network("n", pub)
        for _ in range(3):  # sequential requests all fit in the one slot
            assert svc.execute({"op": "stats", "network": "n"})["status"] == "ok"

    def test_slot_released_after_error(self, small_public_private):
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2, max_in_flight=1)
        svc.create_network("n", pub)
        assert svc.execute({"op": "stats"})["status"] == "error"
        assert svc._in_flight == 0
        assert svc.execute({"op": "stats", "network": "n"})["status"] == "ok"

    def test_retry_hint_survives_cached_and_control_chatter(
        self, service, monkeypatch
    ):
        """Regression: cache hits and metrics/help chatter used to feed
        the retry_after_ms EWMA, dragging it to the 1ms clamp floor —
        an overloaded client was told to hammer a service whose cold
        queries took tens of milliseconds.  Only uncached query-class
        work may move the average now."""
        real = PPKWSService._semantics_query

        def slow(self, request, spec):
            time.sleep(0.025)
            return real(self, request, spec)

        monkeypatch.setattr(PPKWSService, "_semantics_query", slow)
        base = {
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db", "ai"], "k": 3,
        }
        for i in range(6):  # distinct params: all cold, all >= 25ms
            resp = service.execute(dict(base, tau=3.0 + 0.5 * i))
            assert resp["status"] == "ok"
            assert "cached" not in resp
        # Flood with the traffic classes that used to poison the hint:
        # sub-ms answer-cache hits and control-plane chatter.
        for _ in range(40):
            assert service.execute(dict(base, tau=3.0))["cached"] is True
            assert service.execute({"op": "help"})["status"] == "ok"
        service._max_in_flight = 0
        resp = service.execute(dict(base, tau=9.75))
        assert resp["code"] == "overloaded"
        assert resp["retry_after_ms"] >= 10.0


class TestIndexPersistenceErrors:
    def test_unwritable_index_path_is_an_error_response(
        self, small_public_private, tmp_path
    ):
        """Regression: ``save_index`` OSError used to escape ``execute``.

        A path whose parent is a *file* makes ``open(..., "w")`` raise
        ``NotADirectoryError`` (an ``OSError``), which the pre-fix facade
        did not catch — violating the "no library exception ever
        escapes" contract.
        """
        pub, _ = small_public_private
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        bad_path = str(blocker / "index.jsonl")
        svc = PPKWSService(sketch_k=2)
        resp = svc.execute({
            "op": "create_network", "network": "n",
            "public": pub, "index_path": bad_path,
        })
        assert resp["status"] == "error"
        assert resp["retryable"] is False
        assert "cannot save index" in resp["error"]
        # the failed create must not leave a half-registered network
        assert svc.networks() == []
        resp = svc.execute({"op": "create_network", "network": "n", "public": pub})
        assert resp["status"] == "ok"

    def test_unwritable_index_path_via_python_api_raises_repro_error(
        self, small_public_private, tmp_path
    ):
        pub, _ = small_public_private
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        svc = PPKWSService(sketch_k=2)
        with pytest.raises(ReproError):
            svc.create_network("n", pub, index_path=str(blocker / "idx"))
        assert svc.networks() == []


class TestInternalErrorFormatting:
    def test_bare_keyerror_is_not_serialized_as_quoted_key(
        self, service, monkeypatch
    ):
        """Regression: a bare ``KeyError('collab')`` used to serialize as
        ``"error": "'collab'"`` — engine internals, not a message."""
        engine = service._engine("net")
        def boom(*args, **kwargs):
            raise KeyError("collab")
        monkeypatch.setattr(engine, "attachment", boom)
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db"], "tau": 1.0,
        })
        assert resp["status"] == "error"
        assert resp["error"] == "KeyError: 'collab'"

    def test_internal_errors_carry_exception_class(self, service, monkeypatch):
        engine = service._engine("net")
        def boom(*args, **kwargs):
            raise ValueError("bad things")
        monkeypatch.setattr(engine, "attachment", boom)
        resp = service.execute({
            "op": "knk", "network": "net", "owner": "bob",
            "source": "x1", "keyword": "db",
        })
        assert resp["error"] == "ValueError: bad things"
        assert resp["retryable"] is False

    def test_internal_errors_counted(self, service, monkeypatch):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        service._registry = reg
        engine = service._engine("net")
        def boom(*args, **kwargs):
            raise KeyError("collab")
        monkeypatch.setattr(engine, "attachment", boom)
        service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": ["db"], "tau": 1.0,
        })
        assert reg.value(
            "ppkws_internal_errors_total", labels={"error": "KeyError"}
        ) == 1.0
        # ReproError-style caller mistakes are NOT internal errors
        service.execute({"op": "blinks", "network": "net", "owner": "bob"})
        assert reg.value(
            "ppkws_internal_errors_total", labels={"error": "ReproError"}
        ) == 0.0


class TestErrorHandling:
    def test_unknown_op(self, service):
        resp = service.execute({"op": "frobnicate"})
        assert resp["status"] == "error"
        assert "unknown op" in resp["error"]
        assert resp["retryable"] is False

    def test_missing_field_messages(self, service):
        resp = service.execute({"op": "blinks", "network": "net", "owner": "bob"})
        assert resp["error"] == "missing field 'keywords'"
        resp = service.execute({"op": "knk", "network": "net", "owner": "bob"})
        assert resp["error"] == "missing field 'source'"
        resp = service.execute({"op": "stats"})
        assert resp["error"] == "missing field 'network'"
        resp = service.execute({"op": "attach", "network": "net"})
        assert resp["error"] == "missing field 'owner'"

    def test_unknown_network(self, service):
        resp = service.execute({
            "op": "blinks", "network": "nope", "owner": "bob",
            "keywords": ["db"], "tau": 1.0,
        })
        assert resp["status"] == "error"

    def test_unknown_owner(self, service):
        resp = service.execute({
            "op": "knk", "network": "net", "owner": "nobody",
            "source": "x1", "keyword": "db",
        })
        assert resp["status"] == "error"

    def test_missing_fields(self, service):
        resp = service.execute({"op": "blinks", "network": "net"})
        assert resp["status"] == "error"

    def test_invalid_query_parameters(self, service):
        resp = service.execute({
            "op": "blinks", "network": "net", "owner": "bob",
            "keywords": [], "tau": 4.0,
        })
        assert resp["status"] == "error"

    def test_no_exception_escapes(self, service):
        # a fuzz-ish batch of malformed requests
        bad_requests = [
            {},
            {"op": None},
            {"op": "knk", "network": "net", "owner": "bob"},
            {"op": "rclique", "network": "net", "owner": "bob",
             "keywords": ["db"], "tau": "not-a-number"},
            {"op": "knk", "network": "net", "owner": "bob",
             "source": "ghost", "keyword": "db"},
        ]
        for request in bad_requests:
            resp = service.execute(request)
            assert resp["status"] == "error", request
