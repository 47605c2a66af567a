"""Edge cases of the process-wide semantics registry.

The registry is the extension seam of the whole engine refactor: a bad
plugin must fail loudly at registration time (not mid-query), an unknown
name must map to ``bad_request`` on the wire, and a *good* plugin must
surface in ``help`` and as a wire op without the service changing.
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    SemanticsSpec,
    StepSpec,
    register_semantics,
    registered_semantics,
    semantics_spec,
    unregister_semantics,
)
from repro.core.framework import QueryResult, query_model_m1, query_model_m2
from repro.exceptions import QueryError
from repro.service import PPKWSService

BUILTINS = ("banks", "blinks", "knk", "knk_multi", "rclique", "truss")


def make_spec(name, steps=None):
    """A minimal structurally valid spec (answers = the params echo)."""

    def _step(ctx):
        ctx.answers = [ctx.params["echo"]]

    return SemanticsSpec(
        name=name,
        summary=f"test semantics {name}",
        steps=steps if steps is not None else (StepSpec("peval", _step),),
        validate=lambda ctx: None,
        init=lambda ctx: None,
        salvage=lambda ctx, step: [],
        count_answers=len,
        result_type=QueryResult,
        wire_required=("network", "owner", "echo"),
        wire_optional=(),
        wire_params=lambda req: {"echo": req["echo"]},
        wire_payload=lambda res: {"answers": list(res.answers)},
        wire_cache_params=lambda req: (req["echo"],),
    )


@pytest.fixture
def scratch_registry():
    """Roll back any names a test registers on top of the builtins."""
    before = set(registered_semantics())
    yield
    for name in set(registered_semantics()) - before:
        unregister_semantics(name)


class TestRegistration:
    def test_builtins_are_registered_sorted(self):
        assert registered_semantics() == BUILTINS

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate semantics 'blinks'"):
            register_semantics(make_spec("blinks"))

    def test_spec_without_steps_rejected(self):
        with pytest.raises(ValueError, match="declares no steps"):
            register_semantics(make_spec("stepless", steps=()))

    def test_unnamed_step_rejected(self):
        bad = (StepSpec("", lambda ctx: None),)
        with pytest.raises(ValueError, match="unnamed step"):
            register_semantics(make_spec("anon-step", steps=bad))

    def test_step_missing_run_callable_rejected(self):
        bad = (StepSpec("peval", None),)  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="missing its run callable"):
            register_semantics(make_spec("no-run", steps=bad))

    def test_duplicate_step_names_rejected(self):
        bad = (
            StepSpec("peval", lambda ctx: None),
            StepSpec("peval", lambda ctx: None),
        )
        with pytest.raises(ValueError, match="declares step 'peval' twice"):
            register_semantics(make_spec("twice", steps=bad))

    def test_failed_registration_leaves_registry_untouched(self):
        with pytest.raises(ValueError):
            register_semantics(make_spec("ghost", steps=()))
        assert "ghost" not in registered_semantics()


class TestLookup:
    def test_unknown_semantics_raises_query_error_listing_known(self):
        with pytest.raises(QueryError, match="unknown semantics 'nope'"):
            semantics_spec("nope")
        with pytest.raises(QueryError, match="blinks"):
            semantics_spec("nope")

    def test_unknown_semantics_on_wire_is_bad_request(self, small_public_private):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        resp = svc.execute({
            "op": "nope", "network": "net", "owner": "bob", "keywords": ["db"],
        })
        assert resp["status"] == "error"
        assert resp["code"] == "bad_request"
        assert "unknown op" in resp["error"]


class TestPluginOnTheWire:
    def test_registered_plugin_becomes_an_op(
        self, scratch_registry, small_public_private
    ):
        register_semantics(make_spec("echo_test"))
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)

        helped = svc.execute({"op": "help"})
        assert "echo_test" in helped["ops"]
        assert helped["ops"]["echo_test"]["required"] == [
            "network", "owner", "echo",
        ]

        resp = svc.execute({
            "op": "echo_test", "network": "net", "owner": "bob",
            "echo": "marco",
        })
        assert resp["status"] == "ok"
        assert resp["answers"] == ["marco"]

    def test_rolled_back_plugin_leaves_help_and_dispatch(
        self, small_public_private
    ):
        pub, priv = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        svc.attach_user("net", "bob", priv)
        req = {"op": "echo_gone", "network": "net", "owner": "bob", "echo": "m"}
        register_semantics(make_spec("echo_gone"))
        try:
            assert "echo_gone" in svc.execute({"op": "help"})["ops"]
            assert svc.execute(req)["status"] == "ok"  # the op table is built
        finally:
            unregister_semantics("echo_gone")
        assert registered_semantics() == BUILTINS
        assert "echo_gone" not in svc.execute({"op": "help"})["ops"]
        resp = svc.execute(req)
        assert resp["code"] == "bad_request"
        assert "unknown op 'echo_gone'" in resp["error"]
        with pytest.raises(KeyError):
            unregister_semantics("echo_gone")

    def test_plugin_colliding_with_static_op_fails_loudly(
        self, scratch_registry, small_public_private
    ):
        register_semantics(make_spec("help"))
        pub, _ = small_public_private
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", pub)
        # execute() never raises: the collision surfaces as an internal
        # error on every request until the offending plugin is removed.
        resp = svc.execute({"op": "help"})
        assert resp["status"] == "error"
        assert resp["code"] == "internal"
        assert "collides with a built-in op" in resp["error"]


class TestQueryModelDispatch:
    def _toy_spec(self):
        def _step(ctx):
            ctx.answers = []

        return SemanticsSpec(
            name="toy_baseline",
            summary="test semantics with single-graph baselines",
            steps=(StepSpec("peval", _step),),
            validate=lambda ctx: None,
            init=lambda ctx: None,
            salvage=lambda ctx, step: [],
            count_answers=len,
            result_type=QueryResult,
            wire_required=("network", "owner"),
            wire_optional=(),
            wire_params=lambda req: {},
            wire_payload=lambda res: {},
            wire_cache_params=lambda req: (),
            baseline_m1=lambda g, keywords, tau, k: [
                ("m1", g.name, tuple(keywords), tau, k)
            ],
            baseline_m2=lambda g, keywords, tau, k: [],
        )

    def test_builtin_m1_m2_still_work(self, small_public_private):
        pub, priv = small_public_private
        pub_answers, priv_answers = query_model_m1(
            pub, priv, "blinks", ["db"], 5.0, k=3
        )
        assert isinstance(pub_answers, list)
        assert isinstance(priv_answers, list)
        answers = query_model_m2(pub, priv, "rclique", ["db"], 5.0, k=3)
        assert isinstance(answers, list)

    def test_plugin_baselines_are_dispatched(
        self, scratch_registry, small_public_private
    ):
        register_semantics(self._toy_spec())
        pub, priv = small_public_private
        pub_answers, priv_answers = query_model_m1(
            pub, priv, "toy_baseline", ["db", "x"], 3.0, k=7
        )
        assert pub_answers == [("m1", pub.name, ("db", "x"), 3.0, 7)]
        assert priv_answers == [("m1", priv.name, ("db", "x"), 3.0, 7)]
        assert query_model_m2(
            pub, priv, "toy_baseline", ["db"], 3.0, k=7
        ) == []

    def test_semantics_without_baseline_raise(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError, match="does not support query model"):
            query_model_m1(pub, priv, "knk", ["a"], 4.0)
        with pytest.raises(QueryError, match="does not support query model"):
            query_model_m2(pub, priv, "knk", ["a"], 4.0)

    def test_unknown_semantics_raise(self, small_public_private):
        pub, priv = small_public_private
        with pytest.raises(QueryError, match="unknown semantics"):
            query_model_m1(pub, priv, "nope", ["a"], 4.0)
