"""The answer cache's wire-shape copier: snapshot on store, clone on hit.

``AnswerCache`` no longer deep-copies.  What keeps "no caller can
corrupt a cached entry" true is a shape contract — exact ``dict`` /
``list`` containers over immutable atoms — enforced once on insert
(``_wire_snapshot``) and relied on by every hit (``_wire_clone``).
These tests pin both halves against ``copy.deepcopy`` as the reference:
equal trees, *no* shared container, *every* atom shared (that sharing is
what holds the benchmark's ``peak_rss_mb``), and a refusal — answered,
uncached, warned — for any payload outside the contract.
"""

from __future__ import annotations

import copy
import json
import random
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator, List

import pytest

from repro.core.engine import register_semantics
from repro.serving import AnswerCache
from repro.serving.cache import _wire_clone, _wire_snapshot
from repro.service import PPKWSService
from tests.test_engine_registry import make_spec, scratch_registry  # noqa: F401
from tests.test_service_shapes import QUERY_OPS, _query

FIXTURE = Path(__file__).resolve().parent / "data" / "engine_equivalence.json"


def _fixture_responses() -> List[Any]:
    """Every ``result`` record of the engine-equivalence fixture."""
    found: List[Any] = []

    def walk(node: Any) -> None:
        if isinstance(node, dict):
            if "result" in node:
                found.append(node["result"])
            for child in node.values():
                walk(child)
        elif isinstance(node, list):
            for child in node:
                walk(child)

    walk(json.loads(FIXTURE.read_text(encoding="utf-8")))
    assert found
    return found


def _random_tree(rng: random.Random, depth: int = 0) -> Any:
    """A seeded JSON-shaped tree (plus tuples of atoms as leaves)."""
    roll = rng.random()
    if depth < 4 and roll < 0.3:
        return {
            rng.choice(("k", 7, None, "key")) if rng.random() < 0.2
            else f"k{i}": _random_tree(rng, depth + 1)
            for i in range(rng.randrange(5))
        }
    if depth < 4 and roll < 0.55:
        return [_random_tree(rng, depth + 1) for _ in range(rng.randrange(5))]
    return rng.choice((
        None, True, False, rng.randrange(-10**12, 10**12), rng.random() * 1e6,
        "s" * rng.randrange(4) + str(rng.random()), float("inf"),
        ("t", rng.randrange(1000), (1.5, None)), (),
    ))


def _trees() -> List[Any]:
    rng = random.Random(20241001)
    return _fixture_responses() + [
        {"status": "ok", "payload": _random_tree(rng)} for _ in range(200)
    ] + [_random_tree(rng) for _ in range(100)]


def _containers(node: Any) -> Iterator[Any]:
    if type(node) in (dict, list):
        yield node
        for child in (node.values() if type(node) is dict else node):
            yield from _containers(child)


def _assert_private_containers_shared_atoms(original: Any, copied: Any) -> None:
    """Same tree; every container a new object, every atom the same one."""
    assert type(copied) is type(original)
    if type(original) is dict:
        assert copied is not original
        assert list(copied) == list(original)
        for (k1, v1), (k2, v2) in zip(original.items(), copied.items()):
            assert k1 is k2
            _assert_private_containers_shared_atoms(v1, v2)
    elif type(original) is list:
        assert copied is not original
        assert len(copied) == len(original)
        for v1, v2 in zip(original, copied):
            _assert_private_containers_shared_atoms(v1, v2)
    else:
        assert copied is original


def _scribble(tree: Any) -> None:
    """Overwrite every container of ``tree`` in place."""
    for container in list(_containers(tree)):
        if type(container) is dict:
            container.clear()
            container["scribbled"] = True
        else:
            container[:] = ["scribbled"]


class TestCopiersEqualDeepcopy:
    @pytest.mark.parametrize("copier", [_wire_snapshot, _wire_clone])
    def test_equal_trees_private_containers_shared_atoms(self, copier):
        for tree in _trees():
            reference = copy.deepcopy(tree)
            copied = copier(tree)
            assert copied == reference
            _assert_private_containers_shared_atoms(tree, copied)
            assert tree == reference  # the source is left untouched

    def test_scribbling_on_a_hit_or_on_the_stored_value_never_reaches_the_entry(
        self,
    ):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        for tree in _trees():
            reference = copy.deepcopy(tree)
            cache.store("k", 0, tree)
            _scribble(tree)  # the caller's own object after store
            for _ in range(2):
                hit = cache.lookup("k", 0)
                assert hit == reference
                _scribble(hit)
            assert cache.lookup("k", 0) == reference


class _Opaque:
    pass


class _DictSubclass(dict):
    pass


class _ListSubclass(list):
    pass


#: factories of payload values outside the wire-shape contract
REFUSED = {
    "set": lambda: {1, 2},
    "frozenset": lambda: frozenset({1}),
    "dict_subclass": lambda: _DictSubclass(a=1),
    "ordered_dict": lambda: OrderedDict(a=1),
    "list_subclass": lambda: _ListSubclass([1]),
    "object": _Opaque,
    "bytearray": lambda: bytearray(b"x"),
    "tuple_holding_a_list": lambda: (1, [2]),
    "object_as_dict_key": lambda: {_Opaque(): 1},
    "tuple_as_dict_key": lambda: {("a", 1): 1},
    "int_subclass": lambda: type("I", (int,), {})(3),
}


class TestRefusal:
    @pytest.mark.parametrize("kind", sorted(REFUSED))
    def test_snapshot_refuses_and_nothing_is_stored(self, kind):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        for wrap in (lambda v: v, lambda v: {"answers": [{"deep": v}]}):
            with pytest.raises(TypeError, match="uncacheable"):
                cache.store("k", 0, wrap(REFUSED[kind]()))
        assert len(cache) == 0
        assert cache.lookup("k", 0) is None

    def test_refused_restore_keeps_the_previous_entry(self):
        cache = AnswerCache(max_entries=4, ttl_s=None)
        cache.store("k", 0, {"n": 1})
        with pytest.raises(TypeError):
            cache.store("k", 0, {"n": {2}})
        assert cache.lookup("k", 0) == {"n": 1}


@pytest.fixture
def service(small_public_private) -> PPKWSService:
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


class TestServiceServesUncacheablePayloads:
    """A plugin whose ``wire_payload`` leaves the contract still answers."""

    WARNING = "answer cache store failed; response not cached"

    @pytest.fixture(params=("set", "dict_subclass", "object"))
    def op(self, request, scratch_registry):  # noqa: F811
        name = f"uncacheable_{request.param}"
        bad = REFUSED[request.param]
        register_semantics(replace(
            make_spec(name),
            wire_payload=lambda res: {"answers": list(res.answers), "x": bad()},
        ))
        return name

    def test_execute_answers_ok_uncached_with_the_warning(self, service, op):
        req = {"op": op, "network": "net", "owner": "bob", "echo": "marco"}
        for _ in range(2):  # the repeat is a miss again, never a hit
            resp = service.execute(req)
            assert resp["status"] == "ok"
            assert resp["answers"] == ["marco"]
            assert "cached" not in resp
            assert resp["warnings"] == [self.WARNING]
        stats = service.answer_cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 2)

    def test_batch_items_answer_ok_uncached_with_the_warning(self, service, op):
        req = {
            "op": "batch", "network": "net", "owner": "bob",
            "queries": [
                {"op": op, "echo": "marco"},
                {"op": "knk", "source": "x1", "keyword": "cv", "k": 2},
            ],
        }
        for repeat in range(2):
            resp = service.execute(req)
            bad_item, good_item = resp["results"]
            assert bad_item["status"] == "ok"
            assert bad_item["answers"] == ["marco"]
            assert bad_item["cached"] is False
            assert good_item["cached"] is bool(repeat)
            assert resp["warnings"] == [f"queries[0]: {self.WARNING}"]


class TestBuiltinPayloadsAreCacheable:
    @pytest.mark.parametrize("op", QUERY_OPS + ("truss",))
    def test_every_builtin_ok_payload_passes_store(self, service, op):
        req = (
            {"op": "truss", "network": "net", "owner": "bob", "k": 2}
            if op == "truss" else _query(op)
        )
        cold = service.execute(dict(req, no_cache=True))
        assert cold["status"] == "ok"
        assert "warnings" not in cold
        cache = AnswerCache(max_entries=2, ttl_s=None)
        cache.store("k", 0, cold)  # raises TypeError if not wire-shaped
        assert cache.lookup("k", 0) == cold
        # and through the service: the repeat is a hit
        service.execute(req)
        assert service.execute(req)["cached"] is True
