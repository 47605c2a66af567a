"""The answer cache's wire-shape copier: snapshot on store, clone on hit.

``AnswerCache`` no longer deep-copies.  What keeps "no caller can
corrupt a cached entry" true is a shape contract — exact ``dict`` /
``list`` containers over immutable atoms — enforced once on insert
(``_wire_snapshot``) and relied on by every hit (``_wire_clone``).
The snapshot records each container's shape in its own type (a dict of
atoms stays an exact ``dict``; a list or dict of those, and any other
dict, get private tags), and a hit copies rows of atoms in C.  These
tests pin both halves against ``copy.deepcopy`` as the reference: equal
trees, *no* shared container, *every* atom shared (that sharing is what
holds the benchmark's ``peak_rss_mb``), a tag only where its shape holds
and never on a hit, and a refusal — answered, uncached, warned — for any
payload outside the contract.
"""

from __future__ import annotations

import copy
import json
import os
import random
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator, List

import pytest

from repro.core.engine import register_semantics
from repro.core.framework import PPKWS
from repro.serving import AnswerCache
from repro.serving.cache import _Nested, _Rows, _Table, _wire_clone, _wire_snapshot
from repro.service import PPKWSService
from tests.test_engine_registry import make_spec, scratch_registry  # noqa: F401
from tests.test_service_shapes import QUERY_OPS, _query

FIXTURE = Path(__file__).resolve().parent / "data" / "engine_equivalence.json"

# CI's semantics-matrix job re-runs this file per graph backend, so each
# cell's built-in payloads go through the cache.
_FREEZE = os.environ.get("REPRO_ENGINE_BACKEND", "frozen") != "dict"


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


def _children(node: Any) -> List[Any]:
    return list(node.values()) if isinstance(node, dict) else list(node)


def _is_container(node: Any) -> bool:
    """A ``dict`` / ``list``, or one of the snapshot's tags."""
    return isinstance(node, (dict, list)) or type(node) is _Rows


def _containers(node: Any) -> Iterator[Any]:
    if _is_container(node):
        yield node
        for child in _children(node):
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


def _assert_snapshot_mirrors(original: Any, snap: Any) -> None:
    """Same tree in new containers of the same kind, each keeping the
    promise its type makes; every atom the very object the original holds."""
    if type(original) is dict:
        assert snap is not original
        assert type(snap) in (dict, _Table, _Nested)
        assert list(snap) == list(original)
        assert all(k1 is k2 for k1, k2 in zip(original, snap))
    elif type(original) is list:
        assert snap is not original
        assert type(snap) in (list, _Rows)
        assert len(snap) == len(original)
    else:
        assert snap is original
        return
    children = _children(snap)
    if type(snap) is dict:  # atoms only
        assert not any(map(_is_container, children))
    if type(snap) in (_Rows, _Table):  # dicts of atoms only
        assert all(type(c) is dict for c in children)
    for v1, v2 in zip(_children(original), children):
        _assert_snapshot_mirrors(v1, v2)


def _kinds(snap: Any) -> List[str]:
    """The container types of a snapshot, depth first."""
    return [type(c).__name__ for c in _containers(snap)]


def _scribble(tree: Any) -> None:
    """Overwrite every container of ``tree`` in place."""
    for container in list(_containers(tree)):
        if type(container) is dict:
            container.clear()
            container["scribbled"] = True
        else:
            container[:] = ["scribbled"]


#: name -> (stored value, the snapshot's container types depth first)
SHAPES = {
    "empty_list": ([], ["_Rows"]),
    "empty_dict": ({}, ["dict"]),
    "rows": ([{"v": 1, "d": 2.0}, {"v": "x", "d": None}], ["_Rows", "dict", "dict"]),
    "rows_with_one_nested_member": (
        [{"v": 1}, {"v": {"w": 2}}, {"v": 3}],
        ["list", "dict", "_Table", "dict", "dict"],
    ),
    "rows_with_one_list_member": (
        [{"v": 1}, {"v": [2]}], ["list", "dict", "_Nested", "list"],
    ),
    "rows_and_an_atom": ([{"v": 1}, 2], ["list", "dict"]),
    "table": ({"a": {"v": 1}, "b": {}}, ["_Table", "dict", "dict"]),
    "table_plus_one_atom": ({"a": {"v": 1}, "n": 3}, ["_Nested", "dict"]),
    "table_plus_one_row_list": (
        {"a": {"v": 1}, "b": [{"v": 2}]}, ["_Nested", "dict", "_Rows", "dict"],
    ),
    "tagged_under_untagged": (
        {
            "status": "ok",
            "answer": {"keyword": "t", "matches": [{"vertex": "a", "distance": 1.0}]},
            "answers": [{"root": "r", "matches": {"q": {"vertex": "b"}}}],
        },
        ["_Nested", "_Nested", "_Rows", "dict", "list", "_Nested", "_Table", "dict"],
    ),
    "tuples_of_atoms": (
        {"e": [("a", 1), ("b", (2.5, None))], "t": ()}, ["_Nested", "list"],
    ),
    "tuple_top_level": (("a", 1, (None,)), []),
    "atom_top_level": ("atom", []),
    "none_top_level": (None, []),
}


class TestCopiersEqualDeepcopy:
    def test_snapshot_mirrors_the_tree_with_tags_only_where_the_shape_holds(
        self,
    ):
        for tree in _trees():
            reference = copy.deepcopy(tree)
            snap = _wire_snapshot(tree)
            _assert_snapshot_mirrors(tree, snap)
            # the size guard: a tag replaces a container, it adds none
            assert sum(1 for _ in _containers(snap)) == sum(
                1 for _ in _containers(tree)
            )
            assert tree == reference  # the source is left untouched

    def test_equal_trees_private_containers_shared_atoms(self):
        """The clone half; the snapshot half is the test above."""
        for tree in _trees():
            reference = copy.deepcopy(tree)
            snap = _wire_snapshot(tree)
            for _ in range(2):
                copied = _wire_clone(snap)
                assert copied == reference
                _assert_private_containers_shared_atoms(tree, copied)
                assert not set(map(id, _containers(copied))) & set(
                    map(id, _containers(snap))
                )

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shape(self, name):
        tree, kinds = SHAPES[name]
        reference = copy.deepcopy(tree)
        snap = _wire_snapshot(tree)
        assert _kinds(snap) == kinds
        _assert_snapshot_mirrors(tree, snap)
        hit = _wire_clone(snap)
        assert hit == reference
        _assert_private_containers_shared_atoms(tree, hit)
        _scribble(hit)
        assert _wire_clone(snap) == reference

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
    svc.adopt_network("net", PPKWS(pub, sketch_k=2, freeze=_FREEZE))
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
        hit = cache.lookup("k", 0)
        assert hit == cold
        _assert_private_containers_shared_atoms(cold, hit)
        snap = _wire_snapshot(cold)
        _assert_snapshot_mirrors(cold, snap)
        # the two uniform shapes every k-nk / rooted payload carries
        if op in ("knk", "knk_multi"):
            assert type(snap["answer"]["matches"]) is _Rows
        elif op != "truss":
            assert cold["answers"]
            assert all(type(a["matches"]) is _Table for a in snap["answers"])
        # and through the service: the repeat is a hit
        service.execute(req)
        assert service.execute(req)["cached"] is True
