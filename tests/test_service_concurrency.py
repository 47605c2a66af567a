"""Threaded stress tests for the service registry and attachment maps.

Regression suite for the concurrency half of the facade's contract: the
service advertises ``max_in_flight`` *concurrent* requests, so its
registry (``create_network`` / ``drop``) and the per-engine attachment
maps (``attach`` / ``detach``) must behave under parallel admin + query
traffic.  Pre-fix failure modes pinned here:

* two concurrent creates of the same name both passed the unlocked
  ``name in self._engines`` check and both reported ``"ok"``;
* two concurrent attaches of the same owner likewise;
* ``owners()`` / ``stats`` iterating the attachment dict while another
  thread attached/detached raised ``RuntimeError: dictionary changed
  size during iteration``, which escaped ``execute``.

CI runs this file under ``pytest-timeout`` so a registry deadlock fails
fast instead of hanging the job (the ``timeout`` marker is a no-op when
the plugin is absent).
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List

import pytest

import repro.core.framework as framework_mod
import repro.portals.keyword_map as keyword_map
import repro.service as service_mod
from repro import PPKWS
from repro.service import PPKWSService


@pytest.fixture
def slow_index_build(monkeypatch):
    """Widen the create_network check-then-act window deterministically.

    The registry race only manifests when the (normally multi-ms) index
    build overlaps across threads; the test graphs build faster than one
    GIL slice, so sleep inside the build path the bug flows through.
    """
    real_freeze = service_mod.freeze

    def slow_freeze(graph):
        time.sleep(0.05)
        return real_freeze(graph)

    monkeypatch.setattr(service_mod, "freeze", slow_freeze)


@pytest.fixture
def slow_attach(monkeypatch):
    """Widen the attach check-then-act window (portal discovery leg)."""
    real_portals = framework_mod.portal_nodes

    def slow_portals(public, private):
        time.sleep(0.05)
        return real_portals(public, private)

    monkeypatch.setattr(framework_mod, "portal_nodes", slow_portals)

# One small wire-format graph, cheap enough to index dozens of times.
PUBLIC_EDGES = [[0, 1], [1, 2], [2, 3], [3, 0], [1, 3]]
PUBLIC_LABELS = {0: ["db"], 2: ["ai"]}
PRIVATE_EDGES = [[2, "p1"], ["p1", "p2"]]
PRIVATE_LABELS = {"p2": ["ml"]}


def _run_threads(n: int, fn) -> List[Any]:
    """Run ``fn(i)`` on ``n`` threads after a common barrier; re-raise."""
    barrier = threading.Barrier(n)
    results: List[Any] = [None] * n
    errors: List[BaseException] = []

    def runner(i: int) -> None:
        try:
            barrier.wait()
            results[i] = fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


@pytest.mark.timeout(120)
class TestRegistryRaces:
    def test_concurrent_create_same_name_has_one_winner(self, slow_index_build):
        svc = PPKWSService(sketch_k=2)

        def create(_: int) -> Dict[str, Any]:
            return svc.execute({
                "op": "create_network", "network": "dup",
                "public_edges": PUBLIC_EDGES, "public_labels": PUBLIC_LABELS,
            })

        responses = _run_threads(8, create)
        statuses = [r["status"] for r in responses]
        assert statuses.count("ok") == 1, responses
        for r in responses:
            if r["status"] == "error":
                assert "dup" in r["error"]
        assert svc.networks() == ["dup"]
        # the surviving engine is fully usable
        assert svc.execute({"op": "stats", "network": "dup"})["status"] == "ok"

    def test_concurrent_create_distinct_names_all_win(self):
        svc = PPKWSService(sketch_k=2)

        def create(i: int) -> Dict[str, Any]:
            return svc.execute({
                "op": "create_network", "network": f"n{i}",
                "public_edges": PUBLIC_EDGES,
            })

        responses = _run_threads(6, create)
        assert all(r["status"] == "ok" for r in responses)
        assert svc.networks() == sorted(f"n{i}" for i in range(6))

    def test_concurrent_attach_same_owner_has_one_winner(self, slow_attach):
        svc = PPKWSService(sketch_k=2)
        svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": PUBLIC_EDGES, "public_labels": PUBLIC_LABELS,
        })

        def attach(_: int) -> Dict[str, Any]:
            return svc.execute({
                "op": "attach", "network": "n", "owner": "bob",
                "private_edges": PRIVATE_EDGES,
                "private_labels": PRIVATE_LABELS,
            })

        responses = _run_threads(8, attach)
        statuses = [r["status"] for r in responses]
        assert statuses.count("ok") == 1, responses
        stats = svc.execute({"op": "stats", "network": "n"})
        assert stats["owners"] == ["bob"]

    def test_first_touch_knk_row_kept_once(self, monkeypatch, small_public_private):
        """Eight first reads of one never-queried source race to sweep its
        row (each sweep sleeps first): all answer as a serial run does, and
        one row joins the two portals' rows that attach swept."""
        real = keyword_map.PrivateSweeps._sweep
        monkeypatch.setattr(keyword_map.PrivateSweeps, "_sweep", lambda *a: (
            time.sleep(0.05), real(*a))[1])
        services = [PPKWSService(sketch_k=2) for _ in range(2)]
        for svc in services:
            svc.create_network("n", small_public_private[0])
            svc.attach_user("n", "bob", small_public_private[1])
        keywords = ["db", "ai", "cv", "ml", "x1", "x", "y", "z"]

        def knk(svc: PPKWSService, i: int) -> Dict[str, Any]:
            return svc.execute({"op": "knk", "network": "n", "owner": "bob",
                                "source": "x2", "keyword": keywords[i]})

        raced = _run_threads(8, lambda i: knk(services[0], i))
        assert raced == [knk(services[1], i) for i in range(8)]
        assert sum(bool(r["answer"]["matches"]) for r in raced) >= 4
        assert len(services[0]._networks["n"].engine.attachment("bob").sweeps) == 3

    def test_first_touch_pkd_column_kept_once(self, monkeypatch, small_public_private):
        """Eight first reads of one keyword's PKD column race through Blinks
        and r-clique (each sleeps first): all answer as a serial run does."""
        pkd, reads = keyword_map.PortalKeywordDistanceMap, []
        monkeypatch.setattr(pkd, "_column", lambda *a, real=pkd._column: (
            reads.append(a[3]), time.sleep(0.05), real(*a))[2])
        services = [PPKWSService(sketch_k=2) for _ in range(2)]
        for svc in services:
            svc.create_network("n", small_public_private[0])
            svc.attach_user("n", "bob", small_public_private[1])

        def query(svc: PPKWSService, i: int) -> Dict[str, Any]:
            return svc.execute({"op": ("blinks", "rclique")[i % 2], "network": "n",
                                "owner": "bob", "keywords": ["cv", "db"], "tau": 3 + i})

        raced = _run_threads(8, lambda i: query(services[0], i))
        assert reads.count("cv") >= 2 and all(r["answers"] for r in raced)
        assert [r["answers"] for r in raced] == [
            query(services[1], i)["answers"] for i in range(8)]
        raced, serial = (s._networks["n"].engine.attachment("bob").oracle.pkd.items()
                         for s in services)
        assert raced == serial  # one entry per key, equal to the serial one


@pytest.mark.timeout(120)
class TestAdminChurnUnderQueries:
    def test_queries_survive_attach_detach_churn(self):
        """Queries + stats keep working while owners attach/detach.

        Every response must be a well-formed status dict; nothing may
        escape ``execute`` (pre-fix: ``RuntimeError`` from dict iteration
        during mutation, which is outside the caught exception set).
        """
        svc = PPKWSService(sketch_k=2)
        svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": PUBLIC_EDGES, "public_labels": PUBLIC_LABELS,
        })
        svc.execute({
            "op": "attach", "network": "n", "owner": "stable",
            "private_edges": PRIVATE_EDGES, "private_labels": PRIVATE_LABELS,
        })
        rounds = 60
        churners = 3
        queriers = 3

        def churn(i: int) -> List[Dict[str, Any]]:
            out = []
            owner = f"churn{i}"
            for _ in range(rounds):
                out.append(svc.execute({
                    "op": "attach", "network": "n", "owner": owner,
                    "private_edges": PRIVATE_EDGES,
                    "private_labels": PRIVATE_LABELS,
                }))
                out.append(svc.execute(
                    {"op": "detach", "network": "n", "owner": owner}
                ))
            return out

        def query(i: int) -> List[Dict[str, Any]]:
            out = []
            for r in range(rounds):
                if r % 2 == 0:
                    out.append(svc.execute({"op": "stats", "network": "n"}))
                else:
                    out.append(svc.execute({
                        "op": "knk", "network": "n", "owner": "stable",
                        "source": "p2", "keyword": "db", "k": 2,
                    }))
            return out

        def work(i: int) -> List[Dict[str, Any]]:
            return churn(i) if i < churners else query(i)

        all_responses = _run_threads(churners + queriers, work)
        for batch in all_responses:
            for resp in batch:
                assert resp["status"] in ("ok", "degraded", "error"), resp
        # the stable owner's queries never fail: their attachment is
        # untouched by the churn
        for batch in all_responses[churners:]:
            for resp in batch:
                assert resp["status"] == "ok", resp

    def test_churn_loses_no_epoch_bump_and_no_hit_of_the_stable_owner(self):
        """Per-owner lifetimes under churn: every attach/detach is counted
        on its own owner (a lost ``_owner_epochs`` update would let a
        re-attach repeat an old token), and the stable owner's cached
        answer stays a hit through all of it."""
        svc = PPKWSService(sketch_k=2)
        svc.execute({
            "op": "create_network", "network": "n",
            "public_edges": PUBLIC_EDGES, "public_labels": PUBLIC_LABELS,
        })
        attach = {
            "op": "attach", "network": "n",
            "private_edges": PRIVATE_EDGES, "private_labels": PRIVATE_LABELS,
        }
        svc.execute(dict(attach, owner="stable"))
        knk = {"op": "knk", "network": "n", "owner": "stable",
               "source": "p2", "keyword": "db", "k": 2}
        cold = svc.execute(knk)
        rounds, churners, queriers = 40, 3, 2

        def work(i: int) -> List[Dict[str, Any]]:
            if i >= churners:
                return [svc.execute(knk) for _ in range(4 * rounds)]
            for _ in range(rounds):
                svc.execute(dict(attach, owner=f"churn{i}"))
                svc.execute({"op": "detach", "network": "n", "owner": f"churn{i}"})
            return []

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = _run_threads(churners + queriers, work)
        finally:
            sys.setswitchinterval(interval)

        engine = svc._engine("n")
        assert engine.owner_epoch("stable") == 1
        for i in range(churners):
            assert engine.owner_epoch(f"churn{i}") == 2 * rounds
        assert engine.attachment_epoch == 1 + churners * 2 * rounds
        assert svc.network_epoch("n") == 2 + churners * 2 * rounds
        for resp in results[churners] + results[churners + 1]:
            assert resp["cached"] is True, resp
            assert resp["answer"] == cold["answer"]
        assert svc.answer_cache.stale_hits == 0

    def test_engine_owners_iteration_is_safe(self, small_public_private):
        """Direct engine-level churn: owners() during attach/detach."""
        pub, priv = small_public_private
        engine = PPKWS(pub, sketch_k=2)
        engine.attach("stable", priv)
        stop = threading.Event()
        errors: List[BaseException] = []

        def churn() -> None:
            import copy
            i = 0
            while not stop.is_set():
                owner = f"u{i % 4}"
                try:
                    engine.attach(owner, copy.deepcopy(priv))
                    engine.detach(owner)
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return
                i += 1

        def listing() -> None:
            for _ in range(2000):
                try:
                    owners = engine.owners()
                    assert "stable" in owners
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    return

        churn_t = threading.Thread(target=churn)
        list_t = threading.Thread(target=listing)
        churn_t.start()
        list_t.start()
        list_t.join()
        stop.set()
        churn_t.join()
        assert not errors, errors[0]
