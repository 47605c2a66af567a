"""Seeded chaos replay: the full serving stack under injected faults.

Each case activates a :func:`repro.faults.seeded_schedule` and drives a
:class:`PPKWSService` through a :class:`ServiceExecutor` worker pool
with a deterministic mixed workload (queries, admin ops, persistence,
introspection, malformed requests).  Whatever the schedule does — kills
workers, tears index writes, fails cache lookups, delays locks — the
invariants must hold:

* every future resolves, and every response is a well-formed v1 dict;
* no network rwlock is leaked (readers == 0, no writer) after drain;
* the worker pool is fully alive afterwards (deaths respawned);
* with faults off again, cached and uncached answers agree (no stale
  or poisoned cache entry survives the chaos);
* a post-recovery index save is byte-identical to a fault-free build's
  (the on-disk artifact carries no scar tissue).

The CI ``stress`` job replays extra seeds via ``PPKWS_CHAOS_SEED``.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import faults
from repro.core import PublicIndex, save_index
from repro.faults import seeded_schedule
from repro.serving import ServiceExecutor
from repro.service import ERROR_CODES, PROTOCOL_VERSION, PPKWSService
from tests.conftest import random_connected_graph

SEEDS = [0, 1, 2, 3, 4]
_extra = os.environ.get("PPKWS_CHAOS_SEED")
if _extra:
    SEEDS.append(int(_extra))

_STATUSES = {"ok", "error", "degraded"}


def _assert_well_formed(resp: object) -> None:
    assert isinstance(resp, dict), f"non-dict response: {resp!r}"
    assert resp.get("v") == PROTOCOL_VERSION, resp
    assert resp.get("status") in _STATUSES, resp
    if resp["status"] == "error":
        assert isinstance(resp.get("error"), str) and resp["error"], resp
        assert resp.get("code") in ERROR_CODES, resp
        assert isinstance(resp.get("retryable"), bool), resp


def _workload(rng: random.Random, disk_index: str) -> list:
    """~60 deterministic requests over every part of the surface."""
    requests = []
    owners = ("alice", "bob")
    labels = ("a", "b", "c")
    for owner in owners:  # initial attachments (may fail under faults)
        requests.append({
            "op": "attach", "network": "net", "owner": owner,
            "private_edges": [
                [f"{owner}-x", f"{owner}-y"],
                [f"{owner}-x", rng.randrange(20)],
            ],
            "private_labels": {f"{owner}-y": [rng.choice(labels)]},
        })
    for i in range(50):
        roll = rng.random()
        owner = rng.choice(owners)
        if roll < 0.35:
            requests.append({
                "op": "knk", "network": "net", "owner": owner,
                "source": rng.randrange(20), "keyword": rng.choice(labels),
                "k": rng.choice((1, 3)),
            })
        elif roll < 0.6:
            requests.append({
                "op": "blinks", "network": "net", "owner": owner,
                "keywords": rng.sample(labels, 2), "k": 2,
            })
        elif roll < 0.7:
            requests.append({"op": "stats", "network": "net"})
        elif roll < 0.78:
            requests.append({"op": "health"})
        elif roll < 0.86:
            # admin churn: detach / re-attach bumps epochs under fire
            requests.append({
                "op": rng.choice(("detach", "attach")),
                "network": "net", "owner": owner,
                "private_edges": [[f"{owner}-x", rng.randrange(20)]],
            })
        elif roll < 0.94:
            # the persistence path: create/drop a disk-backed network
            requests.append(rng.choice((
                {"op": "create_network", "network": "disk",
                 "public_edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
                 "public_labels": {"0": ["a"], "2": ["b"]},
                 "index_path": disk_index},
                {"op": "drop", "network": "disk"},
            )))
        else:
            # malformed on purpose: bad_request handling under faults
            requests.append(rng.choice((
                {"op": "knk", "network": "net"},          # missing fields
                {"op": "no_such_op"},
                {"op": "stats", "network": "nowhere"},
            )))
    return requests


@pytest.mark.timeout(120)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_replay(seed, tmp_path):
    faults.deactivate()
    public = random_connected_graph(20, 8, seed=seed)
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", public)  # fault-free baseline network
    rng = random.Random(seed)
    requests = _workload(rng, str(tmp_path / "disk.idx"))
    schedule = seeded_schedule(seed, faults=6, max_hit=8)

    pool = ServiceExecutor(svc, workers=3)
    try:
        with faults.injected(schedule):
            futures = [pool.submit(r) for r in requests]
            responses = [f.result(timeout=60) for f in futures]

        # 1. every response (including worker-death quarantines) is a
        #    well-formed v1 protocol dict
        for resp in responses:
            _assert_well_formed(resp)

        # 2. no rwlock leaked: injected raises/delays at the acquire
        #    points must never leave a network lock half-held
        for network, record in svc._networks.items():
            lock = record.lock
            assert lock.readers == 0, f"leaked reader on {network!r}"
            assert not lock.write_active, f"leaked writer on {network!r}"

        # 3. the pool healed every worker death
        health = pool.health()
        assert health["alive"] == health["workers"] == 3
        assert health["pending"] == 0

        # 4. faults off: cached and uncached answers agree, so no stale
        #    or fault-poisoned cache entry outlived the chaos
        volatile = ("cached", "warnings", "breakdown")  # timings differ

        def strip(r):
            return {k: v for k, v in r.items() if k not in volatile}

        for query in (r for r in requests if r["op"] in ("knk", "blinks")):
            cached = svc.execute(dict(query))
            fresh = svc.execute({**query, "no_cache": True})
            assert strip(cached) == strip(fresh), query

        # 5. post-recovery persistence is bit-identical to fault-free:
        #    the index is deterministic, so a save after the chaos must
        #    equal a save that never saw a fault
        post_path = tmp_path / "post.idx"
        svc.create_network("post", public, index_path=str(post_path))
        ref_path = tmp_path / "ref.idx"
        save_index(PublicIndex.build(public, k=2), ref_path)
        assert post_path.read_bytes() == ref_path.read_bytes()
    finally:
        faults.deactivate()
        pool.shutdown(wait=True)

    # the replay is deterministic, so for the built-in seeds we know the
    # schedule actually bit (env-provided seeds may arm cold points)
    if seed in (0, 1, 2, 3, 4):
        assert schedule.total_injected() >= 1, schedule.injections()


@pytest.mark.timeout(120)
def test_chaos_is_deterministic(tmp_path):
    """Same seed, same workload -> the exact same faults fire."""
    records = []
    for run in range(2):
        faults.deactivate()
        public = random_connected_graph(20, 8, seed=3)
        svc = PPKWSService(sketch_k=2)
        svc.create_network("net", public)
        requests = _workload(random.Random(3), str(tmp_path / f"d{run}.idx"))
        schedule = seeded_schedule(3, faults=6, max_hit=8)
        with faults.injected(schedule):
            for request in requests:  # serial: one deterministic thread
                _assert_well_formed(svc.execute(dict(request)))
        faults.deactivate()
        records.append(schedule.injections())
    assert records[0] == records[1]
