"""Smoke test of the benchmark itself: ``python -m pytest bench -q``.

Outside tier-1's ``testpaths``; it runs every workload with ``--quick``
(1% of the requests on a tenth of the graph), so it takes about a minute.
"""

from __future__ import annotations

import copy
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench import check, gen, layers  # noqa: E402
from bench.client import Client, answers_sha256  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.yardstick import Yardstick  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
YARDSTICK = Yardstick()


def test_spec_fits_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )


def test_layers_table_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as handle:
        groups = json.load(handle)["groups"]
    listed = [name for group in groups for name in group["metrics"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for group in groups:
        assert set(group["program_reported"]) <= set(group["metrics"])
        assert set(group["bypass"]) <= set(WORKLOADS)
        for move in group["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_prints_every_metric_of_every_workload(trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["claim"] is None
    assert list(summary["workloads"]) == WORKLOADS
    wanted = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    for workload, line in summary["workloads"].items():
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == wanted
        for name in wanted:
            assert re.search(
                rf"^{workload}\s+{re.escape(name)}\s", done.stdout, re.M
            ), (workload, name)


def test_same_seed_same_inputs():
    digests = []
    for seed in (5, 5, 6):
        dataset = gen.Dataset(0.02)
        stream = gen.stream(dataset, "mixed_attach", seed, 0.01)
        digests.append(gen.inputs_sha256(dataset, stream))
    assert digests[0] == digests[1] != digests[2]


def _digest(dataset, requests):
    from repro import PPKWSService

    client = Client(PPKWSService(), YARDSTICK)
    client.set_up(dataset)
    timed = client.timed_loop(requests, prefix=len(requests), sample_cap=None)
    assert client.failed == 0, client.problems
    return answers_sha256(timed.prefix), timed.samples


def _shimmed():
    """Every ``repro`` module or class attribute that is a tracing shim."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if hasattr(value, "bench_span"):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                found += [
                    f"{name}.{attr}.{a}" for a, v in vars(value).items()
                    if hasattr(getattr(v, "__func__", v), "bench_span")
                ]
    return found


def test_unwrap_restores_every_binding():
    """The untraced digest is unchanged by, and after, a traced run."""
    dataset = gen.Dataset(0.05)
    requests = gen.stream(dataset, "hot_cached", 3, 0.001).warmup
    before, _ = _digest(dataset, requests)
    tracer = Tracer()
    layers.install(tracer, layers.QUERY_SPANS, {})
    try:
        assert len(_shimmed()) > 40
        during, _ = _digest(dataset, requests)
    finally:
        tracer.unwrap()
    totals = tracer.totals()
    assert totals["service.execute"][0] == len(requests) + 17
    assert totals["core.engine.run_pipeline"][0] == len(requests)
    assert _shimmed() == []
    after, _ = _digest(dataset, requests)
    assert before == during == after


def test_oracle_rejects_a_wrong_answer():
    dataset = gen.Dataset(0.05)
    requests = [
        r for r in gen.stream(dataset, "hot_cached", 4, 0.001).warmup
    ]
    _, samples = _digest(dataset, requests)
    oracle = check.Oracle(dataset)
    assert all(oracle.check(req, resp) for req, resp in samples)
    request, response = next(
        (req, resp) for req, resp in samples
        if req["op"] == "knk" and len(resp["answer"]["matches"]) > 1
        and resp["answer"]["matches"][-1]["distance"] > 0
    )
    nearer = copy.deepcopy(response)
    for match in nearer["answer"]["matches"]:
        match["distance"] = 0.0
    assert not oracle.check(request, nearer)
    doubled = copy.deepcopy(response)
    doubled["answer"]["matches"].append(doubled["answer"]["matches"][-1])
    assert not oracle.check(request, doubled)
    request, response = next(
        (req, resp) for req, resp in samples
        if "tau" in req and resp["answers"]
    )
    far = copy.deepcopy(response)
    for match in far["answers"][0]["matches"].values():
        match["distance"] = request["tau"] + 1.0
    assert not oracle.check(request, far)
