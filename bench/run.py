"""The wire-level benchmark: ``python3 bench/run.py --workload NAME``.

A closed loop of one in-process client sends v1 wire dicts through
``PPKWSService().execute`` (defaults, no optional request fields) and
reports what that client sees.  Every workload run is a fresh child
process started with ``PYTHONHASHSEED=0``; this parent only aggregates
and prints, so a run never sees another run's heap or caches.

Last line of standard output, for one workload::

    {"correct": true, "attempted": 1, "failed": 0, "metrics": {...}}

``--trace 0`` (default) gives the end-to-end metrics, ``--trace 1`` the
per-layer ones of ``BENCHMARK.json``.  Without ``--workload`` every
workload runs and the last line is a summary ending in ``"claim": null``.
The exit code is 1 when any operation failed or the oracle rejected an
answer.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
# this script's directory leaves the path (``trace.py`` here must not
# shadow the standard library's ``trace`` for the program under test);
# the repository root, for ``bench``, and ``src``, for ``repro``, join it
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
sys.path[0:0] = [os.path.join(os.path.dirname(HERE), "src"), os.path.dirname(HERE)]

from bench import OUT, ROOT, check, gen, layers  # noqa: E402
from bench.client import SAMPLE_CAP, Client, Phases, answers_sha256  # noqa: E402
from bench.yardstick import Yardstick  # noqa: E402

WARM_RESTART = ("hot_cached", "mixed_attach")
#: set-ups per run (their median is ``setup_s``); each costs 3 to 4 s
SETUPS = 2
#: ok query responses whose canonical JSON makes ``answers_sha256``; few
#: enough that every run reaches them, so the digest is the same however
#: fast the run was
DIGEST_PREFIX = {
    "cold_keyword": 96, "cold_knk": 2048, "hot_cached": 4096,
    "mixed_attach": 2048,
}
QUICK_STREAM_SCALE = 0.01
QUICK_GRAPH_SCALE = 0.1

Metrics = Dict[str, Tuple[float, int]]


def benchmark_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile(values: List[float], share: float) -> float:
    """The smallest value with at least ``share`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def repeated_set_up(
    dataset: Any, workload: str, seed: int, repeats: int
) -> Tuple[Client, List[float], List[float]]:
    """Set up ``repeats`` times, each on a fresh service; the last one stays.

    The warm-restart workloads first build and save the index untimed,
    then every timed set-up loads it; a load that fell back to a rebuild
    (the file was rewritten) counts as a failed operation.
    """
    from repro import PPKWSService

    client = Client(None, Yardstick())
    index_path = ""
    if workload in WARM_RESTART:
        index_path = os.path.join(OUT, f"index-{workload}-{seed}.idx")
        if os.path.exists(index_path):
            os.remove(index_path)
        client.service = PPKWSService()
        client.set_up(dataset, index_path)
    walls: List[float] = []
    attach: List[float] = []
    for _ in range(repeats):
        client.service = None
        gc.collect()
        stamp = os.stat(index_path).st_mtime_ns if index_path else 0
        client.service = PPKWSService()
        wall, latencies = client.set_up(dataset, index_path)
        walls.append(wall)
        attach.extend(latencies)
        if index_path and os.stat(index_path).st_mtime_ns != stamp:
            client.fail(
                {"op": "create_network"},
                {"status": "rebuilt", "error": "the warm restart did not load the index"},
            )
    if index_path:
        os.remove(index_path)
    return client, walls, attach


def untraced_run(
    dataset: Any, stream: Any, args: argparse.Namespace, oracle: Any,
    extra: Dict[str, Any],
) -> Tuple[Any, Metrics]:
    """Set up, warm up, run the timed loop: the end-to-end metrics."""
    phases = Phases()
    client, walls, attach = repeated_set_up(
        dataset, args.workload, args.seed, 1 if args.quick else SETUPS
    )
    phases.done("set_up")
    for request in stream.warmup:
        client.send(request)
    gc.collect()
    phases.done("warm_up")
    timed = client.timed_loop(
        stream.timed, seconds=None if args.quick else args.seconds,
        prefix=DIGEST_PREFIX[args.workload],
        sample_cap=None if args.quick else SAMPLE_CAP,
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    observed, _ = client.send({"op": "metrics"})
    phases.done("timed")
    client.check(oracle, timed.samples)
    phases.done("check")
    extra["phases_s"] = phases.seconds
    extra["answer_cache"] = observed.get("answer_cache")
    extra["answers_sha256"] = answers_sha256(timed.prefix)
    extra["timed_requests"] = timed.sent
    raw = timed.queries(raw=True)
    extra["as_clocked"] = {
        "throughput_rps": timed.ok / timed.wall,
        "query_p50_ms": statistics.median(raw) * 1e3,
        "query_p95_ms": percentile(raw, 0.95) * 1e3,
        "scale_median": statistics.median(timed.scales),
        "scale_min": min(timed.scales),
        "scale_max": max(timed.scales),
    }
    queries = timed.queries()
    # the workload's own attaches when it has them, else those of set-up
    attach = timed.latency.get("attach", attach)
    return client, {
        "setup_s": (statistics.median(walls), len(walls)),
        "throughput_rps": (statistics.median(timed.rates), len(timed.rates)),
        "query_p50_ms": (statistics.median(queries) * 1e3, len(queries)),
        "query_p95_ms": (percentile(queries, 0.95) * 1e3, len(queries)),
        "attach_p50_ms": (statistics.median(attach) * 1e3, len(attach)),
        "ok_share": (1.0 - client.failed / client.attempted, client.attempted),
        "peak_rss_mb": (rss_mb, 1),
        "dist_ratio_mean": (oracle.dist_ratio_mean, oracle.ratio_count),
        "answers_mean": (timed.answers / timed.ok_queries, timed.ok_queries),
    }


def run_child(args: argparse.Namespace) -> Dict[str, Any]:
    """One run of one workload, in this process."""
    spec = benchmark_spec()
    dataset = gen.Dataset(QUICK_GRAPH_SCALE if args.quick else 1.0)
    stream = gen.stream(
        dataset, args.workload, args.seed,
        QUICK_STREAM_SCALE if args.quick else 1.0,
    )
    extra: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs_sha256": gen.inputs_sha256(dataset, stream),
    }
    oracle = check.Oracle(dataset)
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        client, metrics = layers.traced_run(
            dataset, stream, args.workload, args.seed,
            None if args.quick else args.seconds, oracle, extra,
        )
    else:
        client, metrics = untraced_run(dataset, stream, args, oracle, extra)
    extra["oracle_checked"] = oracle.checked
    extra["problems"] = client.problems[:10]
    units = {
        m["name"]: m["unit"]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    return {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": n}
            for name, (value, n) in metrics.items()
        },
        "extra": extra,
    }


# ----------------------------------------------------------------------
# the parent: one child process per run, medians over runs
# ----------------------------------------------------------------------
def spawn_run(args: argparse.Namespace, workload: str) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.quick:
        command.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.strip().splitlines()[-1])


def aggregate(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Median of every metric over ``runs``; counts add up."""
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = dict(first, value=statistics.median(values))
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
        "extra": [run["extra"] for run in runs],
    }


def report(workload: str, result: Dict[str, Any]) -> None:
    """Every metric by name with its unit and sample count, for people."""
    for name, metric in result["metrics"].items():
        print(
            f"{workload:<13} {name:<42} {metric['value']:>14.6g} "
            f"{metric['unit']:<6} n={metric['samples']}"
        )
    for extra in result["extra"]:
        for key in ("inputs_sha256", "answers_sha256", "timed_requests",
                    "traced_requests", "oracle_checked", "answer_cache",
                    "phases_s", "as_clocked"):
            if key in extra:
                print(f"{workload:<13} {key:<42} {extra[key]}")
        for problem in extra["problems"]:
            print(f"{workload:<13} PROBLEM {problem}")


def driver_line(result: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }


def main() -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_const", const=1, dest="trace",
                        help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1,
                        help="child runs per workload; medians are reported")
    parser.add_argument("--quick", action="store_true",
                        help="1%% of the requests on a tenth of the graph, "
                             "fixed counts and no deadline (smoke test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    os.makedirs(OUT, exist_ok=True)
    results = {}
    for workload in names if args.workload == "all" else [args.workload]:
        result = aggregate([spawn_run(args, workload) for _ in range(args.runs)])
        results[workload] = result
        report(workload, result)
        path = os.path.join(
            OUT, f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        )
        with open(path, "w") as handle:
            json.dump(result, handle, indent=1)
    if args.workload == "all":
        print(json.dumps({
            "workloads": {w: driver_line(r) for w, r in results.items()},
            "claim": None,
        }))
    else:
        print(json.dumps(driver_line(results[args.workload])))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
