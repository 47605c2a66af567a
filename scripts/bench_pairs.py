"""Alternating parent/change pairs of the wire benchmark, one row per workload.

Usage::

    python scripts/bench_pairs.py --workload cold_keyword --pr LABEL \\
        [--seeds 1-10] [--parent HEAD] [--reason TEXT] [--note TEXT] \
        [--tier1]

The *change* is this checkout's working tree; the *parent* is the commit
``--parent`` names (``HEAD`` by default, i.e. the tree against its last
commit), unpacked with ``git archive`` into a temporary directory that
is removed afterwards.  For every seed (1-10 by default: ten pairs) the
script runs ``bench/run.py --workload W --seed S`` once in each tree,
each a child process exactly as a reader would start it, odd seeds
parent first and even seeds change first.  It reads the end-to-end
metrics from the run's last line of standard output and
``answers_sha256`` from the result file the run leaves in its
``bench/out/``.

One row per workload is appended to ``BENCH_TRAJECTORY.json`` at the
repository root (a JSON list).  A row holds, per end-to-end metric of
``BENCHMARK.json``, every run's value (in seed order), the change's and
the parent's medians over the seeds,
the parent's inter-quartile range, ``ratio = change / parent``, the
number of pairs the change won in the metric's better direction, and
whether its median gain exceeds the parent's IQR; plus whether every
pair's ``answers_sha256`` agreed.  A row whose digests differ needs
``--reason``: without it the script exits 1 and appends nothing.  With
``--tier1`` the rows also hold
the wall time and exit code of the change's tier-1 suite
(``python -m pytest -x -q``), run once as a child before the pairs.
Nothing here imports ``repro``: the program under test is only ever a
child process.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_TRAJECTORY.json")

#: one child run: ``{"metrics": {name: value}, "answers_sha256": str}``
Run = Dict[str, Any]


def run_order(seed: int) -> Tuple[str, str]:
    """Which tree runs first for ``seed``: odd seeds parent first."""
    return ("parent", "change") if seed % 2 else ("change", "parent")


def parse_seeds(text: str) -> List[int]:
    """``"1-6"`` or ``"1,3,5"`` (or a mix) to a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (inclusive method; one value is its own)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(
    workload: str,
    pairs: Sequence[Tuple[int, Run, Run]],
    metrics: Sequence[Dict[str, Any]],
) -> Dict[str, Any]:
    """The row of one workload from its ``(seed, parent, change)`` runs.

    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``
    (``name`` and ``better``); a metric absent from any run is skipped.
    """
    out: Dict[str, Any] = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        if not all(name in p["metrics"] and name in c["metrics"] for _, p, c in pairs):
            continue
        parent = [p["metrics"][name] for _, p, _ in pairs]
        change = [c["metrics"][name] for _, _, c in pairs]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        q1, q3 = quartiles(parent)
        gain = (change_median - parent_median) * (1 if higher else -1)
        out[name] = {
            "better": spec["better"],
            "parent_runs": parent,
            "change_runs": change,
            "change_median": change_median,
            "parent_median": parent_median,
            "parent_iqr": q3 - q1,
            "ratio": change_median / parent_median if parent_median else None,
            "pairs_won": sum(
                (c > p) if higher else (c < p) for p, c in zip(parent, change)
            ),
            "gain_exceeds_parent_iqr": gain > q3 - q1,
        }
    digests = [(p.get("answers_sha256"), c.get("answers_sha256")) for _, p, c in pairs]
    return {
        "workload": workload,
        "seeds": [seed for seed, _, _ in pairs],
        "pairs": len(pairs),
        "metrics": out,
        "answers_sha256_equal": all(p == c and p is not None for p, c in digests),
        "answers_sha256": [c for _, c in digests],
    }


def append_rows(path: str, rows: Sequence[Dict[str, Any]]) -> None:
    """Append ``rows`` to the JSON list at ``path`` (created if missing)."""
    existing: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            existing = json.load(handle)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(existing + list(rows), handle, indent=1)
        handle.write("\n")


def record(path: str, rows: Sequence[Dict[str, Any]], reason: Optional[str]) -> int:
    """Append ``rows`` to ``path``, or refuse (exit code 1) when a digest
    moved and no ``reason`` says why."""
    moved = [row["workload"] for row in rows if not row["answers_sha256_equal"]]
    if moved and reason is None:
        print(f"answers_sha256 differs on {', '.join(moved)}: give --reason; "
              "nothing appended", file=sys.stderr)
        return 1
    append_rows(path, rows)
    return 0


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
    ).stdout.strip()


def unpack_parent(rev: str, into: str) -> str:
    """``git archive`` of ``rev`` unpacked under ``into``; returns the tree."""
    tree = os.path.join(into, "parent")
    data = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
        stdout=subprocess.PIPE,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as archive:
        archive.extractall(tree)
    return tree


def run_tier1(tree: str, command: Sequence[str] = (
        sys.executable, "-m", "pytest", "-x", "-q")) -> Dict[str, Any]:
    """Run the tier-1 suite as a child in ``tree``, with ``tree/src`` on
    the path: its wall time and exit code.  Its output goes to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(tree, "src"), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    code = subprocess.run(
        list(command), cwd=tree, env=env, stdout=sys.stderr).returncode
    return {"tier1_wall_s": round(time.perf_counter() - start, 1), "tier1_exit": code}


def bench_run(tree: str, workload: str, seed: int) -> Run:
    """One ``bench/run.py`` child in ``tree``: its metrics and digest."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {tree} ({workload}, seed {seed})")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    result = os.path.join(
        tree, "bench", "out", f"result-{workload}-seed{seed}-trace0.json")
    with open(result, encoding="utf-8") as handle:
        extra = json.load(handle)["extra"][0]
    return {
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "answers_sha256": extra.get("answers_sha256"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of BENCHMARK.json (repeatable)")
    parser.add_argument("--seeds", default="1-10",
                        help='e.g. "1-10" or "1,3,5"; a gain needs 10 pairs')
    parser.add_argument("--parent", default="HEAD", help="the parent revision")
    parser.add_argument("--pr", required=True,
                        help="label of the change (a PR or release name)")
    parser.add_argument("--reason", default=None,
                        help="why an answers_sha256 changed, if one did")
    parser.add_argument("--note", default=None,
                        help="what the rows' numbers do not show, e.g. a "
                             "tracer blind spot the change opened")
    parser.add_argument("--tier1", action="store_true",
                        help="time the change's tier-1 suite (pytest -x -q) "
                             "first and record its wall time and exit code")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    seeds = parse_seeds(args.seeds)
    workdir = tempfile.mkdtemp(prefix="bench-pairs-")
    parent_rev = git("rev-parse", args.parent)
    trees = {"parent": unpack_parent(parent_rev, workdir), "change": ROOT}
    common = {
        "pr": args.pr,
        "commit": git("describe", "--always", "--dirty"),
        "parent": parent_rev,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "digest_change_reason": args.reason,
        "note": args.note,
    }
    if args.tier1:
        common.update(run_tier1(ROOT))
    rows = []
    try:
        for workload in args.workload:
            pairs = []
            for seed in seeds:
                runs = {side: bench_run(trees[side], workload, seed)
                        for side in run_order(seed)}
                pairs.append((seed, runs["parent"], runs["change"]))
                print(f"{workload} seed {seed}: " + json.dumps({
                    side: runs[side]["metrics"].get("throughput_rps") for side in runs
                }), flush=True)
            rows.append(dict(common, **summarize(workload, pairs, metrics)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for row in rows:
        print(json.dumps(row, indent=1))
    return record(TRAJECTORY, rows, args.reason)


if __name__ == "__main__":
    sys.exit(main())
