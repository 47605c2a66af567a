"""``scripts/bench_pairs.py`` aggregates alternating pairs into trajectory rows.

Canned child outputs only: no benchmark run is started.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")

METRICS = [
    {"name": "throughput_rps", "better": "higher"},
    {"name": "query_p50_ms", "better": "lower"},
    {"name": "peak_rss_mb", "better": "lower"},
]


@pytest.fixture(scope="module")
def pairs_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(rps, p50, digest="d"):
    return {"metrics": {"throughput_rps": rps, "query_p50_ms": p50},
            "answers_sha256": digest}


def test_imports_nothing_from_repro():
    with open(SCRIPT, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(n == "repro" or n.startswith("repro.") for n in names)


def test_odd_seeds_run_the_parent_first(pairs_script):
    assert pairs_script.run_order(1) == ("parent", "change")
    assert pairs_script.run_order(2) == ("change", "parent")
    assert pairs_script.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_row_holds_medians_iqr_ratio_and_pairs_won(pairs_script):
    pairs = [
        (1, _run(100.0, 8.0), _run(110.0, 7.0)),
        (2, _run(104.0, 7.6), _run(112.0, 7.2)),
        (3, _run(96.0, 8.4), _run(95.0, 8.6)),
        (4, _run(102.0, 8.0), _run(115.0, 6.8)),
    ]
    row = pairs_script.summarize("cold_keyword", pairs, METRICS)
    assert row["workload"] == "cold_keyword"
    assert row["seeds"] == [1, 2, 3, 4] and row["pairs"] == 4
    rps = row["metrics"]["throughput_rps"]
    assert rps["parent_runs"] == [100.0, 104.0, 96.0, 102.0]
    assert rps["change_runs"] == [110.0, 112.0, 95.0, 115.0]
    assert rps["parent_median"] == 101.0 and rps["change_median"] == 111.0
    # inclusive quartiles of 96, 100, 102, 104: 99.0 and 102.5
    assert rps["parent_iqr"] == pytest.approx(3.5)
    assert rps["ratio"] == pytest.approx(111.0 / 101.0)
    assert rps["pairs_won"] == 3 and rps["gain_exceeds_parent_iqr"]
    p50 = row["metrics"]["query_p50_ms"]
    assert p50["pairs_won"] == 3  # lower is better
    assert p50["parent_median"] == 8.0 and p50["change_median"] == 7.1
    assert "peak_rss_mb" not in row["metrics"]  # absent from the runs
    assert row["answers_sha256_equal"]


def test_a_digest_that_differs_in_one_pair_is_flagged(pairs_script):
    pairs = [(1, _run(1.0, 1.0, "a"), _run(1.0, 1.0, "a")),
             (2, _run(1.0, 1.0, "b"), _run(1.0, 1.0, "c"))]
    row = pairs_script.summarize("cold_knk", pairs, METRICS)
    assert not row["answers_sha256_equal"]
    assert row["answers_sha256"] == ["a", "c"]
    assert row["metrics"]["throughput_rps"]["pairs_won"] == 0
    assert not row["metrics"]["throughput_rps"]["gain_exceeds_parent_iqr"]


def test_tier1_runs_as_a_timed_child(pairs_script, tmp_path):
    code = "import os, sys; sys.exit(3 if os.environ['PYTHONPATH'] else 0)"
    out = pairs_script.run_tier1(str(tmp_path), [sys.executable, "-c", code])
    assert out["tier1_exit"] == 3 and out["tier1_wall_s"] >= 0


def test_rows_append_to_the_trajectory(pairs_script, tmp_path):
    path = str(tmp_path / "BENCH_TRAJECTORY.json")
    pairs_script.append_rows(path, [{"pr": "a"}])
    pairs_script.append_rows(path, [{"pr": "b"}, {"pr": "c"}])
    with open(path, encoding="utf-8") as handle:
        assert [row["pr"] for row in json.load(handle)] == ["a", "b", "c"]


def test_a_moved_digest_without_a_reason_appends_nothing(pairs_script, tmp_path):
    path = str(tmp_path / "BENCH_TRAJECTORY.json")
    rows = [{"workload": "cold_knk", "answers_sha256_equal": True},
            {"workload": "cold_keyword", "answers_sha256_equal": False}]
    assert pairs_script.record(path, rows, None) == 1
    assert not os.path.exists(path)
    assert pairs_script.record(path, rows, "ties break differently") == 0
    with open(path, encoding="utf-8") as handle:
        assert len(json.load(handle)) == 2
