"""The measurement pieces of ``scripts/paper_views.py``.

Timings and speedups, the dataset set-ups, the one timing loop and the
markdown renderer.  The runner and its EXPERIMENTS.md blocks are in
``tests/test_paper_views.py``.
"""

from __future__ import annotations

import pytest

from repro.core import StepBreakdown
from repro.datasets import generate_keyword_queries, generate_knk_queries


@pytest.fixture(scope="module")
def small(paper_views):
    """One small-scale set-up cache shared by the module's tests."""
    return paper_views.Setups("small")


def _timing(paper_views, pp: float, base: float):
    return paper_views.QueryTiming(pp, base, StepBreakdown(pp / 2, pp / 4, pp / 4), 3, 2)


class TestQueryTiming:
    def test_speedup(self, paper_views):
        assert _timing(paper_views, 0.5, 1.0).speedup == 2.0
        assert _timing(paper_views, 0.0, 1.0).speedup == float("inf")

    def test_speedups_aggregate(self, paper_views):
        stats = paper_views.speedups([_timing(paper_views, 1.0, 2.0),
                                      _timing(paper_views, 1.0, 4.0)])
        assert stats == {"mean": pytest.approx(3.0), "min": 2.0, "max": 4.0,
                         "total": pytest.approx(3.0)}
        assert paper_views.speedups([_timing(paper_views, 0.0, 1.0)])["total"] == float("inf")


class TestRendering:
    def test_render_table_alignment(self, paper_views):
        out = paper_views.render({"rows": [{"col": "a", "x": 1.5}, {"col": "bbbb", "x": 100.0}]})
        assert out.splitlines() == ["| col | x |", "|---|---|", "| a | 1.5 |", "| bbbb | 100 |"]

    def test_render_query_comparison_contains_stats(self, paper_views):
        row = paper_views.comparison_row("yago", [_timing(paper_views, 0.004, 0.008),
                                                  _timing(paper_views, 0.002, 0.010)])
        assert row["PPKWS ms"] == pytest.approx(6.0)
        assert row["baseline ms"] == pytest.approx(18.0)
        assert row["total ratio ×"] == pytest.approx(3.0)
        assert row["mean ×"] == pytest.approx(3.5)
        assert row["min ×"] == pytest.approx(2.0) and row["max ×"] == pytest.approx(5.0)
        assert (row["answers PP"], row["answers baseline"]) == (6, 4)
        out = paper_views.render({"rows": [row]})
        assert "| total ratio × | mean × | min × | max × |" in out
        assert "| 3 | 3.5 | 2 | 5 |" in out

    def test_render_query_comparison_m1(self, paper_views, small):
        stats = paper_views.VIEWS["fig7_query_models"].step(small)
        for row in stats["rows"]:
            assert row["M1 ms"] > 0
            assert row["M1/M2 ×"] == pytest.approx(row["M1 ms"] / row["M2 ms"])
        assert "| M1 ms |" in paper_views.render(stats)

    def test_render_breakdown_shares(self, paper_views):
        row = paper_views.comparison_row("yago", [_timing(paper_views, 0.004, 0.008),
                                                  _timing(paper_views, 0.002, 0.010)])
        assert row["PEval median ms"] == pytest.approx(1.5)
        assert (row["PEval %"], row["ARefine %"], row["AComplete %"]) == (
            pytest.approx(50.0), pytest.approx(25.0), pytest.approx(25.0))
        zero = paper_views.comparison_row("yago", [_timing(paper_views, 0.0, 0.001)])
        assert zero["PEval %"] == 0.0 and zero["total ratio ×"] == float("inf")
        assert "inf" in paper_views.render({"rows": [zero]})

    def test_render_series(self, paper_views):
        stats = {"rows": [{"k": 1, "A": 1.0, "B": 3.0}, {"k": 2, "A": 2.0, "B": 4.0}],
                 "cores": 2, "note": "a|b"}
        out = paper_views.render(stats)
        assert "| k | A | B |" in out and "| 2 | 2 | 4 |" in out
        assert out.endswith("\ncores 2 · note a\\|b\n")


class TestExperimentRegistry:
    def test_dataset_names(self, paper_views):
        assert paper_views.DATASETS == ("yago", "dbpedia", "ppdblp")
        for scale in paper_views.DATASET_SCALES:
            assert set(paper_views.DATASET_SCALES[scale]) == set(paper_views.DATASETS)

    def test_build_setup_small(self, small):
        setup = small("yago")
        assert small("yago") is setup  # built once per run
        assert setup.engine.owners() == [setup.owner]
        assert setup.combined.num_vertices >= setup.public.num_vertices
        assert setup.private.num_vertices < setup.public.num_vertices


class TestHarnessLoops:
    def test_run_keyword_experiment(self, paper_views, small):
        setup = small("ppdblp")
        queries = generate_keyword_queries(setup.public, setup.private,
                                           num_queries=2, tau=4.0, seed=9)
        timings = paper_views.time_queries(setup, "blinks", queries)
        assert len(timings) == 2
        for t in timings:
            assert t.pp_seconds > 0 and t.baseline_seconds > 0
            assert t.breakdown.total > 0
            assert t.m1_seconds == 0.0

    def test_run_keyword_experiment_with_m1(self, paper_views, small):
        setup = small("ppdblp")
        queries = generate_keyword_queries(setup.public, setup.private,
                                           num_queries=1, tau=4.0, seed=10)
        [timing] = paper_views.time_queries(setup, "rclique", queries, include_m1=True)
        assert timing.pp_seconds > 0 and timing.baseline_seconds > 0
        assert timing.m1_seconds > 0

    def test_run_knk_experiment(self, paper_views, small):
        setup = small("ppdblp")
        queries = generate_knk_queries(setup.public, setup.private,
                                       num_queries=2, k=8, seed=12)
        timings = paper_views.time_queries(setup, "knk", queries)
        assert len(timings) == 2
        for t in timings:
            assert t.pp_answers <= 8
