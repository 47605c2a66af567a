"""Tests for the command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = main([
        "generate", "--dataset", "yago", "--vertices", "300",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


class TestGenerate:
    def test_files_written(self, dataset_dir):
        assert (dataset_dir / "public.graph").exists()
        assert (dataset_dir / "private_user0.graph").exists()

    def test_ppdblp_vertices_mapping(self, tmp_path):
        code = main([
            "generate", "--dataset", "ppdblp", "--vertices", "200",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "public.graph").exists()


class TestIndex:
    def test_build_and_persist(self, dataset_dir, tmp_path):
        out = tmp_path / "idx.jsonl"
        code = main([
            "index", "--graph", str(dataset_dir / "public.graph"),
            "--out", str(out), "--k", "2",
        ])
        assert code == 0
        assert out.exists() and out.stat().st_size > 0


class TestQuery:
    def _common(self, dataset_dir):
        return [
            "--public", str(dataset_dir / "public.graph"),
            "--private", str(dataset_dir / "private_user0.graph"),
        ]

    def test_blinks_query(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "blinks", "--keywords", "t0,t1", "--tau", "5",
        ])
        assert code == 0
        assert "public-private answers" in capsys.readouterr().out

    def test_rclique_with_persisted_index(self, dataset_dir, tmp_path, capsys):
        idx = tmp_path / "idx.jsonl"
        main(["index", "--graph", str(dataset_dir / "public.graph"),
              "--out", str(idx)])
        capsys.readouterr()
        code = main([
            "query", *self._common(dataset_dir), "--index", str(idx),
            "--semantic", "rclique", "--keywords", "t0,t2", "--tau", "5",
        ])
        assert code == 0
        assert "answers" in capsys.readouterr().out

    def test_knk_query(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "knk", "--keywords", "t0",
            "--source", "user0:v0", "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches" in out

    def test_missing_keywords_is_error(self, dataset_dir, capsys):
        code = main([
            "query", *self._common(dataset_dir), "--semantic", "blinks",
        ])
        assert code == 2

    def test_knk_missing_source_is_error(self, dataset_dir):
        code = main([
            "query", *self._common(dataset_dir),
            "--semantic", "knk", "--keywords", "t0",
        ])
        assert code == 2


class TestBench:
    def test_bench_small(self):
        """A small run of one paper view from its command line."""
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        done = subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "paper_views.py"),
             "fig6_blinks", "--scale", "small"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "PPKWS ms" in done.stdout
        assert "PEval median ms" in done.stdout


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
