"""``scripts/paper_views.py``: the one runner of the paper's evaluation views.

The runner's record handling lives here; its timing loop, set-ups and
renderer are in ``tests/test_bench.py``.
"""

from __future__ import annotations

import os
import re

import pytest

EXPERIMENTS = os.path.join(os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def test_every_view_has_one_marker_pair(paper_views):
    text = _read(EXPERIMENTS)
    for name in paper_views.VIEWS:
        assert text.count(f"<!-- view:{name} -->") == 1, name
        assert text.count(f"<!-- /view:{name} -->") == 1, name
    marked = set(re.findall(r"<!-- view:(\w+) -->", text))
    assert marked == set(paper_views.VIEWS)


def test_a_small_run_leaves_the_record_alone(paper_views, capsys):
    with open(EXPERIMENTS, "rb") as fh:
        before = fh.read()
    assert paper_views.main(["table5_dataset_stats", "fig6_knk", "--scale", "small"]) == 0
    with open(EXPERIMENTS, "rb") as fh:
        assert fh.read() == before
    out = capsys.readouterr().out
    assert "## table5_dataset_stats" in out and "## fig6_knk" in out
    assert "| yago |" in out and "total ratio ×" in out


def test_rewrite_touches_only_the_block_and_is_idempotent(paper_views, tmp_path):
    name = "fig6_knk"
    begin, end = f"<!-- view:{name} -->", f"<!-- /view:{name} -->"
    original = _read(EXPERIMENTS)
    once = paper_views.rewrite_blocks(original, {name: "| a |\n|---|\n| 1 |\n"})
    assert paper_views.rewrite_blocks(once, {name: "| a |\n|---|\n| 1 |\n"}) == once
    head, tail = original.split(begin)[0], original.split(end)[1]
    assert once.startswith(head + begin + "\n| a |\n|---|\n| 1 |\n" + end)
    assert once.endswith(end + tail)

    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text("intro\n<!-- view:x -->\nold\n<!-- /view:x -->\noutro\n")
    copy.write_text(paper_views.rewrite_blocks(copy.read_text(), {"x": "new\n"}))
    assert copy.read_text() == "intro\n<!-- view:x -->\nnew\n<!-- /view:x -->\noutro\n"
    with pytest.raises(ValueError):
        paper_views.rewrite_blocks("no markers\n", {"x": "new\n"})


def test_a_failed_check_is_named_and_exits_nonzero(paper_views, monkeypatch, tmp_path, capsys):
    canned = {"rows": [{"dataset": "yago", "total ratio ×": 0.5}], "cores": 2}
    view = paper_views.View(
        lambda setups: canned,
        {"ratio > 1": paper_views._every(lambda r: r["total ratio ×"] > 1.0)},
        {"cores known": lambda stats: stats["cores"] > 0},
    )
    record = tmp_path / "EXPERIMENTS.md"
    record.write_text("<!-- view:canned -->\n<!-- /view:canned -->\n")
    monkeypatch.setitem(paper_views.VIEWS, "canned", view)
    monkeypatch.setattr(paper_views, "EXPERIMENTS", str(record))

    assert paper_views.main(["canned", "--scale", "small"]) == 0  # shape checks: bench only
    assert paper_views.main(["canned", "--scale", "bench"]) == 1
    assert "FAILED canned: ratio > 1" in capsys.readouterr().err
    assert "| yago | 0.5 |" in record.read_text()
    assert "cores 2" in record.read_text()

    with pytest.raises(SystemExit):
        paper_views.main(["no_such_view", "--scale", "small"])
