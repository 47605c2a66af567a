"""Tests for :mod:`repro.analysis` — the invariant linter.

Three layers:

* engine mechanics (suppressions, selection, file walking);
* one good/bad fixture pair per rule under ``tests/analysis_fixtures/``,
  run with ``force=True`` so scope predicates don't mask the rule;
* the meta-test: the analyzer runs over the real tree in-process and
  must report **zero** unsuppressed findings, so an invariant regression
  fails tier-1 locally, not just the CI ``analysis`` job.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    analyze_file,
    analyze_paths,
    analyze_source,
    render_json,
    render_text,
    rules_by_id,
)
from repro.analysis.__main__ import check_catalogue, main
from repro.analysis.engine import module_name_for, parse_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

RULE_IDS = (
    "RA001", "RA002", "RA003", "RA004", "RA005", "RA006", "RA007", "RA008",
    "RA009", "RA010", "RA011", "RA012",
)


def _run_rule(rule_id: str, fixture: str):
    rule = rules_by_id()[rule_id]
    findings, _ = analyze_file(str(FIXTURES / fixture), [rule], force=True)
    return findings


# ----------------------------------------------------------------------
# fixture pairs: every rule fires on its bad case, stays silent on good
# ----------------------------------------------------------------------
class TestFixturePairs:
    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_fires(self, rule_id):
        findings = _run_rule(rule_id, f"{rule_id.lower()}_bad.py")
        assert findings, f"{rule_id} did not fire on its bad fixture"
        assert all(f.rule == rule_id for f in findings)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_silent(self, rule_id):
        findings = _run_rule(rule_id, f"{rule_id.lower()}_good.py")
        assert findings == [], f"{rule_id} misfired: {findings}"

    def test_ra001_counts_each_unlocked_write(self):
        findings = _run_rule("RA001", "ra001_bad.py")
        # item write, delete, .pop, attachment write, epoch bump
        assert len(findings) == 5

    def test_ra002_flags_raise_and_both_blind_handlers(self):
        findings = _run_rule("RA002", "ra002_bad.py")
        messages = [f.message for f in findings]
        assert any("RuntimeError" in m for m in messages)
        assert sum("blind" in m for m in messages) == 2

    def test_ra010_flags_the_cache_copier_under_the_table_lock(self):
        findings = _run_rule("RA010", "ra010_bad.py")
        assert any("_wire_clone(...)" in f.message for f in findings)

    def test_ra006_flags_the_import_form_too(self):
        findings = _run_rule("RA006", "ra006_bad_import.py")
        assert any("from time import time" in f.message for f in findings)

    def test_ra008_flags_each_hand_rolled_mechanism(self):
        findings = _run_rule("RA008", "ra008_bad.py")
        messages = " ".join(f.message for f in findings)
        assert "_Timer" in messages
        assert "breakdown.peval" in messages
        assert "setattr(breakdown" in messages
        assert "BudgetError" in messages
        assert "observe_pipeline" in messages
        assert "interrupted_step" in messages
        assert "completed_steps" in messages


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_suppression(self):
        src = "import time\n\nd = time.time()  # ra: ignore[RA006]\n"
        findings, suppressed = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert findings == []
        assert suppressed == 1

    def test_preceding_comment_suppression(self):
        src = (
            "import time\n\n"
            "# justification for the wall clock below\n"
            "# ra: ignore[RA006]\n"
            "d = time.time()\n"
        )
        findings, suppressed = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert findings == []
        assert suppressed == 1

    def test_unbracketed_ignore_suppresses_every_rule(self):
        src = "import time\n\nd = time.time()  # ra: ignore\n"
        findings, _ = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert findings == []

    def test_file_level_suppression(self):
        src = (
            "# ra: ignore-file[RA006]\n"
            "import time\n\n"
            "d = time.time()\ne = time.time()\n"
        )
        findings, suppressed = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert findings == []
        assert suppressed == 2

    def test_wrong_rule_id_does_not_suppress(self):
        src = "import time\n\nd = time.time()  # ra: ignore[RA001]\n"
        findings, _ = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert len(findings) == 1

    def test_marker_inside_string_is_not_a_suppression(self):
        src = (
            "import time\n\n"
            'note = "ra: ignore[RA006]"\n'
            "d = time.time()\n"
        )
        findings, _ = analyze_source(
            src, "src/repro/fake.py", [rules_by_id()["RA006"]], force=True
        )
        assert len(findings) == 1

    def test_directives_survive_parse(self):
        sup = parse_suppressions("# ra: ignore-file[RA003]\nx = 1\n")
        assert sup.is_suppressed("RA003", 2)
        assert not sup.is_suppressed("RA001", 2)


class TestEngine:
    def test_module_name_derivation(self):
        assert module_name_for("src/repro/core/budget.py") == "repro.core.budget"
        assert module_name_for("src/repro/graph/__init__.py") == "repro.graph"
        assert module_name_for("tests/test_obs.py") == "tests.test_obs"

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="RA999"):
            analyze_paths([str(FIXTURES / "ra001_bad.py")], select=["RA999"])

    def test_walk_skips_fixture_directory(self):
        result = analyze_paths([str(FIXTURES.parent)], select=["RA006"])
        bad = str(FIXTURES / "ra006_bad.py")
        assert all(f.path != bad for f in result.findings)

    def test_explicit_fixture_file_is_analyzed(self):
        result = analyze_paths([str(FIXTURES / "ra006_bad.py")], force=True)
        assert any(f.rule == "RA006" for f in result.findings)

    def test_reporters_render(self):
        result = analyze_paths([str(FIXTURES / "ra006_bad.py")], force=True)
        text = render_text(result)
        assert "RA006" in text and "finding(s)" in text
        as_json = render_json(result)
        assert '"version": 1' in as_json and '"RA006"' in as_json

    def test_every_rule_has_id_title_rationale(self):
        seen = set()
        for rule in ALL_RULES:
            assert rule.id.startswith("RA") and len(rule.id) == 5
            assert rule.id not in seen
            seen.add(rule.id)
            assert rule.title and rule.rationale


# ----------------------------------------------------------------------
# the meta-test: the real tree stays clean
# ----------------------------------------------------------------------
class TestTreeIsClean:
    def test_src_tests_benchmarks_have_zero_findings(self):
        result = analyze_paths(
            [
                str(REPO_ROOT / "src" / "repro"),
                str(REPO_ROOT / "tests"),
                str(REPO_ROOT / "benchmarks"),
            ]
        )
        assert result.errors == []
        assert result.findings == [], render_text(result)
        assert result.files_checked > 100

    def test_metric_catalogue_in_sync(self):
        problems = check_catalogue(
            src_root=str(REPO_ROOT / "src" / "repro"),
            readme_path=str(REPO_ROOT / "README.md"),
        )
        assert problems == []


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
@pytest.fixture()
def bad_clock_module(tmp_path):
    """A wall-clock offender under a ``repro``-anchored path.

    The CLI does not force rules out of scope, so the offending file must
    live where :func:`module_name_for` maps it into ``repro.*``.
    """
    pkg = tmp_path / "repro"
    pkg.mkdir()
    target = pkg / "bad_clock.py"
    target.write_text(
        "import time\n\n\ndef now():\n    return time.time()\n",
        encoding="utf-8",
    )
    return target


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        rc = main([str(FIXTURES / "ra006_good.py")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys, bad_clock_module):
        rc = main([str(bad_clock_module)])
        assert rc == 1
        assert "RA006" in capsys.readouterr().out

    def test_json_format(self, capsys, bad_clock_module):
        rc = main(["--format", "json", str(bad_clock_module)])
        assert rc == 1
        out = capsys.readouterr().out
        assert '"rule": "RA006"' in out

    def test_unknown_select_is_usage_error(self, capsys):
        rc = main(["--select", "RA999", "src"])
        assert rc == 2

    def test_no_paths_is_usage_error(self):
        assert main([]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out
