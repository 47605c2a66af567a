"""Tests for :mod:`repro.analysis` — the invariant linter.

Four layers:

* one good/bad fixture pair per rule under ``tests/analysis_fixtures/``,
  run with ``force=True`` so scope predicates don't mask the rule;
* the per-function summaries and the blocking fixpoint RA010 reads
  (held sets, rwlock sides, condition waits, nested defs, call chains);
* engine mechanics (file walking, module names, flow scope);
* the meta-test: the analyzer runs over ``src/repro`` in-process and
  must report **zero** findings, so an invariant regression fails
  tier-1 locally, not just the CI ``static`` job.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    analyze_file,
    analyze_paths,
    analyze_source,
    build_flow,
    render_text,
    rules_by_id,
)
from repro.analysis.__main__ import check_catalogue, main
from repro.analysis.engine import module_name_for, parse_context
from repro.analysis.flow import is_exclusive_token
from repro.analysis.rules.flow_locks import BLOCKING_ALLOWLIST
from repro.analysis.summaries import summarize_module

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

RULE_IDS = ("RA001", "RA002", "RA003", "RA010")


def _run_rule(rule_id: str, fixture: str):
    rule = rules_by_id()[rule_id]
    return analyze_file(str(FIXTURES / fixture), [rule], force=True)


def _summaries(source: str, path: str = "src/repro/fake.py"):
    module = summarize_module(parse_context(source, path))
    return {fn.qualname: fn for fn in module.functions}


def _flow(source: str, path: str = "src/repro/fake.py"):
    return build_flow([parse_context(source, path)])


def _held_at(fn, callee: str):
    """The lock tokens held at ``fn``'s (first) call to ``callee``."""
    return next(c.held for c in fn.calls if c.name == callee)


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
        # item write, delete, .pop, attachment write, epoch bump, and the
        # two writes in a closure defined under the lock (def, lambda)
        assert len(findings) == 7

    def test_ra002_flags_raise_and_both_blind_handlers(self):
        findings = _run_rule("RA002", "ra002_bad.py")
        messages = [f.message for f in findings]
        assert any("RuntimeError" in m for m in messages)
        assert sum("blind" in m for m in messages) == 2

    def test_ra010_flags_the_cache_copier_under_the_table_lock(self):
        findings = _run_rule("RA010", "ra010_bad.py")
        assert any("_wire_clone(...)" in f.message for f in findings)


# ----------------------------------------------------------------------
# per-function summaries (RA010's raw material)
# ----------------------------------------------------------------------
class TestSummaries:
    def test_lock_tokens_are_class_qualified(self):
        fns = _summaries(
            "import threading\n\n\n"
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n\n"
            "    def get(self):\n"
            "        with self._lock:\n"
            "            return self.work()\n"
        )
        held = _held_at(fns["Cache.get"], "work")
        assert held == frozenset({"Cache._lock"})
        assert is_exclusive_token("Cache._lock")

    def test_rwlock_sides_get_mode_suffixes(self):
        fns = _summaries(
            "class Svc:\n"
            "    def read(self):\n"
            "        with self._net_lock.read_locked():\n"
            "            return self.work()\n\n"
            "    def write(self):\n"
            "        with self._net_lock.write_locked():\n"
            "            return self.work()\n"
        )
        (read,) = _held_at(fns["Svc.read"], "work")
        (write,) = _held_at(fns["Svc.write"], "work")
        assert read == "Svc._net_lock:read" and not is_exclusive_token(read)
        assert write == "Svc._net_lock:write" and is_exclusive_token(write)

    def test_rwlock_factory_call_chain_resolves(self):
        # The shape service.py uses: a per-network lock factory.
        fns = _summaries(
            "class Svc:\n"
            "    def write(self, name):\n"
            "        with self._network_lock(name).write_locked():\n"
            "            return self.work()\n"
        )
        fn = fns["Svc.write"]
        assert _held_at(fn, "work") == frozenset({"Svc._network_lock:write"})
        # the factory call itself runs before the lock is taken
        assert _held_at(fn, "_network_lock") == frozenset()

    def test_held_set_tracks_nesting(self):
        fns = _summaries(
            "class S:\n"
            "    def f(self):\n"
            "        with self._a_lock:\n"
            "            self.outer()\n"
            "            with self._b_lock:\n"
            "                self.inner()\n"
            "        self.after()\n"
        )
        fn = fns["S.f"]
        assert _held_at(fn, "outer") == frozenset({"S._a_lock"})
        assert _held_at(fn, "inner") == frozenset({"S._a_lock", "S._b_lock"})
        assert _held_at(fn, "after") == frozenset()

    def test_blocking_catalogue_records_held_locks(self):
        fns = _summaries(
            "import copy\nimport threading\n\n\n"
            "class C:\n"
            "    def f(self, x):\n"
            "        with self._lock:\n"
            "            return copy.deepcopy(x)\n"
        )
        op = fns["C.f"].blocking[0]
        assert op.kind == "deepcopy"
        assert op.held == frozenset({"C._lock"})

    def test_condvar_wait_under_its_own_lock_is_not_blocking(self):
        fns = _summaries(
            "class RW:\n"
            "    def acquire(self):\n"
            "        with self._cond:\n"
            "            self._cond.wait()\n"
        )
        assert fns["RW.acquire"].blocking == []

    def test_wait_on_foreign_object_is_blocking(self):
        fns = _summaries(
            "class P:\n"
            "    def join(self, worker):\n"
            "        worker.done.wait()\n"
        )
        assert [op.kind for op in fns["P.join"].blocking] == ["wait"]

    def test_nested_def_does_not_inherit_held_locks(self):
        fns = _summaries(
            "import copy\n\n\n"
            "class C:\n"
            "    def f(self):\n"
            "        with self._lock:\n"
            "            def callback(x):\n"
            "                return copy.deepcopy(x)\n"
            "            return callback\n"
        )
        nested = fns["C.f.<locals>.callback"]
        assert nested.blocking[0].held == frozenset()


# ----------------------------------------------------------------------
# the blocking fixpoint and RA010's exemptions
# ----------------------------------------------------------------------
class TestProjectFlow:
    def test_block_reason_reports_the_chain(self):
        flow = _flow(
            "class J:\n"
            "    def outer(self):\n"
            "        return self.middle()\n\n"
            "    def middle(self):\n"
            "        return self.leaf()\n\n"
            "    def leaf(self):\n"
            "        with open('x') as fh:\n"
            "            return fh.read()\n"
        )
        (key,) = [k for k in flow.functions if k[1] == "J.outer"]
        chain = flow.block_reason(key)
        assert chain is not None
        assert chain[:2] == ("J.middle", "J.leaf")
        assert "file-io" in chain[-1]

    def test_recursion_terminates(self):
        flow = _flow(
            "def ping(n):\n"
            "    return pong(n - 1)\n\n\n"
            "def pong(n):\n"
            "    return ping(n - 1)\n"
        )
        for key in flow.functions:
            assert flow.block_reason(key) is None

    def test_allowlisted_lock_is_not_flagged(self):
        token = "ShardServingPool._log_lock"
        assert token in BLOCKING_ALLOWLIST  # the catalogue entry under test
        findings = analyze_source(
            "import threading\n\n\n"
            "class ShardServingPool:\n"
            "    def _broadcast(self, conn, msg):\n"
            "        with self._log_lock:\n"
            "            conn.send(msg)\n"
            "            return conn.recv()\n",
            "src/repro/fake_pool.py",
            [rules_by_id()["RA010"]],
            force=True,
        )
        assert findings == []

    def test_read_lock_is_exempt_write_lock_is_not(self):
        src = (
            "import copy\n\n\n"
            "class S:\n"
            "    def read(self, x):\n"
            "        with self._my_lock.read_locked():\n"
            "            return copy.deepcopy(x)\n\n"
            "    def write(self, x):\n"
            "        with self._my_lock.write_locked():\n"
            "            return copy.deepcopy(x)\n"
        )
        findings = analyze_source(
            src, "src/repro/fake_rw.py", [rules_by_id()["RA010"]], force=True
        )
        assert len(findings) == 1
        assert findings[0].line == 11  # the write-side deepcopy only
        assert "S._my_lock" in findings[0].message


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_module_name_derivation(self):
        assert module_name_for("src/repro/core/budget.py") == "repro.core.budget"
        assert module_name_for("src/repro/graph/__init__.py") == "repro.graph"
        assert module_name_for("tests/test_obs.py") == "tests.test_obs"

    def test_walk_skips_fixture_directory(self):
        result = analyze_paths(
            [str(FIXTURES.parent)], rules=[rules_by_id()["RA002"]], force=True
        )
        bad = str(FIXTURES / "ra002_bad.py")
        assert all(f.path != bad for f in result.findings)

    def test_explicit_fixture_file_is_analyzed(self):
        result = analyze_paths([str(FIXTURES / "ra002_bad.py")], force=True)
        assert any(f.rule == "RA002" for f in result.findings)

    def test_reporters_render(self):
        result = analyze_paths([str(FIXTURES / "ra002_bad.py")], force=True)
        text = render_text(result)
        assert "RA002" in text and "finding(s)" in text

    def test_every_rule_has_id_title_rationale(self):
        assert [rule.id for rule in ALL_RULES] == list(RULE_IDS)
        for rule in ALL_RULES:
            assert rule.title and rule.rationale

    def test_out_of_scope_methods_do_not_join_call_resolution(self, tmp_path):
        # A `repro` method calls `.flush_all()` under a lock; the only
        # same-named method lives outside `repro.*` and does file IO.
        # RA010 does not cover that file, so it must not resolve there.
        pkg = tmp_path / "repro"
        pkg.mkdir()
        (pkg / "svc.py").write_text(
            "class Svc:\n"
            "    def stop(self, sink):\n"
            "        with self._state_lock:\n"
            "            sink.flush_all()\n",
            encoding="utf-8",
        )
        helpers = tmp_path / "tests"
        helpers.mkdir()
        (helpers / "sink.py").write_text(
            "class Sink:\n"
            "    def flush_all(self):\n"
            "        with open('log', 'w') as fh:\n"
            "            fh.write('x')\n",
            encoding="utf-8",
        )
        result = analyze_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert result.findings == []


# ----------------------------------------------------------------------
# the meta-test: the real tree stays clean
# ----------------------------------------------------------------------
class TestTreeIsClean:
    def test_src_has_zero_findings(self):
        # Every rule is scoped to `repro.*`: tests/ and scripts/ would
        # only be parsed, so the meta-test covers src/repro alone.
        result = analyze_paths([str(REPO_ROOT / "src" / "repro")])
        assert result.errors == []
        assert result.findings == [], render_text(result)
        assert result.files_checked > 60

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
def bad_raise_module(tmp_path):
    """An off-taxonomy raise under a ``repro``-anchored path.

    The CLI does not force rules out of scope, so the offending file must
    live where :func:`module_name_for` maps it into ``repro.*``.
    """
    pkg = tmp_path / "repro"
    pkg.mkdir()
    target = pkg / "bad_raise.py"
    target.write_text(
        "def fail():\n    raise RuntimeError('outside the taxonomy')\n",
        encoding="utf-8",
    )
    return target


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        rc = main([str(FIXTURES / "ra002_good.py")])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys, bad_raise_module):
        rc = main([str(bad_raise_module)])
        assert rc == 1
        assert "RA002" in capsys.readouterr().out

    def test_no_paths_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_select_is_usage_error(self):
        # `--select` is gone: the CLI takes paths and --check-catalogue.
        with pytest.raises(SystemExit) as exc:
            main(["--select", "RA999", "src"])
        assert exc.value.code == 2
