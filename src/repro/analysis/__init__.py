"""``repro.analysis`` — AST-based invariant linter for the PPKWS tree.

The serving stack has cross-cutting contracts that ordinary linters
cannot see.  Two of them are checked here, each a
:class:`~repro.analysis.engine.Rule` with a stable ``RAxxx`` id:

* RA002 — errors come from the :class:`~repro.exceptions.ReproError`
  taxonomy, and blind excepts re-raise or say why they do not;
* RA010 — nothing blocks while an exclusive lock is held, directly or
  through a call chain.

The retired RA001 (registry writes under their locks) is carried by a
tier-1 test that asserts the lock on every registry write, and the
retired RA003 (metric names from :mod:`repro.obs.catalogue`) by
``--check-catalogue``.

RA010 rests on an interprocedural layer (:mod:`repro.analysis.summaries`
+ :mod:`repro.analysis.flow`): per-function summaries of held locks,
blocking operations and call sites feed a call-graph fixpoint.

Run it as a module::

    python -m repro.analysis paths...
    python -m repro.analysis --check-catalogue

There is no suppression comment.  RA002 accepts a justification comment
on the ``except`` line and RA010 reads its ``BLOCKING_ALLOWLIST``; see
the README's "Static analysis & typing" section for the rule table.
"""

from repro.analysis.engine import (
    AnalysisResult,
    FileContext,
    Finding,
    Rule,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analysis.flow import ProjectFlow, build_flow
from repro.analysis.reporters import render_text
from repro.analysis.rules import ALL_RULES, rules_by_id
from repro.analysis.summaries import FunctionSummary, summarize_module

__all__ = [
    "ALL_RULES",
    "AnalysisResult",
    "FileContext",
    "Finding",
    "FunctionSummary",
    "ProjectFlow",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "build_flow",
    "iter_python_files",
    "render_text",
    "rules_by_id",
    "summarize_module",
]
