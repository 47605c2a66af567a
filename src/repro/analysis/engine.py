"""The rule engine: file contexts and rule dispatch.

Design
------
A :class:`Rule` declares a stable id (``RA001`` ...), a one-line
invariant, and two methods:

* :meth:`Rule.applies_to` — a cheap path/module predicate so rules
  scoped to (say) ``repro.*`` never walk unrelated trees;
* :meth:`Rule.check` — yields :class:`Finding` objects for one parsed
  file (:class:`FileContext` carries the ``ast`` tree, the dotted
  module guess and the raw lines).

The engine parses each file exactly once and runs every rule whose
scope matches.  There is no suppression comment: a rule's exemptions
live in the rule itself (RA002's justification comment on the
``except`` line, RA010's ``BLOCKING_ALLOWLIST``).

Fixture testing uses ``force=True``: scope predicates are bypassed so a
rule can be exercised against ``tests/analysis_fixtures/*`` files that
live outside its production scope.

Flow rules
----------
A rule may set ``needs_flow = True`` to request the interprocedural
context (:class:`repro.analysis.flow.ProjectFlow`).  ``analyze_paths``
then runs in two phases — parse every file first, build one shared flow
over the files a flow rule covers, then dispatch rules per file with
``ctx.flow`` set — so cross-file findings (transitive blocking) see the
whole project, and out-of-scope files never join call resolution.  In
single-source mode (fixtures, ``analyze_source``) a one-file flow is
built on demand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is type-only
    from repro.analysis.flow import ProjectFlow

__all__ = [
    "AnalysisResult",
    "FileContext",
    "Finding",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "module_name_for",
    "parse_context",
]

#: Directory names never descended into when walking path arguments.
SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache", ".hypothesis"})

#: Directories holding deliberately-violating rule fixtures; skipped when
#: walking, still analyzable when a file inside is named explicitly.
FIXTURE_DIRS = frozenset({"analysis_fixtures"})


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def module_name_for(path: str) -> str:
    """Best-effort dotted module name for a file path.

    ``src/repro/core/budget.py`` -> ``repro.core.budget``;
    ``tests/test_obs.py`` -> ``tests.test_obs``.  Used by rule scope
    predicates, so only the ``repro``-rooted shape needs to be exact.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    for anchor in ("repro", "tests", "scripts", "examples"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FileContext:
    """Everything a rule may inspect about one parsed file."""

    path: str
    tree: ast.Module
    module: str
    lines: List[str]
    force: bool = False
    #: interprocedural context, set when any active rule ``needs_flow``
    flow: Optional["ProjectFlow"] = None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def has_comment_on_line(self, lineno: int) -> bool:
        """Whether the physical line carries a (justification) comment."""
        text = self.line_text(lineno)
        return "#" in text


class Rule:
    """Base class for one ``RAxxx`` invariant."""

    id: str = "RA000"
    title: str = "unnamed rule"
    rationale: str = ""
    #: request the interprocedural :class:`ProjectFlow` on ``ctx.flow``
    needs_flow: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


@dataclass
class AnalysisResult:
    """Findings plus bookkeeping from one ``analyze_paths`` run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    errors: List[str] = field(default_factory=list)

    def counts_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


def _needs_flow(rules: Sequence[Rule], ctx: FileContext) -> bool:
    return any(
        rule.needs_flow and (ctx.force or rule.applies_to(ctx))
        for rule in rules
    )


def _check_context(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Dispatch rules over one parsed file."""
    findings: List[Finding] = []
    for rule in rules:
        if ctx.force or rule.applies_to(ctx):
            findings.extend(rule.check(ctx))
    return sorted(findings)


def parse_context(source: str, path: str, force: bool = False) -> FileContext:
    """Parse one source blob into a rule-ready :class:`FileContext`."""
    return FileContext(
        path=path,
        tree=ast.parse(source, filename=path),
        module=module_name_for(path),
        lines=source.splitlines(),
        force=force,
    )


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule],
    force: bool = False,
) -> List[Finding]:
    """Run ``rules`` over one source blob."""
    ctx = parse_context(source, path, force=force)
    if _needs_flow(rules, ctx):
        from repro.analysis.flow import build_flow

        ctx.flow = build_flow([ctx])
    return _check_context(ctx, rules)


def analyze_file(
    path: str, rules: Sequence[Rule], force: bool = False
) -> List[Finding]:
    """Parse and analyze one file (see :func:`analyze_source`)."""
    source = Path(path).read_text(encoding="utf-8")
    return analyze_source(source, path, rules, force=force)


def iter_python_files(paths: Sequence[str]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths``, skipping cache/fixture dirs.

    A path naming a file directly is always yielded, even inside a
    fixture directory — that is how fixture tests opt in.
    """
    seen = set()
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            key = str(p)
            if key not in seen:
                seen.add(key)
                yield key
            continue
        for sub in sorted(p.rglob("*.py")):
            parts = set(sub.parts)
            if parts & SKIP_DIRS or parts & FIXTURE_DIRS:
                continue
            key = str(sub)
            if key not in seen:
                seen.add(key)
                yield key


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    force: bool = False,
) -> AnalysisResult:
    """Analyze every Python file reachable from ``paths``."""
    from repro.analysis.rules import ALL_RULES

    active: List[Rule] = list(ALL_RULES if rules is None else rules)

    # Phase 1: parse everything.  Flow rules need the whole project in
    # hand before the first per-file check runs.
    result = AnalysisResult()
    contexts: List[FileContext] = []
    for file_path in iter_python_files(paths):
        try:
            source = Path(file_path).read_text(encoding="utf-8")
            contexts.append(parse_context(source, file_path, force=force))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            result.errors.append(f"{file_path}: {exc}")

    # Phase 2: one shared interprocedural context over the files a flow
    # rule covers, so out-of-scope methods never join call resolution.
    in_scope = [ctx for ctx in contexts if _needs_flow(active, ctx)]
    if in_scope:
        from repro.analysis.flow import build_flow

        flow = build_flow(in_scope)
        for ctx in in_scope:
            ctx.flow = flow

    for ctx in contexts:
        result.files_checked += 1
        result.findings.extend(_check_context(ctx, active))
    result.findings.sort()
    return result
