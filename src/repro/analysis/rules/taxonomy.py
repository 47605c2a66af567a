"""RA002 — exception taxonomy discipline.

Library code under ``repro`` raises members of the
:class:`~repro.exceptions.ReproError` hierarchy so the service facade can
map failures to the closed wire-protocol ``code`` enum by *type*.  This
rule flags:

* ``raise SomeError(...)`` where ``SomeError`` is a recognisable
  exception class that is neither a ``ReproError`` subclass nor on the
  small builtin allowlist (argument-validation ``ValueError`` /
  ``TypeError``, control-flow ``SystemExit`` etc.);
* blind handlers — bare ``except:``, ``except Exception:``,
  ``except BaseException:`` — whose body neither re-raises nor carries a
  justification comment on the ``except`` line.

Names the rule cannot resolve (``raise exc`` of a caught variable,
``raise cls(...)``) are skipped rather than guessed at.  Classes defined
in the analysed file whose bases chain to an allowed name are allowed
too, so local ``class FooError(ReproError)`` definitions pass as-is.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, List, Optional, Set

from repro.analysis.engine import FileContext, Finding, Rule

__all__ = ["ExceptionTaxonomyRule", "ALLOWED_BUILTIN_RAISES"]

#: Builtins that remain legitimate raises inside library code.
ALLOWED_BUILTIN_RAISES = frozenset(
    {
        "ValueError",  # argument validation at API boundaries
        "TypeError",  # argument validation at API boundaries
        "NotImplementedError",
        "AssertionError",
        "StopIteration",
        "KeyboardInterrupt",
        "SystemExit",  # CLI entry points
    }
)

_BLIND = frozenset({"Exception", "BaseException"})


def call_name(func: ast.expr) -> Optional[str]:
    """The terminal name of a call target (``a.b.C(...)`` -> ``C``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def handler_type_names(handler: ast.ExceptHandler) -> FrozenSet[str]:
    """The class names an ``except`` clause catches (empty for bare)."""
    node = handler.type
    if node is None:
        return frozenset()
    names = []
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    for element in elements:
        name = call_name(element)
        if name is not None:
            names.append(name)
    return frozenset(names)


def exception_names() -> FrozenSet[str]:
    """Every builtin exception class name (``ValueError``, ...)."""
    import builtins

    return frozenset(
        name
        for name in dir(builtins)
        if isinstance(getattr(builtins, name), type)
        and issubclass(getattr(builtins, name), BaseException)
    )


def _repro_error_names() -> FrozenSet[str]:
    """Names of every ``ReproError`` subclass, by runtime introspection.

    Falls back to a pinned snapshot when :mod:`repro.exceptions` is not
    importable (e.g. the analyzer running against a foreign checkout).
    """
    try:
        from repro import exceptions as exc_mod
    except Exception:  # pragma: no cover - import environment broken
        return frozenset(
            {
                "ReproError",
                "GraphError",
                "QueryError",
                "DatasetError",
                "IndexBuildError",
                "BudgetError",
            }
        )
    base = exc_mod.ReproError
    return frozenset(
        name
        for name in dir(exc_mod)
        if isinstance(getattr(exc_mod, name), type)
        and issubclass(getattr(exc_mod, name), base)
    )


def _contains_raise(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


class ExceptionTaxonomyRule(Rule):
    id = "RA002"
    title = "raise ReproError subclasses; no silent blind excepts"
    rationale = (
        "The facade's error->code mapping and the 'no library exception "
        "escapes execute' contract both depend on a closed taxonomy; "
        "swallowed blind excepts hide real defects."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        allowed: Set[str] = set(_repro_error_names()) | set(ALLOWED_BUILTIN_RAISES)
        builtin_exceptions = exception_names()
        # Two passes so locally-defined chains (A(ReproError), B(A)) resolve.
        for _ in range(2):
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    base_names = {
                        name
                        for name in (call_name(b) for b in node.bases)
                        if name is not None
                    }
                    if base_names & allowed:
                        allowed.add(node.name)

        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                finding = self._check_raise(ctx, node, allowed, builtin_exceptions)
                if finding is not None:
                    findings.append(finding)
            elif isinstance(node, ast.ExceptHandler):
                finding = self._check_handler(ctx, node)
                if finding is not None:
                    findings.append(finding)
        return findings

    def _check_raise(
        self,
        ctx: FileContext,
        node: ast.Raise,
        allowed: Set[str],
        builtin_exceptions: FrozenSet[str],
    ) -> Optional[Finding]:
        if node.exc is None:
            return None  # bare re-raise
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        name = call_name(target)
        if name is None or name in allowed:
            return None
        looks_like_exception = (
            name in builtin_exceptions
            or name.endswith("Error")
            or name.endswith("Exception")
        )
        if not (name[:1].isupper() and looks_like_exception):
            return None  # unresolvable variable; do not guess
        return self.finding(
            ctx,
            node,
            f"raise of `{name}` outside the ReproError taxonomy "
            f"(use a ReproError subclass, or an allowlisted builtin)",
        )

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler
    ) -> Optional[Finding]:
        names = handler_type_names(node)
        blind = node.type is None or bool(names & _BLIND)
        if not blind:
            return None
        if _contains_raise(node.body):
            return None
        if ctx.has_comment_on_line(node.lineno):
            return None
        caught = "bare except" if node.type is None else f"except {sorted(names)[0]}"
        return self.finding(
            ctx,
            node,
            f"blind `{caught}` without re-raise or justification comment "
            f"(narrow it, re-raise, or justify on the except line)",
        )
