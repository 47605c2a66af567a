"""RA001 — lock discipline for the shared registry maps.

The serving tier's correctness under concurrency rests on a handful of
maps only ever being written while their guarding lock is held:

====================== ======================== =========================
attribute              guarded by               owner
====================== ======================== =========================
``_networks``          ``_networks_lock``       ``PPKWSService``
``_attachments``       ``_attachments_lock``    ``PPKWS``
``_owner_epochs``      ``_attachments_lock``    ``PPKWS``
====================== ======================== =========================

The rule flags any *write* (rebind, item assignment, ``del``, augmented
assignment, or a mutating method call such as ``.pop()``) to one of
these attributes that is not lexically inside a ``with <...>_lock:``
block naming the matching lock.  A nested ``def`` or ``lambda`` does
not inherit the enclosing block's lock: its body runs when it is
called, after the lock may have been released.  Reads stay
unrestricted — single-key dict reads are atomic under the GIL and the
code comments document where that is relied upon.  Constructor
initialisation (``self._networks = {}`` inside ``__init__``) is exempt:
no other thread can hold the object yet.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.analysis.engine import FileContext, Finding, Rule

__all__ = ["LockDisciplineRule", "GUARDED_ATTRIBUTES"]

#: guarded attribute -> the lock attribute that must be held for writes.
GUARDED_ATTRIBUTES: Dict[str, str] = {
    "_networks": "_networks_lock",
    "_attachments": "_attachments_lock",
    "_owner_epochs": "_attachments_lock",
}

#: method calls that mutate a dict/map in place.
_MUTATING_METHODS = frozenset(
    {"pop", "popitem", "clear", "update", "setdefault", "__setitem__"}
)


def _lock_names_in_with(node: ast.With) -> FrozenSet[str]:
    """Lock attribute/variable names entered by one ``with`` statement."""
    held = set()
    for item in node.items:
        expr = item.context_expr
        name: Optional[str] = None
        if isinstance(expr, ast.Attribute):
            name = expr.attr
        elif isinstance(expr, ast.Name):
            name = expr.id
        if name is not None and name.endswith("_lock"):
            held.add(name)
    return frozenset(held)


class _LockVisitor(ast.NodeVisitor):
    def __init__(self, rule: "LockDisciplineRule", ctx: FileContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.held: List[FrozenSet[str]] = []
        self.function_stack: List[str] = []
        self.findings: List[Finding] = []

    # -- scope tracking -------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        self.held.append(_lock_names_in_with(node))
        self.generic_visit(node)
        self.held.pop()

    visit_AsyncWith = visit_With

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested def runs later, after the enclosing `with` has released
        # its lock: it starts with nothing held.
        saved, self.held = self.held, []
        self.function_stack.append(node.name)
        self.generic_visit(node)
        self.function_stack.pop()
        self.held = saved

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved, self.held = self.held, []
        self.generic_visit(node)
        self.held = saved

    # -- mutation sites -------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Attribute)
            and func.value.attr in GUARDED_ATTRIBUTES
        ):
            self._require_lock(func.value.attr, func.value, node)
        self.generic_visit(node)

    # -- helpers --------------------------------------------------------
    def _check_target(self, target: ast.expr, stmt: ast.stmt) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element, stmt)
            return
        if isinstance(target, ast.Starred):
            self._check_target(target.value, stmt)
            return
        if isinstance(target, ast.Attribute):
            if target.attr in GUARDED_ATTRIBUTES:
                self._require_lock(target.attr, target, stmt)
        elif isinstance(target, ast.Subscript):
            value = target.value
            if isinstance(value, ast.Attribute) and value.attr in GUARDED_ATTRIBUTES:
                self._require_lock(value.attr, value, stmt)

    def _require_lock(
        self, attr: str, access: ast.Attribute, site: ast.AST
    ) -> None:
        required = GUARDED_ATTRIBUTES[attr]
        if any(required in held for held in self.held):
            return
        # Constructor initialisation: the object is not yet shared.
        if (
            self.function_stack
            and self.function_stack[-1] == "__init__"
            and isinstance(access.value, ast.Name)
            and access.value.id == "self"
        ):
            return
        self.findings.append(
            self.rule.finding(
                self.ctx,
                site,
                f"write to `{attr}` outside `with ...{required}:` "
                f"(hold the lock for every registry mutation)",
            )
        )


class LockDisciplineRule(Rule):
    id = "RA001"
    title = "registry writes must hold the matching lock"
    rationale = (
        "PPKWSService._networks and "
        "PPKWS._attachments/_owner_epochs are read by concurrent "
        "requests; unlocked writes race with check-then-act sequences."
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module == "repro" or ctx.module.startswith("repro.")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        visitor = _LockVisitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings
