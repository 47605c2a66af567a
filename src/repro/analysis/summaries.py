"""Per-function summaries: the cheap half of the flow analysis.

PPKWS's own architecture — a cheap partial evaluation (PEval) followed
by a bounded refinement fixpoint (ARefine) — is applied here to the
*analysis* layer: this module is the PEval of the interprocedural pass.
One linear AST walk per function produces a :class:`FunctionSummary`
recording everything the fixpoint in :mod:`repro.analysis.flow` needs:

* **blocking** — catalogued potentially-blocking operations (file IO,
  ``pickle``, ``copy.deepcopy``, ``time.sleep``, pipe ``send``/``recv``,
  queue ``put``/``get``, ``Future.result``, process spawn/join,
  executor ``submit``), with the set of lock tokens lexically held at
  that point;
* **calls** — resolvable call sites, again with the held lock set.

Summaries are purely lexical and never execute anything; all
cross-function reasoning lives in :class:`repro.analysis.flow.ProjectFlow`.

Lock tokens
-----------
A token names a lock *family*, not an instance: ``self._networks_lock``
inside ``PPKWSService`` becomes ``PPKWSService._networks_lock``; a
non-``self`` receiver keeps the bare attribute name (``w.lock`` ->
``lock``).  RWLock sides get a ``:read`` / ``:write`` suffix (only the
write side is exclusive) and :func:`base_token` strips it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.analysis.engine import FileContext

__all__ = [
    "BlockingOp",
    "CallSite",
    "FunctionSummary",
    "ModuleSummary",
    "Site",
    "base_token",
    "summarize_module",
]


@dataclass(frozen=True)
class Site:
    """A source location a finding can anchor to."""

    path: str
    line: int
    col: int


@dataclass(frozen=True)
class BlockingOp:
    """One catalogued potentially-blocking operation."""

    kind: str  #: catalogue key: ``file-io`` / ``pickle`` / ``deepcopy`` / ...
    detail: str  #: human rendering, e.g. ``copy.deepcopy(...)``
    held: FrozenSet[str]
    site: Site


@dataclass(frozen=True)
class CallSite:
    """One call to a (possibly resolvable) project function."""

    name: str  #: terminal callee name (``a.b.f(...)`` -> ``f``)
    kind: str  #: ``self`` / ``bare`` / ``attr`` / ``module``
    receiver: Optional[str]  #: simple receiver name for attr/module calls
    held: FrozenSet[str]  #: lock tokens lexically held at the call
    site: Site


@dataclass
class FunctionSummary:
    """Everything the interprocedural fixpoint needs about one function."""

    module: str
    qualname: str  #: ``Class.method``, ``func``, or ``outer.<locals>.inner``
    name: str
    cls: Optional[str]
    blocking: List[BlockingOp] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class ModuleSummary:
    """One file's functions plus its import aliases (for call resolution)."""

    module: str
    path: str
    functions: List[FunctionSummary] = field(default_factory=list)
    #: local name -> dotted module it refers to (``import x.y as z``)
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, attr) from ``from module import attr``
    imported_names: Dict[str, Tuple[str, str]] = field(default_factory=dict)


def base_token(token: str) -> str:
    """Strip an rwlock ``:read`` / ``:write`` mode suffix."""
    return token.split(":", 1)[0]


# ----------------------------------------------------------------------
# catalogues
# ----------------------------------------------------------------------
#: attribute names that suffix a lock-ish object
_LOCK_SUFFIXES = ("_lock", "_cond")

#: generic method names never used for call-graph resolution — they are
#: overwhelmingly dict/list/str builtins, so linking them to same-named
#: project methods would wire the graph to noise.
GENERIC_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "close", "copy", "count", "decode",
        "discard", "encode", "endswith", "extend", "format", "get",
        "index", "insert", "is_dir", "is_file", "items", "join", "keys",
        "mkdir", "open", "pop", "popitem", "put", "read", "remove",
        "setdefault", "sort", "split", "start", "startswith", "strip",
        "update", "values", "write",
    }
)

#: ``module.attr`` calls that are blocking, keyed by (receiver, attr)
_BLOCKING_MODULE_CALLS: Dict[Tuple[str, str], str] = {
    ("time", "sleep"): "sleep",
    ("pickle", "load"): "pickle",
    ("pickle", "loads"): "pickle",
    ("pickle", "dump"): "pickle",
    ("pickle", "dumps"): "pickle",
    ("copy", "deepcopy"): "deepcopy",
    ("os", "replace"): "file-io",
    ("os", "rename"): "file-io",
    ("os", "fsync"): "file-io",
    ("shutil", "copy"): "file-io",
    ("shutil", "move"): "file-io",
}

#: bare-name calls that are blocking
_BLOCKING_BARE_CALLS: Dict[str, str] = {
    "open": "file-io",
    "deepcopy": "deepcopy",
    # AnswerCache's copiers: O(response) Python, must stay off its lock
    "_wire_snapshot": "wire-copy",
    "_wire_clone": "wire-copy",
    "sleep": "sleep",
    "atomic_write": "file-io",
    "save_index": "file-io",
    "load_index": "file-io",
    "save_graph": "file-io",
    "load_graph": "file-io",
}

#: attribute calls that are blocking regardless of receiver
_BLOCKING_ATTR_CALLS: Dict[str, str] = {
    "recv": "ipc",
    "send": "ipc",
    "poll": "ipc",
    "read_text": "file-io",
    "write_text": "file-io",
    "read_bytes": "file-io",
    "write_bytes": "file-io",
    "result": "future-wait",
    "submit": "executor-submit",
    "execute_many": "executor-submit",
}

#: attribute calls that are blocking only for process/queue-ish receivers
_RECEIVER_GATED_ATTR_CALLS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("join", ("proc", "process", "thread", "worker", "t"), "process"),
    ("start", ("proc", "process"), "process"),
    ("put", ("queue",), "queue"),
    ("get", ("queue",), "queue"),
    ("terminate", ("proc", "process"), "process"),
)


def _receiver_parts(expr: ast.expr) -> List[str]:
    """The dotted-name chain of a receiver (``a.b.c`` -> ["a","b","c"]).

    A call in the chain contributes its callee's chain in place:
    ``self._network_lock(n).write_locked`` -> ``["self",
    "_network_lock", "write_locked"]``.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if isinstance(node, ast.Name):
        return [node.id] + parts
    if isinstance(node, ast.Call):
        return _receiver_parts(node.func) + parts
    return parts


class _SummaryVisitor(ast.NodeVisitor):
    """One pass over a module: builds every function's summary."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.out = ModuleSummary(module=ctx.module, path=ctx.path)
        self._class_stack: List[str] = []
        self._fn_stack: List[FunctionSummary] = []
        self._held: List[str] = []

    # -- plumbing -------------------------------------------------------
    def _site(self, node: ast.AST) -> Site:
        return Site(
            self.ctx.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0) + 1,
        )

    def _held_set(self) -> FrozenSet[str]:
        return frozenset(self._held)

    def _current(self) -> Optional[FunctionSummary]:
        return self._fn_stack[-1] if self._fn_stack else None

    # -- imports --------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".", 1)[0]
            self.out.module_aliases[local] = (
                alias.name if alias.asname else alias.name.split(".", 1)[0]
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports are not used in this tree
        for alias in node.names:
            local = alias.asname or alias.name
            self.out.imported_names[local] = (node.module, alias.name)

    # -- scope tracking -------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _enter_function(self, node: ast.AST, name: str) -> None:
        parts: List[str] = []
        if self._fn_stack:
            parts = [self._fn_stack[-1].qualname, "<locals>"]
        elif self._class_stack:
            parts = [".".join(self._class_stack)]
        qualname = ".".join(parts + [name]) if parts else name
        summary = FunctionSummary(
            module=self.ctx.module,
            qualname=qualname,
            name=name,
            cls=self._class_stack[-1] if self._class_stack else None,
        )
        self.out.functions.append(summary)
        self._fn_stack.append(summary)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, node.name)
        # A nested def's body does not run where it is defined: lexically
        # held locks of the enclosing function do not apply inside it.
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Treated as part of the enclosing function (no own summary) but
        # without the held-lock context — it runs later, elsewhere.
        saved, self._held = self._held, []
        self.generic_visit(node)
        self._held = saved

    # -- locks ----------------------------------------------------------
    def _lock_token(self, expr: ast.expr) -> Optional[str]:
        """The lock token a with-context expression takes, else ``None``."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            mode = expr.func.attr
            if mode in ("read_locked", "write_locked"):
                base = self._lock_token(expr.func.value)
                if base is None:
                    base = self._qualify(_receiver_parts(expr.func.value))
                    if base is None:
                        return None
                return base + (":read" if mode == "read_locked" else ":write")
            return None
        if isinstance(expr, ast.Attribute):
            name = expr.attr
            if name.endswith(_LOCK_SUFFIXES) or name == "lock":
                return self._qualify_attr(expr)
            return None
        if isinstance(expr, ast.Name) and expr.id.endswith(_LOCK_SUFFIXES):
            return expr.id
        return None

    def _qualify(self, parts: List[str]) -> Optional[str]:
        """Class-qualify a ``self``-rooted dotted chain's terminal name."""
        if not parts:
            return None
        terminal = parts[-1]
        if parts[0] == "self" and self._class_stack:
            return f"{self._class_stack[-1]}.{terminal}"
        return terminal

    def _qualify_attr(self, expr: ast.Attribute) -> str:
        if isinstance(expr.value, ast.Name) and expr.value.id == "self" and (
            self._class_stack
        ):
            return f"{self._class_stack[-1]}.{expr.attr}"
        return expr.attr

    def visit_With(self, node: ast.With) -> None:
        tokens: List[str] = []
        for item in node.items:
            # The context expression evaluates *before* the lock is held:
            # visit it under the outer held set (so
            # ``self._network_lock(n)``'s own locking is not mis-scoped).
            self.visit(item.context_expr)
            token = self._lock_token(item.context_expr)
            if token is not None:
                tokens.append(token)
        self._held.extend(tokens)
        for stmt in node.body:
            self.visit(stmt)
        if tokens:
            del self._held[-len(tokens):]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- calls ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        current = self._current()
        if current is not None:
            self._classify_call(current, node)
        self.generic_visit(node)

    def _classify_call(self, fn: FunctionSummary, node: ast.Call) -> None:
        func = node.func
        site = self._site(node)
        held = self._held_set()
        detail: Optional[Tuple[str, str]] = None  # (kind, rendering)

        if isinstance(func, ast.Name):
            name = func.id
            if name in _BLOCKING_BARE_CALLS:
                detail = (_BLOCKING_BARE_CALLS[name], f"{name}(...)")
            fn.calls.append(
                CallSite(
                    name=name, kind="bare", receiver=None,
                    held=held, site=site,
                )
            )
        elif isinstance(func, ast.Attribute):
            name = func.attr
            parts = _receiver_parts(func.value)
            receiver = parts[-1] if parts else None
            root = parts[0] if parts else None
            rendered = ".".join(parts[-2:] + [name]) + "(...)"
            if root is not None and (root, name) in _BLOCKING_MODULE_CALLS:
                detail = (_BLOCKING_MODULE_CALLS[(root, name)], rendered)
            elif name in _BLOCKING_ATTR_CALLS:
                detail = (_BLOCKING_ATTR_CALLS[name], rendered)
            else:
                for attr, needles, kind in _RECEIVER_GATED_ATTR_CALLS:
                    if name != attr or receiver is None:
                        continue
                    low = receiver.lower()
                    if any(needle in low for needle in needles):
                        detail = (kind, rendered)
                        break
            if detail is not None and name == "wait" and receiver is not None:
                detail = None  # handled below as a condition wait
            if name == "wait":
                token = (
                    self._qualify_attr(func.value)
                    if isinstance(func.value, ast.Attribute)
                    else receiver
                )
                # ``cond.wait()`` while holding ``cond`` is the condition
                # -variable idiom (it releases the lock); waiting on
                # anything else blocks for real.
                if token is not None and token not in held:
                    detail = ("wait", rendered)
            kind = "self" if root == "self" else (
                "module" if root is not None and (
                    root in self.out.module_aliases
                    or root in self.out.imported_names
                ) else "attr"
            )
            fn.calls.append(
                CallSite(
                    name=name, kind=kind, receiver=receiver if kind != "self"
                    else (parts[-1] if len(parts) > 1 else None),
                    held=held, site=site,
                )
            )
        if detail is not None:
            kind, rendered = detail
            fn.blocking.append(
                BlockingOp(kind=kind, detail=rendered, held=held, site=site)
            )


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Summarize every function in one parsed file."""
    visitor = _SummaryVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.out
