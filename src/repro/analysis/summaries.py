"""Per-function summaries: the cheap half of the flow analysis.

PPKWS's own architecture — a cheap partial evaluation (PEval) followed
by a bounded refinement fixpoint (ARefine) — is applied here to the
*analysis* layer: this module is the PEval of the interprocedural pass.
One linear AST walk per function produces a :class:`FunctionSummary`
recording everything the fixpoint in :mod:`repro.analysis.flow` needs:

* **locks** — every lock acquisition (``with self._x_lock:``,
  ``with self._network_lock(n).write_locked():``), with the set of lock
  tokens already held lexically at that point (the raw material of the
  lock-order graph) and whether the acquisition is *exclusive* (a plain
  mutex / condition / rwlock write side) or *shared* (rwlock read side);
* **blocking** — catalogued potentially-blocking operations (file IO,
  ``pickle``, ``copy.deepcopy``, ``time.sleep``, pipe ``send``/``recv``,
  queue ``put``/``get``, ``Future.result``, process spawn/join,
  executor ``submit``), again with the lexically-held lock set;
* **calls** — resolvable call sites with the held lock set and whether a
  ``budget`` argument is threaded through;
* **impure** — RNG / wall-clock / shared-state-mutation operations (the
  raw material of the RA012 bit-identity rule);
* cheap per-function facts: does it take a ``budget`` parameter, does it
  contain a vertex-expanding loop (the RA004 heuristic).

Summaries are purely lexical and never execute anything; all
cross-function reasoning lives in :class:`repro.analysis.flow.ProjectFlow`.

Lock tokens
-----------
A token names a lock *family*, not an instance: ``self._engines_lock``
inside ``PPKWSService`` becomes ``PPKWSService._engines_lock``; a
non-``self`` receiver keeps the bare attribute name (``w.lock`` ->
``lock``).  RWLock sides get a ``:read`` / ``:write`` suffix and
:func:`base_token` strips it for ordering purposes.  Two locks that
share a token merge into one graph node — that can only hide cycles,
never invent them — and re-acquiring the *same* token is deliberately
not an ordering edge (token identity cannot distinguish instances of a
per-object lock family).
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
    "ImpureOp",
    "LockUse",
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
class LockUse:
    """One lock acquisition, with what was already held around it."""

    token: str  #: canonical family token, e.g. ``PPKWSService._engines_lock``
    exclusive: bool  #: mutex/condition/write side (True) vs read side
    held: FrozenSet[str]  #: tokens lexically held when this one is taken
    site: Site


@dataclass(frozen=True)
class BlockingOp:
    """One catalogued potentially-blocking operation."""

    kind: str  #: catalogue key: ``file-io`` / ``pickle`` / ``deepcopy`` / ...
    detail: str  #: human rendering, e.g. ``copy.deepcopy(...)``
    held: FrozenSet[str]
    site: Site


@dataclass(frozen=True)
class ImpureOp:
    """One RNG / clock / shared-state-mutation operation (RA012)."""

    kind: str  #: ``rng`` / ``clock`` / ``env`` / ``global`` / ``engine-mutation``
    detail: str
    site: Site


@dataclass(frozen=True)
class CallSite:
    """One call to a (possibly resolvable) project function."""

    name: str  #: terminal callee name (``a.b.f(...)`` -> ``f``)
    kind: str  #: ``self`` / ``bare`` / ``attr`` / ``module``
    receiver: Optional[str]  #: simple receiver name for attr/module calls
    passes_budget: bool  #: a ``budget``-carrying argument is forwarded
    held: FrozenSet[str]  #: lock tokens lexically held at the call
    site: Site


@dataclass
class FunctionSummary:
    """Everything the interprocedural fixpoint needs about one function."""

    module: str
    qualname: str  #: ``Class.method``, ``func``, or ``outer.<locals>.inner``
    name: str
    cls: Optional[str]
    site: Site
    has_budget_param: bool
    expands: bool  #: contains a vertex-expanding loop (RA004 heuristic)
    locks: List[LockUse] = field(default_factory=list)
    blocking: List[BlockingOp] = field(default_factory=list)
    impure: List[ImpureOp] = field(default_factory=list)
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
    #: class names defined in this module
    classes: List[str] = field(default_factory=list)


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

#: terminal call names that are RNG (when reached through ``random``/rng)
_RNG_RECEIVERS = frozenset({"random", "rng", "nprandom"})
_RNG_NAMES = frozenset(
    {
        "random", "randint", "randrange", "shuffle", "choice", "choices",
        "sample", "gauss", "uniform", "normal", "permutation", "seed",
        "default_rng", "RandomState",
    }
)

#: wall/virtual clock reads banned from bit-identity kernels
_CLOCK_CALLS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "now", "utcnow"}
)

#: the RA004 expanding-loop heuristic (shared vocabulary)
_EXPANSION_CALLS = frozenset(
    {"heappop", "heappushpop", "neighbor_items", "neighbors"}
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


def _is_budget_expr(expr: ast.expr) -> bool:
    """Whether an argument expression forwards a budget object."""
    if isinstance(expr, ast.Name):
        return "budget" in expr.id.lower()
    if isinstance(expr, ast.Attribute):
        return "budget" in expr.attr.lower()
    if isinstance(expr, ast.Call):
        parts = _receiver_parts(expr.func)
        return bool(parts) and "budget" in parts[-1].lower()
    return False


def _call_passes_budget(node: ast.Call) -> bool:
    for kw in node.keywords:
        if kw.arg == "budget":
            return True
        if kw.arg is None and isinstance(kw.value, ast.Name):
            # **kwargs forwarding: assume the budget rides along.
            return True
    return any(_is_budget_expr(arg) for arg in node.args)


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
        if not self._class_stack and not self._fn_stack:
            self.out.classes.append(node.name)
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
        args = getattr(node, "args", None)
        has_budget = False
        if args is not None:
            every = (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            has_budget = any(a.arg == "budget" for a in every)
        summary = FunctionSummary(
            module=self.ctx.module,
            qualname=qualname,
            name=name,
            cls=self._class_stack[-1] if self._class_stack else None,
            site=self._site(node),
            has_budget_param=has_budget,
            expands=False,
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
    def _lock_token(self, expr: ast.expr) -> Optional[Tuple[str, bool]]:
        """``(token, exclusive)`` for a with-context lock, else ``None``."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            mode = expr.func.attr
            if mode in ("read_locked", "write_locked"):
                inner = self._lock_token(expr.func.value)
                if inner is None:
                    parts = _receiver_parts(expr.func.value)
                    if not parts:
                        return None
                    base = self._qualify(parts)
                    if base is None:
                        return None
                else:
                    base = inner[0]
                suffix = ":read" if mode == "read_locked" else ":write"
                return base + suffix, mode == "write_locked"
            return None
        if isinstance(expr, ast.Attribute):
            name = expr.attr
            if name.endswith(_LOCK_SUFFIXES) or name == "lock":
                qualified = self._qualify_attr(expr)
                return qualified, True
            return None
        if isinstance(expr, ast.Name) and expr.id.endswith(_LOCK_SUFFIXES):
            return expr.id, True
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
        current = self._current()
        for item in node.items:
            # The context expression evaluates *before* the lock is held:
            # visit it under the outer held set (so
            # ``self._network_lock(n)``'s own locking is not mis-scoped).
            self.visit(item.context_expr)
            found = self._lock_token(item.context_expr)
            if found is None:
                continue
            token, exclusive = found
            if current is not None:
                current.locks.append(
                    LockUse(
                        token=token,
                        exclusive=exclusive,
                        held=self._held_set(),
                        site=self._site(item.context_expr),
                    )
                )
            tokens.append(token)
        self._held.extend(tokens)
        for stmt in node.body:
            self.visit(stmt)
        if tokens:
            del self._held[-len(tokens):]

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    # -- loops (expansion heuristic) ------------------------------------
    def _loop(self, node: ast.AST) -> None:
        current = self._current()
        if current is not None and not current.expands:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    fn = sub.func
                    name = (
                        fn.id if isinstance(fn, ast.Name)
                        else fn.attr if isinstance(fn, ast.Attribute)
                        else None
                    )
                    if name in _EXPANSION_CALLS:
                        current.expands = True
                        break
        self.generic_visit(node)

    visit_For = _loop
    visit_AsyncFor = _loop
    visit_While = _loop

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
                    passes_budget=_call_passes_budget(node),
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
            self._record_impurity(fn, node, parts, name, rendered)
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
                    passes_budget=_call_passes_budget(node),
                    held=held, site=site,
                )
            )
        if detail is not None:
            kind, rendered = detail
            fn.blocking.append(
                BlockingOp(kind=kind, detail=rendered, held=held, site=site)
            )

    # -- impurity (RA012 raw material) ----------------------------------
    def _record_impurity(
        self,
        fn: FunctionSummary,
        node: ast.Call,
        parts: List[str],
        name: str,
        rendered: str,
    ) -> None:
        lowered = [p.lower() for p in parts]
        if name in _RNG_NAMES and any(p in _RNG_RECEIVERS for p in lowered):
            fn.impure.append(ImpureOp("rng", rendered, self._site(node)))
        elif name in _CLOCK_CALLS and parts and parts[0] in (
            "time", "datetime", "dt"
        ):
            fn.impure.append(ImpureOp("clock", rendered, self._site(node)))

    def visit_Global(self, node: ast.Global) -> None:
        current = self._current()
        if current is not None:
            current.impure.append(
                ImpureOp(
                    "global",
                    f"global {', '.join(node.names)}",
                    self._site(node),
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        current = self._current()
        if current is not None:
            for target in node.targets:
                self._check_engine_mutation(current, target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        current = self._current()
        if current is not None:
            self._check_engine_mutation(current, node.target, node)
        self.generic_visit(node)

    def _check_engine_mutation(
        self, fn: FunctionSummary, target: ast.expr, node: ast.AST
    ) -> None:
        """Attribute writes through an ``engine``/``service`` reference.

        ``self.x = ...`` is a function's own state and stays legal;
        writing through a parameter named ``engine`` (or a stored
        ``self.engine``) mutates state shared with concurrent queries.
        """
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        inner = target.value if isinstance(target, ast.Subscript) else target
        parts = _receiver_parts(
            inner.value if isinstance(inner, ast.Attribute) else inner
        )
        shared = {"engine", "service"}
        if any(p in shared for p in parts):
            fn.impure.append(
                ImpureOp(
                    "engine-mutation",
                    ".".join(parts + (
                        [inner.attr] if isinstance(inner, ast.Attribute) else []
                    )) + " = ...",
                    self._site(node),
                )
            )


def summarize_module(ctx: FileContext) -> ModuleSummary:
    """Summarize every function in one parsed file."""
    visitor = _SummaryVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.out
