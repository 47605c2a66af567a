"""The interprocedural fixpoint: call graph + blocking reachability.

This is the ARefine half of the analysis pass (see
:mod:`repro.analysis.summaries` for the PEval half): per-function
summaries are stitched into a project call graph, and one demand-driven
fixpoint answers the question RA010 asks —
:meth:`ProjectFlow.block_reason`: may this function block, and through
which call chain?

Call resolution is deliberately *may*-analysis: ``self.method()``
resolves within the defining class, bare names through module functions
and ``from``-imports, ``ClassName(...)`` to ``__init__``, and plain
attribute calls by (non-generic) unique-ish method name with a small
candidate cap.  Over-linking can only add edges, so the analyses stay
conservative; generic builtin-shaped names are skipped so the graph is
not wired to ``dict.get`` noise.

The fixpoint is a memoised depth-first traversal with an on-stack
guard: a cycle member contributes nothing on re-entry (its direct facts
were already collected on first entry), which is the standard
least-fixpoint shortcut for purely-additive transfer functions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import FileContext, Finding
from repro.analysis.summaries import (
    CallSite,
    FunctionSummary,
    GENERIC_METHOD_NAMES,
    ModuleSummary,
    summarize_module,
)

__all__ = ["ProjectFlow", "build_flow", "is_exclusive_token"]

FnKey = Tuple[str, str]

#: more same-named methods than this and an attr call resolves to nothing
#: (linking a popular name everywhere would flood the graph with noise).
_ATTR_CANDIDATE_CAP = 3


def is_exclusive_token(token: str) -> bool:
    """A held token blocks other acquirers (read side does not)."""
    return not token.endswith(":read")


class ProjectFlow:
    """Call graph + fixpoints over one set of module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {m.module: m for m in modules}
        self.functions: Dict[FnKey, FunctionSummary] = {}
        self._methods_by_name: Dict[str, List[FunctionSummary]] = {}
        self._module_funcs: Dict[Tuple[str, str], FunctionSummary] = {}
        self._class_method: Dict[Tuple[str, str], FunctionSummary] = {}
        self._class_init: Dict[str, FunctionSummary] = {}
        for mod in modules:
            for fn in mod.functions:
                self.functions[fn.key] = fn
                if fn.cls is not None and fn.qualname == f"{fn.cls}.{fn.name}":
                    self._methods_by_name.setdefault(fn.name, []).append(fn)
                    self._class_method[(fn.cls, fn.name)] = fn
                    if fn.name == "__init__":
                        self._class_init[fn.cls] = fn
                elif fn.cls is None and fn.qualname == fn.name:
                    self._module_funcs[(fn.module, fn.name)] = fn
        # memo table for the demand-driven fixpoint
        self._block: Dict[FnKey, Optional[Tuple[str, ...]]] = {}
        #: per-rule finding cache filled by the flow rules (keyed rule id)
        self.rule_cache: Dict[str, List[Finding]] = {}

    # -- call resolution ------------------------------------------------
    def resolve(
        self, caller: FunctionSummary, call: CallSite
    ) -> List[FunctionSummary]:
        """Possible project-local targets of one call site (may-analysis)."""
        name = call.name
        if call.kind == "self" and call.receiver is None:
            if caller.cls is not None:
                hit = self._class_method.get((caller.cls, name))
                if hit is not None:
                    return [hit]
            return self._by_method_name(name)
        if call.kind == "bare":
            nested = self.functions.get(
                (caller.module, f"{caller.qualname}.<locals>.{name}")
            )
            if nested is not None:
                return [nested]
            local = self._module_funcs.get((caller.module, name))
            if local is not None:
                return [local]
            init = self._class_init.get(name)
            if init is not None:
                return [init]
            mod = self.modules.get(caller.module)
            if mod is not None and name in mod.imported_names:
                src_module, attr = mod.imported_names[name]
                target = self._module_funcs.get((src_module, attr))
                if target is not None:
                    return [target]
                init = self._class_init.get(attr)
                if init is not None:
                    return [init]
            return []
        if call.kind == "module" and call.receiver is not None:
            mod = self.modules.get(caller.module)
            if mod is not None:
                dotted = mod.module_aliases.get(call.receiver)
                if dotted is not None:
                    target = self._module_funcs.get((dotted, name))
                    if target is not None:
                        return [target]
            return self._by_method_name(name)
        return self._by_method_name(name)

    def _by_method_name(self, name: str) -> List[FunctionSummary]:
        if name in GENERIC_METHOD_NAMES:
            return []
        candidates = self._methods_by_name.get(name, [])
        if 0 < len(candidates) <= _ATTR_CANDIDATE_CAP:
            return candidates
        return []

    # -- fixpoint: may this function block? -----------------------------
    def block_reason(
        self, key: FnKey, _stack: Optional[Set[FnKey]] = None
    ) -> Optional[Tuple[str, ...]]:
        """A witness chain ending in a blocking op, or ``None``.

        ``("_flush", "open(...) [file-io]")`` reads: calls ``_flush``,
        which performs catalogued file IO.
        """
        if key in self._block:
            return self._block[key]
        stack = _stack if _stack is not None else set()
        if key in stack:
            return None
        fn = self.functions.get(key)
        if fn is None:
            return None
        stack.add(key)
        witness: Optional[Tuple[str, ...]] = None
        if fn.blocking:
            op = fn.blocking[0]
            witness = (f"{op.detail} [{op.kind}]",)
        else:
            for call in fn.calls:
                for callee in self.resolve(fn, call):
                    inner = self.block_reason(callee.key, stack)
                    if inner is not None:
                        witness = (callee.qualname,) + inner
                        break
                if witness is not None:
                    break
        stack.discard(key)
        self._block[key] = witness
        return witness


def build_flow(contexts: Sequence[FileContext]) -> ProjectFlow:
    """Summarize every parsed file and assemble the project flow."""
    return ProjectFlow([summarize_module(ctx) for ctx in contexts])
