"""RA010: blocking while holding an exclusive lock.

The rule consumes the shared :class:`repro.analysis.flow.ProjectFlow`
(``needs_flow = True``): findings are computed once per project and
cached on the flow object, then filtered per file.

Catalogued potentially-blocking operations (file IO, pickle,
``copy.deepcopy``, ``time.sleep``, pipe/queue ops, future waits,
executor submits) may not run while a mutex / rwlock write side is
held, directly or through any resolvable call chain.  The rwlock *read*
side is deliberately exempt: queries run under per-network read locks
by design and readers do not serialize each other.  Deliberate
hold-while-blocking patterns are catalogued in
:data:`BLOCKING_ALLOWLIST` with their justification, so the inventory
of "locks that own a slow resource" stays reviewable in one place.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.engine import FileContext, Finding, Rule
from repro.analysis.flow import ProjectFlow, is_exclusive_token
from repro.analysis.summaries import Site, base_token

__all__ = ["BLOCKING_ALLOWLIST", "BlockingUnderLockRule"]

#: base lock token -> justification for blocking while it is held.
#: Every entry documents a lock whose *purpose* is to own a slow
#: resource; holding it across the slow operation is the design, not an
#: accident.  Keep justifications concrete — this table is the audit
#: trail the README points at.
BLOCKING_ALLOWLIST: Dict[str, str] = {
    # The per-worker pipe lock exists to grant exclusive ownership of a
    # shard worker's duplex pipe for one request/response round-trip;
    # conn.send/recv under it is the lock's entire job.
    "lock": "per-worker pipe lock owns the conn across one send/recv round-trip",
    # The shard admin log lock serializes admin broadcasts so replayed
    # logs reconstruct the same state; the broadcast IPC happens under
    # it by design (admin ops are rare, queries never take it).
    "ShardServingPool._log_lock": (
        "admin-log lock serializes broadcast round-trips for replayability"
    ),
    # Admin mutations persist indexes/graphs under the per-network write
    # lock so readers never observe a half-written snapshot; the write
    # side is exclusive-by-contract and admin-only.
    "PPKWSService._network_lock": (
        "admin mutations persist snapshots under the per-network write lock"
    ),
}


class BlockingUnderLockRule(Rule):
    id = "RA010"
    title = "no blocking operation while holding an exclusive lock"
    rationale = (
        "A deepcopy/IO/IPC under a mutex turns every concurrent query "
        "into a convoy (the PR 8 AnswerCache bug); the read side of the "
        "rwlock is exempt because readers do not serialize each other."
    )
    needs_flow = True

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.module.startswith("repro.")

    def check(self, ctx: FileContext) -> List[Finding]:
        flow = ctx.flow
        if flow is None:
            return []
        findings = flow.rule_cache.get(self.id)
        if findings is None:
            findings = flow.rule_cache[self.id] = self._compute(flow)
        return [f for f in findings if f.path == ctx.path]

    @staticmethod
    def _flagged_tokens(held: FrozenSet[str]) -> List[str]:
        return sorted(
            base_token(tok)
            for tok in held
            if is_exclusive_token(tok)
            and base_token(tok) not in BLOCKING_ALLOWLIST
        )

    def _compute(self, flow: ProjectFlow) -> List[Finding]:
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()

        def emit(site: Site, message: str) -> None:
            key = (site.path, site.line, message)
            if key in seen:
                return
            seen.add(key)
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    rule=self.id,
                    message=message,
                )
            )

        for key in sorted(flow.functions):
            fn = flow.functions[key]
            for op in fn.blocking:
                locks = self._flagged_tokens(op.held)
                if locks:
                    emit(
                        op.site,
                        f"blocking {op.kind} ({op.detail}) while holding "
                        f"exclusive lock {locks[0]}",
                    )
            for call in fn.calls:
                locks = self._flagged_tokens(call.held)
                if not locks:
                    continue
                for callee in flow.resolve(fn, call):
                    chain = flow.block_reason(callee.key)
                    if chain is None:
                        continue
                    path = " -> ".join((callee.qualname,) + chain[:-1])
                    emit(
                        call.site,
                        f"call to {path} may block ({chain[-1]}) while "
                        f"holding exclusive lock {locks[0]}",
                    )
                    break
        return findings
