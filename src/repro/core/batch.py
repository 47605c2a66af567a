"""Batch query evaluation with a persistent completion cache.

The paper's dynamic-programming table PKA (Sec. VI-B) memoizes
portal-to-keyword lookups *within* one query.  A session issuing many
queries against the same attachment repeats those lookups across queries
— the portal set is fixed and query keywords recur — so this module
extends the idea across a whole batch: one
:class:`~repro.core.pp_rclique.CompletionCache` is shared by every query
of a :class:`BatchSession`.

A session holds facts of two lifetimes.  *Public-side* facts — the PKA
rows — depend only on the portal identity and the (immutable) public
index, so no attach or detach, of this owner or any other, makes them
stale: they live as long as the session
(:meth:`BatchSession.invalidate` drops them on request).  Answers are
bit-identical to individually evaluated queries — the cache memoizes
pure lookups — which the test suite asserts.

The one *owner-side* fact is the session's
:class:`~repro.core.framework.Attachment`.  It follows its own owner's
:meth:`~repro.core.framework.PPKWS.owner_epoch`: when that owner was
detached, re-attached or repaired between two queries, the session
re-reads the current attachment before the next query runs (a query
while detached raises instead of silently using the dead one).  The
service's answer cache keys its entries' freshness off the same counter.

Batches can carry a *whole-batch budget*: ``run_queries`` (and the
``run_knk_queries`` sugar) accept ``deadline_ms`` (and
``max_expansions``) for the entire workload.  The
remaining allowance is divided evenly across the remaining queries
before each query starts, so an early query that overruns shrinks the
slices of later ones, and a batch whose budget is already spent degrades
every remaining query immediately instead of running unbounded.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.budget import QueryBudget
from repro.core.framework import KnkQueryResult, PPKWS, QueryResult
from repro.core.pp_rclique import CompletionCache
from repro.datasets.queries import KnkQuery
from repro.graph.labeled_graph import Label, Vertex
from repro.obs import observe_batch_cache

__all__ = ["BatchSession", "BatchBudget"]


class BatchBudget:
    """Divides a whole-batch allowance across the batch's queries.

    ``slice_for(queries_left)`` returns a per-query
    :class:`QueryBudget` covering an even share of whatever time and
    expansions remain, or ``None`` when the batch is unbudgeted.
    The wall-clock share is never negative: once the batch deadline has
    passed, later queries get a zero-time budget and degrade at their
    first checkpoint.
    """

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.max_expansions = max_expansions
        self._started = time.monotonic()
        self._expansions_used = 0

    @property
    def unbudgeted(self) -> bool:
        """Whether no limit at all was configured."""
        return self.deadline_ms is None and self.max_expansions is None

    def charge(self, budget: Optional[QueryBudget]) -> None:
        """Record a finished query's expansion usage."""
        if budget is not None:
            self._expansions_used += budget.expansions

    def slice_for(self, queries_left: int) -> Optional[QueryBudget]:
        """A per-query budget for the next of ``queries_left`` queries."""
        if self.unbudgeted:
            return None
        share_ms: Optional[float] = None
        if self.deadline_ms is not None:
            elapsed_ms = (time.monotonic() - self._started) * 1000.0
            share_ms = max(self.deadline_ms - elapsed_ms, 0.0) / max(queries_left, 1)
        share_exp: Optional[int] = None
        if self.max_expansions is not None:
            left = max(self.max_expansions - self._expansions_used, 0)
            share_exp = left // max(queries_left, 1)
        return QueryBudget(deadline_ms=share_ms, max_expansions=share_exp)


class BatchSession:
    """Evaluate many queries for one owner with a shared completion cache.

    Example
    -------
    >>> from repro.graph import LabeledGraph
    >>> pub = LabeledGraph.from_edges([(0, 1)], {1: {"t"}})
    >>> priv = LabeledGraph.from_edges([(0, "x")], {"x": {"s"}})
    >>> engine = PPKWS(pub, sketch_k=2)
    >>> _ = engine.attach("bob", priv)
    >>> session = BatchSession(engine, "bob")
    >>> r1 = session.blinks(["t", "s"], tau=3.0)
    >>> r2 = session.blinks(["t", "s"], tau=3.0)  # cache-warm re-run
    >>> session.cache_hits > 0
    True
    """

    def __init__(self, engine: PPKWS, owner: str) -> None:
        self.engine = engine
        self.owner = owner
        self.attachment = engine.attachment(owner)
        self.cache = CompletionCache(enabled=engine.options.dp_completion)
        self._owner_epoch = engine.owner_epoch(owner)

    # ------------------------------------------------------------------
    def _refresh_if_stale(self) -> None:
        """Re-read the attachment if this session's owner's epoch moved.

        Another owner's attach/detach changes nothing here, and the PKA
        holds public-side facts, so it is kept either way.  Raises
        :class:`~repro.exceptions.OwnerNotAttachedError` for as long as
        this session's owner is detached.
        """
        current = self.engine.owner_epoch(self.owner)
        if current != self._owner_epoch:
            self.attachment = self.engine.attachment(self.owner)
            self._owner_epoch = current

    def _observe_cache(self, marks: tuple) -> None:
        """Report this query's cache traffic to an installed registry."""
        observe_batch_cache(
            self.cache.hits - marks[0], self.cache.misses - marks[1]
        )

    def blinks(
        self, keywords: Sequence[Label], tau: float, k: int = 10,
        require_public_private: bool = True,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """One Blinks query through the shared cache (sugar over
        :meth:`query`)."""
        result: QueryResult = self.query(
            "blinks", budget=budget,
            keywords=list(keywords), tau=tau, k=k,
            require_public_private=require_public_private,
        )
        return result

    def rclique(
        self, keywords: Sequence[Label], tau: float, k: int = 10,
        require_public_private: bool = True,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """One r-clique query through the shared cache (sugar over
        :meth:`query`)."""
        result: QueryResult = self.query(
            "rclique", budget=budget,
            keywords=list(keywords), tau=tau, k=k,
            require_public_private=require_public_private,
        )
        return result

    def knk(
        self, source: Vertex, keyword: Label, k: int,
        budget: Optional[QueryBudget] = None,
    ) -> KnkQueryResult:
        """One k-nk query through the shared cache (sugar over
        :meth:`query`)."""
        result: KnkQueryResult = self.query(
            "knk", budget=budget, source=source, keyword=keyword, k=k,
        )
        return result

    def query(
        self,
        semantics: str,
        budget: Optional[QueryBudget] = None,
        **params: object,
    ):
        """One query of any registered semantics through the shared cache.

        The generic entry point the named methods above are sugar over:
        ``semantics`` is looked up in the engine registry and run with
        ``params`` as its pipeline parameters — so a newly registered
        semantics is batchable without this class growing a method.  The
        session's persistent cache is passed through; specs that do not
        use a completion cache simply ignore it.
        """
        from repro.core.engine import semantics_spec

        spec = semantics_spec(semantics)
        self._refresh_if_stale()
        marks = self.cache.marks()
        try:
            return spec.run(
                self.engine, self.attachment, dict(params),
                budget=budget, cache=self.cache,
            )
        finally:
            self._observe_cache(marks)

    # ------------------------------------------------------------------
    def run_queries(
        self,
        semantics: str,
        queries: Sequence[Dict[str, Any]],
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ) -> List[Any]:
        """Run a workload of parameter dicts through :meth:`query`.

        Works for any registered semantics — each dict is that query's
        pipeline parameters.  ``deadline_ms`` / ``max_expansions`` bound
        the *whole batch*: the remaining allowance is split evenly across
        the remaining queries, so an exhausted batch degrades its tail
        instead of overrunning.  Unknown semantics raise
        :class:`~repro.exceptions.QueryError` before any query runs.
        """
        from repro.core.engine import semantics_spec

        semantics_spec(semantics)  # fail fast, even on an empty workload
        batch = BatchBudget(deadline_ms, max_expansions)
        results: List[Any] = []
        for i, params in enumerate(queries):
            slice_budget = batch.slice_for(len(queries) - i)
            results.append(self.query(semantics, budget=slice_budget, **params))
            batch.charge(slice_budget)
        return results

    def run_knk_queries(
        self,
        queries: Sequence[KnkQuery],
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
    ) -> List[KnkQueryResult]:
        """Run a workload of k-nk queries, optionally batch-budgeted."""
        return self.run_queries(
            "knk",
            [{"source": q.source, "keyword": q.keyword, "k": q.k} for q in queries],
            deadline_ms=deadline_ms,
            max_expansions=max_expansions,
        )

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Total cache hits across the session."""
        return self.cache.hits

    @property
    def cache_misses(self) -> int:
        """Total cache misses across the session."""
        return self.cache.misses

    @property
    def cache_hit_rate(self) -> float:
        """Hits / lookups across the session (0.0 before any lookup)."""
        total = self.cache.hits + self.cache.misses
        return self.cache.hits / total if total else 0.0

    def invalidate(self) -> None:
        """Drop cached lookups (call after mutating the private graph)."""
        self.cache.invalidate()
