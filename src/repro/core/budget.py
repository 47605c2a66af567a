"""Query budgets: deadlines, expansion caps and cooperative cancellation.

The ROADMAP's production story needs *bounded* query latency: a single
adversarial query (huge ``tau``, dense private graph, hub-heavy keyword)
must not pin a worker indefinitely.  :class:`QueryBudget` is the
cancellation token threaded cooperatively through the hot paths — the
Dijkstra variants in :mod:`repro.graph.traversal`, the semantics-level
sweeps, and the PEval / ARefine / AComplete pipeline modules all call
:meth:`QueryBudget.checkpoint` once per unit of work (typically one heap
pop, i.e. one node expansion).

``checkpoint`` is designed to be cheap enough for the innermost loops:

* the expansion counter and the cancellation flag are checked on every
  call (an integer compare and an attribute read);
* the wall clock is only read every ``check_interval`` expansions, so the
  amortized cost of deadline enforcement is a fraction of a
  ``time.monotonic()`` call per expansion;
* the interval *adapts* to the observed cost of a checkpoint: loops whose
  per-checkpoint work is heavy (e.g. one oracle refinement instead of one
  heap pop) shrink the interval so deadline overshoot stays bounded by
  wall-clock time (~:data:`TARGET_CLOCK_GAP_S`), not by expansion count.

When a limit is hit, ``checkpoint`` raises the matching member of the
:class:`~repro.exceptions.BudgetError` family.  The pipeline entry
points catch it and *degrade gracefully*: each PPKWS step produces
usable intermediate answers, so an expiring query returns the best
answers completed so far instead of nothing (see ``QueryResult.degraded``).

This module deliberately depends only on :mod:`repro.exceptions` so the
graph and semantics layers can accept a budget without import cycles.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.exceptions import (
    BudgetExhaustedError,
    DeadlineExceededError,
    QueryCancelledError,
)

__all__ = [
    "BatchBudget", "QueryBudget", "DEFAULT_CHECK_INTERVAL", "TARGET_CLOCK_GAP_S",
]

#: How many expansions pass between wall-clock reads.  At ~1 µs per heap
#: pop this bounds deadline overshoot to well under a millisecond.
DEFAULT_CHECK_INTERVAL = 256

#: Desired wall-clock spacing of deadline checks (seconds).  When the
#: observed gap between two clock reads exceeds this, the interval
#: shrinks; far below it, the interval grows back (never above the
#: configured ``check_interval``).
TARGET_CLOCK_GAP_S = 0.001


class QueryBudget:
    """A per-query budget: wall-clock deadline, expansion cap, cancel flag.

    Parameters
    ----------
    deadline_ms:
        Wall-clock budget in milliseconds, measured from construction.
        ``None`` disables deadline enforcement.
    max_expansions:
        Cap on the total number of node expansions charged via
        :meth:`checkpoint`.  ``None`` disables the cap.
    check_interval:
        Expansions between wall-clock reads (amortization of the
        deadline check).
    clock:
        Monotonic clock returning seconds; injectable for tests.

    Example
    -------
    >>> budget = QueryBudget(max_expansions=2)
    >>> budget.checkpoint()
    >>> budget.checkpoint()
    >>> budget.checkpoint()
    Traceback (most recent call last):
        ...
    repro.exceptions.BudgetExhaustedError: query expansion budget of 2 \
exhausted (3 expansions performed)
    """

    __slots__ = (
        "deadline_ms",
        "max_expansions",
        "check_interval",
        "expansions",
        "_clock",
        "_started",
        "_deadline",
        "_interval",
        "_last_check_time",
        "_next_clock_check",
        "_cancelled",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.deadline_ms = deadline_ms
        self.max_expansions = max_expansions
        self.check_interval = max(1, int(check_interval))
        self.expansions = 0
        self._clock = clock
        self._started = clock()
        self._deadline = (
            self._started + deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        # First deadline check happens on the first checkpoint so that an
        # already-expired budget (deadline_ms <= 0) fails fast.
        self._next_clock_check = 0
        # Start with a short interval and let fast loops grow it: a heavy
        # loop then pays at most a few iterations before the first
        # adaptation, while a cheap loop reaches check_interval within a
        # handful of (cheap) clock reads.
        self._interval = min(8, self.check_interval)
        self._last_check_time = self._started
        self._cancelled = False

    # ------------------------------------------------------------------
    def checkpoint(self, cost: int = 1) -> None:
        """Charge ``cost`` expansions; raise if any limit was crossed.

        Raises
        ------
        QueryCancelledError
            If :meth:`cancel` was called.
        BudgetExhaustedError
            If the expansion cap is exceeded.
        DeadlineExceededError
            If the wall-clock deadline has passed (checked every
            ``check_interval`` expansions).
        """
        self.expansions += cost
        if self._cancelled:
            raise QueryCancelledError()
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            raise BudgetExhaustedError(self.expansions, self.max_expansions)
        if self._deadline is not None and self.expansions >= self._next_clock_check:
            now = self._clock()
            # Adapt the interval to the observed per-checkpoint cost: a
            # checkpoint may guard one heap pop or one oracle refinement,
            # orders of magnitude apart in wall-clock terms.  Aim the
            # next read ~TARGET_CLOCK_GAP_S away so deadline overshoot is
            # bounded in *time* whatever the loop's unit of work.
            gap = now - self._last_check_time
            self._last_check_time = now
            if gap > TARGET_CLOCK_GAP_S:
                self._interval = max(1, self._interval // 4)
            elif gap < TARGET_CLOCK_GAP_S / 8:
                self._interval = min(self.check_interval, self._interval * 2)
            self._next_clock_check = self.expansions + self._interval
            if now > self._deadline:
                raise DeadlineExceededError(
                    (now - self._started) * 1000.0, self.deadline_ms or 0.0
                )

    def recheck(self) -> None:
        """Unamortized limit check: force a clock read right now.

        The pipeline calls this at step boundaries so a deadline that
        passed near the end of one step is detected before the next step
        starts, however the amortization counters happen to be aligned.
        The adaptive interval is also reset: the unit of work usually
        changes across a boundary (a heap pop vs an oracle refinement),
        so the next phase re-learns its own checkpoint cost instead of
        inheriting an interval tuned to the previous phase.
        """
        self._interval = min(8, self.check_interval)
        self._next_clock_check = self.expansions
        self.checkpoint(cost=0)

    # ------------------------------------------------------------------
    def cancel(self) -> None:
        """Request cooperative cancellation (thread-safe: a flag write)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called."""
        return self._cancelled

    def elapsed_ms(self) -> float:
        """Milliseconds since the budget was created."""
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (``None`` without a deadline).

        Can be negative once the deadline has passed.
        """
        if self._deadline is None:
            return None
        return (self._deadline - self._clock()) * 1000.0

    def expired(self) -> bool:
        """Non-raising probe: would :meth:`recheck` raise right now?

        Reads the clock directly (no amortization) — use between pipeline
        steps, not in inner loops.

        The expansion comparison is deliberately strict (``>``) to match
        :meth:`checkpoint`: a cap of ``N`` allows exactly ``N`` charged
        expansions, so a query sitting *at* the cap is not expired.  (A
        lenient ``>=`` here used to declare boundary queries expired at
        step boundaries while in-loop checkpoints let them run, yielding
        inconsistent ``interrupted_step`` reporting.)
        """
        if self._cancelled:
            return True
        if self.max_expansions is not None and self.expansions > self.max_expansions:
            return True
        return self._deadline is not None and self._clock() > self._deadline

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryBudget deadline_ms={self.deadline_ms!r} "
            f"max_expansions={self.max_expansions!r} "
            f"expansions={self.expansions} cancelled={self._cancelled}>"
        )


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
