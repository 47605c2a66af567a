"""Span recorder and in-place wrappers for the traced run.

The benchmark records spans from outside the program: :meth:`Tracer.wrap`
replaces a public function or method with a timing shim and
:meth:`Tracer.unwrap` puts every binding back.  Each thread keeps its own
span stack, so a span's *self* time is its duration minus the time its
child spans cover.  A request is everything under one root span.

Totals per span name are kept for the whole run; the raw spans (id, name,
start, end, parent, request) are kept for the first ``keep`` of them,
which bounds memory on workloads that make thousands of calls a request.
"""

from __future__ import annotations

import json
import sys
import threading
import types
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: per span name: calls, self seconds, inclusive seconds, items
Totals = Dict[str, List[float]]

_CHILD, _ID, _PARENT, _REQUEST, _BUSY = range(5)
_FAILED = object()


class _ThreadState:
    """One thread's open spans and what it has recorded."""

    def __init__(self, keep: int) -> None:
        self.keep = keep
        self.stack: List[List[float]] = []
        self.totals: Totals = {}
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.requests = 0
        self.opened = 0

    def open(self) -> List[float]:
        """A frame for a new span: child s, id, parent id, request, busy s."""
        self.opened += 1
        if self.stack:
            parent = self.stack[-1][_ID]
        else:
            parent = -1
            self.requests += 1
        return [0.0, self.opened, parent, self.requests, 0.0]

    def leave(self, frame: List[float], elapsed: float) -> None:
        """Pop ``frame`` after it ran for ``elapsed`` seconds."""
        self.stack.pop()
        frame[_BUSY] += elapsed
        if self.stack:
            self.stack[-1][_CHILD] += elapsed

    def close(
        self, name: str, frame: List[float], start: float, end: float,
        items: float,
    ) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0.0, 0.0, 0.0, 0.0]
        total[0] += 1
        total[1] += frame[_BUSY] - frame[_CHILD]
        total[2] += frame[_BUSY]
        total[3] += items
        if len(self.spans) < self.keep:
            self.spans.append((
                int(frame[_ID]), name, start, end,
                int(frame[_PARENT]), int(frame[_REQUEST]),
            ))


class Tracer:
    """Collects spans from wrapped callables until :meth:`unwrap`."""

    def __init__(self, keep: int = 200_000):
        self.keep = keep
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(self.keep)
            with self._lock:
                self._states.append(state)
        return state

    def _shim(
        self, fn: Callable[..., Any], name: str,
        items: Optional[Callable[[Any], float]],
    ) -> Callable[..., Any]:
        get_state = self._state

        def shim(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            frame = state.open()
            state.stack.append(frame)
            out = _FAILED
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.leave(frame, end - start)
                if not isinstance(out, types.GeneratorType):
                    counted = items is not None and out is not _FAILED
                    state.close(
                        name, frame, start, end,
                        items(out) if counted else 0.0,  # type: ignore[misc]
                    )
            if isinstance(out, types.GeneratorType):
                # the call only made the generator: its work happens while
                # the caller iterates, so every resumption is timed instead
                return _iterate(out, name, state, frame, start)
            return out

        shim.bench_span = name  # type: ignore[attr-defined]
        shim.__name__ = getattr(fn, "__name__", name)
        shim.__doc__ = fn.__doc__
        return shim

    def wrap(
        self, owner: Any, attr: str, name: str,
        items: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Time ``owner.attr`` under span ``name``.

        ``owner`` is a class (the method is patched in place) or a module;
        a module function is also rebound wherever a loaded ``repro``
        module holds the same function object under any name, because
        most kernels are ``from``-imported by their callers.  ``items``
        maps a result to a count (a generator counts what it yields).
        """
        original = vars(owner)[attr]
        if isinstance(original, (classmethod, staticmethod)):
            shim: Any = type(original)(
                self._shim(original.__func__, name, items)
            )
        else:
            shim = self._shim(original, name, items)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, shim)
            return
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, alias, original))
                    setattr(module, alias, shim)

    def unwrap(self) -> None:
        """Restore every binding :meth:`wrap` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> Totals:
        """Per-name totals merged over threads."""
        merged: Totals = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, total in state.totals.items():
                into = merged.setdefault(name, [0.0, 0.0, 0.0, 0.0])
                for i, value in enumerate(total):
                    into[i] += value
        return merged

    def dump(self, path: str) -> None:
        """Write the totals and the kept raw spans as JSON."""
        with self._lock:
            states = list(self._states)
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p,
             "request": r, "thread": t}
            for t, state in enumerate(states)
            for i, n, s, e, p, r in state.spans
        ]
        with open(path, "w") as handle:
            json.dump({"totals": self.totals(), "spans": spans}, handle)


def _iterate(
    gen: Any, name: str, state: _ThreadState, frame: List[float],
    start: float,
) -> Any:
    """Yield from ``gen``, charging each resumption to the span ``frame``."""
    count = 0
    end = start
    try:
        while True:
            state.stack.append(frame)
            resumed = perf_counter()
            try:
                value = next(gen)
            except StopIteration:
                return
            finally:
                end = perf_counter()
                state.leave(frame, end - resumed)
            count += 1
            yield value
    finally:
        gen.close()
        state.close(name, frame, start, end, float(count))
