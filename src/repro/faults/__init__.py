"""Deterministic fault injection for the PPKWS serving stack.

The ROADMAP's north star is serving heavy traffic, and a serving stack
is only as good as its behaviour under partial failure: crashed
workers, torn writes, slow disks, flaky locks.  This package makes
those failures *first-class and reproducible*: named injection points
(:mod:`repro.faults.points`) are wired into the I/O layer
(``core/persist``, ``graph/io``), the serving layer (executor workers,
answer cache, rwlocks) and the service facade, and a seeded
:class:`FaultSchedule` decides — deterministically — which hits of
which points misbehave and how.

Zero overhead when disabled
---------------------------
No schedule is active unless one is installed, and every production
hook reduces to a module-level ``is_active()`` check (one global read
plus a ``None`` comparison) per *operation* — never per inner-loop
iteration.  The ``bench/`` workloads run with no schedule active, so
the ``BENCHMARK.json`` bounds hold that contract, as they do for
observability.

Actions
-------
``raise``
    Raise :class:`~repro.exceptions.FaultInjectedError` at the point.
``kill``
    Raise :class:`~repro.exceptions.WorkerKilledError` — the executor
    lets it escape the worker loop, simulating a dead worker thread.
``delay``
    Sleep ``delay_s`` seconds (slow disk / lock convoy simulation).
``truncate``
    At a write-stream point (see :func:`wrap_write`): write only the
    first ``truncate_at`` bytes (characters, on the graph files' text
    stream), then raise :class:`~repro.exceptions.TornWriteError` — on
    the binary index stream a byte-accurate torn write.  At a non-stream
    point it degrades to a raise.

Activation
----------
Either lexically::

    schedule = FaultSchedule([FaultSpec(points.EXECUTOR_WORKER, "kill")])
    with faults.injected(schedule):
        ...  # chaos here

or process-wide via the environment (picked up at import time), e.g.::

    PPKWS_FAULTS="persist.save.write:truncate@1:137;serving.executor.worker:kill@3"
    PPKWS_FAULTS="seed:42"          # a seeded pseudo-random schedule

Each ``;``-separated entry is ``point:kind[@hit[+]][:arg]`` — fire
``kind`` on the ``hit``-th hit of ``point`` (``+`` = every hit from
there on), with ``arg`` the byte offset for ``truncate`` or the seconds
for ``delay``.

Every actual injection is counted (per schedule, and as
``ppkws_faults_injected_total{point}`` when a metrics registry is
installed) so a chaos run can assert its faults really fired.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    IO, AnyStr, Dict, Generic, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.exceptions import (
    FaultInjectedError,
    TornWriteError,
    WorkerKilledError,
)
from repro.faults.points import (
    FaultPoint,
    all_points,
    point_named,
)
from repro.obs.registry import installed

__all__ = [
    "ACTION_KINDS",
    "FaultPoint",
    "FaultSchedule",
    "FaultSpec",
    "activate",
    "active",
    "all_points",
    "deactivate",
    "fire",
    "injected",
    "is_active",
    "point_named",
    "schedule_from_env",
    "seeded_schedule",
    "wrap_write",
]

#: The closed set of injection actions.
ACTION_KINDS: Tuple[str, ...] = ("raise", "kill", "delay", "truncate")

#: Environment variable holding a schedule spec (see module docstring).
ENV_VAR = "PPKWS_FAULTS"


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: *what* happens at *which* hit of *which* point.

    ``at_hit`` is 1-based; with ``every=False`` (default) the spec fires
    on exactly that hit, with ``every=True`` on that hit and every later
    one.  ``delay_s`` / ``truncate_at`` parameterize the ``delay`` /
    ``truncate`` kinds and are ignored by the others.
    """

    point: FaultPoint
    kind: str
    at_hit: int = 1
    every: bool = False
    delay_s: float = 0.0
    truncate_at: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.point, FaultPoint):
            raise ValueError(
                f"FaultSpec.point must be a FaultPoint constant from "
                f"repro.faults.points, got {self.point!r}"
            )
        if self.kind not in ACTION_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (one of {ACTION_KINDS})"
            )
        if self.at_hit < 1:
            raise ValueError("at_hit is 1-based and must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")
        if self.truncate_at < 0:
            raise ValueError("truncate_at must be >= 0")

    def matches(self, hit: int) -> bool:
        """Whether this spec fires on the ``hit``-th hit of its point."""
        return hit == self.at_hit or (self.every and hit > self.at_hit)


class FaultSchedule:
    """A deterministic, thread-safe set of armed faults.

    Hit counters are per-point and shared across threads, so a schedule
    replayed against the same request sequence injects the same faults.
    ``injections()`` reports what actually fired (a ``truncate`` armed
    beyond the stream length never does), letting chaos tests assert
    their faults landed.
    """

    def __init__(
        self, specs: Sequence[FaultSpec], seed: Optional[int] = None
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self._by_point: Dict[str, List[FaultSpec]] = {}
        for spec in self.specs:
            self._by_point.setdefault(spec.point.name, []).append(spec)
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._injected: Dict[str, int] = {}

    # -- bookkeeping ----------------------------------------------------
    def hits(self, point: FaultPoint) -> int:
        """How many times ``point`` has been reached under this schedule."""
        with self._lock:
            return self._hits.get(point.name, 0)

    def injections(self) -> Dict[str, int]:
        """Point name -> number of faults actually injected."""
        with self._lock:
            return dict(self._injected)

    def total_injected(self) -> int:
        """Total faults actually injected across all points."""
        with self._lock:
            return sum(self._injected.values())

    def _record(self, point: FaultPoint) -> None:
        with self._lock:
            self._injected[point.name] = self._injected.get(point.name, 0) + 1
        registry = installed()
        if registry is not None:
            registry.inc(
                "ppkws_faults_injected_total", labels={"point": point.name}
            )

    # -- the injection machinery ----------------------------------------
    def _arm(self, point: FaultPoint) -> Optional[FaultSpec]:
        """Count one hit of ``point``; return the spec due to fire, if any."""
        with self._lock:
            hit = self._hits.get(point.name, 0) + 1
            self._hits[point.name] = hit
        for spec in self._by_point.get(point.name, ()):
            if spec.matches(hit):
                return spec
        return None

    def _act(self, point: FaultPoint, spec: FaultSpec) -> None:
        self._record(point)
        if spec.kind == "delay":
            time.sleep(spec.delay_s)
            return
        if spec.kind == "kill":
            raise WorkerKilledError(point.name)
        if spec.kind == "truncate":
            # truncate outside a write stream degrades to a torn-write
            # raise at offset 0 (nothing was written).
            raise TornWriteError(point.name, 0)
        raise FaultInjectedError(point.name)

    def fire(self, point: FaultPoint) -> None:
        """Count one hit of ``point`` and act if a spec is due."""
        spec = self._arm(point)
        if spec is not None:
            self._act(point, spec)

    def wrap_write(
        self, fh: IO[AnyStr], point: FaultPoint
    ) -> Union[IO[AnyStr], "_TruncatingWriter[AnyStr]"]:
        """Count one hit of stream-``point``; maybe wrap ``fh``.

        A due ``truncate`` spec returns a proxy that tears the stream at
        ``truncate_at`` bytes (characters, on a text stream); any other
        due spec acts immediately (so a ``raise`` armed on the stream
        point fails the write up front).
        """
        spec = self._arm(point)
        if spec is None:
            return fh
        if spec.kind != "truncate":
            self._act(point, spec)
            return fh
        return _TruncatingWriter(fh, point, spec, self)


class _TruncatingWriter(Generic[AnyStr]):
    """Write proxy that persists a prefix then simulates a crash.

    The prefix is ``truncate_at`` units of whatever the stream takes:
    bytes on a binary stream (the index file — a byte-accurate tear),
    characters on a text one (the graph files).  Only ``write`` is
    proxied — the atomic-write helpers never call anything else on the
    stream they expose.
    """

    def __init__(
        self,
        fh: IO[AnyStr],
        point: FaultPoint,
        spec: FaultSpec,
        schedule: FaultSchedule,
    ) -> None:
        self._fh = fh
        self._point = point
        self._spec = spec
        self._schedule = schedule
        self._written = 0

    def write(self, data: AnyStr) -> int:
        remaining = self._spec.truncate_at - self._written
        if len(data) <= remaining:
            self._written += len(data)
            return self._fh.write(data)
        if remaining > 0:
            self._fh.write(data[:remaining])
        self._fh.flush()
        self._schedule._record(self._point)
        raise TornWriteError(self._point.name, self._spec.truncate_at)


# ----------------------------------------------------------------------
# activation: one module-level slot, checked by every production hook
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultSchedule] = None
_ACTIVE_LOCK = threading.Lock()


def is_active() -> bool:
    """Whether any fault schedule is currently active (the hot check)."""
    return _ACTIVE is not None


def active() -> Optional[FaultSchedule]:
    """The active schedule, or ``None``."""
    return _ACTIVE


def fire(point: FaultPoint) -> None:
    """Hit ``point`` against the active schedule; no-op when inactive."""
    schedule = _ACTIVE
    if schedule is None:
        return
    schedule.fire(point)


def wrap_write(
    fh: IO[AnyStr], point: FaultPoint
) -> Union[IO[AnyStr], "_TruncatingWriter[AnyStr]"]:
    """Hit stream-``point``; returns ``fh`` (possibly wrapped)."""
    schedule = _ACTIVE
    if schedule is None:
        return fh
    return schedule.wrap_write(fh, point)


@contextmanager
def injected(schedule: FaultSchedule) -> Iterator[FaultSchedule]:
    """Activate ``schedule`` for the dynamic extent of the block.

    Nests: the previous schedule (usually ``None``) is restored on exit.
    Activation is process-wide — faults fire on *every* thread, which is
    exactly what a chaos test driving a worker pool wants.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = schedule
    try:
        yield schedule
    finally:
        with _ACTIVE_LOCK:
            _ACTIVE = previous


def activate(schedule: Optional[FaultSchedule]) -> None:
    """Install ``schedule`` process-wide (``None`` clears it).

    The imperative counterpart of :func:`injected` for contexts with no
    enclosing block to scope the activation — chiefly a shard worker
    installing a schedule the parent shipped over its pipe.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = schedule


def deactivate() -> None:
    """Clear any active schedule (e.g. one installed from the env)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None


# ----------------------------------------------------------------------
# schedule construction: seeded and env-var forms
# ----------------------------------------------------------------------
def seeded_schedule(
    seed: int,
    points: Optional[Sequence[FaultPoint]] = None,
    faults: int = 4,
    max_hit: int = 5,
) -> FaultSchedule:
    """A deterministic pseudo-random schedule: same seed, same faults.

    Draws ``faults`` specs over ``points`` (default: the full catalogue)
    with kinds appropriate to each point (``truncate`` only at stream
    points), hits in ``[1, max_hit]``, small delays, and truncation
    offsets spread over typical index-file sizes.
    """
    import random

    rng = random.Random(seed)
    pool = list(points if points is not None else all_points())
    if not pool:
        raise ValueError("seeded_schedule needs at least one point")
    specs: List[FaultSpec] = []
    for _ in range(faults):
        point = rng.choice(pool)
        kinds = ["raise", "kill", "delay"] + (["truncate"] if point.stream else [])
        kind = rng.choice(kinds)
        specs.append(
            FaultSpec(
                point,
                kind,
                at_hit=rng.randint(1, max_hit),
                every=False,
                delay_s=round(rng.uniform(0.001, 0.01), 4),
                truncate_at=rng.randint(0, 4096),
            )
        )
    return FaultSchedule(specs, seed=seed)


def _parse_entry(entry: str) -> FaultSpec:
    # point:kind[@hit[+]][:arg]
    parts = entry.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"bad fault spec {entry!r} (want point:kind[@hit[+]][:arg])"
        )
    point = point_named(parts[0].strip())
    kind_part = parts[1].strip()
    at_hit, every = 1, False
    if "@" in kind_part:
        kind_part, _, hit_part = kind_part.partition("@")
        hit_part = hit_part.strip()
        if hit_part.endswith("+"):
            every = True
            hit_part = hit_part[:-1]
        try:
            at_hit = int(hit_part)
        except ValueError:
            raise ValueError(f"bad hit count in fault spec {entry!r}") from None
    kind = kind_part.strip()
    delay_s, truncate_at = 0.0, 0
    if len(parts) == 3:
        arg = parts[2].strip()
        try:
            if kind == "delay":
                delay_s = float(arg)
            elif kind == "truncate":
                truncate_at = int(arg)
            else:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"bad argument {arg!r} for kind {kind!r} in fault spec "
                f"{entry!r}"
            ) from None
    return FaultSpec(
        point, kind, at_hit=at_hit, every=every,
        delay_s=delay_s, truncate_at=truncate_at,
    )


def schedule_from_env(value: str) -> FaultSchedule:
    """Parse a ``PPKWS_FAULTS`` spec string into a schedule.

    ``"seed:N"`` builds :func:`seeded_schedule(N)`; otherwise the value
    is ``;``-separated ``point:kind[@hit[+]][:arg]`` entries.
    """
    value = value.strip()
    if value.startswith("seed:"):
        try:
            seed = int(value[len("seed:"):])
        except ValueError:
            raise ValueError(f"bad seed in {value!r}") from None
        return seeded_schedule(seed)
    entries = [e.strip() for e in value.split(";") if e.strip()]
    if not entries:
        raise ValueError("empty PPKWS_FAULTS spec")
    return FaultSchedule([_parse_entry(e) for e in entries])


def _activate_from_env() -> None:
    raw = os.environ.get(ENV_VAR)
    if raw:
        global _ACTIVE
        _ACTIVE = schedule_from_env(raw)


_activate_from_env()
