"""The wire protocol's field tables, and the payloads of its answers.

An op's request schema is one tuple of :class:`Field` rows: a name, a
check (the canonical value, or a :class:`~repro.exceptions.QueryError`
naming the field: wire code ``bad_request``), a default or
:data:`REQUIRED`, and whether the value enters the answer-cache key.
:meth:`FieldTable.apply` is the one reader of a request.
:mod:`repro.service` applies each op's table before any lock, registry
or cache and gets the engine params and cache key back;
:func:`~repro.core.engine.run_pipeline` applies a semantics' own rows to
what a Python-API caller passed.  Defaults are canonical (``{"k": 10}``
and an omitted ``k`` share a cache line) and nothing is coerced.
``help``, the README op table and ``tests/test_wire_fields.py`` read
the same rows.

Payloads: **rooted** (Blinks / r-clique / BANKS) ``answers`` plus the
per-step ``breakdown``; **k-nk** one ``answer`` and no breakdown (that
format predates the field and is pinned by the protocol tests);
**truss** community ``answers`` (vertex/edge lists) plus the breakdown.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.exceptions import QueryError, ReproError

__all__ = [
    "Field",
    "FieldTable",
    "REQUIRED",
    "ROOTED_FIELDS",
    "serialize_rooted",
    "serialize_knk",
    "serialize_truss",
    "rooted_payload",
    "knk_payload",
    "truss_payload",
    "check_count",
    "check_bound",
    "check_vertex",
    "check_flag",
    "check_name",
    "check_keywords",
    "check_keyword",
    "nullable",
    "VERTEX_TYPES",
]

#: the default of a field the request must carry
REQUIRED: Any = object()


class Field(NamedTuple):
    """One row of a field table: ``check(name, value)`` returns the
    canonical value (hashable on a ``key`` row) or raises
    :class:`QueryError` naming the field.  A ``wire=False`` row is for
    Python-API callers only: the wire warns on it as an unknown field."""

    name: str
    check: Callable[[str, Any], Any]
    default: Any = REQUIRED
    key: bool = False
    wire: bool = True


class FieldTable:
    """A tuple of :class:`Field` rows, compiled for :meth:`apply`."""

    def __init__(self, rows: Tuple[Field, ...]) -> None:
        self.checks = {row.name: row.check for row in rows}
        self.defaults = {
            row.name: row.default for row in rows if row.default is not REQUIRED
        }
        self.required = [row.name for row in rows if row.default is REQUIRED]
        keys = [row.name for row in rows if row.key]
        #: params -> the key rows' values, in row order
        self.key = itemgetter(*keys) if keys else None

    def apply(
        self,
        request: Dict[str, Any],
        prefix: str = "",
        warn: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, Any]:
        """Every row's value: checked when ``request`` has the field, its
        default when not.  A field with no row goes to ``warn`` first (so
        the warning survives onto an error response); a missing required
        field raises :class:`ReproError`, else the first malformed one
        :class:`QueryError`.  ``prefix`` names the batch item."""
        params = self.defaults.copy()
        checks = self.checks
        stray = False
        try:
            for name, value in request.items():
                try:
                    check = checks[name]
                except KeyError:
                    stray = True
                    continue
                params[name] = check(name, value)
        except QueryError as exc:
            self._report(request, prefix, warn)
            raise QueryError(f"{prefix}{exc}") from None
        if stray or len(params) < len(checks):
            self._report(request, prefix, warn)
        return params

    def _report(self, request: Dict[str, Any], prefix: str, warn: Any) -> None:
        """Warn about the unknown fields, then raise on a missing one."""
        if warn is not None:
            for f in sorted((str(f) for f in request), key=str):
                if f not in self.checks:
                    warn(f"{prefix}unknown field {f!r}")
        for f in self.required:
            if f not in request:
                raise ReproError(f"{prefix}missing field {f!r}")


def serialize_rooted(answer: Any) -> Dict[str, Any]:
    """JSON-able form of a rooted answer (tree edges when present)."""
    out: Dict[str, Any] = {
        "root": answer.root,
        "weight": answer.weight(),
        "matches": {
            q: {"vertex": m.vertex, "distance": m.distance}
            for q, m in answer.matches.items()
        },
    }
    edges = getattr(answer, "edges", None)
    if edges:
        # Canonical order: the in-memory edge list follows traversal
        # order, which depends on the graph representation, not on the
        # answer.
        out["tree_edges"] = sorted(
            (sorted(e, key=repr) for e in edges), key=repr
        )
    return out


def serialize_knk(answer: Any) -> Dict[str, Any]:
    """JSON-able form of a k-nk answer."""
    return {
        "source": answer.source,
        "keyword": answer.keyword,
        "matches": [
            {"vertex": m.vertex, "distance": m.distance}
            for m in answer.matches
        ],
    }


def _answers_payload(serialize: Callable[[Any], Any], result: Any) -> Dict[str, Any]:
    """``answers`` plus the per-step ``breakdown`` of a :class:`QueryResult`."""
    steps = result.breakdown
    return {
        "answers": [serialize(a) for a in result.answers],
        "breakdown": {
            "peval": steps.peval,
            "arefine": steps.arefine,
            "acomplete": steps.acomplete,
        },
    }


def rooted_payload(result: Any) -> Dict[str, Any]:
    """Response payload for a rooted-semantics :class:`QueryResult`."""
    return _answers_payload(serialize_rooted, result)


def knk_payload(result: Any) -> Dict[str, Any]:
    """Response payload for a :class:`KnkQueryResult` (no breakdown)."""
    return {"answer": serialize_knk(result.answer)}


def serialize_truss(answer: Any) -> Dict[str, Any]:
    """JSON-able form of a truss community answer."""
    return {
        "vertices": list(answer.vertices),
        "edges": [list(e) for e in answer.edges],
    }


def truss_payload(result: Any) -> Dict[str, Any]:
    """Response payload for a truss :class:`QueryResult`."""
    return _answers_payload(serialize_truss, result)


def check_count(field: str, value: Any, least: int = 1) -> int:
    """``value`` if it is an integer ``>= least``, else :class:`QueryError`.

    Nothing is coerced: ``2.5`` is not truncated, ``"2"`` is not parsed
    (it would share ``2``'s cache line) and ``True`` is an ``int`` only
    by accident.
    """
    if type(value) is not int or value < least:
        raise QueryError(
            f"field {field!r} must be an integer >= {least}, got {value!r}"
        )
    return value


def check_bound(field: str, value: Any) -> float:
    """``value`` as a float if it is a number ``>= 0``, else
    :class:`QueryError` — ``NaN`` fails the comparison and is refused."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not value >= 0
    ):
        raise QueryError(
            f"field {field!r} must be a number >= 0, got {value!r}"
        )
    return float(value)


#: the types of a wire vertex id, matched exactly: ``True`` is an
#: ``int`` only by accident (and equals vertex ``1``)
VERTEX_TYPES = frozenset({str, int})


def check_vertex(field: str, value: Any) -> Any:
    """``value`` if it is a wire vertex id — a ``str`` or an ``int`` —
    else :class:`QueryError` naming ``field``.

    ``null``, booleans, floats and ``NaN`` are refused rather than built
    into a graph that an index file could not even persist.
    """
    if type(value) not in VERTEX_TYPES:
        raise QueryError(
            f"field {field!r}: a vertex must be a string or an integer, "
            f"got {value!r}"
        )
    return value


def check_flag(field: str, value: Any) -> bool:
    """``value`` if it is exactly ``true`` or ``false``, else :class:`QueryError`."""
    if type(value) is not bool:
        raise QueryError(f"field {field!r} must be true or false")
    return value


def check_name(field: str, value: Any) -> str:
    """``value`` if it is a string (a name, a path), else :class:`QueryError`."""
    if type(value) is not str:
        raise QueryError(f"field {field!r} must be a string")
    return value


def check_keywords(field: str, value: Any, least: int = 1) -> Tuple[str, ...]:
    """``value`` as a tuple if it is a list (not a bare string) of
    non-empty strings, at least one unless ``least`` is 0, else
    :class:`QueryError`."""
    if isinstance(value, (list, tuple)):
        for q in value:
            if not isinstance(q, str) or not q:
                break
        else:
            if len(value) >= least:
                return tuple(value)
            raise QueryError(f"field {field!r} needs at least one keyword")
    raise QueryError(
        f"field {field!r} must be a list of non-empty strings, got {value!r}"
    )


def check_keyword(field: str, value: Any) -> str:
    """``value`` if it is one non-empty string, else :class:`QueryError`."""
    if not isinstance(value, str) or not value:
        raise QueryError(
            f"field {field!r} must be a non-empty string, got {value!r}"
        )
    return value


def nullable(check: Callable[[str, Any], Any]) -> Callable[[str, Any], Any]:
    """``check``, plus ``null`` accepted as itself."""

    def checked(field: str, value: Any) -> Any:
        return None if value is None else check(field, value)
    return checked


#: the request schema of the rooted semantics (Blinks, r-clique, BANKS)
ROOTED_FIELDS: Tuple[Field, ...] = (
    Field("keywords", check_keywords, key=True),
    Field("tau", check_bound, 5.0, key=True),
    Field("k", check_count, 10, key=True),
    Field("require_public_private", check_flag, True, wire=False),
)
