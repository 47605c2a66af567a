"""Wire-protocol adapters shared by the semantics specs and the service.

Each :class:`~repro.core.engine.SemanticsSpec` carries three wire
callables — request → params, result → payload, request → cache key —
and :mod:`repro.service` generates its query ops straight from them.
This module holds the two families those callables come in:

* **rooted** (Blinks / r-clique / BANKS / truss): ``answers`` list plus
  the per-step ``breakdown``;
* **k-nk** (single- and multi-keyword): a single ``answer``, no
  breakdown (the k-nk wire format predates the breakdown field and is
  pinned by the protocol tests);
* **truss**: community ``answers`` (vertex/edge lists) plus the
  breakdown.

Defaults applied here (``tau`` 5.0, ``k`` 10, ``mode`` ``"and"``) are
part of the wire contract: the cache-key functions apply the same
defaults so ``{"k": 10}`` and an omitted ``k`` hit the same cache line.
Fields are validated, never coerced: a value of the wrong type or range
is a :class:`~repro.exceptions.QueryError` naming the field (wire code
``bad_request``), raised by the params and the cache-key function alike.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.exceptions import QueryError

__all__ = [
    "serialize_rooted",
    "serialize_knk",
    "serialize_truss",
    "rooted_payload",
    "knk_payload",
    "truss_payload",
    "rooted_wire_params",
    "knk_wire_params",
    "knk_multi_wire_params",
    "truss_wire_params",
    "rooted_cache_params",
    "knk_cache_params",
    "knk_multi_cache_params",
    "truss_cache_params",
    "check_count",
    "check_bound",
    "check_vertex",
    "VERTEX_TYPES",
]


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


def rooted_payload(result: Any) -> Dict[str, Any]:
    """Response payload for a rooted-semantics :class:`QueryResult`."""
    return {
        "answers": [serialize_rooted(a) for a in result.answers],
        "breakdown": {
            "peval": result.breakdown.peval,
            "arefine": result.breakdown.arefine,
            "acomplete": result.breakdown.acomplete,
        },
    }


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
    return {
        "answers": [serialize_truss(a) for a in result.answers],
        "breakdown": {
            "peval": result.breakdown.peval,
            "arefine": result.breakdown.arefine,
            "acomplete": result.breakdown.acomplete,
        },
    }


def _keywords(request: Dict[str, Any]) -> Tuple[str, ...]:
    """The request's ``keywords``: a list of non-empty strings, or
    :class:`QueryError` (wire code ``bad_request``).

    Params and cache keys both read the field here: a bare string would
    otherwise be ``list()``-split into characters and answered (and
    cached) as a query nobody sent.
    """
    keywords = request.get("keywords", ())
    if isinstance(keywords, (list, tuple)):
        for q in keywords:
            if not isinstance(q, str) or not q:
                break
        else:
            return tuple(keywords)
    raise QueryError(
        f"field 'keywords' must be a list of non-empty strings, "
        f"got {keywords!r}"
    )


def _keyword(request: Dict[str, Any]) -> str:
    """The request's ``keyword``: one non-empty string, or
    :class:`QueryError`."""
    keyword = request["keyword"]
    if not isinstance(keyword, str) or not keyword:
        raise QueryError(
            f"field 'keyword' must be a non-empty string, got {keyword!r}"
        )
    return keyword


def check_count(field: str, value: Any) -> int:
    """``value`` if it is an integer ``>= 1``, else :class:`QueryError`.

    Nothing is coerced: ``2.5`` is not truncated, ``"2"`` is not parsed
    (it would share ``2``'s cache line) and ``True`` is an ``int`` only
    by accident.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise QueryError(
            f"field {field!r} must be an integer >= 1, got {value!r}"
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


def _source(request: Dict[str, Any]) -> Any:
    """The request's ``source`` vertex (see :func:`check_vertex`)."""
    return check_vertex("source", request["source"])


def _mode(request: Dict[str, Any]) -> str:
    """The request's ``mode``: a string (its value is the engine's to
    judge), defaulting to ``"and"``."""
    mode = request.get("mode", "and")
    if not isinstance(mode, str):
        raise QueryError(f"field 'mode' must be a string, got {mode!r}")
    return mode


# Params and cache keys read every field through the same validators
# above, so a value the engine would refuse can never reach — or be
# served from — the answer cache.
def rooted_wire_params(request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "keywords": list(_keywords(request)),
        "tau": check_bound("tau", request.get("tau", 5.0)),
        "k": check_count("k", request.get("k", 10)),
        "require_public_private": True,
    }


def knk_wire_params(request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "source": _source(request),
        "keyword": _keyword(request),
        "k": check_count("k", request.get("k", 10)),
    }


def knk_multi_wire_params(request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "source": _source(request),
        "keywords": list(_keywords(request)),
        "k": check_count("k", request.get("k", 10)),
        "mode": _mode(request),
    }


def truss_wire_params(request: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "k": check_count("k", request["k"]),
        "keywords": list(_keywords(request)),
        "require_public_private": True,
    }


def rooted_cache_params(request: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        _keywords(request),
        check_bound("tau", request.get("tau", 5.0)),
        check_count("k", request.get("k", 10)),
    )


def knk_cache_params(request: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        _source(request), _keyword(request),
        check_count("k", request.get("k", 10)),
    )


def knk_multi_cache_params(request: Dict[str, Any]) -> Tuple[Any, ...]:
    return (
        _source(request),
        _keywords(request),
        check_count("k", request.get("k", 10)),
        _mode(request),
    )


def truss_cache_params(request: Dict[str, Any]) -> Tuple[Any, ...]:
    return (check_count("k", request["k"]), _keywords(request))
