"""A wire property generated from the ops' field tables.

Every query op's rows (the global rows plus ``OpSpec.fields``) give the
requests: each row names a strategy of valid values and a list of
malformed ones, so a new row is fuzzed by the properties below as soon
as its name has strategies here.  On ``small_public_private``:

* a valid request answers ``ok`` or ``degraded``;
* a request and the same request with its defaulted fields omitted hit
  one answer-cache line;
* a request with exactly one malformed field is a ``bad_request`` naming
  that field, with the answer cache and the network registry untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import registered_semantics, semantics_spec
from repro.semantics.wire import REQUIRED, check_keywords
from repro.service import _GLOBAL_FIELDS, PPKWSService, _current_ops

QUERY_OPS = registered_semantics()
#: the service fixture is built once per test and shared by its examples
SHARED = [HealthCheck.function_scoped_fixture]
LABELS = st.sampled_from(["db", "ai", "cv", "ml", "zz"])
NAN = float("nan")

#: valid values per field name; state-dependent fields name the fixture's
#: network, owner and private vertices
VALID = {
    "network": st.just("net"),
    "owner": st.just("bob"),
    "v": st.sampled_from([1, None]),
    "trace": st.booleans(),
    "no_cache": st.booleans(),
    "deadline_ms": st.none() | st.floats(0, 1e4),
    "max_expansions": st.none() | st.integers(0, 10**6),
    "keywords": st.lists(LABELS, min_size=1, max_size=3),
    "keyword": LABELS,
    "tau": st.integers(0, 6) | st.floats(0, 6),
    "k": st.integers(2, 5),
    "source": st.sampled_from(["x1", "x2", "x3", "x4", 2, 5]),
    "mode": st.sampled_from(["and", "or"]),
}

#: malformed values per field name: wrong JSON types, NaN, negatives,
#: empties and bools where an int belongs
BAD_NAME = [7, True, None, ["net"], {"n": 1}]
BAD_FLAG = ["false", 0, 1, None, [True]]
MALFORMED = {
    "network": BAD_NAME,
    "owner": BAD_NAME,
    "v": [2, True, 1.0, "1", [1]],
    "trace": BAD_FLAG,
    "no_cache": BAD_FLAG,
    "deadline_ms": [-1, NAN, "5", True, [1.0]],
    "max_expansions": [-1, 2.5, "3", True, NAN, [1]],
    "keywords": ["ai", [""], [7], [["db"]], {"db": 1}, None, 3],
    "keyword": ["", ["cv"], 7, None, True],
    "tau": [-1, NAN, "5", True, None, [4.0]],
    "k": [0, -1, 2.5, "2", True, None, NAN, [2]],
    "source": [True, None, 1.5, NAN, ["u"], {"x": 1}],
    "mode": ["nand", 1, None, [], "AND"],
}


#: what a row's own check refuses beyond its name's list: an empty
#: query, and a 1-truss
EXTRA = {
    check_keywords: [[]],
    next(f.check for f in semantics_spec("truss").fields if f.name == "k"): [1],
}


def malformed(row):
    return st.sampled_from(MALFORMED[row.name] + EXTRA.get(row.check, []))


def rows(op):
    """The op's rows a caller fills in (``op`` itself is dispatch's)."""
    return [f for f in _GLOBAL_FIELDS + _current_ops()[op].fields
            if f.name != "op"]


@pytest.fixture
def service(small_public_private):
    """One service per test, shared by all its examples."""
    pub, priv = small_public_private
    svc = PPKWSService(sketch_k=2)
    svc.create_network("net", pub)
    svc.attach_user("net", "bob", priv)
    return svc


@st.composite
def valid_requests(draw, op, optional=True):
    """A valid ``op`` request: every required row, and (when
    ``optional``) a drawn subset of the optional ones."""
    request = {"op": op}
    for row in rows(op):
        if row.default is REQUIRED or (optional and draw(st.booleans())):
            request[row.name] = draw(VALID[row.name])
    return request


def test_every_row_has_strategies():
    for op in QUERY_OPS:
        for row in rows(op):
            assert row.name in VALID and row.name in MALFORMED, (op, row.name)


@settings(max_examples=30, deadline=None, suppress_health_check=SHARED)
@given(data=st.data())
def test_valid_requests_answer(service, data):
    for op in QUERY_OPS:
        request = data.draw(valid_requests(op))
        response = service.execute(request)
        assert response["status"] in ("ok", "degraded"), (request, response)
        assert "warnings" not in response


@settings(max_examples=20, deadline=None, suppress_health_check=SHARED)
@given(data=st.data())
def test_omitted_defaults_share_a_cache_line(service, data):
    for op in QUERY_OPS:
        bare = data.draw(valid_requests(op, optional=False))
        spelled = dict(bare)
        for row in rows(op):
            if row.default is not REQUIRED and data.draw(st.booleans()):
                spelled[row.name] = row.default
        first, second = data.draw(st.permutations([bare, spelled]))
        assert service.execute(first)["status"] == "ok"
        assert service.execute(second).get("cached") is True, (first, second)


@settings(max_examples=40, deadline=None, suppress_health_check=SHARED)
@given(data=st.data())
def test_one_malformed_field_is_a_bad_request(service, data):
    for op in QUERY_OPS:
        valid = data.draw(valid_requests(op, optional=False))
        for row in rows(op):
            request = dict(valid, **{row.name: data.draw(malformed(row))})
            cache, networks = service.answer_cache.stats(), service.networks()
            response = service.execute(request)
            assert response["code"] == "bad_request", (request, response)
            assert repr(row.name) in response["error"], (request, response)
            assert service.answer_cache.stats() == cache
            assert service.networks() == networks
