"""Cross-model consistency: PPKWS (M3) vs the baseline on Gc (M2).

With *exact* distance estimation (huge sketch k), the two models must
agree on the core answer content:

* every PPKWS Blinks answer root is also a baseline answer root with the
  same weight (PPKWS is a faithful evaluator, not a heuristic);
* PP-knk's distance ranking matches the baseline's for distances the
  framework guarantees (private members, Lemma A.1);
* answers never regress when the bound loosens (tau monotonicity).
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import PPKWS, query_model_m2
from repro.core.qualify import is_public_private_answer
from repro.graph import combine
from repro.semantics import blinks_search
from tests.test_core_correctness import _instance


def _distances(answer):
    return {q: m.distance for q, m in answer.matches.items()}


def _distances_by_root(result):
    """Root -> its answers' per-keyword distances (an r-clique root may
    center several stars)."""
    out = {}
    for answer in result.answers:
        out.setdefault(answer.root, []).append(_distances(answer))
    return out


def _exact_engine(pub):
    return PPKWS(pub, sketch_k=128)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1500))
def test_pp_blinks_roots_subset_of_baseline(seed):
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    gc = combine(pub, priv)
    tau = 4.0
    pp = engine.blinks("u", ["a", "b"], tau, k=50)
    base = blinks_search(gc, ["a", "b"], tau, k=10_000)
    base_weights = {a.root: a.weight() for a in base}
    for ans in pp.answers:
        assert ans.root in base_weights, (seed, ans)
        # PPKWS may have found a different-but-equal-weight witness set;
        # the weight can never beat the exact evaluator's.
        assert ans.weight() >= base_weights[ans.root] - 1e-9


#: The only seeds in [0, 1500] whose missing match is a portal carrying
#: the keyword through its *public* label, reached by leaving the private
#: graph and re-entering it (EXPERIMENTS.md, "Known completeness gap").
_PORTAL_DETOUR_SEEDS = (657, 1318)


def _assert_private_baseline_roots_found(seed):
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    tau = 4.0
    pp_roots = {a.root for a in engine.blinks("u", ["a", "b"], tau, k=10_000).answers}
    base = query_model_m2(pub, priv, "blinks", ["a", "b"], tau, k=10_000)
    for ans in base:
        if ans.root in priv:
            assert ans.root in pp_roots, (seed, ans)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1500))
def test_baseline_public_private_roots_found_by_ppkws(seed):
    """Completeness over roots the framework promises: every baseline
    public-private answer rooted in the private graph (where PEval
    enumerates exhaustively) is found by PP-Blinks."""
    assume(seed not in _PORTAL_DETOUR_SEEDS)
    _assert_private_baseline_roots_found(seed)


@pytest.mark.xfail(
    strict=True,
    reason="AComplete reaches public matches over d'(root, p) only, never "
    "d'(root, p_i) + dc(p_i, p); see EXPERIMENTS.md",
)
@pytest.mark.parametrize("seed", _PORTAL_DETOUR_SEEDS)
def test_private_root_reaching_a_public_label_over_a_portal_detour(seed):
    """The two seeds the property above skips, pinned until the engine
    gap is closed (strict: the fix must delete this test's xfail)."""
    _assert_private_baseline_roots_found(seed)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1500))
def test_tau_monotonicity(seed):
    """Loosening tau can only add answers (same k cap lifted)."""
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    tight = {a.root for a in engine.blinks("u", ["a", "b"], 3.0, k=10_000).answers}
    loose = {a.root for a in engine.blinks("u", ["a", "b"], 5.0, k=10_000).answers}
    assert tight <= loose


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1500), k=st.sampled_from([1, 3, 6]))
def test_knk_k_prefix_property(seed, k):
    """The top-k list is a prefix of the top-(k+2) list."""
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    small = engine.knk("u", "x0", "a", k=k).answer
    large = engine.knk("u", "x0", "a", k=k + 2).answer
    assert small.distances() == large.distances()[: len(small.distances())]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 1000))
def test_rclique_distance_guarantees(seed):
    """Thm A.6 shape under exact estimation: reported distances are
    achievable (>= true d_c), within tau, and *exact* for matches that
    live in the private graph (Eq.-4 refinement is exact there).
    Portal-routed public completions go through the single portal PEval
    chose, so they may exceed the true distance — that slack is exactly
    the paper's (2c-1) approximation, not a bug."""
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    gc = combine(pub, priv)
    tau = 4.0
    pp = engine.rclique("u", ["a", "b"], tau, k=20)
    from repro.graph import dijkstra

    portals = engine.attachment("u").portals
    for ans in pp.answers:
        exact = dijkstra(gc, ans.root)
        for m in ans.matches.values():
            assert m.distance >= exact[m.vertex] - 1e-9
            assert m.distance <= tau + 1e-9
            # exactness applies to matches PEval found privately; a
            # portal can also arrive as a (route-specific) public
            # completion witness, so restrict to non-portal privates
            if m.vertex in priv and m.vertex not in portals:
                assert m.distance == pytest.approx(exact[m.vertex])


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 1500), semantics=st.sampled_from(["blinks", "banks", "rclique"]))
def test_qualified_answers_keep_their_distances(seed, semantics):
    """Def. II.2 holds for every answer, and qualifying one never moved a
    distance: each equals an answer's at its root in the same query
    unqualified."""
    pub, priv = _instance(seed)
    engine = _exact_engine(pub)
    engine.attach("u", priv)
    query = getattr(engine, semantics)
    strict = query("u", ["a", "b"], 4.0, k=10_000).answers
    loose = _distances_by_root(
        query("u", ["a", "b"], 4.0, k=10_000, require_public_private=False)
    )
    for ans in strict:
        assert is_public_private_answer(ans, engine.public, priv), (seed, ans)
        assert _distances(ans) in loose[ans.root], (seed, ans)


def test_witness_repair_uses_combined_portal_map():
    """Regression: a portal-rooted answer whose only qualifying witness is
    another portal reachable at the recorded distance *only via the Algo-7
    combined portal map* (both the private-only and public-only routes are
    longer) must survive requalification.  Seed 1280 exhibits this: root 28
    completes both keywords through public witnesses, and the equal-distance
    private-side swap target is portal 1 with dc(28, 1) = 3 while
    d'(28, 1) = d_pub(28, 1) = 4."""
    pub, priv = _instance(1280)
    engine = _exact_engine(pub)
    att = engine.attach("u", priv)
    assert att.portal_map.get(28, 1) < min(
        att.private_portal_map.get(28, 1),
        engine.index.provider().vertex_distance(28, 1),
    )
    pp_roots = {a.root for a in engine.blinks("u", ["a", "b"], 4.0, k=10_000).answers}
    base = query_model_m2(pub, priv, "blinks", ["a", "b"], 4.0, k=10_000)
    for ans in base:
        if ans.root in priv:
            assert ans.root in pp_roots, ans
