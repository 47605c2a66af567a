"""Def.-II.2 qualification by construction, through the engines.

The steps keep an equal-distance witness on the other side when they
compare routes (:mod:`repro.core.qualify`); qualification swaps to one of
them or prunes.  Each case runs one query with the test on and off: the
answer at ``root`` must be ``expected`` (``None``: pruned, though the
unfiltered run has it), and every answer must keep the distances of an
unfiltered answer at its root.
"""

from __future__ import annotations

import pytest

from repro.core import PPKWS
from repro.graph import LabeledGraph
from tests.test_framework_consistency import _distances, _distances_by_root


def tie_world(anchor: bool = False) -> PPKWS:
    """Portal 'p' has an equally close private and public 'kw' vertex."""
    pub = LabeledGraph()
    pub.add_edge("p", "pub_kw")
    pub.add_labels("pub_kw", {"kw"})
    pub.add_edge("p", "other")
    pub.add_labels("other", {"aux"})
    priv = LabeledGraph()
    priv.add_edge("p", "priv_kw")
    priv.add_labels("priv_kw", {"kw", "anchor"} if anchor else {"kw"})
    engine = PPKWS(pub, sketch_k=8)
    engine.attach("u", priv)
    return engine


def rounding_world() -> PPKWS:
    """The public 'kw' route sums to 0.1 + 0.2, the private one is 0.3."""
    pub = LabeledGraph()
    pub.add_edge("p", "a", 0.1)
    pub.add_edge("a", "pub_kw", 0.2)
    pub.add_labels("pub_kw", {"kw"})
    priv = LabeledGraph()
    priv.add_edge("p", "priv_kw", 0.3)
    priv.add_labels("priv_kw", {"kw", "anchor"})
    engine = PPKWS(pub, sketch_k=8)
    engine.attach("u", priv)
    return engine


def portal_world() -> PPKWS:
    """The portal 'p' carries 'kw' in the public graph only."""
    pub = LabeledGraph()
    pub.add_edge("p", "far")
    pub.add_labels("p", {"kw"})
    priv = LabeledGraph()
    priv.add_edge("p", "x")
    engine = PPKWS(pub, sketch_k=8)
    engine.attach("u", priv)
    return engine


@pytest.mark.parametrize("semantics, world, keywords, root, expected", [
    # an answer that already qualifies keeps its private witness
    ("blinks", tie_world, ["kw", "aux"], "p", {"kw": "priv_kw", "aux": "other"}),
    # private -> public: the public route AComplete does not take ties
    ("blinks", lambda: tie_world(anchor=True), ["kw", "anchor"], "p",
     {"kw": "pub_kw", "anchor": "priv_kw"}),
    # a swap to a tie within the tolerance keeps the match's distance
    ("blinks", rounding_world, ["kw", "anchor"], "p",
     {"kw": "pub_kw", "anchor": "priv_kw"}),
    # public -> private: the Eq.-5 route ties the public completion
    ("rclique", tie_world, ["kw", "aux"], "p", {"kw": "priv_kw", "aux": "other"}),
    # one non-portal match cannot serve both sides
    ("blinks", tie_world, ["kw"], "p", None),
    ("rclique", tie_world, ["kw"], "p", None),
    # no tie, no answer
    ("blinks", tie_world, ["aux"], "p", None),
    ("rclique", tie_world, ["aux"], "p", None),
    # a portal carrying the keyword publicly is on the private side too
    ("blinks", portal_world, ["kw"], "x", {"kw": "p"}),
], ids=[
    "qualified-untouched", "swap-private-to-public", "swap-keeps-distances",
    "swap-public-to-private",
    "blinks-no-straddle", "rclique-no-straddle", "blinks-no-tie",
    "rclique-no-tie", "portal-public-label",
])
def test_qualification_swaps_only_ties(semantics, world, keywords, root, expected):
    engine = world()
    query = getattr(engine, semantics)
    strict = query("u", keywords, 2.0, k=10).answers
    loose = _distances_by_root(
        query("u", keywords, 2.0, k=10, require_public_private=False)
    )
    assert root in loose
    for answer in strict:
        assert _distances(answer) in loose[answer.root]
    got = {a.root: a for a in strict}.get(root)
    if expected is None:
        assert got is None
    else:
        assert {q: m.vertex for q, m in got.matches.items()} == expected
