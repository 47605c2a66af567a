"""Baseline keyword-search semantics: Blinks, r-clique and k-nk.

These run on *any* :class:`~repro.graph.LabeledGraph` — in particular on
a materialized combined graph, which is exactly the paper's baseline
query model M2 (``Baseline-Blinks`` / ``Baseline-rclique`` /
``Baseline-knk`` in the experiments).
"""

from repro.semantics.answers import KnkAnswer, Match, RootedAnswer
from repro.semantics.banks import TreeAnswer, banks_search
from repro.semantics.blinks import blinks_search, keyword_expansion
from repro.semantics.knk import knk_multi_search, knk_search
from repro.semantics.rclique import (
    NeighborLists,
    build_neighbor_lists,
    rclique_search,
)
from repro.semantics.truss import TrussAnswer, truss_search

__all__ = [
    "KnkAnswer",
    "Match",
    "NeighborLists",
    "RootedAnswer",
    "TreeAnswer",
    "TrussAnswer",
    "banks_search",
    "blinks_search",
    "build_neighbor_lists",
    "keyword_expansion",
    "knk_multi_search",
    "knk_search",
    "rclique_search",
    "truss_search",
]
