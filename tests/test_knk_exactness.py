"""PP-knk distances against Dijkstra on the materialized union graph.

``repro.core.pp_knk``'s docstring rests Lemma A.1 on one distance claim:
after ARefine, private match distances are *exact* on ``Gc = G ⊕ G'``.
This suite checks that claim directly, for both halves of the k-nk
refinement — every returned private, non-portal match and every refined
portal entry AComplete extends must equal the combined-graph distance
from the query vertex.  Weights are small integers, so the sums are
exact and the comparison is ``==``.

Each case runs on both routes a public graph reaches the engine by:
handed over as a ``LabeledGraph`` (``dict``) or already frozen.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import PPKWS
from repro.core.engine import StepSpec, run_pipeline
from repro.core.framework import QueryOptions
from repro.core.pp_knk import KNK
from repro.graph import INF, combine, dijkstra
from tests.conftest import PREFROZEN, handed
from tests.test_core_correctness import LABELS, _instance


def _recording_knk(entries):
    """:data:`KNK` with AComplete first copying the refined portal entries."""
    acomplete = KNK.steps[2].run

    def record_then_complete(ctx):
        entries.extend(ctx.state.portal_entries)
        acomplete(ctx)

    return replace(
        KNK, steps=KNK.steps[:2] + (StepSpec("acomplete", record_then_complete),)
    )


@pytest.mark.parametrize("prefrozen", PREFROZEN, ids=lambda f: "frozen" if f else "dict")
@pytest.mark.parametrize("reduced", (True, False), ids=("reduced", "full"))
@pytest.mark.parametrize("seed", range(24))
def test_refined_distances_are_union_graph_distances(seed, reduced, prefrozen):
    pub, priv = _instance(seed)
    engine = PPKWS(
        handed(pub, prefrozen), sketch_k=128,
        options=QueryOptions(reduced_refinement=reduced),
    )
    attachment = engine.attach("u", priv)
    portals = attachment.portals
    union = combine(pub, priv)
    entries: list = []
    spec = _recording_knk(entries)
    checked = 0
    for source in sorted(priv.vertices(), key=repr):
        exact = dijkstra(union, source)
        for keyword in LABELS:
            del entries[:]
            result = run_pipeline(
                spec, engine, attachment,
                {"source": source, "keyword": keyword, "k": 6},
            )
            for m in result.answer.matches:
                if m.vertex in priv and m.vertex not in portals:
                    assert m.distance == exact.get(m.vertex, INF), (
                        seed, source, keyword, m,
                    )
                    checked += 1
            for portal, d in entries:
                assert d == exact.get(portal, INF), (seed, source, keyword, portal)
                checked += 1
    assert checked, "no private match or portal entry was checked"
