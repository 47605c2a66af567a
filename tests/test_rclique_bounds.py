"""r-clique's ``FindTopAnswer`` scans only the stars that could still win.

Each Lawler subspace hands its children per-star lower bounds, and a
child visits stars in ``(bound, position)`` order until none can beat
the best so far (``repro.semantics.rclique._find_top_answer``).  Answers
are held to the eager reference by ``tests/test_rclique_lazy.py``; this
suite pins the saving and the budget contract on the same bench-shaped
PEval calls (tau 5, k 32, the portals on every keyword): the stars
scored fall at least 3x against one per star per call, and every call
still charges exactly one budget expansion per star.
"""

from __future__ import annotations

import repro.semantics.rclique as rclique
from repro.core.budget import QueryBudget
from repro.semantics import rclique_search

from tests.test_rclique_lazy import _bench_shaped


class _Charges(QueryBudget):
    """A budget that records the cost of every checkpoint."""

    def __init__(self) -> None:
        super().__init__()
        self.costs = []

    def checkpoint(self, cost: int = 1) -> None:
        self.costs.append(cost)
        super().checkpoint(cost)


def test_stars_scored_fall_3x_and_each_call_charges_every_star(monkeypatch):
    """The search runs unbudgeted, so a call's own budget sees only its
    star charges (list settles charge the budget the index was built
    with): one expansion per star visited, then one for the rest."""
    calls = []
    real = rclique._find_top_answer

    def charged(keywords, stars, exclusions, bounds, budget=None):
        charges = _Charges()
        found = real(keywords, stars, exclusions, bounds, charges)
        calls.append((len(stars), charges.costs))
        return found

    monkeypatch.setattr(rclique, "_find_top_answer", charged)
    for seed in range(3):
        graph, portals, queries = _bench_shaped(seed)
        for keywords in queries:
            answers = rclique_search(
                graph, keywords, 5.0, 32, extra_candidates=portals,
                enforce_bound=False, search_cutoff=5.0,
            )
            assert len(answers) == 32
    assert len(calls) > 24 * 32
    for stars, costs in calls:
        assert sum(costs) == stars
    every_star = sum(stars for stars, _ in calls)
    # every checkpoint but a call's last is one star visited
    scored_at_most = sum(len(costs) for _, costs in calls)
    assert 3 * scored_at_most <= every_star, (scored_at_most, every_star)
