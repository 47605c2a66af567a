"""The ``RAxxx`` rule registry.

Adding a rule: subclass :class:`~repro.analysis.engine.Rule` in a module
here, give it the next free id, append an instance to :data:`ALL_RULES`,
add a good/bad fixture pair under ``tests/analysis_fixtures/`` and a row
to the README rule table.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.engine import Rule
from repro.analysis.rules.flow_locks import BlockingUnderLockRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.metrics import MetricCatalogueRule
from repro.analysis.rules.taxonomy import ExceptionTaxonomyRule

__all__ = ["ALL_RULES", "rules_by_id"]

ALL_RULES: Tuple[Rule, ...] = (
    LockDisciplineRule(),
    ExceptionTaxonomyRule(),
    MetricCatalogueRule(),
    BlockingUnderLockRule(),
)


def rules_by_id() -> Dict[str, Rule]:
    """Stable-id -> rule instance map."""
    return {rule.id: rule for rule in ALL_RULES}
