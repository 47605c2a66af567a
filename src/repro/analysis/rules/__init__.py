"""The ``RAxxx`` rule registry: RA002 and RA010.

RA001 (registry writes under their locks) and RA003 (metric names from
the catalogue) are retired.  A tier-1 test carries each:
``tests/test_service_concurrency.py::test_registry_writes_hold_their_locks``
asserts the lock on every registry write at run time, and
``--check-catalogue`` reads every ``ppkws_*`` string constant of the
tree.

Adding a rule: subclass :class:`~repro.analysis.engine.Rule` in a module
here, give it the next free id, append an instance to :data:`ALL_RULES`,
add a good/bad fixture pair under ``tests/analysis_fixtures/`` and a row
to the README rule table.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.analysis.engine import Rule
from repro.analysis.rules.flow_locks import BlockingUnderLockRule
from repro.analysis.rules.taxonomy import ExceptionTaxonomyRule

__all__ = ["ALL_RULES", "rules_by_id"]

ALL_RULES: Tuple[Rule, ...] = (ExceptionTaxonomyRule(), BlockingUnderLockRule())


def rules_by_id() -> Dict[str, Rule]:
    """Stable-id -> rule instance map."""
    return {rule.id: rule for rule in ALL_RULES}
