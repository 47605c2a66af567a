"""The PPKWS framework: PEval / ARefine / AComplete (paper Sec. III-IV)."""

from repro.core.budget import DEFAULT_CHECK_INTERVAL, BatchBudget, QueryBudget
from repro.core.framework import (
    Attachment,
    KnkQueryResult,
    PIPELINE_STEPS,
    PPKWS,
    PublicIndex,
    QueryCounters,
    QueryOptions,
    QueryResult,
    StepBreakdown,
    query_model_m1,
    query_model_m2,
)
from repro.core.partial import (
    KeywordIndicator,
    PairIndicator,
    PartialAnswer,
    PartialKnkAnswer,
    salvage_rooted_answers,
)
from repro.core.dynamic import DynamicPrivateGraph
from repro.core.engine import (
    PipelineContext,
    SemanticsSpec,
    StepSpec,
    register_semantics,
    registered_semantics,
    run_pipeline,
    semantics_spec,
)
from repro.core.persist import load_index, save_index
from repro.core.pp_rclique import CompletionCache
from repro.core.qualify import answer_sides, is_public_private_answer

__all__ = [
    "Attachment",
    "BatchBudget",
    "DEFAULT_CHECK_INTERVAL",
    "CompletionCache",
    "DynamicPrivateGraph",
    "KeywordIndicator",
    "KnkQueryResult",
    "PIPELINE_STEPS",
    "PPKWS",
    "PairIndicator",
    "PartialAnswer",
    "PartialKnkAnswer",
    "PipelineContext",
    "PublicIndex",
    "QueryBudget",
    "QueryCounters",
    "QueryOptions",
    "QueryResult",
    "SemanticsSpec",
    "StepBreakdown",
    "StepSpec",
    "answer_sides",
    "is_public_private_answer",
    "load_index",
    "query_model_m1",
    "query_model_m2",
    "register_semantics",
    "registered_semantics",
    "run_pipeline",
    "salvage_rooted_answers",
    "save_index",
    "semantics_spec",
]
