"""The PPKWS engine: indexes, attachments and the three-step pipeline.

Usage mirrors the paper's deployment story:

1. Build a :class:`PublicIndex` over the shared public graph once
   (PageRank -> PADS -> KPADS).  This is the only large index and it is
   user-independent.
2. :meth:`PPKWS.attach` a user's private graph: portal discovery, the
   small per-user maps (portal distances on both sides, the Algo-7
   combined refinement, PKD, vertex-portal distances) are built here in
   ``O(|P| * (|G'| + |P|^2))`` — cheap because ``|G'| << |G|``.  The
   sweeps behind that bound: one full Dijkstra over ``G'`` per portal,
   kept as the attachment's portal rows (the vertex-portal map and
   ``d'(p_i, p_j)`` are read off them at once, PKD column by column on
   a keyword's first lookup), and one sweep over ``G`` per portal that
   looks for the later portals only and stops at the radius where
   ``G'`` is already as short — the public graph's size never enters.
3. Query via :meth:`PPKWS.rclique`, :meth:`PPKWS.blinks` or
   :meth:`PPKWS.knk`; each runs PEval / ARefine / AComplete and returns
   the answers plus a per-step timing breakdown (the quantity plotted in
   the paper's Fig. 6 d-f, j-l, p-r).

The module also provides the alternative query models of Appx. D:
M1 (public and private evaluated separately) and M2 (baseline on the
materialized combined graph), which the benchmarks compare against
M3 (= PPKWS).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.budget import QueryBudget
from repro.core.qualify import is_public_private_answer as _is_public_private_answer
from repro.exceptions import GraphError, OwnerNotAttachedError, QueryError
from repro.graph.frozen import FrozenGraph, freeze as _freeze
from repro.graph.labeled_graph import Label, LabeledGraph, Vertex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.protocol import GraphLike
from repro.graph.pagerank import pagerank
from repro.graph.public_private import combine, portal_nodes
from repro.portals.distance_map import PortalDistanceMap, combined_portal_maps
from repro.portals.keyword_map import PrivateSweeps, build_private_maps
from repro.portals.oracle import CombinedDistanceOracle, SketchPublicDistance
from repro.semantics.answers import KnkAnswer, RootedAnswer
from repro.semantics.wire import check_count
from repro.sketches.base import DistanceSketch
from repro.sketches.kpads import KeywordSketch, build_kpads
from repro.sketches.pads import build_pads

__all__ = [
    "PublicIndex",
    "Attachment",
    "StepBreakdown",
    "QueryCounters",
    "QueryResult",
    "KnkQueryResult",
    "PIPELINE_STEPS",
    "PPKWS",
    "QueryOptions",
    "query_model_m1",
    "query_model_m2",
]


# ----------------------------------------------------------------------
# indexes
# ----------------------------------------------------------------------
@dataclass
class PublicIndex:
    """The user-independent indexes over the public graph (Sec. V-A/B).

    :attr:`graph` is always a :class:`~repro.graph.frozen.FrozenGraph`:
    any other graph handed in is interned first, a frozen one is kept
    as it is.
    """

    graph: FrozenGraph
    pads: DistanceSketch
    kpads: KeywordSketch
    pagerank_scores: Dict[Vertex, float]

    def __post_init__(self) -> None:
        self.graph = _freeze(self.graph)

    @classmethod
    def build(
        cls,
        graph: "GraphLike",
        k: int = 2,
        alpha: float = 0.85,
        kpads_per_center: int = 4,
    ) -> "PublicIndex":
        """Freeze, then PageRank, PADS with bottom-``k`` parameter, KPADS.

        ``kpads_per_center`` controls the depth of KPADS candidate lists
        (used by PP-knk completion; 1 = the paper's minimal merge).
        """
        graph = _freeze(graph)
        scores = pagerank(graph, alpha=alpha)
        pads = build_pads(graph, k=k, ranks=scores)
        kpads = build_kpads(graph, pads, per_center=kpads_per_center)
        return cls(graph, pads, kpads, scores)

    def provider(self) -> SketchPublicDistance:
        """The sketch-backed public distance provider."""
        return SketchPublicDistance(self.pads, self.kpads)


@dataclass
class Attachment:
    """Everything PPKWS keeps per attached private graph (Sec. V-C).

    An attachment and its ``private`` graph never change once built: a
    dynamic edit builds a new attachment over an edited copy of ``G'``
    (:class:`~repro.core.dynamic.DynamicPrivateGraph`).
    """

    owner: str
    private: LabeledGraph
    portals: FrozenSet[Vertex]
    #: combined-graph portal distances dc(p_i, p_j) (Algo 7 output)
    portal_map: PortalDistanceMap
    #: private-graph-only portal distances d'(p_i, p_j)
    private_portal_map: PortalDistanceMap
    #: portal pairs (both orientations) that got strictly shorter in Gc
    refined_portal_pairs: FrozenSet[Tuple[Vertex, Vertex]]
    oracle: CombinedDistanceOracle
    #: per-source sweeps of ``private``: the portal rows attach read its
    #: maps off, and the rows k-nk replays, filled on first read; they
    #: live and die with this attachment
    sweeps: PrivateSweeps = field(repr=False, compare=False)

    @property
    def has_refined_portals(self) -> bool:
        """Lemma VI.1 gate: no refined portal pair => no pair can improve."""
        return bool(self.refined_portal_pairs)

    @property
    def refined_by_source(self) -> Dict[Vertex, Tuple[Vertex, ...]]:
        """Refined portal pairs grouped by first portal (reduced ARefine).

        The ``pairs_by_source`` argument of the oracle's Eq.-4/5 tables
        (``vertex_detours`` / ``keyword_detours``): grouping lets a table
        walk each first portal's refined second portals directly, so the
        reduced table costs the refined pairs, never more than the full
        ``|P|^2`` one.  Computed lazily and cached on the instance.
        """
        cached = getattr(self, "_refined_by_source", None)
        if cached is None:
            grouped: Dict[Vertex, List[Vertex]] = {}
            for pi, pj in self.refined_portal_pairs:
                grouped.setdefault(pi, []).append(pj)
            cached = {pi: tuple(pjs) for pi, pjs in grouped.items()}
            object.__setattr__(self, "_refined_by_source", cached)
        return cached


# ----------------------------------------------------------------------
# query-time records
# ----------------------------------------------------------------------
@dataclass
class StepBreakdown:
    """Wall-clock seconds spent in each of the three PPKWS steps."""

    peval: float = 0.0
    arefine: float = 0.0
    acomplete: float = 0.0

    def record(self, step: str, seconds: float) -> None:
        """Store ``seconds`` into ``step``'s slot.

        Non-standard steps (e.g. BANKS' ``materialize``) have no slot
        and are silently dropped — the breakdown reports the three
        framework steps only, matching its wire serialization.
        """
        if step in PIPELINE_STEPS:
            setattr(self, step, seconds)

    @property
    def total(self) -> float:
        """Total query time."""
        return self.peval + self.arefine + self.acomplete

    def fractions(self) -> Tuple[float, float, float]:
        """Per-step shares of the total (0 when the query was free)."""
        t = self.total
        if t == 0:
            return (0.0, 0.0, 0.0)
        return (self.peval / t, self.arefine / t, self.acomplete / t)


@dataclass
class QueryCounters:
    """Work counters exposed for tests, ablations and debugging."""

    partial_answers: int = 0
    refinement_checks: int = 0
    refinements_applied: int = 0
    completion_lookups: int = 0
    completion_cache_hits: int = 0
    answers_pruned: int = 0
    final_answers: int = 0


#: The three pipeline steps, in execution order.
PIPELINE_STEPS: Tuple[str, str, str] = ("peval", "arefine", "acomplete")


@dataclass
class QueryResult:
    """Answers plus instrumentation for a Blinks / r-clique query.

    ``degraded`` is true when a query budget (deadline / expansion cap /
    cancellation) expired mid-pipeline: ``answers`` then holds the best
    answers completed before the budget ran out, ``completed_steps``
    names the steps that finished, and ``interrupted_step`` the one cut
    short.  Degraded answer sets are best-effort: the public-private
    qualification may not have run and answers completed by later steps
    are absent.
    """

    answers: List[RootedAnswer]
    breakdown: StepBreakdown
    counters: QueryCounters
    degraded: bool = False
    completed_steps: Tuple[str, ...] = PIPELINE_STEPS
    interrupted_step: Optional[str] = None


@dataclass
class KnkQueryResult:
    """Answer plus instrumentation for a k-nk query.

    See :class:`QueryResult` for the degradation fields.
    """

    answer: KnkAnswer
    breakdown: StepBreakdown
    counters: QueryCounters
    degraded: bool = False
    completed_steps: Tuple[str, ...] = PIPELINE_STEPS
    interrupted_step: Optional[str] = None


@dataclass
class QueryOptions:
    """Tuning knobs of the framework.

    ``reduced_refinement`` and ``dp_completion`` are the two Sec.-VI
    optimizations (both on by default; the ablation benchmark flips
    them).  ``peval_answers`` bounds how many partial answers PEval may
    emit — the paper enumerates r-clique spaces until exhaustion, which
    is safe on small private graphs but still worth capping.

    ``deadline_ms`` / ``max_expansions`` give every query a default
    :class:`~repro.core.budget.QueryBudget` (wall-clock budget in
    milliseconds / node-expansion cap).  Both default to ``None`` — no
    budget object is created and the hot paths skip all budget checks,
    keeping results bit-identical to the unbudgeted code.  Per-call
    arguments on the :class:`PPKWS` entry points override these.
    """

    reduced_refinement: bool = True
    dp_completion: bool = True
    peval_answers: int = 32
    deadline_ms: Optional[float] = None
    max_expansions: Optional[int] = None


class _Timer:
    """Tiny context helper accumulating wall time into a breakdown slot."""

    __slots__ = ("_start",)

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class PPKWS:
    """Public-private keyword search over one public graph.

    Example
    -------
    >>> from repro.graph import LabeledGraph
    >>> pub = LabeledGraph.from_edges([(0, 1), (1, 2)], {0: {"a"}, 2: {"b"}})
    >>> priv = LabeledGraph.from_edges([(2, 10)], {10: {"c"}})
    >>> engine = PPKWS(pub, sketch_k=2)
    >>> _ = engine.attach("bob", priv)
    >>> result = engine.rclique("bob", ["b", "c"], tau=3.0)
    >>> len(result.answers) >= 1
    True
    """

    def __init__(
        self,
        public: "GraphLike",
        sketch_k: int = 2,
        alpha: float = 0.85,
        options: Optional[QueryOptions] = None,
        index: Optional[PublicIndex] = None,
    ) -> None:
        self.options = options or QueryOptions()
        self.index = index if index is not None else PublicIndex.build(
            public, k=sketch_k, alpha=alpha
        )
        if (
            self.index.graph is not public
            and (
                self.index.graph.num_vertices != public.num_vertices
                or self.index.graph.num_edges != public.num_edges
            )
        ):
            raise GraphError("provided index was built over a different graph")
        # The index's graph is authoritative and always frozen, so
        # queries run over the graph the sketches were built from.
        self.public = self.index.graph
        self._provider = self.index.provider()
        self._attachments: Dict[str, Attachment] = {}
        # Guards mutations of (and iteration over) the attachment map so
        # attach/detach are safe while queries run on other threads.
        # Single-key reads stay lock-free: dict lookups are atomic and
        # queries hold the Attachment object itself, which is immutable.
        self._attachments_lock = threading.Lock()
        # owner -> how often that owner's attachment changed; never
        # shrinks (a re-attach must not repeat an old value).  The
        # service's answer cache, an owner-side cache, compares it instead
        # of enumerating the entries a change affected.
        self._owner_epochs: Counter[str] = Counter()

    # ------------------------------------------------------------------
    def attach(self, owner: str, private: LabeledGraph) -> Attachment:
        """Attach a private graph: portal discovery + per-user maps.

        Thread-safe: concurrent attaches of the same owner are resolved
        by an atomic check-and-insert — exactly one wins, the others
        raise :class:`GraphError` (the early check merely fails fast
        before the expensive map construction).
        """
        self._require(owner, attached=False)
        attachment = self._build_attachment(owner, private)
        self._write(owner, attachment, attached=False)
        return attachment

    def detach(self, owner: str) -> None:
        """Drop an attachment (the user logged out).  Thread-safe."""
        self._write(owner, None, attached=True)

    def _reattach(self, owner: str, private: LabeledGraph) -> None:
        """Replace ``owner``'s attachment by a fresh one over ``private``.

        The copy-on-write step of
        :class:`~repro.core.dynamic.DynamicPrivateGraph`: the new state is
        built off to the side, then swapped in with one write that moves
        the owner's epoch once, so the owner is never unattached and a
        query holding the old attachment reads it to the end.  A build
        that fails (no portal left) leaves the old attachment in place.
        """
        self._write(owner, self._build_attachment(owner, private), attached=True)

    def _require(self, owner: str, attached: bool) -> None:
        """Raise unless ``owner`` is attached exactly when ``attached``."""
        if owner not in self._attachments:
            if attached:
                raise OwnerNotAttachedError(owner)
        elif not attached:
            raise GraphError(f"owner {owner!r} already attached")

    def _write(
        self, owner: str, attachment: Optional[Attachment], attached: bool
    ) -> None:
        """The one write of the attachment map: under the lock, check
        ``owner``'s presence (:meth:`_require`), install ``attachment``
        (``None`` removes it) and move the owner's epoch."""
        with self._attachments_lock:
            self._require(owner, attached)
            if attachment is None:
                del self._attachments[owner]
            else:
                self._attachments[owner] = attachment
            self._owner_epochs[owner] += 1

    def _build_attachment(self, owner: str, private: LabeledGraph) -> Attachment:
        """Portal discovery and the per-user maps over ``private``."""
        portals = portal_nodes(self.public, private)
        if not portals:
            raise GraphError(
                f"private graph of {owner!r} has no portal nodes; "
                "public-private answers cannot exist"
            )
        sweeps = PrivateSweeps(private)
        pkd, vpm = build_private_maps(private, portals, sweeps)
        combined_pm, private_pm, refined = combined_portal_maps(
            self.public, portals, vpm
        )
        oracle = CombinedDistanceOracle(
            private, combined_pm, vpm, pkd, self._provider
        )
        return Attachment(
            owner=owner,
            private=private,
            portals=portals,
            portal_map=combined_pm,
            private_portal_map=private_pm,
            refined_portal_pairs=frozenset(refined),
            oracle=oracle,
            sweeps=sweeps,
        )

    def attachment(self, owner: str) -> Attachment:
        """The per-user state for ``owner``."""
        try:
            return self._attachments[owner]
        except KeyError:
            raise OwnerNotAttachedError(owner) from None

    def owner_epoch(self, owner: str) -> int:
        """How often ``owner``'s attachment changed (0: never attached).

        The lifetime of every owner-side cached fact: a private graph is
        visible to its owner only (Sec. II), so an attach, detach or
        dynamic edit can change that owner's answers and nobody
        else's.  Public-side facts (PKA rows, sweep columns) depend on
        the immutable public index and outlive every attachment.
        """
        return self._owner_epochs[owner]  # a Counter: 0, uninserted, if absent

    @property
    def attachment_epoch(self) -> int:
        """Monotonic count of attachment changes, all owners together."""
        with self._attachments_lock:
            return sum(self._owner_epochs.values())

    def owners(self) -> List[str]:
        """Attached owners.

        Takes the attachment lock: iterating a dict while another thread
        attaches/detaches raises ``RuntimeError`` mid-listing otherwise.
        """
        with self._attachments_lock:
            return list(self._attachments)

    # ------------------------------------------------------------------
    def make_budget(
        self,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> Optional[QueryBudget]:
        """The effective budget for one query.

        An explicit ``budget`` wins; otherwise per-call limits override
        the :class:`QueryOptions` defaults.  Returns ``None`` when no
        limit applies — the hot paths then skip all budget checks, so
        unbudgeted queries behave bit-identically to the pre-budget code.
        """
        if budget is not None:
            return budget
        if deadline_ms is None:
            deadline_ms = self.options.deadline_ms
        if max_expansions is None:
            max_expansions = self.options.max_expansions
        if deadline_ms is None and max_expansions is None:
            return None
        return QueryBudget(deadline_ms=deadline_ms, max_expansions=max_expansions)

    def rclique(
        self,
        owner: str,
        keywords: Sequence[Label],
        tau: float,
        k: int = 10,
        require_public_private: bool = True,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """PP-r-clique (Sec. IV-A): top-``k`` star answers on ``Gc``.

        Budget expiry degrades gracefully: see :class:`QueryResult`.
        """
        result: QueryResult = self.query(
            "rclique", owner, deadline_ms=deadline_ms,
            max_expansions=max_expansions, budget=budget,
            keywords=list(keywords), tau=tau, k=k,
            require_public_private=require_public_private,
        )
        return result

    def blinks(
        self,
        owner: str,
        keywords: Sequence[Label],
        tau: float,
        k: int = 10,
        require_public_private: bool = True,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """PP-Blinks (Sec. IV-B): top-``k`` rooted-tree answers on ``Gc``.

        Budget expiry degrades gracefully: see :class:`QueryResult`.
        """
        result: QueryResult = self.query(
            "blinks", owner, deadline_ms=deadline_ms,
            max_expansions=max_expansions, budget=budget,
            keywords=list(keywords), tau=tau, k=k,
            require_public_private=require_public_private,
        )
        return result

    def banks(
        self,
        owner: str,
        keywords: Sequence[Label],
        tau: float,
        k: int = 10,
        require_public_private: bool = True,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> QueryResult:
        """PP-BANKS: Blinks answers with materialized answer trees.

        Runs the PP-Blinks pipeline, then reconstructs each answer's tree
        lazily over the combined view (exact paths, no materialization).
        Budget expiry degrades gracefully: see :class:`QueryResult`.
        """
        result: QueryResult = self.query(
            "banks", owner, deadline_ms=deadline_ms,
            max_expansions=max_expansions, budget=budget,
            keywords=list(keywords), tau=tau, k=k,
            require_public_private=require_public_private,
        )
        return result

    def knk(
        self,
        owner: str,
        source: Vertex,
        keyword: Label,
        k: int,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> KnkQueryResult:
        """PP-knk (Sec. IV-C / Appx. A): top-``k`` nearest keyword on ``Gc``.

        Budget expiry degrades gracefully: see :class:`KnkQueryResult`.
        """
        result: KnkQueryResult = self.query(
            "knk", owner, deadline_ms=deadline_ms,
            max_expansions=max_expansions, budget=budget,
            source=source, keyword=keyword, k=k,
        )
        return result

    def knk_multi(
        self,
        owner: str,
        source: Vertex,
        keywords: Sequence[Label],
        k: int,
        mode: str = "and",
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> KnkQueryResult:
        """Multi-keyword PP-knk: conjunctive (``"and"``) or disjunctive
        (``"or"``) nearest-keyword search (the Sec.-II extension).

        Budget expiry degrades gracefully: see :class:`KnkQueryResult`.
        """
        result: KnkQueryResult = self.query(
            "knk_multi", owner, deadline_ms=deadline_ms,
            max_expansions=max_expansions, budget=budget,
            source=source, keywords=list(keywords), k=k, mode=mode,
        )
        return result

    def query(
        self,
        semantics: str,
        owner: str,
        *,
        deadline_ms: Optional[float] = None,
        max_expansions: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
        cache: Optional[object] = None,
        **params: object,
    ) -> object:
        """Run any registered semantics by name through the engine.

        The named methods above (``blinks``, ``knk``, …) are sugar over
        this generic entry point; plugins registered via
        :func:`repro.core.engine.register_semantics` are reachable only
        here (and on the wire).  Unknown names raise
        :class:`~repro.exceptions.QueryError`.
        """
        from repro.core.engine import semantics_spec

        spec = semantics_spec(semantics)
        return spec.run(
            self, self.attachment(owner), dict(params),
            budget=self.make_budget(deadline_ms, max_expansions, budget),
            cache=cache,
        )


# ----------------------------------------------------------------------
# alternative query models (Appx. D)
# ----------------------------------------------------------------------
def query_model_m1(
    public: LabeledGraph,
    private: LabeledGraph,
    semantic: str,
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
) -> Tuple[List[RootedAnswer], List[RootedAnswer]]:
    """M1: evaluate on the public and private graphs *individually*.

    Returns ``(public_answers, private_answers)`` — by construction none
    of them is a public-private answer.

    Dispatch goes through the semantics registry: any registered
    semantics that declares a ``baseline_m1`` (a plain single-graph
    search, see :class:`~repro.core.engine.SemanticsSpec`) works here,
    plugins included.  Unknown names and semantics without a baseline
    raise :class:`~repro.exceptions.QueryError`.
    """
    from repro.core.engine import semantics_spec

    spec = semantics_spec(semantic)
    if spec.baseline_m1 is None:
        raise QueryError(
            f"semantics {semantic!r} does not support query model M1"
        )
    return (
        spec.baseline_m1(public, keywords, tau, k),
        spec.baseline_m1(private, keywords, tau, k),
    )


def query_model_m2(
    public: LabeledGraph,
    private: LabeledGraph,
    semantic: str,
    keywords: Sequence[Label],
    tau: float,
    k: int = 10,
    combined: Optional[LabeledGraph] = None,
    require_public_private: bool = True,
) -> List[RootedAnswer]:
    """M2: the baseline — run the original algorithm on ``Gc`` directly.

    This is ``Baseline-Blinks`` / ``Baseline-rclique`` from the paper's
    experiments: the plain algorithm plus a qualification filter keeping
    only public-private answers.  Pass a pre-materialized ``combined``
    graph to keep the ⊕ cost out of measured regions.
    """
    from repro.core.engine import semantics_spec

    spec = semantics_spec(semantic)
    if spec.baseline_m2 is None:
        raise QueryError(
            f"semantics {semantic!r} does not support query model M2"
        )
    check_count("k", k)  # the baselines scale k before their search sees it
    gc = combined if combined is not None else combine(public, private)
    # The spec's baseline_m2 owns the enumeration-prefix policy (Blinks
    # enumerates every root, r-clique a generous k*8 prefix — the
    # public-private qualification below is a post-filter and answers
    # need not rank in the global top-k).
    answers = spec.baseline_m2(gc, keywords, tau, k)
    if require_public_private:
        answers = [
            a for a in answers if _is_public_private_answer(a, public, private)
        ]
    return answers[:k]


