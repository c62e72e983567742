"""The pluggable execution-strategy API behind the planner.

The dichotomy makes "how should this query run?" a classification question;
this module makes the *answer* a first-class object.  A :class:`Strategy`
bundles the three things the planner needs from an execution path:

``supports(request, classification, context)``
    Whether the strategy can honour the request at all, with human-readable
    reasons when it cannot (these travel into the plan's scored
    alternatives, so ``--explain-plan`` can say *why* a path was skipped).
``estimate(request, classification, size_hints, context)``
    A :class:`CostEstimate` priced by the shared
    :class:`~repro.service.costmodel.CostModel` — per-dataset setup,
    per-fact evaluation and per-SAT-solve terms, plus derived outputs such
    as the pool width and chunk size.
``execute(ctx, request)``
    Produce the answer envelopes through an :class:`ExecutionContext` that
    exposes the owning session's pooled engine and dataset resolution.

A :class:`StrategyRegistry` holds the strategies a planner scores.  The
built-ins are the four execution paths — ``indexed-memory``,
``sqlite-pushdown``, ``backend-pushdown`` and ``sharded-pool`` (the one
parallel batch mode) — under their historical names; the server layer
registers its ``answer-cache`` short-circuit through the same seam
(:class:`repro.server.app.AnswerCacheStrategy`).  Users plug in
their own via ``Session(strategies=[...])``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .datasets import DatasetRef
from .envelope import Answer, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.certain import CertainEngine
    from ..core.classification import ClassificationResult
    from ..db.fact_store import Database
    from .costmodel import CostModel
    from .session import QueryHandle, Session

#: Operations that decide ``certain(q)`` (one cache/compute group).
CERTAIN_OPS = ("certain", "explain", "witness")


@dataclass(frozen=True)
class CostEstimate:
    """One strategy's modelled price for one request.

    ``total_s`` is what the planner compares; the term breakdown
    (``setup_s`` + ``eval_s`` + ``sat_s`` + ``overhead_s``) and the derived
    outputs (``workers``, ``chunk_size``, ``predicted_speedup``) are carried
    for plan explanations.
    """

    total_s: float
    setup_s: float = 0.0
    eval_s: float = 0.0
    sat_s: float = 0.0
    overhead_s: float = 0.0
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    predicted_speedup: Optional[float] = None
    notes: str = ""

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "total_s": self.total_s,
            "setup_s": self.setup_s,
            "eval_s": self.eval_s,
            "sat_s": self.sat_s,
            "overhead_s": self.overhead_s,
        }
        if self.workers is not None:
            payload["workers"] = self.workers
        if self.chunk_size is not None:
            payload["chunk_size"] = self.chunk_size
        if self.predicted_speedup is not None:
            payload["predicted_speedup"] = round(self.predicted_speedup, 3)
        if self.notes:
            payload["notes"] = self.notes
        return payload


def cache_replay_estimate(cost_model, batch: int) -> CostEstimate:
    """The answer-cache short-circuit's price (one definition, two callers:
    :meth:`repro.service.planner.Planner.cache_plan` and
    :meth:`repro.server.app.AnswerCacheStrategy.estimate`)."""
    return CostEstimate(
        total_s=cost_model.cache_replay_cost(batch),
        notes="every envelope replayed from the answer cache",
    )


@dataclass(frozen=True)
class ScoredStrategy:
    """One row of the planner's scoreboard (eligible or not)."""

    name: str
    eligible: bool
    cost: Optional[CostEstimate] = None
    reasons: Tuple[str, ...] = ()

    def to_json_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"strategy": self.name, "eligible": self.eligible}
        if self.cost is not None:
            payload["cost"] = self.cost.to_json_dict()
        if self.reasons:
            payload["reasons"] = list(self.reasons)
        return payload


@dataclass(frozen=True)
class PlannerContext:
    """What the planner knows when scoring strategies for one request.

    ``requested_workers`` is the normalised worker request (``0`` already
    expanded to the machine's count); ``shard_threshold`` /
    ``shard_min_facts`` are the planner's effective gates — the cost model's
    calibrated values unless the planner was constructed with explicit
    overrides (the pre-Strategy-API keyword arguments).
    """

    cost_model: "CostModel"
    machine_workers: int
    requested_workers: Optional[int]
    size_hints: Tuple[Optional[int], ...]
    shard_threshold: int
    shard_min_facts: int


class Strategy:
    """Base class of the pluggable execution-strategy protocol (see module docs).

    Subclasses set :attr:`name` (the string that appears in ``Plan.strategy``
    and every envelope's ``backend`` field) and may raise
    :attr:`specificity` so that ties against the general-purpose fallback
    break toward the more specialised path.
    """

    name: str = ""
    #: Tie-break rank: when two strategies price a request identically the
    #: higher specificity wins (a specialised path beats the fallback).
    specificity: int = 0

    def supports(
        self,
        request: Request,
        classification: Optional["ClassificationResult"],
        context: PlannerContext,
    ) -> Tuple[bool, Tuple[str, ...]]:
        """Whether this strategy can honour the request, with reasons if not."""
        raise NotImplementedError

    def estimate(
        self,
        request: Request,
        classification: Optional["ClassificationResult"],
        size_hints: Sequence[Optional[int]],
        context: PlannerContext,
    ) -> CostEstimate:
        """Price the request with the shared cost model."""
        raise NotImplementedError

    def execute(self, ctx: "ExecutionContext", request: Request) -> List[Answer]:
        """Answer the request (one envelope per dataset)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ExecutionContext:
    """What a strategy may touch while executing: the session's pooled state.

    Strategies never import the session — they receive this narrow handle,
    which exposes the pooled engine of the request's query, plan-aware
    dataset resolution, and the envelope constructor.  ``extras`` carries
    layer-specific payloads (the server's cache hits, for example).
    """

    def __init__(
        self,
        session: "Session",
        handle: "QueryHandle",
        plan,
        extras: Optional[Dict[str, object]] = None,
    ) -> None:
        self.session = session
        self.handle = handle
        self.plan = plan
        self.extras: Dict[str, object] = extras or {}

    @property
    def engine(self) -> "CertainEngine":
        """The session's pooled engine for the request's query."""
        return self.session.engine(self.handle)

    def resolve(self, ref: DatasetRef) -> Tuple["Database", float]:
        """Resolve one dataset reference, honouring the plan's pushdown flag."""
        started = time.perf_counter()
        database = ref.resolve(self.handle.query, pushdown=self.plan.pushdown)
        return database, time.perf_counter() - started

    def answer_for(
        self,
        request: Request,
        ref: DatasetRef,
        database: "Database",
        report,
        timings: Dict[str, float],
        batch_details: Optional[Dict[str, object]] = None,
    ) -> Answer:
        """One envelope for one engine report (the session's uniform shape)."""
        return self.session._report_to_answer(
            request, self.handle, self.plan, ref, database, report, timings,
            batch_details or {},
        )


# --------------------------------------------------------------------------- #
# built-in strategies: the three historical paths behind the new protocol
# --------------------------------------------------------------------------- #
class _SequentialExecution(Strategy):
    """Shared execute() of the two sequential strategies.

    Resolves and answers one dataset at a time, so a long batch never holds
    more than one database in memory (the pre-Strategy-API contract).
    """

    def execute(self, ctx: ExecutionContext, request: Request) -> List[Answer]:
        engine = ctx.engine
        want_witness = request.wants_witness
        answers = []
        for ref in request.datasets:
            database, load_s = ctx.resolve(ref)
            answer_started = time.perf_counter()
            report = engine.explain(database, want_witness=want_witness)
            timings = {
                "load_s": load_s,
                "answer_s": time.perf_counter() - answer_started,
            }
            answers.append(ctx.answer_for(request, ref, database, report, timings))
        return answers


class IndexedMemoryStrategy(_SequentialExecution):
    """The default: sequential indexed evaluation over in-memory databases."""

    name = "indexed-memory"
    specificity = 0

    def supports(self, request, classification, context):
        return True, ()

    def estimate(self, request, classification, size_hints, context):
        model = context.cost_model
        if request.op == "support":
            total = model.support_cost(request.samples, batch=max(1, len(size_hints)))
            return CostEstimate(
                total_s=total,
                eval_s=total,
                notes="Monte-Carlo repair sampling",
            )
        setup_s, eval_s, sat_s = model.cost_breakdown(size_hints, classification)
        # Warm in-memory datasets carry pending fact deltas that the next
        # read replays through the derived-structure maintainers; price that
        # maintenance instead of assuming the matching refreshes for free.
        # Fresh datasets have no backlog, so cold routing is unchanged.
        refresh_s = 0.0
        # A relational-backend dataset answered in memory must first stream
        # the *whole* table out of the server (connect + one row per fact) —
        # the load the backend-pushdown strategy's streaming reduction
        # avoids paying; pricing it here is what makes the planner's
        # crossover real.
        stream_s = 0.0
        for ref, hint in zip(request.datasets, size_hints):
            if ref.kind == DatasetRef.BACKEND:
                n = model.default_facts if hint is None else hint
                stream_s += model.connect_s + model.stream_row_s * n
                continue
            if ref.kind != DatasetRef.MEMORY:
                continue
            database = ref.memory_database
            backlog = database.derived_backlog() if database is not None else 0
            refresh_s += model.matching_refresh_cost(backlog, hint)
        notes = ""
        if refresh_s:
            notes = "warm datasets: pending deltas priced as maintenance"
        elif stream_s:
            notes = "backend datasets: full table streamed into memory first"
        return CostEstimate(
            total_s=setup_s + eval_s + sat_s + refresh_s + stream_s,
            setup_s=setup_s,
            eval_s=eval_s + refresh_s + stream_s,
            sat_s=sat_s,
            notes=notes,
        )


class SqlitePushdownStrategy(_SequentialExecution):
    """Resolution through the SQLite backend's SQL pushdown.

    The rehydrated database arrives with its solution graph (which also seeds
    ``Cert_k``) precomputed in SQL, so the Python side skips the graph
    build — the cost model prices that as a lower per-fact term.
    """

    name = "sqlite-pushdown"
    specificity = 10

    def supports(self, request, classification, context):
        if request.backend == "memory":
            return False, ("backend=memory pins resolution to the in-memory path",)
        if not request.datasets or not all(
            ref.kind == DatasetRef.SQLITE for ref in request.datasets
        ):
            return False, ("needs every dataset SQLite-resident",)
        return True, ()

    def estimate(self, request, classification, size_hints, context):
        setup_s, eval_s, sat_s = context.cost_model.cost_breakdown(
            size_hints, classification, pushdown=True
        )
        return CostEstimate(
            total_s=setup_s + eval_s + sat_s,
            setup_s=setup_s,
            eval_s=eval_s,
            sat_s=sat_s,
            notes="solution pairs and Cert_k seeds precomputed in SQL",
        )


class PushdownStrategy(_SequentialExecution):
    """Resolution through the pluggable relational backend layer.

    Every dataset is a ``dbapi:`` / ``backend://`` connection
    (:class:`~repro.service.datasets.DatasetRef` kind ``backend``); the hot
    relational fragments — the solution-pair self-join, the ``Cert_k`` seed
    filter, per-block counts and escape probes — run server-side as
    parameterised SQL, and only the *solution-relevant reduction* is ever
    materialised in Python (one bounded stream, certainty-equivalent to the
    full table; see :mod:`repro.backends.streaming`).  That is what lets the
    session decide certainty for a database far larger than RAM.
    """

    name = "backend-pushdown"
    specificity = 12

    def supports(self, request, classification, context):
        if request.backend == "memory":
            return False, ("backend=memory pins resolution to the in-memory path",)
        if not request.datasets:
            return False, ("needs at least one dataset",)
        other = [
            ref.describe()
            for ref in request.datasets
            if ref.kind != DatasetRef.BACKEND
        ]
        if other:
            return False, (
                "needs every dataset behind a relational backend connection "
                f"(got {', '.join(other[:3])})",
            )
        return True, ()

    def estimate(self, request, classification, size_hints, context):
        model = context.cost_model
        fraction = model.backend_stream_fraction
        # connect + server-side self-join scan over the full table, then the
        # reduction streams only the solution-relevant fraction into Python
        # and the engine answers over that reduced database.
        connect_s = model.connect_s * max(1, len(size_hints))
        scan_s = 0.0
        stream_s = 0.0
        reduced_hints = []
        for hint in size_hints:
            n = model.default_facts if hint is None else hint
            scan_s += model.pushdown_per_fact_s * n
            stream_s += model.stream_row_s * fraction * n
            reduced_hints.append(max(1, int(fraction * n)))
        setup_s, eval_s, sat_s = model.cost_breakdown(
            reduced_hints, classification, pushdown=True
        )
        return CostEstimate(
            total_s=connect_s + scan_s + stream_s + setup_s + eval_s + sat_s,
            setup_s=connect_s + setup_s,
            eval_s=scan_s + stream_s + eval_s,
            sat_s=sat_s,
            notes=(
                "fragments pushed server-side; only the solution-relevant "
                "reduction streams into Python"
            ),
        )

    def execute(self, ctx: ExecutionContext, request: Request) -> List[Answer]:
        engine = ctx.engine
        want_witness = request.wants_witness
        answers = []
        for ref in request.datasets:
            database, load_s = ctx.resolve(ref)
            answer_started = time.perf_counter()
            report = engine.explain(database, want_witness=want_witness)
            timings = {
                "load_s": load_s,
                "answer_s": time.perf_counter() - answer_started,
            }
            details: Dict[str, object] = {}
            backend = ref.live_backend
            stats = getattr(ref, "last_reduction", None)
            if stats is not None:
                details["streaming"] = stats.to_json_dict()
            if backend is not None:
                details["backend"] = backend.capabilities().to_json_dict()
            answer = ctx.answer_for(
                request, ref, database, report, timings, details
            )
            # Interned backends store term digests in the fact columns;
            # only the few user-visible witness facts are decoded back to
            # real values (wide terms never travel otherwise).
            if answer.witness is not None and backend is not None:
                answer.witness = [
                    str(backend.decode_fact(fact)) for fact in report.witness
                ]
            answers.append(answer)
        return answers


class ShardedPoolStrategy(Strategy):
    """The batch sharded across a multiprocessing pool.

    Eligibility is the cost model's amortisation prediction: a pool only
    pays for itself with more than one effective core, a batch at least one
    amortisation unit wide per worker, and enough known facts to swamp pool
    start-up.  An explicit ``workers=N`` request (N > 1) on a batch always
    shards — the user's setting is honoured, not second-guessed.
    """

    name = "sharded-pool"
    specificity = 20

    def supports(self, request, classification, context):
        if request.op not in CERTAIN_OPS:
            return False, (f"{request.op} runs on the sequential path",)
        batch = len(request.datasets)
        if batch <= 1:
            return False, ("a single dataset is answered sequentially",)
        requested = context.requested_workers
        if requested is not None:
            if requested > 1:
                return True, ()
            return False, ("workers=1 requested: sequential by instruction",)
        if context.machine_workers <= 1:
            return False, (
                "single-core host: the cost model predicts no parallel speedup",
            )
        threshold = context.cost_model.amortisation_batch(
            classification, base=context.shard_threshold
        )
        if batch < threshold:
            return False, (
                f"batch of {batch} below the amortisation unit of {threshold}",
            )
        hints = context.size_hints
        if all(hint is not None for hint in hints):
            total = sum(hints)
            if total < context.shard_min_facts:
                return False, (
                    f"known-tiny batch ({total} facts < {context.shard_min_facts}): "
                    "pool start-up dominates",
                )
        return True, ()

    def pool_workers(self, request, classification, context) -> int:
        """The pool width the cost model picks (or the user requested)."""
        requested = context.requested_workers
        if requested is not None:
            return max(1, requested)
        return context.cost_model.pick_workers(
            len(request.datasets),
            context.machine_workers,
            classification,
            base_threshold=context.shard_threshold,
        )

    def estimate(self, request, classification, size_hints, context):
        model = context.cost_model
        workers = self.pool_workers(request, classification, context)
        sequential = model.sequential_cost(size_hints, classification)
        total = model.pool_cost(size_hints, classification, workers)
        return CostEstimate(
            total_s=total,
            eval_s=sequential / max(1, workers),
            overhead_s=total - sequential / max(1, workers),
            workers=workers,
            chunk_size=model.chunk_size(len(size_hints), workers),
            predicted_speedup=model.predicted_speedup(
                size_hints, classification, workers
            ),
        )

    def execute(self, ctx: ExecutionContext, request: Request) -> List[Answer]:
        plan = ctx.plan
        # The pool needs the whole batch up front; materialise it.
        resolved: List[Tuple[DatasetRef, "Database", float]] = []
        for ref in request.datasets:
            database, load_s = ctx.resolve(ref)
            resolved.append((ref, database, load_s))
        batch_started = time.perf_counter()
        reports = ctx.engine.explain_many(
            [database for _, database, _ in resolved],
            workers=plan.workers,
            chunk_size=plan.chunk_size,
            want_witness=request.wants_witness,
        )
        batch_s = time.perf_counter() - batch_started
        batch_details = {
            "batch_size": len(resolved),
            "workers": plan.workers,
            "chunk_size": plan.chunk_size,
        }
        return [
            ctx.answer_for(
                request,
                ref,
                database,
                report,
                # batch_answer_s is the whole batch's wall-clock (the shards
                # overlap); the per-database answer_s of the sequential path
                # has no meaningful sharded equivalent.
                {"load_s": load_s, "batch_answer_s": batch_s},
                batch_details,
            )
            for (ref, database, load_s), report in zip(resolved, reports)
        ]


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #
class StrategyRegistry:
    """Named strategies a planner scores (see module docs).

    Registration order is preserved and is the final tie-break after cost
    and specificity, so selection is deterministic.
    """

    def __init__(self, strategies: Sequence[Strategy] = ()) -> None:
        self._strategies: Dict[str, Strategy] = {}
        for strategy in strategies:
            self.register(strategy)

    def register(self, strategy: Strategy, replace: bool = False) -> Strategy:
        """Add a strategy; re-registering a name requires ``replace=True``."""
        name = strategy.name
        if not name:
            raise ValueError(f"{type(strategy).__name__} has no name")
        if name in self._strategies and not replace:
            raise ValueError(
                f"strategy {name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._strategies[name] = strategy
        return strategy

    def get(self, name: str) -> Strategy:
        try:
            return self._strategies[name]
        except KeyError:
            raise KeyError(
                f"no strategy named {name!r} is registered "
                f"(have: {', '.join(self._strategies) or 'none'})"
            ) from None

    def names(self) -> List[str]:
        return list(self._strategies)

    def __iter__(self):
        return iter(self._strategies.values())

    def __contains__(self, name: str) -> bool:
        return name in self._strategies

    def __len__(self) -> int:
        return len(self._strategies)

    @classmethod
    def default(cls) -> "StrategyRegistry":
        """The built-in strategies."""
        return cls(
            (
                IndexedMemoryStrategy(),
                SqlitePushdownStrategy(),
                PushdownStrategy(),
                ShardedPoolStrategy(),
            )
        )


__all__ = [
    "CERTAIN_OPS",
    "CostEstimate",
    "ExecutionContext",
    "IndexedMemoryStrategy",
    "PlannerContext",
    "PushdownStrategy",
    "ScoredStrategy",
    "ShardedPoolStrategy",
    "SqlitePushdownStrategy",
    "Strategy",
    "StrategyRegistry",
    "cache_replay_estimate",
]
