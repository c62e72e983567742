"""The session: classify once, plan per workload, answer uniformly.

A :class:`Session` is the service layer's stateful front door.  It owns

* a *query registry*: every query text (or paper name like ``q2``) is parsed
  and classified exactly once per session and reused by every later request
  — the dichotomy's "classify once, then dispatch" as an object;
* an *engine pool*: one :class:`~repro.core.certain.CertainEngine` per
  distinct query, built from the registry's classification, shared across
  all requests of the session (so ``Cert_k`` runners, matchers and the
  classification survive a whole mixed-query workload);
* a :class:`~repro.service.planner.Planner` consulted per request, whose
  :class:`~repro.service.strategies.StrategyRegistry` holds the execution
  strategies.  The certain-answer operations are dispatched *through* the
  winning :class:`~repro.service.strategies.Strategy` object — there is no
  strategy-name ``if/elif`` ladder here — so a strategy registered via
  ``Session(strategies=[...])`` executes end-to-end like a built-in.

Every operation goes through :meth:`Session.answer`, which returns one
:class:`~repro.service.envelope.Answer` per dataset (exactly one for the
dataset-less ``classify`` and ``reduce``).  Exceptions propagate — callers
that need per-request fault isolation (the workload runner) wrap the call.

The registry, engine pool and counters are guarded by an internal lock, so
one session can answer *independent* requests from several threads (the
server's :class:`~repro.server.pool.SessionPool` relies on this; requests
touching the same dataset are serialised by the pool's stripes because
per-database derived caches are not internally locked).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from ..core.approximate import estimate_support
from ..core.certain import CertainEngine, EngineReport
from ..core.classification import ClassificationResult, classify
from ..core.query import TwoAtomQuery, paper_queries, parse_query
from ..core.reduction import sat_reduction
from ..db.fact_store import Database, Repair
from ..logic.cnf import parse_dimacs_like
from ..logic.dpll import is_satisfiable
from .datasets import DatasetRef
from .envelope import Answer, Request
from .planner import Plan, Planner
from .strategies import CERTAIN_OPS, ExecutionContext, Strategy


@dataclass(frozen=True)
class QueryHandle:
    """One registered query: its text, parsed form and classification."""

    name: str
    query: TwoAtomQuery
    classification: ClassificationResult


class Session:
    """Pooled, planner-driven consistent query answering (see module docs).

    ``practical_k=None`` (the default) takes the ``Cert_k`` cut-off from the
    planner's cost model instead of a hardcoded constant; pass an explicit
    integer to override.  ``strategies`` registers extra
    :class:`~repro.service.strategies.Strategy` objects into this session's
    planner registry before the first request.
    """

    def __init__(
        self,
        practical_k: Optional[int] = None,
        strict_polynomial: bool = False,
        planner: Optional[Planner] = None,
        default_workers: Optional[int] = None,
        strategies: Iterable[Strategy] = (),
    ) -> None:
        self.planner = planner or Planner(default_workers=default_workers)
        for strategy in strategies:
            self.planner.registry.register(strategy, replace=True)
        self.practical_k = (
            practical_k
            if practical_k is not None
            else self.planner.cost_model.practical_k()
        )
        self.strict_polynomial = strict_polynomial
        self._handles: Dict[Hashable, QueryHandle] = {}
        self._engines: Dict[TwoAtomQuery, CertainEngine] = {}
        #: Guards the registry, the engine pool and every counter below, so
        #: independent requests can be answered from several threads.
        self._state_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "requests": 0,
            "answers": 0,
            "queries_classified": 0,
            "registry_hits": 0,
            "engines_built": 0,
            "engine_hits": 0,
        }
        #: Winning-strategy counts, surfaced by the server's ``stats`` op.
        self.plan_counts: Dict[str, int] = {}
        #: Per-strategy observed-vs-predicted wall clock, the raw material of
        #: ``repro calibrate`` (see :func:`~repro.service.costmodel.refit_from_timings`).
        self.strategy_timings: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # query registry and engine pool
    # ------------------------------------------------------------------ #
    def _bump(self, key: str, amount: int = 1) -> None:
        with self._state_lock:
            self.stats[key] = self.stats.get(key, 0) + amount

    def _note_plan(self, strategy: str) -> None:
        with self._state_lock:
            self.plan_counts[strategy] = self.plan_counts.get(strategy, 0) + 1

    def _note_timing(
        self,
        strategy: str,
        predicted_s: float,
        observed_s: float,
        *,
        answers: int = 1,
        facts: int = 0,
    ) -> None:
        """Accumulate one request's observed-vs-predicted wall clock.

        One bucket per strategy; sums (not averages) so drift ratios weigh
        each request by its actual cost.
        """
        with self._state_lock:
            bucket = self.strategy_timings.setdefault(
                strategy,
                {
                    "requests": 0,
                    "answers": 0,
                    "facts": 0,
                    "predicted_s": 0.0,
                    "observed_s": 0.0,
                },
            )
            bucket["requests"] += 1
            bucket["answers"] += answers
            bucket["facts"] += facts
            bucket["predicted_s"] += float(predicted_s)
            bucket["observed_s"] += float(observed_s)

    def resolve_query(self, text: str, depth: int = 4) -> QueryHandle:
        """Parse and classify ``text`` (or a paper name), memoised per session."""
        key = (text, depth)
        with self._state_lock:
            handle = self._handles.get(key)
            if handle is not None:
                self.stats["registry_hits"] += 1
                return handle
        named = paper_queries()
        query = named[text] if text in named else parse_query(text)
        kwargs: Dict[str, object] = {"tripath_depth": depth}
        if query.schema.arity > 8:
            # Wide schemas explode the tripath candidate space; bound the
            # search the same way the CLI always has.
            kwargs.update(tripath_merges=1, max_candidates=2000)
        built = QueryHandle(text, query, classify(query, **kwargs))
        with self._state_lock:
            handle = self._handles.get(key)
            if handle is not None:  # raced: keep the first classification
                self.stats["registry_hits"] += 1
                return handle
            self._handles[key] = built
            self.stats["queries_classified"] += 1
        return built

    def engine(self, handle: QueryHandle) -> CertainEngine:
        """The pooled engine of ``handle``'s query (built on first use)."""
        with self._state_lock:
            engine = self._engines.get(handle.query)
            if engine is not None:
                self.stats["engine_hits"] += 1
                return engine
        built = CertainEngine(
            handle.query,
            practical_k=self.practical_k,
            strict_polynomial=self.strict_polynomial,
            classification=handle.classification,
        )
        with self._state_lock:
            engine = self._engines.get(handle.query)
            if engine is not None:  # raced: keep the first engine
                self.stats["engine_hits"] += 1
                return engine
            self._engines[handle.query] = built
            self.stats["engines_built"] += 1
        return built

    # ------------------------------------------------------------------ #
    # the one front door
    # ------------------------------------------------------------------ #
    def answer(self, request: Request) -> List[Answer]:
        """Answer one request; returns one envelope per dataset (min. one)."""
        self._bump("requests")
        started = time.perf_counter()
        handle = self.resolve_query(request.query, depth=request.depth)
        plan = self.planner.plan(request, handle.classification)
        self._note_plan(plan.strategy)
        if request.op == "classify":
            answers = [self._answer_classify(request, handle, plan)]
        elif request.op == "reduce":
            answers = [self._answer_reduce(request, handle, plan)]
        elif request.op == "support":
            answers = self._answer_support(request, handle, plan)
        elif request.op in CERTAIN_OPS:
            answers = self._answer_certain(request, handle, plan)
        else:  # pragma: no cover - Request.__post_init__ rejects unknown ops
            raise ValueError(f"unknown operation {request.op!r}")
        total = time.perf_counter() - started
        for answer in answers:
            answer.timings.setdefault("total_s", total)
            answer.warnings.extend(plan.warnings)
            answer.request_id = request.request_id
            if request.explain_plan:
                answer.details["plan"] = plan.to_json_dict()
        if plan.cost is not None:
            self._note_timing(
                plan.strategy,
                plan.cost.total_s,
                total,
                answers=len(answers),
                facts=sum(
                    (answer.database or {}).get("facts", 0) for answer in answers
                ),
            )
        self._bump("answers", len(answers))
        return answers

    # ------------------------------------------------------------------ #
    # per-operation handlers
    # ------------------------------------------------------------------ #
    def _answer_classify(
        self, request: Request, handle: QueryHandle, plan: Plan
    ) -> Answer:
        result = handle.classification
        return Answer(
            op=request.op,
            query=handle.name,
            verdict=result.complexity.value,
            algorithm=result.algorithm,
            backend=plan.strategy,
            exact=result.exact,
            details={
                "summary": result.summary(),
                "method": result.method.name,
                "method_statement": result.method.value,
                "is_2way_determined": result.is_2way_determined,
                "notes": result.notes,
            },
        )

    def _answer_reduce(
        self, request: Request, handle: QueryHandle, plan: Plan
    ) -> Answer:
        if not request.clauses:
            raise ValueError("reduce requires at least one clause")
        formula = parse_dimacs_like([list(clause) for clause in request.clauses])
        database = sat_reduction(handle.query, formula)
        load_done = time.perf_counter()
        report = self.engine(handle).explain(database)
        satisfiable = is_satisfiable(formula)
        return Answer(
            op=request.op,
            query=handle.name,
            verdict=report.certain,
            algorithm=report.algorithm,
            backend=plan.strategy,
            exact=report.exact,
            timings={"answer_s": time.perf_counter() - load_done},
            database=database.describe_dict(),
            source="reduction:D[phi]",
            details={
                "formula": str(formula),
                "satisfiable": satisfiable,
                "lemma_9_2": satisfiable == (not report.certain),
            },
        )

    def _answer_support(
        self, request: Request, handle: QueryHandle, plan: Plan
    ) -> List[Answer]:
        self._require_datasets(request)
        answers = []
        for ref in request.datasets:
            database, load_s = self._resolve(ref, handle, plan)
            rng = random.Random(request.seed) if request.seed is not None else None
            answer_started = time.perf_counter()
            estimate = estimate_support(
                handle.query,
                database,
                samples=request.samples,
                confidence=request.confidence,
                rng=rng,
            )
            answers.append(
                Answer(
                    op=request.op,
                    query=handle.name,
                    verdict=estimate.estimate,
                    algorithm="Monte-Carlo repair sampling (RepairOracle)",
                    backend=plan.strategy,
                    exact=False,
                    timings={
                        "load_s": load_s,
                        "answer_s": time.perf_counter() - answer_started,
                    },
                    database=database.describe_dict(),
                    source=ref.describe(),
                    witness=_render_repair(estimate.falsifying_repair),
                    details=estimate.to_json_dict(),
                )
            )
        return answers

    def _answer_certain(
        self, request: Request, handle: QueryHandle, plan: Plan
    ) -> List[Answer]:
        """Dispatch through the winning strategy object — no name switching."""
        self._require_datasets(request)
        strategy = self.planner.resolve_strategy(plan.strategy)
        return strategy.execute(ExecutionContext(self, handle, plan), request)

    def _report_to_answer(
        self,
        request: Request,
        handle: QueryHandle,
        plan: Plan,
        ref: DatasetRef,
        database: Database,
        report: EngineReport,
        timings: Dict[str, float],
        batch_details: Dict[str, object],
    ) -> Answer:
        return Answer(
            op=request.op,
            query=handle.name,
            verdict=report.certain,
            algorithm=report.algorithm,
            backend=plan.strategy,
            exact=report.exact,
            timings=dict(timings),
            database=database.describe_dict(),
            source=ref.describe(),
            witness=_render_repair(report.witness),
            details=dict(batch_details),
        )

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _resolve(
        self, ref: DatasetRef, handle: QueryHandle, plan: Plan
    ) -> Tuple[Database, float]:
        started = time.perf_counter()
        database = ref.resolve(handle.query, pushdown=plan.pushdown)
        return database, time.perf_counter() - started

    @staticmethod
    def _require_datasets(request: Request) -> None:
        if not request.datasets:
            raise ValueError(f"operation {request.op!r} requires at least one dataset")

    def describe(self) -> str:
        """One-line session summary (requests served, pooled state)."""
        return (
            f"Session(requests={self.stats['requests']}, "
            f"answers={self.stats['answers']}, "
            f"queries={len(self._handles)}, engines={len(self._engines)})"
        )


def _render_repair(repair: Optional[Repair]) -> Optional[List[str]]:
    if repair is None:
        return None
    return [str(fact) for fact in repair]
