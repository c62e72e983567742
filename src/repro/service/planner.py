"""The cost-modelled planner: score every registered strategy, pick the cheapest.

Before the Strategy API the planner was a hand-rolled ``if/elif`` ladder
over three hardcoded paths.  It now scores every
:class:`~repro.service.strategies.Strategy` in its
:class:`~repro.service.strategies.StrategyRegistry` with an explicit
:class:`~repro.service.costmodel.CostModel` (per-dataset setup + per-fact
evaluation + classification-weighted SAT terms) and returns a :class:`Plan`
carrying the winner *and* the whole scoreboard, so envelopes can explain why
a strategy won (``repro certain --explain-plan``, the server ``stats`` op).

The built-in strategies keep their historical names — these strings are the
``backend`` field of every answer envelope and are part of the JSON
contract:

``indexed-memory``
    The sequential path over in-memory databases (the default).
``sqlite-pushdown``
    Resolution through the SQLite backend's SQL pushdown: the solution
    pairs and ``Cert_k`` seeds arrive precomputed in the rehydrated
    database's derived cache.
``backend-pushdown``
    Resolution through the pluggable relational backend layer
    (:mod:`repro.backends`): fragments run server-side over a ``dbapi:`` /
    ``backend://`` connection and only the solution-relevant streaming
    reduction is materialised in Python, so the source may be far larger
    than RAM.
``sharded-pool``
    The batch sharded across a multiprocessing pool.  Pool width and chunk
    size are cost-model outputs; an explicit ``workers=N`` request is
    honoured without second-guessing.
``answer-cache``
    The server layer's short-circuit (registered by
    :class:`~repro.server.app.CachingSession`): every dataset of the
    request was served from the answer cache.

Selection order: an explicit ``workers > 1`` batch request shards by
instruction; ``backend="sqlite"`` forces the pushdown when every dataset is
SQLite-resident; otherwise the cheapest eligible strategy wins, with ties
broken by specificity (the specialised path) and then registration order.
An *unknown* ``backend=`` value warns and falls back to this default scored
routing — it forces nothing.

Settings the chosen strategy cannot honour are *reported*, not dropped: the
plan carries warnings (e.g. ``workers`` on a single-dataset request) that
the session copies into every answer envelope and the CLI prints to stderr.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.certain import default_worker_count
from ..core.classification import ClassificationResult
from .costmodel import CostModel
from .datasets import DatasetRef
from .envelope import Request
from .strategies import (
    CostEstimate,
    PlannerContext,
    ScoredStrategy,
    Strategy,
    StrategyRegistry,
    cache_replay_estimate,
)

INDEXED_MEMORY = "indexed-memory"
SQLITE_PUSHDOWN = "sqlite-pushdown"
BACKEND_PUSHDOWN = "backend-pushdown"
SHARDED_POOL = "sharded-pool"
#: The server-layer short-circuit: every dataset of the request was served
#: from the answer cache, so no execution strategy was selected at all.
ANSWER_CACHE = "answer-cache"


@dataclass(frozen=True)
class Plan:
    """The planner's verdict for one request.

    The first five fields are the pre-Strategy-API surface and define plan
    equality; the scoreboard fields (``alternatives``, ``cost``,
    ``chunk_size``) are excluded from comparison so existing
    ``plan == Plan(...)`` assertions keep their meaning.
    """

    strategy: str
    workers: Optional[int]
    pushdown: bool
    reason: str
    warnings: Tuple[str, ...] = ()
    #: Every registered strategy's score for this request (winner included).
    alternatives: Tuple[ScoredStrategy, ...] = field(default=(), compare=False)
    #: The winning strategy's cost estimate (``None`` for unscored plans).
    cost: Optional[CostEstimate] = field(default=None, compare=False)
    #: Sharding granularity (a cost-model output; ``None`` off the pool).
    chunk_size: Optional[int] = field(default=None, compare=False)

    def to_json_dict(self) -> Dict[str, object]:
        """The ``--explain-plan`` payload attached to answer envelopes."""
        payload: Dict[str, object] = {
            "strategy": self.strategy,
            "reason": self.reason,
        }
        if self.workers is not None:
            payload["workers"] = self.workers
        if self.chunk_size is not None:
            payload["chunk_size"] = self.chunk_size
        if self.cost is not None:
            payload["cost"] = self.cost.to_json_dict()
        if self.alternatives:
            payload["alternatives"] = [
                scored.to_json_dict() for scored in self.alternatives
            ]
        return payload

    def explain(self) -> str:
        """A short human-readable account of the decision (CLI rendering)."""
        lines = [f"{self.strategy} — {self.reason}"]
        for scored in self.alternatives:
            if scored.name == self.strategy:
                continue
            if scored.eligible and scored.cost is not None:
                lines.append(
                    f"  over {scored.name}: modelled {scored.cost.total_s * 1e3:.2f} ms"
                )
            else:
                why = "; ".join(scored.reasons) or "ineligible"
                lines.append(f"  not {scored.name}: {why}")
        return "\n".join(lines)


class Planner:
    """Score the registered strategies for a request (see module docs).

    ``cost_model`` defaults to the committed calibration
    (``benchmarks/COST_MODEL.json``); ``registry`` defaults to the built-in
    strategies.  ``default_workers``
    overrides the machine's detected core count (useful for tests and for
    capping a shared host).  The pre-Strategy-API knobs
    ``auto_shard_threshold`` / ``auto_shard_min_facts`` still work and
    override the cost model's calibrated amortisation gates.
    """

    def __init__(
        self,
        default_workers: Optional[int] = None,
        auto_shard_threshold: Optional[int] = None,
        auto_shard_min_facts: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        registry: Optional[StrategyRegistry] = None,
    ) -> None:
        self.default_workers = default_workers
        self.cost_model = cost_model or CostModel.committed()
        self.registry = registry or StrategyRegistry.default()
        self.auto_shard_threshold = (
            auto_shard_threshold
            if auto_shard_threshold is not None
            else self.cost_model.shard_batch_per_worker
        )
        self.auto_shard_min_facts = (
            auto_shard_min_facts
            if auto_shard_min_facts is not None
            else self.cost_model.shard_min_facts
        )

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def resolve_strategy(self, name: str) -> Strategy:
        """The registered strategy behind a plan's name."""
        return self.registry.get(name)

    def cache_plan(self, request: Request) -> Plan:
        """The short-circuit plan used when the answer cache covers a request.

        Taken *before* strategy selection (see
        :class:`repro.server.app.CachingSession`): when every answer of the
        request is already cached there is nothing to route, so neither the
        sharding heuristics nor the pushdown inspection run.
        """
        cost = cache_replay_estimate(self.cost_model, len(request.datasets))
        return Plan(
            ANSWER_CACHE,
            None,
            False,
            f"{request.op}: every answer served from the cache",
            alternatives=(ScoredStrategy(ANSWER_CACHE, True, cost),),
            cost=cost,
        )

    def plan(
        self,
        request: Request,
        classification: Optional[ClassificationResult] = None,
    ) -> Plan:
        datasets = request.datasets
        if request.op in ("classify", "reduce") or not datasets:
            return Plan(INDEXED_MEMORY, None, False, f"{request.op}: no dataset routing")
        warnings: List[str] = []
        backend_mode = self._backend_mode(request, datasets, warnings)
        pushdown = backend_mode != "memory"
        context = self._context(request, datasets, warnings)
        scoreboard = self._score(request, classification, context)
        winner, estimate = self._select(
            request, backend_mode, context, scoreboard
        )
        if winner.name == SHARDED_POOL:
            workers = estimate.workers or 1
            return Plan(
                SHARDED_POOL,
                workers,
                pushdown,
                f"batch of {len(datasets)} datasets sharded over {workers} workers",
                tuple(warnings),
                alternatives=scoreboard,
                cost=estimate,
                chunk_size=estimate.chunk_size,
            )
        if winner.name == SQLITE_PUSHDOWN:
            return Plan(
                SQLITE_PUSHDOWN,
                None,
                True,
                "SQLite-resident data: solution pairs and Cert_k seeds pushed to SQL",
                tuple(warnings),
                alternatives=scoreboard,
                cost=estimate,
            )
        if winner.name == BACKEND_PUSHDOWN:
            return Plan(
                BACKEND_PUSHDOWN,
                None,
                True,
                "relational backend data: fragments run server-side, only the "
                "solution-relevant reduction streams into Python",
                tuple(warnings),
                alternatives=scoreboard,
                cost=estimate,
            )
        reason = (
            "sequential indexed in-memory evaluation"
            if winner.name == INDEXED_MEMORY
            else f"custom strategy {winner.name!r} won the cost comparison"
        )
        return Plan(
            winner.name,
            None,
            pushdown,
            reason,
            tuple(warnings),
            alternatives=scoreboard,
            cost=estimate,
        )

    # ------------------------------------------------------------------ #
    # scoring and selection
    # ------------------------------------------------------------------ #
    def _context(
        self, request: Request, datasets: Sequence[DatasetRef], warnings: List[str]
    ) -> PlannerContext:
        requested = request.workers
        if requested == 0:
            requested = self._machine_workers()
        self._worker_warnings(request, requested, datasets, warnings)
        return PlannerContext(
            cost_model=self.cost_model,
            machine_workers=self._machine_workers(),
            requested_workers=requested,
            size_hints=tuple(ref.size_hint() for ref in datasets),
            shard_threshold=self.auto_shard_threshold,
            shard_min_facts=self.auto_shard_min_facts,
        )

    def _score(
        self,
        request: Request,
        classification: Optional[ClassificationResult],
        context: PlannerContext,
    ) -> Tuple[ScoredStrategy, ...]:
        scored: List[ScoredStrategy] = []
        for strategy in self.registry:
            try:
                eligible, reasons = strategy.supports(request, classification, context)
            except Exception as error:  # noqa: BLE001 - a broken plugin must not break planning
                scored.append(
                    ScoredStrategy(
                        strategy.name,
                        False,
                        reasons=(f"supports() failed: {error}",),
                    )
                )
                continue
            if not eligible:
                scored.append(ScoredStrategy(strategy.name, False, reasons=tuple(reasons)))
                continue
            try:
                estimate = strategy.estimate(
                    request, classification, context.size_hints, context
                )
            except Exception as error:  # noqa: BLE001 - same plugin containment
                scored.append(
                    ScoredStrategy(
                        strategy.name,
                        False,
                        reasons=(f"estimate() failed: {error}",),
                    )
                )
                continue
            scored.append(ScoredStrategy(strategy.name, True, estimate))
        return tuple(scored)

    def _select(
        self,
        request: Request,
        backend_mode: str,
        context: PlannerContext,
        scoreboard: Tuple[ScoredStrategy, ...],
    ) -> Tuple[ScoredStrategy, CostEstimate]:
        by_name = {scored.name: scored for scored in scoreboard}
        # 1. An explicit workers request on a batch is honoured by instruction.
        requested = context.requested_workers
        sharded = by_name.get(SHARDED_POOL)
        if (
            requested is not None
            and requested > 1
            and sharded is not None
            and sharded.eligible
        ):
            return sharded, sharded.cost
        # 2. backend="sqlite" forces the pushdown when it applies and no
        #    sharding instruction outranks it (auto-sharding still wins the
        #    cost comparison below, as it always has).
        pushdown = by_name.get(SQLITE_PUSHDOWN)
        if (
            backend_mode == "sqlite"
            and pushdown is not None
            and pushdown.eligible
            and (sharded is None or not sharded.eligible)
        ):
            return pushdown, pushdown.cost
        # 2b. backend="dbapi" (or a full connection spec) forces the
        #     relational-backend pushdown the same way, when it applies.
        backend_pushdown = by_name.get(BACKEND_PUSHDOWN)
        if (
            backend_mode == "dbapi"
            and backend_pushdown is not None
            and backend_pushdown.eligible
            and (sharded is None or not sharded.eligible)
        ):
            return backend_pushdown, backend_pushdown.cost
        # 3. Cost comparison: cheapest eligible wins; ties break toward the
        #    more specialised strategy, then registration order.
        best: Optional[Tuple[float, int, int, ScoredStrategy]] = None
        for order, scored in enumerate(scoreboard):
            if not scored.eligible or scored.cost is None:
                continue
            specificity = getattr(self.registry.get(scored.name), "specificity", 0)
            key = (round(scored.cost.total_s, 9), -specificity, order)
            if best is None or key < best[:3]:
                best = (*key, scored)
        if best is None:
            # The general-purpose fallback never declines, so this only
            # happens with a gutted custom registry; fail loudly.
            raise RuntimeError(
                f"no registered strategy supports {request.op!r} "
                f"(registry: {', '.join(self.registry.names()) or 'empty'})"
            )
        winner = best[3]
        return winner, winner.cost

    # ------------------------------------------------------------------ #
    # request-setting inspection (warnings)
    # ------------------------------------------------------------------ #
    def _backend_mode(
        self, request: Request, datasets: Sequence[DatasetRef], warnings: List[str]
    ) -> str:
        """Classify the ``backend=`` request: default / memory / sqlite / dbapi.

        An unknown value warns and *falls back to the default scored
        routing*; it used to silently behave like a pushdown request.
        """
        if request.backend == "memory":
            return "memory"
        if request.backend == "sqlite":
            if not any(ref.kind == DatasetRef.SQLITE for ref in datasets):
                warnings.append(
                    "backend=sqlite requested but no dataset is SQLite-resident; "
                    "answering on the in-memory path"
                )
                return "default"
            return "sqlite"
        if request.backend == "dbapi" or (
            request.backend is not None
            and (
                request.backend.startswith("dbapi:")
                or request.backend.startswith("backend://")
            )
        ):
            if not any(ref.kind == DatasetRef.BACKEND for ref in datasets):
                warnings.append(
                    "backend=dbapi requested but no dataset is a relational "
                    "backend connection; answering on the in-memory path"
                )
                return "default"
            return "dbapi"
        if request.backend is not None:
            warnings.append(
                f"unknown backend={request.backend!r} ignored "
                "(expected 'memory', 'sqlite' or 'dbapi'); planner default applies"
            )
        return "default"

    def _worker_warnings(
        self,
        request: Request,
        requested: Optional[int],
        datasets: Sequence[DatasetRef],
        warnings: List[str],
    ) -> None:
        """Warn about worker settings no strategy will honour."""
        if requested is None or requested <= 1:
            return
        if request.op == "support":
            warnings.append(
                "workers ignored: support sampling runs on the sequential path"
            )
        elif len(datasets) <= 1:
            warnings.append(
                f"workers={request.workers} ignored: a single dataset is "
                "answered on the sequential path (sharding needs a batch)"
            )

    def _machine_workers(self) -> int:
        if self.default_workers is not None:
            return max(1, self.default_workers)
        return default_worker_count()
