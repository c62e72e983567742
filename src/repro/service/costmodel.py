"""The planner's explicit cost model.

Before this layer existed the planner routed with fixed thresholds: shard
when the batch reaches 8 datasets per core, never shard under 500 known
facts, always run ``Cert_k`` with ``k = 3``.  Those numbers were calibrated
once and then hard-coded far from the benchmarks that justified them.  The
:class:`CostModel` makes the arithmetic explicit instead: every
:class:`~repro.service.strategies.Strategy` prices a request as

``per-dataset setup  +  per-fact evaluation  +  per-SAT-solve work``

where the SAT term is weighted by the *classification* — a coNP-complete
query pays one solver call per database (Theorem 9.1's reduction is the
lower bound that makes this unavoidable), the Theorem 6.1 / one-atom classes
pay none, and the remaining PTime classes pay the calibrated fallback
fraction (the engine confirms a negative ``Cert_k ∨ ¬matching`` answer with
one exact solve when the matching's repair does not certify it).

The calibrated constants are committed next to the benchmarks as
``benchmarks/COST_MODEL.json`` (regenerated by
``benchmarks/bench_concurrency.py``); :meth:`CostModel.committed` loads that
file in a repo checkout and falls back to the identical in-code defaults
elsewhere.  Derived *outputs* replace the old fixed thresholds:

* :meth:`pick_workers` / :meth:`chunk_size` — the sharded pool's shape;
* :meth:`amortisation_batch` — the batch-per-worker gate (halved for
  SAT-dominated coNP queries, which amortise pool start-up sooner);
* :meth:`practical_k` — the ``Cert_k`` cut-off the session builds engines
  with;
* :meth:`predicted_speedup` — what sharding is expected to buy, which is
  how a single-core host is routed sequentially *by prediction* instead of
  by a hard-coded core check.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..core.certain import DEFAULT_CHUNKS_PER_WORKER

#: Where the calibrated constants live in a repo checkout (committed next to
#: the benchmark that regenerates them).
COMMITTED_CONSTANTS = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "COST_MODEL.json"
)

#: Classification methods whose deciding algorithm never calls the SAT
#: oracle (the one-atom check and Theorem 6.1's complete ``Cert_2``).
_SAT_FREE_METHODS = frozenset({"TRIVIAL", "SYNTACTIC_EASY"})


@dataclass(frozen=True)
class CostModel:
    """Calibrated per-term costs (seconds) and the outputs derived from them.

    The constants describe the *relative* shape of the system's costs on the
    calibration host — what routing needs — not absolute wall-clock promises.
    ``benchmarks/COST_MODEL.json`` records the committed calibration;
    construct with overrides (or :meth:`from_json_dict`) to recalibrate.
    """

    #: Fixed per-dataset cost: envelope assembly, index/describe bookkeeping.
    engine_setup_s: float = 2.0e-4
    #: Per-fact cost of the indexed in-memory path (graph build + ``Cert_k``).
    per_fact_s: float = 1.5e-5
    #: Base cost of one SAT solve (encoding + DPLL on a small formula).
    sat_solve_s: float = 2.0e-3
    #: SAT cost growth per fact (clauses scale with solution pairs).
    sat_per_fact_s: float = 4.0e-5
    #: Per-dataset cost of the SQLite pushdown resolution (SQL round trips).
    pushdown_setup_s: float = 2.0e-4
    #: Per-fact cost when solution pairs / seeds arrive precomputed from SQL.
    pushdown_per_fact_s: float = 1.0e-5
    #: Fixed cost of establishing a relational backend connection (DB-API
    #: connect + table negotiation) — paid once per dataset by both the
    #: pushdown and the materialising paths.
    connect_s: float = 1.0e-3
    #: Per-row cost of streaming one row out of a backend cursor into Python
    #: (fetchmany amortised: decode + Fact construction).
    stream_row_s: float = 5.0e-6
    #: Expected fraction of a backend table that the solution-relevant
    #: streaming reduction materialises in Python (solution participants +
    #: one escape representative per touched block).  Calibrated against the
    #: escape-heavy workloads of ``benchmarks/bench_backend.py``; the
    #: in-memory alternative streams the *whole* table (fraction 1).
    backend_stream_fraction: float = 0.05
    #: Fixed cost of standing up the multiprocessing pool.
    pool_startup_s: float = 2.0e-4
    #: Per-worker cost of shipping the pickled engine into a pool worker.
    worker_ship_s: float = 1.0e-4
    #: Per-fact cost of shipping a batch into pool workers: every chunk
    #: travels as the pickled fact lists of its databases.
    pickle_per_fact_s: float = 2.0e-6
    #: Cost of serving one envelope from the answer cache (lookup + copy).
    cache_hit_s: float = 2.0e-5
    #: Round-trip overhead of dispatching one request to a remote fleet
    #: worker (JSON encode + loopback TCP + decode), what affinity routing
    #: must beat before a remote worker's warm caches pay off.
    dispatch_rtt_s: float = 5.0e-4
    #: Per-sample cost of the Monte-Carlo repair sampler (``support``).
    support_sample_s: float = 1.0e-4
    #: Per-delta cost of maintaining the cached ``matching(q)`` state (index
    #: probes, the local component reassignment and the augmenting-path
    #: repair share; calibrated from Experiment II.c's update-while-serving
    #: runs in ``benchmarks/bench_incremental.py``).
    matching_delta_s: float = 2.5e-4
    #: Per-fact cost of a from-scratch ``matching(q)`` rebuild (clique
    #: decomposition + ``H(D, q)`` build + cold Hopcroft–Karp) — what a warm
    #: database *avoids* paying on every read after a mutation.
    matching_rebuild_per_fact_s: float = 8.0e-6
    #: Fraction of PTime ``Cert_k``-class databases whose negative answer is
    #: confirmed with one exact SAT solve (the DESIGN.md §5 fallback).
    fallback_sat_fraction: float = 0.25
    #: Assumed fact count when a dataset has no cheap size hint.
    default_facts: int = 300
    #: Sharding granularity: chunks dispatched per pool worker.
    chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER
    #: Batch-per-worker amortisation unit (the old ``auto_shard_threshold``).
    shard_batch_per_worker: int = 8
    #: Known-total-facts floor under which pool start-up dominates
    #: (the old ``auto_shard_min_facts``).
    shard_min_facts: int = 500
    #: The calibrated ``Cert_k`` cut-off (DESIGN.md §5's practical ``k``).
    practical_k_default: int = 3

    # ------------------------------------------------------------------ #
    # per-request cost terms
    # ------------------------------------------------------------------ #
    def sat_fraction(self, classification: Optional[object]) -> float:
        """Expected SAT solves per database for this classification."""
        if classification is None:
            return self.fallback_sat_fraction
        if getattr(classification, "is_conp_complete", False):
            return 1.0
        method = getattr(getattr(classification, "method", None), "name", None)
        if method in _SAT_FREE_METHODS:
            return 0.0
        return self.fallback_sat_fraction

    def cost_breakdown(
        self,
        size_hints: Sequence[Optional[int]],
        classification: Optional[object] = None,
        pushdown: bool = False,
    ) -> Tuple[float, float, float]:
        """``(setup_s, eval_s, sat_s)`` of a batch on a sequential path.

        The single definition of the pricing formula: the sequential
        strategies' estimates and every derived total below read these
        terms, so a recalibration changes all of them together.
        """
        setup_unit = self.pushdown_setup_s if pushdown else self.engine_setup_s
        per_fact = self.pushdown_per_fact_s if pushdown else self.per_fact_s
        sat = self.sat_fraction(classification)
        setup_s = setup_unit * len(size_hints)
        eval_s = 0.0
        sat_s = 0.0
        for hint in size_hints:
            n = self.default_facts if hint is None else hint
            eval_s += per_fact * n
            sat_s += sat * (self.sat_solve_s + self.sat_per_fact_s * n)
        return setup_s, eval_s, sat_s

    def dataset_cost(
        self,
        facts: Optional[int],
        classification: Optional[object] = None,
        pushdown: bool = False,
    ) -> float:
        """Modelled cost of answering one database sequentially."""
        return sum(self.cost_breakdown([facts], classification, pushdown=pushdown))

    def sequential_cost(
        self,
        size_hints: Sequence[Optional[int]],
        classification: Optional[object] = None,
        pushdown: bool = False,
    ) -> float:
        """Modelled cost of a whole batch on a sequential strategy."""
        return sum(self.cost_breakdown(size_hints, classification, pushdown=pushdown))

    def cache_replay_cost(self, batch: int) -> float:
        """Modelled cost of serving a batch entirely from the answer cache."""
        return self.cache_hit_s * max(1, batch)

    def remote_dispatch_cost(self, batch: int = 1) -> float:
        """Modelled wire overhead of routing a batch through the fleet.

        Pure overhead from the dispatcher's point of view — the worker's own
        compute is priced by that worker's planner.  What it buys is
        affinity: the request lands on the worker whose derived caches and
        answer cache already hold this dataset.
        """
        return self.dispatch_rtt_s * max(1, batch)

    def known_facts(self, size_hints: Sequence[Optional[int]]) -> int:
        """Total batch facts with :attr:`default_facts` filling unknowns."""
        return sum(
            self.default_facts if hint is None else hint for hint in size_hints
        )

    def pool_cost(
        self,
        size_hints: Sequence[Optional[int]],
        classification: Optional[object],
        workers: int,
        pushdown: bool = False,
    ) -> float:
        """Modelled cost of the batch sharded over ``workers`` processes.

        Pool start-up, one engine shipment per worker and the per-fact tax
        of pickling every chunk's fact lists, on top of the sequential cost
        split across the workers.
        """
        sequential = self.sequential_cost(size_hints, classification, pushdown=pushdown)
        workers = max(1, workers)
        return (
            self.pool_startup_s
            + self.worker_ship_s * workers
            + self.pickle_per_fact_s * self.known_facts(size_hints)
            + sequential / workers
        )

    def predicted_speedup(
        self,
        size_hints: Sequence[Optional[int]],
        classification: Optional[object],
        workers: int,
        pushdown: bool = False,
    ) -> float:
        """Sequential cost over pool cost: >1 means sharding should pay."""
        pool = self.pool_cost(size_hints, classification, workers, pushdown=pushdown)
        if pool <= 0.0:
            return 1.0
        return self.sequential_cost(size_hints, classification, pushdown=pushdown) / pool

    # ------------------------------------------------------------------ #
    # derived outputs (the old fixed thresholds)
    # ------------------------------------------------------------------ #
    def amortisation_batch(
        self, classification: Optional[object] = None, base: Optional[int] = None
    ) -> int:
        """Smallest auto-shard batch per available worker.

        SAT-dominated (coNP-complete) queries amortise pool start-up sooner
        — every database pays a solver call — so their unit is halved.
        """
        unit = self.shard_batch_per_worker if base is None else base
        if classification is not None and getattr(
            classification, "is_conp_complete", False
        ):
            unit = max(2, unit // 2)
        return max(1, unit)

    def pick_workers(
        self,
        batch_size: int,
        machine_workers: int,
        classification: Optional[object] = None,
        base_threshold: Optional[int] = None,
    ) -> int:
        """Pool width for an auto-sharded batch (capped by the machine)."""
        unit = self.amortisation_batch(classification, base=base_threshold)
        return max(1, min(machine_workers, math.ceil(batch_size / unit)))

    def chunk_size(self, batch_size: int, workers: int) -> int:
        """Sharding granularity: several chunks per worker smooth uneven costs."""
        return max(1, math.ceil(batch_size / (self.chunks_per_worker * max(1, workers))))

    def practical_k(self, classification: Optional[object] = None) -> int:
        """The ``Cert_k`` cut-off the session should build engines with.

        The calibrated default balances the fixpoint's ``n^k`` candidate
        space against the SAT-fallback rate of negative answers; a
        recalibrated model (``CostModel(practical_k_default=...)``) re-routes
        every engine the session builds.
        """
        return self.practical_k_default

    def support_cost(self, samples: int, batch: int = 1) -> float:
        """Modelled cost of Monte-Carlo support estimation."""
        return batch * (self.engine_setup_s + samples * self.support_sample_s)

    # ------------------------------------------------------------------ #
    # incremental-maintenance terms (PR 6)
    # ------------------------------------------------------------------ #
    def matching_rebuild_cost(self, facts: Optional[int] = None) -> float:
        """Modelled cost of a from-scratch ``matching(q)`` recompute."""
        n = self.default_facts if facts is None else facts
        return self.engine_setup_s + self.matching_rebuild_per_fact_s * n

    def matching_refresh_cost(
        self, pending_deltas: int, facts: Optional[int] = None
    ) -> float:
        """Modelled cost of bringing a warm dataset's matching state current.

        Zero when nothing is pending (an unchanged database reads the
        memoised matching outright); otherwise the per-delta maintenance
        term, capped at the from-scratch rebuild cost — exactly the cache's
        own backlog fallback, so the estimate tracks what the read will do.
        Before PR 6 the planner priced this as zero, i.e. it assumed the
        matching was free to refresh; a server absorbing a delta stream now
        sees the maintenance work it actually pays.
        """
        if pending_deltas <= 0:
            return 0.0
        return min(
            self.matching_delta_s * pending_deltas,
            self.matching_rebuild_cost(facts),
        )

    # ------------------------------------------------------------------ #
    # (de)serialisation — the committed calibration file
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CostModel":
        """Build a model from a JSON payload, ignoring unknown keys."""
        known = {field.name for field in fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})

    @classmethod
    def committed(cls, path: Optional[Path] = None) -> "CostModel":
        """The committed calibration (``benchmarks/COST_MODEL.json``).

        Falls back to the in-code defaults — kept byte-identical to the
        committed file by ``tests/test_planner_decisions.py`` — when the
        file is absent (installed packages, vendored copies).
        """
        target = COMMITTED_CONSTANTS if path is None else Path(path)
        try:
            payload = json.loads(target.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cls()
        constants = payload.get("constants", payload)
        if not isinstance(constants, dict):
            return cls()
        try:
            return cls.from_json_dict(constants)
        except TypeError:
            return cls()


# --------------------------------------------------------------------------- #
# calibration refitting (``repro calibrate``)
# --------------------------------------------------------------------------- #

#: Which constants each strategy's observed/predicted ratio rescales.  The
#: strategy names are the planner's wire names (kept literal here — the
#: planner imports this module, not the other way around).
REFIT_TARGETS = {
    "indexed-memory": (
        "engine_setup_s",
        "per_fact_s",
        "sat_solve_s",
        "sat_per_fact_s",
    ),
    "sqlite-pushdown": ("pushdown_setup_s", "pushdown_per_fact_s"),
    "backend-pushdown": ("connect_s", "stream_row_s"),
    "sharded-pool": ("pool_startup_s", "worker_ship_s", "pickle_per_fact_s"),
    "answer-cache": ("cache_hit_s",),
}

#: A single refit never rescales a constant by more than this factor in
#: either direction: one noisy serving window must not be able to swing the
#: model arbitrarily far from its committed calibration.
REFIT_MAX_SCALE = 8.0


@dataclass(frozen=True)
class StrategyDrift:
    """One strategy's observed-vs-predicted summary from a serving window."""

    strategy: str
    requests: int
    predicted_s: float
    observed_s: float
    #: observed/predicted, clamped to ``[1/REFIT_MAX_SCALE, REFIT_MAX_SCALE]``.
    ratio: float
    #: True when the *unclamped* ratio left the drift threshold band.
    flagged: bool
    #: The constants this strategy's ratio rescaled (empty if unknown name).
    constants: Tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "requests": self.requests,
            "predicted_s": self.predicted_s,
            "observed_s": self.observed_s,
            "ratio": self.ratio,
            "flagged": self.flagged,
            "constants": list(self.constants),
        }


def refit_from_timings(
    timings: dict,
    model: Optional[CostModel] = None,
    drift_threshold: float = 2.0,
) -> Tuple[CostModel, "List[StrategyDrift]"]:
    """Refit cost-model constants from recorded strategy timings.

    ``timings`` is the server's ``strategy_timings`` stats block: per
    strategy name, summed ``predicted_s``/``observed_s`` (and ``requests``)
    over a serving window — the session records one row per planned request
    (:meth:`repro.service.session.Session._note_timing`).

    The fit is deliberately simple and robust: each strategy's constants are
    rescaled by its aggregate observed/predicted ratio (clamped to
    ``REFIT_MAX_SCALE``), which preserves the model's *relative* shape — the
    thing routing decisions consume — while moving its absolute scale onto
    the measured host.  A strategy whose unclamped ratio exceeds
    ``drift_threshold`` (or falls below its inverse) is *flagged*: the
    committed calibration no longer describes this host and the operator
    should commit the refit (``repro calibrate --write``).

    Returns the refitted model and one :class:`StrategyDrift` per strategy
    with usable data, ordered by descending drift.
    """
    base = model if model is not None else CostModel.committed()
    drifts: List[StrategyDrift] = []
    scaled: dict = {}
    for strategy, row in sorted(timings.items()):
        if not isinstance(row, dict):
            continue
        predicted = float(row.get("predicted_s", 0.0))
        observed = float(row.get("observed_s", 0.0))
        requests = int(row.get("requests", 0))
        if predicted <= 0.0 or observed < 0.0 or requests <= 0:
            continue
        raw_ratio = observed / predicted
        ratio = min(REFIT_MAX_SCALE, max(1.0 / REFIT_MAX_SCALE, raw_ratio))
        constants = REFIT_TARGETS.get(strategy, ())
        for name in constants:
            scaled[name] = getattr(base, name) * ratio
        drifts.append(
            StrategyDrift(
                strategy=strategy,
                requests=requests,
                predicted_s=predicted,
                observed_s=observed,
                ratio=ratio,
                flagged=(
                    raw_ratio > drift_threshold
                    or raw_ratio < 1.0 / drift_threshold
                ),
                constants=constants,
            )
        )
    drifts.sort(key=lambda drift: max(drift.ratio, 1.0 / drift.ratio), reverse=True)
    refitted = replace(base, **scaled) if scaled else base
    return refitted, drifts
