"""The resident server core: a cache-aware session behind one front door.

Three classes live here:

* :class:`AnswerCacheStrategy` — the ``answer-cache`` short-circuit as a
  real :class:`~repro.service.strategies.Strategy`: when every answer of a
  request is already cached, the planner's scored plan names this strategy
  and *it* serves the envelopes, through the same registry seam that routes
  the compute paths.
* :class:`CachingSession` — a :class:`~repro.service.session.Session` that
  consults an :class:`~repro.server.cache.AnswerCache` *before* the planner
  runs.  A fully-cached request short-circuits strategy selection entirely
  (:meth:`~repro.service.planner.Planner.cache_plan`); a partially-cached
  batch re-plans only over the missing datasets.  Every served envelope
  carries cache provenance in ``details["cache"]`` (``"hit"`` / ``"miss"``).
* :class:`CQAServer` — the transport-independent server: one caching
  session behind a :class:`~repro.server.pool.SessionPool` (read-only
  requests overlap under per-dataset stripe locks; mutation paths stay
  exclusive), the workload-line protocol shared with ``repro run``
  (:func:`~repro.service.runner.parse_request_line` dialect), per-request
  fault isolation, and the ``stats`` operation exposing hit rates,
  per-query timings, strategy selection counts and the concurrency
  counters.

Transports (:mod:`repro.server.jsonl`, :mod:`repro.server.http_transport`)
hold a :class:`CQAServer` and translate bytes to
:meth:`CQAServer.handle_line` / :meth:`CQAServer.handle_payload` calls; they
never touch the session directly, so every transport sees the same pool and
the same cache.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..backends.base import backend_totals
from ..db.fact_store import derived_cache_totals
from ..service.datasets import DatasetRef
from ..service.envelope import CATALOG_OP, Answer, Request, request_from_json_dict
from ..service.planner import ANSWER_CACHE
from ..service.runner import error_answer, normalize_workload_line
from ..service.session import Session
from ..service.strategies import ExecutionContext, Strategy, cache_replay_estimate
from .cache import AnswerCache, CacheKey, settings_digest
from .pool import SessionPool

#: The server-level operation answering with cache/session/transport stats.
STATS_OP = "stats"

#: The server-level no-compute echo operation.  Keep-alive clients use it to
#: frame a batch on a multiplexed connection: send N requests plus a ping
#: carrying a unique id, then read envelopes until the ping's echo arrives.
PING_OP = "ping"

#: Fingerprint placeholder for dataset-independent operations.
_NO_DATASET = ("none",)

#: Operations whose answer ignores the request's datasets entirely: they
#: produce exactly one envelope and cache under the no-dataset key even when
#: a caller attaches datasets (the envelope count must not depend on cache
#: state).
_DATASET_INDEPENDENT_OPS = ("classify", "reduce")


class AnswerCacheStrategy(Strategy):
    """The cache short-circuit behind the Strategy protocol.

    Never selected by the planner's scoring pass — it requires hit state
    that only :class:`CachingSession` can establish, so ``supports`` always
    declines there (the reason shows up in ``--explain-plan`` scoreboards).
    The caching session invokes it directly through the registry once every
    key of a request has hit.
    """

    name = ANSWER_CACHE
    specificity = 30

    def supports(self, request, classification, context):
        return False, ("requires a fully-cached request (served before planning)",)

    def estimate(self, request, classification, size_hints, context):
        return cache_replay_estimate(context.cost_model, len(size_hints))

    def execute(self, ctx: ExecutionContext, request: Request) -> List[Answer]:
        """Serve a fully-hit request (the hits travel in ``ctx.extras``)."""
        session: "CachingSession" = ctx.session
        hits: Dict[int, Answer] = ctx.extras["hits"]
        started: float = ctx.extras["started"]
        plan = ctx.plan
        session._bump("plans_skipped")
        session._bump("requests")
        session._note_plan(plan.strategy)
        total = time.perf_counter() - started
        if plan.cost is not None:
            session._note_timing(
                plan.strategy, plan.cost.total_s, total, answers=len(hits)
            )
        answers = [
            session._serve_hit(hits[index], request, total) for index in sorted(hits)
        ]
        for answer in answers:
            answer.warnings.extend(plan.warnings)
            if request.explain_plan:
                answer.details["plan"] = plan.to_json_dict()
        session._bump("cache_hits", len(answers))
        session._bump("answers", len(answers))
        return answers


class CachingSession(Session):
    """A session with a fingerprint-keyed answer cache in front of the planner.

    ``cache=None`` disables caching entirely (every request flows through
    the plain :class:`~repro.service.session.Session` path) — the CLI's
    ``repro serve --no-cache``.
    """

    def __init__(self, cache: Optional[AnswerCache] = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.cache = cache
        self.stats.update(cache_hits=0, cache_misses=0, plans_skipped=0)
        if ANSWER_CACHE not in self.planner.registry:
            self.planner.registry.register(AnswerCacheStrategy())

    # ------------------------------------------------------------------ #
    # the cache-aware front door
    # ------------------------------------------------------------------ #
    def answer(self, request: Request) -> List[Answer]:
        cache = self.cache
        if cache is None:
            return super().answer(request)
        started = time.perf_counter()
        handle = self.resolve_query(request.query, depth=request.depth)
        digest = settings_digest(request, self)
        if digest is None:  # e.g. unseeded support: not a pure function
            return super().answer(request)
        normalized = str(handle.query)
        keys = self._keys_for(cache, normalized, digest, request)
        hits: Dict[int, Answer] = {}
        for index, key in enumerate(keys):
            if key is None:
                continue
            stored = cache.get(key)
            if stored is not None:
                hits[index] = stored
        if len(hits) == len(keys):
            return self._serve_all_hits(request, handle, hits, started)
        computed = self._answer_misses(request, normalized, digest, keys, hits)
        self._bump("cache_hits", len(hits))
        self._bump(
            "cache_misses",
            sum(
                1
                for index, key in enumerate(keys)
                if key is not None and index not in hits
            ),
        )
        # Merge: hits keep their original position in the dataset order.
        merged: List[Answer] = []
        total = time.perf_counter() - started
        for index in range(len(keys)):
            if index in hits:
                served = self._serve_hit(hits[index], request, total)
                if request.explain_plan:
                    # The re-plan covered only the missing datasets; this
                    # envelope was routed through the cache short-circuit.
                    served.details["plan"] = {
                        "strategy": ANSWER_CACHE,
                        "reason": f"{request.op}: answer served from the cache",
                    }
                merged.append(served)
            elif computed:
                merged.append(computed.pop(0))
        merged.extend(computed)
        self._bump("answers", len(hits))
        return merged

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _keys_for(
        self, cache: AnswerCache, normalized: str, digest: tuple, request: Request
    ) -> List[Optional[CacheKey]]:
        if not request.datasets or request.op in _DATASET_INDEPENDENT_OPS:
            return [cache.make_key(normalized, request.op, digest, _NO_DATASET, None)]
        return [
            cache.make_key(
                normalized, request.op, digest, ref.fingerprint(), ref.version_hint()
            )
            for ref in request.datasets
        ]

    def _answer_misses(
        self,
        request: Request,
        normalized: str,
        digest: tuple,
        keys: List[Optional[CacheKey]],
        hits: Dict[int, Answer],
    ) -> List[Answer]:
        """Answer the non-hit part through the normal planned path and store it."""
        cache = self.cache
        if not request.datasets or request.op in _DATASET_INDEPENDENT_OPS:
            computed = super().answer(request)
            if keys[0] is not None and len(computed) == 1 and computed[0].ok:
                cache.put(keys[0], computed[0])
                computed[0].details["cache"] = "miss"
            return computed
        missing = [
            (index, ref)
            for index, ref in enumerate(request.datasets)
            if index not in hits
        ]
        sub_request = replace(request, datasets=tuple(ref for _, ref in missing))
        computed = super().answer(sub_request)
        if len(computed) == len(missing):
            for (index, ref), answer in zip(missing, computed):
                if not answer.ok:
                    continue
                answer.details["cache"] = "miss"
                if keys[index] is None:
                    continue
                if ref.kind == DatasetRef.MEMORY:
                    # Memory refs store under the *lookup* key: its version
                    # is the one the computation started from, so a delta
                    # racing the computation (before the eviction listener
                    # is registered below) leaves the entry unreachable
                    # instead of aliased to the post-delta version.
                    store_key = keys[index]
                    cache.watch_database(ref.memory_database)
                else:
                    # File-backed refs derive the store key *after*
                    # answering: a resolved reference now fingerprints the
                    # content it was actually loaded from, so a source
                    # rewritten between lookup and resolution can never park
                    # a stale verdict under the new content's identity.
                    store_key = cache.make_key(
                        normalized,
                        request.op,
                        digest,
                        ref.fingerprint(),
                        ref.version_hint(),
                    )
                    if store_key is None:
                        continue
                cache.put(store_key, answer)
        return computed

    def _serve_all_hits(
        self, request: Request, handle, hits: Dict[int, Answer], started: float
    ) -> List[Answer]:
        """Every answer was cached: dispatch the answer-cache strategy."""
        plan = self.planner.cache_plan(request)  # no strategy selection ran
        strategy = self.planner.resolve_strategy(ANSWER_CACHE)
        ctx = ExecutionContext(
            self, handle, plan, extras={"hits": hits, "started": started}
        )
        return strategy.execute(ctx, request)

    @staticmethod
    def _serve_hit(stored: Answer, request: Request, total_s: float) -> Answer:
        """Adapt a cached envelope (already a private copy) to this request.

        Plan details never replay: entries are shared across requests that
        did and did not ask for ``explain_plan`` (the digest rightly ignores
        it — it cannot change the verdict), so the stored plan describes a
        *different* request's routing.  The serving path attaches the
        answer-cache plan instead when this request asked for one.
        """
        stored.op = request.op  # certain/explain/witness share cache entries
        stored.query = request.query  # entries are shared across query aliases
        stored.request_id = request.request_id
        stored.details["cache"] = "hit"
        stored.details.pop("plan", None)
        stored.timings = {"total_s": total_s}
        return stored

    def describe(self) -> str:
        base = super().describe()
        if self.cache is None:
            return base
        return f"{base[:-1]}, cache={len(self.cache)}/{self.cache.max_entries})"


class CQAServer:
    """One resident session pool + cache behind every transport (see module docs).

    ``concurrent=False`` restores the pre-pool single-lock behaviour (every
    request exclusive) — the baseline of ``benchmarks/bench_concurrency.py``
    and an operator escape hatch.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        *,
        cache_entries: int = 1024,
        enable_cache: bool = True,
        persistent_path: Optional[str] = None,
        practical_k: Optional[int] = None,
        strict_polynomial: bool = False,
        default_workers: Optional[int] = None,
        base_dir: Optional[str] = None,
        concurrent: bool = True,
        catalog_path: Optional[str] = None,
        calibrate_every: float = 0.0,
        calibrate_min_requests: int = 20,
    ) -> None:
        if session is None:
            cache = None
            if enable_cache:
                persistent = None
                if persistent_path is not None:
                    from .persistent_cache import PersistentAnswerCache

                    persistent = PersistentAnswerCache(persistent_path)
                cache = AnswerCache(max_entries=cache_entries, persistent=persistent)
            session = CachingSession(
                cache=cache,
                practical_k=practical_k,
                strict_polynomial=strict_polynomial,
                default_workers=default_workers,
            )
        self.session = session
        self.pool = SessionPool(session, serialize=not concurrent)
        self.base_dir = base_dir or os.getcwd()
        self.catalog = None
        if catalog_path is not None:
            from ..catalog import CatalogError, CatalogService

            self.catalog = CatalogService(catalog_path)
            # Caught on every catalog-addressed read: bound once, here, so
            # the server imports the catalog only when one is configured.
            self._catalog_error = CatalogError
        # Counters get their own lock: bumping them (and serving the stats
        # op) must never stall behind a long-running computation holding the
        # pool — monitoring has to stay responsive.
        self._stats_lock = threading.Lock()
        self._started = time.monotonic()
        self.transport_stats: Dict[str, int] = {
            "lines": 0,
            "requests": 0,
            "answers": 0,
            "errors": 0,
            "stats_requests": 0,
            "catalog_requests": 0,
            "pings": 0,
        }
        # Serving-time calibration feedback (``repro calibrate`` as a
        # background pass): every ``calibrate_every`` seconds, refit the
        # cost-model constants from the session's recorded strategy timings
        # and install the refit on the live planner.  0 disables the loop.
        self.calibrate_every = float(calibrate_every)
        self.calibrate_min_requests = int(calibrate_min_requests)
        self.calibration: Dict[str, object] = {
            "enabled": self.calibrate_every > 0,
            "interval_s": self.calibrate_every,
            "passes": 0,
            "refits": 0,
            "skipped": 0,
            "last_drifts": [],
        }
        self._calibrate_stop = threading.Event()
        self._calibrate_thread: Optional[threading.Thread] = None
        if self.calibrate_every > 0:
            self._calibrate_thread = threading.Thread(
                target=self._calibration_loop,
                name="repro-calibration",
                daemon=True,
            )
            self._calibrate_thread.start()

    @property
    def cache(self) -> Optional[AnswerCache]:
        return getattr(self.session, "cache", None)

    # ------------------------------------------------------------------ #
    # the wire protocol (shared by every transport)
    # ------------------------------------------------------------------ #
    def handle_line(self, text: str, line_number: int = 0) -> List[Answer]:
        """Answer one JSONL workload line (the ``repro run`` dialect).

        Blank lines, ``#`` comments and a stray UTF-8 BOM are skipped (an
        empty list is returned); any other failure — malformed JSON, a
        payload that is not a request, a dataset that cannot be resolved —
        becomes an ``ok: false`` envelope.  This method never raises.
        """
        text = normalize_workload_line(text)
        if text is None:
            return []
        self._bump("lines")
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as error:  # deep nesting recurses
            self._bump("errors")
            return [
                error_answer(
                    "?", "?", ValueError(f"line {line_number}: {error}"), None
                )
            ]
        return self.handle_payload(payload, line_number=line_number)

    def handle_payload(self, payload: object, line_number: int = 0) -> List[Answer]:
        """Answer one decoded JSON request payload (the HTTP body shape).

        Two server-level dialect extensions are resolved here, before the
        typed request parse: the ``stats`` operation, and the ``catalog``
        operation plus catalog-addressed requests (a ``"dataset":
        "tenant/name"`` payload key resolved through the server's catalog
        into an inline-rows reference, with the answered envelope annotated
        with ingest provenance).
        """
        if isinstance(payload, dict) and payload.get("op") == STATS_OP:
            self._bump("stats_requests")
            answer = self.stats_answer()
            request_id = payload.get("id")
            answer.request_id = str(request_id) if request_id is not None else None
            return [answer]
        if isinstance(payload, dict) and payload.get("op") == PING_OP:
            self._bump("pings")
            answer = Answer(
                op=PING_OP,
                query="*",
                verdict=True,
                algorithm="ping",
                backend="server",
                exact=True,
                details={"uptime_s": time.monotonic() - self._started},
            )
            request_id = payload.get("id")
            answer.request_id = str(request_id) if request_id is not None else None
            return [answer]
        if isinstance(payload, dict) and payload.get("op") == CATALOG_OP:
            return self._handle_catalog_op(payload)
        try:
            request = request_from_json_dict(payload, base_dir=self.base_dir)
        except Exception as error:  # noqa: BLE001 - every bad payload is enveloped
            self._bump("errors")
            op = query = "?"
            if isinstance(payload, dict):
                op = str(payload.get("op", "?"))
                query = str(payload.get("query", "?"))
            return [
                error_answer(
                    op, query, ValueError(f"line {line_number}: {error}"), None
                )
            ]
        spec = payload.get("dataset") if isinstance(payload, dict) else None
        if spec is not None:
            return self._handle_catalog_request(str(spec), request)
        return self.handle_request(request)

    # ------------------------------------------------------------------ #
    # the catalog dialect
    # ------------------------------------------------------------------ #
    def _handle_catalog_op(self, payload: Dict) -> List[Answer]:
        """One ``{"op": "catalog", ...}`` management payload (never raises)."""
        self._bump("catalog_requests")
        if self.catalog is None:
            self._bump("errors")
            return [
                error_answer(
                    CATALOG_OP,
                    str(payload.get("action", "?")),
                    RuntimeError(
                        "no catalog configured (start the server with --catalog PATH)"
                    ),
                    None,
                )
            ]
        answer = self.catalog.handle_payload(payload)
        if answer.ok and payload.get("action") == "delete":
            # Deleting a dataset severs the provenance of every answer
            # computed from its content: evict them from both cache tiers
            # so a later re-create (even with identical rows) recomputes.
            deleted = answer.details.get("deleted", {})
            fingerprint = deleted.get("fingerprint")
            cache = self.cache
            if cache is not None and fingerprint is not None:
                deleted["cache_evictions"] = cache.evict_fingerprint(fingerprint)
        self._bump("answers")
        if not answer.ok:
            self._bump("errors")
        return [answer]

    def _handle_catalog_request(self, spec: str, request: Request) -> List[Answer]:
        """Answer a request addressed to a catalog dataset, with provenance.

        The catalog dataset becomes the request's first dataset reference
        (inline rows — content-addressed, so every cache tier and fleet
        route treats it like any wire payload).  Building it is one indexed
        read of the dataset's stored digest, version and fact count; the
        rows load only if the answer misses the cache.  The corresponding
        answer's ``details["provenance"]`` is stamped *after* answering —
        cache hits included, so a replayed envelope always carries the
        catalog's current ingest trail — from the same reference, with the
        import history memoised per dataset version.
        """
        if self.catalog is None:
            self._bump("requests")
            self._bump("answers")
            self._bump("errors")
            return [
                error_answer(
                    request.op,
                    request.query,
                    RuntimeError(
                        "no catalog configured (start the server with --catalog PATH)"
                    ),
                    request,
                )
            ]
        try:
            ref = self.catalog.dataset_ref(spec)
        except self._catalog_error as error:
            self._bump("requests")
            self._bump("answers")
            self._bump("errors")
            return [error_answer(request.op, request.query, error, request)]
        request = replace(request, datasets=(ref,) + request.datasets)
        answers = self.handle_request(request)
        if request.op in _DATASET_INDEPENDENT_OPS:
            return answers
        if answers and answers[0].ok:
            schema = None
            try:
                handle = self.session.resolve_query(request.query, depth=request.depth)
                schema = handle.query.schema
            except Exception:  # noqa: BLE001 - provenance must not fail the answer
                schema = None
            try:
                self.catalog.annotate(answers[0], ref, schema)
            except self._catalog_error:
                pass
        return answers

    def handle_request(self, request: Request) -> List[Answer]:
        """Answer one typed request with fault isolation (never raises).

        Read-only requests overlap through the pool's stripe locks; a
        request whose datasets cannot be cheaply identified falls back to
        exclusive answering (see :class:`~repro.server.pool.SessionPool`).
        """
        self._bump("requests")
        try:
            answers = self.pool.answer(request)
        except Exception as error:  # noqa: BLE001 - fault isolation
            answers = [error_answer(request.op, request.query, error, request)]
        finally:
            for ref in request.datasets:
                ref.close()
        self._bump("answers", len(answers))
        self._bump("errors", sum(1 for answer in answers if not answer.ok))
        return answers

    # ------------------------------------------------------------------ #
    # serving-time calibration feedback
    # ------------------------------------------------------------------ #
    def run_calibration_pass(self, drift_threshold: float = 2.0) -> Optional[Dict]:
        """One calibration pass: refit from live timings, install the model.

        The refit always starts from the *committed* calibration (not the
        currently-installed model), so repeated passes converge on the
        observed host instead of compounding scale factors pass over pass.
        Returns the drift summary, or ``None`` when the serving window has
        too few planned requests to be worth fitting (the pass is skipped
        and counted as such).  Installing the refit is a single attribute
        swap on the planner — atomic under the GIL, so in-flight requests
        see either the old model or the new one, never a torn mix.
        """
        from ..service.costmodel import CostModel, refit_from_timings

        with self._stats_lock:
            self.calibration["passes"] = int(self.calibration["passes"]) + 1
        timings = {
            name: dict(row)
            for name, row in getattr(self.session, "strategy_timings", {}).items()
        }
        usable = sum(
            int(row.get("requests", 0))
            for row in timings.values()
            if isinstance(row, dict)
        )
        if usable < self.calibrate_min_requests:
            with self._stats_lock:
                self.calibration["skipped"] = int(self.calibration["skipped"]) + 1
            return None
        refitted, drifts = refit_from_timings(
            timings, CostModel.committed(), drift_threshold=drift_threshold
        )
        self.session.planner.cost_model = refitted
        summary = {
            "requests": usable,
            "drifts": [drift.to_json_dict() for drift in drifts],
        }
        with self._stats_lock:
            self.calibration["refits"] = int(self.calibration["refits"]) + 1
            self.calibration["last_drifts"] = summary["drifts"]
        return summary

    def _calibration_loop(self) -> None:
        while not self._calibrate_stop.wait(self.calibrate_every):
            try:
                self.run_calibration_pass()
            except Exception:  # noqa: BLE001 - the loop must survive any pass
                with self._stats_lock:
                    self.calibration["skipped"] = int(self.calibration["skipped"]) + 1

    def stop_calibration(self) -> None:
        """Stop the background calibration loop (idempotent)."""
        self._calibrate_stop.set()
        if self._calibrate_thread is not None:
            self._calibrate_thread.join(timeout=5)
            self._calibrate_thread = None

    def _bump(self, key: str, amount: int = 1) -> None:
        """Increment a transport counter atomically (transports are threaded)."""
        if not amount:
            return
        with self._stats_lock:
            self.transport_stats[key] += amount

    # ------------------------------------------------------------------ #
    # the stats operation
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Uptime, transport counters, session/cache stats, plans, concurrency.

        ``derived_cache`` reports the process-wide derived-structure counters
        (per structure label: builds/rebuilds/maintained deltas/fallbacks),
        the observable form of the incremental-maintenance invariant — a
        steady stream of supported deltas must show ``maintained_deltas``
        growing while ``rebuilds`` stays put.  Pool workers are separate
        processes, so the numbers describe this server process only.
        """
        cache = self.cache
        timings = getattr(self.session, "strategy_timings", {})
        return {
            "uptime_s": time.monotonic() - self._started,
            "transport": dict(self.transport_stats),
            "session": dict(self.session.stats),
            "cache": cache.describe_dict() if cache is not None else None,
            "plans": dict(getattr(self.session, "plan_counts", {})),
            "strategies": self.session.planner.registry.names(),
            "strategy_timings": {name: dict(row) for name, row in timings.items()},
            "concurrency": self.pool.describe_dict(),
            "calibration": dict(self.calibration),
            "derived_cache": derived_cache_totals(),
            "backends": backend_totals(),
            "catalog": (
                self.catalog.store.describe_dict() if self.catalog is not None else None
            ),
            # Shape parity with the fleet dispatcher's stats: a single
            # server is a fleet of zero remote workers.
            "workers": [],
        }

    def stats_answer(self) -> Answer:
        """The ``stats`` operation's envelope; the verdict is the hit rate."""
        cache = self.cache
        return Answer(
            op=STATS_OP,
            query="*",
            verdict=cache.hit_rate() if cache is not None else None,
            algorithm="server statistics",
            backend="server",
            exact=True,
            details=self.stats(),
        )

    def describe(self) -> str:
        """One-line server summary."""
        return (
            f"CQAServer(requests={self.transport_stats['requests']}, "
            f"answers={self.transport_stats['answers']}, "
            f"session={self.session.describe()})"
        )
