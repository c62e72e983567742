"""The worker fleet behind the front door: affinity dispatch over TCP-JSONL.

One :class:`FleetDispatcher` owns the public transports (stdio, TCP-JSONL,
HTTP — it duck-types :class:`~repro.server.app.CQAServer`, so the existing
transport modules work unchanged) and fans every request out to N worker
processes, each of which is a plain ``repro fleet-worker``: a
:class:`~repro.server.app.CQAServer` behind a
:class:`~repro.server.jsonl.JsonlServer`.  The wire dialect between the
dispatcher and a worker is exactly the public JSONL dialect — a worker is
indistinguishable from a directly-driven server, which is what makes the
fleet's envelopes byte-identical to a direct session's.

**Affinity routing.**  Requests are routed by
:meth:`~repro.service.datasets.DatasetRef.routing_key` — a stable string
form of the dataset's source identity — through a consistent-hash ring
(blake2b, virtual nodes), so every request over one dataset lands on the
same worker.  That worker's resolved database, derived structures (solution
graph, ``Cert_k`` seeds, incremental matching) and answer-cache entries stay
hot; the others never build them.  Even on one core this is measurable as
*avoided rebuilds*, not just multi-core throughput.  Requests without a
routable dataset (in-memory identities cannot cross the wire) route by
query text, so repeated ``classify`` calls also stick.  ``routing="random"``
is the control arm used by ``benchmarks/bench_fleet.py``.

**Framing.**  The JSONL dialect has no per-request framing — a batch request
emits one envelope per dataset.  The dispatcher frames each dispatch by
appending a ``stats`` sentinel with a unique id: every line up to the stats
envelope carrying that id belongs to the request, and the sentinel's payload
is a free, always-fresh snapshot of the worker's own stats (the raw material
of the monotonic aggregation below).

**Failure and retry.**  A worker that dies mid-request (connection error or
EOF before the sentinel) is retired: its last stats snapshot is folded into
the dispatcher's retained totals and the request is retried on the next
worker in ring order.  Totals therefore never go backwards — *retained +
live snapshots* is monotone because retained only grows and each live
snapshot is itself monotone over a worker's life.

**Drain/reload.**  :meth:`FleetDispatcher.drain` quiesces one worker: new
requests route around it while the per-worker wire lock waits out the
in-flight exchange; the caller applies its deltas (rewrite a CSV, swap a
SQLite file) and on exit the worker is re-admitted.  No request is dropped —
if every other worker is also unavailable, dispatch blocks on the draining
worker's lock instead of failing.
"""

from __future__ import annotations

import bisect
import copy
import json
import os
import socket
import subprocess
import sys
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from ..hashing import blake2b
from ..service.costmodel import CostModel
from ..service.datasets import dataset_refs_from_json
from ..service.envelope import Answer, answer_from_json_dict
from ..service.runner import error_answer, normalize_workload_line
from .app import STATS_OP

#: Virtual nodes per worker on the consistent-hash ring: enough to spread
#: stripes evenly at small fleet sizes without making ring builds costly.
RING_REPLICAS = 64

#: Stats blocks folded into the monotonic fleet totals.  Deliberately a
#: whitelist: ``uptime_s`` and other gauges are per-worker readings, not
#: counters, and summing them would be nonsense.
_TOTAL_KEYS = (
    "transport",
    "session",
    "cache",
    "plans",
    "strategy_timings",
    "derived_cache",
)


def _stable_hash(text: str) -> int:
    """A process-independent 64-bit hash (``hash()`` is salted per process)."""
    return int.from_bytes(
        blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class _HashRing:
    """Consistent hashing over worker indices (classic virtual-node ring)."""

    def __init__(self, indices: Sequence[int], replicas: int = RING_REPLICAS) -> None:
        points: List[tuple] = []
        for index in indices:
            for replica in range(replicas):
                points.append((_stable_hash(f"worker-{index}-{replica}"), index))
        points.sort()
        self._hashes = [point[0] for point in points]
        self._indices = [point[1] for point in points]
        self._distinct = len(set(indices))

    def ordered(self, key: str) -> List[int]:
        """Every worker index, in ring order from ``key``'s position.

        The first element is the affinity owner; the rest are the
        deterministic fallback order used when workers die or drain.
        """
        if not self._hashes:
            return []
        start = bisect.bisect(self._hashes, _stable_hash(key)) % len(self._hashes)
        seen: List[int] = []
        for offset in range(len(self._indices)):
            index = self._indices[(start + offset) % len(self._indices)]
            if index not in seen:
                seen.append(index)
                if len(seen) == self._distinct:
                    break
        return seen


def _merge_numeric(target: Dict, source: Dict) -> None:
    """Recursively sum numeric leaves of ``source`` into ``target``.

    Non-numeric leaves (paths, strategy name lists, booleans) are copied on
    first sight and otherwise left alone — aggregation only ever *adds*.
    """
    for key, value in source.items():
        if isinstance(value, bool):
            target.setdefault(key, value)
        elif isinstance(value, (int, float)):
            target[key] = target.get(key, 0) + value
        elif isinstance(value, dict):
            child = target.setdefault(key, {})
            if isinstance(child, dict):
                _merge_numeric(child, value)
        else:
            target.setdefault(key, value)


def _select_totals(stats: Dict) -> Dict:
    return {key: stats[key] for key in _TOTAL_KEYS if isinstance(stats.get(key), dict)}


class FleetWorker:
    """The dispatcher's handle on one worker: address, wire state, snapshot.

    ``process`` is set for spawned subprocess workers (``spawn_worker``);
    in-process workers (a :class:`~repro.server.jsonl.JsonlServer` thread in
    tests) leave it ``None`` and may pass ``on_close`` for teardown.  All
    wire access is serialised by ``lock`` — which is also the drain
    mechanism: holding it guarantees no exchange is in flight.
    """

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        *,
        process: Optional[subprocess.Popen] = None,
        pid: Optional[int] = None,
        on_close=None,
        factory=None,
    ) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.process = process
        self.pid = pid if pid is not None else (process.pid if process else None)
        self.lock = threading.Lock()
        self.alive = True
        self.draining = False
        self.dispatched = 0
        self.error: Optional[str] = None
        #: The worker's own stats details, refreshed by every exchange's
        #: sentinel (monotone over this worker's life).
        self.last_stats: Dict[str, object] = {}
        self._on_close = on_close
        #: Re-spawn recipe used by :meth:`FleetDispatcher.restart_worker`.
        self.factory = factory
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._writer = None

    # -- wire plumbing (caller holds ``lock``) ------------------------- #
    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection((self.host, self.port), timeout=60.0)
        self._reader = self._sock.makefile("r", encoding="utf-8")
        self._writer = self._sock.makefile("w", encoding="utf-8", newline="\n")

    def _disconnect(self) -> None:
        for stream in (self._reader, self._writer, self._sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self._sock = self._reader = self._writer = None

    def close(self) -> None:
        """Tear the worker down (socket, subprocess, in-process server)."""
        with self.lock:
            self._disconnect()
        if self._on_close is not None:
            try:
                self._on_close()
            except Exception:  # noqa: BLE001 - teardown must not raise
                pass
        if self.process is not None:
            try:
                if self.process.stdin:
                    self.process.stdin.close()  # EOF: the worker exits itself
                self.process.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait(timeout=10)

    def describe_dict(self) -> Dict[str, object]:
        """One row of the ``stats`` operation's ``workers[]`` breakdown."""
        stats = self.last_stats
        return {
            "index": self.index,
            "pid": self.pid,
            "host": self.host,
            "port": self.port,
            "alive": self.alive,
            "draining": self.draining,
            "dispatched": self.dispatched,
            "error": self.error,
            "transport": stats.get("transport"),
            "cache": stats.get("cache"),
            "derived_cache": stats.get("derived_cache"),
        }


def spawn_worker(
    index: int = 0,
    *,
    host: str = "127.0.0.1",
    cache_db: Optional[str] = None,
    cache_size: int = 1024,
    no_cache: bool = False,
    default_workers: Optional[int] = None,
    catalog: Optional[str] = None,
    python: Optional[str] = None,
) -> FleetWorker:
    """Launch one ``repro fleet-worker`` subprocess and wait for its ready line.

    The worker binds an ephemeral port, prints one JSON ready line
    (``{"ready": true, "port": ..., "pid": ...}``) to stdout, then serves
    until its stdin reaches EOF — so a dying dispatcher takes its workers
    with it instead of leaking them.
    """
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_dir + ((os.pathsep + existing) if existing else "")
    args = [
        python or sys.executable,
        "-m",
        "repro",
        "fleet-worker",
        "--host",
        host,
        "--port",
        "0",
        "--cache-size",
        str(cache_size),
    ]
    if cache_db is not None:
        args += ["--cache-db", str(cache_db)]
    if no_cache:
        args.append("--no-cache")
    if default_workers is not None:
        args += ["--workers", str(default_workers)]
    if catalog is not None:
        # Every worker opens the same catalog file (WAL + busy timeout make
        # that safe), so catalog ops land on any worker and still agree.
        args += ["--catalog", str(catalog)]
    process = subprocess.Popen(
        args,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    ready_line = process.stdout.readline()
    try:
        ready = json.loads(ready_line)
        port = int(ready["port"])
    except (ValueError, KeyError, TypeError):
        process.kill()
        raise RuntimeError(
            f"fleet worker did not report ready (got {ready_line!r}, "
            f"exit={process.poll()})"
        )
    worker = FleetWorker(
        index,
        host,
        port,
        process=process,
        factory=lambda: spawn_worker(
            index,
            host=host,
            cache_db=cache_db,
            cache_size=cache_size,
            no_cache=no_cache,
            default_workers=default_workers,
            catalog=catalog,
            python=python,
        ),
    )
    return worker


def spawn_fleet(count: int, **kwargs) -> List[FleetWorker]:
    """Spawn ``count`` workers (see :func:`spawn_worker`)."""
    return [spawn_worker(index, **kwargs) for index in range(count)]


class FleetDispatcher:
    """Affinity-routing front door over a list of workers (see module docs).

    Duck-types :class:`~repro.server.app.CQAServer` for the transports:
    ``handle_line`` / ``handle_payload`` / ``stats_answer`` /
    ``transport_stats`` / ``_bump`` / ``_started`` are the whole contract,
    so ``serve_stdio``, :class:`~repro.server.jsonl.JsonlServer` and
    :class:`~repro.server.http_transport.HttpServer` serve a fleet without
    knowing it.
    """

    def __init__(
        self,
        workers: Sequence[FleetWorker],
        *,
        routing: str = "affinity",
        base_dir: Optional[str] = None,
        rng=None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker")
        if routing not in ("affinity", "random"):
            raise ValueError(f"unknown routing {routing!r}")
        self.workers = list(workers)
        self.routing = routing
        self.base_dir = base_dir or os.getcwd()
        self.cost_model = cost_model or CostModel.committed()
        self._ring = _HashRing([worker.index for worker in self.workers])
        self._by_index = {worker.index: worker for worker in self.workers}
        if rng is None:
            import random as _random

            rng = _random.Random()
        self._rng = rng
        self._started = time.monotonic()
        self._stats_lock = threading.Lock()
        #: Counters folded from retired (dead or restarted) workers — the
        #: "retained" half of the monotonic totals.
        self._retired: Dict[str, object] = {}
        self.transport_stats: Dict[str, int] = {
            "lines": 0,
            "requests": 0,
            "answers": 0,
            "errors": 0,
            "stats_requests": 0,
            "dispatched": 0,
            "retries": 0,
            "worker_deaths": 0,
            "drains": 0,
        }

    # ------------------------------------------------------------------ #
    # the transport contract (CQAServer duck type)
    # ------------------------------------------------------------------ #
    def handle_line(self, text: str, line_number: int = 0) -> List[Answer]:
        """One JSONL workload line, routed to a worker (never raises)."""
        text = normalize_workload_line(text)
        if text is None:
            return []
        self._bump("lines")
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as error:  # deep nesting recurses
            self._bump("errors")
            return [
                error_answer("?", "?", ValueError(f"line {line_number}: {error}"), None)
            ]
        return self.handle_payload(payload, line_number=line_number)

    def handle_payload(self, payload: object, line_number: int = 0) -> List[Answer]:
        """One decoded request payload, routed to a worker (never raises)."""
        if isinstance(payload, dict) and payload.get("op") == STATS_OP:
            self._bump("stats_requests")
            answer = self.stats_answer()
            request_id = payload.get("id")
            answer.request_id = str(request_id) if request_id is not None else None
            return [answer]
        self._bump("requests")
        try:
            line = json.dumps(payload)
        except (TypeError, ValueError, RecursionError) as error:
            self._bump("errors")
            return [
                error_answer("?", "?", ValueError(f"line {line_number}: {error}"), None)
            ]
        answers = self._dispatch(line, self._routing_key(payload))
        self._bump("answers", len(answers))
        self._bump("errors", sum(1 for answer in answers if not answer.ok))
        return answers

    def _bump(self, key: str, amount: int = 1) -> None:
        if not amount:
            return
        with self._stats_lock:
            self.transport_stats[key] += amount

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _routing_key(self, payload: object) -> str:
        """The stripe identity of one request payload (see module docs).

        Catalog-addressed payloads (a ``"dataset": "tenant/name"`` key —
        queries over a catalog dataset *and* ``catalog``-op ingests/deltas)
        route by the catalog identity itself, so one dataset's reads and
        writes serialise on one worker and its resolved database, derived
        structures and cache entries stay hot there.
        """
        if isinstance(payload, dict):
            spec = payload.get("dataset")
            if isinstance(spec, str) and spec:
                return f"catalog:{spec}"
            try:
                refs = dataset_refs_from_json(payload, base_dir=self.base_dir)
            except Exception:  # noqa: BLE001 - the worker will envelope it
                refs = []
            for ref in refs:
                key = ref.routing_key()
                if key is not None:
                    return key
            return f"query:{payload.get('op', '')}:{payload.get('query', '')}"
        return "payload:opaque"

    def _route_order(self, key: str) -> List[int]:
        if self.routing == "random":
            indices = [worker.index for worker in self.workers]
            self._rng.shuffle(indices)
            return indices
        return self._ring.ordered(key)

    def owner_of(self, key: str) -> FleetWorker:
        """The affinity owner of a routing key (introspection and tests)."""
        return self._by_index[self._ring.ordered(key)[0]]

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def _dispatch(self, line: str, key: str) -> List[Answer]:
        order = self._route_order(key)
        preferred = [
            index
            for index in order
            if self._by_index[index].alive and not self._by_index[index].draining
        ]
        # Draining workers are a last resort: dispatch *blocks* on their
        # wire lock (i.e. waits for the drain to finish) rather than
        # failing the request.
        draining = [
            index
            for index in order
            if self._by_index[index].alive and self._by_index[index].draining
        ]
        last_error: Optional[Exception] = None
        first = True
        for index in preferred + draining:
            worker = self._by_index[index]
            if not first:
                self._bump("retries")
            first = False
            try:
                envelopes = self._exchange(worker, line)
            except (OSError, ValueError, EOFError) as error:
                self._retire(worker, error)
                last_error = error
                continue
            self._bump("dispatched")
            return [answer_from_json_dict(envelope) for envelope in envelopes]
        failure = last_error or RuntimeError("no alive fleet worker")
        return [error_answer("?", "?", RuntimeError(f"fleet: {failure}"), None)]

    def _exchange(
        self, worker: FleetWorker, line: Optional[str]
    ) -> List[Dict[str, object]]:
        """One framed request/reply on a worker's persistent connection.

        Writes the request line (if any) plus the stats sentinel, then reads
        envelopes until the sentinel comes back.  Every exchange refreshes
        ``worker.last_stats`` as a side effect.  Raises on any wire fault;
        the caller retires the worker and retries elsewhere.
        """
        marker = uuid.uuid4().hex
        sentinel = json.dumps({"op": STATS_OP, "id": marker})
        envelopes: List[Dict[str, object]] = []
        with worker.lock:
            try:
                worker._connect()
                if line is not None:
                    worker._writer.write(line + "\n")
                worker._writer.write(sentinel + "\n")
                worker._writer.flush()
                while True:
                    reply = worker._reader.readline()
                    if not reply:
                        raise EOFError("worker closed the connection mid-request")
                    envelope = json.loads(reply)
                    if (
                        envelope.get("op") == STATS_OP
                        and envelope.get("request_id") == marker
                    ):
                        details = envelope.get("details")
                        if isinstance(details, dict):
                            worker.last_stats = details
                        worker.dispatched += 1
                        return envelopes
                    envelopes.append(envelope)
            except (OSError, ValueError, EOFError):
                worker._disconnect()
                raise

    def _retire(self, worker: FleetWorker, error: Exception) -> None:
        """Mark a worker dead and fold its last snapshot into the totals."""
        with self._stats_lock:
            if not worker.alive:
                return
            worker.alive = False
            worker.error = str(error)
            self.transport_stats["worker_deaths"] += 1
            _merge_numeric(self._retired, _select_totals(worker.last_stats))

    # ------------------------------------------------------------------ #
    # drain / reload / restart
    # ------------------------------------------------------------------ #
    @contextmanager
    def drain(self, index: int) -> Iterator[FleetWorker]:
        """Quiesce one worker's stripe set without dropping requests.

        Inside the ``with`` block the worker is (a) routed around by new
        requests and (b) guaranteed idle — the wire lock is held, so the
        in-flight exchange (if any) has completed.  The caller applies its
        deltas (rewrite the CSV, checkpoint the SQLite file); on exit the
        worker is re-admitted.  Content-addressed caching makes the reload
        sound: the new content has a new fingerprint, so stale entries on
        this worker (or in the shared persistent tier) are unreachable, not
        wrong.
        """
        worker = self._by_index[index]
        worker.draining = True
        self._bump("drains")
        worker.lock.acquire()
        try:
            yield worker
        finally:
            worker.lock.release()
            worker.draining = False

    def restart_worker(self, index: int) -> FleetWorker:
        """Replace one worker with a fresh process from its spawn recipe.

        The old worker's stats fold into the retained totals (so fleet
        counters stay monotonic across restarts); the new worker inherits
        the ring position, so the stripe set is unchanged.
        """
        worker = self._by_index[index]
        if worker.factory is None:
            raise ValueError(f"worker {index} has no respawn factory")
        self._retire(worker, RuntimeError("restarted"))
        worker.close()
        replacement = worker.factory()
        replacement.index = index
        self._by_index[index] = replacement
        self.workers[self.workers.index(worker)] = replacement
        return replacement

    def close(self) -> None:
        """Shut down every worker (sockets, subprocesses, local servers)."""
        for worker in self.workers:
            worker.close()

    def __enter__(self) -> "FleetDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the stats operation (monotonic aggregation)
    # ------------------------------------------------------------------ #
    def refresh_stats(self) -> None:
        """Poll every alive, non-draining worker for a fresh snapshot."""
        for worker in self.workers:
            if not worker.alive or worker.draining:
                continue
            try:
                self._exchange(worker, None)
            except (OSError, ValueError, EOFError) as error:
                self._retire(worker, error)

    def stats(self) -> Dict[str, object]:
        """Dispatcher counters, per-worker breakdown, and monotonic totals.

        ``totals`` = retained counters of every retired worker **plus** the
        last snapshot of every current worker — monotone by construction
        (see the module docs), so a dead worker's work is never silently
        dropped from the fleet's lifetime numbers.  ``cache`` and
        ``derived_cache`` mirror the single-server stats shape with the
        aggregated blocks.
        """
        self.refresh_stats()
        with self._stats_lock:
            totals: Dict[str, object] = copy.deepcopy(self._retired)
            for worker in self.workers:
                _merge_numeric(totals, _select_totals(worker.last_stats))
            transport = dict(self.transport_stats)
        cache = totals.get("cache")
        if isinstance(cache, dict):
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = (cache.get("hits", 0) / lookups) if lookups else 0.0
            persistent = cache.get("persistent")
            if isinstance(persistent, dict):
                # The persistent tier is one shared file: its entry count is
                # a gauge every worker reports, so summing double-counts it.
                # hits/misses/stores are genuine per-worker counters and sum.
                gauges = [
                    snapshot["cache"]["persistent"].get("entries", 0)
                    for snapshot in (worker.last_stats for worker in self.workers)
                    if isinstance(snapshot.get("cache"), dict)
                    and isinstance(snapshot["cache"].get("persistent"), dict)
                ]
                if gauges:
                    persistent["entries"] = max(gauges)
        alive = sum(1 for worker in self.workers if worker.alive)
        return {
            "uptime_s": time.monotonic() - self._started,
            "transport": transport,
            "fleet": {
                "routing": self.routing,
                "workers": len(self.workers),
                "alive": alive,
                "draining": sum(1 for worker in self.workers if worker.draining),
                "modelled_dispatch_s": self.cost_model.remote_dispatch_cost(),
            },
            "workers": [worker.describe_dict() for worker in self.workers],
            "totals": totals,
            "cache": cache,
            "strategy_timings": totals.get("strategy_timings", {}),
            "derived_cache": totals.get("derived_cache", {}),
        }

    def stats_answer(self) -> Answer:
        """The ``stats`` envelope; the verdict is the fleet-wide hit rate."""
        details = self.stats()
        cache = details.get("cache")
        verdict = cache.get("hit_rate") if isinstance(cache, dict) else None
        return Answer(
            op=STATS_OP,
            query="*",
            verdict=verdict,
            algorithm="fleet statistics",
            backend="fleet",
            exact=True,
            details=details,
        )

    def describe(self) -> str:
        """One-line dispatcher summary."""
        alive = sum(1 for worker in self.workers if worker.alive)
        return (
            f"FleetDispatcher(workers={alive}/{len(self.workers)}, "
            f"routing={self.routing}, "
            f"requests={self.transport_stats['requests']})"
        )
