"""The ``repro replay`` driver: fire a trace at any transport, measure it.

The driver is transport-agnostic: a *sender* is any callable taking one
decoded payload and returning the answered envelope dicts.  Factories exist
for the three deployment shapes — :func:`direct_sender` (an in-process
:class:`~repro.server.app.CQAServer` **or** fleet dispatcher, both of which
expose ``handle_payload``), :func:`jsonl_sender` (a TCP JSONL server) and
:func:`http_sender` (the HTTP endpoint) — so the same trace measures a
direct session, a single server and a fleet without changing shape.

Pacing is **open-loop** when ``speed > 0``: requests fire at their trace
``at`` offsets (scaled by ``speed``) regardless of completion, on a bounded
thread pool — a slow server accumulates queueing delay in the observed
latency instead of silently throttling the offered load.  ``speed = 0``
(the default) replays as fast as the transport allows; with
``concurrency=1`` that is a fully sequential, deterministic replay — the
mode the verdict-fidelity check uses, since concurrent replay may reorder
requests around delta bursts.

The :class:`ReplayReport` aggregates what the scale story needs: latency
percentiles, per-tier cache-hit accounting (memory tier vs persistent tier
vs miss), verdict counts, error counts, and provenance coverage (how many
catalog-addressed answers resolved to recorded import sessions).
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..service.envelope import OPERATIONS

#: A sender: one decoded payload in, the answered envelope dicts out.  A
#: sender may instead return ``(envelopes, connect_s)`` — the driver then
#: splits connection-establishment time out of the service latency (the
#: keep-alive sender reports 0.0 for reused connections).
Sender = Callable[[Dict[str, object]], List[Dict[str, object]]]


def direct_sender(server) -> Sender:
    """Drive an in-process ``handle_payload`` host (CQAServer or dispatcher)."""

    def send(payload: Dict[str, object]) -> List[Dict[str, object]]:
        return [answer.to_json_dict() for answer in server.handle_payload(payload)]

    return send


def jsonl_sender(host: str, port: int, timeout: float = 60.0) -> Sender:
    """Drive a TCP JSONL server (one connection per request, thread-safe).

    Every call dials a fresh connection; the dial time is reported
    separately so the latency split stays comparable with
    :func:`jsonl_keepalive_sender`.
    """
    import json
    import socket

    def send(payload: Dict[str, object]):
        begin = time.perf_counter()
        connection = socket.create_connection((host, port), timeout=timeout)
        connect_s = time.perf_counter() - begin
        envelopes: List[Dict[str, object]] = []
        with connection:
            connection.sendall((json.dumps(payload) + "\n").encode("utf-8"))
            connection.shutdown(socket.SHUT_WR)
            reader = connection.makefile("r", encoding="utf-8")
            for line in reader:
                if line.strip():
                    envelopes.append(json.loads(line))
        return envelopes, connect_s

    return send


def jsonl_keepalive_sender(host: str, port: int, timeout: float = 60.0) -> Sender:
    """Drive a TCP JSONL server over keep-alive connections (one per thread).

    Each replay worker thread gets its own persistent
    :class:`~repro.server.client.JsonlClient` (ping-framed batches, no EOF
    needed), so ``--concurrency N`` costs N dials total instead of one per
    request.  The returned sender carries a ``close()`` attribute that tears
    down every thread's connection.
    """
    import json
    import threading

    from ..server.client import JsonlClient

    local = threading.local()
    clients: List[object] = []
    clients_lock = threading.Lock()

    def send(payload: Dict[str, object]):
        client = getattr(local, "client", None)
        if client is None:
            client = JsonlClient(host, port, timeout=timeout)
            local.client = client
            with clients_lock:
                clients.append(client)
        envelopes = client.call([json.dumps(payload)])
        return envelopes, client.last_connect_s

    def close() -> None:
        with clients_lock:
            for client in clients:
                client.close()
            clients.clear()

    send.close = close
    return send


def http_sender(url: str, timeout: float = 60.0) -> Sender:
    """Drive an HTTP server's ``POST /answer`` endpoint."""
    from ..server.client import call_http

    def send(payload: Dict[str, object]) -> List[Dict[str, object]]:
        return call_http(url, payload, timeout=timeout)

    return send


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0 on an empty one)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


@dataclass
class ReplayReport:
    """Everything one replay measured (see module docs)."""

    requests: int = 0
    answers: int = 0
    errors: int = 0
    elapsed_s: float = 0.0
    #: Wire latency per trace line, seconds (same order as the trace).
    latencies_s: List[float] = field(default_factory=list)
    #: Connection-establishment share of each latency (0.0 when the sender
    #: reused a warm connection or does not report connects).
    connects_s: List[float] = field(default_factory=list)
    #: How many trace lines actually paid a dial (connect_s > 0).
    connects: int = 0
    #: Per-tier cache accounting over query answers.
    tiers: Dict[str, int] = field(
        default_factory=lambda: {
            "memory_hits": 0,
            "persistent_hits": 0,
            "misses": 0,
            "uncached": 0,
        }
    )
    #: Catalog/stats control lines (not query answers).
    control: int = 0
    verdict_counts: Dict[str, int] = field(default_factory=dict)
    provenance_expected: int = 0
    provenance_resolved: int = 0
    #: First envelope's verdict per trace line (fidelity comparisons).
    verdicts: List[object] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.requests / self.elapsed_s if self.elapsed_s else 0.0

    def _services_s(self) -> List[float]:
        """Per-line service time: wire latency minus the connect share."""
        return [
            max(0.0, latency - connect)
            for latency, connect in zip(self.latencies_s, self.connects_s)
        ]

    def hit_rate(self) -> float:
        hits = self.tiers["memory_hits"] + self.tiers["persistent_hits"]
        looked_up = hits + self.tiers["misses"]
        return hits / looked_up if looked_up else 0.0

    def record(
        self,
        payload: Dict[str, object],
        envelopes,
        latency_s: float,
        connect_s: float = 0.0,
    ) -> None:
        self.requests += 1
        self.latencies_s.append(latency_s)
        self.connects_s.append(connect_s)
        if connect_s > 0:
            self.connects += 1
        self.verdicts.append(envelopes[0].get("verdict") if envelopes else None)
        is_query = payload.get("op") in OPERATIONS
        expects_provenance = is_query and payload.get("dataset") is not None
        for envelope in envelopes:
            self.answers += 1
            if not envelope.get("ok", False):
                self.errors += 1
            details = envelope.get("details") or {}
            if not is_query:
                self.control += 1
            else:
                cache = details.get("cache")
                if cache == "hit" and details.get("cache_tier") == "persistent":
                    self.tiers["persistent_hits"] += 1
                elif cache == "hit":
                    self.tiers["memory_hits"] += 1
                elif cache == "miss":
                    self.tiers["misses"] += 1
                else:
                    self.tiers["uncached"] += 1
                verdict = str(envelope.get("verdict"))
                self.verdict_counts[verdict] = self.verdict_counts.get(verdict, 0) + 1
            if expects_provenance:
                self.provenance_expected += 1
                provenance = details.get("provenance")
                if isinstance(provenance, dict) and provenance.get("import_sessions"):
                    self.provenance_resolved += 1

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "answers": self.answers,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 6),
            "throughput_rps": round(self.throughput, 2),
            "latency_ms": {
                "p50": round(percentile(self.latencies_s, 0.50) * 1e3, 3),
                "p90": round(percentile(self.latencies_s, 0.90) * 1e3, 3),
                "p99": round(percentile(self.latencies_s, 0.99) * 1e3, 3),
                "max": round(max(self.latencies_s) * 1e3, 3) if self.latencies_s else 0.0,
            },
            "connects": self.connects,
            "connect_ms": {
                "p50": round(percentile(self.connects_s, 0.50) * 1e3, 3),
                "max": round(max(self.connects_s) * 1e3, 3) if self.connects_s else 0.0,
                "total": round(sum(self.connects_s) * 1e3, 3),
            },
            "service_ms": {
                "p50": round(
                    percentile(self._services_s(), 0.50) * 1e3, 3
                ),
                "p90": round(
                    percentile(self._services_s(), 0.90) * 1e3, 3
                ),
            },
            "cache_tiers": dict(self.tiers),
            "hit_rate": round(self.hit_rate(), 4),
            "control_lines": self.control,
            "verdicts": dict(self.verdict_counts),
            "provenance": {
                "expected": self.provenance_expected,
                "resolved": self.provenance_resolved,
            },
        }

    def render(self) -> str:
        stats = self.to_json_dict()
        latency = stats["latency_ms"]
        tiers = stats["cache_tiers"]
        lines = [
            f"requests  : {self.requests} ({self.answers} answers, "
            f"{self.errors} errors) in {self.elapsed_s:.2f}s "
            f"({stats['throughput_rps']} req/s)",
            f"latency   : p50={latency['p50']}ms p90={latency['p90']}ms "
            f"p99={latency['p99']}ms max={latency['max']}ms",
            f"connects  : {self.connects} dials "
            f"(p50={stats['connect_ms']['p50']}ms, "
            f"service p50={stats['service_ms']['p50']}ms)",
            f"cache     : memory={tiers['memory_hits']} "
            f"persistent={tiers['persistent_hits']} misses={tiers['misses']} "
            f"uncached={tiers['uncached']} hit_rate={stats['hit_rate']}",
        ]
        if self.provenance_expected:
            lines.append(
                f"provenance: {self.provenance_resolved}/{self.provenance_expected} "
                "answers traced to recorded import sessions"
            )
        return "\n".join(lines)


def replay(
    payloads: Sequence[Dict[str, object]],
    send: Sender,
    *,
    speed: float = 0.0,
    concurrency: int = 1,
) -> ReplayReport:
    """Fire a trace's payloads at a sender; returns the measured report.

    ``speed = 0`` ignores the trace's ``at`` schedule (as-fast-as-possible);
    ``speed = 1`` replays in trace time, ``2`` at double speed, and so on.
    ``concurrency = 1`` runs strictly sequentially (deterministic order);
    larger values fire from a thread pool, which is what makes open-loop
    pacing honest when the server falls behind the offered load.  Catalog
    mutations are always replayed as barriers (in-flight reads drain
    first), so a concurrent replay answers exactly what a sequential one
    would.
    """
    report = ReplayReport()
    if not payloads:
        return report
    started = time.perf_counter()

    def fire(payload: Dict[str, object]):
        begin = time.perf_counter()
        result = send(payload)
        latency = time.perf_counter() - begin
        if isinstance(result, tuple):  # (envelopes, connect_s) senders
            envelopes, connect_s = result
        else:
            envelopes, connect_s = result, 0.0
        return envelopes, latency, connect_s

    if concurrency <= 1:
        for payload in payloads:
            _pace(payload, speed, started)
            envelopes, latency, connect_s = fire(payload)
            report.record(payload, envelopes, latency, connect_s)
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            pending = []

            def drain():
                for queued, future in pending:
                    envelopes, latency, connect_s = future.result()
                    report.record(queued, envelopes, latency, connect_s)
                pending.clear()

            for payload in payloads:
                _pace(payload, speed, started)
                if payload.get("op") == "catalog":
                    # Catalog lines mutate shared state (creates, ingests,
                    # deltas); running them as barriers means every read
                    # observes the same catalog state as a sequential
                    # replay, so verdict fidelity survives concurrency.
                    drain()
                    envelopes, latency, connect_s = fire(payload)
                    report.record(payload, envelopes, latency, connect_s)
                else:
                    pending.append((payload, pool.submit(fire, payload)))
            drain()
    report.elapsed_s = time.perf_counter() - started
    return report


def _pace(payload: Dict[str, object], speed: float, started: float) -> None:
    """Open-loop pacing: wait until the payload's scheduled offset."""
    if speed <= 0:
        return
    offset = payload.get("at")
    if not isinstance(offset, (int, float)):
        return
    target = started + float(offset) / speed
    delay = target - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def sample_indices(
    payloads: Sequence[Dict[str, object]], count: int, seed: int = 0
) -> List[int]:
    """Seeded sample of query-line indices (catalog/stats control lines skipped)."""
    eligible = [
        index
        for index, payload in enumerate(payloads)
        if payload.get("op") in OPERATIONS
    ]
    if count >= len(eligible):
        return eligible
    return sorted(random.Random(seed).sample(eligible, count))


def compare_verdicts(
    observed: ReplayReport, reference: ReplayReport, indices: Sequence[int]
) -> Dict[str, object]:
    """Verdict agreement between two replays of the same trace at ``indices``."""
    mismatches = [
        {
            "index": index,
            "observed": observed.verdicts[index],
            "reference": reference.verdicts[index],
        }
        for index in indices
        if observed.verdicts[index] != reference.verdicts[index]
    ]
    return {
        "sampled": len(indices),
        "agreements": len(indices) - len(mismatches),
        "mismatches": mismatches,
    }
