"""Experiment IX — the sharded batch pool and keep-alive socket serving.

The multi-core harness for PR 9's two parallel walls:

* **IX.a — sharded ``explain_many`` vs one worker.**  The same ~2500-fact
  batch (regenerated fresh per mode so no derived-structure cache leaks
  between runs) is answered sequentially and through the pool, whose
  chunks carry the fact lists of their databases.  Verdict and algorithm
  agreement is absolute, and the pool must really shard (at least two
  chunks).  The measured speedup is reported next to the cost model's
  ``predicted_speedup`` for the same batch and pool width, so a
  mis-priced pool shows in the committed baseline.  The regression gate
  holds what the experiment guards, the pool's batch time, in units of a
  reference computation timed next to it
  (:func:`~repro.bench.harness.reference_seconds`), to at most twice the
  baseline's; the speedup is reported, not gated, because a faster single
  worker lowers it without the pool getting slower.
* **IX.b — JSONL keep-alive replay vs dialing per request.**  A seeded
  catalog trace is replayed at ``--concurrency 8`` against a fresh JSONL
  socket server, alternately dialing per request and through keep-alive
  ``JsonlClient`` workers, three rounds each.  Zero errors and exact
  sampled-verdict fidelity against a fresh direct server are absolute, and
  so is the claim: keep-alive serves more req/s than dialing (medians of
  the rounds), on any core count.  Their ratio is reported.  The claim is
  the regression gate too: a keep-alive exchange that waits on the
  client's delayed ACK (Nagle's algorithm back on, see
  ``repro.server.jsonl``) serves several times fewer req/s than dialing.

Environment knobs (for CI smoke runs): ``BENCH_SHARED_BATCH`` (databases
in the IX.a batch), ``BENCH_SHARED_WORKERS``, ``BENCH_REPLAY_REQUESTS``,
``BENCH_PARALLEL_SMOKE`` (mark the run non-default without resizing).
A JSON baseline is written next to this file as ``BENCH_parallel.json``
on default-sized runs; IX.a's regression gate fails on a >2x loss vs the
committed baseline.
"""

import gc
import json
import os
import random
import statistics
import tempfile
from pathlib import Path

from repro import CertainEngine
from repro.bench.harness import (
    ExperimentReport,
    effective_cores,
    reference_seconds,
    timed,
)
from repro.bench.reporting import emit, write_json
from repro.db.generators import random_solution_database
from repro.server import CQAServer
from repro.server import start_jsonl_server
from repro.service.costmodel import CostModel
from repro.fixtures import example_queries
from repro.workload import (
    TraceSpec,
    compare_verdicts,
    direct_sender,
    generate_trace,
    jsonl_keepalive_sender,
    jsonl_sender,
    replay,
    sample_indices,
)

QUERIES = example_queries()

_BATCH = int(os.environ.get("BENCH_SHARED_BATCH", "36"))
_WORKERS = int(os.environ.get("BENCH_SHARED_WORKERS", "4"))
_REPLAY_REQUESTS = int(os.environ.get("BENCH_REPLAY_REQUESTS", "240"))
_CONCURRENCY = 8
#: IX.b replays the trace this many times per mode, alternating modes.
_REPLAY_ROUNDS = 3

_DEFAULT_SIZED_RUN = not any(
    knob in os.environ
    for knob in (
        "BENCH_SHARED_BATCH",
        "BENCH_SHARED_WORKERS",
        "BENCH_REPLAY_REQUESTS",
        "BENCH_PARALLEL_SMOKE",
    )
)

#: Regression gate vs the committed baseline (matches the other suites).
_REGRESSION_FACTOR = 2.0

_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"

_JSON_REPORTS = []
_MEASURED = {}

_CORES = effective_cores()


def _fresh_batch(count):
    """A fresh ~70-fact-per-database q3 batch (new Fact objects every call,
    so per-database derived caches cannot leak across timing modes)."""
    query = QUERIES["q3"]
    rng = random.Random(9100)
    return query, [
        random_solution_database(
            query, solution_count=25, noise_count=20, domain_size=40, rng=rng
        )
        for _ in range(count)
    ]


def test_sharded_batch_vs_one_worker():
    """IX.a: the sharded pool vs workers=1, next to the predicted speedup."""
    gc.collect()
    query, batch = _fresh_batch(_BATCH)
    facts = sum(len(database) for database in batch)
    hints = [len(database) for database in batch]

    engine = CertainEngine(query)
    baseline, sequential_time = timed(lambda: engine.explain_many(batch))

    query, batch = _fresh_batch(_BATCH)
    engine = CertainEngine(query)
    gc.collect()
    reference_before = reference_seconds()
    sharded, sharded_time = timed(
        lambda: engine.explain_many(batch, workers=_WORKERS)
    )
    batch_cost = sharded_time / ((reference_before + reference_seconds()) / 2)
    chunks = engine.last_parallel_stats["chunks"]

    # Verdict and algorithm agreement with one worker is absolute, and a
    # silently sequential pool fails.
    assert [report.certain for report in sharded] == [
        report.certain for report in baseline
    ]
    assert [report.algorithm for report in sharded] == [
        report.algorithm for report in baseline
    ]
    assert chunks >= 2

    speedup = sequential_time / sharded_time if sharded_time else float("inf")
    model = CostModel()
    predicted = model.predicted_speedup(hints, None, _WORKERS)
    _MEASURED[f"sharded-batch@{_BATCH}x{_WORKERS}"] = batch_cost

    report = ExperimentReport(
        "Experiment IX.a — sharded explain_many (fact-list chunks) vs one "
        "worker, measured and predicted",
        ["databases", "facts", "workers", "chunks", "cores", "sequential (s)",
         "sharded (s)", "sharded (ref)", "speedup", "predicted speedup"],
        core_gated=True,
    )
    report.add(
        databases=_BATCH,
        facts=facts,
        workers=_WORKERS,
        chunks=chunks,
        cores=_CORES,
        **{
            "sequential (s)": f"{sequential_time:.4f}",
            "sharded (s)": f"{sharded_time:.4f}",
            "sharded (ref)": f"{batch_cost:.1f}",
            "speedup": f"{speedup:.2f}x",
            "predicted speedup": f"{predicted:.2f}x",
        },
    )
    emit(report)
    _JSON_REPORTS.append(report)

    # A one-worker pool cannot pay for itself, and the cost model must
    # predict exactly that (the re-expression a one-core host is routed by).
    assert model.predicted_speedup(hints, None, 1) < 1.0


def _replay_over_socket(payloads, sender_factory, tmp):
    server = start_jsonl_server(
        CQAServer(catalog_path=str(Path(tmp) / "catalog.sqlite3"))
    )
    sender = sender_factory("127.0.0.1", server.port)
    try:
        return replay(payloads, sender, concurrency=_CONCURRENCY)
    finally:
        closer = getattr(sender, "close", None)
        if callable(closer):
            closer()
        server.shutdown()
        server.server_close()


def test_keepalive_replay_vs_dial_per_request():
    """IX.b: keep-alive replay vs dialing per request, on the same server."""
    gc.collect()
    payloads = generate_trace(TraceSpec(
        requests=_REPLAY_REQUESTS, seed=17, solutions=8,
        tenants=2, datasets_per_tenant=2, delta_every=25,
    ))

    oneshots, keepalives = [], []
    for _ in range(_REPLAY_ROUNDS):
        for outcomes, sender_factory in (
            (oneshots, jsonl_sender), (keepalives, jsonl_keepalive_sender)
        ):
            with tempfile.TemporaryDirectory() as tmp:
                outcomes.append(_replay_over_socket(payloads, sender_factory, tmp))

    # Absolute, on any host: zero errors, every answer collected, and the
    # keep-alive pool dialed once per worker instead of once per request.
    for outcome in oneshots + keepalives:
        assert outcome.errors == 0
        assert outcome.requests == len(payloads)
    for oneshot in oneshots:
        assert oneshot.connects == len(payloads)
    # One client per pool worker plus the barrier thread that replays
    # catalog mutations inline.
    for keepalive in keepalives:
        assert 0 < keepalive.connects <= _CONCURRENCY + 1

    # Fidelity: the socketed verdicts match a fresh uncached direct server.
    keepalive = keepalives[-1]
    with tempfile.TemporaryDirectory() as tmp:
        reference = replay(payloads, direct_sender(CQAServer(
            enable_cache=False,
            catalog_path=str(Path(tmp) / "reference.sqlite3"),
        )))
    outcome = compare_verdicts(keepalive, reference, sample_indices(payloads, 50))
    assert outcome["mismatches"] == [] and outcome["sampled"] > 0

    oneshot_rps = statistics.median(run.requests / run.elapsed_s for run in oneshots)
    keepalive_rps = statistics.median(
        run.requests / run.elapsed_s for run in keepalives
    )

    report = ExperimentReport(
        "Experiment IX.b — JSONL replay at concurrency 8: keep-alive "
        "vs dial-per-request",
        ["requests", "concurrency", "cores", "dial req/s", "keep-alive req/s",
         "keep-alive / dial", "dials (keep-alive)", "connect p50 (ms)",
         "service p50 (ms)"],
    )
    keepalive_stats = keepalive.to_json_dict()
    report.add(
        requests=len(payloads),
        concurrency=_CONCURRENCY,
        cores=_CORES,
        **{
            "dial req/s": f"{oneshot_rps:.1f}",
            "keep-alive req/s": f"{keepalive_rps:.1f}",
            "keep-alive / dial": f"{keepalive_rps / oneshot_rps:.2f}x",
            "dials (keep-alive)": keepalive.connects,
            "connect p50 (ms)": keepalive_stats["connect_ms"]["p50"],
            "service p50 (ms)": keepalive_stats["service_ms"]["p50"],
        },
    )
    emit(report)
    _JSON_REPORTS.append(report)

    # Reusing a connection saves a dial and a server thread per request, on
    # any core count.
    assert keepalive_rps > oneshot_rps, (
        f"keep-alive replay should serve more req/s than dialing per request "
        f"on the same server: {keepalive_rps:.1f} vs {oneshot_rps:.1f} req/s"
    )


def test_parallel_regression_vs_baseline():
    """Gate: IX.a's batch time may not regress >2x vs the committed baseline.

    The pool's batch time, in reference units, may not exceed twice the
    baseline's.  (IX.b is gated inside its experiment, against dialing.)
    """
    if not _BASELINE_PATH.exists():
        return
    baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
    baseline_values = {}
    for entry in baseline.get("reports", ()):
        for row in entry.get("rows", ()):
            if "sharded (ref)" in row:
                key = f"sharded-batch@{row.get('databases')}x{row.get('workers')}"
                try:
                    baseline_values[key] = float(row["sharded (ref)"])
                except ValueError:
                    continue
    checked = 0
    for key, measured in _MEASURED.items():
        reference = baseline_values.get(key)
        if not reference:
            continue
        checked += 1
        threshold = reference * _REGRESSION_FACTOR
        assert measured <= threshold, (
            f"{key}: the pool's batch took {measured:.1f} reference units "
            f"(baseline {reference:.1f}, gate threshold {threshold:.1f})"
        )
    if _MEASURED:
        assert checked or not _DEFAULT_SIZED_RUN, (
            "default run must match baseline rows"
        )


def test_write_baseline_json():
    """Persist the measured reports as the committed JSON baseline."""
    if not _JSON_REPORTS:  # pragma: no cover - ordering guard
        return
    if _DEFAULT_SIZED_RUN:
        write_json(_BASELINE_PATH, _JSON_REPORTS)
        assert json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))["reports"]
