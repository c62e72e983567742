"""Experiment II — delta maintenance vs full rebuild, sharded vs sequential batch.

Measures the two scaling paths introduced by the delta pipeline PR:

* **II.a — incremental maintenance.**  A mutate-heavy workload (single-fact
  add/remove over large databases) refreshes the certain answer after every
  mutation.  The delta path replays the fact delta into the cached solution
  graph, the one derived structure ``Cert_k`` reads (it seeds off the
  graph); the rebuild path simulates the PR 1 contract by invalidating the
  derived cache before each refresh.  Both paths answer through the same
  ``CertK`` runner, and the maintained graph is pinned to a from-scratch
  build along the way.
* **II.b — sharded batch answering.**  ``CertainEngine.explain_many`` over a
  stream of databases, sequential vs ``workers=N``.  Answers must agree
  exactly; the speedup is recorded (and only asserted when the machine
  actually has enough cores for parallelism to be physically possible).
* **II.c — update-while-serving.**  A resident :class:`CQAServer` answers
  ``certain(q6)`` between single-fact deltas applied under the pool's
  exclusive mode — the live-server shape of PR 6.  The maintained path
  repairs the cached ``matching(q)`` by augmenting paths; the baseline path
  invalidates the matching cache entry before every answer, forcing the
  pre-PR 6 rebuild (state rebuild + cold Hopcroft–Karp).  Verdicts must be
  identical; the derived-cache counters must prove the maintained run never
  rebuilt the matching.  The speedup assertion at the largest default size
  is single-threaded work and is **not** core-gated.

Environment knobs (for CI smoke runs): ``BENCH_INCREMENTAL_SIZES``
(comma-separated fact counts), ``BENCH_INCREMENTAL_MUTATIONS``,
``BENCH_PARALLEL_DATABASES``, ``BENCH_PARALLEL_WORKERS``.  A JSON baseline is
written next to this file as ``BENCH_incremental.json`` on default-sized
runs; ``test_incremental_regression_vs_baseline`` gates smoke runs against
the committed baseline.  II.a is gated on what it guards, the delta
replay's own time per mutation, in units of a reference computation
(:func:`~repro.bench.harness.reference_seconds`): more than 2x the baseline
fails.  The gated time is the median of five replays of the row's mutation
stream into fresh copies of its database, with a reference reading next to
each replay, so neither drift within the row nor a pause that hits one
replay's ~1 ms window moves it.  Its replay-vs-rebuild speedup is reported,
not gated, because a faster rebuild lowers it without the replay getting
slower.
II.c keeps its >2x speedup-regression gate.
"""

import gc
import json
import os
import random
import statistics
from pathlib import Path

from repro import (
    CertainEngine,
    CertK,
    DatasetRef,
    Request,
    SolutionGraph,
    build_solution_graph,
    matching_cache_key,
)
from repro.bench.harness import (
    ExperimentReport,
    assert_core_gated,
    effective_cores,
    reference_seconds,
    timed,
)
from repro.bench.reporting import emit, write_json
from repro.db.generators import random_fact, random_solution_database
from repro.fixtures import example_queries
from repro.server import CQAServer

QUERIES = example_queries()

_SIZES = tuple(
    int(token)
    for token in os.environ.get("BENCH_INCREMENTAL_SIZES", "600,2500").split(",")
    if token.strip()
)
_MUTATIONS = int(os.environ.get("BENCH_INCREMENTAL_MUTATIONS", "40"))
_PARALLEL_DATABASES = int(os.environ.get("BENCH_PARALLEL_DATABASES", "200"))
_PARALLEL_WORKERS = int(os.environ.get("BENCH_PARALLEL_WORKERS", "4"))

#: Acceptance threshold of II.a and II.c at the largest default size.
_TARGET_SPEEDUP = 5.0
#: Regression gate: fail when a smoke run loses more than 2x vs the baseline.
_REGRESSION_FACTOR = 2.0
#: II.c's speedup threshold is capped at this absolute speedup so that
#: scheduler noise on a sub-millisecond timed window (shared CI runners)
#: cannot fail the job — a genuine loss of incrementality collapses toward
#: 1x and still trips it, comfortably below any healthy baseline ratio.
_GATE_FLOOR = 5 * _TARGET_SPEEDUP
#: II.a's column for the delta replay's time per mutation, in reference units.
_REPLAY_COLUMN = "replay/mutation (ref)"
#: Replays of a row's mutation stream whose median time II.a gates.
_REPLAY_ROUNDS = 5

_BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_incremental.json"

_JSON_REPORTS = []
#: (query, facts) -> measured incremental-vs-rebuild speedup (reported).
_MEASURED_SPEEDUPS = {}
#: (query, facts) -> delta replay time per mutation in reference units (gated).
_REPLAY_COSTS = {}
#: (query, facts) -> measured II.c maintained-vs-rebuild serving speedup.
_SERVING_SPEEDUPS = {}

_DEFAULT_SIZED_RUN = not any(
    knob in os.environ
    for knob in (
        "BENCH_INCREMENTAL_SIZES",
        "BENCH_INCREMENTAL_MUTATIONS",
        "BENCH_PARALLEL_DATABASES",
        "BENCH_PARALLEL_WORKERS",
    )
)


def _workload(query, size: int):
    rng = random.Random(size)
    return random_solution_database(
        query,
        solution_count=size // 2,
        noise_count=size // 4,
        domain_size=max(4, size // 2),
        rng=rng,
    )


def _graphs_equal(left, right) -> bool:
    # The cached graph runs on fact ids: compare through its Fact view.
    left, right = (g.view() if isinstance(g, SolutionGraph) else g for g in (left, right))
    return (
        left.directed == right.directed
        and left.self_loops == right.self_loops
        and set(left.facts) == set(right.facts)
    )


def _mutation_stream(query, database, count, seed):
    """Deterministic single-fact add/remove mutations (~55% adds)."""
    rng = random.Random(seed)
    live = database.facts()
    produced = 0
    while produced < count:
        if live and rng.random() < 0.45:
            victim = rng.choice(live)
            live.remove(victim)
            produced += 1
            yield ("remove", victim)
        else:
            fact = random_fact(query.schema, max(4, len(live)), rng)
            if fact not in live:
                live.append(fact)
                produced += 1
                yield ("add", fact)


def _replay_cost(query, size: int) -> float:
    """The delta replay's time per mutation, in reference units.

    The median over ``_REPLAY_ROUNDS`` replays of the row's mutation stream,
    each into a fresh copy of its database with a warm solution graph,
    divided by the median reference reading (one before each replay, one
    after the last).
    """
    totals, references = [], []
    for _ in range(_REPLAY_ROUNDS):
        database = _workload(query, size)
        build_solution_graph(query, database)
        gc.collect()
        references.append(reference_seconds())
        total = 0.0
        for op, fact in _mutation_stream(query, database, _MUTATIONS, seed=size):
            (database.add if op == "add" else database.remove)(fact)
            total += timed(lambda: build_solution_graph(query, database))[1]
        totals.append(total)
    references.append(reference_seconds())
    return statistics.median(totals) / _MUTATIONS / statistics.median(references)


def test_incremental_vs_rebuild():
    report = ExperimentReport(
        "Experiment II.a — mutate-heavy refresh: delta replay vs cache rebuild",
        ["query", "facts", "mutations", "incremental (s)", "rebuild (s)", "speedup",
         _REPLAY_COLUMN],
    )
    for name in ("q3", "q6"):
        query = QUERIES[name]
        for size in _SIZES:
            # The previous row's garbage must not be collected inside this
            # row's timed window.
            gc.collect()
            incremental_db = _workload(query, size)
            rebuild_db = _workload(query, size)
            assert set(incremental_db.facts()) == set(rebuild_db.facts())
            runner = CertK(query, 2)

            def refresh(database):
                """One derived-structure refresh: the solution graph Cert_k seeds off."""
                return build_solution_graph(query, database)

            refresh(incremental_db)  # warm the delta-maintained caches
            refresh(rebuild_db)
            initial_facts = len(incremental_db)  # deterministic per size knob
            incremental_time = 0.0
            rebuild_time = 0.0
            for step, (op, fact) in enumerate(
                _mutation_stream(query, incremental_db, _MUTATIONS, seed=size)
            ):
                for database in (incremental_db, rebuild_db):
                    (database.add if op == "add" else database.remove)(fact)
                graph, elapsed = timed(lambda: refresh(incremental_db))
                incremental_time += elapsed

                def refresh_from_scratch():
                    rebuild_db.invalidate_derived()  # simulate the PR 1 contract
                    return refresh(rebuild_db)

                expected_graph, elapsed = timed(refresh_from_scratch)
                rebuild_time += elapsed
                assert _graphs_equal(graph, expected_graph)
                if step % 10 == 0:  # untimed end-to-end agreement check
                    assert (
                        runner.run(incremental_db).certain
                        == runner.run(rebuild_db).certain
                    )
            replay_cost = _replay_cost(query, size)
            speedup = rebuild_time / incremental_time if incremental_time else float("inf")
            _MEASURED_SPEEDUPS[(name, initial_facts)] = speedup
            _REPLAY_COSTS[(name, initial_facts)] = replay_cost
            report.add(
                query=name,
                facts=initial_facts,
                mutations=_MUTATIONS,
                **{
                    "incremental (s)": f"{incremental_time:.4f}",
                    "rebuild (s)": f"{rebuild_time:.4f}",
                    "speedup": f"{speedup:.1f}x",
                    _REPLAY_COLUMN: f"{replay_cost:.3g}",
                },
            )
    emit(report)
    for (name, size), speedup in _MEASURED_SPEEDUPS.items():
        if size >= 2500:
            assert speedup >= _TARGET_SPEEDUP, (
                f"{name}: expected delta replay >= {_TARGET_SPEEDUP}x over rebuild "
                f"at {size} facts, got {speedup:.1f}x"
            )
    _JSON_REPORTS.append(report)


def _serving_workload(query, size: int):
    """An *uncertain* ``q6`` shape whose per-answer cost is the matching.

    A handful of triangle gadgets (quasi-cliques of three mutually-paired
    facts) carry escape facts in two of their three blocks, so a falsifying
    repair exists and the PTime path must actually evaluate ``¬matching(q)``
    — ``Cert_k`` alone cannot settle the answer.  The bulk of the database is
    solution-free filler facts: they keep ``Cert_k``'s seed set (and hence
    the shared per-request cost) tiny, while every fact still contributes a
    block and a singleton clique to ``H(D, q)`` — so a from-scratch matching
    rebuild pays ``O(|D|)`` per answer and the maintained path does not.
    All escape/filler values point into a keyless sink range and pair with
    nothing.
    """
    from repro import Database, Fact
    from repro.db.generators import solution_triangle

    facts = []
    base = 0
    sink = 10_000_000
    for _ in range(max(2, size // 125)):  # triangle gadgets: 5 facts each
        facts.extend(solution_triangle(query, (base, base + 1, base + 2)))
        facts.append(Fact(query.schema, (base, sink + 2 * base, sink + 2 * base + 1)))
        facts.append(
            Fact(query.schema, (base + 1, sink + 2 * base + 1, sink + 2 * base))
        )
        base += 3
    filler = 1_000_000  # keys disjoint from the gadget elements
    while len(facts) < size:
        facts.append(Fact(query.schema, (filler, sink + filler, sink + filler + 1)))
        filler += 1
    return Database(facts)


def _serve_stream(server, database, query_text, mutations, invalidate_key=None):
    """Apply each delta under the pool's exclusive gate, then answer.

    Only the answers are timed — the mutation itself is identical on both
    paths.  ``invalidate_key`` simulates the pre-PR 6 contract by dropping
    the maintained matching entry before every answer.
    """
    ref = DatasetRef.in_memory(database)
    verdicts = []
    serve_time = 0.0
    for index, (op, fact) in enumerate(mutations):
        with server.pool.exclusive():
            (database.add if op == "add" else database.remove)(fact)
        if invalidate_key is not None:
            database.invalidate_derived(invalidate_key)
        request = Request(
            op="certain",
            query=query_text,
            datasets=(ref,),
            request_id=f"serve-{index}",
        )
        [answer], elapsed = timed(lambda: server.handle_request(request))
        assert answer.ok
        serve_time += elapsed
        verdicts.append(answer.verdict)
    return verdicts, serve_time


def test_update_while_serving():
    report = ExperimentReport(
        "Experiment II.c — update-while-serving: maintained matching vs rebuild",
        ["query", "facts", "requests", "maintained (s)", "rebuild (s)", "speedup"],
    )
    name = "q6"
    query = QUERIES[name]
    for size in _SIZES:
        gc.collect()
        maintained_db = _serving_workload(query, size)
        rebuild_db = _serving_workload(query, size)
        initial_facts = len(maintained_db)
        mutations = list(
            _mutation_stream(
                query, _serving_workload(query, size), _MUTATIONS, seed=size + 1
            )
        )
        maintained_server = CQAServer(enable_cache=False, strict_polynomial=True)
        rebuild_server = CQAServer(enable_cache=False, strict_polynomial=True)
        # Warm both resident sessions: first answer builds every structure.
        warm = Request(
            op="certain", query=str(query),
            datasets=(DatasetRef.in_memory(maintained_db),), request_id="warm",
        )
        maintained_server.handle_request(warm)
        rebuild_server.handle_request(
            Request(op="certain", query=str(query),
                    datasets=(DatasetRef.in_memory(rebuild_db),), request_id="warm")
        )
        maintained_verdicts, maintained_time = _serve_stream(
            maintained_server, maintained_db, str(query), mutations
        )
        rebuild_verdicts, rebuild_time = _serve_stream(
            rebuild_server, rebuild_db, str(query), mutations,
            invalidate_key=matching_cache_key(query),
        )
        assert maintained_verdicts == rebuild_verdicts
        # The counters are the claim: the maintained server's hot path never
        # rebuilt the matching, while the baseline rebuilt it per answer.
        stats = maintained_db.derived_cache_stats()["bipartite_matching"]
        assert stats["builds"] == 1
        assert stats["rebuilds"] == 0
        assert stats["unsupported_deltas"] == 0
        assert stats["maintained_deltas"] > 0
        baseline_stats = rebuild_db.derived_cache_stats()["bipartite_matching"]
        assert baseline_stats["rebuilds"] >= 1
        speedup = rebuild_time / maintained_time if maintained_time else float("inf")
        _SERVING_SPEEDUPS[(name, initial_facts)] = speedup
        report.add(
            query=name,
            facts=initial_facts,
            requests=len(mutations),
            **{
                "maintained (s)": f"{maintained_time:.4f}",
                "rebuild (s)": f"{rebuild_time:.4f}",
                "speedup": f"{speedup:.1f}x",
            },
        )
    emit(report)
    for (query_name, size), speedup in _SERVING_SPEEDUPS.items():
        if size >= 2500:
            # Single-core, single-threaded work on both sides: asserted
            # unconditionally (never core-gated).
            assert speedup >= _TARGET_SPEEDUP, (
                f"{query_name}: expected the maintained matching to serve "
                f">= {_TARGET_SPEEDUP}x faster than per-request rebuilds at "
                f"{size} facts, got {speedup:.1f}x"
            )
    _JSON_REPORTS.append(report)


def test_parallel_vs_sequential_batch():
    query = QUERIES["q3"]
    engine = CertainEngine(query)
    databases = [
        random_solution_database(
            query,
            solution_count=60,
            noise_count=20,
            domain_size=40,
            rng=random.Random(1000 + index),
        )
        for index in range(_PARALLEL_DATABASES)
    ]
    sequential_reports, sequential_time = timed(lambda: engine.explain_many(databases))
    parallel_reports, parallel_time = timed(
        lambda: engine.explain_many(databases, workers=_PARALLEL_WORKERS)
    )
    assert [report.certain for report in parallel_reports] == [
        report.certain for report in sequential_reports
    ]
    speedup = sequential_time / parallel_time if parallel_time else float("inf")
    report = ExperimentReport(
        "Experiment II.b — explain_many: sharded workers vs sequential stream",
        ["query", "databases", "workers", "cores", "sequential (s)", "parallel (s)", "speedup"],
        core_gated=True,
    )
    cores = effective_cores()
    report.add(
        query="q3",
        databases=len(databases),
        workers=_PARALLEL_WORKERS,
        cores=cores,
        **{
            "sequential (s)": f"{sequential_time:.4f}",
            "parallel (s)": f"{parallel_time:.4f}",
            "speedup": f"{speedup:.2f}x",
        },
    )
    emit(report)
    if len(databases) >= 200:
        assert_core_gated(
            report,
            speedup > 1.0,
            f"workers={_PARALLEL_WORKERS} on {cores} cores should beat the "
            f"sequential stream, got {speedup:.2f}x",
            min_cores=_PARALLEL_WORKERS,
        )
    _JSON_REPORTS.append(report)


def test_incremental_regression_vs_baseline():
    """Gate: no gated measurement may regress >2x vs the committed baseline.

    II.a: the delta replay's time per mutation, in reference units, may not
    exceed twice the baseline row's.  II.c: the maintained-vs-rebuild
    serving speedup may not fall below half the baseline row's (capped at
    ``_GATE_FLOOR``).
    """
    if not _BASELINE_PATH.exists():
        return
    baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
    gated = {
        "delta replay vs cache rebuild": (_REPLAY_COSTS, _REPLAY_COLUMN),
        "update-while-serving": (_SERVING_SPEEDUPS, "speedup"),
    }
    baseline_values = {}
    for entry in baseline.get("reports", ()):
        tags = [tag for tag in gated if tag in entry.get("title", "")]
        if not tags:
            continue
        (tag,) = tags
        column = gated[tag][1]
        for row in entry.get("rows", ()):
            try:
                baseline_values[(tag, row.get("query"), int(row.get("facts")))] = (
                    float(str(row.get(column, "")).rstrip("x"))
                )
            except (TypeError, ValueError):
                continue
    checked = 0
    for tag, (measured_values, _) in gated.items():
        for (name, facts), measured in measured_values.items():
            # The workload is deterministic per size knob, so runs at the same
            # size share the exact initial fact count with the baseline row.
            reference = baseline_values.get((tag, name, facts))
            if not reference:
                continue  # no comparable baseline row for this size
            checked += 1
            if measured_values is _REPLAY_COSTS:
                threshold = reference * _REGRESSION_FACTOR
                assert measured <= threshold, (
                    f"{tag}: {name}@{facts} facts: delta replay costs "
                    f"{measured:.4f} reference units per mutation (baseline "
                    f"{reference:.4f}, gate threshold {threshold:.4f})"
                )
            else:
                threshold = min(reference / _REGRESSION_FACTOR, _GATE_FLOOR)
                assert measured >= threshold, (
                    f"{tag}: {name}@{facts} facts: speedup regressed to "
                    f"{measured:.1f}x (baseline {reference:.1f}x, gate threshold "
                    f"{threshold:.1f}x)"
                )
    if _REPLAY_COSTS or _SERVING_SPEEDUPS:
        assert checked or not _DEFAULT_SIZED_RUN, "default run must match baseline rows"


def teardown_module(module):  # noqa: D103 - pytest hook
    if _JSON_REPORTS and _DEFAULT_SIZED_RUN:
        write_json(_BASELINE_PATH, _JSON_REPORTS)
