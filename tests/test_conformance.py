"""Randomized property/differential conformance harness.

The certain-answer verdict is a pure function of (query, database) — the
fact that makes the server's answer cache sound is also what makes this
harness decisive: every execution path the system has grown must agree with
the exponential brute-force oracle (enumerate all repairs) on identical
inputs.  Pinned paths:

* ``CertainEngine.explain`` — the indexed in-memory engine;
* the service layer's ``sqlite-pushdown`` strategy (SQL solution pairs and
  ``Cert_k`` seeds primed from a :class:`SqliteFactStore`);
* the ``sharded-pool`` strategy (``explain_many`` over a multiprocessing
  pool, whose chunks carry fact lists), with witnesses, also on warm
  databases mutated after a first answer;
* the cached server path (:class:`~repro.server.app.CachingSession`), both
  cold (stored) and warm (served from the cache).

Databases are generated with :mod:`repro.db.generators` across the
dichotomy's classes (coNP-complete fork/triangle-tripath queries and PTime
``Cert_k``/``matching`` queries), seeded for reproducibility — several
hundred cases in total.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    CertainEngine,
    DatasetRef,
    Request,
    SqliteFactStore,
    certain_bruteforce,
    classify,
    paper_queries,
)
from repro.db.fact_store import is_repair_of
from repro.db.generators import (
    random_block_database,
    random_solution_database,
    solution_triangle,
)
from repro.server import AnswerCache, CachingSession

#: Queries across the dichotomy classes (paper names → expected class).
QUERY_CLASSES = {
    "q1": "coNP-complete",  # triangle tripath
    "q2": "coNP-complete",  # fork tripath
    "q3": "PTime",          # syntactic easy (Cert_2)
    "q4": "PTime",          # Cert_k
    "q5": "PTime",          # Cert_k ∨ ¬matching, no tripath
    "q6": "PTime",          # matching(q) / clique structure
    "q7": "PTime",          # triangle tripath only, arity 14
}

#: Random databases generated per query (two generator families each).
CASES_PER_QUERY = 24

#: Brute-force oracle bound: skip (rare) databases with more repairs.
MAX_REPAIRS = 512


def _generate_cases(query, name):
    """Seeded small databases: solution-aware, block-structured, and (for the
    clique query) triangle-built — the shapes the dichotomy proofs live on."""
    databases = []
    for index in range(CASES_PER_QUERY):
        rng = random.Random(10_000 + 97 * index)
        databases.append(
            random_solution_database(
                query,
                solution_count=rng.randint(2, 5),
                noise_count=rng.randint(0, 4),
                domain_size=rng.randint(3, 5),
                rng=rng,
            )
        )
        rng = random.Random(20_000 + 89 * index)
        databases.append(
            random_block_database(
                query.schema,
                block_count=rng.randint(2, 5),
                max_block_size=3,
                domain_size=rng.randint(3, 6),
                rng=rng,
            )
        )
    if name == "q6":
        for offset in (0, 1):
            triangle = solution_triangle(query, (0 + offset, 1 + offset, 2 + offset))
            extra = random_solution_database(
                query, 2, 1, 4, random.Random(31 + offset)
            )
            extra.add_all(triangle)
            databases.append(extra)
    return [db for db in databases if db.repair_count() <= MAX_REPAIRS]


def _assert_genuine_witnesses(query, databases, reports):
    for database, report in zip(databases, reports):
        if not report.certain:
            assert is_repair_of(report.witness, database)
            assert not query.satisfied_by(report.witness)


@pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
def test_all_paths_agree_with_bruteforce_oracle(name):
    query = paper_queries()[name]
    classification = classify(query)
    assert QUERY_CLASSES[name] in classification.complexity.value
    databases = _generate_cases(query, name)
    assert len(databases) >= CASES_PER_QUERY  # the harness must stay "hundreds"
    oracle = [certain_bruteforce(query, database) for database in databases]

    # Path 1: the indexed in-memory engine, one explain per database.
    engine = CertainEngine(query, classification=classification)
    reports = []
    for database, expected in zip(databases, oracle):
        report = engine.explain(database)
        assert report.certain == expected, (
            f"{name}: indexed engine disagrees with the oracle on "
            f"{database.describe()}"
        )
        reports.append(report)

    # Path 2: the sharded multiprocessing pool over the whole batch, with
    # the sequential algorithm labels and genuine witnesses.
    sharded = engine.explain_many(databases, workers=2, want_witness=True)
    assert engine.last_parallel_stats["chunks"] >= 2
    assert [report.certain for report in sharded] == oracle
    assert [report.algorithm for report in sharded] == [
        report.algorithm for report in reports
    ]
    _assert_genuine_witnesses(query, databases, sharded)

    # Path 3: the service layer's sqlite-pushdown strategy.
    session = CachingSession(cache=None)  # plain planned path, no caching
    for database, expected in zip(databases, oracle):
        store = SqliteFactStore(query.schema)
        store.load_database(database)
        try:
            [answer] = session.answer(
                Request(
                    op="certain",
                    query=str(query),
                    datasets=(DatasetRef.sqlite(store),),
                )
            )
        finally:
            store.close()
        assert answer.backend == "sqlite-pushdown"
        assert answer.verdict == expected, (
            f"{name}: sqlite-pushdown disagrees with the oracle on "
            f"{database.describe()}"
        )

    # Path 4: the cached server path — cold (stored) and warm (cache hit).
    caching = CachingSession(cache=AnswerCache(max_entries=4 * len(databases)))
    refs = [DatasetRef.in_memory(database) for database in databases]
    for ref, expected in zip(refs, oracle):
        [cold] = caching.answer(
            Request(op="certain", query=str(query), datasets=(ref,))
        )
        assert cold.verdict == expected
        assert cold.details["cache"] == "miss"
    for ref, expected in zip(refs, oracle):
        [warm] = caching.answer(
            Request(op="certain", query=str(query), datasets=(ref,))
        )
        assert warm.verdict == expected, (
            f"{name}: cached server path served a wrong verdict"
        )
        assert warm.details["cache"] == "hit"


def test_sharded_pool_answers_warm_databases_like_sequential():
    """Databases answered once, then mutated: the pool's workers rebuild
    them from their facts and must reach the sequential (delta-maintained)
    verdicts."""
    from repro import Database
    from repro.db.generators import random_fact

    for name in ("q1", "q2", "q3", "q4", "q5", "q6", "q7"):
        query = paper_queries()[name]
        rng = random.Random(80_000 + sum(map(ord, name)))
        databases = [
            random_solution_database(query, 3, 2, 4, rng) for _ in range(4)
        ]
        engine = CertainEngine(query)
        engine.explain_many(databases)
        for database in databases:
            for _ in range(4):
                live = database.facts()
                if live and rng.random() < 0.45:
                    database.remove(rng.choice(live))
                else:
                    database.add(random_fact(query.schema, 4, rng))
        sequential = engine.explain_many(databases, want_witness=True)
        sharded = engine.explain_many(databases, workers=2, want_witness=True)
        assert engine.last_parallel_stats["chunks"] >= 2
        verdicts = [report.certain for report in sequential]
        assert [report.certain for report in sharded] == verdicts
        assert verdicts == [
            certain_bruteforce(query, Database(database.facts()))
            for database in databases
        ]
        _assert_genuine_witnesses(query, databases, sharded)


def test_witness_paths_agree_with_oracle():
    """Negative verdicts must come with genuine falsifying repairs everywhere."""
    query = paper_queries()["q2"]
    caching = CachingSession(cache=AnswerCache())
    found_negative = 0
    for index in range(40):
        rng = random.Random(5_000 + 13 * index)
        database = random_solution_database(
            query, rng.randint(1, 3), rng.randint(2, 6), 3, rng
        )
        if database.repair_count() > MAX_REPAIRS:
            continue
        expected = certain_bruteforce(query, database)
        ref = DatasetRef.in_memory(database)
        [answer] = caching.answer(
            Request(op="witness", query="q2", datasets=(ref,))
        )
        assert answer.verdict == expected
        if not expected:
            found_negative += 1
            witness_facts = [fact for fact in database if str(fact) in answer.witness]
            assert is_repair_of(witness_facts, database)
            # The cached replay must serve the same witness, marked as a hit.
            [again] = caching.answer(
                Request(op="witness", query="q2", datasets=(ref,))
            )
            assert again.witness == answer.witness
            assert again.details["cache"] == "hit"
    assert found_negative >= 3  # the sweep must actually exercise witnesses


def test_delta_stream_answers_agree_with_bruteforce_oracle():
    """Mutate-then-answer conformance across q1..q6 (the live-server shape).

    The same database object is mutated between answers, so every verdict
    after the first is produced by the delta-maintained structures — the
    spliced solution graph (which also seeds ``Cert_k``) and the
    incrementally repaired ``matching(q)`` — rather than by from-scratch
    construction.  Each verdict is pinned to the brute-force repair
    enumeration on a snapshot of the current facts.
    """
    from repro import Database
    from repro.db.generators import random_fact

    for name in ("q1", "q2", "q3", "q4", "q5", "q6"):
        query = paper_queries()[name]
        engine = CertainEngine(query)
        rng = random.Random(60_000 + sum(map(ord, name)))
        database = random_solution_database(query, 3, 2, 4, rng)
        live = database.facts()
        checked = 0
        for step in range(30):
            if live and rng.random() < 0.45:
                victim = rng.choice(live)
                database.remove(victim)
                live.remove(victim)
            else:
                fact = random_fact(query.schema, 4, rng)
                if database.add(fact):
                    live.append(fact)
            if database.repair_count() > MAX_REPAIRS:
                continue
            expected = certain_bruteforce(query, Database(database.facts()))
            report = engine.explain(database)
            assert report.certain == expected, (
                f"{name}: delta-stream verdict diverged at step {step} on "
                f"{database.describe()}"
            )
            checked += 1
        assert checked >= 15  # the stream must actually exercise the engine
