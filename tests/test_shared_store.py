"""Differential verdicts for the batch transport of the sharded pool.

``CertainEngine.explain_many(workers>1)`` ships each chunk to a worker as
the ``database.facts()`` lists of its databases, and the worker rebuilds
each :class:`~repro.Database` before answering.  That is now the only way a
batch reaches the pool (the shared-memory fact store this module was named
for is gone).  Nothing about verdicts may change: the pool must agree with
the in-process engine *and* with the brute-force repair enumeration,
across all seven paper query classes, and report the same algorithms.
"""

from __future__ import annotations

import random

import pytest

from repro import CertainEngine, certain_bruteforce
from repro.db.generators import random_solution_database


def _small_batch(query, count=3, seed=0):
    rng = random.Random(seed)
    return [
        random_solution_database(query, 3, 3, domain_size=5, rng=rng)
        for _ in range(count)
    ]


class TestDifferentialVerdicts:
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "q6", "q7"])
    def test_share_modes_agree_with_bruteforce(self, queries, name):
        query = queries[name]
        databases = _small_batch(query, count=3, seed=sum(map(ord, name)))
        truth = [certain_bruteforce(query, database) for database in databases]

        engine = CertainEngine(query)
        sequential = engine.is_certain_many(databases)
        assert sequential == truth

        sharded = engine.is_certain_many(databases, workers=2)
        assert engine.last_parallel_stats["chunks"] >= 2
        assert sharded == truth

    def test_explain_reports_match_across_modes(self, queries):
        query = queries["q3"]
        databases = _small_batch(query, count=6, seed=7)
        engine = CertainEngine(query)
        baseline = engine.explain_many(databases)
        sharded = engine.explain_many(databases, workers=2)
        assert engine.last_parallel_stats["chunks"] >= 2
        assert [r.certain for r in sharded] == [r.certain for r in baseline]
        assert [r.algorithm for r in sharded] == [r.algorithm for r in baseline]
