"""Differential suite: indexed evaluation paths vs the seed naive oracles.

Every hot path rewritten against the indexed evaluation layer is checked
here against the seed implementation it replaced, on seeded-random workloads
spanning all the paper's query classes (trivial, syntactically hard,
Theorem 6.1 easy, and both 2way-determined flavours):

* solution graphs: :func:`build_solution_graph` vs
  :func:`build_solution_graph_naive`;
* query evaluation: ``find_solution``/``solutions`` vs their ``_naive``
  twins, on lists and on indexed databases;
* the fixpoint: :class:`CertK` (worklist) vs :class:`NaiveCertK`, comparing
  both the answer and the computed minimal antichain;
* ``matching(q)`` over the indexed vs the naive graph;
* the classification engine vs the brute-force repair enumeration oracle;
* the SQLite pushdown pipeline vs the plain rehydration pipeline;
* the incremental :class:`FactIndex` vs brute-force filtering under random
  add/remove churn.
"""

import random

import pytest

from repro import (
    CertainEngine,
    CertK,
    Database,
    Fact,
    FactIndex,
    IndexedEvaluator,
    MatchingAlgorithm,
    NaiveCertK,
    RelationSchema,
    SolutionGraph,
    SqliteFactStore,
    build_solution_graph,
    build_solution_graph_naive,
    certain_answer_via_sqlite,
    certain_bruteforce,
    parse_query,
)
from repro.bench.harness import batch_compare_with_oracle
from repro.db.generators import random_solution_database
from repro.eval.naive import matching_naive

#: One query per class of the dichotomy (q7 is exercised separately: its
#: arity-14 schema makes even small naive runs disproportionately slow).
QUERY_CLASSES = {
    "trivial": "R(x|y) R(x|z)",
    "hard_syntactic": "R(x,u|x,v) R(v,y|u,y)",   # q1, Theorem 4.2
    "hard_fork": "R(x,u|x,y) R(u,y|x,z)",        # q2, fork-tripath
    "easy_cert2": "R(x|y) R(y|z)",               # q3, Theorem 6.1
    "easy_cert2_rep": "R(x,x|u,v) R(x,y|u,x)",   # q4, repeated variables
    "twoway_no_tripath": "R(x|y,x) R(y|x,u)",    # q5
    "twoway_triangle": "R(x|y,z) R(z|x,y)",      # q6, clique query
}

QUERIES = {name: parse_query(text) for name, text in QUERY_CLASSES.items()}


def workloads(query, seeds=range(4), solution_count=6, noise_count=5, domain_size=4):
    for seed in seeds:
        rng = random.Random(seed)
        yield random_solution_database(
            query, solution_count, noise_count, domain_size, rng
        )


def assert_graphs_equal(left, right):
    # The cached graph runs on fact ids: compare through its Fact view.
    left, right = (g.view() if isinstance(g, SolutionGraph) else g for g in (left, right))
    assert left.directed == right.directed
    assert left.self_loops == right.self_loops
    assert set(left.facts) == set(right.facts)
    left_edges = {fact: adjacent for fact, adjacent in left.edges.items() if adjacent}
    right_edges = {fact: adjacent for fact, adjacent in right.edges.items() if adjacent}
    assert left_edges == right_edges


class TestSolutionGraphDifferential:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_indexed_graph_matches_naive(self, name):
        query = QUERIES[name]
        for database in workloads(query):
            assert_graphs_equal(
                build_solution_graph(query, database),
                build_solution_graph_naive(query, database),
            )

    def test_cached_graph_maintained_across_mutation(self):
        # The delta pipeline keeps the cached graph itself consistent: a
        # mutation is spliced into the same object on the next read instead
        # of invalidating it (the PR 1 contract this replaces).
        query = QUERIES["easy_cert2"]
        database = next(iter(workloads(query, seeds=[0])))
        before = build_solution_graph(query, database)
        assert build_solution_graph(query, database) is before  # cache hit
        extra = Fact(query.schema, (991, 992))
        database.add(extra)
        after = build_solution_graph(query, database)
        assert after is before  # live view, delta applied in place
        assert database.id_of(extra) in after.edges
        assert_graphs_equal(after, build_solution_graph_naive(query, database))
        database.remove(extra)
        assert_graphs_equal(
            build_solution_graph(query, database),
            build_solution_graph_naive(query, database),
        )
        assert extra not in build_solution_graph(query, database).view().edges


class TestQueryEvaluationDifferential:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_solutions_agree_on_lists(self, name):
        query = QUERIES[name]
        for database in workloads(query):
            facts = database.facts()
            assert query.solutions(facts) == query.solutions_naive(facts)
            assert query.find_solution(facts) == query.find_solution_naive(facts)
            assert query.satisfied_by(facts) == (
                query.find_solution_naive(facts) is not None
            )

    def test_duplicate_inputs_match_naive_multiplicity(self):
        # Above the index threshold, duplicated facts must still be counted
        # per occurrence (the indexed path falls back to the seed scan).
        query = QUERIES["easy_cert2"]
        schema = query.schema
        facts = [Fact(schema, (i, i + 1)) for i in range(20)]
        duplicated = facts + [facts[3]]
        assert query.solutions(duplicated) == query.solutions_naive(duplicated)
        assert len(query.solutions(duplicated)) > len(query.solutions(facts))

    def test_solutions_agree_on_databases_and_shuffles(self):
        query = QUERIES["easy_cert2"]
        rng = random.Random(7)
        for database in workloads(query, seeds=range(3), solution_count=12):
            # Database input probes the persistent index.
            assert query.solutions(database) == query.solutions_naive(database.facts())
            shuffled = database.facts()
            rng.shuffle(shuffled)
            assert query.solutions(shuffled) == query.solutions_naive(shuffled)

    def test_indexed_evaluator_facade(self):
        query = QUERIES["twoway_triangle"]
        evaluator = IndexedEvaluator(query)
        for database in workloads(query, seeds=range(2)):
            graph = evaluator.solution_graph(database).view()
            assert evaluator.solution_pairs(database) == set(graph.directed)
            assert evaluator.satisfied_by(database) == bool(graph.directed)
            assert evaluator.initial_delta(database) == CertK(query, 2)._initial_delta(
                database
            )


class TestCertKDifferential:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_worklist_matches_naive(self, name, k):
        query = QUERIES[name]
        for database in workloads(query, seeds=range(3)):
            indexed = CertK(query, k).run(database)
            naive = NaiveCertK(query, k).run(database)
            assert indexed.certain == naive.certain
            assert indexed.delta == naive.delta

    def test_worklist_matches_naive_on_q7(self):
        query = parse_query(
            "R(x1,x2,x3,y1,y1,y2,y3,z1,z2,z3|z4,z4,z4,z4) "
            "R(x3,x1,x2,y3,y1,y1,y2,z2,z3,z4|z1,z2,z3,z4)"
        )
        for database in workloads(
            query, seeds=range(2), solution_count=3, noise_count=0, domain_size=3
        ):
            indexed = CertK(query, 2).run(database)
            naive = NaiveCertK(query, 2).run(database)
            assert indexed.certain == naive.certain
            assert indexed.delta == naive.delta


class TestMatchingDifferential:
    @pytest.mark.parametrize("name", ["easy_cert2", "twoway_no_tripath", "twoway_triangle"])
    def test_matching_agrees_over_both_graphs(self, name):
        query = QUERIES[name]
        runner = MatchingAlgorithm(query)
        for database in workloads(query):
            indexed = runner.run(database)
            naive = matching_naive(query, database)
            assert indexed.has_saturating_matching == naive.has_saturating_matching
            assert indexed.negation_certain == naive.negation_certain


class TestEngineDifferential:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_engine_matches_bruteforce(self, name):
        query = QUERIES[name]
        engine = CertainEngine(query)
        databases = [
            database
            for database in workloads(query, seeds=range(3), solution_count=4, noise_count=3)
            if database.repair_count() <= 4096
        ]
        reports = engine.explain_many(databases)
        assert len(reports) == len(databases)
        for database, report in zip(databases, reports):
            assert report.certain == certain_bruteforce(query, database)
        assert engine.is_certain_many(databases) == [r.certain for r in reports]

    def test_batch_harness_agreement(self):
        query = QUERIES["easy_cert2"]
        engine = CertainEngine(query)
        databases = [
            database
            for database in workloads(query, seeds=range(4), solution_count=4, noise_count=3)
            if database.repair_count() <= 4096
        ]
        result = batch_compare_with_oracle(
            engine, databases, oracle=lambda db: certain_bruteforce(query, db)
        )
        assert result.total == len(databases)
        assert result.agreement_rate == 1.0
        assert result.sound


class TestSqlitePipelineDifferential:
    @pytest.mark.parametrize("seed", range(3))
    def test_pushdown_matches_rehydration(self, seed):
        query = QUERIES["easy_cert2"]
        rng = random.Random(seed)
        database = random_solution_database(query, 6, 4, 4, rng)
        with SqliteFactStore(query.schema) as store:
            store.load_database(database)
            pushed = certain_answer_via_sqlite(query, store, pushdown=True)
            plain = certain_answer_via_sqlite(query, store, pushdown=False)
        assert pushed == plain == certain_bruteforce(query, database)

    def test_sql_solution_graph_matches_indexed(self):
        query = QUERIES["twoway_triangle"]
        database = random_solution_database(query, 8, 4, 4, random.Random(11))
        with SqliteFactStore(query.schema) as store:
            store.load_database(database)
            rehydrated = store.to_indexed_database(query)
            sql_graph = build_solution_graph(query, rehydrated)  # primed cache
        assert_graphs_equal(sql_graph, build_solution_graph_naive(query, database))


class TestFactIndexProperties:
    SCHEMA = RelationSchema("R", 3, 2)

    def random_fact(self, rng):
        return Fact(self.SCHEMA, tuple(rng.randrange(4) for _ in range(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_incremental_index_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        index = FactIndex()
        live = []
        patterns = [(0,), (1, 2), (2,), (0, 1)]
        for step in range(120):
            fact = self.random_fact(rng)
            if rng.random() < 0.65 or not live:
                if index.add(fact):
                    live.append(fact)
            else:
                victim = rng.choice(live)
                assert index.discard(victim)
                live.remove(victim)
            if step % 10 == 0:
                pattern = rng.choice(patterns)
                probe = tuple(rng.randrange(4) for _ in pattern)
                expected = [
                    candidate
                    for candidate in live
                    if tuple(candidate.values[p] for p in pattern) == probe
                ]
                assert index.lookup("R", pattern, probe) == expected
        assert sorted(map(str, index)) == sorted(map(str, live))

    def test_fact_pickle_recomputes_cached_hash(self):
        # The cached hash must not be serialised: str hashing is randomised
        # per process, so a receiving process has to recompute it.
        import pickle

        fact = Fact(self.SCHEMA, ("a", "b", "c"))
        tampered = Fact(self.SCHEMA, ("a", "b", "c"))
        object.__setattr__(tampered, "_hash", hash(fact) + 1)  # simulate stale cache
        restored = pickle.loads(pickle.dumps(tampered))
        assert restored == fact
        assert hash(restored) == hash(fact)
        assert restored.block_id() == fact.block_id()
        assert restored in {fact}

    def test_database_version_and_index_maintenance(self):
        database = Database()
        fact = Fact(self.SCHEMA, (1, 2, 3))
        version = database.version
        assert database.add(fact)
        assert database.version == version + 1
        assert not database.add(fact)  # duplicate: no version bump
        assert database.version == version + 1
        assert fact in database.index
        assert database.index.lookup("R", (0,), (1,)) == [fact]
        assert database.remove(fact)
        assert fact not in database.index
        assert database.index.lookup("R", (0,), (1,)) == []
