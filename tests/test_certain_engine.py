"""Unit tests for the exact oracles and the classification-driven engine."""

import random

import pytest

import repro.core.certain
from repro import (
    CertainEngine,
    Database,
    Fact,
    MatchingAlgorithm,
    certain_bruteforce,
    certain_exact,
    certain_trivial,
    find_falsifying_repair,
    parse_query,
)
from repro.core.solutions import BlockComponent, block_partition
from repro.db.fact_store import is_repair_of
from repro.db.generators import random_solution_database

REPAIR_LABEL = "matching repair (Proposition 10.3)"
SAT_LABEL = "SAT oracle (confirming a negative polynomial-algorithm answer)"
GREEDY_LABEL = "greedy falsifying repair"
CERT2_LABEL = "Cert_2 (Theorem 6.1)"


def f(query, *values):
    return Fact(query.schema, values)


def escaped_core(query, shape, rng):
    """``random_solution_database(query, *shape, rng)`` plus one escape fact per
    block (its key with fresh values), so the database is not certain."""
    database = random_solution_database(query, *shape, rng)
    width = query.schema.arity - query.schema.key_size
    for number, block in enumerate(database.blocks()):
        fresh = 1_000_000 + number * width
        database.add(Fact(query.schema, block.key_tuple + tuple(range(fresh, fresh + width))))
    return database


def assert_falsifying_repair(query, database, witness):
    assert is_repair_of(list(witness), database)
    assert not query.satisfied_by(witness)


class TestBruteForceOracle:
    def test_simple_certain(self):
        q3 = parse_query("R(x|y) R(y|z)")
        db = Database([f(q3, 1, 2), f(q3, 2, 3)])
        assert certain_bruteforce(q3, db)

    def test_simple_not_certain(self):
        q3 = parse_query("R(x|y) R(y|z)")
        db = Database([f(q3, 1, 2), f(q3, 1, 5), f(q3, 2, 3)])
        assert not certain_bruteforce(q3, db)

    def test_empty_database(self):
        q3 = parse_query("R(x|y) R(y|z)")
        assert not certain_bruteforce(q3, Database())

    def test_limit_guard(self):
        q3 = parse_query("R(x|y) R(y|z)")
        facts = []
        for key in range(6):
            facts.append(f(q3, key, key + 1))
            facts.append(f(q3, key, key + 2))
        db = Database(facts)
        with pytest.raises(RuntimeError):
            certain_bruteforce(q3, db, limit=3)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_sat_oracle(self, seed):
        q2 = parse_query("R(x,u|x,y) R(u,y|x,z)")
        rng = random.Random(seed)
        db = random_solution_database(q2, 4, 3, 4, rng)
        assert certain_bruteforce(q2, db) == certain_exact(q2, db)


class TestFalsifyingRepair:
    def test_witness_for_not_certain(self):
        q3 = parse_query("R(x|y) R(y|z)")
        db = Database([f(q3, 1, 2), f(q3, 1, 5), f(q3, 2, 3)])
        witness = find_falsifying_repair(q3, db)
        assert witness is not None
        assert not q3.satisfied_by(witness)

    def test_no_witness_for_certain(self):
        q3 = parse_query("R(x|y) R(y|z)")
        db = Database([f(q3, 1, 2), f(q3, 2, 3)])
        assert find_falsifying_repair(q3, db) is None


class TestTrivialQueries:
    def test_homomorphism_case(self):
        query = parse_query("R(x|y) R(x|x)")
        # Certain iff some block consists solely of facts matching R(x|x).
        db = Database([f(query, 1, 1), f(query, 2, 1), f(query, 2, 2)])
        assert certain_trivial(query, db)
        assert certain_bruteforce(query, db)

    def test_homomorphism_case_not_certain(self):
        query = parse_query("R(x|y) R(x|x)")
        db = Database([f(query, 1, 1), f(query, 1, 2), f(query, 2, 3)])
        assert not certain_trivial(query, db)
        assert not certain_bruteforce(query, db)

    def test_identical_keys_case(self):
        query = parse_query("R(x,y|u) R(x,y|v)")
        db = Database([f(query, 1, 2, 3), f(query, 1, 2, 4)])
        assert certain_trivial(query, db) == certain_bruteforce(query, db)

    def test_non_trivial_query_rejected(self):
        query = parse_query("R(x|y) R(y|z)")
        with pytest.raises(ValueError):
            certain_trivial(query, Database())

    @pytest.mark.parametrize("seed", range(5))
    def test_trivial_agrees_with_bruteforce(self, seed):
        query = parse_query("R(x|y) R(x|x)")
        rng = random.Random(seed)
        db = random_solution_database(query, 4, 3, 3, rng)
        assert certain_trivial(query, db) == certain_bruteforce(query, db)


class TestCertainEngine:
    @pytest.mark.parametrize("name", ["q2", "q3", "q5", "q6"])
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_is_exact_on_paper_queries(self, queries, name, seed):
        query = queries[name]
        engine = CertainEngine(query)
        rng = random.Random(seed)
        db = random_solution_database(query, 4, 2, 4, rng)
        assert engine.is_certain(db) == certain_exact(query, db)

    def test_engine_reports_algorithm(self, queries):
        engine = CertainEngine(queries["q3"])
        db = random_solution_database(queries["q3"], 4, 2, 4, random.Random(0))
        report = engine.explain(db)
        assert "Cert_2" in report.algorithm
        assert report.exact

    def test_engine_uses_sat_oracle_for_hard_queries(self, queries):
        engine = CertainEngine(queries["q2"])
        db = random_solution_database(queries["q2"], 3, 2, 4, random.Random(1))
        report = engine.explain(db)
        assert "SAT" in report.algorithm

    def test_engine_trivial_query(self):
        query = parse_query("R(x|y) R(x|x)")
        engine = CertainEngine(query)
        db = Database([f(query, 1, 1)])
        report = engine.explain(db)
        assert report.certain
        assert "one-atom" in report.algorithm

    def test_paper_polynomial_answer_is_sound(self, queries):
        query = queries["q6"]
        engine = CertainEngine(query)
        for seed in range(6):
            db = random_solution_database(query, 4, 2, 3, random.Random(seed))
            if engine.paper_polynomial_answer(db):
                assert certain_exact(query, db)

    def test_strict_polynomial_mode_reports_inexact_negative(self, queries):
        query = queries["q6"]
        engine = CertainEngine(query, strict_polynomial=True)
        for seed in range(10):
            db = random_solution_database(query, 4, 2, 3, random.Random(seed))
            report = engine.explain(db)
            if not report.certain:
                break
        else:
            pytest.fail("no negative among the sampled databases")
        # Without a witness request a strict negative does the paper
        # algorithm's work only, and says it is inexact.
        assert not report.exact and "paper algorithm" in report.algorithm
        assert report.witness is None
        # With one, the matching's repair certifies it (q6 is a clique query).
        witnessed = engine.explain(db, want_witness=True)
        assert (witnessed.certain, witnessed.exact, witnessed.algorithm) == (
            False, True, REPAIR_LABEL
        )
        assert_falsifying_repair(query, db, witnessed.witness)

    def test_engine_accepts_precomputed_classification(self, queries):
        from repro import classify

        result = classify(queries["q3"])
        engine = CertainEngine(queries["q3"], classification=result)
        assert engine.classification is result


@pytest.fixture
def no_sat(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the SAT leg ran")

    monkeypatch.setattr(repro.core.certain, "certain_exact", refuse)
    monkeypatch.setattr(repro.core.certain, "find_falsifying_repair", refuse)


class TestMatchingRepairLeg:
    """Negative ``Cert_k ∨ ¬matching`` answers: the matching's repair, then SAT."""

    @pytest.mark.parametrize("name", ["q5", "q6"])
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strict", [False, True])
    def test_escaped_core_negative_is_certified_without_sat(
        self, queries, no_sat, name, seed, strict
    ):
        query = queries[name]
        db = escaped_core(query, (6, 3, 5), random.Random(seed))
        # On a clique-database every saturating matching's repair falsifies
        # the query (Proposition 10.3), whichever matching is found.
        assert MatchingAlgorithm(query).is_clique_database(db)
        engine = CertainEngine(query, strict_polynomial=strict)
        witnessed = engine.explain(db, want_witness=True)
        assert (witnessed.certain, witnessed.exact, witnessed.algorithm) == (
            False, True, REPAIR_LABEL
        )
        assert_falsifying_repair(query, db, witnessed.witness)
        plain = engine.explain(db)
        assert plain.witness is None and not plain.certain
        if strict:  # no witness asked for: the paper algorithm's answer only
            assert not plain.exact and "paper algorithm" in plain.algorithm
        else:
            assert (plain.exact, plain.algorithm) == (True, REPAIR_LABEL)

    def test_repair_that_satisfies_the_query_falls_through_to_sat(self, queries):
        # q5 gadgets (x|y,x) (x|y,5) (y|x,y) (y|x,6): one component, not a
        # quasi-clique, so each block picks one of two singleton cliques in
        # hash order.  Only (x|y,5) with (y|x,6) is a falsifying pick; a
        # (x|y,x) or (y|x,y) pick forms a solution.  All 20 gadgets pick
        # falsifyingly with probability 4**-20, so the repair satisfies q5.
        query = queries["q5"]
        rows = []
        for gadget in range(20):
            x, y = 10 * gadget + 1, 10 * gadget + 2
            rows += [(x, y, x), (x, y, 5), (y, x, y), (y, x, 6)]
        db = Database(f(query, *row) for row in rows)
        engine = CertainEngine(query)
        assert not engine._matching.certain_by_negation(db)
        assert engine._matching.witness_repair(db) is None
        report = engine.explain(db)
        assert (report.certain, report.exact, report.algorithm) == (False, True, SAT_LABEL)
        witnessed = engine.explain(db, want_witness=True)
        assert witnessed.algorithm == SAT_LABEL
        assert_falsifying_repair(query, db, witnessed.witness)


class TestGreedyRepairLeg:
    """Theorem 6.1 answers: a greedy falsifying repair per component, else ``Cert_2``."""

    @staticmethod
    def count_cert2_runs(engine, monkeypatch):
        runs = []
        run = engine._cert2.run

        def counted(database):
            runs.append(database)
            return run(database)

        monkeypatch.setattr(engine._cert2, "run", counted)
        return runs

    @pytest.mark.parametrize("name", ["q3", "q4"])
    @pytest.mark.parametrize("seed", range(3))
    def test_escaped_core_negative_runs_neither_sat_nor_cert2(
        self, queries, no_sat, monkeypatch, name, seed
    ):
        query = queries[name]
        db = escaped_core(query, (8, 4, 6), random.Random(seed))
        engine = CertainEngine(query)
        runs = self.count_cert2_runs(engine, monkeypatch)
        witnessed = engine.explain(db, want_witness=True)
        assert (witnessed.certain, witnessed.exact, witnessed.algorithm) == (
            False, True, GREEDY_LABEL
        )
        assert_falsifying_repair(query, db, witnessed.witness)
        # The witness lists one fact per block, in the database's block order.
        blocks = [db.fact_blocks[db.id_of(fact)] for fact in witnessed.witness]
        assert blocks == sorted(blocks)
        plain = engine.explain(db)
        assert (plain.certain, plain.exact, plain.algorithm, plain.witness) == (
            False, True, GREEDY_LABEL, None
        )
        assert runs == []

    @pytest.mark.parametrize("name", ["q3", "q4"])
    def test_a_certain_component_is_left_to_cert2_and_then_read_off_its_memo(
        self, queries, monkeypatch, name
    ):
        query = queries[name]
        db = escaped_core(query, (8, 4, 6), random.Random(5))
        gadget = {"q3": [(7, 8), (8, 9)], "q4": [(7, 7, 8, 9), (7, 10, 8, 7)]}[name]
        db.add_all(f(query, *[2_000_000 + value for value in row]) for row in gadget)
        engine = CertainEngine(query)
        runs = self.count_cert2_runs(engine, monkeypatch)
        report = engine.explain(db)
        assert (report.certain, report.algorithm) == (True, CERT2_LABEL)
        certain = [
            c for c in block_partition(query, db).components if c.memo.get(2, (False,))[0]
        ]
        assert [component.choice for component in certain] == [()]
        # A memoised certain fixpoint answers without any greedy attempt.
        monkeypatch.setattr(
            BlockComponent, "falsifying_choice", lambda *args: pytest.fail("the greedy ran")
        )
        assert engine.explain(db, want_witness=True).certain
        assert len(runs) == 2

    def test_without_a_greedy_repair_cert2_answers_and_sat_gives_the_witness(
        self, queries, monkeypatch
    ):
        query = queries["q3"]
        db = escaped_core(query, (8, 4, 6), random.Random(1))
        monkeypatch.setattr(BlockComponent, "falsifying_choice", lambda *args: None)
        engine = CertainEngine(query)
        runs = self.count_cert2_runs(engine, monkeypatch)
        report = engine.explain(db, want_witness=True)
        assert (report.certain, report.exact, report.algorithm) == (False, True, CERT2_LABEL)
        assert_falsifying_repair(query, db, report.witness)
        assert runs == [db]

    def test_the_empty_database_has_the_empty_repair(self, queries, no_sat):
        report = CertainEngine(queries["q3"]).explain(Database(), want_witness=True)
        assert (report.certain, report.algorithm, tuple(report.witness)) == (
            False, GREEDY_LABEL, ()
        )
