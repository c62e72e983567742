"""Unit tests for the greedy fixpoint algorithm Cert_k (Section 5)."""

import random

import pytest

from repro import (
    CertK,
    Database,
    Fact,
    cert_2,
    cert_k,
    certain_bruteforce,
    certain_exact,
    delta_k,
    paper_queries,
    parse_query,
)
from repro.core.solutions import build_solution_graph
from repro.db.generators import random_solution_database


@pytest.fixture
def q3():
    return parse_query("R(x|y) R(y|z)")


def f(query, *values):
    return Fact(query.schema, values)


FRESH = 1_000_000


def escaped_core(query, shape, rng):
    """``random_solution_database(query, *shape, rng)`` plus one *escape* fact
    per block: its key with fresh values, so the all-escape repair falsifies
    the query and the database is not certain."""
    database = random_solution_database(query, *shape, rng)
    width = query.schema.arity - query.schema.key_size
    fresh = FRESH
    for block in database.blocks():
        database.add(Fact(query.schema, block.key_tuple + tuple(range(fresh, fresh + width))))
        fresh += width
    return database


def gadget(query):
    """Both atoms on fresh values, each alone in its block: every repair
    satisfies the query."""
    env = {v: 2 * FRESH + i for i, v in enumerate(sorted(query.variables))}
    return [query.atom_a.instantiate(env), query.atom_b.instantiate(env)]


class TestCertKBasics:
    def test_invalid_k(self, q3):
        with pytest.raises(ValueError):
            CertK(q3, k=0)

    def test_empty_database_is_not_certain(self, q3):
        assert not cert_2(q3, Database())

    def test_consistent_database_satisfying_query(self, q3):
        db = Database([f(q3, 1, 2), f(q3, 2, 3)])
        assert cert_2(q3, db)

    def test_consistent_database_not_satisfying_query(self, q3):
        db = Database([f(q3, 1, 2), f(q3, 3, 4)])
        assert not cert_2(q3, db)

    def test_initial_delta_contains_solution_pairs(self, q3):
        db = Database([f(q3, 1, 2), f(q3, 2, 3)])
        initial = CertK(q3, 2)._initial_delta(db)
        assert frozenset({f(q3, 1, 2), f(q3, 2, 3)}) in initial
        # Once the fixpoint runs on this consistent database the empty set is
        # derived, so the final antichain collapses to {∅}.
        assert frozenset() in delta_k(q3, db, k=2)

    def test_self_solution_seeds_singleton(self, q3):
        db = Database([f(q3, 1, 1)])
        initial = CertK(q3, 2)._initial_delta(db)
        assert frozenset({f(q3, 1, 1)}) in initial
        assert cert_2(q3, db)

    def test_solution_within_a_block_is_not_a_k_set(self, q3):
        # R(1,1) and R(1,2): key-equal, so the pair cannot seed Δ; the block
        # still makes the query certain only through the inductive rule when
        # both choices lead to a solution, which is not the case here.
        db = Database([f(q3, 1, 1), f(q3, 1, 2)])
        assert not cert_2(q3, db)

    def test_result_object(self, q3):
        db = Database([f(q3, 1, 2), f(q3, 2, 3)])
        result = CertK(q3, 2).run(db)
        assert result.certain
        assert result.k == 2
        assert bool(result)
        assert result.iterations >= 1


class TestCertKInductiveRule:
    def test_block_with_all_alternatives_solving(self, q3):
        # Block {2 -> 3, 2 -> 1}: together with R(1,2) and R(3,1) every choice
        # yields a solution, so the query is certain and Cert_2 finds it.
        db = Database([f(q3, 1, 2), f(q3, 2, 3), f(q3, 2, 1), f(q3, 3, 1)])
        assert certain_bruteforce(q3, db)
        assert cert_2(q3, db)

    def test_not_certain_database_rejected(self, q3):
        db = Database([f(q3, 1, 2), f(q3, 1, 5), f(q3, 2, 3)])
        assert not certain_bruteforce(q3, db)
        assert not cert_2(q3, db)

    def test_chain_requiring_two_rounds(self, q3):
        # Two inconsistent blocks; every combination of choices satisfies q3.
        db = Database(
            [
                f(q3, 1, 2),
                f(q3, 1, 3),
                f(q3, 2, 4),
                f(q3, 2, 5),
                f(q3, 3, 4),
                f(q3, 3, 6),
                f(q3, 4, 1),
                f(q3, 5, 1),
                f(q3, 6, 1),
            ]
        )
        assert certain_bruteforce(q3, db)
        assert cert_2(q3, db)

    def test_under_approximation_never_overclaims(self, q3):
        for seed in range(10):
            rng = random.Random(seed)
            db = random_solution_database(q3, 4, 3, 4, rng)
            if cert_2(q3, db):
                assert certain_bruteforce(q3, db)

    def test_monotone_in_k(self, q3):
        for seed in range(6):
            rng = random.Random(100 + seed)
            db = random_solution_database(q3, 4, 2, 4, rng)
            if cert_k(q3, db, k=1):
                assert cert_k(q3, db, k=2)
            if cert_k(q3, db, k=2):
                assert cert_k(q3, db, k=3)


class TestTheorem61:
    """certain(q) = Cert_2(q) when key(A) ⊆ key(B) or shared vars ⊆ key(B)."""

    @pytest.mark.parametrize("query_text", ["R(x|y) R(y|z)", "R(x,x|u,v) R(x,y|u,x)"])
    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_with_bruteforce(self, query_text, seed):
        query = parse_query(query_text)
        assert query.easy_condition()
        rng = random.Random(seed)
        db = random_solution_database(query, 4, 3, 3, rng)
        if db.repair_count() > 4096:
            pytest.skip("workload unexpectedly large")
        assert cert_2(query, db) == certain_bruteforce(query, db)

    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_on_sparser_instances(self, seed):
        query = parse_query("R(x|y) R(y|z)")
        rng = random.Random(1000 + seed)
        db = random_solution_database(query, 3, 5, 6, rng)
        assert cert_2(query, db) == certain_bruteforce(query, db)


class TestTheorem61BeyondNaiveSizes:
    """``Cert_2`` against the SAT oracle on q3/q4 at 150-300 facts.

    Instances are built the way the benchmark builds them: a random core, one
    *escape* fact per block (its key with fresh values, so the all-escape
    repair falsifies the query) and, for a certain instance, a *gadget*:
    both atoms on fresh values, each alone in its block, so every repair
    satisfies the query.  The verdict is fixed by construction; Theorem 6.1
    makes ``Cert_2`` exact on both queries, so it must reach it too.  These
    sizes are far beyond :class:`NaiveCertK`.
    """

    SHAPES = {"q3": (80, 20, 50), "q4": (110, 20, 8)}

    def instance(self, query, shape, certain, rng):
        database = escaped_core(query, shape, rng)
        if certain:
            database.add_all(gadget(query))
        return database

    @pytest.mark.parametrize("name", ["q3", "q4"])
    @pytest.mark.parametrize("certain", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_cert2_matches_the_exact_oracle(self, name, certain, seed):
        query = paper_queries()[name]
        database = self.instance(query, self.SHAPES[name], certain, random.Random(seed))
        assert 150 <= len(database) <= 300
        assert max(block.size for block in database.blocks()) > 1
        assert certain_exact(query, database) is certain
        assert cert_2(query, database) is certain


class TestCertKEarlyExit:
    """``CertK`` runs block components smallest first and stops at the first
    certain one.

    The instances are a non-certain core (see
    :class:`TestTheorem61BeyondNaiveSizes`) with the gadget inserted at a
    random position.  The gadget is a block component of its own, two facts
    with one seed pair, and it derives the empty set after two insertions; a
    core component no larger and seen earlier (one block with its escape)
    may run first, at one insertion.  One worklist over every component's
    seeds would process over a hundred insertions on these instances before
    the empty set appears.
    """

    SHAPES = {"q3": (80, 20, 50), "q4": (110, 20, 8), "q5": (130, 30, 18), "q6": (130, 30, 18)}
    K = {"q3": 2, "q4": 2, "q5": 3, "q6": 3}

    @pytest.mark.parametrize("name", sorted(SHAPES))
    @pytest.mark.parametrize("seed", range(3))
    def test_certain_component_ends_the_run(self, name, seed):
        query, k = paper_queries()[name], self.K[name]
        rng = random.Random(seed)
        core = escaped_core(query, self.SHAPES[name], rng)
        assert not CertK(query, k).is_certain(core)
        facts = core.facts()
        at = rng.randrange(len(facts) + 1)
        facts[at:at] = gadget(query)
        result = CertK(query, k).run(Database(facts))
        assert result.certain
        assert result.iterations <= 3


class TestCertKMemo:
    """``CertK`` memoises each block component's outcome on the database's
    cached partition, and a write retires only the components it touches.

    The core is non-certain with ten block components (see
    :class:`TestCertKEarlyExit`), so a cold run visits every one of them.
    """

    def setup_method(self):
        self.query = paper_queries()["q4"]
        self.db = escaped_core(self.query, (110, 20, 8), random.Random(0))
        self.runner = CertK(self.query, 2)

    def fresh(self):
        return CertK(self.query, 2).run(Database(self.db.facts()))

    def test_a_second_run_without_a_write_processes_nothing(self):
        cold = self.runner.run(self.db)
        assert not cold.certain and cold.iterations > 0
        warm = self.runner.run(self.db)
        assert warm.iterations == 0
        assert not warm.certain
        assert warm.delta == cold.delta

    def test_a_write_reruns_only_its_component(self):
        cold = self.runner.run(self.db)
        graph = build_solution_graph(self.query, self.db)
        inside = next(fact for fact in self.db.facts() if graph.edges[self.db.id_of(fact)])
        width = self.query.schema.arity - self.query.schema.key_size
        values = inside.block_id()[1] + tuple(range(3 * FRESH, 3 * FRESH + width))
        self.db.add(Fact(self.query.schema, values))  # a fresh fact in a linked block
        after = self.runner.run(self.db)
        assert 0 < after.iterations < cold.iterations
        fresh = self.fresh()
        assert after.certain == fresh.certain
        assert after.delta == fresh.delta

    def test_the_gadget_toggles_the_verdict(self):
        self.runner.run(self.db)
        first, second = gadget(self.query)
        self.db.add_all((first, second))
        certain = self.runner.run(self.db)
        assert certain.certain and 0 < certain.iterations <= 2  # the gadget alone
        memoised = self.runner.run(self.db)
        assert memoised.certain and memoised.iterations == 0
        self.db.remove(second)
        after = self.runner.run(self.db)
        assert not after.certain
        assert after.delta == self.fresh().delta


class TestCertKResultAfterWrites:
    def test_delta_read_after_a_removal_describes_the_run(self):
        # The result names facts by database ids; an id keeps naming its
        # fact after the fact leaves, so a result read late is still the
        # antichain of the database it ran on.
        query = paper_queries()["q3"]
        a, b, c = (Fact(query.schema, values) for values in ((1, 2), (1, 5), (2, 3)))
        database = Database([a, b, c])
        result = CertK(query, 2).run(database)
        database.remove(a)
        database.add(Fact(query.schema, (7, 8)))
        assert not result.certain
        assert result.delta == {frozenset((a,))}
