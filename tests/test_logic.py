"""Unit tests for the propositional logic substrate (CNF, DPLL, encoding)."""

import random
import sys
import time
from itertools import combinations

import pytest

from repro import (
    CnfFormula,
    Database,
    DpllSolver,
    Fact,
    Literal,
    build_solution_graph,
    certain_bruteforce,
    is_satisfiable,
    paper_queries,
    parse_query,
)
from repro.db.fact_store import is_repair_of
from repro.db.generators import certain_and_uncertain_samples, random_solution_database
from repro.logic.cnf import (
    Clause,
    ensure_mixed_polarity,
    parse_dimacs_like,
    paper_example_formula,
    random_restricted_three_sat,
    random_three_sat,
    to_at_most_three_occurrences,
)
from repro.logic.dpll import brute_force_satisfiable
from repro.logic.encode import FalsifyingRepairEncoding, certain_via_sat, exists_falsifying_repair


class TestCnfModel:
    def test_literal_negation(self):
        literal = Literal("p", True)
        assert literal.negate() == Literal("p", False)
        assert str(literal) == "p"
        assert str(literal.negate()) == "¬p"

    def test_clause_satisfaction(self):
        clause = Clause((Literal("p"), Literal("q", False)))
        assert clause.is_satisfied({"p": True, "q": True})
        assert clause.is_satisfied({"p": False, "q": False})
        assert not clause.is_satisfied({"p": False, "q": True})

    def test_formula_satisfaction_and_variables(self):
        formula = parse_dimacs_like([[1, -2], [2, 3]])
        assert formula.variables() == ["x1", "x2", "x3"]
        assert formula.is_satisfied({"x1": True, "x2": True, "x3": False})
        assert not formula.is_satisfied({"x1": False, "x2": False, "x3": False})

    def test_occurrence_counts(self):
        formula = paper_example_formula()
        counts = formula.occurrence_counts()
        assert counts["s"] == (1, 2)
        assert counts["t"] == (1, 2)
        assert counts["u"] == (2, 1)

    def test_paper_formula_normal_form(self):
        formula = paper_example_formula()
        assert formula.is_three_cnf()
        assert formula.has_at_most_three_occurrences()
        assert formula.has_mixed_polarity()

    def test_str(self):
        formula = paper_example_formula()
        assert "∨" in str(formula) and "∧" in str(formula)


class TestNormalisation:
    def test_to_at_most_three_occurrences(self):
        rng = random.Random(0)
        formula = random_three_sat(4, 12, rng=rng)
        rewritten = to_at_most_three_occurrences(formula)
        assert rewritten.has_at_most_three_occurrences()
        assert is_satisfiable(formula) == is_satisfiable(rewritten)

    def test_normalisation_preserves_unsatisfiability(self):
        import itertools

        formula = CnfFormula()
        for signs in itertools.product([True, False], repeat=3):
            formula.add_clause(
                [Literal("a", signs[0]), Literal("b", signs[1]), Literal("c", signs[2])]
            )
        assert not is_satisfiable(formula)
        rewritten = ensure_mixed_polarity(to_at_most_three_occurrences(formula))
        assert rewritten.has_at_most_three_occurrences()
        assert rewritten.has_mixed_polarity()
        assert not is_satisfiable(rewritten)

    def test_ensure_mixed_polarity_removes_pure_literals(self):
        formula = CnfFormula()
        formula.add_clause([Literal("p"), Literal("q")])
        formula.add_clause([Literal("q", False), Literal("r")])
        normalised = ensure_mixed_polarity(formula)
        assert normalised.has_mixed_polarity()
        assert is_satisfiable(normalised)

    def test_random_restricted_three_sat_normal_form(self):
        formula = random_restricted_three_sat(6, 9, rng=random.Random(3))
        assert formula.has_at_most_three_occurrences()
        assert formula.has_mixed_polarity()


class TestDpll:
    def test_simple_satisfiable(self):
        formula = parse_dimacs_like([[1, 2], [-1, 2], [1, -2]])
        model = DpllSolver().solve_formula(formula)
        assert model is not None
        assert formula.is_satisfied(model)

    def test_simple_unsatisfiable(self):
        formula = parse_dimacs_like([[1], [-1]])
        assert DpllSolver().solve_formula(formula) is None

    def test_empty_formula_is_satisfiable(self):
        assert is_satisfiable(CnfFormula())

    def test_model_is_returned_complete(self):
        formula = parse_dimacs_like([[1, 2, 3]])
        model = DpllSolver().solve_formula(formula)
        assert set(model) == {"x1", "x2", "x3"}

    def test_tautological_clause_ignored(self):
        solver = DpllSolver()
        assert solver.solve_clauses([frozenset({1, -1})]) is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_truth_table(self, seed):
        rng = random.Random(seed)
        formula = random_three_sat(5, rng.randint(3, 16), rng=rng)
        assert is_satisfiable(formula) == brute_force_satisfiable(formula)

    def test_statistics_recorded(self):
        solver = DpllSolver()
        solver.solve_formula(parse_dimacs_like([[1, 2], [-1, 2], [1, -2], [-1, -2, 3]]))
        assert solver.statistics["propagations"] >= 0

    def test_empty_clause_is_unsatisfiable(self):
        assert DpllSolver().solve_clauses([frozenset()]) is None
        assert DpllSolver().solve_clauses([frozenset({1}), frozenset(), frozenset({2, 3})]) is None
        formula = CnfFormula([Clause(())])
        assert not is_satisfiable(formula)
        assert not brute_force_satisfiable(formula)
        formula.add_clause([Literal("p")])
        assert DpllSolver().solve_formula(formula) is None

    def test_model_assigns_every_variable_of_every_component(self):
        clauses = [frozenset({1, 2}), frozenset({-1}), frozenset({7, -9}), frozenset({4, -4})]
        model = DpllSolver().solve_clauses(clauses)
        assert set(model) == {1, 2, 4, 7, 9}
        assert satisfies(model, clauses)

    def test_three_fact_chain_past_the_recursion_limit(self):
        # Every block needs its own decision: 5000 of them, far past the
        # interpreter's recursion limit that a recursive DPLL runs into.
        clauses = block_chain_clauses(5000, 3)
        solver = DpllSolver()
        started = time.perf_counter()
        model = solver.solve_clauses(clauses)
        assert time.perf_counter() - started < 5.0
        assert model is not None and satisfies(model, clauses)
        assert solver.statistics["decisions"] > sys.getrecursionlimit()

    def test_two_fact_chain_is_decided_by_propagation(self):
        clauses = block_chain_clauses(5000, 2)
        solver = DpllSolver()
        started = time.perf_counter()
        model = solver.solve_clauses(clauses)
        assert time.perf_counter() - started < 5.0
        assert model is not None and satisfies(model, clauses)
        assert solver.statistics["decisions"] == 1
        assert solver.statistics["propagations"] == 2 * 5000 - 1


class TestFalsifyingRepairEncoding:
    def setup_method(self):
        self.q3 = parse_query("R(x|y) R(y|z)")
        self.schema = self.q3.schema

    def fact(self, *values):
        return Fact(self.schema, values)

    def test_certain_database_has_no_falsifying_repair(self):
        # Block {1} -> both facts point to 2; block {2} -> both point to 3 or 1.
        database = Database(
            [self.fact(1, 2), self.fact(2, 3), self.fact(2, 1), self.fact(3, 1)]
        )
        assert not exists_falsifying_repair(self.q3, database)
        assert certain_via_sat(self.q3, database)

    def test_not_certain_database(self):
        database = Database([self.fact(1, 2), self.fact(1, 5), self.fact(2, 3)])
        assert exists_falsifying_repair(self.q3, database)
        assert not certain_via_sat(self.q3, database)

    def test_falsifying_repair_witness_is_a_repair_and_falsifies(self):
        database = Database([self.fact(1, 2), self.fact(1, 5), self.fact(2, 3)])
        cases = [(self.q3, database)]
        for name in ("q1", "q2", "q3", "q4", "q5", "q6"):
            query = paper_queries()[name]
            _, not_certain = certain_and_uncertain_samples(
                query, lambda db, q=query: certain_bruteforce(q, db), count_each=3, seed=40
            )
            assert len(not_certain) == 3, name
            cases += [(query, db) for db in not_certain]
        for query, db in cases:
            witness = FalsifyingRepairEncoding(query, db).find_falsifying_repair()
            assert witness is not None
            assert len(witness) == db.block_count()
            assert is_repair_of(list(witness), db)
            assert not query.satisfied_by(witness)

    def test_certain_database_returns_no_witness(self):
        database = Database(
            [self.fact(1, 2), self.fact(2, 3), self.fact(2, 1), self.fact(3, 1)]
        )
        assert FalsifyingRepairEncoding(self.q3, database).find_falsifying_repair() is None

    def test_self_solution_fact_excluded(self):
        database = Database([self.fact(1, 1)])
        # The single repair contains R(1,1) which satisfies q(a a).
        assert certain_via_sat(self.q3, database)

    def test_self_solution_with_alternative(self):
        database = Database([self.fact(1, 1), self.fact(1, 3)])
        assert not certain_via_sat(self.q3, database)

    def test_empty_database_not_certain(self):
        assert not certain_via_sat(self.q3, Database())

    def test_encoding_sizes(self):
        database = Database([self.fact(1, 2), self.fact(1, 5), self.fact(2, 3)])
        encoding = FalsifyingRepairEncoding(self.q3, database)
        assert encoding.variable_count() == 3
        assert encoding.clause_count() >= 3


def satisfies(model, clauses):
    return all(any(model[abs(literal)] == (literal > 0) for literal in clause) for clause in clauses)


def block_chain_clauses(blocks, width):
    """Exactly-one blocks of ``width`` variables; variable ``j`` of block ``i``
    excludes variable ``j`` of block ``i + 1``."""

    def variable(block, position):
        return block * width + position + 1

    clauses = []
    for block in range(blocks):
        members = [variable(block, position) for position in range(width)]
        clauses.append(frozenset(members))
        clauses += [frozenset((-first, -second)) for first, second in combinations(members, 2)]
        if block + 1 < blocks:
            clauses += [
                frozenset((-variable(block, position), -variable(block + 1, position)))
                for position in range(width)
            ]
    return clauses


def seed_scan_clauses(query, database):
    """The seed encoder: every fact pair tested with ``matches_unordered``.

    Kept here only, as the differential oracle of the graph-driven encoder.
    """
    facts = database.facts()
    index = {fact: position + 1 for position, fact in enumerate(facts)}
    clauses = []
    for block in database.blocks():
        variables = [index[fact] for fact in block.facts]
        clauses.append(frozenset(variables))
        clauses += [frozenset((-first, -second)) for first, second in combinations(variables, 2)]
    clauses += [frozenset((-index[fact],)) for fact in facts if query.is_self_solution(fact)]
    for position, first in enumerate(facts):
        for second in facts[position + 1:]:
            if not first.key_equal(second) and query.matches_unordered(first, second):
                clauses.append(frozenset((-index[first], -index[second])))
    return clauses


class TestGraphDrivenEncoding:
    QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7")

    @staticmethod
    def assert_same_clauses(query, database):
        encoded = FalsifyingRepairEncoding(query, database).clauses
        expected = seed_scan_clauses(query, database)
        assert len(encoded) == len(set(encoded)) == len(expected)
        assert set(encoded) == set(expected)

    @pytest.mark.parametrize("name", QUERIES)
    def test_matches_the_seed_all_pairs_scan(self, name):
        query = paper_queries()[name]
        for seed in range(6):
            rng = random.Random(seed)
            database = random_solution_database(
                query, rng.randint(4, 14), rng.randint(0, 8), rng.randint(3, 6), rng
            )
            self.assert_same_clauses(query, database)

    @pytest.mark.parametrize("name", QUERIES)
    def test_reads_the_delta_maintained_graph(self, name):
        query = paper_queries()[name]
        rng = random.Random(17)
        database = random_solution_database(query, 12, 4, 4, rng)
        spare = random_solution_database(query, 12, 4, 4, random.Random(18)).facts()
        build_solution_graph(query, database)
        for step in range(24):
            if step % 3 == 2 and len(database):
                database.remove(rng.choice(database.facts()))
            elif spare:
                database.add(spare.pop())
            self.assert_same_clauses(query, database)
        counters = database.derived_cache_stats()["solution_graph"]
        assert counters["maintained_deltas"] > 0
        assert counters["rebuilds"] == 0
