"""Unit tests for solution graphs, quasi-cliques and q-connected components."""

import pytest

from repro import (
    Database,
    Fact,
    build_solution_graph,
    certain_bruteforce,
    parse_query,
    q_connected_block_components,
)
from repro.core.solutions import block_partition, greedy_falsifying_choice
from repro.db.generators import solution_triangle


@pytest.fixture
def q3():
    return parse_query("R(x|y) R(y|z)")


@pytest.fixture
def q6():
    return parse_query("R(x|y,z) R(z|x,y)")


def fact(schema, *values):
    return Fact(schema, values)


class TestSolutionGraph:
    """The cached graph runs on fact ids; tests naming facts read its Fact view."""

    def test_edges_are_symmetric(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 2, 3)])
        graph = build_solution_graph(q3, db).view()
        assert graph.has_edge(fact(schema, 1, 2), fact(schema, 2, 3))
        assert graph.has_edge(fact(schema, 2, 3), fact(schema, 1, 2))
        assert graph.edge_count() == 1

    def test_directed_solutions_recorded(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 2, 3)])
        graph = build_solution_graph(q3, db).view()
        assert graph.has_directed(fact(schema, 1, 2), fact(schema, 2, 3))
        assert not graph.has_directed(fact(schema, 2, 3), fact(schema, 1, 2))

    def test_self_loops(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 1), fact(schema, 2, 3)])
        graph = build_solution_graph(q3, db).view()
        assert fact(schema, 1, 1) in graph.self_loops
        assert fact(schema, 2, 3) not in graph.self_loops

    def test_components_include_isolated_facts(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 2, 3), fact(schema, 9, 8)])
        graph = build_solution_graph(q3, db)
        components = graph.components()
        assert len(components) == 2
        assert sorted(len(component) for component in components) == [1, 2]

    def test_neighbours(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 2, 3), fact(schema, 2, 4)])
        graph = build_solution_graph(q3, db).view()
        assert graph.neighbours(fact(schema, 1, 2)) == {fact(schema, 2, 3), fact(schema, 2, 4)}


class TestQuasiCliques:
    def test_triangle_is_quasi_clique(self, q6):
        facts = solution_triangle(q6, ("a", "b", "c"))
        db = Database(facts)
        graph = build_solution_graph(q6, db)
        components = graph.components()
        assert len(components) == 1
        assert graph.is_quasi_clique(components[0])
        assert graph.is_clique_database()

    def test_path_is_not_quasi_clique(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 2, 3), fact(schema, 3, 4)])
        graph = build_solution_graph(q3, db)
        component = max(graph.components(), key=len)
        assert not graph.is_quasi_clique(component)
        assert not graph.is_clique_database()

    def test_clique_of_non_clique_component_is_singleton(self, q3):
        schema = q3.schema
        a = fact(schema, 1, 2)
        db = Database([a, fact(schema, 2, 3), fact(schema, 3, 4)])
        graph = build_solution_graph(q3, db).view()
        assert graph.clique_of(a) == frozenset({a})

    def test_clique_of_quasi_clique_component_is_component(self, q6):
        facts = solution_triangle(q6, ("a", "b", "c"))
        graph = build_solution_graph(q6, Database(facts)).view()
        assert graph.clique_of(facts[0]) == frozenset(facts)

    def test_clique_of_unknown_fact(self, q6):
        facts = solution_triangle(q6, ("a", "b", "c"))
        graph = build_solution_graph(q6, Database(facts)).view()
        with pytest.raises(KeyError):
            graph.clique_of(fact(q6.schema, "zz", "zz", "zz"))

    def test_key_equal_facts_do_not_need_an_edge(self, q6):
        # Two facts of the same block never need to be joined for the
        # component to be a quasi-clique.
        schema = q6.schema
        facts = solution_triangle(q6, ("a", "b", "c"))
        extra = fact(schema, "a", "zz", "ww")  # same block as the first fact
        db = Database(facts + [extra])
        graph = build_solution_graph(q6, db)
        # extra is isolated, so the components are the triangle and {extra}.
        assert len(graph.components()) == 2
        assert graph.is_clique_database()


class TestQConnectedComponents:
    def test_partition_covers_database(self, q3):
        schema = q3.schema
        db = Database(
            [fact(schema, 1, 2), fact(schema, 2, 3), fact(schema, 5, 6), fact(schema, 6, 7)]
        )
        components = q_connected_block_components(q3, db)
        assert sum(len(component) for component in components) == len(db)
        assert len(components) == 2

    def test_blocks_are_never_split(self, q3):
        schema = q3.schema
        db = Database(
            [fact(schema, 1, 2), fact(schema, 1, 9), fact(schema, 2, 3), fact(schema, 9, 4)]
        )
        components = q_connected_block_components(q3, db)
        # The block with key 1 connects to both the key-2 and key-9 blocks, so
        # everything is one component.
        assert len(components) == 1

    def test_isolated_blocks_form_their_own_components(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 7, 8)])
        components = q_connected_block_components(q3, db)
        assert len(components) == 2


class TestGreedyFalsifyingChoice:
    """The greedy of the Theorem 6.1 path, on hand-built one-component databases."""

    @staticmethod
    def component_and_choice(query, db):
        [component] = block_partition(query, db).components
        return component, component.falsifying_choice(db, build_solution_graph(query, db))

    def test_fewest_options_first_with_forward_checking(self, q3):
        schema = q3.schema
        # R(1|2) and R(2|3) form a solution.  The key-2 block has one option,
        # so it goes first and strikes R(1|2) from the key-1 block.
        db = Database([fact(schema, 1, 2), fact(schema, 1, 9), fact(schema, 2, 3)])
        _, choice = self.component_and_choice(q3, db)
        chosen = [db.fact(fid) for fid in choice]
        assert chosen == [fact(schema, 1, 9), fact(schema, 2, 3)]  # in the component's block order
        assert not q3.satisfied_by(chosen)

    def test_a_block_takes_its_option_with_the_fewest_solutions(self, q3):
        schema = q3.schema
        # Both blocks have two options.  R(1|2) forms a solution with both
        # facts of the key-2 block, R(1|9) with none: taking R(1|2), the
        # smaller id, would empty the key-2 block.  The tie between R(2|3)
        # and R(2|8) (one solution each) goes to the smaller id.
        db = Database(
            [fact(schema, 1, 2), fact(schema, 1, 9), fact(schema, 2, 3), fact(schema, 2, 8)]
        )
        _, choice = self.component_and_choice(q3, db)
        assert [db.fact(fid) for fid in choice] == [fact(schema, 1, 9), fact(schema, 2, 3)]

    def test_forward_checking_that_empties_a_block_fails_the_attempt(self, q3):
        schema = q3.schema
        # R(1|2) and R(2|1) form a solution and each is alone in its block:
        # the first choice strikes the other block's only option.
        db = Database([fact(schema, 1, 2), fact(schema, 2, 1)])
        component, choice = self.component_and_choice(q3, db)
        assert choice is None and component.choice == ()
        assert certain_bruteforce(q3, db)

    def test_self_loops_are_no_options(self, q3):
        schema = q3.schema
        component, choice = self.component_and_choice(q3, Database([fact(schema, 1, 1)]))
        assert choice is None
        db = Database([fact(schema, 1, 1), fact(schema, 1, 2)])
        _, choice = self.component_and_choice(q3, db)
        assert [db.fact(fid) for fid in choice] == [fact(schema, 1, 2)]

    def test_no_choice_does_not_mean_no_falsifying_repair(self):
        # Nothing backtracks, so the greedy can miss a falsifying repair
        # (here on q5, outside the Theorem 6.1 class); the engine then asks
        # Cert_2, which the theorem makes complete on that class.
        q5 = parse_query("R(x|y,x) R(y|x,u)")
        rows = [(2, 0, 2), (2, 0, 1), (2, 2, 1), (0, 1, 0), (0, 2, 0), (1, 0, 0), (1, 0, 2)]
        db = Database(fact(q5.schema, *row) for row in rows)
        _, choice = self.component_and_choice(q5, db)
        assert choice is None
        assert not certain_bruteforce(q5, db)

    def test_the_outcome_is_memoised_until_a_write_retires_the_record(self, q3):
        schema = q3.schema
        db = Database([fact(schema, 1, 2), fact(schema, 1, 9), fact(schema, 2, 3)])
        component, choice = self.component_and_choice(q3, db)
        assert component.choice == choice
        graph = build_solution_graph(q3, db)
        assert greedy_falsifying_choice(db, graph, component.blocks) == choice
        db.add(fact(schema, 9, 1))  # joins the key-9 block to the component
        assert component not in block_partition(q3, db).components
        fresh, _ = self.component_and_choice(q3, db)
        assert fresh is not component
        db.add(fact(schema, 5, 6))  # a component of its own: the record stays
        assert fresh in block_partition(q3, db).components
        assert fresh.choice is not None
