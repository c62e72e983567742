"""Property-based tests (hypothesis) on the core invariants of the paper."""

import itertools
import random

from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro import (
    Atom,
    CertainEngine,
    CertK,
    Database,
    Fact,
    NaiveCertK,
    RelationSchema,
    TwoAtomQuery,
    build_solution_graph,
    build_solution_graph_naive,
    cert_2,
    cert_k,
    certain_bruteforce,
    certain_by_matching,
    certain_exact,
    classify,
    paper_queries,
    parse_query,
)
from repro.core.branching import branching_triples, g_elements
from repro.core.classification import Method
from repro.core.solutions import (
    SolutionGraph,
    block_partition,
    greedy_falsifying_choice,
    solution_graph_from_pairs,
)
from repro.db.fact_store import is_repair_of
from repro.db.repairs import iter_repairs
from repro.graphs.components import UnionFind
from repro.logic.cnf import parse_dimacs_like, random_restricted_three_sat, random_three_sat
from repro.logic.dpll import DpllSolver, brute_force_satisfiable, is_satisfiable

Q3 = parse_query("R(x|y) R(y|z)")
Q2 = parse_query("R(x,u|x,y) R(u,y|x,z)")
Q6 = parse_query("R(x|y,z) R(z|x,y)")

_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def q3_database(values):
    return Database(Fact(Q3.schema, (a, b)) for a, b in values)


def q2_database(values):
    return Database(Fact(Q2.schema, tuple(row)) for row in values)


def q6_database(values):
    return Database(Fact(Q6.schema, tuple(row)) for row in values)


q3_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=8
)
q2_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=0,
    max_size=7,
)
q6_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    min_size=0,
    max_size=7,
)


#: Every query with arity 2 or 3 and variables from {x, y, z}, all key sizes
#: tried, with its classification method.
SMALL_QUERIES = [
    (query, classify(query).method)
    for arity in (2, 3)
    for key_size in range(arity + 1)
    for query in (
        TwoAtomQuery(
            Atom(RelationSchema("R", arity, key_size), first),
            Atom(RelationSchema("R", arity, key_size), second),
        )
        for first in itertools.product("xyz", repeat=arity)
        for second in itertools.product("xyz", repeat=arity)
    )
]
#: The small queries of the ``Cert_k ∨ ¬matching`` classes (Theorems 8.1 and 10.5).
MATCHING_CLASS_QUERIES = [
    query for query, method in SMALL_QUERIES
    if method in (Method.NO_TRIPATH, Method.TRIANGLE_ONLY)
]
#: The small queries of the Theorem 6.1 class.
THEOREM_61_QUERIES = [
    query for query, method in SMALL_QUERIES if method == Method.SYNTACTIC_EASY
]

REPAIR_LABEL = "matching repair (Proposition 10.3)"
GREEDY_LABEL = "greedy falsifying repair"


@st.composite
def paper_query_databases(draw, names=("q1", "q2", "q3", "q4", "q5", "q6")):
    """One of ``names`` (q1..q6 by default) with a small database over its schema."""
    query = paper_queries()[draw(st.sampled_from(names))]
    values = st.tuples(*[st.integers(0, 2)] * query.schema.arity)
    rows = draw(st.lists(values, min_size=0, max_size=7))
    return query, Database(Fact(query.schema, row) for row in rows)


@st.composite
def shifted_halves(draw):
    """One of q1..q6, two small fact lists over its schema (the second on values
    shifted by 10, so the two share no value) and an interleaving of both."""
    query = paper_queries()[draw(st.sampled_from(("q1", "q2", "q3", "q4", "q5", "q6")))]
    values = st.tuples(*[st.integers(0, 2)] * query.schema.arity)
    left = [Fact(query.schema, row) for row in draw(st.lists(values, max_size=6))]
    right = [
        Fact(query.schema, tuple(value + 10 for value in row))
        for row in draw(st.lists(values, max_size=6))
    ]
    return query, left, right, draw(st.permutations(left + right))


@st.composite
def paper_query_streams(draw, names=("q1", "q2", "q3", "q4", "q5", "q6")):
    """A ``paper_query_databases`` draw plus a sequence of single-fact writes.

    A write is ``("add", row)`` or ``("remove", index)``; a removal takes the
    fact at ``index`` (modulo the size) of the database at that point, so it
    always hits when the database is not empty.
    """
    query, db = draw(paper_query_databases(names))
    values = st.tuples(*[st.integers(0, 2)] * query.schema.arity)
    return query, db, draw(writes_over(values))


def writes_over(values):
    """Single-fact writes: ``("add", row)`` or ``("remove", index)`` (see above)."""
    write = st.one_of(
        st.tuples(st.just("add"), values), st.tuples(st.just("remove"), st.integers(0, 20))
    )
    return st.lists(write, min_size=1, max_size=6)


def apply_write(db, schema, write):
    kind, operand = write
    if kind == "add":
        db.add(Fact(schema, operand))
    elif len(db):
        db.remove(db.facts()[operand % len(db)])


@st.composite
def random_query_databases(draw):
    """A random two-atom query and a small database over {0, 1, 2}.

    Arity 1-4 and key size 0..arity; both atoms draw their variables from
    {x, y, z, u}, so repeats within an atom, repeats across the atoms and
    atoms sharing no variable all occur.
    """
    arity = draw(st.integers(1, 4))
    schema = RelationSchema("R", arity, draw(st.integers(0, arity)))
    variables = st.lists(st.sampled_from("xyzu"), min_size=arity, max_size=arity)
    query = TwoAtomQuery(
        Atom(schema, tuple(draw(variables))), Atom(schema, tuple(draw(variables)))
    )
    rows = draw(st.lists(st.tuples(*[st.integers(0, 2)] * arity), max_size=6))
    return query, Database(Fact(schema, row) for row in rows)


@st.composite
def random_query_streams(draw):
    """A ``random_query_databases`` draw plus single-fact writes."""
    query, db = draw(random_query_databases())
    return query, db, draw(writes_over(st.tuples(*[st.integers(0, 2)] * query.schema.arity)))


@st.composite
def solution_streams(draw, queries):
    """One of ``queries``, a database of random solutions ``μ(A), μ(B)`` over
    {0, 1, 2} plus a few random facts, and single-fact writes.

    Seeding with solutions makes the solution graph dense enough that
    saturating matchings on non-clique databases, whose repair may satisfy
    the query, turn up often.
    """
    query = draw(st.sampled_from(queries))
    assignment = st.fixed_dictionaries(
        {name: st.integers(0, 2) for name in sorted(query.variables)}
    )
    rows = st.one_of(
        st.tuples(*[st.integers(0, 2)] * query.schema.arity),
        st.builds(lambda atom, mu: atom.instantiate(mu).values,
                  st.sampled_from((query.atom_a, query.atom_b)), assignment),
    )
    facts = [
        atom.instantiate(mu)
        for mu in draw(st.lists(assignment, max_size=5))
        for atom in (query.atom_a, query.atom_b)
    ]
    facts += [Fact(query.schema, row) for row in draw(st.lists(rows, max_size=3))]
    return query, Database(facts), draw(writes_over(rows))


@st.composite
def fact_graphs(draw):
    """Arbitrary undirected graphs over facts of ``R(x|y)``: random edges (some
    inside a block, some self-loops), optionally every edge among a drawn
    subset; plus one more drawn subset of the facts, repeats allowed."""
    schema = RelationSchema("R", 2, 1)
    rows = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                         max_size=9, unique=True))
    facts = [Fact(schema, row) for row in rows]
    fact_lists = st.lists(st.sampled_from(facts), max_size=len(facts))
    dense = draw(fact_lists)
    pairs = draw(st.lists(st.tuples(st.sampled_from(facts), st.sampled_from(facts)), max_size=15))
    pairs += list(itertools.combinations(dense, 2))
    return solution_graph_from_pairs(facts, pairs), dense, draw(fact_lists)


@st.composite
def component_cnfs(draw):
    """Clauses over disjoint variable ranges, with unit and maybe empty clauses."""
    clauses = []
    offset = 0
    for _ in range(draw(st.integers(1, 3))):
        width = draw(st.integers(1, 4))
        literals = st.builds(
            lambda variable, positive: variable if positive else -variable,
            st.integers(offset + 1, offset + width),
            st.booleans(),
        )
        clauses += draw(st.lists(st.frozensets(literals, min_size=1, max_size=3), max_size=7))
        offset += width
    if draw(st.integers(0, 3)) == 0:
        clauses.insert(draw(st.integers(0, len(clauses))), frozenset())
    return clauses


class TestRepairInvariants:
    @_SETTINGS
    @given(q3_rows)
    def test_repair_count_matches_enumeration(self, rows):
        db = q3_database(rows)
        repairs = list(iter_repairs(db))
        assert len(repairs) == db.repair_count()

    @_SETTINGS
    @given(q3_rows)
    def test_every_repair_is_consistent_and_maximal(self, rows):
        db = q3_database(rows)
        for repair in iter_repairs(db):
            assert is_repair_of(list(repair), db)
            assert Database(repair).is_consistent()

    @_SETTINGS
    @given(q3_rows)
    def test_blocks_partition_facts(self, rows):
        db = q3_database(rows)
        total = sum(block.size for block in db.blocks())
        assert total == len(db)
        keys = [block.key_tuple for block in db.blocks()]
        assert len(keys) == len(set(keys))


class TestSolutionGraphInvariants:
    @_SETTINGS
    @given(q2_rows)
    def test_edges_are_symmetric_and_match_semantics(self, rows):
        db = q2_database(rows)
        graph = build_solution_graph(Q2, db).view()
        for fact in db:
            for other in graph.neighbours(fact):
                assert fact in graph.neighbours(other)
                assert Q2.matches_unordered(fact, other)

    @_SETTINGS
    @given(q6_rows)
    def test_components_partition_facts(self, rows):
        db = q6_database(rows)
        graph = build_solution_graph(Q6, db).view()
        facts_in_components = [fact for component in graph.components() for fact in component]
        assert sorted(map(str, facts_in_components)) == sorted(map(str, db.facts()))

    @settings(_SETTINGS, max_examples=200)
    @given(fact_graphs())
    def test_quasi_clique_matches_the_pairwise_definition(self, case):
        # Section 10.1, pair by pair: every two members that are not
        # key-equal are joined by an edge.
        graph, dense, subset = case

        def pairwise(members):
            return all(
                first.key_equal(second) or graph.has_edge(first, second)
                for first, second in itertools.combinations(members, 2)
            )

        # The same graph on the fact ids of a database, as the matching reads it.
        db = Database(graph.facts)
        id_of = db.id_of
        id_graph = SolutionGraph.from_pairs(
            Q3, db, ((id_of(first), id_of(second)) for first, second in graph.directed)
        )
        components = graph.components()
        for members in components + [dense, subset]:
            assert graph.is_quasi_clique(members) == pairwise(members)
            assert graph.is_quasi_clique(set(members)) == pairwise(members)
            assert id_graph.is_quasi_clique(list(map(id_of, members))) == pairwise(members)
        assert graph.is_clique_database() == all(map(pairwise, components))
        assert id_graph.is_clique_database() == graph.is_clique_database()

    @_SETTINGS
    @given(q2_rows)
    def test_g_is_subset_of_centre_key(self, rows):
        db = q2_database(rows)
        for triple in branching_triples(Q2, db.facts()):
            assert g_elements(triple) <= triple.centre.key_elements


class TestAlgorithmSoundness:
    @_SETTINGS
    @given(q3_rows)
    def test_cert2_exact_for_theorem_61_query(self, rows):
        db = q3_database(rows)
        assert cert_2(Q3, db) == certain_bruteforce(Q3, db)

    @_SETTINGS
    @given(q2_rows)
    def test_certk_is_an_under_approximation(self, rows):
        db = q2_database(rows)
        if cert_k(Q2, db, k=2):
            assert certain_bruteforce(Q2, db)

    @_SETTINGS
    @given(q6_rows)
    def test_negated_matching_is_an_under_approximation(self, rows):
        db = q6_database(rows)
        if certain_by_matching(Q6, db):
            assert certain_bruteforce(Q6, db)

    @_SETTINGS
    @given(q6_rows)
    def test_combined_algorithm_exact_for_q6(self, rows):
        # Theorem 10.4/10.5: q6 is a clique query, Cert_k ∨ ¬matching is exact.
        db = q6_database(rows)
        combined = cert_k(Q6, db, k=2) or certain_by_matching(Q6, db)
        assert combined == certain_bruteforce(Q6, db)

    @settings(_SETTINGS, max_examples=90)
    @given(paper_query_databases())
    def test_sat_oracle_matches_bruteforce(self, case):
        query, db = case
        assert certain_exact(query, db) == certain_bruteforce(query, db)

    @settings(_SETTINGS, max_examples=300)
    @given(random_query_databases())
    def test_engine_matches_bruteforce_on_random_queries(self, case):
        # Beyond q1..q7: classification and dispatch on arbitrary query
        # shapes, Cert_2 and Cert_k ∨ ¬matching included.
        query, db = case
        assert CertainEngine(query).is_certain(db) == certain_bruteforce(query, db)

    @settings(_SETTINGS, max_examples=300)
    @given(
        st.one_of(
            paper_query_streams(("q5", "q6")),
            solution_streams([paper_queries()["q5"], Q6]),
            solution_streams(MATCHING_CLASS_QUERIES),
        )
    )
    def test_matching_repair_is_sound_after_every_write(self, case):
        # One engine and one database across the stream, so the repair is
        # read off a matching the delta maintainer has kept through adds and
        # removes.  A repair answer must be a falsifying repair of the live
        # database, and asking for the witness must not change the answer.
        query, db, writes = case
        engine = CertainEngine(query)

        def check():
            report = engine.explain(db, want_witness=True)
            assert report.certain == certain_bruteforce(query, db)
            if report.algorithm == REPAIR_LABEL:
                assert is_repair_of(list(report.witness), db)
                assert not query.satisfied_by(report.witness)
            plain = engine.explain(db)
            assert (plain.certain, plain.algorithm, plain.exact) == (
                report.certain, report.algorithm, report.exact
            )
            assert plain.witness is None

        check()
        for write in writes:
            apply_write(db, query.schema, write)
            check()


    @settings(_SETTINGS, max_examples=300)
    @given(
        st.one_of(
            paper_query_streams(("q3", "q4")),
            solution_streams([paper_queries()["q3"], paper_queries()["q4"]]),
            solution_streams(THEOREM_61_QUERIES),
        )
    )
    def test_theorem_61_answers_are_exact_after_every_write(self, case):
        # The greedy's memoised choices live on the maintained partition's
        # records, so one engine and one database run across the stream.  A
        # greedy negative's witness is checked on Facts, not on the graph the
        # greedy read, and asking for it must not change the answer.
        query, db, writes = case
        engine = CertainEngine(query)

        def check():
            report = engine.explain(db, want_witness=True)
            assert report.exact
            assert report.certain == certain_bruteforce(query, db)
            if report.algorithm == GREEDY_LABEL:
                witness = list(report.witness)
                assert is_repair_of(witness, db)
                assert not query.satisfied_by(witness)
            plain = engine.explain(db)
            assert (plain.certain, plain.algorithm, plain.exact) == (
                report.certain, report.algorithm, report.exact
            )
            assert plain.witness is None

        check()
        for write in writes:
            apply_write(db, query.schema, write)
            check()


class TestCertKMatchesNaive:
    """The worklist ``Cert_k`` against the seed enumeration, on generated inputs."""

    @staticmethod
    def assert_same(runner, oracle, db):
        indexed, naive = runner.run(db), oracle.run(db)
        assert indexed.certain == naive.certain
        assert indexed.delta == naive.delta

    @settings(_SETTINGS, max_examples=60)
    @given(paper_query_databases(), st.sampled_from((1, 2, 3)))
    def test_worklist_matches_naive(self, case, k):
        query, db = case
        self.assert_same(CertK(query, k), NaiveCertK(query, k), db)

    @_SETTINGS
    @given(paper_query_streams(), st.sampled_from((1, 2, 3)))
    def test_reused_runner_matches_naive_after_every_write(self, case, k):
        # One runner and one database across the whole stream: per-run ids or
        # search state leaking into the next run, or a stale cached graph,
        # would show up as a mismatch at some step.
        query, db, writes = case
        runner, oracle = CertK(query, k), NaiveCertK(query, k)
        self.assert_same(runner, oracle, db)
        for write in writes:
            apply_write(db, query.schema, write)
            self.assert_same(runner, oracle, db)

    @settings(_SETTINGS, max_examples=60)
    @given(shifted_halves(), st.sampled_from((1, 2, 3)))
    def test_disjoint_union_is_certain_iff_a_part_is(self, case, k):
        # The atoms of q1..q6 share a variable, so no solution and no block
        # spans the two value ranges: the union's block components are those
        # of the parts (Proposition 10.6), and CertK runs them one at a time.
        query, left, right, union = case
        runner = CertK(query, k)
        assert runner.is_certain(Database(union)) == (
            runner.is_certain(Database(left)) or runner.is_certain(Database(right))
        )
        self.assert_same(runner, NaiveCertK(query, k), Database(union))

    @settings(_SETTINGS, max_examples=300)
    @given(random_query_streams())
    def test_random_queries_match_naive_after_every_write(self, case):
        # Beyond q1..q7: the compiled probes that build and maintain the
        # cached graph, and the Cert_k seeds read off it, on any query shape.
        query, db, writes = case
        runners = [(CertK(query, k), NaiveCertK(query, k)) for k in (1, 2)]

        def check():
            cached = build_solution_graph(query, db).view()
            naive = build_solution_graph_naive(query, db)
            assert cached.directed == naive.directed
            assert cached.self_loops == naive.self_loops
            assert {fact: adjacent for fact, adjacent in cached.edges.items() if adjacent} == {
                fact: adjacent for fact, adjacent in naive.edges.items() if adjacent
            }
            for runner, oracle in runners:
                self.assert_same(runner, oracle, db)

        check()
        for write in writes:
            apply_write(db, query.schema, write)
            check()


def naive_partition(query, db):
    """Block components from scratch: a union-find over the naive graph."""
    union_find = UnionFind(block.block_id for block in db.blocks())
    for fact, adjacent in build_solution_graph_naive(query, db).edges.items():
        for other in adjacent:
            union_find.union(fact.block_id(), other.block_id())
    partition = {}
    for block in db.blocks():
        partition.setdefault(union_find.find(block.block_id), set()).add(block.block_id)
    return {frozenset(blocks) for blocks in partition.values()}


class PartitionUnderWrites(RuleBasedStateMachine):
    """One database of q1..q7 under single writes, write bursts and reads.

    A burst of 2-5 writes reaches the cached structures as one batch on the
    next read, including a fact added and removed within it.  Every read
    holds the maintained block partition to a from-scratch build, each live
    record's memoised greedy choice to a fresh run, the memoised ``CertK`` to
    ``NaiveCertK`` (verdict and antichain), and the engine to brute force.
    """

    LIMIT = 10  # facts; keeps NaiveCertK at k = 3 and brute force cheap

    @initialize(name=st.sampled_from(sorted(paper_queries())), data=st.data())
    def start(self, name, data):
        self.query = paper_queries()[name]
        self.values = st.tuples(*[st.integers(0, 2)] * self.query.schema.arity)
        rows = data.draw(st.lists(self.values, max_size=self.LIMIT))
        self.db = Database(Fact(self.query.schema, row) for row in rows)
        self.engine = CertainEngine(self.query)
        self.runners = [(CertK(self.query, k), NaiveCertK(self.query, k)) for k in (1, 2, 3)]
        self.read()

    def write(self, data, op):
        if op == "remove":
            if len(self.db):
                facts = self.db.facts()
                self.db.remove(facts[data.draw(st.integers(0, len(facts) - 1))])
            return
        if len(self.db) >= self.LIMIT:
            return
        fact = Fact(self.query.schema, data.draw(self.values))
        self.db.add(fact)
        if op == "flash":  # added and removed again before any read
            self.db.remove(fact)

    @rule(data=st.data())
    def add(self, data):
        self.write(data, "add")

    @precondition(lambda self: len(self.db) > 0)
    @rule(data=st.data())
    def remove(self, data):
        self.write(data, "remove")

    @rule(
        data=st.data(),
        ops=st.lists(st.sampled_from(("add", "remove", "flash")), min_size=2, max_size=5),
    )
    def burst(self, data, ops):
        for op in ops:
            self.write(data, op)

    @rule()
    def read(self):
        query, db = self.query, self.db
        partition = block_partition(query, db)
        table = db.block_table  # the partition names blocks by index
        assert {
            frozenset(table[key].block_id for key in c.blocks) for c in partition.components
        } == naive_partition(query, db)
        assert set(partition.component_of) == {block.index for block in db.blocks()}
        graph = build_solution_graph(query, db)
        for component in partition.components:
            assert all(partition.component_of[key] is component for key in component.blocks)
            assert component.size == sum(len(table[key]) for key in component.blocks)
            # A choice memoised before the last writes must still be the
            # greedy's; a record without one gets one for the next read.
            fresh = greedy_falsifying_choice(db, graph, component.blocks) or ()
            if component.choice is not None:
                assert component.choice == fresh
            assert component.falsifying_choice(db, graph) == (fresh or None)
        for runner, oracle in self.runners:
            memoised, naive = runner.run(db), oracle.run(db)
            assert memoised.certain == naive.certain
            assert memoised.delta == naive.delta
        if db.repair_count() <= 4096:
            assert self.engine.explain(db).certain == certain_bruteforce(query, db)
        stats = db.derived_cache_stats()["q_block_components"]
        assert stats["rebuilds"] == 0
        assert stats["unsupported_deltas"] == 0


TestPartitionUnderWrites = PartitionUnderWrites.TestCase
TestPartitionUnderWrites.settings = settings(
    _SETTINGS, max_examples=60, stateful_step_count=20
)


def substrate(db):
    """Everything the id substrate shows through the public Database API."""
    return {
        "facts": db.facts(),
        "ids": [db.id_of(fact) for fact in db.facts()],
        "blocks": [(block.block_id, block.facts) for block in db.blocks()],
        "block_of": [db.block_of(fact).block_id for fact in db.facts()],
        "len": len(db),
        "version": db.version,
        "describe": db.describe_dict(),
    }


class IdSubstrateUnderWrites(RuleBasedStateMachine):
    """The dense fact ids of one q1..q7 database under add, remove, re-add and
    duplicate add, held to a plain ordered dict of facts after every step.

    The database starts either from a rows ingest or fact by fact (the two
    are compared first), over int and str values with duplicate rows.  Every
    surviving fact keeps its id, ids follow insertion order, and
    ``fact(id_of(f)) == f``.
    """

    @initialize(name=st.sampled_from(sorted(paper_queries())), data=st.data(), bulk=st.booleans())
    def start(self, name, data, bulk):
        self.schema = paper_queries()[name].schema
        values = st.one_of(st.integers(0, 2), st.sampled_from(("0", "1", "a")))
        self.rows = st.tuples(*[values] * self.schema.arity)
        rows = data.draw(st.lists(self.rows, max_size=12))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
        single = Database(Fact(self.schema, row) for row in rows)
        ingested = Database()
        assert ingested.add_rows(self.schema, rows) == len(single)
        assert substrate(ingested) == substrate(single)
        self.db = ingested if bulk else single
        self.model = {}
        self.blocks = {}
        self.version = 0
        self.ids = {}
        for row in rows:
            self.model_add(Fact(self.schema, row))

    def model_add(self, fact):
        if fact in self.model:
            return False
        self.model[fact] = None
        self.blocks.setdefault(fact.block_id(), []).append(fact)
        self.version += 1
        fid = self.db.id_of(fact)
        assert fid is not None and all(fid > other for other in self.ids.values())
        self.ids[fact] = fid
        return True

    def model_remove(self, fact):
        del self.model[fact], self.ids[fact]
        members = self.blocks[fact.block_id()]
        members.remove(fact)
        if not members:
            del self.blocks[fact.block_id()]
        self.version += 1

    @rule(data=st.data())
    def add(self, data):
        fact = Fact(self.schema, data.draw(self.rows))
        expected = fact not in self.model
        assert self.db.add(fact) == expected
        self.model_add(fact)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        victim = data.draw(st.sampled_from(list(self.model)))
        assert self.db.remove(victim)
        self.model_remove(victim)

    @rule(data=st.data())
    def remove_absent(self, data):
        fact = Fact(self.schema, data.draw(self.rows))
        if fact not in self.model:
            assert not self.db.remove(fact)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def re_add(self, data):
        fact = data.draw(st.sampled_from(list(self.model)))
        old = self.ids[fact]
        assert self.db.remove(fact)
        self.model_remove(fact)
        assert self.db.add(Fact(self.schema, fact.values))
        self.model_add(fact)
        assert self.ids[fact] > old

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def duplicate_add(self, data):
        fact = data.draw(st.sampled_from(list(self.model)))
        assert not self.db.add(Fact(self.schema, fact.values))
        assert not self.db.add(fact)

    @invariant()
    def matches_the_model(self):
        db, facts = self.db, list(self.model)
        assert db.facts() == facts
        assert len(db) == len(facts)
        assert db.version == self.version
        assert [(block.block_id, list(block.facts)) for block in db.blocks()] == list(
            self.blocks.items()
        )
        for fact in facts:
            assert fact in db
            assert db.block_of(fact).block_id == fact.block_id()
            assert db.id_of(fact) == self.ids[fact]
            assert db.fact(db.id_of(fact)) == fact
        ids = [self.ids[fact] for fact in facts]
        assert ids == sorted(ids)
        sizes = [len(members) for members in self.blocks.values()]
        repairs = 1
        for size in sizes:
            repairs *= size
        assert db.describe_dict() == {
            "facts": len(facts),
            "blocks": len(sizes),
            "max_block": max(sizes, default=0),
            "repairs": repairs,
            "version": self.version,
        }


TestIdSubstrateUnderWrites = IdSubstrateUnderWrites.TestCase
TestIdSubstrateUnderWrites.settings = settings(
    _SETTINGS, max_examples=60, stateful_step_count=25
)


class TestSatSubstrate:
    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_dpll_agrees_with_truth_table(self, seed):
        rng = random.Random(seed)
        variable_count = rng.randint(3, 5)
        clause_count = rng.randint(1, 10)
        formula = random_three_sat(variable_count, clause_count, rng=rng)
        assert is_satisfiable(formula) == brute_force_satisfiable(formula)

    @settings(_SETTINGS, max_examples=60)
    @given(component_cnfs())
    def test_dpll_solves_components_units_and_empty_clauses(self, clauses):
        solver = DpllSolver()
        model = solver.solve_clauses(clauses)
        formula = parse_dimacs_like([sorted(clause) for clause in clauses])
        assert (model is not None) == brute_force_satisfiable(formula)
        if model is not None:
            assert set(model) == {abs(literal) for clause in clauses for literal in clause}
            for clause in clauses:
                assert any(model[abs(literal)] == (literal > 0) for literal in clause)
        # The model depends on the clause set only, not on the clause order.
        assert DpllSolver().solve_clauses(clauses[::-1]) == model

    @_SETTINGS
    @given(st.integers(0, 10_000))
    def test_restricted_generator_normal_form(self, seed):
        rng = random.Random(seed)
        formula = random_restricted_three_sat(rng.randint(3, 6), rng.randint(1, 8), rng=rng)
        assert formula.has_at_most_three_occurrences()
        assert formula.has_mixed_polarity()
