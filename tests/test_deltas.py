"""Delta-pipeline correctness: incremental maintenance vs from-scratch oracles.

The PR 2 refactor replaced invalidate-on-mutation caching with delta-driven
maintenance of the solution graph (which also seeds ``Cert_k``), plus a
process-sharded parallel batch mode.  This suite pins every incremental
path to the from-scratch construction it replaces:

* randomised add/remove interleavings — the delta-maintained solution graph
  must equal the naive rebuild after every mutation, and the incremental
  :class:`CertK` must agree (answer and antichain) with :class:`NaiveCertK`,
  across all paper query classes;
* batched replay — arbitrary mutation bursts (including add-then-remove and
  remove-then-re-add of the same fact) absorbed in one read;
* fallback behaviour — backlog overflow and maintainerless entries rebuild;
* the memoised component/clique decompositions under deltas, and the
  maintained block partition under write bursts;
* the sharded parallel batch engine vs the sequential stream;
* the ``Cert_k`` seeds of a SQL-primed solution graph vs the naive seeding;
* the :class:`RepairOracle` vs per-repair ``satisfied_by`` scans.
"""

import pickle
import random

import pytest

from repro import (
    ADD,
    REMOVE,
    CertainEngine,
    CertK,
    Database,
    Fact,
    FactDelta,
    MatchingAlgorithm,
    NaiveCertK,
    RepairOracle,
    SqliteFactStore,
    block_component_maintainer,
    build_solution_graph,
    build_solution_graph_naive,
    exact_support,
    matching_cache_key,
    parse_query,
    q_connected_block_components,
    sample_repair,
)
from repro.graphs.bipartite import (
    BipartiteGraph,
    IncrementalMatching,
    build_bipartite_graph,
    maximum_matching,
    verify_matching,
)
from repro.graphs.components import UnionFind
from repro.core.certain import EngineReport
from repro.core.solutions import SolutionGraph, solution_graph_cache_key
from repro.db.generators import random_fact, random_solution_database

QUERY_CLASSES = {
    "trivial": "R(x|y) R(x|z)",
    "hard_syntactic": "R(x,u|x,v) R(v,y|u,y)",   # q1
    "hard_fork": "R(x,u|x,y) R(u,y|x,z)",        # q2
    "easy_cert2": "R(x|y) R(y|z)",               # q3
    "easy_cert2_rep": "R(x,x|u,v) R(x,y|u,x)",   # q4
    "twoway_no_tripath": "R(x|y,x) R(y|x,u)",    # q5
    "twoway_triangle": "R(x|y,z) R(z|x,y)",      # q6
}

QUERIES = {name: parse_query(text) for name, text in QUERY_CLASSES.items()}


def assert_graphs_equal(left, right):
    # The cached graph runs on fact ids: compare through its Fact view.
    left, right = (g.view() if isinstance(g, SolutionGraph) else g for g in (left, right))
    assert set(left.facts) == set(right.facts)
    assert left.directed == right.directed
    assert left.self_loops == right.self_loops
    left_edges = {fact: adjacent for fact, adjacent in left.edges.items() if adjacent}
    right_edges = {fact: adjacent for fact, adjacent in right.edges.items() if adjacent}
    assert left_edges == right_edges


def mutate(database, rng, query, live):
    """One random mutation; returns the applied (op, fact)."""
    if live and rng.random() < 0.45:
        victim = rng.choice(live)
        database.remove(victim)
        live.remove(victim)
        return (REMOVE, victim)
    fact = random_fact(query.schema, 5, rng)
    if database.add(fact):
        live.append(fact)
        return (ADD, fact)
    return (None, fact)


class TestFactDeltaEvents:
    def test_mutations_emit_typed_deltas(self):
        query = QUERIES["easy_cert2"]
        # Filled while nothing listens: no event is built, but every write
        # still bumps the version.
        database = Database([Fact(query.schema, (7, 8)), Fact(query.schema, (8, 9))])
        assert database.version == 2
        seen = []
        database.add_delta_listener(seen.append)  # registered after construction
        first = Fact(query.schema, (1, 2))
        assert database.add(first)
        assert not database.add(first)  # duplicate: no event
        assert database.remove(first)
        assert seen == [FactDelta(ADD, first), FactDelta(REMOVE, first)]
        assert database.version == 4
        database.remove_delta_listener(seen.append)
        # Caches created before a write receive it with no listener left: a
        # maintained entry replays the delta, a maintainerless one is dropped.
        replayed = []

        def maintain(db, value, delta):
            replayed.append(delta)
            return value

        assert database.cached("maintained", lambda db: "built", maintainer=maintain) == "built"
        assert database.cached("plain", lambda db: db.version) == 4
        database.add(first)
        assert len(seen) == 2
        assert database.version == 5
        assert database.cached("maintained", lambda db: "rebuilt", maintainer=maintain) == "built"
        assert replayed == [FactDelta(ADD, first)]
        assert database.cached("plain", lambda db: db.version) == 5
        assert database.derived_cache_stats(by="key")["plain"]["invalidations"] == 1

    def test_invalid_delta_op_rejected(self):
        with pytest.raises(ValueError):
            FactDelta("replace", Fact(QUERIES["easy_cert2"].schema, (1, 2)))

    def test_listeners_not_pickled(self):
        database = Database([Fact(QUERIES["easy_cert2"].schema, (1, 2))])
        database.add_delta_listener(lambda delta: None)
        restored = pickle.loads(pickle.dumps(database))
        assert restored == database
        assert restored._delta_listeners == []


class TestSolutionGraphDeltas:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_interleaved_mutations_match_rebuild(self, name):
        query = QUERIES[name]
        rng = random.Random(hash(name) % 1000)
        database = random_solution_database(query, 5, 4, 4, rng)
        live = database.facts()
        graph = build_solution_graph(query, database)
        for step in range(40):
            mutate(database, rng, query, live)
            maintained = build_solution_graph(query, database)
            assert maintained is graph  # the same live object, spliced in place
            assert_graphs_equal(maintained, build_solution_graph_naive(query, database))

    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_batched_replay_matches_rebuild(self, name):
        query = QUERIES[name]
        rng = random.Random(1000 + hash(name) % 1000)
        database = random_solution_database(query, 5, 4, 4, rng)
        live = database.facts()
        build_solution_graph(query, database)  # warm the cache
        for _ in range(6):
            for _ in range(rng.randint(2, 10)):  # burst without reads
                mutate(database, rng, query, live)
            assert_graphs_equal(
                build_solution_graph(query, database),
                build_solution_graph_naive(query, database),
            )

    def test_add_then_remove_and_readd_bursts(self):
        query = QUERIES["easy_cert2"]
        schema = query.schema
        database = Database([Fact(schema, (1, 2)), Fact(schema, (2, 3))])
        graph = build_solution_graph(query, database)
        assert graph.edge_count() == 1
        transient = Fact(schema, (3, 1))
        # add + remove in one burst: net no-op.
        database.add(transient)
        database.remove(transient)
        assert_graphs_equal(
            build_solution_graph(query, database),
            build_solution_graph_naive(query, database),
        )
        # remove + re-add of an existing fact in one burst: net no-op too.
        anchor = Fact(schema, (2, 3))
        database.remove(anchor)
        database.add(anchor)
        assert_graphs_equal(
            build_solution_graph(query, database),
            build_solution_graph_naive(query, database),
        )

    def test_backlog_overflow_falls_back_to_rebuild(self):
        query = QUERIES["easy_cert2"]
        rng = random.Random(7)
        database = random_solution_database(query, 5, 4, 4, rng)
        database.delta_backlog_limit = 3
        live = database.facts()
        before = build_solution_graph(query, database)
        for _ in range(10):
            mutate(database, rng, query, live)
        after = build_solution_graph(query, database)
        assert after is not before  # backlog exceeded: rebuilt from scratch
        assert_graphs_equal(after, build_solution_graph_naive(query, database))

    def test_components_and_cliques_follow_deltas(self):
        query = QUERIES["twoway_triangle"]
        rng = random.Random(13)
        database = random_solution_database(query, 6, 3, 4, rng)
        live = database.facts()
        for _ in range(25):
            mutate(database, rng, query, live)
            graph = build_solution_graph(query, database)
            fresh = build_solution_graph_naive(query, database)
            assert sorted(map(len, graph.components())) == sorted(
                map(len, fresh.components())
            )
            assert graph.view().clique_map() == {
                fact: fresh.clique_of(fact) for fact in fresh.facts
            }

    def test_q_block_components_match_naive_oracle_under_mutation(self):
        """Randomised interleavings pinned to a from-scratch decomposition."""

        def naive_partition(query, database):
            graph = build_solution_graph_naive(query, database)
            union_find = UnionFind(block.block_id for block in database.blocks())
            for fact, adjacent in graph.edges.items():
                for other in adjacent:
                    union_find.union(fact.block_id(), other.block_id())
            partition = {}
            for block in database.blocks():
                partition.setdefault(union_find.find(block.block_id), set()).update(
                    block.facts
                )
            return {frozenset(members) for members in partition.values()}

        for name in sorted(QUERY_CLASSES):
            query = QUERIES[name]
            rng = random.Random(2000 + hash(name) % 1000)
            database = random_solution_database(query, 5, 4, 4, rng)
            live = database.facts()
            q_connected_block_components(query, database)  # warm the cache
            for _ in range(30):
                mutate(database, rng, query, live)
                components = q_connected_block_components(query, database)
                assert {
                    frozenset(component.facts()) for component in components
                } == naive_partition(query, database)

    def test_q_block_partition_is_maintained_in_place(self):
        query = QUERIES["easy_cert2"]
        schema = query.schema
        database = Database([Fact(schema, (1, 2)), Fact(schema, (7, 8))])
        maintainer = block_component_maintainer(query)
        q_connected_block_components(query, database)
        key = ("q_block_components", query)
        state = database.cached(key, maintainer.build)
        database.add(Fact(schema, (2, 3)))  # joins (1,2)'s component
        assert len(q_connected_block_components(query, database)) == 2
        # The add was absorbed in place: same state.
        assert database.cached(key, maintainer.build) is state
        database.remove(Fact(schema, (2, 3)))
        assert sorted(
            len(component) for component in q_connected_block_components(query, database)
        ) == [1, 1]
        # The removal was absorbed in place too: the split re-derives only
        # the touched component, and nothing was rebuilt.
        assert database.cached(key, maintainer.build) is state
        stats = database.derived_cache_stats()["q_block_components"]
        assert stats["rebuilds"] == 0
        assert stats["unsupported_deltas"] == 0

    def test_a_burst_that_merges_and_splits_keeps_every_block(self):
        # q3 joins R(x, y) to R(y, z).  The blocks c1, c2, c3 form one
        # component and a another.  One burst adds R(a, c1), which merges a
        # with c1 and c2, and removes R(c2, c3), which splits c3 off: the
        # record the merge reaches must be re-derived whole, or c3 is lost.
        query = QUERIES["easy_cert2"]
        schema = query.schema

        def r(key, value):
            return Fact(schema, (key, value))

        database = Database(
            [r("a", "q"), r("c1", "c2"), r("c2", "d"), r("c2", "c3"), r("c3", "e")]
        )
        assert len(q_connected_block_components(query, database)) == 2  # warm
        database.add(r("a", "c1"))
        database.remove(r("c2", "c3"))
        components = q_connected_block_components(query, database)
        assert {frozenset(component.facts()) for component in components} == {
            frozenset({r("a", "q"), r("a", "c1"), r("c1", "c2"), r("c2", "d")}),
            frozenset({r("c3", "e")}),
        }
        stats = database.derived_cache_stats()["q_block_components"]
        assert stats["rebuilds"] == 0
        assert stats["unsupported_deltas"] == 0

    def test_q_block_components_cached_and_refreshed(self):
        query = QUERIES["easy_cert2"]
        schema = query.schema
        database = Database([Fact(schema, (1, 2)), Fact(schema, (2, 3)), Fact(schema, (7, 8))])
        first = q_connected_block_components(query, database)
        assert first is q_connected_block_components(query, database)  # cache hit
        assert sorted(len(component) for component in first) == [1, 2]
        database.add(Fact(schema, (8, 1)))  # joins everything into one component
        refreshed = q_connected_block_components(query, database)
        assert len(refreshed) == 1
        assert len(refreshed[0]) == 4


class TestCertKSeedDeltas:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_incremental_certk_matches_naive_under_mutation(self, name, k):
        query = QUERIES[name]
        rng = random.Random(42 + k)
        database = random_solution_database(query, 4, 3, 4, rng)
        live = database.facts()
        runner = CertK(query, k)
        oracle = NaiveCertK(query, k)
        runner.run(database)  # warm graph + seed caches
        for step in range(15):
            mutate(database, rng, query, live)
            incremental = runner.run(database)
            naive = oracle.run(database)
            assert incremental.certain == naive.certain
            assert incremental.delta == naive.delta

    def test_singleton_dominates_pairs_across_a_burst(self):
        # q3 = R(x|y) R(y|z): (5,5) alone satisfies the query (self-solution).
        # Within one unread burst, the replay of `add (4,5)` splices the edge
        # {(4,5), (5,5)} before (5,5)'s own delta makes it a self-loop — the
        # seeding must then skip the pair the singleton dominates.
        query = QUERIES["easy_cert2"]
        schema = query.schema
        database = Database([Fact(schema, (1, 2)), Fact(schema, (9, 1))])
        runner = CertK(query, 2)
        runner.run(database)  # warm the graph cache
        database.add(Fact(schema, (4, 5)))
        database.add(Fact(schema, (5, 5)))
        seeds = runner._initial_delta(database)  # replays the burst
        assert frozenset((Fact(schema, (5, 5)),)) in seeds
        assert frozenset((Fact(schema, (4, 5)), Fact(schema, (5, 5)))) not in seeds
        assert seeds == NaiveCertK(query, 2)._initial_delta(database)
        result = runner.run(database)
        oracle = NaiveCertK(query, 2).run(database)
        assert result.certain == oracle.certain
        assert result.delta == oracle.delta


class TestParallelBatchEngine:
    @pytest.mark.parametrize("name", ["trivial", "easy_cert2", "twoway_triangle"])
    def test_sharded_matches_sequential(self, name):
        query = QUERIES[name]
        engine = CertainEngine(query)
        databases = [
            random_solution_database(query, 5, 4, 4, random.Random(seed))
            for seed in range(8)
        ]
        sequential = engine.explain_many(databases)
        sharded = engine.explain_many(databases, workers=2)
        assert [report.certain for report in sharded] == [
            report.certain for report in sequential
        ]
        assert [report.algorithm for report in sharded] == [
            report.algorithm for report in sequential
        ]
        assert all(isinstance(report, EngineReport) for report in sharded)
        assert engine.is_certain_many(databases, workers=2) == [
            report.certain for report in sequential
        ]

    def test_degenerate_worker_counts_stay_sequential(self):
        query = QUERIES["easy_cert2"]
        engine = CertainEngine(query)
        databases = [
            random_solution_database(query, 4, 3, 4, random.Random(seed))
            for seed in range(3)
        ]
        expected = [report.certain for report in engine.explain_many(databases)]
        for workers in (None, 0, 1):
            assert [
                report.certain for report in engine.explain_many(databases, workers=workers)
            ] == expected
        # A single database never pays for a pool.
        assert [
            report.certain
            for report in engine.explain_many(databases[:1], workers=4)
        ] == expected[:1]

    def test_chunking_preserves_input_order(self):
        query = QUERIES["easy_cert2"]
        engine = CertainEngine(query)
        databases = [
            random_solution_database(query, 4, 3, 4, random.Random(seed))
            for seed in range(7)
        ]
        sequential = [report.certain for report in engine.explain_many(databases)]
        sharded = engine.explain_many(databases, workers=2, chunk_size=2)
        assert [report.certain for report in sharded] == sequential


class TestSqliteSeedPushdown:
    @pytest.mark.parametrize("name", ["easy_cert2", "twoway_no_tripath", "twoway_triangle"])
    def test_sql_seed_antichain_matches_in_memory(self, name):
        # The SQL self-join primes the solution graph; Cert_k seeds off it.
        query = QUERIES[name]
        database = random_solution_database(query, 7, 4, 4, random.Random(5))
        with SqliteFactStore(query.schema) as store:
            store.load_database(database)
            rehydrated = store.to_indexed_database(query)
        for k in (1, 2):
            seeds = CertK(query, k)._initial_delta(rehydrated)
            assert seeds == NaiveCertK(query, k)._initial_delta(database)
        counters = rehydrated.derived_cache_stats()["solution_graph"]
        assert counters["builds"] == 1 and counters["rebuilds"] == 0  # the primed graph

    def test_primed_database_resumes_from_deltas(self):
        query = QUERIES["easy_cert2"]
        database = random_solution_database(query, 7, 4, 4, random.Random(9))
        with SqliteFactStore(query.schema) as store:
            store.load_database(database)
            rehydrated = store.to_indexed_database(query)
        primed_graph = build_solution_graph(query, rehydrated)
        rehydrated.add(Fact(query.schema, (51, 52)))
        assert build_solution_graph(query, rehydrated) is primed_graph  # delta applied
        assert_graphs_equal(primed_graph, build_solution_graph_naive(query, rehydrated))
        result = CertK(query, 2).run(rehydrated)
        oracle = NaiveCertK(query, 2).run(rehydrated)
        assert result.certain == oracle.certain
        assert result.delta == oracle.delta

    def test_indexed_mode_creates_key_index(self):
        query = QUERIES["easy_cert2"]
        with SqliteFactStore(query.schema) as store:
            rows = store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()
            assert any("idx_facts_R_key" in name for (name,) in rows)
        with SqliteFactStore(query.schema, indexed=False) as store:
            rows = store.connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'index'"
            ).fetchall()
            assert not any("idx_facts_R_key" in name for (name,) in rows)


class TestRepairOracle:
    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_oracle_matches_satisfied_by(self, name):
        query = QUERIES[name]
        rng = random.Random(21)
        database = random_solution_database(query, 5, 4, 4, rng)
        oracle = RepairOracle(query, database)
        for _ in range(60):
            repair = sample_repair(database, rng)
            assert oracle.satisfied(repair) == query.satisfied_by(repair)

    def test_exact_support_matches_scan_based_computation(self):
        from repro.db.repairs import iter_repairs

        query = QUERIES["easy_cert2"]
        database = random_solution_database(query, 4, 3, 3, random.Random(2))
        repairs = list(iter_repairs(database))
        expected = sum(
            1 for repair in repairs if query.satisfied_by(repair)
        ) / len(repairs)
        assert exact_support(query, database) == expected


class TestSeedAntichainUnit:
    """The minimal seed antichain, as ``CertK._initial_delta`` reads it off the graph."""

    def test_pairs_dominated_by_singletons(self):
        # q3 = R(x|y) R(y|z): a = (1,1) is a self-solution; q(b a) and
        # q(b2 a) hold, so {a} dominates both pairs through a; q(c b) seeds.
        query = QUERIES["easy_cert2"]
        schema = query.schema
        a, b, b2, c = (Fact(schema, values) for values in ((1, 1), (0, 1), (2, 1), (3, 0)))
        database = Database([a, b, b2, c])
        graph = build_solution_graph(query, database).view()
        assert graph.has_edge(a, b) and graph.has_edge(a, b2)
        seeds = CertK(query, 2)._initial_delta(database)
        assert seeds == {frozenset((a,)), frozenset((b, c))}
        assert CertK(query, 1)._initial_delta(database) == {frozenset((a,))}
        database.remove(a)  # the singleton leaves with its fact
        assert CertK(query, 2)._initial_delta(database) == {frozenset((b, c))}
        for k in (1, 2):
            assert CertK(query, k)._initial_delta(database) == NaiveCertK(
                query, k
            )._initial_delta(database)

    def test_key_equal_and_self_pairs_filtered(self):
        # R(x|y,z) R(x|z,y): (1,2,3) and (1,3,2) form a key-equal solution
        # pair (no seed); (1,2,2) is a self-solution, seeded as a singleton
        # and never as the pair {(1,2,2), (1,2,2)}.
        query = parse_query("R(x|y,z) R(x|z,y)")
        schema = query.schema
        a, sibling, loop = (Fact(schema, values) for values in ((1, 2, 3), (1, 3, 2), (1, 2, 2)))
        database = Database([a, sibling])
        assert build_solution_graph(query, database).view().has_edge(a, sibling)
        assert CertK(query, 2)._initial_delta(database) == set()
        database.add(loop)
        assert build_solution_graph(query, database).view().has_directed(loop, loop)
        assert CertK(query, 2)._initial_delta(database) == {frozenset((loop,))}
        assert CertK(query, 2)._initial_delta(database) == NaiveCertK(
            query, 2
        )._initial_delta(database)


class TestGraphCacheKeyCompatibility:
    def test_cache_keys_are_stable_tuples(self):
        query = QUERIES["easy_cert2"]
        assert solution_graph_cache_key(query) == ("solution_graph", query)


def assert_bipartite_equal(left, right):
    assert set(left.left_vertices) == set(right.left_vertices)
    assert set(left.right_vertices) == set(right.right_vertices)

    def edges(graph):
        return {
            (vertex, adjacent)
            for vertex in graph.left_vertices
            for adjacent in graph.neighbours(vertex)
        }

    assert edges(left) == edges(right)


class TestIncrementalMatchingUnit:
    """Adversarial single-update cases pinned to cold Hopcroft-Karp."""

    @staticmethod
    def _path_graph(length):
        """Lefts L0..Ln-1, rights R0..Rn-1, edges (Li, Ri) and (Li, Ri-1)."""
        lefts = [f"L{i}" for i in range(length)]
        rights = [f"R{i}" for i in range(length)]
        edges = [(lefts[i], rights[i]) for i in range(length)]
        edges += [(lefts[i], rights[i - 1]) for i in range(1, length)]
        return build_bipartite_graph(lefts, rights, edges), lefts, rights

    def test_long_augmenting_path_from_warm_start(self):
        graph, lefts, rights = self._path_graph(30)
        # Warm-start from the maximal-but-not-maximum matching Li -> Ri-1,
        # whose only augmenting path alternates through all 60 vertices.
        warm = {lefts[i]: rights[i - 1] for i in range(1, 30)}
        matching = IncrementalMatching(graph, warm)
        assert matching.repair() == 1  # one augmentation, length 59
        assert matching.size() == 30
        matching.self_check(deep=True)

    def test_delete_the_matched_edge(self):
        graph, lefts, rights = self._path_graph(12)
        matching = IncrementalMatching(graph)
        matching.repair()
        assert matching.size() == 12
        victim = matching.match_left[lefts[5]]
        matching.remove_edge(lefts[5], victim)
        assert matching.needs_repair
        matching.repair()
        matching.self_check(deep=True)
        # Oracle: cold Hopcroft-Karp on the mutated graph.
        assert matching.size() == len(maximum_matching(graph))

    def test_new_edge_rematches_both_matched_endpoints(self):
        graph = build_bipartite_graph(["A", "B"], ["X", "Y"], [("A", "X"), ("B", "X")])
        matching = IncrementalMatching(graph, {"B": "X"})
        matching.add_edge("B", "Y")
        # The augmenting path A - X - B - Y rematches B away from X.
        assert matching.repair() >= 1
        assert matching.size() == 2
        matching.self_check(deep=True)

    def test_maximality_preserving_updates_skip_repair(self):
        graph = build_bipartite_graph(["A"], ["X", "Y"], [("A", "X"), ("A", "Y")])
        matching = IncrementalMatching(graph)
        matching.repair()
        assert not matching.needs_repair
        matching.add_left("B")  # isolated left: no augmenting path
        matching.add_right("Z")  # isolated right: no augmenting path
        unmatched = "Y" if matching.match_left["A"] == "X" else "X"
        matching.remove_edge("A", unmatched)  # unmatched edge: maximum unchanged
        assert not matching.needs_repair
        assert matching.repair() == 0
        assert matching.size() == 1

    def test_vertex_removal_unmatches_and_repairs(self):
        graph = build_bipartite_graph(
            ["A", "B"], ["X", "Y"], [("A", "X"), ("A", "Y"), ("B", "X")]
        )
        matching = IncrementalMatching(graph)
        matching.repair()
        assert matching.size() == 2
        # Drop B's only right; B becomes unmatchable, A keeps a partner.
        matching.remove_edge("A", "X")
        matching.remove_edge("B", "X")
        matching.remove_right("X")
        matching.repair()
        matching.self_check(deep=True)
        assert matching.size() == 1
        assert matching.match_left == {"A": "Y"}

    def test_self_check_detects_corruption(self):
        graph = build_bipartite_graph(["A"], ["X"], [("A", "X")])
        matching = IncrementalMatching(graph)
        matching.repair()
        matching.match_left["A"] = "BOGUS"
        with pytest.raises(AssertionError):
            matching.self_check()

    def test_randomised_update_stream_matches_cold_oracle(self):
        rng = random.Random(77)
        lefts = [f"L{i}" for i in range(8)]
        rights = [f"R{i}" for i in range(8)]
        graph = BipartiteGraph()
        for vertex in lefts:
            graph.add_left(vertex)
        for vertex in rights:
            graph.add_right(vertex)
        matching = IncrementalMatching(graph)
        edges = set()
        for step in range(250):
            if edges and rng.random() < 0.45:
                edge = rng.choice(sorted(edges))
                edges.discard(edge)
                matching.remove_edge(*edge)
            else:
                edge = (rng.choice(lefts), rng.choice(rights))
                edges.add(edge)
                matching.add_edge(*edge)
            matching.repair()
            matching.self_check(deep=False)
            oracle = maximum_matching(
                build_bipartite_graph(lefts, rights, sorted(edges))
            )
            assert matching.size() == len(oracle)
        matching.self_check(deep=True)


class TestMatchingDeltas:
    """The delta-maintained matching(q) state vs from-scratch construction."""

    @staticmethod
    def _cold(query, database):
        """A from-scratch matching(q) run: naive graph, cold Hopcroft-Karp."""
        return MatchingAlgorithm(query).run(
            database, graph=build_solution_graph_naive(query, database)
        )

    def _assert_matches_cold(self, runner, database):
        result = runner.run(database)
        cold = self._cold(runner.query, database)
        assert result.has_saturating_matching == cold.has_saturating_matching
        assert len(result.matching) == len(cold.matching)
        assert verify_matching(result.bipartite_graph, result.matching)
        assert_bipartite_equal(result.bipartite_graph, cold.bipartite_graph)
        return result

    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_interleaved_mutations_match_cold_run(self, name):
        query = QUERIES[name]
        runner = MatchingAlgorithm(query)
        runner.self_check = True  # deep: size-pinned to cold Hopcroft-Karp
        rng = random.Random(hash(name) % 1000 + 1)
        database = random_solution_database(query, 5, 4, 4, rng)
        live = database.facts()
        state = runner.state(database)
        for step in range(40):
            mutate(database, rng, query, live)
            self._assert_matches_cold(runner, database)
            assert runner.state(database) is state  # live view, spliced in place

    @pytest.mark.parametrize("name", sorted(QUERY_CLASSES))
    def test_batched_replay_matches_cold_run(self, name):
        query = QUERIES[name]
        runner = MatchingAlgorithm(query)
        runner.self_check = True
        rng = random.Random(hash(name) % 1000 + 2)
        database = random_solution_database(query, 5, 4, 4, rng)
        live = database.facts()
        runner.run(database)
        for burst in range(8):
            for _ in range(5):
                mutate(database, rng, query, live)
            if live:
                # Adversarial replay orders within one burst: remove then
                # re-add one fact, and add then remove a fresh one.
                fact = rng.choice(live)
                database.remove(fact)
                database.add(fact)
            fresh = random_fact(query.schema, 5, rng)
            if database.add(fresh):
                database.remove(fresh)
            self._assert_matches_cold(runner, database)

    def test_counters_prove_the_hot_path_never_rebuilds(self):
        query = QUERIES["easy_cert2"]
        runner = MatchingAlgorithm(query)
        rng = random.Random(5)
        database = random_solution_database(query, 5, 4, 4, rng)
        live = database.facts()
        runner.run(database)
        applied = 0
        for _ in range(25):
            op, _fact = mutate(database, rng, query, live)
            if op is not None:
                applied += 1
            runner.run(database)
        stats = database.derived_cache_stats()["bipartite_matching"]
        assert stats["builds"] == 1
        assert stats["rebuilds"] == 0
        assert stats["unsupported_deltas"] == 0
        assert stats["maintained_deltas"] == applied

    def test_backlog_overflow_counts_eviction_then_rebuild(self):
        query = QUERIES["easy_cert2"]
        runner = MatchingAlgorithm(query)
        database = Database([Fact(query.schema, (1, 2))])
        database.delta_backlog_limit = 3
        runner.run(database)
        for value in range(10, 16):
            database.add(Fact(query.schema, (value, value + 1)))
        runner.run(database)
        stats = database.derived_cache_stats()["bipartite_matching"]
        assert stats["backlog_evictions"] >= 1
        assert stats["rebuilds"] == 1
        assert stats["builds"] == 1

    def test_quasi_clique_flip_via_add_and_remove(self):
        query = QUERIES["easy_cert2"]  # q3: R(x|y) R(y|z)
        runner = MatchingAlgorithm(query)
        runner.self_check = True
        pair = [Fact(query.schema, (1, 2)), Fact(query.schema, (2, 3))]
        database = Database(pair)
        result = self._assert_matches_cold(runner, database)
        # {(1,2), (2,3)} is a connected pair: a quasi-clique, one right vertex.
        assert set(result.bipartite_graph.right_vertices) == {frozenset(pair)}
        assert not result.has_saturating_matching  # 2 blocks share 1 clique

    	# Extending the path breaks quasi-cliqueness: clique(a) flips to
        # singletons and every block gets a private right vertex.
        tail = Fact(query.schema, (3, 4))
        database.add(tail)
        result = self._assert_matches_cold(runner, database)
        assert set(result.bipartite_graph.right_vertices) == {
            frozenset((fact,)) for fact in pair + [tail]
        }
        assert result.has_saturating_matching

        # Removing the tail flips the component back to a quasi-clique.
        database.remove(tail)
        result = self._assert_matches_cold(runner, database)
        assert set(result.bipartite_graph.right_vertices) == {frozenset(pair)}
        assert not result.has_saturating_matching

    @staticmethod
    def _q6_chain(query, length):
        """Pair-cliques C_i = {a_i, b_i} chaining blocks k_1 .. k_{length+1}.

        a_i = (k_i, y_i, k_{i+1}) pairs with b_i = (k_{i+1}, k_i, y_i) and with
        nothing else (the y_i are unique), so H(D, q6) is a path: block k_i is
        edged to cliques C_{i-1} and C_i.
        """
        first = []
        second = []
        for i in range(1, length + 1):
            first.append(Fact(query.schema, (i, 9000 + i, i + 1)))
            second.append(Fact(query.schema, (i + 1, i, 9000 + i)))
        return first, second

    def test_saturation_flips_in_both_directions(self):
        query = QUERIES["twoway_triangle"]  # q6: R(x|y,z) R(z|x,y)
        runner = MatchingAlgorithm(query)
        runner.self_check = True
        first, second = self._q6_chain(query, 8)
        database = Database(first + second)
        # 9 blocks, 8 pair-cliques: no saturating matching.
        result = self._assert_matches_cold(runner, database)
        assert not result.has_saturating_matching

        # Dropping the last block's only fact flips saturation ON: 8 blocks
        # on 7 pair-cliques plus the freed singleton {a_8}.
        database.remove(second[-1])
        result = self._assert_matches_cold(runner, database)
        assert result.has_saturating_matching

        # Re-adding it flips saturation back OFF.
        database.add(second[-1])
        result = self._assert_matches_cold(runner, database)
        assert not result.has_saturating_matching

        # Dropping the chain head flips it ON from the other end.
        database.remove(first[0])
        result = self._assert_matches_cold(runner, database)
        assert result.has_saturating_matching

    def test_delete_the_matched_edge_fact(self):
        query = QUERIES["twoway_triangle"]
        runner = MatchingAlgorithm(query)
        runner.self_check = True
        first, second = self._q6_chain(query, 6)
        database = Database(first + second)
        result = self._assert_matches_cold(runner, database)
        # Find a mid-chain a_j whose (block k_j, C_j) edge is matched, and
        # delete exactly that fact: the maintainer must drop the matched
        # edge, split C_j to the singleton {b_j}, and repair the matching.
        for j in range(1, 6):
            block_id = first[j].block_id()
            clique = result.matching.get(block_id)
            if clique is not None and first[j] in clique:
                database.remove(first[j])
                break
        else:  # pragma: no cover - the chain always matches some a_j
            pytest.fail("no matched (block, clique) edge backed by an a_j fact")
        self._assert_matches_cold(runner, database)

    def test_matching_cache_key_is_stable(self):
        query = QUERIES["easy_cert2"]
        assert matching_cache_key(query) == ("bipartite_matching", query)
