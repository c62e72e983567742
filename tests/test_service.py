"""Service layer: Session / Request / Answer protocol and the planner.

Pins the PR 3 redesign: the session's classify-once query registry and
engine pool, the DatasetRef unification of the three data sources, the
backend-aware planner (strategy choice, worker handling, warnings), the
uniform answer envelope, and the inline falsifying-repair witness that
replaced the CLI's out-of-band recomputation.
"""

import random

import pytest

from repro import (
    CertainEngine,
    Database,
    DatasetRef,
    Fact,
    Plan,
    Planner,
    Request,
    Session,
    SqliteFactStore,
    parse_query,
    request_from_json_dict,
)
from repro.db.fact_store import is_repair_of
from repro.db.generators import random_solution_database
from repro.db.repairs import iter_repairs
from repro.service.planner import INDEXED_MEMORY, SHARDED_POOL, SQLITE_PUSHDOWN

Q3 = "R(x|y) R(y|z)"
Q2 = "R(x,u|x,y) R(u,y|x,z)"


def small_db(query_text=Q3, seed=0):
    query = parse_query(query_text)
    return random_solution_database(query, 5, 4, 4, random.Random(seed))


class TestQueryRegistryAndEnginePool:
    def test_queries_classified_once(self):
        session = Session()
        first = session.resolve_query(Q3)
        second = session.resolve_query(Q3)
        assert first is second
        assert session.stats["queries_classified"] == 1
        assert session.stats["registry_hits"] == 1

    def test_paper_names_resolve(self):
        session = Session()
        handle = session.resolve_query("q2")
        assert handle.query == parse_query(Q2)
        assert handle.classification.is_conp_complete

    def test_engines_pooled_across_requests(self):
        session = Session()
        db = small_db()
        ref = DatasetRef.in_memory(db)
        session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        engine = session.engine(session.resolve_query(Q3))
        session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        assert session.engine(session.resolve_query(Q3)) is engine
        assert session.stats["engines_built"] == 1
        assert session.stats["engine_hits"] >= 2

    def test_mixed_query_session_keeps_one_engine_per_query(self):
        session = Session()
        ref = DatasetRef.in_memory(small_db())
        for text in (Q3, Q2, Q3, Q2):
            session.answer(Request(op="certain", query=text, datasets=(ref,)))
        assert session.stats["engines_built"] == 2
        assert session.describe().startswith("Session(requests=4")


class TestAnswerEnvelope:
    def test_certain_matches_direct_engine(self):
        query = parse_query(Q3)
        db = small_db()
        expected = CertainEngine(query).explain(db)
        session = Session()
        [answer] = session.answer(
            Request(op="certain", query=Q3, datasets=(DatasetRef.in_memory(db),))
        )
        assert answer.ok
        assert answer.verdict == expected.certain
        assert answer.algorithm == expected.algorithm
        assert answer.exact == expected.exact
        assert answer.backend == INDEXED_MEMORY
        assert answer.database["facts"] == len(db)
        assert answer.database["version"] == db.version
        assert "total_s" in answer.timings and "answer_s" in answer.timings

    def test_witness_is_inline_and_valid(self):
        query = parse_query(Q3)
        # Two facts in one block, one of which always joins: not certain.
        schema = query.schema
        db = Database(
            [Fact(schema, (1, 2)), Fact(schema, (1, 9)), Fact(schema, (2, 3))]
        )
        report = CertainEngine(query).explain(db, want_witness=True)
        assert not report.certain
        assert report.witness is not None
        assert is_repair_of(list(report.witness), db)
        assert not query.satisfied_by(report.witness)
        session = Session()
        [answer] = session.answer(
            Request(op="witness", query=Q3, datasets=(DatasetRef.in_memory(db),))
        )
        assert answer.verdict is False
        assert answer.witness  # rendered facts travel in the envelope
        assert all(fact.startswith("R(") for fact in answer.witness)

    def test_witness_absent_when_certain(self):
        query = parse_query(Q3)
        db = Database([Fact(query.schema, (5, 5))])  # self-solution: certain
        report = CertainEngine(query).explain(db, want_witness=True)
        assert report.certain and report.witness is None

    def test_witness_on_conp_query_comes_from_the_deciding_solve(self):
        query = parse_query(Q2)
        db = random_solution_database(query, 4, 3, 4, random.Random(3))
        engine = CertainEngine(query)
        report = engine.explain(db, want_witness=True)
        assert report.certain == engine.is_certain(db)
        if not report.certain:
            assert report.witness is not None
            assert not query.satisfied_by(report.witness)

    def test_strict_witness_solve_overturns_a_false_negative(self):
        query = parse_query("R(x|y,z) R(z|x,y)")  # q6: triangle-tripath, PTime
        db = Database([Fact(query.schema, (1, 1, 1))])  # self-solution: certain
        engine = CertainEngine(query, strict_polynomial=True)

        class _Never:
            def is_certain(self, database):
                return False

            def certain_by_negation(self, database):
                return False

            def witness_repair(self, database):
                return None

        # Force the paper algorithms into a false negative (no matching
        # repair either, so the witness request reaches the SAT solve).
        engine._certk = engine._matching = _Never()
        inexact = engine.explain(db)
        assert inexact.certain is False and inexact.exact is False
        report = engine.explain(db, want_witness=True)
        assert report.certain is True and report.exact is True
        assert report.witness is None
        assert "overturned" in report.algorithm

    def test_support_is_seeded_and_enveloped(self):
        db = small_db()
        session = Session()
        request = Request(
            op="support",
            query=Q3,
            datasets=(DatasetRef.in_memory(db),),
            samples=60,
            seed=11,
        )
        [first] = session.answer(request)
        [second] = session.answer(request)
        assert first.verdict == second.verdict
        assert first.details["samples"] == 60
        assert 0.0 <= first.verdict <= 1.0
        assert first.exact is False

    def test_classify_envelope(self):
        session = Session()
        [answer] = session.answer(Request(op="classify", query="q2"))
        assert answer.verdict == "coNP-complete"
        assert answer.details["method"] == "FORK_TRIPATH"
        assert answer.database is None

    def test_reduce_envelope_checks_lemma(self):
        session = Session()
        [answer] = session.answer(
            Request(op="reduce", query="q2", clauses=((-1, 2, 3), (1, -2, -3)))
        )
        assert answer.details["lemma_9_2"] is True
        assert answer.details["satisfiable"] == (not answer.verdict)
        assert answer.database["facts"] > 0

    def test_batch_one_answer_per_dataset_in_order(self):
        session = Session()
        dbs = [small_db(seed=seed) for seed in range(4)]
        refs = tuple(DatasetRef.in_memory(db) for db in dbs)
        answers = session.answer(Request(op="certain", query=Q3, datasets=refs))
        assert len(answers) == 4
        engine = CertainEngine(parse_query(Q3))
        assert [a.verdict for a in answers] == [engine.is_certain(db) for db in dbs]

    def test_missing_dataset_rejected(self):
        session = Session()
        with pytest.raises(ValueError):
            session.answer(Request(op="certain", query=Q3))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Request(op="frobnicate", query=Q3)


class TestDatasetRefs:
    def test_csv_ref_is_lazy_and_memoised(self, tmp_path):
        path = tmp_path / "facts.csv"
        ref = DatasetRef.csv(path)  # missing file: constructing is fine
        path.write_text("a,b\n1,2\n1,3\n2,3\n", encoding="utf-8")
        assert ref.size_hint() == 3
        query = parse_query(Q3)
        db = ref.resolve(query)
        assert len(db) == 3
        assert ref.resolve(query) is db  # one load per schema

    def test_sqlite_ref_pushdown_primes_caches(self, tmp_path):
        query = parse_query(Q3)
        db = small_db(seed=2)
        path = str(tmp_path / "facts.db")
        with SqliteFactStore(query.schema, path) as store:
            store.load_database(db)
        ref = DatasetRef.sqlite(path)
        resolved = ref.resolve(query, pushdown=True)
        assert resolved == db
        from repro import solution_graph_cache_key

        assert solution_graph_cache_key(query) in resolved._derived
        ref.close()

    def test_store_dataset_ref_bridge(self):
        query = parse_query(Q3)
        with SqliteFactStore(query.schema) as store:
            store.load_database(small_db(seed=4))
            ref = store.dataset_ref()
            assert ref.kind == DatasetRef.SQLITE
            assert ref.size_hint() == store.count()
            # Closing a ref over a caller-owned store must not close the store.
            ref.close()
            assert store.count() >= 0

    def test_missing_sqlite_path_fails_instead_of_creating_a_store(self, tmp_path):
        query = parse_query(Q3)
        missing = tmp_path / "absent.db"
        ref = DatasetRef.sqlite(str(missing))
        with pytest.raises(FileNotFoundError):
            ref.resolve(query)
        assert not missing.exists()  # no stray empty database file

    def test_csv_size_hint_is_memoised_and_resolution_aware(self, tmp_path):
        path = tmp_path / "facts.csv"
        path.write_text("a,b\n1,2\n2,3\n", encoding="utf-8")
        ref = DatasetRef.csv(path)
        assert ref.size_hint() == 2
        path.unlink()  # a second call must not re-scan the file
        assert ref.size_hint() == 2

    def test_inline_rows_ref(self):
        query = parse_query(Q3)
        ref = DatasetRef.inline_rows([(1, 2), (1, 3)])
        db = ref.resolve(query)
        assert len(db) == 2 and ref.describe() == "rows:2"

    def test_json_dataset_extraction(self, tmp_path):
        csv_path = tmp_path / "w.csv"
        csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
        request = request_from_json_dict(
            {"op": "certain", "query": Q3, "csv": "w.csv", "rows": [[4, 5]]},
            base_dir=str(tmp_path),
        )
        kinds = sorted(ref.kind for ref in request.datasets)
        assert kinds == ["csv", "rows"]
        assert request.datasets[0].path.endswith("w.csv")


class TestPlanner:
    def plan(self, request, **kwargs):
        return Planner(**kwargs).plan(request)

    def test_single_dataset_with_workers_warns_and_stays_sequential(self):
        request = Request(
            op="certain",
            query=Q3,
            datasets=(DatasetRef.in_memory(small_db()),),
            workers=4,
        )
        plan = self.plan(request, default_workers=8)
        assert plan.strategy == INDEXED_MEMORY
        assert plan.workers is None
        assert any("workers=4 ignored" in warning for warning in plan.warnings)

    def test_requested_workers_shard_a_batch(self):
        refs = tuple(DatasetRef.in_memory(small_db(seed=s)) for s in range(3))
        plan = self.plan(
            Request(op="certain", query=Q3, datasets=refs, workers=2),
            default_workers=8,
        )
        assert plan == Plan(
            SHARDED_POOL, 2, True, "batch of 3 datasets sharded over 2 workers"
        )

    def test_auto_sharding_scales_with_machine_and_batch(self):
        refs = tuple(DatasetRef.in_memory(small_db(seed=s)) for s in range(16))
        assert self.plan(
            Request(op="certain", query=Q3, datasets=refs),
            default_workers=1,
            auto_shard_min_facts=0,
        ).strategy == INDEXED_MEMORY
        plan = self.plan(
            Request(op="certain", query=Q3, datasets=refs),
            default_workers=4,
            auto_shard_min_facts=0,
        )
        assert plan.strategy == SHARDED_POOL
        assert plan.workers == 2  # ceil(16 / 8) capped by the machine

    def test_auto_sharding_consults_size_hints(self):
        # Known-tiny batches never amortise pool start-up: stay sequential.
        refs = tuple(DatasetRef.in_memory(small_db(seed=s)) for s in range(16))
        total = sum(ref.size_hint() for ref in refs)
        tiny = self.plan(
            Request(op="certain", query=Q3, datasets=refs),
            default_workers=4,
            auto_shard_min_facts=total + 1,
        )
        assert tiny.strategy == INDEXED_MEMORY
        big = self.plan(
            Request(op="certain", query=Q3, datasets=refs),
            default_workers=4,
            auto_shard_min_facts=total,
        )
        assert big.strategy == SHARDED_POOL
        # An explicit workers request always wins over the size gate.
        forced = self.plan(
            Request(op="certain", query=Q3, datasets=refs, workers=2),
            default_workers=4,
            auto_shard_min_facts=total + 1,
        )
        assert forced.strategy == SHARDED_POOL

    def test_unknown_backend_is_warned_not_dropped(self):
        request = Request(
            op="certain",
            query=Q3,
            datasets=(DatasetRef.in_memory(small_db()),),
            backend="postgres",
        )
        plan = self.plan(request, default_workers=1)
        assert plan.strategy == INDEXED_MEMORY
        assert any("unknown backend='postgres'" in w for w in plan.warnings)

    def test_small_batches_stay_sequential_in_auto_mode(self):
        refs = tuple(DatasetRef.in_memory(small_db(seed=s)) for s in range(3))
        plan = self.plan(
            Request(op="certain", query=Q3, datasets=refs), default_workers=8
        )
        assert plan.strategy == INDEXED_MEMORY

    def test_sqlite_refs_get_the_pushdown_strategy(self):
        query = parse_query(Q3)
        with SqliteFactStore(query.schema) as store:
            plan = self.plan(
                Request(op="certain", query=Q3, datasets=(store.dataset_ref(),)),
                default_workers=1,
            )
            assert plan.strategy == SQLITE_PUSHDOWN
            assert plan.pushdown

    def test_memory_backend_override_disables_pushdown(self):
        query = parse_query(Q3)
        with SqliteFactStore(query.schema) as store:
            store.load_database(small_db(seed=6))
            request = Request(
                op="certain",
                query=Q3,
                datasets=(store.dataset_ref(),),
                backend="memory",
            )
            plan = self.plan(request, default_workers=1)
            assert plan.strategy == INDEXED_MEMORY and not plan.pushdown
            session = Session(planner=Planner(default_workers=1))
            [answer] = session.answer(request)
            assert answer.backend == INDEXED_MEMORY

    def test_support_never_shards(self):
        refs = tuple(DatasetRef.in_memory(small_db(seed=s)) for s in range(2))
        plan = self.plan(
            Request(op="support", query=Q3, datasets=refs, workers=4),
            default_workers=8,
        )
        assert plan.strategy == INDEXED_MEMORY
        assert any("support" in warning for warning in plan.warnings)


class TestShardedSessionAnswers:
    def test_sharded_batch_matches_sequential(self):
        dbs = [small_db(seed=seed) for seed in range(6)]
        sequential = Session(planner=Planner(default_workers=1))
        seq_answers = sequential.answer(
            Request(
                op="certain",
                query=Q3,
                datasets=tuple(DatasetRef.in_memory(db) for db in dbs),
            )
        )
        sharded = Session()
        shard_answers = sharded.answer(
            Request(
                op="certain",
                query=Q3,
                datasets=tuple(DatasetRef.in_memory(db) for db in dbs),
                workers=2,
            )
        )
        assert [a.verdict for a in shard_answers] == [a.verdict for a in seq_answers]
        assert [a.algorithm for a in shard_answers] == [
            a.algorithm for a in seq_answers
        ]
        assert all(a.backend == SHARDED_POOL for a in shard_answers)
        assert all(a.details["workers"] == 2 for a in shard_answers)

    def test_sharded_batch_carries_witnesses_back(self):
        query = parse_query(Q3)
        schema = query.schema
        falsifiable = Database(
            [Fact(schema, (1, 2)), Fact(schema, (1, 9)), Fact(schema, (2, 3))]
        )
        dbs = [falsifiable.copy(), Database([Fact(schema, (5, 5))])]
        session = Session()
        answers = session.answer(
            Request(
                op="certain",
                query=Q3,
                datasets=tuple(DatasetRef.in_memory(db) for db in dbs),
                workers=2,
                witness=True,
            )
        )
        assert answers[0].verdict is False and answers[0].witness
        assert answers[1].verdict is True and answers[1].witness is None
        # The witnesses the workers send back are genuine falsifying
        # repairs of the databases the parent holds.
        engine = CertainEngine(query)
        reports = engine.explain_many(dbs, workers=2, want_witness=True)
        assert engine.last_parallel_stats["chunks"] == 2
        assert [report.certain for report in reports] == [False, True]
        for database, report in zip(dbs, reports):
            if not report.certain:
                assert is_repair_of(report.witness, database)
                assert not query.satisfied_by(report.witness)


class TestExactSupportStillAgrees:
    def test_support_envelope_matches_exhaustive_fraction(self):
        from repro import exact_support

        query = parse_query(Q3)
        db = random_solution_database(query, 3, 3, 3, random.Random(8))
        expected = exact_support(query, db)
        session = Session()
        [answer] = session.answer(
            Request(
                op="support",
                query=Q3,
                datasets=(DatasetRef.in_memory(db),),
                samples=400,
                seed=1,
            )
        )
        repairs = list(iter_repairs(db))
        assert len(repairs) == db.repair_count()
        assert abs(answer.verdict - expected) < 0.25
