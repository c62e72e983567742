"""Unit tests for the database substrate: blocks, repairs, consistency."""

import pytest

from repro import Database, Fact, RelationSchema, Repair
from repro.db.fact_store import is_repair_of


@pytest.fixture
def schema():
    return RelationSchema("R", arity=2, key_size=1)


@pytest.fixture
def db(schema):
    return Database(
        [
            Fact(schema, (1, "a")),
            Fact(schema, (1, "b")),
            Fact(schema, (2, "a")),
            Fact(schema, (3, "a")),
            Fact(schema, (3, "b")),
            Fact(schema, (3, "c")),
        ]
    )


class TestDatabaseBasics:
    def test_len_and_contains(self, db, schema):
        assert len(db) == 6
        assert Fact(schema, (1, "a")) in db
        assert Fact(schema, (9, "a")) not in db

    def test_duplicates_ignored(self, db, schema):
        assert not db.add(Fact(schema, (1, "a")))
        assert len(db) == 6

    def test_add_all_counts_new_facts(self, schema):
        db = Database()
        added = db.add_all([Fact(schema, (1, "a")), Fact(schema, (1, "a")), Fact(schema, (1, "b"))])
        assert added == 2

    def test_remove(self, db, schema):
        assert db.remove(Fact(schema, (2, "a")))
        assert len(db) == 5
        assert db.block_count() == 2
        assert not db.remove(Fact(schema, (2, "a")))

    def test_remove_keeps_block_when_nonempty(self, db, schema):
        db.remove(Fact(schema, (3, "a")))
        block = db.block_by_id(("R", (3,)))
        assert block is not None and block.size == 2

    def test_copy_is_independent(self, db, schema):
        clone = db.copy()
        clone.add(Fact(schema, (9, "z")))
        assert len(db) == 6
        assert len(clone) == 7

    def test_union(self, schema):
        first = Database([Fact(schema, (1, "a"))])
        second = Database([Fact(schema, (1, "b")), Fact(schema, (1, "a"))])
        merged = Database.union(first, second)
        assert len(merged) == 2

    def test_equality_is_set_equality(self, schema):
        first = Database([Fact(schema, (1, "a")), Fact(schema, (2, "b"))])
        second = Database([Fact(schema, (2, "b")), Fact(schema, (1, "a"))])
        assert first == second

    def test_schemas(self, db, schema):
        other = RelationSchema("S", 2, 1)
        db.add(Fact(other, (1, 1)))
        assert set(s.name for s in db.schemas()) == {"R", "S"}

    def test_active_domain(self, db):
        assert db.active_domain() == {1, 2, 3, "a", "b", "c"}

    def test_describe_and_pretty(self, db):
        assert "facts=6" in db.describe()
        assert "block" in db.pretty()


class TestBlocks:
    def test_block_structure(self, db, schema):
        assert db.block_count() == 3
        sizes = sorted(block.size for block in db.blocks())
        assert sizes == [1, 2, 3]

    def test_block_of(self, db, schema):
        block = db.block_of(Fact(schema, (3, "b")))
        assert block.size == 3
        assert block.key_tuple == (3,)

    def test_block_of_unknown_fact(self, db, schema):
        with pytest.raises(KeyError):
            db.block_of(Fact(schema, (9, "x")))

    def test_siblings(self, db, schema):
        siblings = db.siblings(Fact(schema, (1, "a")))
        assert set(siblings) == {Fact(schema, (1, "a")), Fact(schema, (1, "b"))}

    def test_consistency(self, db, schema):
        assert not db.is_consistent()
        consistent = Database([Fact(schema, (1, "a")), Fact(schema, (2, "a"))])
        assert consistent.is_consistent()

    def test_inconsistent_blocks(self, db):
        assert len(db.inconsistent_blocks()) == 2

    def test_repair_count(self, db):
        assert db.repair_count() == 2 * 1 * 3

    def test_max_block_size(self, db):
        assert db.max_block_size() == 3
        assert Database().max_block_size() == 0

    def test_block_iteration_and_membership(self, db, schema):
        block = db.block_of(Fact(schema, (1, "a")))
        assert Fact(schema, (1, "a")) in block
        assert len(list(block)) == 2
        assert not block.is_consistent()

    def test_restrict(self, db, schema):
        sub = db.restrict([Fact(schema, (1, "a")), Fact(schema, (3, "c"))])
        assert len(sub) == 2
        with pytest.raises(KeyError):
            db.restrict([Fact(schema, (9, "q"))])


class TestRepair:
    def test_repair_replace(self, schema):
        first = Fact(schema, (1, "a"))
        second = Fact(schema, (1, "b"))
        other = Fact(schema, (2, "a"))
        repair = Repair((first, other))
        replaced = repair.replace(first, second)
        assert second in replaced and first not in replaced

    def test_repair_replace_requires_key_equal(self, schema):
        first = Fact(schema, (1, "a"))
        other = Fact(schema, (2, "a"))
        repair = Repair((first, other))
        with pytest.raises(ValueError):
            repair.replace(first, Fact(schema, (5, "a")))

    def test_repair_replace_requires_membership(self, schema):
        repair = Repair((Fact(schema, (1, "a")),))
        with pytest.raises(KeyError):
            repair.replace(Fact(schema, (2, "a")), Fact(schema, (2, "b")))

    def test_is_repair_of(self, db, schema):
        good = [Fact(schema, (1, "a")), Fact(schema, (2, "a")), Fact(schema, (3, "c"))]
        assert is_repair_of(good, db)

    def test_is_repair_of_missing_block(self, db, schema):
        assert not is_repair_of([Fact(schema, (1, "a")), Fact(schema, (2, "a"))], db)

    def test_is_repair_of_two_facts_same_block(self, db, schema):
        bad = [
            Fact(schema, (1, "a")),
            Fact(schema, (1, "b")),
            Fact(schema, (2, "a")),
            Fact(schema, (3, "a")),
        ]
        assert not is_repair_of(bad, db)

    def test_is_repair_of_foreign_fact(self, db, schema):
        bad = [Fact(schema, (1, "z")), Fact(schema, (2, "a")), Fact(schema, (3, "a"))]
        assert not is_repair_of(bad, db)

    def test_repair_as_set(self, schema):
        repair = Repair((Fact(schema, (1, "a")),))
        assert repair.as_set() == frozenset({Fact(schema, (1, "a"))})


class TestOneSignaturePerRelation:
    """A relation symbol has exactly one signature (Section 2)."""

    def test_a_second_signature_is_rejected_by_add(self):
        # Before the check, R[3,1]'s fact joined R[2,1]'s block (1,): one
        # 2-fact block, and both the engine and brute force answered False.
        small, wide = RelationSchema("R", 2, 1), RelationSchema("R", 3, 1)
        with pytest.raises(ValueError, match=r"R\[2,1\].*R\[3,1\]"):
            Database([Fact(small, (1, 1)), Fact(wide, (1, 5, 6))])
        database = Database([Fact(small, (1, 1))])
        with pytest.raises(ValueError, match=r"R\[2,1\].*R\[3,1\]"):
            database.add(Fact(wide, (1, 5, 6)))
        assert database.facts() == [Fact(small, (1, 1))]
        assert Fact(wide, (1, 5, 6)) not in database
        assert not database.remove(Fact(wide, (1, 5, 6)))
        assert database.version == 1

    def test_the_fact_of_the_first_signature_alone_is_certain(self):
        from repro import CertainEngine, certain_bruteforce, paper_queries

        q3 = paper_queries()["q3"]  # R(x|y) R(y|z) over R[2,1]
        database = Database([Fact(q3.schema, (1, 1))])
        assert database.block_count() == 1 and database.max_block_size() == 1
        assert CertainEngine(q3).is_certain(database)
        assert certain_bruteforce(q3, database)

    def test_a_second_signature_is_rejected_by_the_rows_ingest(self):
        small, wide = RelationSchema("R", 2, 1), RelationSchema("R", 3, 1)
        database = Database()
        assert database.add_rows(small, [(1, 1)]) == 1
        with pytest.raises(ValueError, match=r"R\[2,1\].*R\[3,1\]"):
            database.add_rows(wide, [(1, 5, 6)])
        assert database.describe_dict()["facts"] == 1

    def test_other_relation_names_may_mix(self):
        r, s = RelationSchema("R", 2, 1), RelationSchema("S", 3, 1)
        database = Database([Fact(r, (1, 1)), Fact(s, (1, 5, 6)), Fact(r, (2, 1))])
        assert database.schemas() == [r, s]
        assert database.block_count() == 3


class TestRowsIngest:
    """``Database.add_rows``: the bulk path, without building ``Fact`` objects."""

    def test_rows_ingest_equals_fact_by_fact(self, schema):
        rows = [(1, "a"), (1, "b"), (2, "a"), (1, "a"), (3, "c")]
        bulk = Database()
        assert bulk.add_rows(schema, rows) == 4
        single = Database(Fact(schema, row) for row in rows)
        assert bulk.facts() == single.facts()
        assert bulk.version == single.version == 4
        assert [block.block_id for block in bulk.blocks()] == [
            block.block_id for block in single.blocks()
        ]

    def test_malformed_rows_insert_nothing(self, schema):
        database = Database()
        with pytest.raises(ValueError, match="needs 2 values, got 3"):
            database.add_rows(schema, [(1, "a"), (2, "b", "c")])
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            database.add_rows(schema, [(1, "a"), (2, ["b"])])
        assert len(database) == 0 and database.version == 0
        assert database.add_rows(schema, [(1, "a")]) == 1

    def test_ids_and_facts(self, schema):
        first = Fact(schema, (1, "a"))
        database = Database([first])
        assert database.add_rows(schema, [(2, "b")]) == 1
        fid = database.id_of(first)
        assert database.fact(fid) is first  # the Fact passed to add is kept
        other = database.id_of(Fact(schema, (2, "b")))
        assert database.fact(other) is database.fact(other)  # built once
        database.remove(first)
        assert database.id_of(first) is None
        database.add(first)
        assert database.id_of(first) > other  # ids are never reused
        assert database.fact(fid) == first  # and the old id still names it
