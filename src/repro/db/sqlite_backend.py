"""SQLite-backed fact store and SQL evaluation of two-atom queries.

The paper is engine-agnostic; this backend makes the library usable as a
small consistent-query-answering system over relational data that actually
lives in a database file.  It provides:

* persistence: load/store the facts of a relation into a SQLite table whose
  columns are the positions of the relation (``c0 ... c{k-1}``);
* SQL evaluation of the two-atom query (a self-join with the equality
  constraints induced by repeated variables);
* SQL computation of the block structure (``GROUP BY`` on the key columns)
  and of the solution pairs used by the solution graph;
* a convenience pipeline that pulls the facts back into the in-memory
  :class:`~repro.db.fact_store.Database` so that any of the certain-answer
  algorithms can run on top of SQLite-resident data.

Elements are stored as text with a reversible, canonical serialisation
(shared with every relational backend through
:mod:`repro.backends.encoding`): scalars are tagged with their type
(``int:42``, ``str:alice``) with the delimiter characters escaped, and
composite elements (tuples created by the reductions) nest recursively
(``(int:1|(str:a|str:b))``).  Equal elements always produce equal encodings,
and the supported scalar types — ``str``, ``int``, ``bool``, ``float`` and
``None`` — round-trip exactly, so facts rehydrated from SQLite compare equal
to the facts that were stored.

The SQL fragments themselves (self-join, block grouping, escape probes) live
in :mod:`repro.backends.fragments`; this store is one implementation of the
:class:`repro.backends.base.Backend` protocol, alongside the generic
:class:`repro.backends.dbapi.DbApiBackend`.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

# Canonical element codec, shared by every backend.  The underscore aliases
# are the store's historical names — kept importable for downstream users.
from ..backends.encoding import decode_element as _decode_element
from ..backends.encoding import encode_element as _encode_element
from ..backends.encoding import escape as _escape  # noqa: F401
from ..backends.encoding import parse_element as _parse_element  # noqa: F401
from ..backends.encoding import unescape as _unescape  # noqa: F401
from ..backends.base import BackendCapabilities, note_backend_event
from ..backends.fragments import (
    TableSpec,
    block_sizes_sql,
    block_total_sql,
    escape_row_sql,
    scan_sql,
    solution_pair_sql,
)
from ..backends.streaming import DEFAULT_BATCH_SIZE, BoundedRowStream
from ..core.query import TwoAtomQuery
from ..core.solutions import SolutionGraph, solution_graph_cache_key
from ..core.terms import Fact, RelationSchema
from ..eval.deltas import graph_maintainer
from .fact_store import Database

__all__ = [
    "SqliteFactStore",
    "certain_answer_via_sqlite",
    "certain_answers_via_sqlite",
]


class SqliteFactStore:
    """Facts of one relation schema stored in a SQLite table.

    With ``indexed`` (the default) the store runs in *indexed-on-disk* mode:
    a B-tree index over the key columns is created alongside the table, so
    the block-structure ``GROUP BY``, the per-block totals and escape
    probes, and key-bound self-join probes are answered from the index even
    on cold stores that never load into memory.

    The store implements the relational backend protocol
    (:class:`repro.backends.base.Backend`): capabilities, bounded streaming
    of solution pairs and facts, per-block totals and escape probes.  Unlike
    :class:`~repro.backends.dbapi.DbApiBackend` it does not intern terms —
    fact columns hold canonical encodings directly, so streamed facts carry
    real element values and :meth:`decode_fact` is the identity.
    """

    def __init__(
        self, schema: RelationSchema, path: str = ":memory:", indexed: bool = True
    ) -> None:
        self.schema = schema
        self.path = path
        self.indexed = indexed
        self.connection = sqlite3.connect(path)
        self._create_table()
        if indexed:
            self._create_key_index()

    # ------------------------------------------------------------------ #
    # schema / loading
    # ------------------------------------------------------------------ #
    @property
    def table_name(self) -> str:
        return f"facts_{self.schema.name}"

    def table_spec(self) -> TableSpec:
        """This table's shape for the shared SQL fragment builders."""
        return TableSpec(
            table=self.table_name,
            arity=self.schema.arity,
            key_size=self.schema.key_size,
            paramstyle="qmark",
        )

    def _columns(self) -> List[str]:
        return self.table_spec().columns()

    def _create_table(self) -> None:
        columns = ", ".join(f"{column} TEXT NOT NULL" for column in self._columns())
        unique = ", ".join(self._columns())
        with self.connection:
            self.connection.execute(
                f"CREATE TABLE IF NOT EXISTS {self.table_name} "
                f"({columns}, UNIQUE ({unique}))"
            )

    def _create_key_index(self) -> None:
        """``CREATE INDEX`` on the key columns (no-op for key size 0)."""
        if self.schema.key_size == 0:
            return
        columns = ", ".join(self.key_columns())
        with self.connection:
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS idx_{self.table_name}_key "
                f"ON {self.table_name} ({columns})"
            )

    def clear(self) -> None:
        with self.connection:
            self.connection.execute(f"DELETE FROM {self.table_name}")

    def insert_facts(self, facts: Iterable[Fact]) -> int:
        """Insert facts (duplicates ignored); returns the number inserted."""
        rows = []
        for fact in facts:
            if fact.schema != self.schema:
                raise ValueError(f"fact {fact} does not match schema {self.schema.describe()}")
            rows.append(tuple(_encode_element(value) for value in fact.values))
        placeholders = ", ".join("?" for _ in range(self.schema.arity))
        with self.connection:
            before = self.count()
            self.connection.executemany(
                f"INSERT OR IGNORE INTO {self.table_name} VALUES ({placeholders})", rows
            )
            inserted = self.count() - before
            note_backend_event("rows_ingested", inserted)
            return inserted

    def load_database(self, database: Database) -> int:
        return self.insert_facts(database.facts())

    def count(self) -> int:
        cursor = self.connection.execute(f"SELECT COUNT(*) FROM {self.table_name}")
        return int(cursor.fetchone()[0])

    def fetch_facts(self) -> List[Fact]:
        cursor = self.connection.execute(
            f"SELECT {', '.join(self._columns())} FROM {self.table_name}"
        )
        return [
            Fact(self.schema, tuple(_decode_element(text) for text in row))
            for row in cursor.fetchall()
        ]

    def to_database(self) -> Database:
        return Database(self.fetch_facts())

    def to_indexed_database(self, query: Optional[TwoAtomQuery] = None) -> Database:
        """Rehydrate into a :class:`Database`, pushing analyses down to SQL.

        When ``query`` is given, the solution pairs are computed by the SQL
        self-join and installed as the database's cached solution graph — so
        the downstream algorithms (``Cert_k``, which seeds off the graph,
        ``matching``, the component decomposition) skip the in-memory pair
        discovery entirely.  The primed graph registers its delta maintainer,
        so later mutations of the rehydrated database are absorbed
        incrementally.
        """
        database = Database(self.fetch_facts())
        if query is not None:
            database.prime_cache(
                solution_graph_cache_key(query),
                self.solution_graph(query, database),
                maintainer=graph_maintainer(query),
            )
        return database

    def solution_graph(
        self, query: TwoAtomQuery, database: Optional[Database] = None
    ) -> SolutionGraph:
        """``G(D, q)`` on ``database``'s ids, from the SQL self-join's solution pairs."""
        if database is None:
            database = Database(self.fetch_facts())
        id_of = database.id_of
        pairs = ((id_of(first), id_of(second)) for first, second in self.evaluate_query(query))
        return SolutionGraph.from_pairs(query, database, pairs)

    def dataset_ref(self):
        """This store as a service-layer dataset reference.

        Bridges the PR 1/2 API into the unified front door: the returned
        :class:`~repro.service.datasets.DatasetRef` resolves through
        :meth:`to_indexed_database` (SQL pushdown) when the planner picks the
        SQLite strategy.  Imported lazily — the db layer stays importable
        without the service layer.
        """
        from ..service.datasets import DatasetRef

        return DatasetRef.sqlite(self)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SqliteFactStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # backend protocol
    # ------------------------------------------------------------------ #
    def connect(self) -> None:
        """The connection is opened by ``__init__``; nothing to do."""

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            driver="sqlite",
            paramstyle="qmark",
            interned_terms=False,
            server_side_signature=False,
            streaming=True,
        )

    def describe(self) -> str:
        return f"dbapi:sqlite:{self.path}?table={self.table_name}"

    def ingest(self, facts: Iterable[Fact], batch_size: int = 512) -> int:
        return self.insert_facts(facts)

    def content_signature(self) -> Tuple[int, int]:
        """(count, 0) — this store has no per-row signature column; callers
        needing content addressing hash the fetched rows instead."""
        return self.count(), 0

    def stream_solution_pairs(
        self, query: TwoAtomQuery, batch_size: int = DEFAULT_BATCH_SIZE, stats=None
    ) -> Iterator[Tuple[Fact, Fact]]:
        """Ordered solutions streamed in bounded ``fetchmany`` batches."""
        sql, _ = self.query_sql(query)
        stream = BoundedRowStream(self.connection.execute(sql), batch_size)
        if stats is not None:
            stats.watch(stream)
        arity = self.schema.arity
        for row in stream:
            yield (
                Fact(self.schema, tuple(_decode_element(text) for text in row[:arity])),
                Fact(self.schema, tuple(_decode_element(text) for text in row[arity:])),
            )

    def stream_facts(
        self, batch_size: int = DEFAULT_BATCH_SIZE, stats=None
    ) -> Iterator[Fact]:
        stream = BoundedRowStream(
            self.connection.execute(scan_sql(self.table_spec())), batch_size
        )
        if stats is not None:
            stats.watch(stream)
        for row in stream:
            yield Fact(self.schema, tuple(_decode_element(text) for text in row))

    def block_total(self, key: Tuple[object, ...]) -> int:
        """Fact count of one key block, answered from the key index."""
        params = tuple(_encode_element(value) for value in key)
        cursor = self.connection.execute(block_total_sql(self.table_spec()), params)
        return int(cursor.fetchone()[0])

    def escape_representative(
        self, key: Tuple[object, ...], excluded: List[Fact]
    ) -> Optional[Fact]:
        """One real row of the block that is none of ``excluded`` (or None)."""
        params: List[str] = [_encode_element(value) for value in key]
        for fact in excluded:
            params.extend(_encode_element(value) for value in fact.values)
        note_backend_event("escape_probes")
        cursor = self.connection.execute(
            escape_row_sql(self.table_spec(), len(excluded)), tuple(params)
        )
        row = cursor.fetchone()
        if row is None:
            return None
        return Fact(self.schema, tuple(_decode_element(text) for text in row))

    def decode_fact(self, fact: Fact) -> Fact:
        """Identity — this store's streamed facts already carry real values."""
        return fact

    # ------------------------------------------------------------------ #
    # SQL analyses
    # ------------------------------------------------------------------ #
    def key_columns(self) -> List[str]:
        return self.table_spec().key_columns()

    def block_sizes(self) -> Dict[Tuple[str, ...], int]:
        """Block structure via ``GROUP BY`` on the key columns."""
        cursor = self.connection.execute(block_sizes_sql(self.table_spec()))
        if self.schema.key_size == 0:
            return {(): int(cursor.fetchone()[0])}
        return {tuple(row[:-1]): int(row[-1]) for row in cursor.fetchall()}

    def inconsistent_block_count(self) -> int:
        return sum(1 for size in self.block_sizes().values() if size > 1)

    def stats(self) -> Dict[str, int]:
        """Database shape computed entirely in SQL (no fact rehydration)."""
        sizes = self.block_sizes()
        return {
            "facts": sum(sizes.values()),
            "blocks": len(sizes),
            "max_block": max(sizes.values(), default=0),
            "inconsistent_blocks": sum(1 for size in sizes.values() if size > 1),
        }

    def evaluate_query(self, query: TwoAtomQuery, limit: Optional[int] = None) -> List[Tuple[Fact, Fact]]:
        """All ordered solutions of ``query`` computed with a SQL self-join."""
        sql, _ = self.query_sql(query, limit=limit)
        cursor = self.connection.execute(sql)
        arity = self.schema.arity
        solutions = []
        for row in cursor.fetchall():
            first = Fact(self.schema, tuple(_decode_element(text) for text in row[:arity]))
            second = Fact(self.schema, tuple(_decode_element(text) for text in row[arity:]))
            solutions.append((first, second))
        return solutions

    def satisfies(self, query: TwoAtomQuery) -> bool:
        """Whether the stored facts satisfy the (existential) query."""
        return bool(self.evaluate_query(query, limit=1))

    def query_sql(self, query: TwoAtomQuery, limit: Optional[int] = None) -> Tuple[str, str]:
        """The SQL translation of the two-atom query (returned for inspection).

        The query becomes a self-join of the fact table with one equality per
        repeated variable occurrence; the second component of the result is a
        human-readable rendering of the join condition.  Built by the shared
        fragment builders (:mod:`repro.backends.fragments`).
        """
        if query.schema != self.schema:
            raise ValueError("query schema does not match the store schema")
        return solution_pair_sql(self.table_spec(), query, limit=limit)

    def solution_edges(self, query: TwoAtomQuery) -> List[Tuple[Fact, Fact]]:
        """Unordered solution-graph edges ``{a, b}`` with ``a != b`` (via SQL)."""
        edges = []
        seen = set()
        for first, second in self.evaluate_query(query):
            if first == second:
                continue
            pair = frozenset((first, second))
            if pair in seen:
                continue
            seen.add(pair)
            edges.append((first, second))
        return edges


def certain_answer_via_sqlite(
    query: TwoAtomQuery,
    store: SqliteFactStore,
    engine_factory=None,
    pushdown: bool = True,
) -> bool:
    """End-to-end pipeline: facts in SQLite → in-memory algorithms → certain(q).

    ``engine_factory`` defaults to :class:`repro.core.certain.CertainEngine`;
    it receives the query and must expose ``is_certain(database)``.  With
    ``pushdown`` (the default) the solution pairs are computed by the SQL
    self-join and fed straight into the database's solution-graph cache
    instead of being rediscovered in memory.
    """
    from ..core.certain import CertainEngine

    database = store.to_indexed_database(query) if pushdown else store.to_database()
    engine = (engine_factory or CertainEngine)(query)
    return engine.is_certain(database)


def certain_answers_via_sqlite(
    query: TwoAtomQuery,
    stores: Iterable[SqliteFactStore],
    engine_factory=None,
    pushdown: bool = True,
    workers: Optional[int] = None,
) -> List[bool]:
    """Batch pipeline over many stores, reusing one engine for the query.

    The engine's per-query state (classification, ``Cert_k`` runners,
    matching) is built once and the stores are rehydrated lazily, one at a
    time, so a long batch never holds more than one database in memory.
    With ``workers > 1`` the rehydrated stream is materialised and sharded
    across worker processes (see
    :meth:`repro.core.certain.CertainEngine.explain_many`); the primed SQL
    pushdown structures travel with each database to its worker.
    """
    from ..core.certain import CertainEngine

    engine = (engine_factory or CertainEngine)(query)
    databases = (
        store.to_indexed_database(query) if pushdown else store.to_database()
        for store in stores
    )
    if hasattr(engine, "is_certain_many"):
        if workers and workers > 1:
            return engine.is_certain_many(list(databases), workers=workers)
        return engine.is_certain_many(databases)
    return [engine.is_certain(database) for database in databases]
