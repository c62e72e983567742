"""Shared SQL fragment builders for every relational backend.

The hot relational fragments of the certain-answer pipeline — the two-atom
self-join enumerating solution pairs, the key-block grouping and the escape
probes of the streaming reduction — are plain SQL-92 over
one fact table whose columns are the positions of the relation
(``c0 ... c{arity-1}``).  They were born inside
:class:`~repro.db.sqlite_backend.SqliteFactStore`; this module extracts them
so that every implementation of the backend protocol (the SQLite store, the
generic DB-API backend, a Postgres connection) pushes the *same* fragments
server-side instead of re-deriving them per driver.

All builders are pure functions of a :class:`TableSpec` (table name, arity,
key size, DB-API paramstyle) and, where relevant, the parsed
:class:`~repro.core.query.TwoAtomQuery`.  No connection is touched here;
callers execute the returned SQL with their own cursor discipline (see
:mod:`repro.backends.streaming` for the bounded iteration used on rows that
may not fit in RAM).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.query import TwoAtomQuery

#: DB-API ``paramstyle`` values the builders can emit placeholders for.
_PLACEHOLDERS = {"qmark": "?", "format": "%s"}


@dataclass(frozen=True)
class TableSpec:
    """Shape of one backend fact table, enough to build every fragment."""

    table: str
    arity: int
    key_size: int
    paramstyle: str = "qmark"

    def __post_init__(self) -> None:
        if self.paramstyle not in _PLACEHOLDERS:
            raise ValueError(
                f"unsupported paramstyle {self.paramstyle!r}; "
                f"expected one of {sorted(_PLACEHOLDERS)}"
            )
        if not 0 <= self.key_size <= self.arity:
            raise ValueError(
                f"key_size must be between 0 and arity={self.arity}, "
                f"got {self.key_size}"
            )

    @property
    def placeholder(self) -> str:
        return _PLACEHOLDERS[self.paramstyle]

    def columns(self) -> List[str]:
        """The value columns, one per relation position."""
        return [f"c{position}" for position in range(self.arity)]

    def key_columns(self) -> List[str]:
        return self.columns()[: self.key_size]


def solution_pair_sql(
    spec: TableSpec, query: TwoAtomQuery, limit: Optional[int] = None
) -> Tuple[str, str]:
    """The two-atom query as a SQL self-join enumerating ordered solutions.

    One equality per repeated variable occurrence across both atoms; the
    second component of the result is the human-readable join condition
    (surfaced by ``--explain-plan`` and the tests).
    """
    _check_arity(spec, query)
    conditions: List[str] = []
    seen: Dict[str, str] = {}
    for alias, atom in (("a", query.atom_a), ("b", query.atom_b)):
        for position, variable in enumerate(atom.variables):
            column = f"{alias}.c{position}"
            if variable in seen:
                conditions.append(f"{seen[variable]} = {column}")
            else:
                seen[variable] = column
    where = " AND ".join(conditions) if conditions else "1 = 1"
    columns = ", ".join(
        [f"a.c{position}" for position in range(spec.arity)]
        + [f"b.c{position}" for position in range(spec.arity)]
    )
    sql = (
        f"SELECT {columns} FROM {spec.table} AS a, {spec.table} AS b "
        f"WHERE {where}"
    )
    if limit is not None:
        sql += f" LIMIT {int(limit)}"
    return sql, where


def block_sizes_sql(spec: TableSpec) -> str:
    """Key-block grouping with per-block fact counts (``GROUP BY`` the key)."""
    key_cols = ", ".join(spec.key_columns())
    if not key_cols:
        return f"SELECT COUNT(*) FROM {spec.table}"
    return f"SELECT {key_cols}, COUNT(*) FROM {spec.table} GROUP BY {key_cols}"


def block_total_sql(spec: TableSpec) -> str:
    """Fact count of one key block (parameterised on the key values)."""
    if spec.key_size == 0:
        return f"SELECT COUNT(*) FROM {spec.table}"
    where = " AND ".join(
        f"{column} = {spec.placeholder}" for column in spec.key_columns()
    )
    return f"SELECT COUNT(*) FROM {spec.table} WHERE {where}"


def escape_row_sql(spec: TableSpec, excluded_rows: int) -> str:
    """One row of a key block that is none of ``excluded_rows`` known rows.

    Used by the solution-relevant streaming reduction: for a block that
    contains both solution-relevant facts and *escape* facts (facts
    participating in no solution), any single escape representative is
    interchangeable with every other escape of the block, so one ``LIMIT 1``
    probe per touched block suffices.  Exclusion is by full-tuple
    inequality — exact, no reliance on hash signatures.
    """
    conditions = []
    if spec.key_size:
        conditions.append(
            "("
            + " AND ".join(
                f"{column} = {spec.placeholder}" for column in spec.key_columns()
            )
            + ")"
        )
    for _ in range(excluded_rows):
        tuple_equal = " AND ".join(
            f"{column} = {spec.placeholder}" for column in spec.columns()
        )
        conditions.append(f"NOT ({tuple_equal})")
    where = " AND ".join(conditions) if conditions else "1 = 1"
    columns = ", ".join(spec.columns())
    return f"SELECT {columns} FROM {spec.table} WHERE {where} LIMIT 1"


def scan_sql(spec: TableSpec) -> str:
    """Full-table scan of the value columns (the fallback materialise path)."""
    return f"SELECT {', '.join(spec.columns())} FROM {spec.table}"


def content_signature_sql(spec: TableSpec, sig_column: str = "sig") -> str:
    """Server-side content digest: row count + sum of per-row signatures.

    Both aggregates run entirely server-side, so fingerprinting a
    100M-fact table ships exactly one row to Python.  The per-row signature
    column is written at ingest time (see
    :class:`~repro.backends.dbapi.DbApiBackend`); summing 32-bit signatures
    keeps the aggregate well inside 64-bit range for any realistic table.
    """
    return f"SELECT COUNT(*), COALESCE(SUM({sig_column}), 0) FROM {spec.table}"


def _check_arity(spec: TableSpec, query: TwoAtomQuery) -> None:
    if query.schema.arity != spec.arity or query.schema.key_size != spec.key_size:
        raise ValueError(
            f"query schema {query.schema.describe()} does not fit table "
            f"{spec.table} (arity {spec.arity}, key {spec.key_size})"
        )


def decode_pair_rows(
    rows: Sequence[Sequence[str]], arity: int
) -> List[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """Split self-join result rows into (first, second) value tuples."""
    return [(tuple(row[:arity]), tuple(row[arity:])) for row in rows]
