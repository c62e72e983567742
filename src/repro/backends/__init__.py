"""Pluggable relational backends: DB-API pushdown with streaming answers.

The package turns the certain-answer pipeline's storage layer into a
protocol (:class:`~repro.backends.base.Backend`): connect, negotiate
capabilities, ingest with interned terms, push the hot relational fragments
server-side as parameterised SQL, and stream rows through bounded cursors so
certainty is decided for databases far larger than RAM.

Two implementations ship: the original
:class:`~repro.db.sqlite_backend.SqliteFactStore` (refactored onto the shared
fragments) and :class:`~repro.backends.dbapi.DbApiBackend` (generic DB-API
2.0 — stdlib ``sqlite3`` today, ``psycopg``/Postgres via connection string
when installed).
"""

from .base import (
    KNOWN_DRIVERS,
    Backend,
    BackendCapabilities,
    BackendSpec,
    DatasetUnavailable,
    backend_totals,
    is_backend_spec,
    note_backend_event,
    parse_backend_spec,
    reset_backend_totals,
)
from .dbapi import DbApiBackend
from .encoding import (
    decode_element,
    encode_element,
    row_signature,
    term_digest,
)
from .fragments import (
    TableSpec,
    block_sizes_sql,
    block_total_sql,
    content_signature_sql,
    escape_row_sql,
    scan_sql,
    solution_pair_sql,
)
from .streaming import (
    DEFAULT_BATCH_SIZE,
    BoundedRowStream,
    ReductionStats,
    materialized_database,
    reduced_streamed_database,
)

__all__ = [
    "KNOWN_DRIVERS",
    "Backend",
    "BackendCapabilities",
    "BackendSpec",
    "BoundedRowStream",
    "DEFAULT_BATCH_SIZE",
    "DatasetUnavailable",
    "DbApiBackend",
    "ReductionStats",
    "TableSpec",
    "backend_totals",
    "block_sizes_sql",
    "block_total_sql",
    "content_signature_sql",
    "decode_element",
    "encode_element",
    "escape_row_sql",
    "is_backend_spec",
    "materialized_database",
    "note_backend_event",
    "parse_backend_spec",
    "reduced_streamed_database",
    "reset_backend_totals",
    "row_signature",
    "scan_sql",
    "solution_pair_sql",
    "term_digest",
]
