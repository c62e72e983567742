"""The SQLite file behind the dataset catalog.

One :class:`CatalogStore` is one SQLite file holding the catalog's tables —
tenants, datasets, import sessions, facts and dataset heads — shared by
every process that opens the same path (a fleet's workers all point at one
catalog).  The file discipline is exactly the persistent answer cache's
(:mod:`repro.server.persistent_cache`):

* **WAL mode** — workers read concurrently while one ingests;
  ``busy_timeout`` absorbs writer collisions instead of erroring.
* **schema-version guard** — a ``meta`` table records the on-disk schema;
  a mismatching file is reset rather than misread.
* **corruption = reset once** — a truncated or foreign file is detected
  (``sqlite3.DatabaseError``), reset once, and reopened; a file that cannot
  be repaired disables the store (every operation then raises
  :class:`CatalogError` instead of corrupting further).

Unlike the answer cache, the catalog is a system of record, not a cache:
operational failures (unknown tenant, duplicate dataset) must surface to the
caller, so the store raises :class:`CatalogError` — the service layer turns
those into ``ok: false`` envelopes.

Provenance model (borrowed from the import-session/entity-provenance schema
of ingest-centric systems): every mutation of a dataset — a CSV import, an
inline-rows load, a delta batch — records one ``import_sessions`` row
(kind, source, content checksum, add/remove counts, timestamp), and every
fact row carries the id of the session that introduced it.  A fact
re-ingested by a later session keeps its original provenance (first writer
wins, like the cache's ``INSERT OR IGNORE``).

Content identity is recorded at write time too.  Each dataset has one
``dataset_heads`` row — the digest an inline-rows reference over its current
rows would carry (:func:`~repro.service.datasets.rows_digest`), its fact
count, and a ``version`` drawn from a catalog-wide write counter in ``meta``
— refreshed inside every transaction that changes the dataset.  A read
learns a dataset's identity from :meth:`CatalogStore.head`, one indexed
join, without touching its rows.  The counter is bumped by every write, so
a version never repeats, not even when a deleted dataset's ids are reused;
it starts from the clock, so a reset file does not repeat the old versions
either.  A file written before the heads table existed is backfilled when
it is opened, through the same refresh; opening a current file writes
nothing, so it never waits on another process's write.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..service.datasets import rows_digest

#: Bumped whenever the on-disk row shape changes; mismatching files reset.
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS datasets (
    id          INTEGER PRIMARY KEY,
    tenant_id   INTEGER NOT NULL REFERENCES tenants(id),
    name        TEXT NOT NULL,
    created_at  REAL NOT NULL,
    UNIQUE (tenant_id, name)
);
CREATE TABLE IF NOT EXISTS import_sessions (
    id           INTEGER PRIMARY KEY,
    dataset_id   INTEGER NOT NULL REFERENCES datasets(id),
    kind         TEXT NOT NULL,
    source       TEXT NOT NULL,
    checksum     TEXT NOT NULL,
    facts_added  INTEGER NOT NULL,
    facts_removed INTEGER NOT NULL,
    fact_count   INTEGER NOT NULL,
    imported_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS facts (
    dataset_id         INTEGER NOT NULL REFERENCES datasets(id),
    fact_key           TEXT NOT NULL,
    row_json           TEXT NOT NULL,
    import_session_id  INTEGER NOT NULL REFERENCES import_sessions(id),
    PRIMARY KEY (dataset_id, fact_key)
);
CREATE TABLE IF NOT EXISTS meta (
    key    TEXT PRIMARY KEY,
    value  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS dataset_heads (
    dataset_id  INTEGER PRIMARY KEY REFERENCES datasets(id),
    digest      TEXT NOT NULL,
    version     INTEGER NOT NULL,
    fact_count  INTEGER NOT NULL
);
"""

#: ``(dataset id, content digest, version, fact count)`` — one head row.
Head = Tuple[int, str, int, int]

#: One dataset's head by ``(tenant name, dataset name)``: one indexed join.
_HEAD_SQL = (
    "SELECT datasets.id, dataset_heads.digest, dataset_heads.version, "
    "dataset_heads.fact_count FROM datasets "
    "JOIN tenants ON tenants.id = datasets.tenant_id "
    "JOIN dataset_heads ON dataset_heads.dataset_id = datasets.id "
    "WHERE tenants.name=? AND datasets.name=?"
)


class CatalogError(ValueError):
    """An operational catalog failure (unknown tenant, duplicate name, ...)."""


def row_key(values: Sequence[object]) -> str:
    """The canonical content key of one fact row (dedup and delta removal).

    Values are normalised to strings first — the catalog stores rows the way
    CSV delivers them, so ``[1, 2]`` and ``["1", "2"]`` name the same fact.
    """
    return json.dumps([str(value) for value in values], separators=(",", ":"))


def _refresh_head(execute: Callable, dataset_id: int) -> int:
    """Re-record one dataset's head inside the caller's transaction.

    Draws the next write-counter value, digests the dataset's current rows
    exactly as an inline-rows reference over them would, and returns the
    fact count.  Every write path — and the backfill of an older file — goes
    through here, so there is one definition of the stored identity.  The
    counter bump comes first: it is a write, so the rows are read under the
    write lock even when no earlier statement of the transaction wrote.
    """
    version = _next_version(execute)
    rows = [
        tuple(json.loads(row[0]))
        for row in execute(
            "SELECT row_json FROM facts WHERE dataset_id=?", (dataset_id,)
        ).fetchall()
    ]
    execute(
        "INSERT OR REPLACE INTO dataset_heads "
        "(dataset_id, digest, version, fact_count) VALUES (?, ?, ?, ?)",
        (dataset_id, rows_digest(rows), version, len(rows)),
    )
    return len(rows)


def _next_version(execute: Callable) -> int:
    """Bump the catalog-wide write counter (in the caller's transaction)."""
    execute("UPDATE meta SET value = CAST(value AS INTEGER) + 1 WHERE key='writes'")
    return int(execute("SELECT value FROM meta WHERE key='writes'").fetchone()[0])


class CatalogStore:
    """One SQLite catalog file (see module docs).

    Thread-safe: a single connection guarded by a lock, safe to open from
    many processes at once (WAL + busy timeout) — a fleet's workers share
    one file.
    """

    def __init__(self, path: str, *, busy_timeout_s: float = 5.0) -> None:
        self.path = str(path)
        self._busy_timeout_s = busy_timeout_s
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self.stats: Dict[str, int] = {"errors": 0, "resets": 0}
        with self._lock:
            self._open(allow_reset=True)

    # ------------------------------------------------------------------ #
    # connection lifecycle (the persistent-cache idiom)
    # ------------------------------------------------------------------ #
    def _open(self, allow_reset: bool) -> None:
        """Open (or reopen) the file; resets a corrupt/foreign file once."""
        try:
            conn = sqlite3.connect(self.path, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(f"PRAGMA busy_timeout={int(self._busy_timeout_s * 1000)}")
            conn.executescript(_SCHEMA)
            row = conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)),
                )
                conn.commit()
            elif row[0] != str(SCHEMA_VERSION):
                conn.close()
                raise sqlite3.DatabaseError(f"schema_version {row[0]!r}")
            # Write only when something is missing: opening a current file
            # must not wait on another process's write lock.
            if conn.execute("SELECT 1 FROM meta WHERE key='writes'").fetchone() is None:
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES ('writes', ?)",
                    (str(time.time_ns()),),
                )
            for (dataset_id,) in conn.execute(
                "SELECT id FROM datasets WHERE id NOT IN "
                "(SELECT dataset_id FROM dataset_heads)"
            ).fetchall():
                _refresh_head(conn.execute, dataset_id)
            conn.commit()
            self._conn = conn
        except sqlite3.Error:
            self._conn = None
            if allow_reset:
                self._reset_file()
                self._open(allow_reset=False)
            else:
                self.stats["errors"] += 1

    def _reset_file(self) -> None:
        """Delete the catalog file (and WAL siblings); the catalog starts over."""
        self.stats["resets"] += 1
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(self.path + suffix)
            except OSError:
                pass

    def _fail(self) -> None:
        """One corruption event: drop the connection, reset, reopen."""
        self.stats["errors"] += 1
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self._reset_file()
        self._open(allow_reset=False)

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
                self._conn = None

    @property
    def enabled(self) -> bool:
        """False once the file proved unrepairable."""
        with self._lock:
            return self._conn is not None

    def _execute(self, sql: str, params: Tuple = ()):
        """Run one statement under the lock's caller; re-raises as CatalogError.

        A :class:`sqlite3.Error` that is *not* an integrity violation counts
        as corruption and triggers the one-reset recovery; integrity errors
        (duplicate names) are operational and surface directly.
        """
        if self._conn is None:
            raise CatalogError(f"catalog unavailable: {self.path!r} is unrepairable")
        try:
            return self._conn.execute(sql, params)
        except sqlite3.IntegrityError:
            raise
        except sqlite3.Error as error:
            self._fail()
            raise CatalogError(f"catalog error: {error}") from error

    # ------------------------------------------------------------------ #
    # tenants
    # ------------------------------------------------------------------ #
    def create_tenant(self, name: str) -> Dict[str, object]:
        if not name or "/" in name:
            raise CatalogError(f"invalid tenant name {name!r}")
        with self._lock:
            try:
                cursor = self._execute(
                    "INSERT INTO tenants (name, created_at) VALUES (?, ?)",
                    (name, time.time()),
                )
            except sqlite3.IntegrityError:
                raise CatalogError(f"tenant {name!r} already exists") from None
            self._conn.commit()
            return {"id": cursor.lastrowid, "name": name}

    def tenant_id(self, name: str) -> int:
        with self._lock:
            row = self._execute(
                "SELECT id FROM tenants WHERE name=?", (name,)
            ).fetchone()
        if row is None:
            raise CatalogError(f"unknown tenant {name!r}")
        return int(row[0])

    def tenants(self) -> List[Dict[str, object]]:
        with self._lock:
            rows = self._execute(
                "SELECT id, name, created_at FROM tenants ORDER BY name"
            ).fetchall()
        return [
            {"id": int(row[0]), "name": row[1], "created_at": float(row[2])}
            for row in rows
        ]

    # ------------------------------------------------------------------ #
    # datasets
    # ------------------------------------------------------------------ #
    def create_dataset(self, tenant: str, name: str) -> Dict[str, object]:
        if not name or "/" in name:
            raise CatalogError(f"invalid dataset name {name!r}")
        tenant_id = self.tenant_id(tenant)
        with self._lock:
            try:
                cursor = self._execute(
                    "INSERT INTO datasets (tenant_id, name, created_at) "
                    "VALUES (?, ?, ?)",
                    (tenant_id, name, time.time()),
                )
            except sqlite3.IntegrityError:
                raise CatalogError(
                    f"dataset {tenant}/{name} already exists"
                ) from None
            _refresh_head(self._execute, cursor.lastrowid)
            self._conn.commit()
            return {"id": cursor.lastrowid, "tenant": tenant, "name": name}

    def delete_dataset(self, tenant: str, name: str) -> Dict[str, object]:
        """Remove one dataset with its facts and import history, atomically.

        Returns a summary carrying the stored digest and fact count of the
        content the dataset held *before* the delete, so the caller (the
        service layer) can evict every cache entry derived from it.  Raises
        :class:`CatalogError` if the dataset does not exist.
        """
        with self._lock:
            # The counter bump is the transaction's first write, so the head
            # read below already sees exactly what this delete removes.
            _next_version(self._execute)
            head = self._execute(_HEAD_SQL, (tenant, name)).fetchone()
            if head is None:
                self._conn.rollback()
                raise CatalogError(f"unknown dataset {tenant}/{name}")
            dataset_id, digest, _, count = head
            sessions = int(
                self._execute(
                    "SELECT COUNT(*) FROM import_sessions WHERE dataset_id=?",
                    (dataset_id,),
                ).fetchone()[0]
            )
            self._execute("DELETE FROM facts WHERE dataset_id=?", (dataset_id,))
            self._execute(
                "DELETE FROM import_sessions WHERE dataset_id=?", (dataset_id,)
            )
            self._execute(
                "DELETE FROM dataset_heads WHERE dataset_id=?", (dataset_id,)
            )
            self._execute("DELETE FROM datasets WHERE id=?", (dataset_id,))
            self._conn.commit()
        return {
            "id": dataset_id,
            "tenant": tenant,
            "name": name,
            "facts": int(count),
            "import_sessions": sessions,
            "digest": digest,
        }

    def dataset_id(self, tenant: str, name: str) -> int:
        with self._lock:
            row = self._execute(
                "SELECT datasets.id FROM datasets "
                "JOIN tenants ON tenants.id = datasets.tenant_id "
                "WHERE tenants.name=? AND datasets.name=?",
                (tenant, name),
            ).fetchone()
        if row is None:
            raise CatalogError(f"unknown dataset {tenant}/{name}")
        return int(row[0])

    def head(self, tenant: str, name: str) -> Head:
        """``(dataset id, content digest, version, fact count)`` in one read.

        The answer path's only catalog read on a cache hit: one indexed
        join, no fact rows.  Every request reads it afresh — fleet workers
        share the file, so another process's write shows up here.
        """
        with self._lock:
            row = self._execute(_HEAD_SQL, (tenant, name)).fetchone()
        if row is None:
            raise CatalogError(f"unknown dataset {tenant}/{name}")
        return int(row[0]), row[1], int(row[2]), int(row[3])

    def datasets(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        """Every dataset (optionally one tenant's), with fact/session counts."""
        sql = (
            "SELECT tenants.name, datasets.name, datasets.id, "
            "  dataset_heads.fact_count, "
            "  (SELECT COUNT(*) FROM import_sessions "
            "     WHERE import_sessions.dataset_id = datasets.id) "
            "FROM datasets JOIN tenants ON tenants.id = datasets.tenant_id "
            "JOIN dataset_heads ON dataset_heads.dataset_id = datasets.id "
        )
        params: Tuple = ()
        if tenant is not None:
            sql += "WHERE tenants.name=? "
            params = (tenant,)
        sql += "ORDER BY tenants.name, datasets.name"
        with self._lock:
            rows = self._execute(sql, params).fetchall()
        return [
            {
                "tenant": row[0],
                "name": row[1],
                "id": int(row[2]),
                "facts": int(row[3]),
                "import_sessions": int(row[4]),
            }
            for row in rows
        ]

    # ------------------------------------------------------------------ #
    # import sessions and facts
    # ------------------------------------------------------------------ #
    def record_import(
        self,
        dataset_id: int,
        *,
        kind: str,
        source: str,
        checksum: str,
        add_rows: Sequence[Sequence[object]] = (),
        remove_rows: Sequence[Sequence[object]] = (),
    ) -> Dict[str, object]:
        """Apply one ingest/delta batch and record its import session.

        The whole batch — session row, fact inserts, fact removals, the
        dataset's refreshed head — commits atomically, so a crash mid-ingest
        never leaves provenance pointing at half-applied facts, nor a stored
        digest describing other rows.  Returns the session row
        (including the *effective* add/remove counts: re-ingested duplicates
        and removals of absent facts do not count).
        """
        with self._lock:
            cursor = self._execute(
                "INSERT INTO import_sessions "
                "(dataset_id, kind, source, checksum, facts_added, "
                " facts_removed, fact_count, imported_at) "
                "VALUES (?, ?, ?, ?, 0, 0, 0, ?)",
                (dataset_id, kind, source, checksum, time.time()),
            )
            session_id = cursor.lastrowid
            removed = 0
            for values in remove_rows:
                removed += self._execute(
                    "DELETE FROM facts WHERE dataset_id=? AND fact_key=?",
                    (dataset_id, row_key(values)),
                ).rowcount
            added = 0
            for values in add_rows:
                added += self._execute(
                    "INSERT OR IGNORE INTO facts "
                    "(dataset_id, fact_key, row_json, import_session_id) "
                    "VALUES (?, ?, ?, ?)",
                    (dataset_id, row_key(values), row_key(values), session_id),
                ).rowcount
            count = _refresh_head(self._execute, dataset_id)
            self._execute(
                "UPDATE import_sessions "
                "SET facts_added=?, facts_removed=?, fact_count=? WHERE id=?",
                (added, removed, count, session_id),
            )
            self._conn.commit()
            row = self._execute(
                "SELECT id, kind, source, checksum, facts_added, facts_removed, "
                "fact_count, imported_at FROM import_sessions WHERE id=?",
                (session_id,),
            ).fetchone()
        return _session_dict(row)

    def sessions(self, dataset_id: int) -> List[Dict[str, object]]:
        """The dataset's full import history, oldest first."""
        with self._lock:
            rows = self._execute(
                "SELECT id, kind, source, checksum, facts_added, facts_removed, "
                "fact_count, imported_at FROM import_sessions "
                "WHERE dataset_id=? ORDER BY id",
                (dataset_id,),
            ).fetchall()
        return [_session_dict(row) for row in rows]

    def facts(self, dataset_id: int) -> List[Tuple[List[str], int]]:
        """Every ``(row values, import session id)`` of a dataset (stable order)."""
        with self._lock:
            rows = self._execute(
                "SELECT row_json, import_session_id FROM facts "
                "WHERE dataset_id=? ORDER BY fact_key",
                (dataset_id,),
            ).fetchall()
        return [(json.loads(row[0]), int(row[1])) for row in rows]

    def describe_dict(self) -> Dict[str, object]:
        """The JSON shape embedded in the server's stats envelope."""
        with self._lock:
            enabled = self._conn is not None
            counts = (0, 0, 0)
            if enabled:
                try:
                    counts = tuple(
                        int(self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
                        for table in ("tenants", "datasets", "import_sessions")
                    )
                except sqlite3.Error:
                    self._fail()
        return {
            "path": self.path,
            "enabled": enabled,
            "tenants": counts[0],
            "datasets": counts[1],
            "import_sessions": counts[2],
            **dict(self.stats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CatalogStore(path={self.path!r})"


def _session_dict(row) -> Dict[str, object]:
    return {
        "id": int(row[0]),
        "kind": row[1],
        "source": row[2],
        "checksum": row[3],
        "facts_added": int(row[4]),
        "facts_removed": int(row[5]),
        "fact_count": int(row[6]),
        "imported_at": float(row[7]),
    }
