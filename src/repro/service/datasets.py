"""Dataset references: one handle over the library's data sources.

Every request addresses its data through a :class:`DatasetRef` — a lazy,
backend-tagged handle that the planner can inspect (kind, cheap size hint)
*before* any facts are materialised, and that the session resolves into an
in-memory :class:`~repro.db.fact_store.Database` only when an answer actually
needs one.  Five kinds exist:

``memory``
    An already-built :class:`~repro.db.fact_store.Database`.
``csv``
    A CSV path loaded lazily through :func:`~repro.db.csvio.load_csv`
    (the schema comes from the request's query at resolve time).
``sqlite``
    A :class:`~repro.db.sqlite_backend.SqliteFactStore` (or a path to one);
    resolution goes through :meth:`~repro.db.sqlite_backend.SqliteFactStore.to_indexed_database`
    so the solution pairs and ``Cert_k`` seeds are pushed down to SQL.
``rows``
    Inline rows (the wire form used by JSONL workload files).  A catalog
    dataset is a ``rows`` reference too, whose rows load on first
    resolution (:meth:`repro.catalog.service.CatalogService.dataset_ref`).
``backend``
    A ``dbapi:`` / ``backend://`` connection spec resolved through the
    pluggable relational backend layer (:mod:`repro.backends`): the hot
    relational fragments run server-side and only the solution-relevant
    reduction is ever materialised in Python, so the source database may be
    far larger than RAM.  Fingerprints come from the backend's server-side
    content signature, so the answer cache, persistent tier and fleet
    routing compose unchanged.

Resolutions are memoised per (query, pushdown) so that several requests over
the same reference share one load, and the handle survives being answered
for several different queries over the same relation schema.  A source that
cannot be reached raises :class:`~repro.backends.base.DatasetUnavailable`
(a ``FileNotFoundError`` subclass), which the service layer converts into a
typed error envelope (``details["error_kind"] == "dataset_unavailable"``).
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from ..backends.base import (
    BackendSpec,
    DatasetUnavailable,
    parse_backend_spec,
)
from ..backends.dbapi import DbApiBackend
from ..backends.streaming import (
    ReductionStats,
    materialized_database,
    reduced_streamed_database,
)
from ..core.query import TwoAtomQuery
from ..core.terms import RelationSchema
from ..db.csvio import csv_row_count, load_csv_text
from ..db.fact_store import Database
from ..hashing import blake2b

if TYPE_CHECKING:  # the SQLite stack loads on first use, not with the service layer
    from ..db.sqlite_backend import SqliteFactStore

PathLike = Union[str, Path]

#: Opaque identity tokens handed to in-memory databases and stores the first
#: time a fingerprint is taken.  ``id()`` alone is unsafe as a cache identity
#: (CPython reuses addresses after garbage collection); a token attribute
#: travels with the object for its whole lifetime instead.
_identity_tokens = itertools.count(1)


def _identity_token(obj: object) -> int:
    token = getattr(obj, "_repro_fingerprint_token", None)
    if token is None:
        token = next(_identity_tokens)
        obj._repro_fingerprint_token = token
    return token


def _hash_file(path: str) -> Optional[str]:
    """Content digest of a file, or ``None`` when it cannot be read."""
    digest = blake2b(digest_size=16)
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def _hash_wal(path: str) -> Optional[str]:
    """Digest of a SQLite write-ahead log, with an empty log mapped to ``None``.

    Merely *opening* a WAL-mode database creates a zero-byte ``-wal`` file,
    which holds no committed frames — fingerprinting it would make the same
    content look different before and after the first reader.  A log with
    actual frames (committed but un-checkpointed writes) must change the
    fingerprint; see the sqlite branch of :meth:`DatasetRef.fingerprint`.
    """
    try:
        if Path(path).stat().st_size == 0:
            return None
    except OSError:
        return None
    return _hash_file(path)


def rows_digest(rows: Iterable[Tuple[object, ...]]) -> str:
    """The content digest of inline fact rows, as their fingerprint carries it.

    Each row must be a tuple, as :class:`DatasetRef` holds them (a list
    renders differently).  Order-insensitive: a database is a *set* of
    facts, so two row payloads that differ only in order resolve to the same
    fact set and must share one content identity (cache entries, lock
    stripes and fleet routes all key on it).  Sorting the rendered rows
    keeps duplicates significant.  The catalog stores this digest at write
    time, so a stored dataset and the same rows sent inline share every
    cache entry and route.
    """
    digest = blake2b(digest_size=16)
    for rendered in sorted(repr(row) for row in rows):
        digest.update(rendered.encode("utf-8"))
    return digest.hexdigest()


class DatasetRef:
    """A lazy, backend-tagged reference to one dataset (see module docs)."""

    MEMORY = "memory"
    CSV = "csv"
    SQLITE = "sqlite"
    ROWS = "rows"
    BACKEND = "backend"

    def __init__(
        self,
        kind: str,
        *,
        database: Optional[Database] = None,
        path: Optional[PathLike] = None,
        store: Optional[SqliteFactStore] = None,
        rows: Optional[Sequence[Sequence[object]]] = None,
        backend_spec: Optional[BackendSpec] = None,
        backend_obj=None,
        ingest_csv: Optional[PathLike] = None,
        has_header: bool = True,
        label: Optional[str] = None,
    ) -> None:
        if kind not in (self.MEMORY, self.CSV, self.SQLITE, self.ROWS, self.BACKEND):
            raise ValueError(f"unknown dataset kind {kind!r}")
        self.kind = kind
        self._database = database
        self.path = str(path) if path is not None else None
        self._store = store
        self._owns_store = False
        self._rows = [tuple(row) for row in rows] if rows is not None else None
        self.backend_spec = backend_spec
        self._backend = backend_obj
        self._owns_backend = False
        self._ingest_csv = str(ingest_csv) if ingest_csv is not None else None
        self._ingested = False
        self.has_header = has_header
        self._label = label
        self._resolved: Dict[Hashable, Database] = {}
        self._loaded_versions: Dict[Hashable, int] = {}
        self._loaded_fingerprint: Optional[Tuple[object, ...]] = None
        self._size_hint: Optional[int] = None
        self._rows_digest: Optional[str] = None
        #: Shape of the most recent streaming resolution of a ``backend``
        #: reference (surfaced in answer details by the pushdown strategy).
        self.last_reduction: Optional[ReductionStats] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def in_memory(cls, database: Database, label: Optional[str] = None) -> "DatasetRef":
        """Wrap an already-built in-memory database."""
        return cls(cls.MEMORY, database=database, label=label)

    @classmethod
    def csv(cls, path: PathLike, has_header: bool = True) -> "DatasetRef":
        """A CSV file, loaded lazily at first resolution."""
        return cls(cls.CSV, path=path, has_header=has_header)

    @classmethod
    def sqlite(
        cls, store_or_path: Union[SqliteFactStore, PathLike]
    ) -> "DatasetRef":
        """A SQLite fact store (opened lazily when given a path)."""
        from ..db.sqlite_backend import SqliteFactStore

        if isinstance(store_or_path, SqliteFactStore):
            return cls(cls.SQLITE, store=store_or_path, path=store_or_path.path)
        return cls(cls.SQLITE, path=store_or_path)

    @classmethod
    def inline_rows(
        cls, rows: Sequence[Sequence[object]], label: Optional[str] = None
    ) -> "DatasetRef":
        """Inline fact rows (one tuple of values per fact)."""
        return cls(cls.ROWS, rows=rows, label=label)

    @classmethod
    def backend(
        cls,
        spec: Union[str, BackendSpec, DbApiBackend],
        schema: Optional[RelationSchema] = None,
        ingest_csv: Optional[PathLike] = None,
        has_header: bool = True,
        label: Optional[str] = None,
    ) -> "DatasetRef":
        """A relational backend connection (``dbapi:`` / ``backend://`` spec).

        ``ingest_csv`` loads a CSV into the backend table before the first
        resolution (the CLI's ``--backend`` + CSV combination); ``schema``
        may pre-bind the relation, otherwise it is learned from the query at
        resolve time.
        """
        if isinstance(spec, DbApiBackend):
            ref = cls(
                cls.BACKEND,
                backend_spec=spec.spec,
                backend_obj=spec,
                ingest_csv=ingest_csv,
                has_header=has_header,
                label=label,
            )
            return ref
        parsed = spec if isinstance(spec, BackendSpec) else parse_backend_spec(spec)
        ref = cls(
            cls.BACKEND,
            backend_spec=parsed,
            ingest_csv=ingest_csv,
            has_header=has_header,
            label=label,
        )
        if schema is not None:
            ref._ensure_backend(schema)
        return ref

    def _ensure_backend(
        self, schema: Optional[RelationSchema] = None
    ) -> DbApiBackend:
        """The live backend, created/connected (and CSV-ingested) on demand."""
        if self._backend is None:
            self._backend = DbApiBackend(self.backend_spec)
            self._owns_backend = True
        if schema is not None and self._backend.schema is None:
            self._backend.bind_schema(schema)
        self._backend.connect()
        if self._ingest_csv is not None and not self._ingested:
            if self._backend.schema is None:
                # The CSV's schema arrives with the first query; until then
                # the ingest stays pending.
                return self._backend
            try:
                with open(self._ingest_csv, "rb") as handle:
                    data = handle.read()
            except OSError as error:
                raise DatasetUnavailable(
                    f"CSV dataset cannot be read: {self._ingest_csv!r} ({error})"
                )
            database = load_csv_text(
                data.decode("utf-8"),
                self._backend.schema,
                has_header=self.has_header,
                source=self._ingest_csv,
            )
            self._backend.ingest(database.facts())
            self._ingested = True
        return self._backend

    # ------------------------------------------------------------------ #
    # planner-facing inspection
    # ------------------------------------------------------------------ #
    def size_hint(self) -> Optional[int]:
        """A cheap fact-count estimate, or ``None`` when none is available.

        Never materialises facts: CSVs are scanned row-wise (once — the
        count is memoised on the reference), SQLite stores answer with
        ``COUNT(*)``, an unopened SQLite path stays unknown.  An already
        resolved reference answers from the resolved database for free.
        """
        if self.kind == self.MEMORY:
            return len(self._database)
        if self.kind == self.ROWS:
            return len(self._rows)
        if self._resolved:
            return len(next(iter(self._resolved.values())))
        if self.kind == self.CSV:
            if self._size_hint is None:
                try:
                    self._size_hint = csv_row_count(self.path, has_header=self.has_header)
                except OSError:
                    return None
            return self._size_hint
        if self.kind == self.BACKEND:
            backend = self._backend
            if backend is None:
                return None
            try:
                return backend.count()
            except DatasetUnavailable:
                return None
        if self._store is not None:
            return self._store.count()
        return None

    @property
    def memory_database(self) -> Optional[Database]:
        """The live database of a ``memory`` reference (``None`` otherwise)."""
        return self._database

    @property
    def live_backend(self) -> Optional[DbApiBackend]:
        """The live backend of a ``backend`` reference (``None`` otherwise)."""
        return self._backend

    def describe(self) -> str:
        """A short ``kind:source`` label used by envelopes and reports."""
        if self._label is not None:
            return f"{self.kind}:{self._label}"
        if self.kind == self.MEMORY:
            return f"memory:{self._database.describe()}"
        if self.kind == self.ROWS:
            return f"rows:{len(self._rows)}"
        if self.kind == self.BACKEND:
            return f"backend:{self.backend_spec.describe()}"
        return f"{self.kind}:{self.path}"

    # ------------------------------------------------------------------ #
    # content fingerprinting (the answer-cache identity of the dataset)
    # ------------------------------------------------------------------ #
    def fingerprint(self) -> Optional[Tuple[object, ...]]:
        """A cheap content identity for answer caching, or ``None``.

        Two references with equal fingerprints denote the same fact set
        that :meth:`resolve` answers with; a reference whose content cannot
        be identified cheaply and safely answers ``None`` and is simply not
        cached.  A reference holding a memoised resolution reports the
        fingerprint captured *at load time* — resolution memos do not track
        later source changes (the PR 3 contract), so the identity must
        describe the facts actually served, not the bytes currently on
        disk; a fresh or closed reference fingerprints the current source.
        Per kind:

        ``memory``
            ``("memory", token)`` — an identity token pinned to the database
            object.  Content changes are captured by :meth:`version_hint`
            (the database's mutation counter), which the cache key includes
            alongside the fingerprint.
        ``csv``
            ``("csv", path, has_header, content-digest)`` — the file bytes
            are hashed on every call, so a rewrite with identical size
            **and** identical mtime (``os.utime`` tricks, archive restores)
            still changes the fingerprint; stat data (size, mtime) is
            deliberately *not* trusted as a change signal.  ``has_header``
            is part of the identity because it changes which rows become
            facts.
        ``sqlite``
            For file-backed stores, ``("sqlite", path, content-digest)`` over
            the database file — out-of-band writers (other connections,
            other processes) change the committed file image.  For
            ``:memory:`` stores, an identity token plus the connection's
            ``total_changes`` counter and the row count.
        ``rows``
            ``("rows", content-digest)`` over the row tuples the reference
            holds (:func:`rows_digest`), memoised on the reference.  A
            catalog reference starts from the digest stored with the dataset
            and, once it loads its rows, digests the rows it loaded.
        ``backend``
            ``("backend", driver, dsn, table, count, signature-sum)`` — the
            count and signature sum are computed *server-side* on every call
            (one aggregate row travels, never the facts), so out-of-band
            writers change the fingerprint immediately.  Never memoised:
            the resolution memo key includes the same signature, so the
            fingerprint always describes the facts a fresh resolve would
            serve.
        """
        if self.kind == self.BACKEND:
            return self._content_fingerprint()
        if self._loaded_fingerprint is not None and self._resolved:
            return self._loaded_fingerprint
        return self._content_fingerprint()

    def _content_fingerprint(self) -> Optional[Tuple[object, ...]]:
        """The current-source fingerprint (see :meth:`fingerprint`)."""
        if self.kind == self.MEMORY:
            return (self.MEMORY, _identity_token(self._database))
        if self.kind == self.ROWS:
            if self._rows_digest is None:
                self._rows_digest = rows_digest(self._rows)
            return (self.ROWS, self._rows_digest)
        if self.kind == self.CSV:
            content = _hash_file(self.path)
            if content is None:
                return None
            # has_header changes which rows become facts, so it is part of
            # the content identity, not just a load option.
            return (self.CSV, self.path, self.has_header, content)
        if self.kind == self.BACKEND:
            backend = self._backend
            if backend is None:
                return None
            try:
                count, signature = backend.content_signature()
            except DatasetUnavailable:
                return None
            spec = self.backend_spec
            try:
                table = backend.table_name
            except DatasetUnavailable:
                table = spec.table
            return (self.BACKEND, spec.driver, spec.dsn, table, count, signature)
        # SQLite: a real path is fingerprinted from the committed file image
        # *plus* the write-ahead log — in WAL mode committed out-of-band
        # writes live in ``<path>-wal`` until a checkpoint and leave the
        # main file byte-identical, so hashing the main file alone would
        # serve stale verdicts.  :memory: stores fall back to
        # connection-local mutation counters.
        if self.path is not None and self.path != ":memory:":
            content = _hash_file(self.path)
            if content is None:
                return None
            return (self.SQLITE, self.path, content, _hash_wal(self.path + "-wal"))
        if self._store is not None:
            return (
                self.SQLITE,
                _identity_token(self._store),
                self._store.connection.total_changes,
                self._store.count(),
            )
        return None

    def stripe_key(self) -> Optional[Hashable]:
        """A cheap *source* identity for concurrency striping.

        Unlike :meth:`fingerprint` this never hashes file contents: two
        requests over the same path/store/database must land on the same
        lock stripe of the server's :class:`~repro.server.pool.SessionPool`
        (so their shared resolved database's derived caches are never
        touched concurrently), and the check runs on every request.
        Distinct sources mapping to one stripe is harmless — it only
        serialises them.  ``None`` means the source cannot be identified
        cheaply; the pool falls back to exclusive answering.
        """
        if self.kind == self.MEMORY:
            return (self.MEMORY, _identity_token(self._database))
        if self.kind == self.ROWS:
            # Inline rows are immutable and copied per request; the rows
            # digest (memoised) is a stable content identity.
            fingerprint = self._content_fingerprint()
            return fingerprint
        if self.kind == self.SQLITE and self.path in (None, ":memory:"):
            if self._store is None:
                return None
            return (self.SQLITE, _identity_token(self._store))
        if self.kind == self.BACKEND:
            spec = self.backend_spec
            if spec.driver == "sqlite" and spec.dsn == ":memory:":
                if self._backend is None:
                    return None
                return (self.BACKEND, _identity_token(self._backend))
            return (self.BACKEND, spec.driver, spec.dsn, spec.table)
        if self.path is None:
            return None
        # Resolve symlinks: two references reaching one file through
        # different link names are the *same* source and must share a lock
        # stripe and a fleet route.  (The content fingerprint keeps the
        # as-given path — it describes the request, not the stripe.)
        try:
            path = os.path.realpath(self.path)
        except OSError:  # pragma: no cover - realpath only fails exotically
            path = self.path
        return (self.kind, path)

    def routing_key(self) -> Optional[str]:
        """A *stable* string form of the source identity, for fleet routing.

        The dispatcher's consistent-hash ring must place the same dataset on
        the same worker across dispatcher restarts and regardless of which
        process computes the hash, so the key must not contain process-local
        identity tokens (``memory`` databases, ``:memory:`` stores) — those
        kinds answer ``None`` and fall back to the dispatcher's query-text
        routing.  Path-backed kinds key on ``kind:realpath`` (symlink
        aliases of one file share a route); inline rows key on their
        (memoised, order-insensitive) content digest, so the same wire
        payload routes to the same worker from any front door.
        """
        if self.kind == self.MEMORY:
            return None
        if self.kind == self.SQLITE and self.path in (None, ":memory:"):
            return None
        if self.kind == self.BACKEND:
            spec = self.backend_spec
            if spec.driver == "sqlite" and spec.dsn == ":memory:":
                return None  # process-local scratch store, no stable route
            return repr((self.BACKEND, spec.driver, spec.dsn, spec.table))
        key = self.stripe_key()
        if key is None:
            return None
        return repr(key)

    def version_hint(self) -> Optional[int]:
        """The mutation version of the database this reference resolves to.

        For in-memory references this is the live database's monotone
        version counter — the cache key component that a
        :class:`~repro.eval.deltas.FactDelta` bumps.  For other kinds it is
        the number of mutations applied to a memoised resolution *after* it
        was loaded (a caller may have mutated it in place); a fresh or
        unresolved reference answers ``0`` — its content fingerprint alone
        identifies the fact set.
        """
        if self.kind == self.MEMORY:
            return self._database.version
        if not self._resolved:
            return 0
        return max(
            database.version - self._loaded_versions.get(key, 0)
            for key, database in self._resolved.items()
        )

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolve(self, query: TwoAtomQuery, pushdown: bool = True) -> Database:
        """The dataset as an in-memory database, memoised per (query, pushdown).

        ``pushdown`` only affects SQLite references: with it (the default,
        and what the planner's ``sqlite-pushdown`` strategy selects) the
        rehydrated database arrives with the SQL-computed solution graph
        primed into its derived cache.
        """
        if self.kind == self.MEMORY:
            return self._database
        key = self._memo_key(query.schema, query, pushdown)
        resolved = self._resolved.get(key)
        if resolved is None:
            # The load-time fingerprint is captured *before* reading the
            # source: fingerprint() must keep describing the loaded content
            # even if the source changes while the memo is held, and a
            # source rewritten mid-request must never park the old
            # content's answer under the new content's identity.  The CSV
            # loader tightens this further by digesting the exact bytes it
            # parsed (no window at all); see _load.  Inline rows need no
            # capture: their digest always describes the rows the reference
            # holds, and a reference that loads its rows on first resolution
            # digests what it loaded.
            pre_load = (
                self._content_fingerprint()
                if self._loaded_fingerprint is None
                and self.kind not in (self.CSV, self.ROWS)
                else None
            )
            resolved = self._load(query, pushdown)
            self._resolved[key] = resolved
            # Remembered so version_hint() can report mutations-since-load.
            self._loaded_versions[key] = resolved.version
            if self._loaded_fingerprint is None:
                self._loaded_fingerprint = pre_load
        return resolved

    def _memo_key(
        self, schema: RelationSchema, query: TwoAtomQuery, pushdown: bool
    ) -> Hashable:
        if self.kind == self.SQLITE:
            # Pushdown primes per-query caches, so the memo is per query.
            return (schema, query if pushdown else None, pushdown)
        if self.kind == self.BACKEND:
            # The memo must go stale when the server-side content changes,
            # so the (cheap, server-computed) content signature is part of
            # the key: a changed table re-streams instead of serving the
            # old reduction.
            backend = self._ensure_backend(schema)
            return (
                schema,
                query if pushdown else None,
                pushdown,
                backend.content_signature(),
            )
        return schema

    def _load(self, query: TwoAtomQuery, pushdown: bool) -> Database:
        if self.kind == self.ROWS:
            database = Database()
            database.add_rows(query.schema, self._rows)
            return database
        if self.kind == self.BACKEND:
            backend = self._ensure_backend(query.schema)
            if pushdown:
                database, stats = reduced_streamed_database(
                    backend,
                    query,
                    batch_size=backend.batch_size,
                    server_facts=backend.count(),
                )
            else:
                database, stats = materialized_database(
                    backend, batch_size=backend.batch_size
                )
            self.last_reduction = stats
            return database
        if self.kind == self.CSV:
            # One read serves both the parse and the content digest, so the
            # cache identity describes exactly the bytes the facts came
            # from — a rewrite racing the load cannot split them.
            try:
                with open(self.path, "rb") as handle:
                    data = handle.read()
            except OSError as error:
                raise DatasetUnavailable(
                    f"CSV dataset cannot be read: {self.path!r} ({error})"
                )
            database = load_csv_text(
                data.decode("utf-8"),
                query.schema,
                has_header=self.has_header,
                source=self.path,
            )
            if self._loaded_fingerprint is None:
                digest = blake2b(data, digest_size=16).hexdigest()
                self._loaded_fingerprint = (self.CSV, self.path, self.has_header, digest)
            return database
        store = self._ensure_store(query.schema)
        if pushdown:
            return store.to_indexed_database(query)
        return store.to_database()

    def _ensure_store(self, schema: RelationSchema) -> SqliteFactStore:
        if self._store is None:
            # Opening a missing path would silently create an empty store
            # (sqlite3.connect + CREATE TABLE IF NOT EXISTS) and answer the
            # query over zero facts; a read reference must fail instead,
            # like the CSV path does.
            if self.path != ":memory:" and not Path(self.path).exists():
                raise DatasetUnavailable(
                    f"SQLite dataset does not exist: {self.path!r}"
                )
            from ..db.sqlite_backend import SqliteFactStore

            self._store = SqliteFactStore(schema, self.path)
            self._owns_store = True
        return self._store

    def close(self) -> None:
        """Release resources this reference opened itself (idempotent).

        Only SQLite stores opened from a path are closed — stores handed in
        by the caller stay theirs to manage.  Resolution memos are dropped
        either way, so a long-running session can bound its memory.
        """
        if self._owns_store and self._store is not None:
            self._store.close()
            self._store = None
            self._owns_store = False
        if self._owns_backend and self._backend is not None:
            self._backend.close()
            self._backend = None
            self._owns_backend = False
            self._ingested = False
        self._resolved.clear()
        self._loaded_versions.clear()
        self._loaded_fingerprint = None
        self._size_hint = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatasetRef({self.describe()})"


def dataset_refs_from_json(
    payload: Dict[str, object], base_dir: Optional[PathLike] = None
) -> List[DatasetRef]:
    """Extract the dataset references of one JSON request payload.

    Recognised keys: ``csv`` (path or list of paths), ``sqlite`` (path or
    list of paths), ``rows`` (a list of row-lists, one inline dataset),
    ``dbapi`` (a ``dbapi:`` / ``backend://`` connection spec or list of
    them).  A relative path is tried as given first, then against
    ``base_dir`` (the directory of the workload file), so workloads stay
    runnable from anywhere.  ``has_header`` applies to every CSV of the
    request.  Mistyped fields raise ``ValueError`` naming the field: every
    ``rows`` entry must be an array (a string row would otherwise split into
    its characters), and ``has_header`` a boolean.
    """
    refs: List[DatasetRef] = []
    has_header = json_flag(payload, "has_header", True)
    for path in _as_paths(payload.get("csv")):
        refs.append(DatasetRef.csv(_locate(path, base_dir), has_header=has_header))
    for path in _as_paths(payload.get("sqlite")):
        refs.append(DatasetRef.sqlite(_locate(path, base_dir)))
    for spec in _as_paths(payload.get("dbapi")):
        refs.append(DatasetRef.backend(spec, has_header=has_header))
    rows = payload.get("rows")
    if rows is not None:
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"'rows' must be an array of rows, got {type(rows).__name__}")
        for index, row in enumerate(rows):
            if not isinstance(row, (list, tuple)):
                raise ValueError(
                    f"'rows'[{index}] must be an array of values, got {type(row).__name__}"
                )
        refs.append(DatasetRef.inline_rows(rows))
    return refs


def json_flag(payload: Dict[str, object], field: str, default: bool) -> bool:
    """The boolean ``payload[field]``, ``default`` when absent or null.

    Raises ``ValueError`` naming the field for any other value: ``"no"`` or
    ``1`` must not count as true.
    """
    value = payload.get(field)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ValueError(f"'{field}' must be true or false, got {type(value).__name__}")
    return value


def _as_paths(value: object) -> List[str]:
    if value is None:
        return []
    if isinstance(value, (str, Path)):
        return [str(value)]
    return [str(item) for item in value]


def _locate(path: str, base_dir: Optional[PathLike]) -> str:
    candidate = Path(path)
    if candidate.exists() or base_dir is None:
        return str(candidate)
    relocated = Path(base_dir) / candidate
    return str(relocated) if relocated.exists() else str(candidate)
