"""In-memory inconsistent database: facts, blocks and repairs.

A database is a finite set of facts (Section 2).  Facts sharing the same key
form a *block*; a *repair* picks exactly one fact from every block.  The
:class:`Database` class is the central substrate used by every algorithm in
the library.

Beyond the set semantics, the class maintains evaluation infrastructure
incrementally on every mutation:

* dense fact ids: a :class:`~repro.eval.fact_index.FactIndex` gives every
  distinct fact an id at insert and holds its value row, the database keeps
  each id's block, and the derived structures run on these ids (``Fact``
  objects are built on first request);
* the index's schema and position-pattern hash indexes over the ids, which
  the indexed evaluation layer probes instead of scanning all facts;
* a *version counter* bumped on every successful ``add``/``remove``;
* a keyed cache of derived structures (e.g. the solution graph of a query)
  kept consistent through the *delta pipeline*: every mutation that a cached
  structure or a listener will receive emits a typed
  :class:`~repro.eval.deltas.FactDelta`, and cached structures registered
  with a maintainer absorb the pending deltas lazily at read time instead of
  being invalidated and rebuilt (see :mod:`repro.eval.deltas`).  Structures
  without a maintainer keep the PR 1 invalidate-on-mutation behaviour.

Every cache transition is counted — builds, rebuilds, maintained deltas,
``DeltaUnsupported`` fallbacks, backlog evictions and invalidations — per
cache key (:meth:`Database.derived_cache_stats`) and process-wide
(:func:`derived_cache_totals`, surfaced by the server's ``stats`` op), so
"the hot path never rebuilds" is an observable invariant, not a hope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.terms import Element, Fact, RelationSchema
from ..eval.deltas import ADD, REMOVE, DeltaUnsupported, FactDelta
from ..eval.fact_index import FactIndex

BlockId = Tuple[str, Tuple[Element, ...]]

#: A maintainer: ``(database, value, delta) -> value`` (see repro.eval.deltas).
DeltaMaintainer = Callable[["Database", object, FactDelta], object]

#: Counter fields tracked per derived-cache key (see ``derived_cache_stats``):
#: ``builds`` first-time builder/prime calls, ``rebuilds`` any later builder
#: call, ``maintained_deltas`` deltas absorbed by a maintainer, ``unsupported_deltas``
#: replays aborted by :class:`~repro.eval.deltas.DeltaUnsupported`,
#: ``backlog_evictions`` entries dropped for exceeding ``delta_backlog_limit``,
#: ``invalidations`` maintainerless or explicit drops.
_COUNTER_FIELDS = (
    "builds",
    "rebuilds",
    "maintained_deltas",
    "unsupported_deltas",
    "backlog_evictions",
    "invalidations",
)

#: Process-wide aggregate of derived-cache activity across every Database,
#: keyed by structure label (e.g. ``"solution_graph"``, ``"bipartite_matching"``).
#: Multiprocessing pool workers keep their own aggregate — the totals
#: surfaced by a server's ``stats`` op describe that server's process.
_DERIVED_TOTALS: Dict[str, Dict[str, int]] = {}


def _structure_label(key: Hashable) -> str:
    """The structure family of a cache key: tuple keys lead with a label."""
    if isinstance(key, tuple) and key and isinstance(key[0], str):
        return key[0]
    return str(key)


def derived_cache_totals() -> Dict[str, Dict[str, int]]:
    """A snapshot of the process-wide derived-cache counters, by structure."""
    return {label: dict(counters) for label, counters in _DERIVED_TOTALS.items()}


def reset_derived_cache_totals() -> None:
    """Zero the process-wide aggregate (benchmark/test isolation helper)."""
    _DERIVED_TOTALS.clear()


@dataclass
class _DerivedEntry:
    """One cached derived structure plus its incremental-maintenance state."""

    version: int
    value: object
    maintainer: Optional[DeltaMaintainer] = None
    pending: List[FactDelta] = field(default_factory=list)


class Block:
    """A maximal set of key-equal facts, held as the live fact ids of one block.

    ``index`` is the block's dense index in its database: block indices
    count up in creation order and are never reused, like fact ids.  ``ids``
    maps the member ids to ``None`` in insertion order (an O(1) membership
    test and removal with a deterministic enumeration order).  The
    :attr:`facts` property exposes the members as a cached tuple of
    ``Fact`` objects, built on first read: attempts to mutate the sequence
    fail loudly instead of silently bypassing the database's indexes
    (mutations must go through :class:`Database`).
    """

    __slots__ = ("block_id", "index", "ids", "_table", "_facts_view")

    def __init__(self, block_id: BlockId, index: int, table: FactIndex) -> None:
        self.block_id = block_id
        self.index = index
        self.ids: Dict[int, None] = {}
        self._table = table
        self._facts_view: Optional[Tuple[Fact, ...]] = None

    @property
    def facts(self) -> Tuple[Fact, ...]:
        if self._facts_view is None:
            fact = self._table.fact
            self._facts_view = tuple(fact(fid) for fid in self.ids)
        return self._facts_view

    @property
    def key_tuple(self) -> Tuple[Element, ...]:
        return self.block_id[1]

    @property
    def size(self) -> int:
        return len(self.ids)

    def is_consistent(self) -> bool:
        """A block is consistent when it contains a single fact."""
        return len(self.ids) == 1

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, fact: Fact) -> bool:
        return self._table.id_of(fact) in self.ids

    def __repr__(self) -> str:
        return f"Block(block_id={self.block_id!r}, facts={self.facts!r})"


class Database:
    """A finite set of facts partitioned into blocks.

    The insertion order of facts is preserved (it makes repair enumeration
    and error messages deterministic), duplicates are ignored, and facts may
    span several relation schemas — although the paper only ever needs one,
    the reduction of Proposition 4.1 temporarily uses two.  A relation name
    has one signature (Section 2): a fact of a second signature for a known
    name is rejected with ``ValueError``.

    Every distinct fact gets a dense integer id at insert (see
    :class:`~repro.eval.fact_index.FactIndex`, which holds the rows): ids
    follow insertion order, stay fixed for the fact's life and are never
    reused.  The database stores each fact's block by id, and the derived
    structures of the algorithm stack run on these ids; ``Fact`` objects are
    built on first request (:meth:`fact`) and kept, and a ``Fact`` passed to
    :meth:`add` is the one kept.
    """

    #: Pending deltas tolerated per cached structure before a rebuild is
    #: cheaper than the replay; overridable per instance (see tests/bench).
    delta_backlog_limit = 256

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._index = FactIndex()
        #: fact id -> block index (kept after the fact leaves, for replays).
        self._block_of: List[int] = []
        #: block index -> Block, the live blocks only, in creation order.
        self._blocks: Dict[int, Block] = {}
        self._next_block = 0
        #: relation name -> key tuple -> index of the live block.
        self._block_keys: Dict[str, Dict[Tuple[Element, ...], int]] = {}
        self._version = 0
        self._derived: Dict[Hashable, _DerivedEntry] = {}
        self._derived_stats: Dict[Hashable, Dict[str, int]] = {}
        self._delta_listeners: List[Callable[[FactDelta], None]] = []
        #: (version, max_block_size, repair_count) — the block-profile scan,
        #: memoised per version so answer envelopes on the serving hot path
        #: do not pay an O(blocks) sweep per request.
        self._block_profile = (-1, 0, 1)
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, fact: Fact) -> bool:
        """Insert a fact; returns False when it was already present."""
        index = self._index
        if not index.add(fact):
            return False
        fid = len(index.rows) - 1
        self._file(fact.schema, fid, fid + 1)
        self._emit(ADD, fid, fact)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns the number of new facts."""
        return sum(1 for fact in facts if self.add(fact))

    def add_rows(self, schema: RelationSchema, rows: Iterable[Tuple[Element, ...]]) -> int:
        """Insert value rows over ``schema``; returns the number of new facts.

        The bulk ingest: the same facts, ids, order, version and errors as
        ``add_all(Fact(schema, row) for row in rows)``, but no ``Fact`` is
        built.  Rows must be tuples.  A row of the wrong arity or with an
        unhashable value raises the error ``Fact`` would raise, and then no
        row of the call is inserted.
        """
        index = self._index
        start, end = index.add_rows(schema, rows)
        self._file(schema, start, end)
        if self._derived or self._delta_listeners:
            for fid in range(start, end):
                self._emit(ADD, fid, None)
        else:
            self._version += end - start
        return end - start

    def _file(self, schema: RelationSchema, start: int, end: int) -> None:
        """Put the new ids ``start .. end - 1`` of ``schema`` into their blocks."""
        name = schema.name
        key_size = schema.key_size
        keys = self._block_keys.get(name)
        if keys is None:
            keys = self._block_keys[name] = {}
        rows = self._index.rows
        blocks = self._blocks
        block_of = self._block_of
        for fid in range(start, end):
            key = rows[fid][:key_size]
            number = keys.get(key)
            if number is None:
                number = keys[key] = self._next_block
                self._next_block += 1
                block = blocks[number] = Block((name, key), number, self._index)
            else:
                block = blocks[number]
                block._facts_view = None
            block.ids[fid] = None
            block_of.append(number)

    def remove(self, fact: Fact) -> bool:
        """Remove a fact; returns False when it was not present."""
        fid = self._index.id_of(fact)
        if fid is None:
            return False
        number = self._block_of[fid]
        block = self._blocks[number]
        del block.ids[fid]
        block._facts_view = None
        if not block.ids:
            name, key = block.block_id
            del self._block_keys[name][key]
            del self._blocks[number]
        self._index.discard_id(fid)
        self._emit(REMOVE, fid, fact)
        return True

    def copy(self) -> "Database":
        return Database(self.facts())

    @classmethod
    def union(cls, *databases: "Database") -> "Database":
        merged = cls()
        for database in databases:
            merged.add_all(database.facts())
        return merged

    # ------------------------------------------------------------------ #
    # fact ids
    # ------------------------------------------------------------------ #
    def id_of(self, fact: Fact) -> Optional[int]:
        """The id of ``fact``, or ``None`` when it is not in the database."""
        return self._index.id_of(fact)

    def fact(self, fid: int) -> Fact:
        """The ``Fact`` with id ``fid`` (built on first request, then kept).

        An id keeps naming its fact after the fact is removed.
        """
        return self._index.fact(fid)

    def ids(self) -> List[int]:
        """The live fact ids, in insertion order."""
        tables = self._index.ids
        if len(tables) == 1:
            for ids in tables.values():
                return list(ids.values())
        return sorted(fid for ids in tables.values() for fid in ids.values())

    @property
    def fact_blocks(self) -> List[int]:
        """fact id -> block index, as the database's own list (read only).

        A removed fact keeps its entry, so a delta replayed after the
        removal still finds the fact's block.
        """
        return self._block_of

    @property
    def block_table(self) -> Dict[int, Block]:
        """block index -> live :class:`Block`, the database's own dict (read only)."""
        return self._blocks

    # ------------------------------------------------------------------ #
    # indexing and derived-structure caching
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> FactIndex:
        """The incrementally maintained hash index over the facts."""
        return self._index

    @property
    def version(self) -> int:
        """Monotone counter bumped on every successful mutation."""
        return self._version

    def _emit(self, op: str, fid: int, fact: Optional[Fact]) -> None:
        """Bump the version and route the delta through the pipeline.

        Cached structures with a maintainer receive the delta in their
        pending queue (replayed lazily on the next read); structures without
        one are invalidated as in PR 1.  Registered listeners observe every
        delta synchronously, in registration order.  The
        :class:`~repro.eval.deltas.FactDelta` is only built when a cache
        entry or a listener will receive it, so filling a fresh database
        costs no event objects (and a bulk ingest no ``Fact`` either).
        """
        self._version += 1
        if not (self._derived or self._delta_listeners):
            return
        delta = FactDelta(op, fact if fact is not None else self._index.fact(fid), fid)
        if self._derived:
            stale = []
            for key, entry in self._derived.items():
                if entry.maintainer is None:
                    stale.append(key)
                    self._count(key, "invalidations")
                    continue
                entry.pending.append(delta)
                if len(entry.pending) > self.delta_backlog_limit:
                    stale.append(key)
                    self._count(key, "backlog_evictions")
            for key in stale:
                del self._derived[key]
        for listener in self._delta_listeners:
            listener(delta)

    def add_delta_listener(self, listener: Callable[[FactDelta], None]) -> None:
        """Subscribe to the typed delta stream of this database.

        Listeners are synchronous and must not mutate the database.  They are
        not carried across :meth:`copy` or pickling (parallel workers receive
        a listener-free database).
        """
        self._delta_listeners.append(listener)

    def remove_delta_listener(self, listener: Callable[[FactDelta], None]) -> None:
        self._delta_listeners.remove(listener)

    def cached(
        self,
        key: Hashable,
        builder: Callable[["Database"], object],
        maintainer: Optional[DeltaMaintainer] = None,
    ) -> object:
        """Return the derived structure for ``key``, replaying deltas when stale.

        ``builder`` receives the database; keys must be hashable and should
        identify both the structure and its parameters (e.g.
        ``("solution_graph", query)``).  With a ``maintainer`` the cached
        value survives mutations: pending deltas are replayed through
        ``maintainer(database, value, delta)`` on the next read, in place —
        the returned object is a live view.  A maintainer raising
        :class:`~repro.eval.deltas.DeltaUnsupported` (which must leave the
        value untouched, see :mod:`repro.eval.deltas`) or a backlog beyond
        :attr:`delta_backlog_limit` falls back to a full rebuild, so
        incrementality never changes results.  Identity caveat: a rebuild
        returns a *new* object, so live-view identity only holds while
        mutation bursts stay within the backlog limit — re-read through
        :meth:`cached` after mutating instead of holding the object across
        mutations.
        """
        entry = self._derived.get(key)
        if entry is not None:
            if entry.version == self._version:
                if entry.maintainer is None and maintainer is not None:
                    entry.maintainer = maintainer
                return entry.value
            if entry.maintainer is not None and entry.pending:
                try:
                    value = entry.value
                    for delta in entry.pending:
                        value = entry.maintainer(self, value, delta)
                except DeltaUnsupported:
                    self._count(key, "unsupported_deltas")
                else:
                    self._count(key, "maintained_deltas", len(entry.pending))
                    entry.value = value
                    entry.version = self._version
                    entry.pending.clear()
                    return value
        stats = self._derived_stats.get(key)
        seen = stats is not None and (stats["builds"] or stats["rebuilds"])
        self._count(key, "rebuilds" if seen else "builds")
        value = builder(self)
        self._derived[key] = _DerivedEntry(self._version, value, maintainer)
        return value

    def prime_cache(
        self,
        key: Hashable,
        value: object,
        maintainer: Optional[DeltaMaintainer] = None,
    ) -> None:
        """Install a precomputed derived structure (e.g. pushed down from SQL)."""
        stats = self._derived_stats.get(key)
        seen = stats is not None and (stats["builds"] or stats["rebuilds"])
        self._count(key, "rebuilds" if seen else "builds")
        self._derived[key] = _DerivedEntry(self._version, value, maintainer)

    def invalidate_derived(self, key: Optional[Hashable] = None) -> None:
        """Drop one cached derived structure (or all of them).

        Forces the next :meth:`cached` read to rebuild from scratch; used by
        the benchmarks to compare delta replay against the PR 1
        invalidate-all behaviour, and available as an escape hatch.
        """
        if key is None:
            for stale in list(self._derived):
                self._count(stale, "invalidations")
            self._derived.clear()
        elif self._derived.pop(key, None) is not None:
            self._count(key, "invalidations")

    # ------------------------------------------------------------------ #
    # derived-cache observability
    # ------------------------------------------------------------------ #
    def _count(self, key: Hashable, field: str, amount: int = 1) -> None:
        """Bump one derived-cache counter, per key and process-wide.

        Counters outlive the cache entries themselves (an eviction must stay
        visible after the entry is gone).  Increments are plain dict updates
        — atomic under the GIL, which is all the observability contract
        needs; the server pool additionally serialises same-dataset access.
        """
        if not amount:
            return
        stats = self._derived_stats.get(key)
        if stats is None:
            stats = self._derived_stats[key] = dict.fromkeys(_COUNTER_FIELDS, 0)
        stats[field] += amount
        label = _structure_label(key)
        totals = _DERIVED_TOTALS.get(label)
        if totals is None:
            totals = _DERIVED_TOTALS[label] = dict.fromkeys(_COUNTER_FIELDS, 0)
        totals[field] += amount

    def derived_cache_stats(self, by: str = "structure") -> Dict[str, Dict[str, int]]:
        """Counters of derived-cache activity on this database.

        ``by="structure"`` (default) aggregates keys sharing a structure
        label — the first element of tuple cache keys, e.g. every
        ``("solution_graph", query)`` under ``"solution_graph"`` — which is
        the shape the benchmarks and the server's ``stats`` op assert on
        ("zero ``bipartite_matching`` rebuilds").  ``by="key"`` returns one
        entry per exact cache key, stringified for JSON friendliness.
        """
        if by == "key":
            return {
                str(key): dict(counters)
                for key, counters in self._derived_stats.items()
            }
        if by != "structure":
            raise ValueError(f"unknown grouping {by!r} (use 'structure' or 'key')")
        grouped: Dict[str, Dict[str, int]] = {}
        for key, counters in self._derived_stats.items():
            bucket = grouped.setdefault(
                _structure_label(key), dict.fromkeys(_COUNTER_FIELDS, 0)
            )
            for field, amount in counters.items():
                bucket[field] += amount
        return grouped

    def derived_backlog(self) -> int:
        """The largest pending-delta queue over the cached structures.

        Zero on a freshly read (or never mutated) database; the cost model
        uses it to price the maintenance work the next read will perform.
        """
        return max(
            (len(entry.pending) for entry in self._derived.values()), default=0
        )

    def __getstate__(self) -> Dict[str, object]:
        # Delta listeners are process-local observers (often closures); the
        # derived cache and its maintainers travel with the database, so a
        # pickled copy keeps its primed structures.  (Pool workers never
        # receive a pickled database: ``explain_many`` ships fact lists.)
        # Cache-identity markers (the service layer's fingerprint token and
        # the answer cache's watcher set) must not travel either: a pickled
        # copy is a *different* database that has no delta listener, so
        # letting it alias the original's cache identity could serve stale
        # answers after the copy diverges.
        state = dict(self.__dict__)
        state["_delta_listeners"] = []
        state.pop("_repro_fingerprint_token", None)
        state.pop("_repro_cache_watchers", None)
        return state

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def facts(self) -> List[Fact]:
        """All facts, in insertion order."""
        fact = self._index.fact
        return [fact(fid) for fid in self.ids()]

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts())

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, fact: Fact) -> bool:
        return self._index.id_of(fact) is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return set(self.facts()) == set(other.facts())

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(frozenset(self.facts()))

    def schemas(self) -> List[RelationSchema]:
        """The distinct relation schemas appearing in the database."""
        index = self._index
        live = [(next(iter(ids.values())), name) for name, ids in index.ids.items() if ids]
        return [index.schemas[name] for _, name in sorted(live)]

    def blocks(self) -> List[Block]:
        """All blocks, in order of first insertion."""
        return list(self._blocks.values())

    def block_of(self, fact: Fact) -> Block:
        """The block containing ``fact``."""
        fid = self._index.id_of(fact)
        if fid is None:
            raise KeyError(f"fact {fact} is not in the database")
        return self._blocks[self._block_of[fid]]

    def block_by_id(self, block_id: BlockId) -> Optional[Block]:
        name, key = block_id
        number = self._block_keys.get(name, {}).get(key)
        return None if number is None else self._blocks[number]

    def siblings(self, fact: Fact) -> List[Fact]:
        """Facts key-equal to ``fact`` (including ``fact`` itself)."""
        return list(self.block_of(fact).facts)

    def block_count(self) -> int:
        return len(self._blocks)

    def is_consistent(self) -> bool:
        """No two distinct key-equal facts."""
        return all(block.is_consistent() for block in self.blocks())

    def inconsistent_blocks(self) -> List[Block]:
        return [block for block in self.blocks() if not block.is_consistent()]

    def active_domain(self) -> FrozenSet[Element]:
        """All elements appearing anywhere in the database."""
        elements: set = set()
        rows = self._index.rows
        for fid in self.ids():
            elements.update(rows[fid])
        return frozenset(elements)

    def restrict(self, facts: Iterable[Fact]) -> "Database":
        """The sub-database induced by the given facts (must all be present)."""
        subset = Database()
        for fact in facts:
            if fact not in self:
                raise KeyError(f"fact {fact} is not in the database")
            subset.add(fact)
        return subset

    def _block_stats(self) -> Tuple[int, int]:
        """``(max_block_size, repair_count)``, scanned once per version."""
        version, max_block, repairs = self._block_profile
        if version != self._version:
            max_block = 0
            repairs = 1
            for block in self._blocks.values():
                size = len(block.ids)
                if size > max_block:
                    max_block = size
                repairs *= size
            self._block_profile = (self._version, max_block, repairs)
        return max_block, repairs

    def repair_count(self) -> int:
        """Number of repairs (the product of the block sizes)."""
        return self._block_stats()[1]

    def max_block_size(self) -> int:
        return self._block_stats()[0]

    def describe(self) -> str:
        """A short human readable summary used by the benchmark reports."""
        return (
            f"Database(facts={len(self)}, blocks={self.block_count()}, "
            f"max_block={self.max_block_size()}, repairs={self.repair_count()})"
        )

    def describe_dict(self) -> Dict[str, int]:
        """The :meth:`describe` shape as a JSON-ready dict, plus the version.

        Used by the service layer's answer envelopes: the ``version`` field
        lets a client correlate an answer with the mutation state of the
        database it was computed against.
        """
        return {
            "facts": len(self),
            "blocks": self.block_count(),
            "max_block": self.max_block_size(),
            "repairs": self.repair_count(),
            "version": self.version,
        }

    def pretty(self) -> str:
        """Multi-line rendering grouped by block."""
        lines = []
        for block in self.blocks():
            rendered = ", ".join(str(fact) for fact in block)
            lines.append(f"  block {block.key_tuple}: {rendered}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class Repair:
    """A repair: one fact chosen from every block of the original database."""

    facts: Tuple[Fact, ...]

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __len__(self) -> int:
        return len(self.facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self.facts

    def as_set(self) -> FrozenSet[Fact]:
        return frozenset(self.facts)

    def replace(self, old: Fact, new: Fact) -> "Repair":
        """The paper's ``r[a -> a']`` operation (new must be key-equal to old)."""
        if old not in self.facts:
            raise KeyError(f"{old} is not part of the repair")
        if not old.key_equal(new):
            raise ValueError("replacement fact must be key-equal to the original")
        return Repair(tuple(new if fact == old else fact for fact in self.facts))


def is_repair_of(candidate: Sequence[Fact], database: Database) -> bool:
    """Check that ``candidate`` is a repair of ``database``.

    The candidate must be a subset of the database, contain exactly one fact
    per block, and cover every block.
    """
    chosen: Dict[BlockId, Fact] = {}
    for fact in candidate:
        if fact not in database:
            return False
        block_id = fact.block_id()
        if block_id in chosen and chosen[block_id] != fact:
            return False
        chosen[block_id] = fact
    return len(chosen) == database.block_count() and len(candidate) == database.block_count()
