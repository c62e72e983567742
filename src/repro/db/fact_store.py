"""In-memory inconsistent database: facts, blocks and repairs.

A database is a finite set of facts (Section 2).  Facts sharing the same key
form a *block*; a *repair* picks exactly one fact from every block.  The
:class:`Database` class is the central substrate used by every algorithm in
the library.

Beyond the set semantics, the class maintains evaluation infrastructure
incrementally on every mutation:

* a :class:`~repro.eval.fact_index.FactIndex` (schema and position-pattern
  hash indexes) that the indexed evaluation layer probes instead of scanning
  all facts;
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

from collections import OrderedDict
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
    """A maximal set of key-equal facts.

    Facts are stored in an insertion-ordered dict so that membership tests
    and removals are O(1) while enumeration order stays deterministic.  The
    :attr:`facts` property exposes them as a cached tuple: read access stays
    cheap on the hot paths that index into blocks repeatedly, and attempts
    to mutate the sequence fail loudly instead of silently bypassing the
    database's indexes (mutations must go through :class:`Database`).
    """

    __slots__ = ("block_id", "_facts", "_facts_view")

    def __init__(self, block_id: BlockId, facts: Iterable[Fact] = ()) -> None:
        self.block_id = block_id
        self._facts: Dict[Fact, None] = dict.fromkeys(facts)
        self._facts_view: Optional[Tuple[Fact, ...]] = None

    @property
    def facts(self) -> Tuple[Fact, ...]:
        if self._facts_view is None:
            self._facts_view = tuple(self._facts)
        return self._facts_view

    @property
    def key_tuple(self) -> Tuple[Element, ...]:
        return self.block_id[1]

    @property
    def size(self) -> int:
        return len(self._facts)

    def is_consistent(self) -> bool:
        """A block is consistent when it contains a single fact."""
        return len(self._facts) == 1

    def _add(self, fact: Fact) -> None:
        self._facts[fact] = None
        self._facts_view = None

    def _discard(self, fact: Fact) -> None:
        self._facts.pop(fact, None)
        self._facts_view = None

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __repr__(self) -> str:
        return f"Block(block_id={self.block_id!r}, facts={self.facts!r})"


class Database:
    """A finite set of facts partitioned into blocks.

    The insertion order of facts is preserved (it makes repair enumeration
    and error messages deterministic), duplicates are ignored, and facts may
    span several relation schemas — although the paper only ever needs one,
    the reduction of Proposition 4.1 temporarily uses two.
    """

    #: Pending deltas tolerated per cached structure before a rebuild is
    #: cheaper than the replay; overridable per instance (see tests/bench).
    delta_backlog_limit = 256

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._facts: "OrderedDict[Fact, None]" = OrderedDict()
        self._blocks: "OrderedDict[BlockId, Block]" = OrderedDict()
        self._index = FactIndex()
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
        if fact in self._facts:
            return False
        self._facts[fact] = None
        block = self._blocks.get(fact.block_id())
        if block is None:
            block = Block(fact.block_id())
            self._blocks[fact.block_id()] = block
        block._add(fact)
        self._index.add(fact)
        self._emit(ADD, fact)
        return True

    def add_all(self, facts: Iterable[Fact]) -> int:
        """Insert many facts; returns the number of new facts."""
        return sum(1 for fact in facts if self.add(fact))

    def remove(self, fact: Fact) -> bool:
        """Remove a fact; returns False when it was not present."""
        if fact not in self._facts:
            return False
        del self._facts[fact]
        block = self._blocks[fact.block_id()]
        block._discard(fact)
        if not len(block):
            del self._blocks[fact.block_id()]
        self._index.discard(fact)
        self._emit(REMOVE, fact)
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

    def _emit(self, op: str, fact: Fact) -> None:
        """Bump the version and route the delta through the pipeline.

        Cached structures with a maintainer receive the delta in their
        pending queue (replayed lazily on the next read); structures without
        one are invalidated as in PR 1.  Registered listeners observe every
        delta synchronously, in registration order.  The
        :class:`~repro.eval.deltas.FactDelta` is only built when a cache
        entry or a listener will receive it, so filling a fresh database
        costs no event objects.
        """
        self._version += 1
        if not (self._derived or self._delta_listeners):
            return
        delta = FactDelta(op, fact)
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
        return list(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return set(self._facts) == set(other._facts)

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        return hash(frozenset(self._facts))

    def schemas(self) -> List[RelationSchema]:
        """The distinct relation schemas appearing in the database."""
        seen: "OrderedDict[RelationSchema, None]" = OrderedDict()
        for fact in self._facts:
            seen.setdefault(fact.schema, None)
        return list(seen)

    def blocks(self) -> List[Block]:
        """All blocks, in order of first insertion."""
        return list(self._blocks.values())

    def block_of(self, fact: Fact) -> Block:
        """The block containing ``fact``."""
        block = self._blocks.get(fact.block_id())
        if block is None or fact not in block:
            raise KeyError(f"fact {fact} is not in the database")
        return block

    def block_by_id(self, block_id: BlockId) -> Optional[Block]:
        return self._blocks.get(block_id)

    def siblings(self, fact: Fact) -> List[Fact]:
        """Facts key-equal to ``fact`` (including ``fact`` itself)."""
        return list(self.block_of(fact).facts)

    def block_count(self) -> int:
        return len(self._blocks)

    def is_consistent(self) -> bool:
        """No two distinct key-equal facts."""
        return all(block.is_consistent() for block in self._blocks.values())

    def inconsistent_blocks(self) -> List[Block]:
        return [block for block in self._blocks.values() if not block.is_consistent()]

    def active_domain(self) -> FrozenSet[Element]:
        """All elements appearing anywhere in the database."""
        elements: set = set()
        for fact in self._facts:
            elements.update(fact.values)
        return frozenset(elements)

    def restrict(self, facts: Iterable[Fact]) -> "Database":
        """The sub-database induced by the given facts (must all be present)."""
        subset = Database()
        for fact in facts:
            if fact not in self._facts:
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
                size = block.size
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
        for block in self._blocks.values():
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
