"""The fact table of a database, and hash indexes over its fact ids.

A :class:`FactIndex` gives every distinct fact a dense integer id when it
is inserted: ids count up in insertion order, stay fixed while the fact is
present, and are never handed out again (re-inserting a removed fact gives
it a new id, and the old id keeps naming the removed fact).  Per id it
stores the value row and, once first requested, the
:class:`~repro.core.terms.Fact` — so a
bulk ingest of value rows (:meth:`repro.db.fact_store.Database.add_rows`)
builds no ``Fact`` at all.  A relation name has exactly one signature in a
table (Section 2); a second one is rejected.

On top of the ids, the index groups facts by *position patterns*: a pattern
is a tuple of positions, and the index maps every projection
``(row[p] for p in pattern)`` to the ids realising it.  This turns the "find
every fact that agrees with this partial assignment" step at the heart of
solution discovery into a single dictionary lookup instead of a scan over
the whole database.

The index is fully incremental: insertions and removals keep every
registered pattern up to date, and patterns registered after facts were
inserted are backfilled with one pass over the existing rows.  Insertion
order is preserved everywhere (buckets are insertion-ordered dicts), so
index-driven algorithms enumerate candidates in the same deterministic order
as the naive scans they replace.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.terms import Element, Fact, RelationSchema

Row = Tuple[Element, ...]
Pattern = Tuple[int, ...]
PatternKey = Tuple[str, Pattern]
ProbeKey = Tuple[Element, ...]


def probe_reader(positions: Pattern) -> Callable[[Sequence[Element]], ProbeKey]:
    """Reads the probe key ``tuple(values[p] for p in positions)`` off values."""
    if not positions:
        return lambda values: ()
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return itemgetter(*positions)


class FactIndex:
    """Dense fact ids with their rows, indexed by relation and position pattern."""

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        #: fact id -> value row (kept when the fact is removed).
        self.rows: List[Row] = []
        #: fact id -> its ``Fact``; ``None`` until first requested (and once removed).
        self.fact_of: List[Optional[Fact]] = []
        #: fact id -> its relation schema.
        self.schema_of: List[RelationSchema] = []
        #: relation name -> value row -> live fact id, in insertion order.
        self.ids: Dict[str, Dict[Row, int]] = {}
        #: relation name -> the one signature it has in this table.
        self.schemas: Dict[str, RelationSchema] = {}
        self._buckets: Dict[PatternKey, Dict[ProbeKey, Dict[int, None]]] = {}
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------ #
    # the table
    # ------------------------------------------------------------------ #
    def schema_ids(self, schema: RelationSchema) -> Dict[Row, int]:
        """The live ids of ``schema``'s relation, registering the relation.

        Raises ``ValueError`` when the name already has another signature.
        """
        known = self.schemas.get(schema.name)
        if known is None:
            self.schemas[schema.name] = schema
            ids = self.ids[schema.name] = {}
            return ids
        if known is not schema and known != schema:
            raise ValueError(
                f"relation {schema.name} has signature {known.describe()} here, "
                f"cannot add a fact over {schema.describe()}"
            )
        return self.ids[schema.name]

    def id_of(self, fact: Fact) -> Optional[int]:
        """The id of ``fact``, or ``None`` when it is not in the table."""
        schema = fact.schema
        known = self.schemas.get(schema.name)
        if known is None or (known is not schema and known != schema):
            return None
        return self.ids[schema.name].get(fact.values)

    def fact(self, fid: int) -> Fact:
        """The ``Fact`` of id ``fid``, built on first request and kept.

        A removed fact's id still names it: results computed before a
        removal (``CertKResult.delta``) can be read after it.
        """
        fact = self.fact_of[fid]
        if fact is None:
            fact = self.fact_of[fid] = Fact(self.schema_of[fid], self.rows[fid])
        return fact

    def is_live(self, fid: int) -> bool:
        """Whether id ``fid`` names a fact still in the table."""
        return self.ids[self.schema_of[fid].name].get(self.rows[fid]) == fid

    def add(self, fact: Fact) -> bool:
        """Insert a fact under the next id; False when it is present."""
        ids = self.schema_ids(fact.schema)
        values = fact.values
        if values in ids:
            return False
        fid = ids[values] = len(self.rows)
        self.rows.append(values)
        self.fact_of.append(fact)
        self.schema_of.append(fact.schema)
        self._insert(fact.schema.name, fid, fid + 1)
        return True

    def add_rows(self, schema: RelationSchema, rows: Iterable[Row]) -> Tuple[int, int]:
        """Insert value rows of ``schema`` without building ``Fact`` objects.

        Returns ``(start, end)``: the new ids are ``start .. end - 1``, one
        per distinct new row, in row order.  A row of the wrong arity or
        with an unhashable value raises the error ``Fact`` raises for it,
        and then none of the rows is inserted.
        """
        registered = schema.name in self.schemas
        ids = self.schema_ids(schema)
        table = self.rows
        start = len(table)
        arity = schema.arity
        try:
            for row in rows:
                if len(row) != arity:
                    raise ValueError(
                        f"fact over {schema.describe()} needs {arity} values, got {len(row)}"
                    )
                if row not in ids:
                    ids[row] = len(table)
                    table.append(row)
        except BaseException:
            for row in table[start:]:
                del ids[row]
            del table[start:]
            if not registered:
                del self.schemas[schema.name], self.ids[schema.name]
            raise
        end = len(table)
        self.fact_of.extend([None] * (end - start))
        self.schema_of.extend([schema] * (end - start))
        self._insert(schema.name, start, end)
        return start, end

    def discard(self, fact: Fact) -> bool:
        """Remove a fact from the table and every index; False when absent."""
        fid = self.id_of(fact)
        if fid is None:
            return False
        self.discard_id(fid)
        return True

    def discard_id(self, fid: int) -> None:
        """Remove the live id ``fid``; the id is never handed out again."""
        name = self.schema_of[fid].name
        values = self.rows[fid]
        del self.ids[name][values]
        for (bucket_name, positions), buckets in self._buckets.items():
            if bucket_name == name:
                probe = tuple(values[position] for position in positions)
                bucket = buckets.get(probe)
                if bucket is not None:
                    bucket.pop(fid, None)
                    if not bucket:
                        del buckets[probe]
        self.fact_of[fid] = None

    def _insert(self, name: str, start: int, end: int) -> None:
        """File the new ids ``start .. end - 1`` of relation ``name`` in every pattern."""
        rows = self.rows
        for (bucket_name, positions), buckets in self._buckets.items():
            if bucket_name == name:
                probe = probe_reader(positions)
                for fid in range(start, end):
                    buckets.setdefault(probe(rows[fid]), {})[fid] = None

    # ------------------------------------------------------------------ #
    # patterns
    # ------------------------------------------------------------------ #
    def register(self, schema_name: str, positions: Sequence[int]) -> None:
        """Ensure the pattern is indexed, backfilling from existing rows."""
        key = (schema_name, tuple(positions))
        if key in self._buckets:
            return
        buckets: Dict[ProbeKey, Dict[int, None]] = {}
        probe = probe_reader(key[1])
        for row, fid in self.ids.get(schema_name, {}).items():
            probe_key = probe(row)
            bucket = buckets.get(probe_key)
            if bucket is None:
                buckets[probe_key] = {fid: None}
            else:
                bucket[fid] = None
        self._buckets[key] = buckets

    def buckets(self, schema_name: str, positions: Sequence[int]) -> Dict[ProbeKey, Iterable[int]]:
        """The live probe-key → id bucket map of one pattern, registered on first use.

        The empty pattern maps ``()`` to every id of the relation.  The
        buckets are the index's own containers, handed out without a copy:
        read them only, and never across a mutation of the table.
        """
        pattern = tuple(positions)
        if not pattern:
            ids = self.ids.get(schema_name)
            return {(): ids.values()} if ids else {}
        key = (schema_name, pattern)
        buckets = self._buckets.get(key)
        if buckets is None:
            self.register(schema_name, pattern)
            buckets = self._buckets[key]
        return buckets

    def lookup(
        self, schema_name: str, positions: Sequence[int], values: Sequence[Element]
    ) -> List[Fact]:
        """Facts whose projection on ``positions`` equals ``values`` (a copy).

        The empty pattern returns every fact of the relation.  The pattern
        is registered (and backfilled) on first use.
        """
        bucket = self.buckets(schema_name, positions).get(tuple(values))
        return [self.fact(fid) for fid in bucket] if bucket else []

    def patterns(self) -> List[PatternKey]:
        """The registered (schema, positions) patterns (for introspection)."""
        return list(self._buckets)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, fact: Fact) -> bool:
        return self.id_of(fact) is not None

    def __len__(self) -> int:
        return sum(len(ids) for ids in self.ids.values())

    def __iter__(self) -> Iterator[Fact]:
        for ids in self.ids.values():
            for fid in ids.values():
                yield self.fact(fid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FactIndex(facts={len(self)}, schemas={len(self.ids)}, "
            f"patterns={len(self._buckets)})"
        )
