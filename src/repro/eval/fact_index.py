"""Hash indexes over sets of facts.

A :class:`FactIndex` holds facts grouped by relation schema and, on demand,
by *position patterns*: a pattern is a tuple of positions, and the index maps
every projection ``(fact[p] for p in pattern)`` to the facts realising it.
This turns the "find every fact that agrees with this partial assignment"
step at the heart of solution discovery into a single dictionary lookup
instead of a scan over the whole database.

The index is fully incremental: :meth:`add` and :meth:`discard` keep every
registered pattern up to date, and patterns registered after facts were
inserted are backfilled with one pass over the existing facts.  Insertion
order is preserved everywhere (buckets are insertion-ordered dicts), so
index-driven algorithms enumerate candidates in the same deterministic order
as the naive scans they replace.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from ..core.terms import Element, Fact

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
    """Facts indexed by schema name and by registered position patterns."""

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._by_schema: Dict[str, Dict[Fact, None]] = {}
        self._buckets: Dict[PatternKey, Dict[ProbeKey, Dict[Fact, None]]] = {}
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------ #
    # maintenance
    # ------------------------------------------------------------------ #
    def add(self, fact: Fact) -> bool:
        """Insert a fact into every applicable index; False when present."""
        schema_facts = self._by_schema.setdefault(fact.schema.name, {})
        if fact in schema_facts:
            return False
        schema_facts[fact] = None
        for (name, positions), buckets in self._buckets.items():
            if name == fact.schema.name:
                values = fact.values
                probe = tuple(values[position] for position in positions)
                buckets.setdefault(probe, {})[fact] = None
        return True

    def discard(self, fact: Fact) -> bool:
        """Remove a fact from every applicable index; False when absent."""
        schema_facts = self._by_schema.get(fact.schema.name)
        if schema_facts is None or fact not in schema_facts:
            return False
        del schema_facts[fact]
        for (name, positions), buckets in self._buckets.items():
            if name == fact.schema.name:
                values = fact.values
                probe = tuple(values[position] for position in positions)
                bucket = buckets.get(probe)
                if bucket is not None:
                    bucket.pop(fact, None)
                    if not bucket:
                        del buckets[probe]
        return True

    def register(self, schema_name: str, positions: Sequence[int]) -> None:
        """Ensure the pattern is indexed, backfilling from existing facts."""
        key = (schema_name, tuple(positions))
        if key in self._buckets:
            return
        buckets: Dict[ProbeKey, Dict[Fact, None]] = {}
        probe = probe_reader(key[1])
        for fact in self._by_schema.get(schema_name, ()):
            buckets.setdefault(probe(fact.values), {})[fact] = None
        self._buckets[key] = buckets

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def lookup(
        self, schema_name: str, positions: Sequence[int], values: Sequence[Element]
    ) -> List[Fact]:
        """Facts whose projection on ``positions`` equals ``values`` (a copy).

        The empty pattern returns every fact of the schema.  The pattern is
        registered (and backfilled) on first use.
        """
        bucket = self.buckets(schema_name, positions).get(tuple(values))
        return list(bucket) if bucket else []

    def buckets(
        self, schema_name: str, positions: Sequence[int]
    ) -> Dict[ProbeKey, Dict[Fact, None]]:
        """The live probe-key → bucket map of one pattern, registered on first use.

        The empty pattern maps ``()`` to every fact of the schema.  The
        buckets are the index's own dicts, handed out without a copy: read
        them only, and never across a mutation of the index.
        """
        pattern = tuple(positions)
        if not pattern:
            facts = self._by_schema.get(schema_name)
            return {(): facts} if facts else {}
        key = (schema_name, pattern)
        buckets = self._buckets.get(key)
        if buckets is None:
            self.register(schema_name, pattern)
            buckets = self._buckets[key]
        return buckets

    def patterns(self) -> List[PatternKey]:
        """The registered (schema, positions) patterns (for introspection)."""
        return list(self._buckets)

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __contains__(self, fact: Fact) -> bool:
        schema_facts = self._by_schema.get(fact.schema.name)
        return schema_facts is not None and fact in schema_facts

    def __len__(self) -> int:
        return sum(len(facts) for facts in self._by_schema.values())

    def __iter__(self) -> Iterator[Fact]:
        for schema_facts in self._by_schema.values():
            yield from schema_facts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FactIndex(facts={len(self)}, schemas={len(self._by_schema)}, "
            f"patterns={len(self._buckets)})"
        )
