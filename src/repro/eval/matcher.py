"""Compiled probes finding the solution partners of one fact.

Solution discovery for a two-atom query ``q = A B`` asks, for a fact playing
one atom (the *source*), for every fact that plays the other atom (the
*target*) under the same assignment.  The naive substrate scans all facts
for the partner.  :class:`AtomMatcher` compiles one (source, target) pair of
atoms once per query instead:

* the *probe*: every target variable that the source binds contributes its
  first target position to the index pattern and its first source position
  to the key, so the key is read straight off the source fact's values.
  Every partner lies in that bucket of a
  :class:`~repro.eval.fact_index.FactIndex` (the whole schema when the atoms
  share no variable), so the lookup is complete;
* the *checks*: each atom's repeated variables become position-pair
  equalities, tested on the source fact before probing and on every bucket
  member after.  A table holds one signature per relation name, so the
  schema check is one comparison per call.

Probes run on the dense fact ids of a
:class:`~repro.eval.fact_index.FactIndex` and read value rows straight from
its table: no ``Fact`` is built or hashed.

No assignment dict is built per fact.  Buckets are iterated in place, without
a copy, so callers must not mutate the index while they consume
:meth:`AtomMatcher.partners` or :meth:`AtomMatcher.pairs`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.terms import Atom, Element
from .fact_index import FactIndex, probe_reader

#: Tests a fact's values against an atom's repeated variables.
ValuesTest = Callable[[Tuple[Element, ...]], bool]


def _compile_atom(atom: Atom) -> Tuple[Dict[str, int], Optional[ValuesTest]]:
    """Each variable's first position, plus a test of the repeated ones.

    The test compares the values at every later occurrence of a variable
    with the value at its first; it is ``None`` when no variable repeats.
    """
    first: Dict[str, int] = {}
    repeats: List[Tuple[int, int]] = []
    for position, variable in enumerate(atom.variables):
        if variable in first:
            repeats.append((first[variable], position))
        else:
            first[variable] = position
    if not repeats:
        return first, None
    left = itemgetter(*(i for i, _ in repeats))
    right = itemgetter(*(j for _, j in repeats))
    return first, lambda values: left(values) == right(values)


class AtomMatcher:
    """The compiled probe from a fact playing ``source`` to facts playing ``target``.

    ``partners(index, a)`` lists every id ``b`` in ``index`` such that one
    assignment maps ``source`` to ``a`` and ``target`` to ``b``; with
    ``source = A`` and ``target = B`` that is the paper's ``q(a b)``, and
    with the atoms swapped it is ``q(b a)``.
    """

    __slots__ = ("source", "target", "pattern", "_key", "_source_test", "_target_test")

    def __init__(self, source: Atom, target: Atom) -> None:
        self.source = source
        self.target = target
        source_first, self._source_test = _compile_atom(source)
        target_first, self._target_test = _compile_atom(target)
        bound = [
            (position, source_first[variable])
            for variable, position in target_first.items()
            if variable in source_first
        ]
        #: The target positions probed in the index, in position order.
        self.pattern: Tuple[int, ...] = tuple(position for position, _ in bound)
        #: Reads the probe key off a source fact's values.
        self._key = probe_reader(tuple(position for _, position in bound))

    def __reduce__(self):
        # Cached graphs travel to pool workers with their maintainer; the
        # compiled closures do not pickle, so the receiver recompiles.
        return (AtomMatcher, (self.source, self.target))

    # ------------------------------------------------------------------ #
    # probing
    # ------------------------------------------------------------------ #
    def partners(self, index: FactIndex, fid: int) -> List[int]:
        """The ids of ``index`` playing ``target`` with fact ``fid`` as ``source``."""
        return [partner for _, partner in self.pairs(index, (fid,))]

    def pairs(self, index: FactIndex, ids: Iterable[int]) -> Iterator[Tuple[int, int]]:
        """``(a, b)`` for every id ``a`` in ``ids`` and each partner ``b`` of ``a``.

        ``ids`` must be live ids of ``index``.  Facts not matching ``source``
        yield nothing.  Partners come in index (insertion) order, straight
        from the live bucket.  A table holds one signature per relation
        name, so the schema checks run once per call, not per fact.
        """
        source_schema = self.source.schema
        target_schema = self.target.schema
        schemas = index.schemas
        for schema in (source_schema, target_schema):
            known = schemas.get(schema.name)
            if known is not schema and known != schema:
                return
        schema_of = index.schema_of
        rows = index.rows
        source_test = self._source_test
        target_test = self._target_test
        key = self._key
        source_name = source_schema.name
        mixed = len(schemas) > 1  # else every id is of the source relation
        buckets = None
        for fid in ids:
            if mixed and schema_of[fid].name != source_name:
                continue
            values = rows[fid]
            if source_test is not None and not source_test(values):
                continue
            if buckets is None:
                buckets = index.buckets(target_schema.name, self.pattern)
            bucket = buckets.get(key(values))
            if not bucket:
                continue
            if target_test is None:
                for partner in bucket:
                    yield fid, partner
            else:
                for partner in bucket:
                    if target_test(rows[partner]):
                        yield fid, partner
