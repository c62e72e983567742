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
  member after, next to a schema check on both sides.

No assignment dict is built per fact.  Buckets are iterated in place, without
a copy, so callers must not mutate the index while they consume
:meth:`AtomMatcher.partners` or :meth:`AtomMatcher.pairs`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.terms import Atom, Element, Fact
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

    ``partners(index, a)`` lists every ``b`` in ``index`` such that one
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
    def partners(self, index: FactIndex, fact: Fact) -> List[Fact]:
        """The facts of ``index`` playing ``target`` with ``fact`` as ``source``."""
        return [partner for _, partner in self.pairs(index, (fact,))]

    def pairs(self, index: FactIndex, facts: Iterable[Fact]) -> Iterator[Tuple[Fact, Fact]]:
        """``(a, b)`` for every ``a`` in ``facts`` and each partner ``b`` of ``a``.

        Facts not matching ``source`` yield nothing.  Partners come in index
        (insertion) order, straight from the live bucket.
        """
        source_schema = self.source.schema
        target_schema = self.target.schema
        source_test = self._source_test
        target_test = self._target_test
        key = self._key
        buckets = None
        for fact in facts:
            schema = fact.schema
            if schema is not source_schema and schema != source_schema:
                continue
            values = fact.values
            if source_test is not None and not source_test(values):
                continue
            if buckets is None:
                # Registered only once a fact matches: a same-named relation
                # of another arity must never be indexed on these positions.
                buckets = index.buckets(target_schema.name, self.pattern)
            bucket = buckets.get(key(values))
            if not bucket:
                continue
            for partner in bucket:
                schema = partner.schema
                if schema is not target_schema and schema != target_schema:
                    continue
                if target_test is not None and not target_test(partner.values):
                    continue
                yield fact, partner
