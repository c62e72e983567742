"""The per-query indexed evaluation facade.

:class:`IndexedEvaluator` bundles, for one fixed query, the index-driven
query semantics and the database-resident caches used by the algorithm
stack.  It is the natural companion of the batch engine API
(:meth:`repro.core.certain.CertainEngine.explain_many`): construct it once
and point it at a stream of databases — the per-query compiled probes are
shared (through :func:`~repro.eval.deltas.graph_maintainer`), while
per-database structures (the solution graph) live in each database's
version-guarded cache.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from ..db.fact_store import Database
from ..core.query import TwoAtomQuery
from ..core.solutions import SolutionGraph, build_solution_graph
from ..core.terms import Fact

KSet = FrozenSet[Fact]


class IndexedEvaluator:
    """Index-driven evaluation of one two-atom query over many databases."""

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query

    # ------------------------------------------------------------------ #
    # query semantics
    # ------------------------------------------------------------------ #
    def find_solution(self, facts: Iterable[Fact]) -> Optional[Tuple[Fact, Fact]]:
        """One ordered solution, or ``None`` (index-driven)."""
        return self.query.find_solution(facts)

    def solutions(self, facts: Iterable[Fact]) -> List[Tuple[Fact, Fact]]:
        """All ordered solutions (index-driven)."""
        return self.query.solutions(facts)

    def satisfied_by(self, facts: Iterable[Fact]) -> bool:
        """``D |= q`` (index-driven)."""
        return self.query.satisfied_by(facts)

    # ------------------------------------------------------------------ #
    # derived structures
    # ------------------------------------------------------------------ #
    def solution_graph(self, database: Database) -> SolutionGraph:
        """The (cached) solution graph ``G(D, q)``, on fact ids."""
        return build_solution_graph(self.query, database)

    def solution_pairs(self, database: Database) -> Set[Tuple[Fact, Fact]]:
        """The directed solutions ``q(D)`` as a set of ordered pairs."""
        fact = database.fact
        return {
            (fact(first), fact(second))
            for first, second in self.solution_graph(database).directed_ids()
        }

    def self_solutions(self, database: Database) -> Set[Fact]:
        """Facts ``a`` with ``q(a a)``."""
        return set(map(database.fact, self.solution_graph(database).self_loops))

    def initial_delta(self, database: Database, k: int = 2) -> Set[KSet]:
        """The seeding antichain of ``Cert_k`` (Section 5), index-built."""
        from ..core.certk import CertK

        return CertK(self.query, k)._initial_delta(database)
