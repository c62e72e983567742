"""SAT encoding of the falsifying-repair problem.

``certain(q)`` is in coNP because a certificate for *non*-certainty is a
repair falsifying the query (Section 2).  For a two-atom query that repair
exists iff one can pick one fact per block such that no picked pair (and no
single picked fact) forms a solution to ``q``.  This is naturally a CNF:

* one propositional variable per fact ("the repair picks this fact");
* per block: at least one fact picked, at most one fact picked;
* per fact ``a`` with ``q(a a)``: the fact cannot be picked;
* per solution ``q{a b}`` with ``a``, ``b`` in different blocks: not both
  picked.

The last two families are read off the solution graph ``G(D, q)`` of
:func:`~repro.core.solutions.build_solution_graph` (its self-loops and
edges), which is cached on the database and delta-maintained, so a warm
encoding costs ``O(edges + Σ|block|²)`` and shares its pair discovery with
``Cert_k`` and the matching algorithm.  The CNF itself is rebuilt per call
and deliberately not cached: a cache entry without a delta maintainer would
be dropped on every write, and the answer cache already absorbs repeated
reads.  The encoding runs on the database's fact ids and block indices
and builds no ``Fact`` (only a found repair is turned into facts).
Variables number the facts in database order; the clause order follows
the graph's set iteration order, which the solver's model does not depend
on.

The encoding is decided with the DPLL solver of :mod:`repro.logic.dpll`,
whose variable-connected components are exactly the ``q``-connected block
components of Proposition 10.6, and serves as the scalable exact oracle
used by the engine, tests and benchmarks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, List, Optional

from ..core.query import TwoAtomQuery
from ..core.solutions import build_solution_graph
from ..db.fact_store import Database, Repair
from .dpll import DpllSolver

IntClause = FrozenSet[int]


class FalsifyingRepairEncoding:
    """CNF encoding of "there exists a repair of ``D`` falsifying ``q``"."""

    def __init__(self, query: TwoAtomQuery, database: Database) -> None:
        self.query = query
        self.database = database
        self._ids = database.ids()
        # Variable i is the i-th fact in database order, counting from 1.
        self._variable: Dict[int, int] = {fid: position for position, fid in enumerate(self._ids, 1)}
        self.clauses: List[IntClause] = []
        self._build()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        self._encode_blocks()
        self._encode_solutions()

    def _encode_blocks(self) -> None:
        variable_of = self._variable
        clauses = self.clauses
        for block in self.database.blocks():
            variables = [variable_of[fid] for fid in block.ids]
            # At least one fact of the block is kept.
            clauses.append(frozenset(variables))
            # At most one fact of the block is kept.
            for first, second in combinations(variables, 2):
                clauses.append(frozenset((-first, -second)))

    def _encode_solutions(self) -> None:
        graph = build_solution_graph(self.query, self.database)
        variable_of, clauses = self._variable, self.clauses
        block_of = self.database.fact_blocks
        clauses.extend(frozenset((-variable_of[fid],)) for fid in graph.self_loops)
        for fid, adjacent in graph.edges.items():
            variable = variable_of[fid]
            block = block_of[fid]
            for other in adjacent:
                partner = variable_of[other]
                # Key-equal pairs are never co-selected; the block handles them.
                if partner > variable and block_of[other] != block:
                    clauses.append(frozenset((-variable, -partner)))

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def variable_count(self) -> int:
        return len(self._ids)

    def clause_count(self) -> int:
        return len(self.clauses)

    def find_falsifying_repair(self) -> Optional[Repair]:
        """A repair of the database falsifying the query, or ``None``."""
        solver = DpllSolver()
        model = solver.solve_clauses(self.clauses)
        if model is None:
            return None
        # The model is total, so at-least-one plus at-most-one pick exactly
        # one fact per block: the repair is read straight off it.
        variable_of = self._variable
        fact = self.database.fact
        repair = Repair(tuple(
            fact(next(fid for fid in block.ids if model[variable_of[fid]]))
            for block in self.database.blocks()
        ))
        if self.query.satisfied_by(repair):
            # Cannot happen while the encoding is right; never report a
            # wrong witness.
            return None
        return repair


def exists_falsifying_repair(query: TwoAtomQuery, database: Database) -> bool:
    """Whether some repair of ``database`` falsifies ``query``."""
    encoding = FalsifyingRepairEncoding(query, database)
    solver = DpllSolver()
    return solver.solve_clauses(encoding.clauses) is not None


def certain_via_sat(query: TwoAtomQuery, database: Database) -> bool:
    """Exact ``certain(q)`` decided through the SAT encoding."""
    return not exists_falsifying_repair(query, database)
