"""Typed fact deltas and the maintainers that propagate them upward.

PR 1 introduced version-guarded caching of derived structures on
:class:`~repro.db.fact_store.Database`: any mutation invalidated every cached
structure, so a single-fact ``add``/``remove`` on a large database forced a
full rebuild of the solution graph.

This module replaces that contract with a *delta pipeline* in the spirit of
incremental view maintenance:

* every successful ``Database.add``/``remove`` that a cached structure or a
  listener will receive emits a typed :class:`FactDelta` event; the database
  parks the event in the pending queue of every cached structure that
  registered a *maintainer*;
* when a cached structure is next read, the pending deltas are replayed
  through its maintainer instead of rebuilding from scratch;
* maintainers that cannot absorb a delta raise :class:`DeltaUnsupported`,
  which makes the cache fall back to a full rebuild — incrementality is an
  optimisation, never a semantic contract.

The solution-graph maintainer lives here because it only needs the
eval-layer machinery: :class:`SolutionGraphMaintainer` patches a cached
solution graph ``G(D, q)`` by discovering only the solution pairs the changed
fact can touch (two compiled :class:`~repro.eval.matcher.AtomMatcher`
probes of the database's incremental
:class:`~repro.eval.fact_index.FactIndex`, one per atom role) and splicing
them in or out.  On top of the graph,
:class:`~repro.core.solutions.BlockComponentMaintainer` keeps the partition
into ``q``-connected block components, whose records carry each
component's memoised ``Cert_k`` outcome: ``Cert_k`` seeds a component's
fixpoint straight off this graph and reruns only the components a write
touched (see :mod:`repro.core.certk`).

Replay happens lazily at read time, which batches arbitrarily interleaved
mutations.  Maintainers therefore probe the database's *current* index (the
final state of the batch): a surviving pair has both endpoints in the final
index, so it is discovered when its last-added endpoint's delta is replayed,
while pairs involving facts that were later removed are erased again by the
replay of the corresponding remove delta.  The randomised interleaving suite
in ``tests/test_deltas.py`` pins this argument to from-scratch rebuilds.

Maintain vs rebuild, per derived structure (the PR 6 audit):

============================  =========  ====================================
structure (cache key head)    add        remove
============================  =========  ====================================
``solution_graph``            maintained maintained (guard: a replay naming a
                                         fact absent from the cached graph
                                         aborts to a rebuild)
``q_block_components``        maintained maintained — both directions
                                         re-derive only the touched
                                         components; see
                                         :class:`repro.core.solutions.BlockComponentMaintainer`
``bipartite_matching``        maintained maintained — both directions; see
                                         :class:`repro.core.matching.BipartiteGraphMaintainer`
``repair_oracle``             maintained maintained
============================  =========  ====================================

The per-key counters on :meth:`Database.derived_cache_stats` make this table
observable at runtime: ``unsupported_deltas``/``rebuilds`` stay zero exactly
on the rows marked maintained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from ..core.terms import Fact
from .matcher import AtomMatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.query import TwoAtomQuery
    from ..core.solutions import SolutionGraph
    from ..db.fact_store import Database

#: The two kinds of fact delta a database can emit.
ADD = "add"
REMOVE = "remove"


@dataclass(frozen=True)
class FactDelta:
    """One successful mutation of a database: ``op`` is :data:`ADD` or :data:`REMOVE`."""

    op: str
    fact: Fact

    def __post_init__(self) -> None:
        if self.op not in (ADD, REMOVE):
            raise ValueError(f"unknown delta op {self.op!r}")

    @property
    def is_add(self) -> bool:
        return self.op == ADD


class DeltaUnsupported(Exception):
    """Raised by a maintainer that cannot absorb a delta (forces a rebuild)."""


class SolutionGraphMaintainer:
    """Incremental view maintenance of ``G(D, q)`` under fact deltas.

    The maintainer compiles, once per query, the two
    :class:`~repro.eval.matcher.AtomMatcher` probes that enumerate every
    ordered solution involving one fact: ``a_to_b`` for the fact playing
    atom ``A`` and ``b_to_a`` for the fact playing atom ``B``.  Applying a
    delta therefore costs two bucket lookups plus the degree of the changed
    fact, instead of the full ``O(n)`` probe sweep of a rebuild (which runs
    ``a_to_b`` over every fact).
    """

    def __init__(self, query: "TwoAtomQuery") -> None:
        self.query = query
        self.a_to_b = AtomMatcher(query.atom_a, query.atom_b)
        self.b_to_a = AtomMatcher(query.atom_b, query.atom_a)

    # ------------------------------------------------------------------ #
    # pair discovery
    # ------------------------------------------------------------------ #
    def pairs_of(self, database: "Database", fact: Fact) -> List[Tuple[Fact, Fact]]:
        """Every ordered solution involving ``fact`` against the current index.

        The ``(fact, fact)`` self-solution is reported through the first
        probe when the fact is present in the index; partners are always
        drawn from the database's *current* facts (see the module notes on
        batched replay).
        """
        index = database.index
        pairs = [(fact, second) for second in self.a_to_b.partners(index, fact)]
        for first in self.b_to_a.partners(index, fact):
            if first != fact:  # (fact, fact) already found by the first probe
                pairs.append((first, fact))
        return pairs

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def __call__(
        self, database: "Database", graph: "SolutionGraph", delta: FactDelta
    ) -> "SolutionGraph":
        if delta.is_add:
            self._apply_add(database, graph, delta.fact)
        else:
            self._apply_remove(graph, delta.fact)
        return graph

    def _apply_add(self, database: "Database", graph: "SolutionGraph", fact: Fact) -> None:
        graph.facts[fact] = None
        graph.edges.setdefault(fact, set())
        for first, second in self.pairs_of(database, fact):
            graph.directed.add((first, second))
            if first == second:
                graph.self_loops.add(first)
            else:
                # A partner added later in the same batch may not have its
                # own adjacency entry yet; setdefault keeps the splice safe.
                graph.edges.setdefault(first, set()).add(second)
                graph.edges.setdefault(second, set()).add(first)

    def _apply_remove(self, graph: "SolutionGraph", fact: Fact) -> None:
        # Validate before touching anything: a failed replay must leave the
        # shared graph unmodified so the cache's rebuild fallback is safe.
        if fact not in graph.edges:
            raise DeltaUnsupported(f"fact {fact} not in the cached graph")
        for other in graph.edges.pop(fact):
            adjacent = graph.edges.get(other)
            if adjacent is not None:
                adjacent.discard(fact)
            graph.directed.discard((fact, other))
            graph.directed.discard((other, fact))
        graph.directed.discard((fact, fact))
        graph.self_loops.discard(fact)
        graph.facts.pop(fact, None)


# --------------------------------------------------------------------------- #
# shared per-query maintainer instances
# --------------------------------------------------------------------------- #
#: Maintainers are stateless per query; every consumer (graph cache and
#: builder, the SQLite pushdown, SolutionGraph.apply_delta) shares one
#: instance per query so the AtomMatcher probes are compiled once.  The memo
#: is bounded as a leak guard for services answering unbounded streams of
#: ad-hoc queries.
_MAINTAINER_MEMO_LIMIT = 512
_GRAPH_MAINTAINERS: Dict["TwoAtomQuery", SolutionGraphMaintainer] = {}


def graph_maintainer(query: "TwoAtomQuery") -> SolutionGraphMaintainer:
    """The shared :class:`SolutionGraphMaintainer` of ``query``."""
    maintainer = _GRAPH_MAINTAINERS.get(query)
    if maintainer is None:
        if len(_GRAPH_MAINTAINERS) >= _MAINTAINER_MEMO_LIMIT:
            _GRAPH_MAINTAINERS.clear()
        maintainer = _GRAPH_MAINTAINERS[query] = SolutionGraphMaintainer(query)
    return maintainer
