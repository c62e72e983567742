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
while a fact removed later in the batch is no longer in the index (its add
replays to an isolated vertex) and the replay of its remove delta erases
it.  A fact removed and re-added within a batch has a new id, so its two
deltas name two different vertices.  The randomised interleaving suite
in ``tests/test_deltas.py`` pins this argument to from-scratch rebuilds.

Maintain vs rebuild, per derived structure.  Every
maintained structure keys on the database's fact ids: a delta carries the
fact's id (``FactDelta.fid``), which is never reused, so a replay names the
same fact whatever the batch did after it.

============================  =========  ====================================
structure (cache key head)    add        remove
============================  =========  ====================================
``solution_graph``            maintained maintained (guard: a replay naming an
                                         id absent from the cached graph
                                         aborts to a rebuild)
``q_block_components``        maintained maintained — both directions
                                         re-derive only the touched
                                         components; see
                                         :class:`repro.core.solutions.BlockComponentMaintainer`
``bipartite_matching``        maintained maintained — both directions; see
                                         :class:`repro.core.matching.BipartiteGraphMaintainer`
============================  =========  ====================================

``RepairOracle`` keeps no structure of its own: it reads the solution graph.

The per-key counters on :meth:`Database.derived_cache_stats` make this table
observable at runtime: ``unsupported_deltas``/``rebuilds`` stay zero exactly
on the rows marked maintained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """One successful mutation of a database: ``op`` is :data:`ADD` or :data:`REMOVE`.

    ``fid`` is the fact's id in the database that emitted the delta (see
    :class:`~repro.db.fact_store.Database`); maintainers key on it.  It
    names the fact inside one database only, so equality ignores it.
    """

    op: str
    fact: Fact
    fid: int = field(default=-1, compare=False)

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
    ``a_to_b`` over every fact).  Everything runs on fact ids.
    """

    def __init__(self, query: "TwoAtomQuery") -> None:
        self.query = query
        self.a_to_b = AtomMatcher(query.atom_a, query.atom_b)
        self.b_to_a = AtomMatcher(query.atom_b, query.atom_a)

    # ------------------------------------------------------------------ #
    # pair discovery
    # ------------------------------------------------------------------ #
    def pairs_of(self, database: "Database", fid: int) -> List[Tuple[int, int]]:
        """Every ordered solution involving the live id ``fid``, as id pairs.

        The ``(fid, fid)`` self-solution is reported through the first
        probe; partners are always drawn from the database's *current*
        facts (see the module notes on batched replay).
        """
        index = database.index
        pairs = [(fid, second) for second in self.a_to_b.partners(index, fid)]
        for first in self.b_to_a.partners(index, fid):
            if first != fid:  # (fid, fid) already found by the first probe
                pairs.append((first, fid))
        return pairs

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def __call__(
        self, database: "Database", graph: "SolutionGraph", delta: FactDelta
    ) -> "SolutionGraph":
        if delta.is_add:
            self._apply_add(database, graph, delta.fid)
        else:
            self._apply_remove(graph, delta.fid)
        return graph

    def _apply_add(self, database: "Database", graph: "SolutionGraph", fid: int) -> None:
        edges = graph.edges
        edges.setdefault(fid, set())
        if not database.index.is_live(fid):
            return  # removed later in the same batch: its remove delta follows
        for first, second in self.pairs_of(database, fid):
            if first == second:
                graph.self_loops.add(first)
            else:
                # A partner added later in the same batch may not have its
                # own adjacency entry yet; setdefault keeps the splice safe.
                edges.setdefault(first, set()).add(second)
                edges.setdefault(second, set()).add(first)

    def _apply_remove(self, graph: "SolutionGraph", fid: int) -> None:
        # Validate before touching anything: a failed replay must leave the
        # shared graph unmodified so the cache's rebuild fallback is safe.
        if fid not in graph.edges:
            raise DeltaUnsupported(f"fact id {fid} not in the cached graph")
        for other in graph.edges.pop(fid):
            adjacent = graph.edges.get(other)
            if adjacent is not None:
                adjacent.discard(fid)
        graph.self_loops.discard(fid)


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
