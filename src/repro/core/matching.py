"""The bipartite-matching algorithm ``matching(q)`` (Section 10.1, from [3]).

Given a database ``D`` the algorithm builds the solution graph ``G(D, q)``,
computes for every fact its ``clique`` (its connected component when that
component is a quasi-clique, the singleton otherwise), and forms the
bipartite graph ``H(D, q)``:

* left vertices ``V1`` — the blocks of ``D``;
* right vertices ``V2`` — the cliques;
* edge ``(block, clique)`` iff the block contains a fact ``a`` belonging to
  the clique with ``D ⊭ q(a a)``.

``matching(q)`` answers *yes* iff some matching of ``H(D, q)`` saturates
``V1``.  Its negation ``¬matching(q)`` under-approximates ``certain(q)``
(Proposition 10.2) and is exact on clique-databases (Proposition 10.3); the
combination ``Cert_k(q) ∨ ¬matching(q)`` solves every 2way-determined query
with no fork-tripath (Theorem 10.5).

The matching is a first-class delta-maintained derived structure on the
database's fact ids and block indices: :class:`MatchingState` bundles
``H(D, q)`` with an
:class:`~repro.graphs.bipartite.IncrementalMatching`, and
:class:`BipartiteGraphMaintainer` derives both from the already-maintained
solution graph.  The build and every fact delta run the same code: a
breadth-first search reads one component off the graph, a linear degree
count decides whether it is a quasi-clique, and its facts are assigned
their cliques.  The build walks each component once; a fact add/remove
reconciles only the affected component(s), flips clique ↔ singleton right
vertices when a component gains or loses quasi-clique status, and repairs
the matching by augmenting paths instead of rerunning Hopcroft–Karp.  Every
consumer (:meth:`MatchingAlgorithm.run`, ``certain_by_negation``,
:meth:`MatchingAlgorithm.witness_repair`, the engine's PTime path, the
repair-sampling oracle) reads through the database cache under
:func:`matching_cache_key`, so a server absorbing a delta stream never
rebuilds the matching on the hot path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..db.fact_store import Database, Repair
from ..eval.deltas import FactDelta
from ..graphs.bipartite import BipartiteGraph, IncrementalMatching, maximum_matching
from .query import TwoAtomQuery
from .solutions import FactGraph, SolutionGraph, build_solution_graph
from .terms import Fact

#: A right vertex of the maintained ``H(D, q)``: a clique of fact ids.
Clique = FrozenSet[int]


@dataclass
class MatchingResult:
    """Outcome of running ``matching(q)`` on a database.

    ``matching`` maps block ids to the matched clique, a frozenset of
    ``Fact`` objects, and ``bipartite_graph`` is ``H(D, q)`` over the same
    vertices: the ``Fact`` view of the maintained state.
    """

    has_saturating_matching: bool
    matching: Dict[object, FrozenSet[Fact]] = field(default_factory=dict)
    solution_graph: Optional[Union[SolutionGraph, FactGraph]] = None
    bipartite_graph: Optional[BipartiteGraph] = None

    @property
    def negation_certain(self) -> bool:
        """The value of ``¬matching(q)`` (an under-approximation of certainty)."""
        return not self.has_saturating_matching

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.has_saturating_matching


class MatchingState:
    """The delta-maintained ``matching(q)`` state of one ``(query, database)``.

    Owns the live ``H(D, q)`` (inside an
    :class:`~repro.graphs.bipartite.IncrementalMatching`), whose left
    vertices are the database's block indices and whose right vertices are
    cliques of fact ids, plus the bookkeeping that makes single-fact splices
    local (all keyed by fact id):

    * ``right_of`` — the right vertex (the paper's ``clique(a)``) currently
      assigned to every live fact;
    * ``edgeless`` — facts with ``q(a a)``: they are assigned a clique (the
      right vertex must exist) but contribute no ``H`` edge;
    * ``component_of`` / ``members`` — this structure's own record of the
      solution-graph component partition, so a removal knows which facts its
      old component held without re-deriving the full decomposition;
    * ``edge_refs`` / ``right_refs`` — multiplicity counts behind every
      ``(block, clique)`` edge and clique vertex: an edge exists while some
      fact of the block contributes it, a right vertex while some fact is
      assigned to it.
    """

    __slots__ = (
        "fact_blocks",
        "bipartite",
        "matching",
        "right_of",
        "edgeless",
        "component_of",
        "members",
        "edge_refs",
        "right_refs",
        "_next_component",
    )

    def __init__(self, fact_blocks: List[int]) -> None:
        #: The database's fact id -> block index list (read only).
        self.fact_blocks = fact_blocks
        self.bipartite = BipartiteGraph()
        self.matching = IncrementalMatching(self.bipartite)
        self.right_of: Dict[int, Clique] = {}
        self.edgeless: Set[int] = set()
        self.component_of: Dict[int, int] = {}
        self.members: Dict[int, Set[int]] = {}
        self.edge_refs: Dict[Tuple[int, Clique], int] = {}
        self.right_refs: Dict[Clique, int] = {}
        self._next_component = 0

    def new_component(self) -> int:
        self._next_component += 1
        return self._next_component


def matching_cache_key(query: TwoAtomQuery) -> Tuple[str, TwoAtomQuery]:
    """The :meth:`Database.cached` key of the maintained matching state."""
    return ("bipartite_matching", query)


class BipartiteGraphMaintainer:
    """Builds and delta-maintains :class:`MatchingState` under fact deltas.

    Registered through the ``cached(key, builder, maintainer)`` contract of
    :mod:`repro.eval.deltas`: :meth:`build` derives the state from the —
    itself delta-maintained — solution graph, and ``__call__`` splices one
    :class:`~repro.eval.deltas.FactDelta` in by *reconciliation*: the deltas
    replay lazily against the database's final state, so the maintainer
    re-derives the affected region (the changed fact's old and new
    components) from the current graph and diffs it against the recorded
    assignments.  A fact add/remove therefore touches one block vertex and
    at most its component's clique vertex — including the clique ↔ singleton
    flips when a component gains or loses quasi-clique status — and every
    touched edge is forwarded to the incremental matching, which restores
    maximality by augmenting paths at the next read.  Both delta directions
    are supported: the matching never raises
    :class:`~repro.eval.deltas.DeltaUnsupported`, so in steady state the
    only rebuild trigger left is a backlog beyond ``delta_backlog_limit``.
    """

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query

    # ------------------------------------------------------------------ #
    # cache builder
    # ------------------------------------------------------------------ #
    def build(self, database: Database) -> MatchingState:
        """``H(D, q)`` in one pass over the solution graph's components.

        Each component is found by the search a delta replay runs and
        assigned by the same :meth:`_reassign_component`, so a build is
        exactly the replay of every component at once.
        """
        graph = build_solution_graph(self.query, database)
        state = MatchingState(database.fact_blocks)
        for block in database.blocks():
            state.bipartite.add_left(block.index)
        for fid in graph.edges:
            if fid not in state.component_of:
                self._reassign_component(graph, state, self._component_of(graph, fid))
        return state

    # ------------------------------------------------------------------ #
    # delta application (reconciliation)
    # ------------------------------------------------------------------ #
    def __call__(
        self, database: Database, state: MatchingState, delta: FactDelta
    ) -> MatchingState:
        graph = build_solution_graph(self.query, database)
        fid = delta.fid
        # The dirty region: the fact itself plus everything its *recorded*
        # component held — after a removal the survivors re-partition, after
        # an addition the merged component is reached from the fact itself.
        seeds = {fid}
        token = state.component_of.get(fid)
        if token is not None:
            seeds.update(state.members.get(token, ()))
        visited: Set[int] = set()
        for seed in list(seeds):
            if seed in visited:
                continue
            if seed not in graph.edges:
                self._purge(state, seed)  # the fact left the database
                continue
            component = self._component_of(graph, seed)
            visited |= component
            self._reassign_component(graph, state, component)
        block = state.fact_blocks[fid]
        if block in database.block_table:
            state.matching.add_left(block)
        else:
            state.matching.remove_left(block)
        return state

    # ------------------------------------------------------------------ #
    # reconciliation helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _component_of(graph: SolutionGraph, seed: int) -> Set[int]:
        """The current connected component of ``seed`` (BFS over the graph)."""
        component = {seed}
        queue = deque((seed,))
        edges = graph.edges
        while queue:
            for other in edges.get(queue.popleft(), ()):
                if other not in component:
                    component.add(other)
                    queue.append(other)
        return component

    def _reassign_component(
        self, graph: SolutionGraph, state: MatchingState, component: Set[int]
    ) -> None:
        token = state.new_component()
        for member in component:
            old = state.component_of.get(member)
            if old is not None and old != token:
                bucket = state.members.get(old)
                if bucket is not None:
                    bucket.discard(member)
                    if not bucket:
                        del state.members[old]
            state.component_of[member] = token
        state.members[token] = set(component)
        loops = graph.self_loops
        if graph.is_quasi_clique(component):
            clique = frozenset(component)
            for member in component:
                self._assign(state, member, clique, member in loops)
        else:
            for member in component:
                self._assign(state, member, frozenset((member,)), member in loops)

    def _assign(
        self, state: MatchingState, fid: int, clique: Clique, is_self_loop: bool
    ) -> None:
        old = state.right_of.get(fid)
        if old == clique:
            return
        if old is not None:
            self._release(state, fid, old)
        state.right_of[fid] = clique
        if is_self_loop:
            state.edgeless.add(fid)
        else:
            state.edgeless.discard(fid)
        refs = state.right_refs.get(clique, 0) + 1
        state.right_refs[clique] = refs
        if refs == 1:
            state.matching.add_right(clique)
        if not is_self_loop:
            edge = (state.fact_blocks[fid], clique)
            edge_refs = state.edge_refs.get(edge, 0) + 1
            state.edge_refs[edge] = edge_refs
            if edge_refs == 1:
                state.matching.add_edge(*edge)

    def _release(self, state: MatchingState, fid: int, clique: Clique) -> None:
        if fid not in state.edgeless:
            edge = (state.fact_blocks[fid], clique)
            edge_refs = state.edge_refs.get(edge, 0) - 1
            if edge_refs > 0:
                state.edge_refs[edge] = edge_refs
            else:
                state.edge_refs.pop(edge, None)
                state.matching.remove_edge(*edge)
        refs = state.right_refs.get(clique, 0) - 1
        if refs > 0:
            state.right_refs[clique] = refs
        else:
            state.right_refs.pop(clique, None)
            state.matching.remove_right(clique)

    def _purge(self, state: MatchingState, fid: int) -> None:
        old = state.right_of.pop(fid, None)
        if old is not None:
            self._release(state, fid, old)
        state.edgeless.discard(fid)
        token = state.component_of.pop(fid, None)
        if token is not None:
            bucket = state.members.get(token)
            if bucket is not None:
                bucket.discard(fid)
                if not bucket:
                    del state.members[token]


#: Shared per-query maintainer instances (leak-guarded, as in repro.eval.deltas).
_MATCHING_MAINTAINERS: Dict[TwoAtomQuery, BipartiteGraphMaintainer] = {}


def matching_maintainer(query: TwoAtomQuery) -> BipartiteGraphMaintainer:
    """The shared :class:`BipartiteGraphMaintainer` of ``query``."""
    maintainer = _MATCHING_MAINTAINERS.get(query)
    if maintainer is None:
        if len(_MATCHING_MAINTAINERS) >= 512:
            _MATCHING_MAINTAINERS.clear()
        maintainer = _MATCHING_MAINTAINERS[query] = BipartiteGraphMaintainer(query)
    return maintainer


class MatchingAlgorithm:
    """Runner for ``matching(q)`` for a fixed query."""

    #: When set (class- or instance-level), every cached run re-validates the
    #: maintained matching through ``IncrementalMatching.self_check(deep=True)``
    #: — validity via ``verify_matching`` plus a size comparison against a
    #: from-scratch Hopcroft–Karp.  Off by default (it re-runs the cold
    #: algorithm); the delta test-suite switches it on.
    self_check = False

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(
        self, database: Database, graph: Optional[FactGraph] = None
    ) -> MatchingResult:
        """Run ``matching(q)``.

        ``graph`` optionally injects a precomputed :class:`FactGraph` (used
        by the differential tests to drive the algorithm off the naive
        construction); that path computes everything from scratch.  By
        default the run reads the delta-maintained :class:`MatchingState`
        through the database cache: an unchanged database returns the
        memoised matching outright, and a mutated one replays the pending
        fact deltas through :class:`BipartiteGraphMaintainer` and repairs
        the matching by augmenting paths — no Hopcroft–Karp rerun, no
        ``H(D, q)`` rebuild.  The result is the state's ``Fact`` view;
        :meth:`matches` reads the state without building one.
        """
        if graph is not None:
            bipartite = self._build_bipartite(database, graph, graph.clique_map())
            matching = maximum_matching(bipartite)
            saturating = len(matching) == database.block_count()
            return MatchingResult(
                has_saturating_matching=saturating,
                matching=dict(matching),
                solution_graph=graph,
                bipartite_graph=bipartite,
            )
        state = self._repaired(database)
        table = database.block_table
        fact = database.fact

        def block_id(number: int):
            return table[number].block_id

        def clique(ids: Clique) -> FrozenSet[Fact]:
            return frozenset(fact(fid) for fid in ids)

        bipartite = BipartiteGraph()
        for left in state.bipartite.left_vertices:
            bipartite.add_left(block_id(left))
        for right in state.bipartite.right_vertices:
            bipartite.add_right(clique(right))
        for left in state.bipartite.left_vertices:
            for right in state.bipartite.neighbours(left):
                bipartite.add_edge(block_id(left), clique(right))
        matched = state.matching.match_left
        return MatchingResult(
            has_saturating_matching=len(matched) == database.block_count(),
            matching={block_id(left): clique(right) for left, right in matched.items()},
            solution_graph=build_solution_graph(self.query, database),
            bipartite_graph=bipartite,
        )

    def state(self, database: Database) -> MatchingState:
        """The maintained matching state of ``database`` (a live view)."""
        maintainer = matching_maintainer(self.query)
        return database.cached(
            matching_cache_key(self.query), maintainer.build, maintainer=maintainer
        )

    def _repaired(self, database: Database) -> MatchingState:
        """The state, with its matching restored to maximum."""
        state = self.state(database)
        state.matching.repair()
        if self.self_check:
            state.matching.self_check(deep=True)
        return state

    def matches(self, database: Database) -> bool:
        """The paper's ``D |= matching(q)``."""
        return len(self._repaired(database).matching.match_left) == database.block_count()

    def certain_by_negation(self, database: Database) -> bool:
        """The value of ``¬matching(q)``; exact on clique-databases (Prop. 10.3)."""
        return not self.matches(database)

    def is_clique_database(self, database: Database) -> bool:
        """Whether every component of ``G(D, q)`` is a quasi-clique."""
        return build_solution_graph(self.query, database).is_clique_database()

    def witness_repair(self, database: Database) -> Optional[Repair]:
        """Proposition 10.3's falsifying repair, read off the maintained matching.

        If the matching saturates ``V1``, take from each block the first fact
        of its matched clique with no self-solution.  On a clique-database
        that repair falsifies ``q``: two chosen facts in one solution would
        share a component, hence a clique matched to two blocks.  Elsewhere
        two chosen singletons may form a solution, so the repair is returned
        only once the solution graph confirms that no two chosen facts form
        a solution; a returned repair therefore certifies non-certainty on
        any database.  The engine calls this right after
        ``certain_by_negation``, on the state that call has just repaired.
        The choice runs on fact ids; only the returned repair holds
        ``Fact`` objects.
        """
        state = self._repaired(database)
        matched = state.matching.match_left
        if len(matched) != database.block_count():
            return None
        graph = build_solution_graph(self.query, database)
        self_loops = graph.self_loops
        chosen: List[int] = []
        for block in database.blocks():
            clique = matched.get(block.index)
            if clique is None:
                return None
            for fid in block.ids:
                if fid in clique and fid not in self_loops:
                    chosen.append(fid)
                    break
            else:
                return None
        # A repair satisfies q iff it holds a self-loop or both ends of an
        # edge: the solutions inside a repair are the database's.
        picked = set(chosen)
        edges = graph.edges
        for fid in chosen:
            if not edges[fid].isdisjoint(picked):
                return None
        fact = database.fact
        return Repair(tuple(fact(fid) for fid in chosen))

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def _build_bipartite(
        self,
        database: Database,
        graph: FactGraph,
        cliques: Dict[Fact, FrozenSet[Fact]],
    ) -> BipartiteGraph:
        bipartite = BipartiteGraph()
        for block in database.blocks():
            bipartite.add_left(block.block_id)
        for clique in set(cliques.values()):
            bipartite.add_right(clique)
        for block in database.blocks():
            for fact in block.facts:
                if fact in graph.self_loops:
                    continue
                bipartite.add_edge(block.block_id, cliques[fact])
        return bipartite


def matching_algorithm(query: TwoAtomQuery, database: Database) -> bool:
    """Convenience wrapper: the paper's ``D |= matching(q)``."""
    return MatchingAlgorithm(query).matches(database)


def certain_by_matching(query: TwoAtomQuery, database: Database) -> bool:
    """``¬matching(q)`` as a certainty test (sound but incomplete in general)."""
    return MatchingAlgorithm(query).certain_by_negation(database)


def witness_repair_from_matching(
    query: TwoAtomQuery, database: Database
) -> Optional[Repair]:
    """:meth:`MatchingAlgorithm.witness_repair` for a one-off call.

    The engine runs that step on the ``Cert_k ∨ ¬matching`` path before any
    SAT solve.  Its check against the solution graph makes a returned repair
    a certificate of non-certainty on any database; ``None`` means "certain"
    only on a clique-database (Proposition 10.3).
    """
    return MatchingAlgorithm(query).witness_repair(database)
