"""Solution graphs of a query over a database (Section 10).

For a two-atom query the set of solutions over a database ``D`` is naturally
an undirected graph ``G(D, q)``: vertices are the facts of ``D`` and an edge
joins ``a`` and ``b`` whenever ``D |= q{a b}``.  The matching-based algorithm
(Section 10.1) and the component decomposition of Proposition 10.6 are both
phrased in terms of this graph, as are quasi-cliques and clique-databases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..db.fact_store import BlockId, Database
from ..eval.deltas import DeltaUnsupported, FactDelta, graph_maintainer
from ..graphs.components import UnionFind, connected_components
from .query import TwoAtomQuery
from .terms import Fact

_NO_FACTS: FrozenSet[Fact] = frozenset()


@dataclass
class SolutionGraph:
    """The undirected solution graph ``G(D, q)`` plus directed solution data.

    ``facts`` holds the vertices in insertion order (a dict mapping each fact
    to ``None``, so a delta removes one in ``O(1)``), ``edges`` the
    undirected adjacency (``q{a b}``, with ``a != b``), ``directed`` the
    ordered solutions (``q(a b)``), and ``self_loops`` the facts ``a`` with
    ``q(a a)``.

    The graph is a live view when cached on a database: fact deltas are
    spliced in by :class:`~repro.eval.deltas.SolutionGraphMaintainer` (see
    :meth:`apply_delta`).  The graph keeps no decomposition of its own:
    :meth:`components` and :meth:`clique_map` are computed on demand, and
    the maintained partition the answer path reads is the matching's (see
    :class:`~repro.core.matching.BipartiteGraphMaintainer`).
    """

    facts: Dict[Fact, None]
    edges: Dict[Fact, Set[Fact]] = field(default_factory=dict)
    directed: Set[Tuple[Fact, Fact]] = field(default_factory=set)
    self_loops: Set[Fact] = field(default_factory=set)

    # ------------------------------------------------------------------ #
    # queries on the graph
    # ------------------------------------------------------------------ #
    def neighbours(self, fact: Fact) -> Set[Fact]:
        return set(self.edges.get(fact, _NO_FACTS))

    def has_edge(self, first: Fact, second: Fact) -> bool:
        return second in self.edges.get(first, _NO_FACTS)

    def has_directed(self, first: Fact, second: Fact) -> bool:
        return (first, second) in self.directed

    def edge_count(self) -> int:
        return sum(len(adjacent) for adjacent in self.edges.values()) // 2

    def components(self) -> List[List[Fact]]:
        """Connected components of the undirected graph (isolated facts included)."""
        return connected_components(
            self.facts,
            ((fact, other) for fact, adjacent in self.edges.items() for other in adjacent),
        )

    def is_quasi_clique(self, component: Iterable[Fact]) -> bool:
        """Quasi-clique test of Section 10.1, in ``O(|C| + edges of C)``.

        ``C`` is a quasi-clique when every pair of its facts that are *not*
        key-equal is joined by an edge.  That holds iff every member has as
        many neighbours in ``C`` outside its own block as ``C`` has members
        outside that block: a degree count, no pairwise sweep.  Only
        neighbours inside ``C`` count, so any fact collection can be tested,
        not just a whole component.
        """
        members = component if isinstance(component, (set, frozenset)) else set(component)
        total = len(members)
        if total <= 1:
            return True
        blocks: Dict[BlockId, Set[Fact]] = {}
        for member in members:
            blocks.setdefault(member.block_id(), set()).add(member)
        edges = self.edges
        for block in blocks.values():
            required = total - len(block)
            for member in block:
                adjacent = edges.get(member, _NO_FACTS)
                if len(adjacent & members) - len(adjacent & block) != required:
                    return False
        return True

    def is_clique_database(self) -> bool:
        """Whether every connected component is a quasi-clique (Section 10.1)."""
        return all(self.is_quasi_clique(component) for component in self.components())

    def clique_map(self) -> Dict[Fact, FrozenSet[Fact]]:
        """The paper's ``clique(a)`` for every fact.

        Computed component-wise: facts of a quasi-clique component map to the
        whole component, all other facts to their singleton.
        """
        cliques: Dict[Fact, FrozenSet[Fact]] = {}
        for component in self.components():
            if self.is_quasi_clique(component):
                frozen = frozenset(component)
                for member in component:
                    cliques[member] = frozen
            else:
                for member in component:
                    cliques[member] = frozenset((member,))
        return cliques

    def clique_of(self, fact: Fact) -> FrozenSet[Fact]:
        """The paper's ``clique(a)``.

        The connected component of ``a`` when that component is a
        quasi-clique, the singleton ``{a}`` otherwise.
        """
        clique = self.clique_map().get(fact)
        if clique is None:
            raise KeyError(f"fact {fact} does not belong to the graph")
        return clique

    # ------------------------------------------------------------------ #
    # delta plumbing
    # ------------------------------------------------------------------ #
    def apply_delta(self, query: TwoAtomQuery, database: Database, delta: FactDelta) -> None:
        """Splice one fact delta into the graph (see :mod:`repro.eval.deltas`).

        Convenience wrapper for callers holding a graph outside the
        database's cache; the cached copy is maintained automatically.
        """
        graph_maintainer(query)(database, self, delta)


def solution_graph_cache_key(query: TwoAtomQuery) -> Tuple[str, TwoAtomQuery]:
    """The :meth:`Database.cached` key under which ``G(D, q)`` is stored.

    Exposed so that producers other than :func:`build_solution_graph` (e.g.
    the SQLite backend pushing solution pairs down to SQL) can prime the
    cache with an equivalent graph.
    """
    return ("solution_graph", query)


def build_solution_graph(query: TwoAtomQuery, database: Database) -> SolutionGraph:
    """Compute ``G(D, q)`` together with directed solutions and self-loops.

    The graph is found by probing the database's incremental hash index: for
    every fact matching atom ``A``, the partners for atom ``B`` are read from
    one bucket, keyed by the fact's values at the positions of ``vars(A)``
    that ``B`` shares (the compiled ``A``-to-``B``
    :class:`~repro.eval.matcher.AtomMatcher`), instead of a scan over all
    facts.  The result is cached on the database and kept consistent across
    mutations by the delta pipeline: add/remove deltas are replayed through a
    :class:`~repro.eval.deltas.SolutionGraphMaintainer` (touching only the
    changed fact's solution pairs) instead of rebuilding, so the fixpoint
    algorithm, the matching algorithm and the component decomposition all
    share one incrementally maintained build.
    """
    return database.cached(
        solution_graph_cache_key(query),
        lambda db: _build_solution_graph_indexed(query, db),
        maintainer=graph_maintainer(query),
    )


def solution_graph_from_pairs(
    facts: Iterable[Fact], pairs: Iterable[Tuple[Fact, Fact]]
) -> SolutionGraph:
    """Assemble ``G(D, q)`` from the ordered solution pairs ``q(D)``.

    The single accretion point shared by the indexed builder, the naive
    oracle and the SQLite pushdown — all three only differ in how the pairs
    are produced.
    """
    edges: Dict[Fact, Set[Fact]] = {fact: set() for fact in facts}
    # fromkeys over a dict reuses its stored hashes (Fact.__hash__ is Python).
    graph = SolutionGraph(facts=dict.fromkeys(edges), edges=edges)
    for first, second in pairs:
        graph.directed.add((first, second))
        if first == second:
            graph.self_loops.add(first)
        else:
            graph.edges[first].add(second)
            graph.edges[second].add(first)
    return graph


def _build_solution_graph_indexed(query: TwoAtomQuery, database: Database) -> SolutionGraph:
    facts = database.facts()
    pairs = graph_maintainer(query).a_to_b.pairs(database.index, facts)
    return solution_graph_from_pairs(facts, pairs)


def build_solution_graph_naive(query: TwoAtomQuery, database: Database) -> SolutionGraph:
    """The seed all-pairs construction of ``G(D, q)``.

    Kept as the differential-testing oracle for :func:`build_solution_graph`;
    quadratic in the number of facts.
    """
    facts = database.facts()

    def pairs():
        for first in facts:
            assignment = query.atom_a.match(first)
            if assignment is None:
                continue
            for second in facts:
                if query._extends_to_b(assignment, second):
                    yield first, second

    return solution_graph_from_pairs(facts, pairs())


class BlockComponentState:
    """The delta-maintained block-level union-find of Proposition 10.6.

    Holds the union-find over block ids (two blocks are merged whenever some
    facts of theirs form a solution) plus a memo of the materialised
    component sub-databases.  The union-find survives fact additions — the
    maintainer unions in only the new fact's solution pairs — while the memo
    is dropped whenever the partition may have changed.
    """

    __slots__ = ("union_find", "_components")

    def __init__(self, union_find: UnionFind) -> None:
        self.union_find = union_find
        self._components: Optional[List[Database]] = None

    def materialize(self, database: Database) -> List[Database]:
        """The component sub-databases of ``database``, memoised."""
        if self._components is None:
            components: Dict[object, Database] = {}
            for block in database.blocks():
                representative = self.union_find.find(block.block_id)
                component = components.setdefault(representative, Database())
                component.add_all(block.facts)
            self._components = list(components.values())
        return self._components


class BlockComponentMaintainer:
    """Builds and delta-maintains the block-level union-find of one query.

    Doubles as the cache *builder* (:meth:`build`, deriving the union-find
    from the — itself delta-maintained — solution graph) and the cache
    *maintainer* (``__call__``): a fact addition probes the index for the new
    fact's solution pairs only and unions their blocks in, instead of
    re-running the union-find over every edge of the graph.  Removals can
    split components, which a union-find cannot undo, so they raise
    :class:`~repro.eval.deltas.DeltaUnsupported` and fall back to a rebuild —
    the rebuild still reuses the delta-maintained graph, so the expensive
    pair discovery is never repeated.
    """

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query
        self._graph_maintainer = graph_maintainer(query)

    def build(self, database: Database) -> BlockComponentState:
        graph = build_solution_graph(self.query, database)
        union_find: UnionFind = UnionFind(block.block_id for block in database.blocks())
        for fact, adjacent in graph.edges.items():
            for other in adjacent:
                union_find.union(fact.block_id(), other.block_id())
        for fact in graph.self_loops:
            union_find.add(fact.block_id())
        return BlockComponentState(union_find)

    def __call__(
        self, database: Database, state: BlockComponentState, delta: FactDelta
    ) -> BlockComponentState:
        if not delta.is_add:
            raise DeltaUnsupported(
                "a fact removal can split q-connected block components"
            )
        fact = delta.fact
        union_find = state.union_find
        union_find.add(fact.block_id())
        for first, second in self._graph_maintainer.pairs_of(database, fact):
            union_find.add(first.block_id())
            union_find.add(second.block_id())
            union_find.union(first.block_id(), second.block_id())
        state._components = None
        return state


_BLOCK_COMPONENT_MAINTAINERS: Dict[TwoAtomQuery, BlockComponentMaintainer] = {}


def block_component_maintainer(query: TwoAtomQuery) -> BlockComponentMaintainer:
    """The shared :class:`BlockComponentMaintainer` of ``query``."""
    maintainer = _BLOCK_COMPONENT_MAINTAINERS.get(query)
    if maintainer is None:
        if len(_BLOCK_COMPONENT_MAINTAINERS) >= 512:  # leak guard, as in deltas
            _BLOCK_COMPONENT_MAINTAINERS.clear()
        maintainer = _BLOCK_COMPONENT_MAINTAINERS[query] = BlockComponentMaintainer(query)
    return maintainer


def q_connected_block_components(
    query: TwoAtomQuery, database: Database
) -> List[Database]:
    """The ``q``-connected components of Proposition 10.6, as sub-databases.

    Two blocks are ``q``-connected when some facts of theirs form a solution;
    the partition is the reflexive-symmetric-transitive closure of that
    relation.  Every returned component is the sub-database induced by the
    blocks of one equivalence class (so the components partition ``D``).

    The decomposition is cached on the database (treat the returned
    sub-databases as read-only) and maintained under the delta pipeline: a
    fact addition is absorbed by unioning in only that fact's solution pairs
    (see :class:`BlockComponentMaintainer`), a removal falls back to redoing
    the block-level union-find over the delta-maintained solution graph — in
    neither case is the pair discovery repeated.
    """
    maintainer = block_component_maintainer(query)
    state: BlockComponentState = database.cached(
        ("q_block_components", query), maintainer.build, maintainer=maintainer
    )
    return state.materialize(database)
