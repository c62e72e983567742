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
from ..eval.deltas import FactDelta, graph_maintainer
from ..graphs.components import connected_components
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
    the maintained partitions the answer path reads are the block
    components ``Cert_k`` runs on (:class:`BlockComponentMaintainer`) and
    the matching's (:class:`~repro.core.matching.BipartiteGraphMaintainer`).
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


class BlockComponent:
    """One ``q``-connected block component of Proposition 10.6.

    ``blocks`` lists its block ids, ``size`` counts its facts, and ``memo``
    maps ``k`` to the component's finished ``Cert_k`` fixpoint as
    ``(certain, facts, antichain)`` (see :meth:`repro.core.certk.CertK.run`).
    A record is never edited: a delta that touches the component retires it
    and derives a fresh one, so a live record's memo always describes the
    component's current facts and solutions.
    """

    __slots__ = ("blocks", "size", "memo")

    def __init__(self, blocks: List[BlockId], size: int) -> None:
        self.blocks = blocks
        self.size = size
        self.memo: Dict[int, tuple] = {}


class BlockPartition:
    """The partition of a database into :class:`BlockComponent` records.

    ``component_of`` maps every block id to its record; ``components`` holds
    the live records in creation order (a dict used as an ordered set).
    """

    __slots__ = ("component_of", "components", "_databases")

    def __init__(self) -> None:
        self.component_of: Dict[BlockId, BlockComponent] = {}
        self.components: Dict[BlockComponent, None] = {}
        self._databases: Optional[List[Database]] = None

    def materialize(self, database: Database) -> List[Database]:
        """The component sub-databases of ``database``, memoised until a delta."""
        if self._databases is None:
            block_by_id = database.block_by_id
            self._databases = [
                Database(fact for key in component.blocks for fact in block_by_id(key).facts)
                for component in self.components
            ]
        return self._databases


class BlockComponentMaintainer:
    """Builds and delta-maintains the :class:`BlockPartition` of one query.

    Doubles as the cache *builder* (:meth:`build`: a breadth-first search
    over blocks on the delta-maintained solution graph, where a block
    reaches the blocks of its facts' neighbours) and the cache *maintainer*
    (``__call__``).  Adds and removes share one path, reconciled against the
    database's final state like
    :class:`~repro.core.matching.BipartiteGraphMaintainer`: the changed
    fact's block and every block of the record that block was in are
    searched again, and a search reaching a block of another live record
    retires that record and searches all of its blocks too — one write can
    merge part of a component into another while splitting the rest off, so
    re-deriving only the reached blocks would lose the rest.  Every retired
    record's blocks land in fresh records or leave with their last fact.
    Records no delta reaches keep their identity and their memo, and the
    maintainer never raises :class:`~repro.eval.deltas.DeltaUnsupported`.
    """

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query

    def build(self, database: Database) -> BlockPartition:
        graph = build_solution_graph(self.query, database)
        partition = BlockPartition()
        for block in database.blocks():
            if block.block_id not in partition.component_of:
                self._derive(database, graph, partition, block.block_id, [])
        return partition

    def __call__(
        self, database: Database, partition: BlockPartition, delta: FactDelta
    ) -> BlockPartition:
        graph = build_solution_graph(self.query, database)
        key = delta.fact.block_id()
        pending = [key]
        _retire(partition, partition.component_of.get(key), pending)
        while pending:
            key = pending.pop()
            if partition.component_of.get(key) in partition.components:
                continue  # already re-derived: queued blocks had retired records
            if database.block_by_id(key) is None:  # its last fact left
                partition.component_of.pop(key, None)
                continue
            self._derive(database, graph, partition, key, pending)
        partition._databases = None
        return partition

    @staticmethod
    def _derive(
        database: Database,
        graph: SolutionGraph,
        partition: BlockPartition,
        start: BlockId,
        pending: List[BlockId],
    ) -> None:
        """Record the current component of block ``start`` afresh.

        Live records it overlaps are retired, their blocks queued on
        ``pending``.
        """
        edges = graph.edges
        blocks = [start]
        seen = {start}
        size = 0
        for key in blocks:  # grows while it is walked: a breadth-first search
            facts = database.block_by_id(key).facts
            size += len(facts)
            for fact in facts:
                for other in edges.get(fact, _NO_FACTS):
                    reached = other.block_id()
                    if reached not in seen:
                        seen.add(reached)
                        blocks.append(reached)
        record = BlockComponent(blocks, size)
        component_of = partition.component_of
        for key in blocks:
            _retire(partition, component_of.get(key), pending)
            component_of[key] = record
        partition.components[record] = None


def _retire(
    partition: BlockPartition, record: Optional[BlockComponent], pending: List[BlockId]
) -> None:
    """Drop a live ``record`` and queue its blocks for re-derivation."""
    if record is not None and record in partition.components:
        del partition.components[record]
        pending.extend(record.blocks)


_BLOCK_COMPONENT_MAINTAINERS: Dict[TwoAtomQuery, BlockComponentMaintainer] = {}


def block_component_maintainer(query: TwoAtomQuery) -> BlockComponentMaintainer:
    """The shared :class:`BlockComponentMaintainer` of ``query``."""
    maintainer = _BLOCK_COMPONENT_MAINTAINERS.get(query)
    if maintainer is None:
        if len(_BLOCK_COMPONENT_MAINTAINERS) >= 512:  # leak guard, as in deltas
            _BLOCK_COMPONENT_MAINTAINERS.clear()
        maintainer = _BLOCK_COMPONENT_MAINTAINERS[query] = BlockComponentMaintainer(query)
    return maintainer


def block_partition(query: TwoAtomQuery, database: Database) -> BlockPartition:
    """The cached, delta-maintained :class:`BlockPartition` of ``database``."""
    maintainer = block_component_maintainer(query)
    return database.cached(
        ("q_block_components", query), maintainer.build, maintainer=maintainer
    )


def q_connected_block_components(
    query: TwoAtomQuery, database: Database
) -> List[Database]:
    """The ``q``-connected components of Proposition 10.6, as sub-databases.

    Two blocks are ``q``-connected when some facts of theirs form a solution;
    the partition is the reflexive-symmetric-transitive closure of that
    relation.  Every returned component is the sub-database induced by the
    blocks of one equivalence class (so the components partition ``D``).

    A view over the cached :func:`block_partition`, which a fact delta of
    either direction updates in place by re-deriving only the components
    the fact touches (see :class:`BlockComponentMaintainer`).  The
    sub-databases are memoised until the next delta; treat them as
    read-only.
    """
    return block_partition(query, database).materialize(database)
