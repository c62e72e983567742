"""Solution graphs of a query over a database (Section 10).

For a two-atom query the set of solutions over a database ``D`` is naturally
an undirected graph ``G(D, q)``: vertices are the facts of ``D`` and an edge
joins ``a`` and ``b`` whenever ``D |= q{a b}``.  The matching-based algorithm
(Section 10.1) and the component decomposition of Proposition 10.6 are both
phrased in terms of this graph, as are quasi-cliques and clique-databases.

The graph the algorithms read, :class:`SolutionGraph`, and the block
partition built on it, :class:`BlockPartition`, run on the database's dense
fact ids and block indices (see :class:`~repro.db.fact_store.Database`):
no ``Fact`` is built, hashed or compared on their paths.  ``Fact`` vertices
appear only in :class:`FactGraph`, the graph's view for tests and cold
consumers and the result of the naive oracle.

Each :class:`BlockComponent` record of the partition memoises two outcomes
for as long as no write touches the component: its ``Cert_k`` fixpoints
(:class:`~repro.core.certk.CertK`) and the choice of
:func:`greedy_falsifying_choice`, one fact per block with no solution among
them, which the engine reads as a falsifying repair of the component.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..db.fact_store import Database
from ..eval.deltas import FactDelta, graph_maintainer
from ..graphs.components import connected_components
from .query import TwoAtomQuery
from .terms import Fact

_NO_VERTICES: FrozenSet = frozenset()


class _Graph:
    """The undirected graph algorithms shared by both vertex kinds.

    ``edges`` maps every vertex, in insertion order, to its neighbours
    (``q{a b}`` with ``a != b``); ``self_loops`` holds the vertices ``a``
    with ``q(a a)``.  ``_block`` maps a vertex to its block.
    """

    __slots__ = ("edges", "self_loops")
    _block: Callable[[Hashable], Hashable]

    def __init__(self, edges: Dict, self_loops: Set) -> None:
        self.edges = edges
        self.self_loops = self_loops

    @property
    def facts(self) -> Dict:
        """The vertices, in insertion order (the ``edges`` dict itself)."""
        return self.edges

    def neighbours(self, vertex) -> Set:
        return set(self.edges.get(vertex, _NO_VERTICES))

    def has_edge(self, first, second) -> bool:
        return second in self.edges.get(first, _NO_VERTICES)

    def edge_count(self) -> int:
        return sum(len(adjacent) for adjacent in self.edges.values()) // 2

    def components(self) -> List[List]:
        """Connected components of the undirected graph (isolated vertices included)."""
        return connected_components(
            self.edges,
            ((vertex, other) for vertex, adjacent in self.edges.items() for other in adjacent),
        )

    def is_quasi_clique(self, component: Iterable) -> bool:
        """Quasi-clique test of Section 10.1, in ``O(|C| + edges of C)``.

        ``C`` is a quasi-clique when every pair of its facts that are *not*
        key-equal is joined by an edge.  That holds iff every member has as
        many neighbours in ``C`` outside its own block as ``C`` has members
        outside that block: a degree count, no pairwise sweep.  Only
        neighbours inside ``C`` count, so any vertex collection can be
        tested, not just a whole component.
        """
        members = component if isinstance(component, (set, frozenset)) else set(component)
        total = len(members)
        if total <= 1:
            return True
        block_of = self._block
        blocks: Dict[Hashable, Set] = {}
        for member in members:
            blocks.setdefault(block_of(member), set()).add(member)
        edges = self.edges
        for block in blocks.values():
            required = total - len(block)
            for member in block:
                adjacent = edges.get(member, _NO_VERTICES)
                if len(adjacent & members) - len(adjacent & block) != required:
                    return False
        return True

    def is_clique_database(self) -> bool:
        """Whether every connected component is a quasi-clique (Section 10.1)."""
        return all(self.is_quasi_clique(component) for component in self.components())

    def clique_map(self) -> Dict[Hashable, FrozenSet]:
        """The paper's ``clique(a)`` for every vertex.

        Computed component-wise: members of a quasi-clique component map to
        the whole component, all other vertices to their singleton.
        """
        cliques: Dict[Hashable, FrozenSet] = {}
        for component in self.components():
            if self.is_quasi_clique(component):
                frozen = frozenset(component)
                for member in component:
                    cliques[member] = frozen
            else:
                for member in component:
                    cliques[member] = frozenset((member,))
        return cliques

    def clique_of(self, vertex) -> FrozenSet:
        """The paper's ``clique(a)``.

        The connected component of ``a`` when that component is a
        quasi-clique, the singleton ``{a}`` otherwise.
        """
        clique = self.clique_map().get(vertex)
        if clique is None:
            raise KeyError(f"{vertex} does not belong to the graph")
        return clique


class FactGraph(_Graph):
    """``G(D, q)`` over ``Fact`` vertices, with the ordered solutions ``directed``.

    The :meth:`SolutionGraph.view` of the id graph, read by tests and cold
    consumers (the tripath search, :class:`~repro.eval.evaluator.IndexedEvaluator`),
    and the result of the independent oracle
    :func:`build_solution_graph_naive`.
    """

    __slots__ = ("directed",)
    _block = staticmethod(Fact.block_id)

    def __init__(
        self, edges: Dict[Fact, Set[Fact]], self_loops: Set[Fact], directed: Set[Tuple[Fact, Fact]]
    ) -> None:
        super().__init__(edges, self_loops)
        self.directed = directed

    def has_directed(self, first: Fact, second: Fact) -> bool:
        return (first, second) in self.directed


class SolutionGraph(_Graph):
    """The undirected solution graph ``G(D, q)`` on a database's fact ids.

    ``edges`` maps every live fact id, in insertion order, to the ids it
    forms a solution with (``q{a b}``, ``a != b``), and ``self_loops`` holds
    the ids ``a`` with ``q(a a)``.  No answer path reads the ordered
    solutions ``q(a b)``, so the graph does not store them: :meth:`directed_ids`
    probes the database's index for them, and :meth:`view` is the ``Fact``
    view cold consumers and tests read.

    The graph is a live view when cached on a database: fact deltas are
    spliced in by :class:`~repro.eval.deltas.SolutionGraphMaintainer`.  The
    maintained partitions the answer path reads are the block components
    ``Cert_k`` runs on (:class:`BlockComponentMaintainer`) and the
    matching's (:class:`~repro.core.matching.BipartiteGraphMaintainer`).
    """

    __slots__ = ("query", "_index", "_fact_blocks")

    def __init__(
        self,
        query: TwoAtomQuery,
        database: Database,
        edges: Dict[int, Set[int]],
        self_loops: Set[int],
    ) -> None:
        super().__init__(edges, self_loops)
        self.query = query
        # The database's own tables, not the database: a graph cached on
        # its database must not form a reference cycle with it.
        self._index = database.index
        self._fact_blocks = database.fact_blocks

    @property
    def _block(self) -> Callable[[int], int]:
        return self._fact_blocks.__getitem__

    @classmethod
    def from_pairs(
        cls, query: TwoAtomQuery, database: Database, pairs: Iterable[Tuple[int, int]]
    ) -> "SolutionGraph":
        """Assemble ``G(D, q)`` from ordered solution pairs of fact ids."""
        edges: Dict[int, Set[int]] = {fid: set() for fid in database.ids()}
        self_loops: Set[int] = set()
        for first, second in pairs:
            if first == second:
                self_loops.add(first)
            else:
                edges[first].add(second)
                edges[second].add(first)
        return cls(query, database, edges, self_loops)

    def directed_ids(self) -> Iterator[Tuple[int, int]]:
        """The ordered solutions ``q(a b)`` as id pairs, probed from the index."""
        return graph_maintainer(self.query).a_to_b.pairs(self._index, list(self.edges))

    def view(self) -> FactGraph:
        """This graph over ``Fact`` vertices (a snapshot, built per call)."""
        fact = self._index.fact
        return FactGraph(
            {fact(fid): {fact(other) for other in adjacent} for fid, adjacent in self.edges.items()},
            {fact(fid) for fid in self.self_loops},
            {(fact(first), fact(second)) for first, second in self.directed_ids()},
        )


def solution_graph_cache_key(query: TwoAtomQuery) -> Tuple[str, TwoAtomQuery]:
    """The :meth:`Database.cached` key under which ``G(D, q)`` is stored.

    Exposed so that producers other than :func:`build_solution_graph` (e.g.
    the SQLite backend pushing solution pairs down to SQL) can prime the
    cache with an equivalent graph.
    """
    return ("solution_graph", query)


def build_solution_graph(query: TwoAtomQuery, database: Database) -> SolutionGraph:
    """Compute ``G(D, q)`` on the database's fact ids.

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


def _build_solution_graph_indexed(query: TwoAtomQuery, database: Database) -> SolutionGraph:
    ids = database.ids()
    pairs = graph_maintainer(query).a_to_b.pairs(database.index, ids)
    return SolutionGraph.from_pairs(query, database, pairs)


def solution_graph_from_pairs(
    facts: Iterable[Fact], pairs: Iterable[Tuple[Fact, Fact]]
) -> FactGraph:
    """Assemble a :class:`FactGraph` from ordered solution pairs of facts.

    The accretion point of the naive oracle, and of any graph over ``Fact``
    vertices (the pairs need not be solutions of anything).
    """
    edges: Dict[Fact, Set[Fact]] = {fact: set() for fact in facts}
    graph = FactGraph(edges, set(), set())
    for first, second in pairs:
        graph.directed.add((first, second))
        if first == second:
            graph.self_loops.add(first)
        else:
            edges[first].add(second)
            edges[second].add(first)
    return graph


def build_solution_graph_naive(query: TwoAtomQuery, database: Database) -> FactGraph:
    """The seed all-pairs construction of ``G(D, q)``, over ``Fact`` vertices.

    Kept as the differential-testing oracle for :func:`build_solution_graph`
    (compare through :meth:`SolutionGraph.view`); quadratic in the number
    of facts.
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

    ``blocks`` lists its block indices and ``size`` counts its facts.  Two
    outcomes are memoised on the record:

    * ``memo`` maps ``k`` to the component's finished ``Cert_k`` fixpoint as
      ``(certain, antichain)`` over fact ids (see
      :meth:`repro.core.certk.CertK.run`);
    * ``choice`` is ``None`` until :meth:`falsifying_choice` runs the greedy,
      then the fact ids it chose, one per block in ``blocks`` order, or
      ``()`` when it found none.

    A record is never edited: a delta that touches the component retires it
    and derives a fresh one, so a live record's memos always describe the
    component's current facts and solutions.
    """

    __slots__ = ("blocks", "size", "memo", "choice")

    def __init__(self, blocks: List[int], size: int) -> None:
        self.blocks = blocks
        self.size = size
        self.memo: Dict[int, tuple] = {}
        self.choice: Optional[Tuple[int, ...]] = None

    def falsifying_choice(
        self, database: Database, graph: SolutionGraph
    ) -> Optional[Tuple[int, ...]]:
        """The component's greedy falsifying choice (memoised), or ``None``.

        See :func:`greedy_falsifying_choice`; ``graph`` is the database's
        cached solution graph.
        """
        if self.choice is None:
            self.choice = greedy_falsifying_choice(database, graph, self.blocks) or ()
        return self.choice or None


def greedy_falsifying_choice(
    database: Database, graph: SolutionGraph, blocks: List[int]
) -> Optional[Tuple[int, ...]]:
    """One fact id per block of ``blocks`` with no solution among them, or ``None``.

    A repair falsifies ``q`` exactly when it holds no self-loop and no two
    facts joined by an edge of ``G(D, q)`` (Section 2).  The search is
    greedy and never backtracks: a block's options are its facts that are
    not self-loops; blocks are taken fewest live options first (a heap); a
    block takes its option with the fewest solutions (ties by id), and the
    choice strikes its neighbours from the other blocks' options (forward
    checking).  A block with no option left ends the attempt, so ``None``
    does not mean no such choice exists.  ``blocks`` must be closed under
    solutions (a block component), and the choice comes back in its order,
    checked against the graph before it is returned.
    """
    table = database.block_table
    block_of = database.fact_blocks
    edges = graph.edges
    loops = graph.self_loops
    options: Dict[int, Set[int]] = {}
    heap: List[Tuple[int, int]] = []
    for number in blocks:
        live = set(table[number].ids)
        live -= loops
        if not live:
            return None
        options[number] = live
        heap.append((len(live), number))
    heapify(heap)
    chosen: Dict[int, int] = {}
    while heap:
        count, number = heappop(heap)
        live = options[number]
        if number in chosen or count != len(live):
            continue  # taken, or a stale entry: a fresher one is queued
        pick = min(live, key=lambda fid: (len(edges[fid]), fid))
        chosen[number] = pick
        for other in edges[pick]:
            target = block_of[other]
            if target in chosen:
                continue
            remaining = options[target]
            if other in remaining:
                remaining.discard(other)
                if not remaining:
                    return None
                heappush(heap, (len(remaining), target))
    choice = tuple(chosen[number] for number in blocks)
    picked = set(choice)
    for fid in choice:
        if fid in loops or not edges[fid].isdisjoint(picked):
            return None
    return choice


class BlockPartition:
    """The partition of a database into :class:`BlockComponent` records.

    ``component_of`` maps every block index to its record; ``components``
    holds the live records in creation order (a dict used as an ordered
    set).
    """

    __slots__ = ("component_of", "components", "_databases")

    def __init__(self) -> None:
        self.component_of: Dict[int, BlockComponent] = {}
        self.components: Dict[BlockComponent, None] = {}
        self._databases: Optional[List[Database]] = None

    def materialize(self, database: Database) -> List[Database]:
        """The component sub-databases of ``database``, memoised until a delta."""
        if self._databases is None:
            table = database.block_table
            self._databases = [
                Database(fact for number in component.blocks for fact in table[number].facts)
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
    Blocks are named by their index, which a block keeps for its life (a
    block that empties and fills again is a new block with a new index).
    """

    def __init__(self, query: TwoAtomQuery) -> None:
        self.query = query

    def build(self, database: Database) -> BlockPartition:
        graph = build_solution_graph(self.query, database)
        partition = BlockPartition()
        for block in database.blocks():
            if block.index not in partition.component_of:
                self._derive(database, graph, partition, block.index, [])
        return partition

    def __call__(
        self, database: Database, partition: BlockPartition, delta: FactDelta
    ) -> BlockPartition:
        graph = build_solution_graph(self.query, database)
        key = database.fact_blocks[delta.fid]
        pending = [key]
        _retire(partition, partition.component_of.get(key), pending)
        table = database.block_table
        while pending:
            key = pending.pop()
            if partition.component_of.get(key) in partition.components:
                continue  # already re-derived: queued blocks had retired records
            if key not in table:  # its last fact left
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
        start: int,
        pending: List[int],
    ) -> None:
        """Record the current component of block ``start`` afresh.

        Live records it overlaps are retired, their blocks queued on
        ``pending``.
        """
        edges = graph.edges
        table = database.block_table
        block_of = database.fact_blocks
        blocks = [start]
        seen = {start}
        size = 0
        for key in blocks:  # grows while it is walked: a breadth-first search
            ids = table[key].ids
            size += len(ids)
            for fid in ids:
                for other in edges.get(fid, _NO_VERTICES):
                    reached = block_of[other]
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
    partition: BlockPartition, record: Optional[BlockComponent], pending: List[int]
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
