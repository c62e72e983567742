"""The greedy fixpoint algorithm ``Cert_k(q)`` (Section 5, from [3]).

The algorithm computes an inflationary fixpoint ``Δ_k(q, D)`` of *k-sets*
(sets of at most ``k`` facts extendable to a repair) with the invariant that
every repair containing a member of ``Δ_k(q, D)`` satisfies ``q``.  It
answers *yes* when the empty set enters the fixpoint; the answer is always an
under-approximation of ``certain(q)`` and is exact on the query classes
identified by Theorems 6.1, 8.1 and 10.5.

Implementation notes
--------------------
``Δ_k`` is upward closed within k-sets, so only the antichain of minimal
sets is stored; a k-set is *covered* when it contains a stored set.  The
paper's constant ``k = 2^(2κ+1) + κ − 1`` (Proposition 8.2) is a proof
artefact and far from optimal; the implementation accepts any ``k`` and
defaults to ``k = 2``, which is the value used by Theorem 6.1 and is
sufficient for every example query of the paper on the benchmark workloads.

Two implementations are provided:

* :class:`CertK` — a worklist/delta-driven fixpoint over fact ids.  The
  seeds are read straight off the database-cached, index-built and
  delta-maintained solution graph ``G(D, q)``: every self-loop seeds a
  singleton and every edge across two blocks avoiding self-loops seeds a
  pair.  It runs on the database's own fact ids and block indices (ids are
  assigned once, at insert; a run interns nothing), so k-sets are sorted id
  tuples and the memoised antichains stay valid as long as their component
  is untouched; each newly inserted minimal set enqueues only
  the candidate k-sets it can make fire, generated on demand from an
  inverted id → stored-set index, and a per-block completion index of
  position bitmasks tests a candidate against a whole block in ``2^k``
  lookups.  Candidate k-sets that no insertion can ever affect are never
  materialised, so the cost is driven by the size of the fixpoint rather
  than by the ``O(n^k)`` candidate space.

  The fixpoint runs one ``q``-connected block component at a time, read
  from the database's cached, delta-maintained partition
  (:func:`~repro.core.solutions.block_partition`).  As in the component
  argument of Proposition 10.6, no search step leaves a component, so
  ``Δ_k`` is the disjoint union of the components' fixpoints and ``q``
  passes ``Cert_k`` on ``D`` iff it passes on one component.  Each
  component's finished fixpoint is memoised on its partition record, which
  a write retires only when it touches the component: a read after a
  one-fact write reruns only the components the write touched.  A memoised
  certain component decides a run at once; otherwise the components not yet
  memoised run smallest first (by fact count; those with a memoised greedy
  falsifying choice, which cannot be certain, last) and the run stops at the
  first one that derives the empty set, so a certain database with a small
  certain component is decided after a handful of insertions, whatever the
  size of the rest.  The result's ``delta`` is converted to ``Fact``
  frozensets only when it is first read, through the database's ids (an id
  keeps naming its fact after a removal).
* :class:`NaiveCertK` — the seed implementation: enumerate every candidate
  k-set with ``itertools.combinations`` and re-scan them all on every pass
  until nothing changes.  Kept verbatim as the differential-testing oracle.

Both compute the same unique minimal antichain (the rule is monotone, so the
fixpoint — and hence its set of minimal generators — does not depend on the
order in which rule instances fire).
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import chain, combinations
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..db.fact_store import Database
from .query import TwoAtomQuery
from .solutions import BlockComponent, SolutionGraph, block_partition, build_solution_graph
from .terms import Fact

KSet = FrozenSet[Fact]
#: A k-set inside :class:`_WorklistFixpoint`: sorted fact ids of the database.
IdSet = Tuple[int, ...]


class CertKResult:
    """Outcome of running ``Cert_k(q)`` on a database.

    ``iterations`` counts fixpoint work: passes over the candidate space for
    :class:`NaiveCertK`; for :class:`CertK`, antichain insertions processed
    in the block components this call recomputed — 0 when every component's
    outcome was memoised.  ``delta`` is the computed antichain (on a
    non-certain :class:`CertK` result, the union of every component's); a
    :class:`CertK` result builds it from the components' fact ids on first
    access.
    """

    def __init__(
        self, certain: bool, k: int, delta: Optional[Set[KSet]] = None, iterations: int = 0
    ) -> None:
        self.certain = certain
        self.k = k
        self.iterations = iterations
        self._delta = set() if delta is None else delta
        self._pending: Optional[Callable[[], Set[KSet]]] = None

    @property
    def delta(self) -> Set[KSet]:
        if self._pending is not None:
            self._delta, self._pending = self._pending(), None
        return self._delta

    def _fields(self) -> tuple:
        return (self.certain, self.k, self.delta, self.iterations)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "CertKResult(certain={!r}, k={!r}, delta={!r}, iterations={!r})".format(
            *self._fields()
        )

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.certain


class CertK:
    """Worklist runner for the greedy fixpoint algorithm (fixed query and ``k``)."""

    def __init__(self, query: TwoAtomQuery, k: int = 2) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.query = query
        self.k = k

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, database: Database) -> CertKResult:
        """Execute the fixpoint computation and report the outcome.

        Reads the database's cached block partition: a component whose
        ``Cert_k`` outcome is memoised is not run again, and a memoised
        certain one decides the run at once.  The rest run smallest first,
        each memoising its outcome on its record, up to the first certain
        one; components with a memoised greedy falsifying choice go last,
        as none of them can be certain (the order moves neither the answer
        nor ``delta``).
        """
        k = self.k
        components = block_partition(self.query, database).components
        stale: List[BlockComponent] = []
        for component in components:
            outcome = component.memo.get(k)
            if outcome is None:
                stale.append(component)
            elif outcome[0]:
                return CertKResult(True, k, {frozenset()})
        graph = build_solution_graph(self.query, database)
        processed = 0
        for component in sorted(stale, key=lambda c: (bool(c.choice), c.size)):
            fixpoint = _WorklistFixpoint(k, database, graph, component.blocks)
            certain = fixpoint.solve()
            processed += fixpoint.processed
            component.memo[k] = (certain, fixpoint.delta)
            if certain:
                return CertKResult(True, k, {frozenset()}, processed)
        result = CertKResult(False, k, iterations=processed)
        # Only the components' antichains outlive the run.
        result._pending = partial(
            _as_facts, database.fact, [component.memo[k][1] for component in components]
        )
        return result

    def is_certain(self, database: Database) -> bool:
        """Boolean wrapper for :meth:`run` (the paper's ``D |= Cert_k(q)``)."""
        return self.run(database).certain

    def _initial_delta(self, database: Database) -> Set[KSet]:
        """Minimal k-sets satisfying the query: solution pairs and self-solutions.

        Exactly the seeds of :meth:`run`, every component's (see
        :class:`_WorklistFixpoint`): self-loops seed singletons and, for
        ``k >= 2``, solution-graph edges across two blocks avoiding self-loops
        seed pairs.
        """
        graph = build_solution_graph(self.query, database)
        blocks = [block.index for block in database.blocks()]
        fixpoint = _WorklistFixpoint(self.k, database, graph, blocks)
        return _as_facts(database.fact, [fixpoint.seeds])


class _WorklistFixpoint:
    """Delta-driven evaluation of the Section 5 inductive rule on fact ids.

    A k-set is a sorted tuple of the database's fact ids, and a block is
    named by its database index.  The state is the antichain ``delta``, an
    inverted index ``inv`` (id → stored sets containing it) and a
    *completion index*: for a stored set ``T`` and each ``u ∈ T``, the entry
    ``(T \\ {u}, block(u))`` carries the bit of ``u``'s position within its
    block.  ``C ∪ {u}`` for a non-covered ``C`` is covered exactly when some
    ``T ∋ u`` has ``T \\ {u} ⊆ C``, so OR-ing the masks of the ``2^|C|``
    subsets of ``C`` tests a whole block at once.  Coverage only grows, so a
    dominated set's bits stay valid and the index never shrinks.  Every
    table is a dict over the component's own facts and blocks, so a run
    allocates in proportion to its component, not to the database.

    Processing a stored set ``S`` explores, for every ``u ∈ S``, candidates
    ``C ⊇ S \\ {u}`` against the block of ``u`` — by the argument below this
    reaches every minimal set whose last-needed witness is ``S``:

    A non-covered candidate ``C`` fires via block ``B`` when every ``u ∈ B``
    has a stored witness ``T_u ⊆ C ∪ {u}``; since ``C`` is not covered, each
    witness must contain its ``u``.  Taking ``S`` to be the witness inserted
    last, ``S = T_u`` for some ``u ∈ B``, so ``S \\ {u} ⊆ C`` and
    ``B = block(u)`` — exactly the seeds explored when ``S`` is processed.
    The candidates reachable from a seed are generated by repeatedly fixing a
    still-uncovered block member (``pivot``) and extending ``C`` with the
    facts of a stored set containing the pivot (witnesses disjoint from
    ``C ∪ {pivot}`` would make the extension covered, hence prunable), which
    enumerates every minimal firing superset in at most ``k`` steps.

    Seeding reads the solution graph, never a copy of it: each self-loop
    ``a`` (``q(a a)``) becomes the singleton ``(a,)``, and for ``k >= 2`` each
    edge ``{a, b}`` whose endpoints lie in different blocks and are no
    self-loops becomes the pair ``(a, b)`` with ``a < b``.  That is already
    the minimal antichain of the Section 5 seeds: singletons are pairwise
    incomparable and the empty set never seeds; two distinct pairs are
    incomparable; and a pair can only be dominated by a singleton inside it,
    i.e. by one of its endpoints being a self-loop, which the rule excludes.
    Key-equal endpoints are excluded because a k-set holds at most one fact
    per block.  So the seeds need no domination checks, and ``seeds`` lists
    the singletons first (they are the closest to deriving the empty set).
    Each edge is collected once, from its smaller id.

    A run seeds from the blocks it is given: those of one ``q``-connected
    block component of Proposition 10.6, as the maintained partition lists
    it (:class:`CertK` reads every component's seeds only to report them).
    No search step leaves a component: every seed lies in one (a seed pair
    is a solution, which joins its blocks), and a candidate is a stored set
    ``S`` minus a member ``u``, extended by witnesses of a member of
    ``block(u)``, which by induction lie in ``S``'s component.  Coverage
    tests, completion masks and witnesses of a component therefore only ever
    see its own stored sets, and ``Δ_k`` is the disjoint union of the
    components' fixpoints (a set spanning two components is never minimal,
    and a block whose members are all singletons derives the empty set on
    its own).  A run over one component thus computes exactly that
    component's part of ``Δ_k``, whatever the rest of the database holds,
    which is what lets :class:`CertK` memoise it per component.

    The antichain does not depend on which uncovered block member is taken
    as the pivot.  When ``S`` is processed every witness of a firing ``C`` is
    already stored, so *each* member ``v`` still uncovered for a candidate
    ``C' ⊆ C`` has a stored witness ``T_v`` with ``T_v \\ {v} ⊆ C``, and
    extending ``C'`` by it stays inside ``C``: every choice reaches ``C``, and
    the pivot only shapes the search tree.  The search therefore takes the
    member with the fewest stored witnesses, and abandons a candidate as soon
    as some uncovered member has none (no superset of it can fire yet; the
    insertion that later supplies the witness is processed in its turn).
    """

    def __init__(
        self, k: int, database: Database, graph: SolutionGraph, blocks: Iterable[int]
    ) -> None:
        self.k = k
        self._block_of = database.fact_blocks
        # Per block: member ids in position order, the full position mask
        # and the completion masks; per fact: the bit of its position in
        # its block and the stored sets holding it.
        self._members: Dict[int, List[int]] = {}
        self._full: Dict[int, int] = {}
        self._bit: Dict[int, int] = {}
        self._completion: Dict[int, Dict[IdSet, int]] = {}
        self.delta: Set[IdSet] = set()
        self.inv: Dict[int, Set[IdSet]] = {}
        self.queue: Deque[IdSet] = deque()
        self.processed = 0
        self.empty_derived = False
        table = database.block_table
        bit = self._bit
        inv = self.inv
        ids: List[int] = []
        for number in blocks:
            members = list(table[number].ids)
            for position, fid in enumerate(members):
                bit[fid] = 1 << position
                inv[fid] = set()
            self._members[number] = members
            self._full[number] = (1 << len(members)) - 1
            self._completion[number] = {}
            ids += members
        #: The seeds read off the blocks' solutions, singletons first.
        self.seeds = self._seed(graph, ids)

    def _seed(self, graph: SolutionGraph, ids: List[int]) -> List[IdSet]:
        """Collect the seeds of ``ids`` read off ``graph``."""
        loops = graph.self_loops
        seeds: List[IdSet] = [(fid,) for fid in ids if fid in loops] if loops else []
        if self.k >= 2:
            block_of = self._block_of
            edges = graph.edges
            for fid in ids:
                adjacent = edges.get(fid)
                if not adjacent or fid in loops:  # isolated, or a self-loop
                    continue
                block = block_of[fid]
                for other in adjacent:
                    if other > fid and block_of[other] != block and other not in loops:
                        seeds.append((fid, other))
        return seeds

    # ------------------------------------------------------------------ #
    # driver
    # ------------------------------------------------------------------ #
    def solve(self) -> bool:
        """Store the seeds and drain the worklist; whether ``()`` was derived."""
        for seed in self.seeds:
            self._store(seed)
        self._drain()
        return self.empty_derived

    def _drain(self) -> None:
        block_of = self._block_of
        full = self._full
        while self.queue and not self.empty_derived:
            member = self.queue.popleft()
            if member not in self.delta:
                # Dominated after being enqueued; the dominating subset's own
                # processing reaches every candidate this member could seed.
                continue
            self.processed += 1
            for index, pivot_id in enumerate(member):
                block = block_of[pivot_id]
                self._search(member[:index] + member[index + 1:], block, full[block])
                if self.empty_derived:
                    break

    # ------------------------------------------------------------------ #
    # candidate generation
    # ------------------------------------------------------------------ #
    def _search(self, candidate: IdSet, block: int, full: int) -> None:
        subsets = _subsets(candidate)
        if not self.delta.isdisjoint(subsets):
            return  # covered
        masks = self._completion[block]
        mask = masks.get((), 0)
        for subset in subsets:
            mask |= masks.get(subset, 0)
        if mask == full:
            self._insert(candidate)
            return
        room = self.k - len(candidate)
        if not room:
            return
        # Any uncovered member may serve as the pivot (see the class notes):
        # take the one with the fewest stored witnesses, and give up when
        # one has none.
        members = self._members[block]
        inv = self.inv
        missing = full & ~mask
        pivot = -1
        fewest = None
        while missing:
            low = missing & -missing
            fid = members[low.bit_length() - 1]
            witnesses = inv[fid]
            if not witnesses:
                return
            if fewest is None or len(witnesses) < len(fewest):
                pivot, fewest = fid, witnesses
            missing ^= low
        block_of = self._block_of
        candidate_blocks = [block_of[fid] for fid in candidate]
        for witness in list(fewest):
            extension = [fid for fid in witness if fid != pivot and fid not in candidate]
            if not extension or len(extension) > room:
                continue
            for fid in extension:
                if block_of[fid] in candidate_blocks:
                    break
            else:
                self._search(tuple(sorted(candidate + tuple(extension))), block, full)
                if self.empty_derived:
                    return

    # ------------------------------------------------------------------ #
    # antichain maintenance
    # ------------------------------------------------------------------ #
    def _insert(self, member: IdSet) -> None:
        """Store a non-covered ``member``, evicting the stored sets it dominates."""
        if not member:
            self.empty_derived = True
            self.delta = {()}
            self.queue.clear()
            return
        delta = self.delta
        inv = self.inv
        size = len(member)
        for stored in list(inv[member[0]]):
            if len(stored) > size and all(fid in stored for fid in member):
                delta.discard(stored)
                for fid in stored:
                    inv[fid].discard(stored)
        self._store(member)

    def _store(self, member: IdSet) -> None:
        self.delta.add(member)
        inv = self.inv
        block_of = self._block_of
        bit = self._bit
        completion = self._completion
        for index, fid in enumerate(member):
            rest = member[:index] + member[index + 1:]
            masks = completion[block_of[fid]]
            masks[rest] = masks.get(rest, 0) | bit[fid]
            inv[fid].add(member)
        self.queue.append(member)


def _as_facts(fact: Callable[[int], Fact], antichains: Iterable[Iterable[IdSet]]) -> Set[KSet]:
    """Finished fixpoints' id tuples as ``Fact`` frozensets (``fact`` maps an id)."""
    return {frozenset(fact(i) for i in member) for members in antichains for member in members}


def _subsets(ids: IdSet) -> Tuple[IdSet, ...]:
    """The non-empty sub-tuples of a sorted id tuple (``ids`` itself last)."""
    size = len(ids)
    if size == 1:
        return (ids,)
    if size == 2:
        return (ids[:1], ids[1:], ids)
    return tuple(chain.from_iterable(combinations(ids, length) for length in range(1, size + 1)))


class NaiveCertK:
    """The seed runner: full candidate enumeration, re-scanned to fixpoint.

    Kept as the differential-testing oracle for :class:`CertK`; exponentially
    slower on large databases (it materialises every k-subset of the facts).
    """

    def __init__(self, query: TwoAtomQuery, k: int = 2) -> None:
        if k < 1:
            raise ValueError("k must be at least 1")
        self.query = query
        self.k = k

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self, database: Database) -> CertKResult:
        """Execute the fixpoint computation and report the outcome."""
        delta = self._initial_delta(database)
        if frozenset() in delta:
            return CertKResult(True, self.k, delta, 0)
        candidates = self._candidate_ksets(database)
        blocks = [block.facts for block in database.blocks()]
        iterations = 0
        changed = True
        while changed:
            changed = False
            iterations += 1
            for candidate in candidates:
                if self._covered(candidate, delta):
                    continue
                if self._rule_fires(candidate, blocks, delta):
                    self._insert_minimal(candidate, delta)
                    changed = True
            if self._covered(frozenset(), delta):
                return CertKResult(True, self.k, delta, iterations)
        return CertKResult(frozenset() in delta, self.k, delta, iterations)

    def is_certain(self, database: Database) -> bool:
        """Boolean wrapper for :meth:`run` (the paper's ``D |= Cert_k(q)``)."""
        return self.run(database).certain

    # ------------------------------------------------------------------ #
    # fixpoint machinery
    # ------------------------------------------------------------------ #
    def _initial_delta(self, database: Database) -> Set[KSet]:
        """Minimal k-sets satisfying the query: solution pairs and self-solutions."""
        delta: Set[KSet] = set()
        facts = database.facts()
        for fact in facts:
            if self.query.is_self_solution(fact):
                delta.add(frozenset((fact,)))
        if self.k >= 2:
            for index, first in enumerate(facts):
                assignment = self.query.atom_a.match(first)
                if assignment is None:
                    continue
                for second in facts:
                    if second == first or first.key_equal(second):
                        continue
                    if self.query._extends_to_b(assignment, second):
                        delta.add(frozenset((first, second)))
        return _minimise(delta)

    def _candidate_ksets(self, database: Database) -> List[KSet]:
        """All k-sets of the database (at most one fact per block), smallest first."""
        facts = database.facts()
        candidates: List[KSet] = [frozenset()]
        for size in range(1, self.k + 1):
            if size > len(facts):
                break
            for subset in combinations(facts, size):
                block_ids = {fact.block_id() for fact in subset}
                if len(block_ids) == len(subset):
                    candidates.append(frozenset(subset))
        # Smaller sets first so that minimal sets are discovered before the
        # larger sets they cover.
        candidates.sort(key=len)
        return candidates

    def _rule_fires(
        self, candidate: KSet, blocks: List[List[Fact]], delta: Set[KSet]
    ) -> bool:
        """The inductive rule of Section 5.

        ``candidate`` enters ``Δ_k`` when some block ``B`` is such that for
        every fact ``u`` of ``B`` some subset of ``candidate ∪ {u}`` already
        belongs to ``Δ_k``.
        """
        for block_facts in blocks:
            if all(
                self._covered(candidate | {fact}, delta) for fact in block_facts
            ):
                return True
        return False

    def _covered(self, fact_set: FrozenSet[Fact], delta: Set[KSet]) -> bool:
        """Whether some member of ``delta`` is included in ``fact_set``."""
        if frozenset() in delta:
            return True
        members = list(fact_set)
        max_size = min(len(members), self.k)
        for size in range(1, max_size + 1):
            for subset in combinations(members, size):
                if frozenset(subset) in delta:
                    return True
        return False

    def _insert_minimal(self, candidate: KSet, delta: Set[KSet]) -> None:
        """Insert keeping ``delta`` an antichain of minimal sets."""
        dominated = {stored for stored in delta if candidate < stored}
        delta.difference_update(dominated)
        delta.add(candidate)


def _minimise(delta: Set[KSet]) -> Set[KSet]:
    """Reduce a family of k-bounded sets to its minimal antichain.

    Processing smallest-first, a candidate is dominated iff one of its proper
    subsets was kept — tested by direct membership on the ``2^|candidate|``
    subsets (sets hold at most ``k`` facts), so the reduction is linear in
    ``|delta|`` rather than quadratic.
    """
    minimal: Set[KSet] = set()
    for candidate in sorted(delta, key=len):
        members = list(candidate)
        dominated = False
        for size in range(len(members)):
            for subset in combinations(members, size):
                if frozenset(subset) in minimal:
                    dominated = True
                    break
            if dominated:
                break
        if not dominated:
            minimal.add(candidate)
    return minimal


def cert_k(query: TwoAtomQuery, database: Database, k: int = 2) -> bool:
    """Convenience wrapper: ``D |= Cert_k(q)``."""
    return CertK(query, k).is_certain(database)


def cert_2(query: TwoAtomQuery, database: Database) -> bool:
    """The ``k = 2`` instantiation used by Theorem 6.1."""
    return cert_k(query, database, k=2)


def delta_k(query: TwoAtomQuery, database: Database, k: int = 2) -> Set[KSet]:
    """The computed antichain of minimal members of ``Δ_k(q, D)``."""
    return CertK(query, k).run(database).delta
