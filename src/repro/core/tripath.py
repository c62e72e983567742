"""Tripaths: the semantic objects governing the dichotomy (Section 7).

A *tripath* of a 2way-determined query ``q`` is a database whose blocks can
be arranged as a rooted tree with exactly two leaves, a single *branching*
block in the middle, solutions along every tree edge, and whose extremal
facts (root and leaves) avoid the key elements ``g(e)`` of the centre.  A
tripath is a *fork*-tripath or a *triangle*-tripath depending on whether the
centre facts ``d e f`` satisfy ``q(f d)``.

This module provides three related capabilities:

* :class:`Tripath` — an explicit representation (blocks + tree structure)
  with a full validator for every condition of the definition, and the
  niceness notions (variable-nice, solution-nice, nice) used by the
  coNP-hardness reduction of Section 9;
* :func:`find_tripath_in_database` — an exact search for a tripath inside a
  concrete database (used for the Figure 1 fixtures and diagnostics);
* :class:`TripathSearcher` / :func:`find_tripath_for_query` — a chase-based
  search deciding, up to configurable bounds, whether a *query* admits a
  fork- or triangle-tripath at all; witnesses are built over labelled nulls
  and validated before being returned, so every positive answer is exact.

The paper only proves an exponential-size witness bound for tripath
existence; the bounded chase search below is the practical decision
procedure used by the classifier (see DESIGN.md §5 for the discussion of
completeness).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..db.fact_store import Database
from .branching import BranchingTriple, g_elements, triple_is_triangle
from .query import TwoAtomQuery
from .solutions import build_solution_graph
from .terms import Element, Fact
from .unification import (
    FreshElements,
    UnificationError,
    Unifier,
    atom_equations,
    atom_positions_equations,
)

FORK = "fork"
TRIANGLE = "triangle"


# --------------------------------------------------------------------------- #
# Tripath representation and validation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TripathBlock:
    """One block of a tripath.

    ``a_fact`` is the fact forming solutions with the children's ``b`` facts,
    ``b_fact`` the fact forming a solution with the parent's ``a`` fact.  The
    root block carries only ``a_fact``, leaf blocks only ``b_fact``.
    ``parent`` is the index of the parent block, ``None`` for the root.
    """

    a_fact: Optional[Fact]
    b_fact: Optional[Fact]
    parent: Optional[int]

    def facts(self) -> List[Fact]:
        return [fact for fact in (self.a_fact, self.b_fact) if fact is not None]

    def key_tuple(self) -> Tuple[Element, ...]:
        return self.facts()[0].key_tuple


@dataclass
class Tripath:
    """A tripath of ``query``: blocks plus their tree arrangement."""

    query: TwoAtomQuery
    blocks: List[TripathBlock]

    # ------------------------------------------------------------------ #
    # structure helpers
    # ------------------------------------------------------------------ #
    def children(self, index: int) -> List[int]:
        return [child for child, block in enumerate(self.blocks) if block.parent == index]

    def root_index(self) -> int:
        roots = [index for index, block in enumerate(self.blocks) if block.parent is None]
        if len(roots) != 1:
            raise ValueError(f"tripath must have exactly one root, found {len(roots)}")
        return roots[0]

    def leaf_indices(self) -> List[int]:
        return [index for index in range(len(self.blocks)) if not self.children(index)]

    def branching_index(self) -> int:
        branching = [
            index for index in range(len(self.blocks)) if len(self.children(index)) == 2
        ]
        if len(branching) != 1:
            raise ValueError(
                f"tripath must have exactly one branching block, found {len(branching)}"
            )
        return branching[0]

    def facts(self) -> List[Fact]:
        collected: List[Fact] = []
        for block in self.blocks:
            collected.extend(block.facts())
        return collected

    def database(self) -> Database:
        return Database(self.facts())

    def extremal_facts(self) -> Tuple[Fact, Fact, Fact]:
        """``(u0, u1, u2)``: the root fact and the two leaf facts."""
        root = self.blocks[self.root_index()]
        leaves = [self.blocks[index] for index in self.leaf_indices()]
        if root.a_fact is None or len(leaves) != 2:
            raise ValueError("malformed tripath: missing root fact or leaves")
        if leaves[0].b_fact is None or leaves[1].b_fact is None:
            raise ValueError("malformed tripath: leaf block without b-fact")
        return (root.a_fact, leaves[0].b_fact, leaves[1].b_fact)

    def center(self) -> BranchingTriple:
        """The centre ``d e f``: ``e`` branching with the children's ``b`` facts."""
        branching = self.branching_index()
        centre_fact = self.blocks[branching].a_fact
        if centre_fact is None:
            raise ValueError("branching block has no a-fact")
        child_one, child_two = self.children(branching)
        first = self.blocks[child_one].b_fact
        second = self.blocks[child_two].b_fact
        if first is None or second is None:
            raise ValueError("child of the branching block has no b-fact")
        if self.query.matches_pair(first, centre_fact) and self.query.matches_pair(
            centre_fact, second
        ):
            return BranchingTriple(first, centre_fact, second)
        if self.query.matches_pair(second, centre_fact) and self.query.matches_pair(
            centre_fact, first
        ):
            return BranchingTriple(second, centre_fact, first)
        raise ValueError("centre facts do not form q(d e) and q(e f)")

    def g_elements(self) -> frozenset:
        return g_elements(self.center())

    def is_triangle(self) -> bool:
        return triple_is_triangle(self.query, self.center())

    def is_fork(self) -> bool:
        return not self.is_triangle()

    def kind(self) -> str:
        return TRIANGLE if self.is_triangle() else FORK

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def violations(self) -> List[str]:
        """All violated conditions of the tripath definition (empty = valid)."""
        problems: List[str] = []
        if len(self.blocks) < 4:
            problems.append("a tripath needs at least four blocks (root, branching, two leaves)")
            return problems

        problems.extend(self._check_tree_shape())
        if problems:
            return problems
        problems.extend(self._check_block_contents())
        problems.extend(self._check_edge_solutions())
        if problems:
            return problems
        problems.extend(self._check_centre_and_g())
        return problems

    def is_valid(self) -> bool:
        return not self.violations()

    def _check_tree_shape(self) -> List[str]:
        problems = []
        roots = [index for index, block in enumerate(self.blocks) if block.parent is None]
        if len(roots) != 1:
            problems.append(f"expected exactly one root block, found {len(roots)}")
            return problems
        for index, block in enumerate(self.blocks):
            if block.parent is not None and not 0 <= block.parent < len(self.blocks):
                problems.append(f"block {index} has an invalid parent index {block.parent}")
                return problems
        # Reachability / acyclicity.
        visited: Set[int] = set()
        frontier = [roots[0]]
        while frontier:
            current = frontier.pop()
            if current in visited:
                problems.append("the parent structure contains a cycle")
                return problems
            visited.add(current)
            frontier.extend(self.children(current))
        if len(visited) != len(self.blocks):
            problems.append("not all blocks are reachable from the root")
        leaves = self.leaf_indices()
        if len(leaves) != 2:
            problems.append(f"expected exactly two leaf blocks, found {len(leaves)}")
        branching = [
            index for index in range(len(self.blocks)) if len(self.children(index)) >= 2
        ]
        if len(branching) != 1 or len(self.children(branching[0])) != 2:
            problems.append("expected exactly one block with exactly two children")
        return problems

    def _check_block_contents(self) -> List[str]:
        problems = []
        root = self.root_index()
        leaves = set(self.leaf_indices())
        seen_keys: Dict[Tuple[Element, ...], int] = {}
        for index, block in enumerate(self.blocks):
            facts = block.facts()
            if not facts:
                problems.append(f"block {index} is empty")
                continue
            keys = {fact.key_tuple for fact in facts}
            if len(keys) != 1:
                problems.append(f"block {index} contains facts with different keys")
                continue
            key = next(iter(keys))
            if key in seen_keys:
                problems.append(
                    f"blocks {seen_keys[key]} and {index} share the key {key}; "
                    "blocks of a tripath must be distinct"
                )
            seen_keys[key] = index
            if index == root:
                if block.a_fact is None or block.b_fact is not None:
                    problems.append(f"root block {index} must contain exactly the a-fact")
            elif index in leaves:
                if block.b_fact is None or block.a_fact is not None:
                    problems.append(f"leaf block {index} must contain exactly the b-fact")
            else:
                if block.a_fact is None or block.b_fact is None:
                    problems.append(f"internal block {index} must contain both facts")
                elif block.a_fact == block.b_fact:
                    problems.append(f"internal block {index} uses the same fact twice")
        return problems

    def _check_edge_solutions(self) -> List[str]:
        problems = []
        for index, block in enumerate(self.blocks):
            if block.parent is None:
                continue
            parent_block = self.blocks[block.parent]
            if parent_block.a_fact is None or block.b_fact is None:
                problems.append(
                    f"edge {block.parent} -> {index} lacks the facts required for a solution"
                )
                continue
            if not self.query.matches_unordered(parent_block.a_fact, block.b_fact):
                problems.append(
                    f"facts of edge {block.parent} -> {index} do not form a solution"
                )
        return problems

    def _check_centre_and_g(self) -> List[str]:
        problems = []
        try:
            centre = self.center()
        except ValueError as error:
            return [str(error)]
        gset = g_elements(centre)
        for label, fact in zip(("u0 (root)", "u1 (leaf)", "u2 (leaf)"), self.extremal_facts()):
            if gset <= fact.key_elements:
                problems.append(
                    f"g(e) = {sorted(map(str, gset))} is contained in the key of {label}"
                )
        return problems

    # ------------------------------------------------------------------ #
    # niceness (Section 7, used by the Section 9 reduction)
    # ------------------------------------------------------------------ #
    def variable_nice_witnesses(self) -> List[Tuple[Element, Element, Element]]:
        """All triples ``(x, y, z)`` witnessing variable-niceness."""
        centre = self.center()
        u0, u1, u2 = self.extremal_facts()
        forbidden = u0.key_elements | u1.key_elements | u2.key_elements
        witnesses = []
        for x in sorted(centre.left.key_elements, key=str):
            if x in forbidden:
                continue
            for y in sorted(centre.centre.key_elements, key=str):
                if y in forbidden:
                    continue
                for z in sorted(centre.right.key_elements, key=str):
                    if z in forbidden:
                        continue
                    witnesses.append((x, y, z))
        return witnesses

    def is_variable_nice(self) -> bool:
        return bool(self.variable_nice_witnesses())

    def allowed_solution_pairs(self) -> Set[FrozenSet[Fact]]:
        """The unordered solutions a solution-nice tripath may contain."""
        allowed: Set[FrozenSet[Fact]] = set()
        for index, block in enumerate(self.blocks):
            if block.parent is None:
                continue
            parent_block = self.blocks[block.parent]
            if parent_block.a_fact is not None and block.b_fact is not None:
                allowed.add(frozenset((parent_block.a_fact, block.b_fact)))
        centre = self.center()
        allowed.add(frozenset((centre.right, centre.left)))
        return allowed

    def extra_solutions(self) -> List[Tuple[Fact, Fact]]:
        """Ordered solutions in the tripath that are not licensed by its structure."""
        allowed = self.allowed_solution_pairs()
        extras = []
        for first, second in self.query.solutions(self.facts()):
            if frozenset((first, second)) not in allowed:
                extras.append((first, second))
        return extras

    def is_solution_nice(self) -> bool:
        return not self.extra_solutions()

    def is_nice(self) -> bool:
        """All four conditions of a *nice* tripath."""
        return self.nice_witness() is not None

    def nice_witness(self) -> Optional["NiceWitness"]:
        """The named elements of a nice tripath, or ``None`` when not nice.

        Returns the variable-nice witnesses ``(x, y, z)`` (one of which occurs
        in the key of every non-extremal fact) together with the elements
        ``u``, ``v``, ``w`` unique to the keys of the root and the two leaves.
        """
        if not self.is_solution_nice():
            return None
        u0, u1, u2 = self.extremal_facts()
        extremal = {u0, u1, u2}
        non_extremal = [fact for fact in self.facts() if fact not in extremal]
        unique = []
        for target in (u0, u1, u2):
            others = [fact for fact in self.facts() if fact != target]
            candidates = [
                element
                for element in target.key_elements
                if all(element not in other.key_elements for other in others)
            ]
            if not candidates:
                return None
            unique.append(sorted(candidates, key=str)[0])
        for x, y, z in self.variable_nice_witnesses():
            for spread in (x, y, z):
                if all(spread in fact.key_elements for fact in non_extremal):
                    return NiceWitness(
                        x=x, y=y, z=z, u=unique[0], v=unique[1], w=unique[2]
                    )
        return None

    # ------------------------------------------------------------------ #
    # element substitution (used by the Section 9 reduction)
    # ------------------------------------------------------------------ #
    def substitute_elements(self, mapping: Dict[Element, Element]) -> "Tripath":
        """Replace elements according to ``mapping`` (missing elements unchanged)."""

        def map_fact(fact: Optional[Fact]) -> Optional[Fact]:
            if fact is None:
                return None
            return Fact(fact.schema, tuple(mapping.get(value, value) for value in fact.values))

        return Tripath(
            self.query,
            [
                TripathBlock(map_fact(block.a_fact), map_fact(block.b_fact), block.parent)
                for block in self.blocks
            ],
        )

    def describe(self) -> str:
        lines = [f"tripath ({self.kind()}), {len(self.blocks)} blocks:"]
        for index, block in enumerate(self.blocks):
            role = "root" if block.parent is None else f"parent={block.parent}"
            rendered = ", ".join(
                f"{label}={fact}"
                for label, fact in (("a", block.a_fact), ("b", block.b_fact))
                if fact is not None
            )
            lines.append(f"  block {index} ({role}): {rendered}")
        return "\n".join(lines)


@dataclass(frozen=True)
class NiceWitness:
    """The named elements of a nice tripath used by the Section 9 reduction."""

    x: Element
    y: Element
    z: Element
    u: Element  # unique to the root key
    v: Element  # unique to the first leaf key
    w: Element  # unique to the second leaf key


# --------------------------------------------------------------------------- #
# searching for a tripath inside a concrete database
# --------------------------------------------------------------------------- #
def find_tripath_in_database(
    query: TwoAtomQuery,
    database: Database,
    kind: Optional[str] = None,
    max_depth: int = 8,
) -> Optional[Tripath]:
    """Search for a tripath of ``query`` contained in ``database``.

    ``kind`` restricts the search to ``"fork"`` or ``"triangle"`` centres.
    The search is exhaustive over the database up to ``max_depth`` blocks per
    branch, and every returned tripath is validated.
    """
    searcher = _DatabaseTripathSearch(query, database, max_depth)
    return searcher.search(kind)


class _DatabaseTripathSearch:
    """Backtracking search for a tripath as a subset of an existing database.

    Candidate enumeration is driven by the database's cached solution graph
    (built through the :class:`~repro.eval.fact_index.FactIndex` /
    :class:`~repro.eval.matcher.AtomMatcher` probes and delta-maintained
    across mutations): centre candidates are read off the directed
    predecessor/successor lists and chain growth walks the undirected
    adjacency, instead of re-testing ``matches_pair`` against every fact of
    the database at every step.  Adjacency lists are ordered by fact
    insertion position, so the search explores — and returns — exactly what
    the seed's naive scans did.
    """

    def __init__(self, query: TwoAtomQuery, database: Database, max_depth: int) -> None:
        self.query = query
        self.database = database
        self.max_depth = max_depth
        self.facts = database.facts()
        graph = build_solution_graph(query, database).view()
        order = {fact: position for position, fact in enumerate(self.facts)}
        self._succ: Dict[Fact, List[Fact]] = {}
        self._pred: Dict[Fact, List[Fact]] = {}
        for first, second in graph.directed:
            if first == second:
                continue
            self._succ.setdefault(first, []).append(second)
            self._pred.setdefault(second, []).append(first)
        for adjacency in (self._succ, self._pred):
            for partners in adjacency.values():
                partners.sort(key=order.__getitem__)
        self._adjacent: Dict[Fact, List[Fact]] = {
            fact: sorted(adjacent, key=order.__getitem__)
            for fact, adjacent in graph.edges.items()
            if adjacent
        }

    def search(self, kind: Optional[str]) -> Optional[Tripath]:
        for centre in self._centres(kind):
            gset = g_elements(centre)
            used = {centre.left.key_tuple, centre.centre.key_tuple, centre.right.key_tuple}
            for sibling, above in self._chains_up(centre.centre, used, self.max_depth, gset):
                used_up = used | {block.key_tuple() for block in above}
                for chain_d in self._chains_down(centre.left, used_up, self.max_depth, gset):
                    used_d = used_up | {block.key_tuple() for block in chain_d}
                    for chain_f in self._chains_down(centre.right, used_d, self.max_depth, gset):
                        tripath = _assemble(self.query, centre, sibling, above, chain_d, chain_f)
                        if tripath.is_valid():
                            if kind is None or tripath.kind() == kind:
                                return tripath
        return None

    def _centres(self, kind: Optional[str]) -> Iterator[BranchingTriple]:
        for centre_fact in self.facts:
            lefts = [
                fact
                for fact in self._pred.get(centre_fact, ())
                if not fact.key_equal(centre_fact)
            ]
            rights = [
                fact
                for fact in self._succ.get(centre_fact, ())
                if not fact.key_equal(centre_fact)
            ]
            for left in lefts:
                for right in rights:
                    if left.key_equal(right):
                        continue
                    triple = BranchingTriple(left, centre_fact, right)
                    if kind == FORK and triple_is_triangle(self.query, triple):
                        continue
                    if kind == TRIANGLE and not triple_is_triangle(self.query, triple):
                        continue
                    yield triple

    def _siblings(self, fact: Fact) -> List[Fact]:
        return [other for other in self.database.siblings(fact) if other != fact]

    def _chains_up(
        self,
        current_a: Fact,
        used: Set[Tuple[Element, ...]],
        depth: int,
        gset: frozenset,
    ) -> Iterator[Tuple[Fact, List[TripathBlock]]]:
        """Yield ``(b-fact for the current block, blocks above it ordered bottom-up)``."""
        if depth <= 0:
            return
        for sibling in self._siblings(current_a):
            for parent_a in self._adjacent.get(sibling, ()):
                if parent_a.key_tuple in used or parent_a.key_tuple == current_a.key_tuple:
                    continue
                if not gset <= parent_a.key_elements:
                    yield sibling, [TripathBlock(parent_a, None, None)]
                new_used = used | {parent_a.key_tuple}
                for parent_sibling, above in self._chains_up(
                    parent_a, new_used, depth - 1, gset
                ):
                    yield sibling, [TripathBlock(parent_a, parent_sibling, None)] + above

    def _chains_down(
        self,
        current_b: Fact,
        used: Set[Tuple[Element, ...]],
        depth: int,
        gset: frozenset,
    ) -> Iterator[List[TripathBlock]]:
        """Yield chains of blocks from the block of ``current_b`` down to a leaf."""
        if depth <= 0:
            return
        if not gset <= current_b.key_elements:
            yield [TripathBlock(None, current_b, None)]
        for sibling in self._siblings(current_b):
            for next_b in self._adjacent.get(sibling, ()):
                if next_b.key_tuple in used or next_b.key_tuple == current_b.key_tuple:
                    continue
                new_used = used | {next_b.key_tuple}
                for below in self._chains_down(next_b, new_used, depth - 1, gset):
                    yield [TripathBlock(sibling, current_b, None)] + below


def _assemble(
    query: TwoAtomQuery,
    centre: BranchingTriple,
    branching_sibling: Fact,
    above: Sequence[TripathBlock],
    chain_d: Sequence[TripathBlock],
    chain_f: Sequence[TripathBlock],
) -> Tripath:
    """Assemble blocks and parent pointers into a :class:`Tripath`."""
    blocks: List[TripathBlock] = []

    # Blocks above the branching block, from root downwards.
    above_top_down = list(reversed(list(above)))
    for position, block in enumerate(above_top_down):
        parent = None if position == 0 else position - 1
        blocks.append(replace(block, parent=parent))
    branching_parent = len(blocks) - 1 if blocks else None
    branching_index = len(blocks)
    blocks.append(TripathBlock(centre.centre, branching_sibling, branching_parent))

    def append_chain(chain: Sequence[TripathBlock]) -> None:
        previous = branching_index
        for block in chain:
            blocks.append(replace(block, parent=previous))
            previous = len(blocks) - 1

    append_chain(chain_d)
    append_chain(chain_f)
    return Tripath(query, blocks)


# --------------------------------------------------------------------------- #
# chase-based search: does the *query* admit a tripath at all?
# --------------------------------------------------------------------------- #
@dataclass
class CenterPattern:
    """A candidate centre built from the most general unifier (plus merges)."""

    left: Fact
    centre: Fact
    right: Fact

    def triple(self) -> BranchingTriple:
        return BranchingTriple(self.left, self.centre, self.right)


class TripathSearcher:
    """Chase-based bounded search for tripaths of a query.

    The searcher builds candidate centres ``d e f`` as instances of the most
    general unifier of the two-copy query (optionally specialised by merging
    variable classes), then grows the three branches of the tripath by
    repeatedly constructing the most general pair of facts forming a solution
    with the previous block.  All produced facts use fresh labelled nulls, so
    the resulting databases are canonical witnesses; each witness is fully
    validated before being returned.
    """

    def __init__(
        self,
        query: TwoAtomQuery,
        max_depth: int = 4,
        max_merges: int = 2,
        max_candidates: int = 20000,
        require_nice: bool = False,
    ) -> None:
        self.query = query
        self.max_depth = max_depth
        self.max_merges = max_merges
        self.max_candidates = max_candidates
        self.require_nice = require_nice
        self._budget = 0

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def center_exists(self) -> bool:
        """Exact test: does any database contain a branching triple for the query?

        Every centre is an instance of the most general unifier of
        ``B(copy 1) = A(copy 2)``, and key-equality is preserved by
        instantiation, so the generic instance decides existence exactly.
        """
        return any(True for _ in self._base_centres())

    def generic_center_is_triangle(self) -> Optional[bool]:
        """Whether the most general centre is a triangle.

        ``True`` implies *every* centre is a triangle (solutions are preserved
        by instantiation), hence no fork-tripath exists — an exact
        conclusion.  Returns ``None`` when no centre exists at all.
        """
        for pattern in self._base_centres():
            return self.query.matches_pair(pattern.right, pattern.left)
        return None

    def search(self, kind: Optional[str] = None) -> Optional[Tripath]:
        """Search for a (nice, when requested) tripath of the given kind.

        The search uses iterative deepening on the branch length so that the
        smallest witnesses are found first, independently of the candidate
        budget.
        """
        for depth in range(2, self.max_depth + 1):
            self._budget = self.max_candidates
            for pattern in self._candidate_centres(kind):
                tripath = self._grow(pattern, kind, depth)
                if tripath is not None:
                    return tripath
                if self._budget <= 0:
                    break
        return None

    # ------------------------------------------------------------------ #
    # centre generation
    # ------------------------------------------------------------------ #
    def _copy_variables(self, suffixes: Sequence[str]) -> List[str]:
        names = []
        for suffix in suffixes:
            for variable in sorted(self.query.variables):
                names.append(f"{variable}{suffix}")
        return names

    def _base_unifier(self) -> Optional[Unifier]:
        unifier = Unifier()
        try:
            unifier.unify_many(
                atom_equations(self.query.atom_b, "#1", self.query.atom_a, "#2")
            )
        except UnificationError:
            return None
        return unifier

    def _triangle_unifier(self) -> Optional[Unifier]:
        """Unifier additionally forcing ``q(f d)`` via a third copy of the query."""
        unifier = self._base_unifier()
        if unifier is None:
            return None
        try:
            unifier.unify_many(
                atom_equations(self.query.atom_a, "#3", self.query.atom_b, "#2")
            )
            unifier.unify_many(
                atom_equations(self.query.atom_b, "#3", self.query.atom_a, "#1")
            )
        except UnificationError:
            return None
        return unifier

    def _instantiate_center(self, unifier: Unifier) -> Optional[CenterPattern]:
        fresh = FreshElements(prefix="c")
        atom_a, atom_b = self.query.atom_a, self.query.atom_b
        variables = self._copy_variables(("#1", "#2"))
        assignment = fresh.assign(unifier.classes_without_constant(variables))

        def build(atom, suffix):
            return Fact(
                atom.schema,
                tuple(
                    unifier.value_of(f"{variable}{suffix}", assignment)
                    for variable in atom.variables
                ),
            )

        left = build(atom_a, "#1")
        centre = build(atom_b, "#1")
        right = build(atom_b, "#2")
        if (
            left.key_tuple == centre.key_tuple
            or centre.key_tuple == right.key_tuple
            or left.key_tuple == right.key_tuple
        ):
            return None
        pattern = CenterPattern(left, centre, right)
        if not (
            self.query.matches_pair(left, centre)
            and self.query.matches_pair(centre, right)
        ):
            return None
        return pattern

    def _base_centres(self) -> Iterator[CenterPattern]:
        unifier = self._base_unifier()
        if unifier is None:
            return
        pattern = self._instantiate_center(unifier)
        if pattern is not None:
            yield pattern

    def _candidate_centres(self, kind: Optional[str]) -> Iterator[CenterPattern]:
        """Base centre, triangle-forcing centre, and bounded specialisations."""
        seen: Set[Tuple[Tuple[Element, ...], ...]] = set()

        def emit(pattern: Optional[CenterPattern]) -> Iterator[CenterPattern]:
            if pattern is None:
                return
            signature = (pattern.left.values, pattern.centre.values, pattern.right.values)
            canonical = _canonical_signature(signature)
            if canonical in seen:
                return
            seen.add(canonical)
            triangle = self.query.matches_pair(pattern.right, pattern.left)
            if kind == FORK and triangle:
                return
            if kind == TRIANGLE and not triangle:
                return
            yield pattern

        base = self._base_unifier()
        if base is None:
            return
        yield from emit(self._instantiate_center(base))
        if kind in (None, TRIANGLE):
            triangle_unifier = self._triangle_unifier()
            if triangle_unifier is not None:
                yield from emit(self._instantiate_center(triangle_unifier))
        # Specialisations: merge up to ``max_merges`` pairs of classes.
        variables = self._copy_variables(("#1", "#2"))
        for unifier in self._specialisations(base, variables, self.max_merges):
            yield from emit(self._instantiate_center(unifier))

    def _specialisations(
        self, unifier: Unifier, variables: Sequence[str], merges: int
    ) -> Iterator[Unifier]:
        if merges <= 0:
            return
        representatives = sorted({unifier.find(variable) for variable in variables})
        for first, second in itertools.combinations(representatives, 2):
            specialised = unifier.copy()
            try:
                specialised.unify(first, second)
            except UnificationError:
                continue
            yield specialised
            yield from self._specialisations(specialised, variables, merges - 1)

    # ------------------------------------------------------------------ #
    # branch growth by chasing
    # ------------------------------------------------------------------ #
    def _grow(
        self, pattern: CenterPattern, kind: Optional[str], depth: Optional[int] = None
    ) -> Optional[Tripath]:
        depth = self.max_depth if depth is None else depth
        centre = pattern.triple()
        gset = g_elements(centre)
        fresh = FreshElements(prefix="t")
        used = {centre.left.key_tuple, centre.centre.key_tuple, centre.right.key_tuple}
        for sibling, above in self._chase_up(centre.centre, used, depth, gset, fresh):
            if self._budget <= 0:
                return None
            used_up = used | {block.key_tuple() for block in above}
            for chain_d in self._chase_down(centre.left, used_up, depth, gset, fresh):
                if self._budget <= 0:
                    return None
                used_d = used_up | {block.key_tuple() for block in chain_d}
                for chain_f in self._chase_down(centre.right, used_d, depth, gset, fresh):
                    self._budget -= 1
                    tripath = _assemble(self.query, centre, sibling, above, chain_d, chain_f)
                    if not tripath.is_valid():
                        continue
                    if kind is not None and tripath.kind() != kind:
                        continue
                    if self.require_nice and not tripath.is_nice():
                        continue
                    return tripath
        return None

    def _chase_pair(
        self,
        constrained_role: str,
        key_values: Tuple[Element, ...],
        fresh: FreshElements,
    ) -> Optional[Tuple[Fact, Fact]]:
        """Most general facts ``(other, constrained)`` forming a solution.

        ``constrained_role`` is ``"A"`` or ``"B"``: the atom whose key
        positions are forced to ``key_values``.  Returns ``(other, constrained)``
        where ``other`` instantiates the remaining atom, or ``None`` when the
        key constraint is inconsistent with the atom's repeated variables.
        """
        atom_a, atom_b = self.query.atom_a, self.query.atom_b
        constrained_atom = atom_a if constrained_role == "A" else atom_b
        other_atom = atom_b if constrained_role == "A" else atom_a
        unifier = Unifier()
        try:
            unifier.unify_many(
                atom_positions_equations(
                    constrained_atom,
                    "#c",
                    range(constrained_atom.schema.key_size),
                    key_values,
                )
            )
        except UnificationError:
            return None
        variables = [f"{variable}#c" for variable in constrained_atom.variables]
        variables += [f"{variable}#c" for variable in other_atom.variables]
        assignment = fresh.assign(unifier.classes_without_constant(variables))

        def build(atom) -> Fact:
            return Fact(
                atom.schema,
                tuple(
                    unifier.value_of(f"{variable}#c", assignment)
                    for variable in atom.variables
                ),
            )

        constrained = build(constrained_atom)
        other = build(other_atom)
        return other, constrained

    def _chase_up(
        self,
        current_a: Fact,
        used: Set[Tuple[Element, ...]],
        depth: int,
        gset: frozenset,
        fresh: FreshElements,
    ) -> Iterator[Tuple[Fact, List[TripathBlock]]]:
        """Yield ``(b-fact of the current block, blocks above, bottom-up)``."""
        if depth <= 0:
            return
        for role in ("B", "A"):
            # The b-fact of the current block plays ``role`` in the solution
            # with the parent's a-fact; its key must equal the current block key.
            result = self._chase_pair(role, current_a.key_tuple, fresh)
            if result is None:
                continue
            parent_a, sibling = result
            if sibling == current_a:
                continue
            if sibling.key_tuple != current_a.key_tuple:
                continue
            if parent_a.key_tuple in used or parent_a.key_tuple == current_a.key_tuple:
                continue
            if not gset <= parent_a.key_elements:
                yield sibling, [TripathBlock(parent_a, None, None)]
            new_used = used | {parent_a.key_tuple}
            for parent_sibling, above in self._chase_up(
                parent_a, new_used, depth - 1, gset, fresh
            ):
                yield sibling, [TripathBlock(parent_a, parent_sibling, None)] + above

    def _chase_down(
        self,
        current_b: Fact,
        used: Set[Tuple[Element, ...]],
        depth: int,
        gset: frozenset,
        fresh: FreshElements,
    ) -> Iterator[List[TripathBlock]]:
        """Yield chains of blocks from the block of ``current_b`` to a leaf."""
        if depth <= 0:
            return
        if not gset <= current_b.key_elements:
            yield [TripathBlock(None, current_b, None)]
        for role in ("A", "B"):
            # The a-fact of the current block plays ``role``; its key must
            # equal the key of the current block.
            result = self._chase_pair(role, current_b.key_tuple, fresh)
            if result is None:
                continue
            next_b, current_a = result
            if current_a == current_b:
                continue
            if current_a.key_tuple != current_b.key_tuple:
                continue
            if next_b.key_tuple in used or next_b.key_tuple == current_b.key_tuple:
                continue
            new_used = used | {next_b.key_tuple}
            for below in self._chase_down(next_b, new_used, depth - 1, gset, fresh):
                yield [TripathBlock(current_a, current_b, None)] + below


def _canonical_signature(
    signature: Tuple[Tuple[Element, ...], ...]
) -> Tuple[Tuple[int, ...], ...]:
    """Rename elements by first occurrence so isomorphic centres compare equal."""
    renaming: Dict[Element, int] = {}
    canonical = []
    for row in signature:
        renamed = []
        for value in row:
            if value not in renaming:
                renaming[value] = len(renaming)
            renamed.append(renaming[value])
        canonical.append(tuple(renamed))
    return tuple(canonical)


def find_tripath_for_query(
    query: TwoAtomQuery,
    kind: Optional[str] = None,
    max_depth: int = 4,
    max_merges: int = 2,
    require_nice: bool = False,
) -> Optional[Tripath]:
    """Bounded search for a tripath witness of ``query`` (see :class:`TripathSearcher`)."""
    searcher = TripathSearcher(
        query,
        max_depth=max_depth,
        max_merges=max_merges,
        require_nice=require_nice,
    )
    return searcher.search(kind)
