"""Two-atom Boolean conjunctive queries with self-joins.

A query ``q = A B`` consists of two atoms over the *same* relation symbol
(Section 2 of the paper).  All variables are existentially quantified, so the
query is fully described by the pair of atoms.

The module provides:

* :class:`TwoAtomQuery` — the query object, with the semantic notions used
  throughout the paper (``q(a, b)``, ``q{a, b}``, satisfaction over a set of
  facts, solutions);
* :func:`parse_query` / :func:`parse_atom` — a compact textual syntax
  mirroring the paper's underlined notation: ``R(x,u|x,y) R(u,y|x,z)`` is the
  paper's ``q2`` where the part before ``|`` is the primary key;
* homomorphism tests and the one-atom-equivalence test of Section 2;
* the syntactic properties used by the classification (shared variables, key
  inclusions, 2way-determinedness).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..eval.fact_index import FactIndex
from ..eval.matcher import AtomMatcher
from .terms import Atom, Element, Fact, RelationSchema

_ATOM_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(([^)]*)\)\s*")

#: Below this many facts the all-pairs scan beats building a transient index.
_INDEX_THRESHOLD = 16


def parse_atom(text: str, schema: Optional[RelationSchema] = None) -> Atom:
    """Parse a single atom written as ``R(x,u|x,y)``.

    The ``|`` separates key positions (before) from non-key positions
    (after).  When ``schema`` is given it is used (and validated against the
    parsed arity/key size); otherwise a fresh schema is created.
    """
    match = _ATOM_RE.fullmatch(text)
    if not match:
        raise ValueError(f"cannot parse atom: {text!r}")
    name, inner = match.group(1), match.group(2)
    if "|" in inner:
        key_part, rest_part = inner.split("|", 1)
    else:
        key_part, rest_part = inner, ""
    key_vars = [v.strip() for v in key_part.split(",") if v.strip()]
    rest_vars = [v.strip() for v in rest_part.split(",") if v.strip()]
    variables = tuple(key_vars + rest_vars)
    if schema is None:
        schema = RelationSchema(name, arity=len(variables), key_size=len(key_vars))
    else:
        if schema.name != name:
            raise ValueError(f"atom uses relation {name!r}, expected {schema.name!r}")
        if schema.arity != len(variables) or schema.key_size != len(key_vars):
            raise ValueError(
                f"atom {text!r} does not fit schema {schema.describe()}"
            )
    return Atom(schema, variables)


def parse_query(text: str) -> "TwoAtomQuery":
    """Parse a two-atom query such as ``"R(x,u|x,y) R(u,y|x,z)"``.

    Both atoms must use the same relation name and agree on arity and key
    size (they are atoms over a single relation symbol with one signature).
    """
    matches = list(_ATOM_RE.finditer(text))
    if len(matches) != 2:
        raise ValueError(
            f"expected exactly two atoms in {text!r}, found {len(matches)}"
        )
    first = parse_atom(matches[0].group(0))
    second = parse_atom(matches[1].group(0), schema=first.schema)
    return TwoAtomQuery(first, second)


def homomorphism(source: Atom, target: Atom) -> Optional[Dict[str, str]]:
    """Return a variable mapping ``h`` with ``h(source) = target`` if one exists.

    The mapping sends every variable of ``source`` to a variable of
    ``target`` so that the image of ``source`` is exactly ``target``
    position-wise.  No constraint is placed on shared variables; see
    :func:`subsuming_homomorphism` for the notion used to detect queries
    equivalent to a single atom.
    """
    if source.schema != target.schema:
        return None
    mapping: Dict[str, str] = {}
    for src_var, tgt_var in zip(source.variables, target.variables):
        if src_var in mapping and mapping[src_var] != tgt_var:
            return None
        mapping[src_var] = tgt_var
    return mapping


def subsuming_homomorphism(source: Atom, target: Atom) -> Optional[Dict[str, str]]:
    """A homomorphism ``source -> target`` fixing the variables shared with ``target``.

    This is the notion of "homomorphism from A to B" used in Section 2 to
    detect queries equivalent to a one-atom query: ``q = A ∧ B`` is
    equivalent to the single atom ``B`` exactly when the conjunction
    ``{A, B}`` maps homomorphically onto ``{B}``, i.e. when there is a
    variable mapping that is the identity on ``vars(B)`` and sends ``A`` to
    ``B``.
    """
    mapping = homomorphism(source, target)
    if mapping is None:
        return None
    shared = source.all_variables & target.all_variables
    if any(mapping[variable] != variable for variable in shared):
        return None
    return mapping


@dataclass(frozen=True)
class TwoAtomQuery:
    """The Boolean conjunctive query ``q = A B`` (self-join, one relation)."""

    atom_a: Atom
    atom_b: Atom

    def __post_init__(self) -> None:
        if self.atom_a.schema != self.atom_b.schema:
            raise ValueError(
                "both atoms of a self-join query must share the same schema; "
                f"got {self.atom_a.schema.describe()} and "
                f"{self.atom_b.schema.describe()}"
            )

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> RelationSchema:
        return self.atom_a.schema

    @property
    def variables(self) -> FrozenSet[str]:
        """All variables of the query."""
        return self.atom_a.all_variables | self.atom_b.all_variables

    @property
    def shared_variables(self) -> FrozenSet[str]:
        """vars(A) ∩ vars(B)."""
        return self.atom_a.all_variables & self.atom_b.all_variables

    def swapped(self) -> "TwoAtomQuery":
        """The equivalent query ``B A`` (used for symmetric arguments)."""
        return TwoAtomQuery(self.atom_b, self.atom_a)

    def rename(self, mapping: Dict[str, str]) -> "TwoAtomQuery":
        """Rename variables in both atoms."""
        return TwoAtomQuery(self.atom_a.rename(mapping), self.atom_b.rename(mapping))

    # ------------------------------------------------------------------ #
    # semantics on facts
    # ------------------------------------------------------------------ #
    def matches_pair(self, first: Fact, second: Fact) -> bool:
        """The paper's ``q(a b)``: one assignment maps A to ``first`` and B to ``second``."""
        assignment = self.atom_a.match(first)
        if assignment is None:
            return False
        for var, value in zip(self.atom_b.variables, second.values):
            if var in assignment:
                if assignment[var] != value:
                    return False
            else:
                assignment[var] = value
        return True

    def matches_unordered(self, first: Fact, second: Fact) -> bool:
        """The paper's ``q{a b}``: ``q(a b)`` or ``q(b a)``."""
        return self.matches_pair(first, second) or self.matches_pair(second, first)

    def is_self_solution(self, fact: Fact) -> bool:
        """Whether ``q(a a)`` holds, i.e. the single fact satisfies the query."""
        return self.matches_pair(fact, fact)

    def satisfied_by(self, facts: Iterable[Fact]) -> bool:
        """Whether the set of facts satisfies ``q`` (``D |= q``)."""
        return self.find_solution(facts) is not None

    def find_solution(self, facts: Iterable[Fact]) -> Optional[Tuple[Fact, Fact]]:
        """Return one solution ``(a, b)`` with ``q(a b)``, or ``None``.

        Large inputs are evaluated through a hash index on the positions of
        ``B`` bound by ``vars(A)`` (the database's persistent index when
        available, a transient one otherwise); the result — including which
        solution is reported first — is identical to the seed all-pairs scan.
        """
        for solution in self._iter_solutions(facts):
            return solution
        return None

    def solutions(self, facts: Iterable[Fact]) -> List[Tuple[Fact, Fact]]:
        """All ordered solutions ``(a, b)`` of ``q`` within ``facts`` (the paper's q(D))."""
        return list(self._iter_solutions(facts))

    def find_solution_naive(self, facts: Iterable[Fact]) -> Optional[Tuple[Fact, Fact]]:
        """The seed all-pairs search (differential-testing oracle)."""
        materialised = list(facts)
        for first in materialised:
            partials = self._partial_assignments_a(first)
            if not partials:
                continue
            for second in materialised:
                if self._extends_to_b(partials, second):
                    return (first, second)
        return None

    def solutions_naive(self, facts: Iterable[Fact]) -> List[Tuple[Fact, Fact]]:
        """The seed all-pairs enumeration (differential-testing oracle)."""
        materialised = list(facts)
        found: List[Tuple[Fact, Fact]] = []
        for first in materialised:
            partials = self._partial_assignments_a(first)
            if not partials:
                continue
            for second in materialised:
                if self._extends_to_b(partials, second):
                    found.append((first, second))
        return found

    def _iter_solutions(self, facts: Iterable[Fact]):
        """Ordered solutions, enumerated in the seed's deterministic order.

        Every fact extending an assignment shares its projection on the bound
        positions of ``B``, so the probed bucket contains all partners of a
        given ``first`` in insertion order — the enumeration is exactly the
        (first, second) sequence of the naive nested scan.  Inputs containing
        duplicate facts fall back to that scan outright (the index holds each
        fact once, while the seed semantics count every occurrence).
        """
        index = getattr(facts, "index", None)
        if isinstance(index, FactIndex):
            ids = facts.ids()
        else:
            index = None
            materialised = facts if isinstance(facts, list) else list(facts)
            if len(materialised) >= _INDEX_THRESHOLD:
                try:
                    index = FactIndex(materialised)
                except ValueError:  # one relation name, two signatures: scan
                    index = None
                if index is not None and len(index) != len(materialised):
                    index = None  # duplicates: scan instead
                ids = range(len(materialised))
        if index is None:
            for first in materialised:
                partials = self._partial_assignments_a(first)
                if not partials:
                    continue
                for second in materialised:
                    if self._extends_to_b(partials, second):
                        yield (first, second)
            return
        fact = index.fact
        for first, second in AtomMatcher(self.atom_a, self.atom_b).pairs(index, ids):
            yield fact(first), fact(second)

    def _partial_assignments_a(self, fact: Fact) -> Optional[Dict[str, Element]]:
        return self.atom_a.match(fact)

    def _extends_to_b(self, assignment: Dict[str, Element], fact: Fact) -> bool:
        if fact.schema != self.schema:
            return False
        seen: Dict[str, Element] = {}
        for var, value in zip(self.atom_b.variables, fact.values):
            if var in assignment and assignment[var] != value:
                return False
            if var in seen and seen[var] != value:
                return False
            seen[var] = value
        return True

    # ------------------------------------------------------------------ #
    # syntactic properties (Sections 2, 4, 6, 7)
    # ------------------------------------------------------------------ #
    def has_homomorphism_between_atoms(self) -> bool:
        """True when there is a (subsuming) homomorphism A -> B or B -> A (Section 2, case 1)."""
        return (
            subsuming_homomorphism(self.atom_a, self.atom_b) is not None
            or subsuming_homomorphism(self.atom_b, self.atom_a) is not None
        )

    def keys_identical(self) -> bool:
        """True when key(A) = key(B) as tuples (Section 2, case 2)."""
        return self.atom_a.key_tuple == self.atom_b.key_tuple

    def is_trivial(self) -> bool:
        """Whether ``q`` is equivalent (over consistent databases) to a one-atom query.

        Following Section 2 this happens exactly when there is a homomorphism
        between the two atoms or when the two atoms have identical key
        tuples.
        """
        return self.has_homomorphism_between_atoms() or self.keys_identical()

    def hardness_condition_one(self) -> bool:
        """Condition (1) of Theorem 4.2.

        vars(A) ∩ vars(B) ⊈ key(A), vars(A) ∩ vars(B) ⊈ key(B),
        key(A) ⊈ key(B) and key(B) ⊈ key(A).
        """
        shared = self.shared_variables
        key_a = self.atom_a.key_variables
        key_b = self.atom_b.key_variables
        return (
            not shared <= key_a
            and not shared <= key_b
            and not key_a <= key_b
            and not key_b <= key_a
        )

    def hardness_condition_two(self) -> bool:
        """Condition (2) of Theorem 4.2: key(A) ⊈ vars(B) or key(B) ⊈ vars(A)."""
        return (
            not self.atom_a.key_variables <= self.atom_b.all_variables
            or not self.atom_b.key_variables <= self.atom_a.all_variables
        )

    def easy_condition(self) -> bool:
        """Condition of Theorem 6.1 up to the A/B symmetry.

        True when key(A) ⊆ key(B) or vars(A) ∩ vars(B) ⊆ key(B) — or the
        symmetric statement with the roles of A and B swapped (since ``A B``
        and ``B A`` are the same query).  When it holds,
        ``certain(q) = Cert_2(q)``.
        """
        return self._easy_condition_oriented() or self.swapped()._easy_condition_oriented()

    def _easy_condition_oriented(self) -> bool:
        shared = self.shared_variables
        return (
            self.atom_a.key_variables <= self.atom_b.key_variables
            or shared <= self.atom_b.key_variables
        )

    def is_2way_determined(self) -> bool:
        """The defining conditions of Section 7.

        key(A) ⊈ key(B), key(B) ⊈ key(A), key(A) ⊆ vars(B), key(B) ⊆ vars(A).
        """
        key_a = self.atom_a.key_variables
        key_b = self.atom_b.key_variables
        return (
            not key_a <= key_b
            and not key_b <= key_a
            and key_a <= self.atom_b.all_variables
            and key_b <= self.atom_a.all_variables
        )

    def is_self_join_free_shape(self) -> bool:
        """Always False for this class: both atoms use the same relation symbol.

        Provided for API symmetry with :mod:`repro.core.sjf`, which handles
        the two-relation variant ``sjf(q)``.
        """
        return False

    def canonical_variable_order(self) -> Tuple[str, ...]:
        """Deterministic ordering of the query variables (for reproducible output)."""
        ordered: List[str] = []
        for var in self.atom_a.variables + self.atom_b.variables:
            if var not in ordered:
                ordered.append(var)
        return tuple(ordered)

    def __str__(self) -> str:
        return f"{self.atom_a} ∧ {self.atom_b}"


def queries_isomorphic(left: TwoAtomQuery, right: TwoAtomQuery) -> bool:
    """Whether two queries are equal up to a bijective variable renaming.

    Used by tests to compare parsed queries with programmatically constructed
    ones.  Both orders of atoms are attempted because ``A B`` and ``B A``
    denote the same Boolean query.
    """
    if left.schema.arity != right.schema.arity:
        return False
    if left.schema.key_size != right.schema.key_size:
        return False

    def try_orientation(l_atoms: Tuple[Atom, Atom], r_atoms: Tuple[Atom, Atom]) -> bool:
        mapping: Dict[str, str] = {}
        reverse: Dict[str, str] = {}
        for l_atom, r_atom in zip(l_atoms, r_atoms):
            for l_var, r_var in zip(l_atom.variables, r_atom.variables):
                if mapping.get(l_var, r_var) != r_var:
                    return False
                if reverse.get(r_var, l_var) != l_var:
                    return False
                mapping[l_var] = r_var
                reverse[r_var] = l_var
        return True

    left_atoms = (left.atom_a, left.atom_b)
    for perm in permutations((right.atom_a, right.atom_b)):
        if try_orientation(left_atoms, perm):
            return True
    return False


# --------------------------------------------------------------------------- #
# The example queries used throughout the paper.
# --------------------------------------------------------------------------- #
def paper_queries() -> Dict[str, TwoAtomQuery]:
    """The named example queries q1 ... q7 from the paper.

    * q1 = R(x,u | x,v) ∧ R(v,y | u,y)    — coNP-complete via Theorem 4.2
    * q2 = R(x,u | x,y) ∧ R(u,y | x,z)    — coNP-complete via fork-tripath
    * q3 = R(x | y) ∧ R(y | z)            — PTime via Theorem 6.1
    * q4 = R(x,x | u,v) ∧ R(x,y | u,x)    — PTime via Theorem 6.1
    * q5 = R(x | y,x) ∧ R(y | x,u)        — PTime, 2way-determined, no tripath
    * q6 = R(x | y,z) ∧ R(z | x,y)        — PTime, triangle-tripath only (clique query)
    * q7 = the arity-14 example of Section 10 — triangle-tripath only
    """
    queries = {
        "q1": parse_query("R(x,u|x,v) R(v,y|u,y)"),
        "q2": parse_query("R(x,u|x,y) R(u,y|x,z)"),
        "q3": parse_query("R(x|y) R(y|z)"),
        "q4": parse_query("R(x,x|u,v) R(x,y|u,x)"),
        "q5": parse_query("R(x|y,x) R(y|x,u)"),
        "q6": parse_query("R(x|y,z) R(z|x,y)"),
        "q7": parse_query(
            "R(x1,x2,x3,y1,y1,y2,y3,z1,z2,z3|z4,z4,z4,z4) "
            "R(x3,x1,x2,y3,y1,y1,y2,z2,z3,z4|z1,z2,z3,z4)"
        ),
    }
    return queries
