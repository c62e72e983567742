"""A small iterative DPLL SAT solver.

Used for two purposes:

* deciding satisfiability of the 3-SAT formulas fed to the Section 9
  reduction (so that Lemma 9.2 — ``φ`` satisfiable iff ``D[φ]`` is not
  certain — can be checked experimentally);
* the SAT-based exact oracle for ``certain(q)``: the existence of a
  falsifying repair is encoded as a CNF (see :mod:`repro.logic.encode`) and
  decided here, which scales far beyond brute-force repair enumeration.

A formula is satisfiable iff each of its variable-connected components is
(for the falsifying-repair CNF these are the ``q``-connected block
components of Proposition 10.6), so the components are solved one at a
time, smallest first, up to the first unsatisfiable one.  Each is searched
with chronological backtracking over an explicit trail and decision stack:
no recursion and no clause copies per decision.  Unit propagation reads
binary clauses from implication lists and longer ones through two watched
literals.  Branching takes the first unassigned variable, ``True`` first,
until every variable is assigned, so models are total and depend on the
clause set only, not on its order.  There is no clause learning.
"""

from __future__ import annotations

from operator import neg
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..graphs.components import find_root
from .cnf import CnfFormula

IntClause = FrozenSet[int]


class DpllSolver:
    """DPLL over integer-encoded clauses (positive int = positive literal)."""

    def __init__(self) -> None:
        self.statistics = {"decisions": 0, "propagations": 0}

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def solve_formula(self, formula: CnfFormula) -> Optional[Dict[str, bool]]:
        """Satisfying assignment of a :class:`CnfFormula`, or ``None`` if UNSAT."""
        variables = formula.variables()
        index_of = {name: index + 1 for index, name in enumerate(variables)}
        clauses = []
        for clause in formula.clauses:
            encoded = frozenset(
                index_of[literal.variable] * (1 if literal.positive else -1)
                for literal in clause
            )
            clauses.append(encoded)
        model = self.solve_clauses(clauses)
        if model is None:
            return None
        return {name: model[index] for name, index in index_of.items()}

    def solve_clauses(self, clauses: Sequence[IntClause]) -> Optional[Dict[int, bool]]:
        """Model of integer clauses over every variable in them, or ``None`` if UNSAT."""
        instance = _Instance(clauses)
        satisfiable = instance.solve()
        self.statistics["decisions"] += instance.decisions
        self.statistics["propagations"] += instance.propagations
        return instance.model() if satisfiable else None

    def is_satisfiable(self, formula: CnfFormula) -> bool:
        return self.solve_formula(formula) is not None


class _Instance:
    """One :meth:`DpllSolver.solve_clauses` call over densely renumbered variables.

    Literal-indexed lists have ``2n + 1`` slots, so literal ``-v`` lands in
    slot ``2n + 1 - v`` by negative indexing.  ``value[lit]`` is 1 (true),
    -1 (false) or 0; ``implied[lit]`` holds the literals binary clauses force
    once ``lit`` is true; ``watches[lit]`` the longer clauses watching ``lit``.
    """

    def __init__(self, clauses: Sequence[IntClause]) -> None:
        rows = [frozenset(clause) for clause in clauses]
        self.names = sorted({abs(literal) for row in rows for literal in row})
        dense: Dict[int, int] = {}
        for index, name in enumerate(self.names, 1):
            dense[name], dense[-name] = index, -index
        size = 2 * len(self.names) + 1
        self.value = [0] * size
        self.implied: List[List[int]] = [[] for _ in range(size)]
        self.watches: List[List[int]] = [[] for _ in range(size)]
        self.long: List[List[int]] = []
        self.trail: List[int] = []
        self.head = self.decisions = self.propagations = 0
        self.conflict = False
        parent = list(range(len(self.names) + 1))
        for row in rows:
            if not row.isdisjoint(map(neg, row)):
                continue  # tautology
            literals = [dense[literal] for literal in row]
            if len(literals) == 2:
                first, second = literals
                self.implied[-first].append(second)
                self.implied[-second].append(first)
            elif len(literals) > 2:
                self.watches[literals[0]].append(len(self.long))
                self.watches[literals[1]].append(len(self.long))
                self.long.append(literals)
            elif not literals or self.value[literals[0]] < 0:
                self.conflict = True  # empty clause, or two opposite unit clauses
            elif not self.value[literals[0]]:
                self._assign(literals[0])
            for literal in literals[1:]:
                parent[find_root(parent, abs(literal))] = find_root(parent, abs(literals[0]))
        members: Dict[int, List[int]] = {}
        for variable in range(1, len(self.names) + 1):
            members.setdefault(find_root(parent, variable), []).append(variable)
        self.components = sorted(members.values(), key=len)

    def solve(self) -> bool:
        if self.conflict or not self._unit_propagate():
            return False
        return all(self._solve_component(component) for component in self.components)

    def model(self) -> Dict[int, bool]:
        return {name: self.value[index] > 0 for index, name in enumerate(self.names, 1)}

    def _assign(self, literal: int) -> None:
        self.value[literal], self.value[-literal] = 1, -1
        self.trail.append(literal)

    def _solve_component(self, variables: List[int]) -> bool:
        """Search one component; no clause links it to another one."""
        value, trail = self.value, self.trail
        # (trail length before the decision, its literal, its position); a
        # negative literal marks the second branch.
        stack: List[tuple] = []
        position = 0
        while True:
            if self._unit_propagate():
                while position < len(variables) and value[variables[position]]:
                    position += 1
                if position == len(variables):
                    return True
                self.decisions += 1
                stack.append((len(trail), variables[position], position))
                self._assign(variables[position])
                continue
            while stack:
                mark, literal, position = stack.pop()
                for undone in trail[mark:]:
                    value[undone] = value[-undone] = 0
                del trail[mark:]
                self.head = mark
                if literal > 0:
                    stack.append((mark, -literal, position))
                    self._assign(-literal)
                    break
            else:
                return False

    def _unit_propagate(self) -> bool:
        """Unit propagation from ``head`` to the end of the trail; False on conflict."""
        value, trail, implied, watches, long = (
            self.value, self.trail, self.implied, self.watches, self.long
        )
        head, forced, conflict = self.head, 0, False
        while head < len(trail) and not conflict:
            literal = trail[head]
            head += 1
            for other in implied[literal]:
                if not value[other]:
                    value[other], value[-other] = 1, -1
                    trail.append(other)
                    forced += 1
                elif value[other] < 0:
                    conflict = True
                    break
            false = -literal
            watching = watches[false]
            index = 0
            while index < len(watching) and not conflict:
                clause = long[watching[index]]
                if clause[0] == false:
                    clause[0], clause[1] = clause[1], false
                first = clause[0]
                if value[first] > 0:
                    index += 1
                    continue
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if value[candidate] >= 0:  # not false: watch it instead
                        clause[1], clause[position] = candidate, false
                        watches[candidate].append(watching[index])
                        watching[index] = watching[-1]
                        watching.pop()
                        break
                else:
                    if value[first] < 0:
                        conflict = True
                    else:
                        value[first], value[-first] = 1, -1
                        trail.append(first)
                        forced += 1
                        index += 1
        self.head = head
        self.propagations += forced
        return not conflict


def is_satisfiable(formula: CnfFormula) -> bool:
    """Module-level convenience wrapper."""
    return DpllSolver().is_satisfiable(formula)


def brute_force_satisfiable(formula: CnfFormula) -> bool:
    """Exponential truth-table check, used to validate the DPLL solver in tests."""
    variables = formula.variables()
    total = 1 << len(variables)
    for mask in range(total):
        assignment = {
            variable: bool(mask >> index & 1) for index, variable in enumerate(variables)
        }
        if formula.is_satisfied(assignment):
            return True
    return not formula.clauses if not variables else False
