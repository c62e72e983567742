"""An exact certain-answer oracle that shares no code with the engine.

The benchmark's correctness gate needs expected verdicts from a path that
is independent of what it measures: ``Cert_k``, the matching algorithm,
the falsifying-repair SAT encoding and the DPLL solver may all change
under optimisation, and a gate that called them would agree with their
bugs.  This module decides ``certain(q)`` from first principles.

A repair falsifies a two-atom query exactly when it picks one fact per
block such that no picked fact is a self-solution and no two picked facts
form a solution.  Solutions are found by a hash join on the variables the
two atoms share, and the choice is searched block by block with forward
checking, unit propagation and a fewest-choices-first order.  Blocks that
no solution links are independent, so each linked group is searched on
its own.  The search keeps its own explicit stack: instance size never
meets the interpreter's recursion limit.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

Row = Tuple[object, ...]


def _match(variables: Sequence[str], row: Row) -> Optional[Dict[str, object]]:
    env: Dict[str, object] = {}
    for variable, value in zip(variables, row):
        if env.setdefault(variable, value) != value:
            return None
    return env


def solutions(
    atom_a: Sequence[str], atom_b: Sequence[str], rows: Sequence[Row]
) -> Tuple[Set[int], Set[Tuple[int, int]]]:
    """``(self-solution row ids, unordered solution pairs)`` by hash join."""
    shared = sorted(set(atom_a) & set(atom_b))
    a_side: List[Tuple[int, Tuple[object, ...]]] = []
    b_side: Dict[Tuple[object, ...], List[int]] = defaultdict(list)
    for index, row in enumerate(rows):
        env = _match(atom_a, row)
        if env is not None:
            a_side.append((index, tuple(env[v] for v in shared)))
        env = _match(atom_b, row)
        if env is not None:
            b_side[tuple(env[v] for v in shared)].append(index)
    loops: Set[int] = set()
    pairs: Set[Tuple[int, int]] = set()
    for first, values in a_side:
        for second in b_side.get(values, ()):
            if first == second:
                loops.add(first)
            else:
                pairs.add((min(first, second), max(first, second)))
    return loops, pairs


def is_certain(
    atom_a: Sequence[str], atom_b: Sequence[str], key_size: int, rows: Sequence[Row]
) -> bool:
    """Exact ``certain(q)`` for ``q = R(atom_a) ∧ R(atom_b)`` over ``rows``.

    ``atom_a``/``atom_b`` are the atoms' variable tuples (repetitions
    meaningful) and ``key_size`` the relation's key length.
    """
    rows = list(dict.fromkeys(tuple(row) for row in rows))
    loops, pairs = solutions(atom_a, atom_b, rows)
    block_of: Dict[int, int] = {}
    blocks: Dict[Row, int] = {}
    for index, row in enumerate(rows):
        block_of[index] = blocks.setdefault(row[:key_size], len(blocks))
    partners: Dict[int, Set[int]] = defaultdict(set)
    for first, second in pairs:
        if block_of[first] != block_of[second]:  # key-equal facts never co-occur
            partners[first].add(second)
            partners[second].add(first)
    members: List[List[int]] = [[] for _ in blocks]
    for index in range(len(rows)):
        if index not in loops:
            members[block_of[index]].append(index)
    if any(not facts for facts in members):
        return True  # some block has only self-solutions
    for group in _linked_groups(members, partners, block_of):
        if not _choosable(group, members, partners, block_of):
            return True
    return False


def _linked_groups(members, partners, block_of) -> List[List[int]]:
    """Blocks grouped by the solutions linking them (union-find)."""
    parent = list(range(len(members)))

    def find(block: int) -> int:
        while parent[block] != block:
            parent[block] = parent[parent[block]]
            block = parent[block]
        return block

    for fact, others in partners.items():
        for other in others:
            left, right = find(block_of[fact]), find(block_of[other])
            if left != right:
                parent[left] = right
    groups: Dict[int, List[int]] = defaultdict(list)
    for block in range(len(members)):
        groups[find(block)].append(block)
    return list(groups.values())


def _choosable(group, members, partners, block_of) -> bool:
    """Whether the blocks of ``group`` admit a solution-free choice."""
    if len(group) == 1:
        return True  # a lone block's facts conflict with nothing chosen
    live: Dict[int, Set[int]] = {block: set(members[block]) for block in group}
    chosen: Dict[int, int] = {}
    trail: List[Tuple[int, Optional[int]]] = []

    def choose(block: int, fact: int) -> bool:
        """Pick ``fact``; prune its partners, propagating forced blocks."""
        chosen[block] = fact
        trail.append((block, None))
        queue = [fact]
        while queue:
            picked = queue.pop()
            for other in partners.get(picked, ()):
                target = block_of[other]
                if chosen.get(target) == other:
                    return False
                if target in chosen or other not in live[target]:
                    continue
                live[target].discard(other)
                trail.append((target, other))
                if not live[target]:
                    return False
                if len(live[target]) == 1:
                    (forced,) = live[target]
                    chosen[target] = forced
                    trail.append((target, None))
                    queue.append(forced)
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            block, fact = trail.pop()
            if fact is None:
                del chosen[block]
            else:
                live[block].add(fact)

    for block in group:
        if len(live[block]) == 1 and block not in chosen:
            if not choose(block, next(iter(live[block]))):
                return False
    frames: List[list] = []

    def open_frame() -> bool:
        open_blocks = [block for block in group if block not in chosen]
        if not open_blocks:
            return False
        block = min(open_blocks, key=lambda b: len(live[b]))
        order = sorted(live[block], key=lambda fact: len(partners.get(fact, ())))
        frames.append([block, order, 0, len(trail)])
        return True

    if not open_frame():
        return True
    while frames:
        frame = frames[-1]
        block, order, position, mark = frame
        undo(mark)
        if position == len(order):
            frames.pop()
            continue
        frame[2] = position + 1
        if choose(block, order[position]) and not open_frame():
            return True
    return False
