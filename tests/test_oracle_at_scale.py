"""The engine against an independent exact oracle, beyond brute-force sizes.

``certain_bruteforce`` stops at a few thousand repairs, and ``certain_exact``
shares the encoder and the DPLL with the engine.  ``perfbench/oracle.py``
decides ``certain(q)`` from first principles (a hash join for the solutions,
then a backtracking search for a solution-free choice per block) and shares
no code with the engine.  This module loads it by path and holds
:class:`repro.CertainEngine` to it on q1..q7 and on random two-atom queries,
both verdicts, at 100-3000 facts.

Inputs are built the way the benchmark builds them: a *core* of random
solutions plus noise rows over a small domain, one *escape* fact per core
block (its key with fresh values, so the all-escape repair falsifies every
paper query), and for the certain side a *gadget* (both atoms on fresh
values, so every repair satisfies the query).  ``random_solution_database``
inputs run as well; at these sizes they come out certain, so the escapes are
what produce the negatives.  Every negative's witness is checked to be a
repair that falsifies the query under ``q.satisfied_by`` on ``Fact`` objects.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro import (
    Atom,
    CertainEngine,
    Database,
    RelationSchema,
    TwoAtomQuery,
    paper_queries,
    random_solution_database,
)
from repro.db.fact_store import is_repair_of

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
GREEDY_LABEL = "greedy falsifying repair"
FRESH = 1_000_000

Row = Tuple[int, ...]


def _load_oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()

#: (solutions, noise, domain) per paper query: a small and a large core.
SHAPES: Dict[str, List[Tuple[int, int, int]]] = {
    "q1": [(30, 15, 10), (400, 200, 20)],
    "q2": [(30, 15, 10), (400, 200, 20)],
    "q3": [(36, 18, 25), (900, 450, 700)],
    "q4": [(40, 20, 5), (900, 450, 14)],
    "q5": [(40, 20, 15), (600, 300, 120)],
    "q6": [(60, 30, 7), (600, 300, 20)],
    "q7": [(24, 12, 2), (200, 100, 3)],
}


def core_rows(query: TwoAtomQuery, shape: Tuple[int, int, int], rng) -> List[Row]:
    solutions, noise, domain = shape
    variables = sorted(query.variables)
    rows: Dict[Row, None] = {}
    for _ in range(solutions):
        env = {variable: rng.randrange(domain) for variable in variables}
        for atom in (query.atom_a, query.atom_b):
            rows[tuple(env[variable] for variable in atom.variables)] = None
    for _ in range(noise):
        rows[tuple(rng.randrange(domain) for _ in range(query.schema.arity))] = None
    return list(rows)


def instance(query: TwoAtomQuery, shape, certain: bool, rng) -> List[Row]:
    """Core, one escape per core block, and a gadget when ``certain``."""
    rows = core_rows(query, shape, rng)
    key_size = query.schema.key_size
    width = query.schema.arity - key_size
    for number, key in enumerate(dict.fromkeys(row[:key_size] for row in list(rows))):
        fresh = FRESH + number * width
        rows.append(key + tuple(range(fresh, fresh + width)))
    if certain:
        env = {variable: 2 * FRESH + i for i, variable in enumerate(sorted(query.variables))}
        at = rng.randrange(len(rows) + 1)
        rows[at:at] = [
            tuple(env[variable] for variable in atom.variables)
            for atom in (query.atom_a, query.atom_b)
        ]
    return rows


def check(query: TwoAtomQuery, rows: List[Row]):
    """Hold the engine to the oracle on ``rows``; the report."""
    expected = oracle.is_certain(
        query.atom_a.variables, query.atom_b.variables, query.schema.key_size, rows
    )
    database = Database()
    database.add_rows(query.schema, rows)
    report = CertainEngine(query).explain(database, want_witness=True)
    assert report.exact
    assert report.certain == expected, (str(query), len(database), report.algorithm)
    if not report.certain:
        witness = list(report.witness)
        assert is_repair_of(witness, database)
        assert not query.satisfied_by(witness), report.algorithm
    return report


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_paper_queries_agree_with_the_oracle(name):
    query = paper_queries()[name]
    negatives = []
    for index, shape in enumerate(SHAPES[name]):
        for certain in (False, True):
            rows = instance(query, shape, certain, random.Random(f"{name}/{index}/{certain}"))
            assert 100 <= len(rows) <= 3000
            report = check(query, rows)
            assert report.certain == certain
            if not certain:
                negatives.append(report.algorithm)
    if name in ("q3", "q4"):  # the Theorem 6.1 class
        assert negatives == [GREEDY_LABEL, GREEDY_LABEL]


def test_random_queries_agree_with_the_oracle():
    rng = random.Random("oracle-at-scale/random")
    verdicts = set()
    labels = set()
    for _ in range(30):
        arity = rng.randint(1, 4)
        schema = RelationSchema("R", arity, rng.randint(1, arity))
        query = TwoAtomQuery(
            Atom(schema, tuple(rng.choice("xyzu") for _ in range(arity))),
            Atom(schema, tuple(rng.choice("xyzu") for _ in range(arity))),
        )
        shape = (rng.randint(40, 600), rng.randint(20, 300), rng.randint(4, 40))
        for certain in (False, True):
            rows = instance(query, shape, certain, rng)
            if len(rows) < 100:
                continue
            report = check(query, rows)
            verdicts.add(report.certain)
            labels.add(report.algorithm)
    assert verdicts == {False, True}
    assert GREEDY_LABEL in labels


@pytest.mark.parametrize("name", ["q3", "q4", "q5", "q6"])
def test_generator_databases_agree_with_the_oracle(name):
    query = paper_queries()[name]
    for seed in range(2):
        database = random_solution_database(query, 800, 400, 300, random.Random(seed))
        check(query, [fact.values for fact in database.facts()])
