"""Experiment E (Theorems 10.4 / 10.5) — the combined algorithm on q6.

q6 admits triangle-tripaths but no fork-tripath; the paper proves that
``Cert_k(q) ∨ ¬matching(q)`` computes its certain answers (and, since q6 is a
clique query, that ``¬matching`` alone is already exact — Theorem 10.4).  The
experiment measures full agreement of both claims against the exact oracle on
random workloads, and checks Proposition 10.3's other half: on every
non-certain instance the saturating matching yields a falsifying repair.  The
benchmarks time the matching algorithm and the combined engine.
"""

import random

import pytest

from repro import CertainEngine, MatchingAlgorithm, certain_by_matching, certain_exact
from repro.bench.harness import ExperimentReport, compare_with_oracle
from repro.bench.reporting import emit
from repro.bench.workloads import agreement_workload
from repro.core.matching import witness_repair_from_matching
from repro.db.fact_store import is_repair_of
from repro.db.generators import random_solution_database
from repro.fixtures import example_queries

Q6 = example_queries()["q6"]


def test_theorem105_agreement_report():
    workload = agreement_workload(Q6, instance_count=15, solution_count=4,
                                  domain_size=3, noise_count=2, seed=105)
    workload += agreement_workload(Q6, instance_count=10, solution_count=6,
                                   domain_size=4, noise_count=3, seed=205)
    engine = CertainEngine(Q6)
    matcher = MatchingAlgorithm(Q6)

    combined = compare_with_oracle(Q6, engine.paper_polynomial_answer, workload)
    matching_only = compare_with_oracle(Q6, matcher.certain_by_negation, workload)
    clique_instances = sum(1 for db in workload if matcher.is_clique_database(db))
    negatives = [db for db in workload if not certain_exact(Q6, db)]
    certain_instances = len(workload) - len(negatives)
    repairs = [(db, witness_repair_from_matching(Q6, db)) for db in negatives]
    certified = sum(1 for _, repair in repairs if repair is not None)

    report = ExperimentReport(
        "Experiment E (Theorems 10.4/10.5) — combined algorithm on q6",
        ["algorithm", "instances", "certain", "clique DBs", "agreement", "false neg", "false pos",
         "repair-certified negatives"],
    )
    report.add(algorithm="Cert_3 ∨ ¬matching (Thm 10.5)", instances=combined.total,
               certain=certain_instances, **{"clique DBs": clique_instances},
               agreement=f"{combined.agreement_rate:.0%}",
               **{"false neg": combined.false_negatives, "false pos": combined.false_positives})
    report.add(algorithm="¬matching alone (Thm 10.4, clique query)", instances=matching_only.total,
               certain=certain_instances, **{"clique DBs": clique_instances},
               agreement=f"{matching_only.agreement_rate:.0%}",
               **{"false neg": matching_only.false_negatives,
                  "false pos": matching_only.false_positives})
    report.add(algorithm="matching repair (Prop 10.3)", instances=len(workload),
               certain=certain_instances, **{"clique DBs": clique_instances,
                                             "repair-certified negatives":
                                             f"{certified}/{len(negatives)}"})
    emit(report)

    assert combined.agreement_rate == 1.0
    assert matching_only.agreement_rate == 1.0
    assert clique_instances == len(workload)
    # q6 is a clique query, so Proposition 10.3 certifies every negative.
    assert certified == len(negatives)
    for db, repair in repairs:
        assert is_repair_of(list(repair), db)
        assert not Q6.satisfied_by(repair)


@pytest.mark.benchmark(group="theorem105")
def test_bench_matching_algorithm_q6(benchmark):
    database = random_solution_database(Q6, 30, 8, 8, random.Random(7))
    benchmark(lambda: certain_by_matching(Q6, database))


@pytest.mark.benchmark(group="theorem105")
def test_bench_combined_engine_q6(benchmark):
    database = random_solution_database(Q6, 15, 4, 5, random.Random(7))
    engine = CertainEngine(Q6, practical_k=2)
    benchmark(lambda: engine.paper_polynomial_answer(database))
