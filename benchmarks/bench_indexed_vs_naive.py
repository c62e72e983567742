"""Experiment I — indexed evaluation layer vs the seed naive implementations.

Pits the index-driven hot paths introduced by the evaluation layer against
the seed quadratic implementations they replaced, on growing random
databases:

* solution-graph construction — hash-probe discovery
  (:func:`repro.build_solution_graph`) vs the all-pairs scan
  (:func:`repro.build_solution_graph_naive`), both measured directly;
* ``Cert_2`` — the worklist/delta-driven fixpoint (:class:`repro.CertK`) vs
  the full ``combinations``-based candidate enumeration
  (:class:`repro.NaiveCertK`).  The naive fixpoint materialises all
  ``O(n²)`` candidate pairs and re-scans them per pass, so it is only run up
  to ``BENCH_NAIVE_CERT2_SIZES``; beyond that its runtime is extrapolated
  from the measured points with a power-law fit (rows are labelled).

Environment knobs (for CI smoke runs): ``BENCH_INDEXED_SIZES`` and
``BENCH_NAIVE_CERT2_SIZES`` — comma-separated fact counts.  A JSON baseline
is written next to this file as ``BENCH_indexed.json``.
"""

import math
import os
import random
from pathlib import Path

from repro import CertK, NaiveCertK, SolutionGraph, build_solution_graph, build_solution_graph_naive
from repro.bench.harness import ExperimentReport, timed
from repro.bench.reporting import emit, write_json
from repro.db.generators import random_solution_database
from repro.fixtures import example_queries

QUERIES = example_queries()

_SIZES = tuple(
    int(token)
    for token in os.environ.get("BENCH_INDEXED_SIZES", "250,500,1000,2000").split(",")
    if token.strip()
)
_NAIVE_CERT2_SIZES = tuple(
    int(token)
    for token in os.environ.get("BENCH_NAIVE_CERT2_SIZES", "250,500").split(",")
    if token.strip()
)

#: Acceptance threshold of the experiment: the indexed paths must win by 5x.
_TARGET_SPEEDUP = 5.0


def _workload(query, size: int):
    rng = random.Random(size)
    return random_solution_database(
        query,
        solution_count=size // 2,
        noise_count=size // 4,
        domain_size=max(4, size // 2),
        rng=rng,
    )


def _graphs_equal(left, right) -> bool:
    # The cached graph runs on fact ids: compare through its Fact view.
    left, right = (g.view() if isinstance(g, SolutionGraph) else g for g in (left, right))
    return (
        left.directed == right.directed
        and left.self_loops == right.self_loops
        and {fact: adjacent for fact, adjacent in left.edges.items() if adjacent}
        == {fact: adjacent for fact, adjacent in right.edges.items() if adjacent}
    )


def _fit_power_law(points):
    """Least-squares fit of ``t = c * n^p`` in log-log space."""
    logs = [(math.log(size), math.log(max(seconds, 1e-9))) for size, seconds in points]
    count = len(logs)
    mean_x = sum(x for x, _ in logs) / count
    mean_y = sum(y for _, y in logs) / count
    denominator = sum((x - mean_x) ** 2 for x, _ in logs)
    exponent = (
        sum((x - mean_x) * (y - mean_y) for x, y in logs) / denominator
        if denominator
        else 2.0
    )
    scale = math.exp(mean_y - exponent * mean_x)
    return lambda size: scale * size ** exponent


def test_indexed_vs_naive_solution_graph():
    report = ExperimentReport(
        "Experiment I.a — solution graph: indexed probes vs all-pairs scan",
        ["query", "facts", "edges", "indexed (s)", "naive (s)", "speedup"],
    )
    largest_speedup = {}
    for name in ("q3", "q6"):
        query = QUERIES[name]
        for size in _SIZES:
            database = _workload(query, size)
            # The indexed build is cached on the database: time a cold build.
            indexed_graph, indexed_time = timed(
                lambda: build_solution_graph(query, database.copy())
            )
            naive_graph, naive_time = timed(
                lambda: build_solution_graph_naive(query, database)
            )
            assert _graphs_equal(indexed_graph, naive_graph)
            speedup = naive_time / indexed_time if indexed_time else float("inf")
            largest_speedup[name] = (len(database), speedup)
            report.add(
                query=name,
                facts=len(database),
                edges=indexed_graph.edge_count(),
                **{
                    "indexed (s)": f"{indexed_time:.4f}",
                    "naive (s)": f"{naive_time:.4f}",
                    "speedup": f"{speedup:.1f}x",
                },
            )
    emit(report)
    for name, (facts, speedup) in largest_speedup.items():
        if facts >= 2000:
            assert speedup >= _TARGET_SPEEDUP, (
                f"{name}: expected >= {_TARGET_SPEEDUP}x at {facts} facts, got {speedup:.1f}x"
            )
    _JSON_REPORTS.append(report)


def test_indexed_vs_naive_cert2():
    query = QUERIES["q3"]
    report = ExperimentReport(
        "Experiment I.b — Cert_2: worklist fixpoint vs candidate re-scans",
        ["facts", "certain", "indexed (s)", "naive (s)", "naive mode", "speedup"],
    )
    measured = []
    for size in _NAIVE_CERT2_SIZES:
        database = _workload(query, size)
        indexed_result, indexed_time = timed(lambda: CertK(query, 2).run(database.copy()))
        naive_result, naive_time = timed(lambda: NaiveCertK(query, 2).run(database))
        assert indexed_result.certain == naive_result.certain
        assert indexed_result.delta == naive_result.delta
        measured.append((len(database), naive_time))
        report.add(
            facts=len(database),
            certain=indexed_result.certain,
            **{
                "indexed (s)": f"{indexed_time:.4f}",
                "naive (s)": f"{naive_time:.4f}",
                "naive mode": "measured",
                "speedup": f"{naive_time / indexed_time if indexed_time else float('inf'):.1f}x",
            },
        )
    extrapolate = _fit_power_law(measured)
    for size in _SIZES:
        if size <= max(s for s, _ in measured):
            continue
        database = _workload(query, size)
        indexed_result, indexed_time = timed(lambda: CertK(query, 2).run(database.copy()))
        naive_estimate = extrapolate(len(database))
        speedup = naive_estimate / indexed_time if indexed_time else float("inf")
        report.add(
            facts=len(database),
            certain=indexed_result.certain,
            **{
                "indexed (s)": f"{indexed_time:.4f}",
                "naive (s)": f"{naive_estimate:.4f}",
                "naive mode": "extrapolated",
                "speedup": f"{speedup:.1f}x",
            },
        )
        if len(database) >= 2000:
            assert speedup >= _TARGET_SPEEDUP, (
                f"Cert_2: expected >= {_TARGET_SPEEDUP}x at {len(database)} facts, "
                f"got {speedup:.1f}x"
            )
    emit(report)
    _JSON_REPORTS.append(report)


_JSON_REPORTS = []

#: The committed baseline is only refreshed by default-sized runs, so smoke
#: runs with downsized env knobs cannot clobber it with toy timings.
_DEFAULT_SIZED_RUN = (
    "BENCH_INDEXED_SIZES" not in os.environ
    and "BENCH_NAIVE_CERT2_SIZES" not in os.environ
)


def teardown_module(module):  # noqa: D103 - pytest hook
    if _JSON_REPORTS and _DEFAULT_SIZED_RUN:
        target = Path(__file__).resolve().parent / "BENCH_indexed.json"
        write_json(target, _JSON_REPORTS)
