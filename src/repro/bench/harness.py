"""Benchmark harness: experiment runners shared by the ``benchmarks/`` scripts.

Every benchmark in ``benchmarks/`` regenerates one figure, table or claim of
the paper (see the experiment index in DESIGN.md).  The helpers here factor
out the common structure: run a sweep, collect rows, render them as an
aligned text table (so that the pytest-benchmark output also shows the
qualitative result the paper reports), and compare algorithm answers against
the exact oracle.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.certain import certain_exact
from ..core.query import TwoAtomQuery
from ..db.fact_store import Database


@dataclass
class ExperimentRow:
    """One row of an experiment report."""

    values: Dict[str, object]


@dataclass
class ExperimentReport:
    """A named collection of rows with a tabular rendering.

    Every report records the machine's ``cpu_count`` and whether the
    experiment is ``core_gated`` — its headline ratio depends on having
    multiple cores (process fleets, worker pools, concurrent clients).  A
    committed parallel baseline measured on a 1-core container would
    otherwise read as a regression everywhere.
    """

    title: str
    columns: Sequence[str]
    rows: List[ExperimentRow] = field(default_factory=list)
    #: True when the headline result needs >1 core to materialise.
    core_gated: bool = False
    cpu_count: int = field(default_factory=lambda: os.cpu_count() or 1)

    def add(self, **values: object) -> None:
        self.rows.append(ExperimentRow(values))

    def render(self) -> str:
        widths = {column: len(column) for column in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {
                column: _render_cell(row.values.get(column, "")) for column in self.columns
            }
            for column, text in rendered.items():
                widths[column] = max(widths[column], len(text))
            rendered_rows.append(rendered)
        header = "  ".join(column.ljust(widths[column]) for column in self.columns)
        separator = "  ".join("-" * widths[column] for column in self.columns)
        lines = [self.title, header, separator]
        for rendered in rendered_rows:
            lines.append(
                "  ".join(rendered[column].ljust(widths[column]) for column in self.columns)
            )
        if self.core_gated:
            lines.append(
                f"[cpu_count={self.cpu_count}; core-gated: parallel ratios "
                "need >1 core — on a 1-core machine <1x is expected, "
                "not a regression]"
            )
        return "\n".join(lines)

    def print(self) -> None:  # pragma: no cover - console convenience
        print("\n" + self.render())

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (used for machine-readable baselines)."""
        return {
            "title": self.title,
            "columns": list(self.columns),
            "cpu_count": self.cpu_count,
            "core_gated": self.core_gated,
            "rows": [
                {column: row.values.get(column) for column in self.columns}
                for row in self.rows
            ],
        }


def _render_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@dataclass
class AgreementResult:
    """Outcome of comparing an algorithm against the exact oracle on a workload."""

    total: int
    agreements: int
    false_negatives: int
    false_positives: int
    disagreement_examples: List[Database] = field(default_factory=list)

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.total if self.total else 1.0

    @property
    def sound(self) -> bool:
        """True when the algorithm never answered "certain" on a non-certain input."""
        return self.false_positives == 0


def _tally_agreement(
    outcomes: Iterable[Tuple[Database, bool, bool]], keep_examples: int
) -> AgreementResult:
    """Fold ``(database, expected, answer)`` outcomes into an AgreementResult."""
    total = agreements = false_negatives = false_positives = 0
    examples: List[Database] = []
    for database, expected, answer in outcomes:
        total += 1
        if answer == expected:
            agreements += 1
            continue
        if expected and not answer:
            false_negatives += 1
        else:
            false_positives += 1
        if len(examples) < keep_examples:
            examples.append(database)
    return AgreementResult(total, agreements, false_negatives, false_positives, examples)


def compare_with_oracle(
    query: TwoAtomQuery,
    algorithm: Callable[[Database], bool],
    databases: Iterable[Database],
    oracle: Optional[Callable[[Database], bool]] = None,
    keep_examples: int = 3,
) -> AgreementResult:
    """Compare ``algorithm`` against the exact oracle on every database."""
    oracle = oracle or (lambda database: certain_exact(query, database))
    return _tally_agreement(
        (
            (database, oracle(database), algorithm(database))
            for database in databases
        ),
        keep_examples,
    )


def batch_compare_with_oracle(
    engine,
    databases: Sequence[Database],
    oracle: Optional[Callable[[Database], bool]] = None,
    keep_examples: int = 3,
) -> AgreementResult:
    """Compare a batch engine against the exact oracle over a workload.

    ``engine`` must expose ``is_certain_many`` (see
    :meth:`repro.core.certain.CertainEngine.is_certain_many`); the whole
    workload is answered in one stream so per-query state is built once.
    """
    oracle = oracle or (lambda database: certain_exact(engine.query, database))
    answers = engine.is_certain_many(databases)
    return _tally_agreement(
        (
            (database, oracle(database), answer)
            for database, answer in zip(databases, answers)
        ),
        keep_examples,
    )


def timed(function: Callable[[], object]) -> Tuple[object, float]:
    """Run ``function`` once and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def _reference_work() -> int:
    """Connected components of a fixed pseudo-random 500-vertex graph.

    Pure-Python work of the engine's kind (tuples, dicts, sets) that shares
    no code with the program, so a change to the program cannot move it.
    """
    state, adjacency = 12345, {}
    for _ in range(3000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        left, right = state % 500, (state >> 9) % 500
        adjacency.setdefault(left, set()).add(right)
        adjacency.setdefault(right, set()).add(left)
    seen, components = set(), 0
    for start in adjacency:
        if start not in seen:
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                for neighbour in adjacency[stack.pop()] - seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
    return components


#: Runs of :func:`_reference_work` whose median is one reference reading.
_REFERENCE_SAMPLES = 7


def reference_seconds() -> float:
    """Median time of :func:`_reference_work` over ``_REFERENCE_SAMPLES`` runs.

    The machine's speed drifts (other tenants share its cores), so a gate
    on an absolute time is divided by this reference, timed next to it: the
    quotient is the time in units of a fixed computation, and moves only
    when the gated code does.
    """
    return statistics.median(
        timed(_reference_work)[1] for _ in range(_REFERENCE_SAMPLES)
    )


# --------------------------------------------------------------------------- #
# multi-core honesty: one shared vocabulary for every core-gated claim
# --------------------------------------------------------------------------- #
def effective_cores() -> int:
    """Cores genuinely available to *this process* (affinity-aware).

    ``os.cpu_count()`` reports the machine; a CI runner pinned to two of
    sixty-four cores would read as eligible for an 8-way parallelism claim.
    ``sched_getaffinity`` reports what the scheduler will actually grant.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # non-Linux fallback
        return os.cpu_count() or 1


def requires_cores(count: int) -> bool:
    """True when ``count`` tasks can genuinely run in parallel here."""
    return effective_cores() >= int(count)


def assert_core_gated(
    report: ExperimentReport,
    condition: bool,
    message: str,
    min_cores: int = 2,
) -> bool:
    """The one way a benchmark asserts a parallelism claim.

    Marks ``report`` as ``core_gated`` (so the committed JSON records that
    its headline ratio depends on cores), then:

    * on a runner with at least ``min_cores`` *effective* cores, a false
      ``condition`` **fails loudly** — a gated claim regressing on an
      eligible machine is a real regression, never a silent skip;
    * on a smaller runner the claim is unverifiable and the call returns
      ``False`` so the caller can assert its 1-core predictions instead.
    """
    report.core_gated = True
    cores = effective_cores()
    if cores < min_cores:
        return False
    if not condition:
        raise AssertionError(
            f"{message} (core-gated claim regressed on an eligible "
            f"{cores}-core runner)"
        )
    return True
