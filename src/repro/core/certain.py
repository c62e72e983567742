"""Exact oracles and the classification-driven certain-answer engine.

Three exact ways of deciding ``certain(q)`` are provided:

* :func:`certain_bruteforce` — enumerate every repair (exponential, the
  simplest possible ground truth for tests);
* :func:`certain_exact` — search for a falsifying repair through the SAT
  encoding of :mod:`repro.logic.encode` (exact, scales much further);
* :class:`CertainEngine` — the production entry point: it classifies the
  query once (Sections 3–10) and then dispatches every database to the
  cheapest *sound and complete* procedure for that class:

  - trivial queries: the one-atom check of Section 2;
  - the Theorem 6.1 class: a greedy falsifying repair per block component
    (a repair falsifying ``q`` proves non-certainty, Section 2), and
    ``Cert_2``, complete there, only when some component has none;
  - the coNP-complete classes: the SAT oracle;
  - the ``Cert_k ∨ ¬matching`` classes: ``Cert_k``, then ``¬matching``,
    then Proposition 10.3's repair read off the matching, and the SAT
    oracle only when none of them settles the answer: the paper's
    polynomial algorithms need the impractically large theoretical
    constant ``k`` to be complete (see DESIGN.md §5).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from ..db.fact_store import Database, Repair
from ..db.repairs import iter_repairs
from ..logic.encode import FalsifyingRepairEncoding, certain_via_sat
from .certk import CertK
from .matching import MatchingAlgorithm
from .query import TwoAtomQuery, subsuming_homomorphism
from .solutions import block_partition, build_solution_graph
from .terms import Fact

#: Default sharding granularity of :meth:`CertainEngine.explain_many`:
#: chunks dispatched per pool worker.  Several chunks per worker smooth over
#: databases of uneven cost without paying one task dispatch per database;
#: the planner's cost model derives its chunk sizes from the same constant.
DEFAULT_CHUNKS_PER_WORKER = 4


def certain_bruteforce(
    query: TwoAtomQuery, database: Database, limit: Optional[int] = None
) -> bool:
    """``certain(q)`` by enumerating repairs (exponential; testing ground truth).

    ``limit`` optionally caps the number of repairs inspected; when the cap
    is reached without finding a falsifying repair a ``RuntimeError`` is
    raised rather than returning a possibly wrong answer.
    """
    inspected = 0
    for repair in iter_repairs(database):
        inspected += 1
        if not query.satisfied_by(repair):
            return False
        if limit is not None and inspected >= limit:
            raise RuntimeError(
                f"brute-force oracle exceeded the limit of {limit} repairs"
            )
    return True


def certain_exact(query: TwoAtomQuery, database: Database) -> bool:
    """Exact ``certain(q)`` via the falsifying-repair SAT encoding."""
    return certain_via_sat(query, database)


def find_falsifying_repair(
    query: TwoAtomQuery, database: Database
) -> Optional[Repair]:
    """A repair witnessing non-certainty, or ``None`` when the query is certain."""
    return FalsifyingRepairEncoding(query, database).find_falsifying_repair()


def certain_trivial(query: TwoAtomQuery, database: Database) -> bool:
    """``certain(q)`` for queries equivalent to a one-atom query (Section 2).

    If a (subsuming) homomorphism maps ``A`` to ``B`` the query is equivalent
    to the single atom ``B``; if it maps ``B`` to ``A`` it is equivalent to
    ``A``; if the two atoms have identical key tuples every solution inside a
    repair uses a single fact matching both atoms.  In all three cases the
    query is certain exactly when some block consists solely of facts with
    the relevant property — a simple polynomial check.
    """
    if subsuming_homomorphism(query.atom_a, query.atom_b) is not None:
        predicate: Callable[[Fact], bool] = lambda fact: query.atom_b.match(fact) is not None
    elif subsuming_homomorphism(query.atom_b, query.atom_a) is not None:
        predicate = lambda fact: query.atom_a.match(fact) is not None
    elif query.keys_identical():
        predicate = query.is_self_solution
    else:
        raise ValueError("certain_trivial called on a non-trivial query")
    return any(
        all(predicate(fact) for fact in block.facts) for block in database.blocks()
    )


@dataclass
class EngineReport:
    """How the engine answered one ``is_certain`` call.

    ``witness`` is populated only when the caller asked for one (see
    :meth:`CertainEngine.explain` with ``want_witness=True``) and the answer
    is negative: it is a falsifying repair of the database, produced inline
    by whatever decided the answer — the greedy's repair, the matching's
    repair or the deciding SAT solve — not recomputed out-of-band.
    """

    certain: bool
    algorithm: str
    exact: bool
    witness: Optional[Repair] = None


class CertainEngine:
    """Classification-driven consistent query answering for one fixed query.

    The engine mirrors the decision structure of the paper:

    * trivial queries       → the one-atom check of Section 2;
    * Theorem 6.1 queries   → a greedy falsifying repair per block
      component, else ``Cert_2(q)`` (complete by the theorem);
    * coNP-complete queries → the exact SAT oracle;
    * remaining PTime cases → ``Cert_k(q) ∨ ¬matching(q)`` (Theorems 8.1 and
      10.5) with a practical ``k``.  Because the theoretical ``k`` of
      Proposition 8.2 is astronomically large, a *negative* answer of the
      combined polynomial algorithms is confirmed: first by the repair
      Proposition 10.3 reads off the saturating matching, checked to
      falsify ``q``, and only when that repair satisfies ``q`` by the exact
      SAT oracle.  With ``strict_polynomial`` set and no witness asked for,
      neither runs and the paper's algorithm answer is returned as-is.
    """

    def __init__(
        self,
        query: TwoAtomQuery,
        practical_k: int = 3,
        strict_polynomial: bool = False,
        classification: Optional[object] = None,
    ) -> None:
        # The import lives here to avoid a circular dependency: the
        # classification module uses the algorithms of this package.
        from .classification import ClassificationResult, Method, classify

        self.query = query
        self.practical_k = practical_k
        self.strict_polynomial = strict_polynomial
        self.classification: ClassificationResult = classification or classify(query)
        self._method_enum = Method
        self._cert2 = CertK(query, k=2)
        self._certk = CertK(query, k=practical_k)
        self._matching = MatchingAlgorithm(query)
        #: The shape of the last sharded :meth:`explain_many`:
        #: ``{"workers", "chunks"}``.  ``None`` until a sharded batch runs;
        #: sequential calls leave it untouched.
        self.last_parallel_stats: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def is_certain(self, database: Database) -> bool:
        return self.explain(database).certain

    def explain(self, database: Database, want_witness: bool = False) -> EngineReport:
        """Answer ``certain(q)`` and report which algorithm produced the answer.

        With ``want_witness`` a negative answer also carries a falsifying
        repair in :attr:`EngineReport.witness`.  A negative decided by the
        greedy's or the matching's repair carries that repair; on the
        SAT-oracle paths, and for a ``Cert_2`` negative, the witness comes
        from a SAT solve (on the oracle paths, the one that decided the
        answer).
        Only a ``strict_polynomial`` negative the repair does not certify
        pays one extra SAT solve, which settles it either way: a witness
        found upgrades the report to an exact ``False`` (the repair is a
        concrete certificate of non-certainty), and no witness existing
        overturns it to an exact ``True`` — the solve proved the
        paper-algorithm answer was a false negative.  Without
        ``want_witness`` a report carries no witness.
        """
        method = self.classification.method
        methods = self._method_enum
        if method == methods.TRIVIAL:
            report = EngineReport(certain_trivial(self.query, database), "one-atom check", True)
        elif method == methods.SYNTACTIC_EASY:
            report = self._explain_theorem61(database, want_witness)
        elif method in (methods.SYNTACTIC_HARD, methods.FORK_TRIPATH):
            report = self._explain_via_sat(
                database, "SAT oracle (coNP-complete query)", want_witness
            )
        # Remaining polynomial cases: no tripath, or triangle-tripath only.
        elif self._certk.is_certain(database):
            report = EngineReport(True, f"Cert_{self.practical_k}", True)
        elif self._matching.certain_by_negation(database):
            report = EngineReport(True, "¬matching (Proposition 10.2)", True)
        else:
            report = self._explain_polynomial_negative(database, want_witness)
        if want_witness and not report.certain and report.witness is None:
            witness = find_falsifying_repair(self.query, database)
            if witness is not None:
                report = EngineReport(False, report.algorithm, True, witness)
            elif not report.exact:
                # strict_polynomial negative, but the witness solve proved no
                # falsifying repair exists: the paper-algorithm answer was a
                # false negative and the exact answer is already paid for.
                report = EngineReport(
                    True, f"{report.algorithm}; overturned by the witness SAT solve", True
                )
        return report

    def _explain_theorem61(self, database: Database, want_witness: bool) -> EngineReport:
        """A Theorem 6.1 answer: greedy falsifying repairs, else ``Cert_2``.

        The components run smallest first, each reading its memoised greedy
        choice or running the greedy (see
        :meth:`~repro.core.solutions.BlockComponent.falsifying_choice`).  A
        choice in every component is a repair falsifying ``q``: no solution
        leaves a component.  ``Cert_2``, complete on this class, answers when
        some component has no choice or a memoised certain fixpoint.
        """
        components = block_partition(self.query, database).components
        if not any(component.memo.get(2, (False,))[0] for component in components):
            graph = build_solution_graph(self.query, database)
            choices = []
            for component in sorted(components, key=attrgetter("size")):
                choice = component.falsifying_choice(database, graph)
                if choice is None:
                    break
                choices.append(choice)
            else:
                witness = None
                if want_witness:
                    chosen = chain.from_iterable(choices)
                    in_block_order = sorted(chosen, key=database.fact_blocks.__getitem__)
                    witness = Repair(tuple(map(database.fact, in_block_order)))
                return EngineReport(False, "greedy falsifying repair", True, witness)
        return EngineReport(self._cert2.run(database).certain, "Cert_2 (Theorem 6.1)", True)

    def _explain_polynomial_negative(
        self, database: Database, want_witness: bool
    ) -> EngineReport:
        """A negative ``Cert_k ∨ ¬matching`` answer: the matching's repair, then SAT
        (neither under ``strict_polynomial`` without ``want_witness``)."""
        if want_witness or not self.strict_polynomial:
            witness = self._matching.witness_repair(database)
            if witness is not None:
                return EngineReport(
                    False,
                    "matching repair (Proposition 10.3)",
                    True,
                    witness if want_witness else None,
                )
        if self.strict_polynomial:
            return EngineReport(
                False,
                f"Cert_{self.practical_k} ∨ ¬matching (paper algorithm, k below the "
                "theoretical bound)",
                False,
            )
        return self._explain_via_sat(
            database,
            "SAT oracle (confirming a negative polynomial-algorithm answer)",
            want_witness,
        )

    def _explain_via_sat(
        self, database: Database, algorithm: str, want_witness: bool
    ) -> EngineReport:
        """The SAT-oracle leg, extracting the witness from the deciding solve."""
        if not want_witness:
            return EngineReport(certain_exact(self.query, database), algorithm, True)
        witness = find_falsifying_repair(self.query, database)
        return EngineReport(witness is None, algorithm, True, witness)

    # ------------------------------------------------------------------ #
    # batch API
    # ------------------------------------------------------------------ #
    def explain_many(
        self,
        databases: Iterable[Database],
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
        want_witness: bool = False,
    ) -> List[EngineReport]:
        """Answer ``certain(q)`` for a batch of databases.

        The engine state built once per query — the classification, the
        ``Cert_k`` runners, the matching runner and their atom matchers — is
        reused across the whole stream; per-database derived structures (the
        solution graph feeding both ``Cert_k`` and ``matching``) are cached
        on each database, so the two polynomial algorithms share one build.

        With ``workers > 1`` the stream is materialised, partitioned into
        contiguous chunks and sharded across a ``multiprocessing`` pool: the
        (picklable) engine is shipped once per worker through the pool
        initialiser, each chunk travels as the fact lists of its databases,
        and the worker rebuilds every database from its facts and answers it
        with full engine-state reuse.  Results are merged back in input
        order, so the parallel mode is a drop-in replacement for the
        sequential one.  ``chunk_size`` overrides the default sharding
        granularity (``len / (4 * workers)``, at least 1); ``workers`` of
        ``None``, 0 or 1 stays sequential and lazy per database.
        ``want_witness`` is forwarded to every :meth:`explain` call
        (witnesses travel back from the workers).
        """
        if not workers or workers <= 1:
            return list(self.explain_stream(databases, want_witness=want_witness))
        items = list(databases)
        if chunk_size is None:
            chunk_size = max(
                1, math.ceil(len(items) / (DEFAULT_CHUNKS_PER_WORKER * workers))
            )
        starts = range(0, len(items), chunk_size)
        processes = min(workers, len(starts))
        if processes <= 1:
            return list(self.explain_stream(items, want_witness=want_witness))
        chunks = [
            [database.facts() for database in items[start:start + chunk_size]]
            for start in starts
        ]
        import multiprocessing  # here, not at module top: only the pool uses it

        with multiprocessing.Pool(
            processes=processes,
            initializer=_init_pool_worker,
            initargs=(self, want_witness),
        ) as pool:
            shard_results = pool.map(_explain_chunk_in_worker, chunks)
        self.last_parallel_stats = {"workers": processes, "chunks": len(chunks)}
        return [report for shard in shard_results for report in shard]

    def explain_stream(
        self, databases: Iterable[Database], want_witness: bool = False
    ) -> Iterator[EngineReport]:
        """Lazy variant of :meth:`explain_many` for long streams."""
        for database in databases:
            yield self.explain(database, want_witness=want_witness)

    def is_certain_many(
        self,
        databases: Iterable[Database],
        workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> List[bool]:
        """Boolean wrapper for :meth:`explain_many` (same ``workers`` contract)."""
        return [
            report.certain
            for report in self.explain_many(
                databases, workers=workers, chunk_size=chunk_size
            )
        ]

    def paper_polynomial_answer(self, database: Database) -> bool:
        """The answer of the paper's polynomial algorithm ``Cert_k ∨ ¬matching``.

        Useful for the agreement benchmarks; this is an under-approximation
        of ``certain(q)`` for any ``k`` (Section 5 and Proposition 10.2).
        """
        return self._certk.is_certain(database) or self._matching.certain_by_negation(
            database
        )


# --------------------------------------------------------------------------- #
# multiprocessing plumbing for the sharded batch mode
# --------------------------------------------------------------------------- #
#: Per-worker engine installed by the pool initialiser, so the engine state is
#: unpickled once per worker process instead of once per chunk.
_POOL_ENGINE: Optional[CertainEngine] = None
_POOL_WANT_WITNESS: bool = False


def _init_pool_worker(engine: CertainEngine, want_witness: bool = False) -> None:
    global _POOL_ENGINE, _POOL_WANT_WITNESS
    _POOL_ENGINE = engine
    _POOL_WANT_WITNESS = want_witness


def _explain_chunk_in_worker(chunk: Sequence[List[Fact]]) -> List[EngineReport]:
    """Answer one chunk: each entry is the fact list of one database."""
    assert _POOL_ENGINE is not None, "pool worker used before initialisation"
    return [
        _POOL_ENGINE.explain(Database(facts), want_witness=_POOL_WANT_WITNESS)
        for facts in chunk
    ]


def default_worker_count() -> int:
    """A reasonable ``workers`` value for this machine (used by the CLI).

    Prefers the process's CPU affinity over the raw core count so that
    cgroup/affinity-limited environments (containers, CI) do not
    oversubscribe the pool.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # platforms without sched_getaffinity
        return max(1, os.cpu_count() or 1)
