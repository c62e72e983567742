"""Bounded row streaming and the solution-relevant reduction.

Deciding certainty for a database far larger than RAM needs two things:

* **bounded cursors** — every row-producing fragment is iterated in
  ``fetchmany(batch_size)`` batches through :class:`BoundedRowStream`, which
  counts the rows resident in Python at any instant (``peak_rows``), so the
  tests can *assert* the buffer bound instead of trusting it;
* **the solution-relevant reduction** — :func:`reduced_streamed_database`
  builds a small in-memory database ``D'`` that is *certainty-equivalent* to
  the huge server-side database ``D``:

  - stream the ordered solution pairs of ``q`` over ``D`` (the pushed-down
    self-join); every participating fact is *relevant*, everything else is
    an *escape* fact (it participates in no solution);
  - keep all relevant facts, grouped into their key blocks; for each such
    block ask the server for its total fact count, and when the block also
    contains escape facts fetch **one** real escape representative
    (``LIMIT 1`` with full-tuple exclusion);
  - drop every block containing no relevant fact.

  Equivalence: a falsifying repair of ``D`` maps to one of ``D'`` by
  swapping each escape choice for the block's representative (escapes
  participate in no solution, so they are interchangeable), and a
  falsifying repair of ``D'`` extends to ``D`` by choosing arbitrarily on
  the dropped blocks (their facts are all escapes).  Hence
  ``certain(q, D) = certain(q, D')`` while peak Python-side memory is
  proportional to the number of *solution-relevant* facts, not to ``|D|``.

The streamed solution pairs double as the database's primed solution graph
(which also seeds ``Cert_k``), exactly like the SQLite pushdown pipeline —
``D' ⊆ D`` and all solution participants are kept, so the solution sets of
``D`` and ``D'`` coincide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.query import TwoAtomQuery
from ..core.solutions import SolutionGraph, solution_graph_cache_key
from ..core.terms import Fact
from ..db.fact_store import Database
from ..eval.deltas import graph_maintainer
from .base import note_backend_event

#: Default fetchmany batch (rows resident in Python per fragment stream).
DEFAULT_BATCH_SIZE = 512


class BoundedRowStream:
    """Iterate a DB-API cursor in bounded ``fetchmany`` batches.

    The counting wrapper of the streaming contract: ``peak_rows`` is the
    largest number of rows that were ever buffered in Python at once, and
    the tests pin ``peak_rows <= batch_size``.  The cursor is closed (when
    the driver supports it) as soon as the stream is exhausted.
    """

    def __init__(self, cursor, batch_size: int = DEFAULT_BATCH_SIZE) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self._cursor = cursor
        self.batch_size = batch_size
        self.peak_rows = 0
        self.total_rows = 0

    def __iter__(self) -> Iterator[Tuple]:
        try:
            while True:
                batch = self._cursor.fetchmany(self.batch_size)
                if not batch:
                    return
                self.peak_rows = max(self.peak_rows, len(batch))
                self.total_rows += len(batch)
                note_backend_event("rows_streamed", len(batch))
                for row in batch:
                    yield row
        finally:
            close = getattr(self._cursor, "close", None)
            if callable(close):
                close()


@dataclass
class ReductionStats:
    """Shape of one solution-relevant reduction (surfaced in answer details)."""

    server_facts: int = 0
    streamed_pairs: int = 0
    relevant_facts: int = 0
    touched_blocks: int = 0
    escape_representatives: int = 0
    reduced_facts: int = 0
    batch_size: int = DEFAULT_BATCH_SIZE
    peak_buffer_rows: int = 0
    streams: List[BoundedRowStream] = field(default_factory=list, repr=False)

    def watch(self, stream: BoundedRowStream) -> BoundedRowStream:
        self.streams.append(stream)
        return stream

    def seal(self) -> None:
        """Fold the per-stream peaks into the headline bound."""
        for stream in self.streams:
            self.peak_buffer_rows = max(self.peak_buffer_rows, stream.peak_rows)

    def to_json_dict(self) -> Dict[str, int]:
        return {
            "server_facts": self.server_facts,
            "streamed_pairs": self.streamed_pairs,
            "relevant_facts": self.relevant_facts,
            "touched_blocks": self.touched_blocks,
            "escape_representatives": self.escape_representatives,
            "reduced_facts": self.reduced_facts,
            "batch_size": self.batch_size,
            "peak_buffer_rows": self.peak_buffer_rows,
        }


def reduced_streamed_database(
    backend,
    query: TwoAtomQuery,
    batch_size: int = DEFAULT_BATCH_SIZE,
    server_facts: Optional[int] = None,
) -> Tuple[Database, ReductionStats]:
    """Stream the solution-relevant reduction of ``backend`` under ``query``.

    Returns the certainty-equivalent in-memory database (with its solution
    graph already primed from the streamed pairs, delta maintainer
    registered) plus the :class:`ReductionStats` of the run.  ``backend`` is
    any implementation of the :class:`~repro.backends.base.Backend` protocol.
    """
    stats = ReductionStats(batch_size=batch_size)
    stats.server_facts = (
        server_facts if server_facts is not None else backend.count()
    )

    pairs: List[Tuple[Fact, Fact]] = []
    relevant: Dict[Fact, None] = {}
    for first, second in backend.stream_solution_pairs(
        query, batch_size=batch_size, stats=stats
    ):
        pairs.append((first, second))
        relevant[first] = None
        relevant[second] = None
    stats.streamed_pairs = len(pairs)
    stats.relevant_facts = len(relevant)

    blocks: Dict[Tuple, List[Fact]] = {}
    for fact in relevant:
        blocks.setdefault(fact.key_tuple, []).append(fact)

    kept: List[Fact] = list(relevant)
    for key, members in blocks.items():
        total = backend.block_total(key)
        if total > len(members):
            stats.touched_blocks += 1
            representative = backend.escape_representative(key, members)
            if representative is not None:
                kept.append(representative)
                stats.escape_representatives += 1
    stats.reduced_facts = len(kept)

    database = Database(kept)
    id_of = database.id_of
    database.prime_cache(
        solution_graph_cache_key(query),
        SolutionGraph.from_pairs(
            query, database, ((id_of(first), id_of(second)) for first, second in pairs)
        ),
        maintainer=graph_maintainer(query),
    )
    stats.seal()
    return database, stats


def materialized_database(
    backend, batch_size: int = DEFAULT_BATCH_SIZE
) -> Tuple[Database, ReductionStats]:
    """Stream *every* fact into an in-memory database (the no-pushdown path).

    The stream is still bounded per batch, but the result holds the whole
    relation — this is what the planner's memory strategies pay for a
    backend dataset, and what the cost model charges them for.
    """
    stats = ReductionStats(batch_size=batch_size)
    facts = list(backend.stream_facts(batch_size=batch_size, stats=stats))
    stats.server_facts = len(facts)
    stats.relevant_facts = len(facts)
    stats.reduced_facts = len(facts)
    stats.seal()
    return Database(facts), stats
