"""repro.eval — the indexed evaluation layer.

This package sits between the database substrate (:mod:`repro.db`) and the
certain-answer algorithms (:mod:`repro.core`).  It provides hash-index-driven
discovery of solution pairs so that the algorithm stack never falls back to
all-pairs scans over the facts:

* :class:`~repro.eval.fact_index.FactIndex` — a database's fact table
  (dense fact ids and their value rows) with the ids hash-indexed by schema
  and by arbitrary bound-position patterns, maintained incrementally;
* :class:`~repro.eval.matcher.AtomMatcher` — the compiled probe from a fact
  id playing one atom of the query to the ids playing the other: the index
  key is read off the fact's row, and repeated variables become
  position-pair equality checks;
* :class:`~repro.eval.evaluator.IndexedEvaluator` — a per-query facade over
  the database-resident caches (solution graph, initial ``Δ_k``), reusable
  across a stream of databases;
* :mod:`repro.eval.deltas` — the delta pipeline: typed
  :class:`~repro.eval.deltas.FactDelta` events emitted by
  ``Database.add/remove`` and the maintainer that replays them into the
  cached solution graph;
* :mod:`repro.eval.naive` — the seed quadratic implementations, kept verbatim
  as differential-testing oracles for the indexed paths.

``evaluator`` and ``naive`` import the algorithm layer and are therefore
loaded lazily (PEP 562) so that low-level modules — in particular
:mod:`repro.db.fact_store`, which maintains a :class:`FactIndex` — can import
this package without a cycle.
"""

from __future__ import annotations

from .deltas import (
    ADD,
    REMOVE,
    DeltaUnsupported,
    FactDelta,
    SolutionGraphMaintainer,
    graph_maintainer,
)
from .fact_index import FactIndex
from .matcher import AtomMatcher

__all__ = [
    "FactIndex",
    "AtomMatcher",
    "IndexedEvaluator",
    "FactDelta",
    "ADD",
    "REMOVE",
    "DeltaUnsupported",
    "SolutionGraphMaintainer",
    "graph_maintainer",
    "naive",
]

_LAZY = {
    "IndexedEvaluator": ("repro.eval.evaluator", "IndexedEvaluator"),
    "naive": ("repro.eval.naive", None),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attribute is None else getattr(module, attribute)
    globals()[name] = value
    return value
