"""Span recording around the program's layer boundaries, from outside it.

The traced run wraps public methods on the program's classes (never
module-level names: callers import functions such as ``classify`` and
``build_solution_graph`` by value, so a patched module attribute would be
missed).  Each wrapped call records one span: name, start, end, parent
span and request id.  Spans stay in memory until the run ends, when
:func:`layer_metrics` turns them into per-layer self times and counts.

A method that a later version of the program no longer has is skipped,
and its layer reads zero; the run reports how many boundaries it wrapped.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Structures of ``Database.cached`` that get a build-time metric of their
#: own; any other key is counted under ``other``.
STRUCTURES = ("solution_graph", "certk_seeds", "bipartite_matching")


class Recorder:
    """In-memory spans of one single-threaded run."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index or -1, request id, extra]``
        self.spans: List[list] = []
        #: The id of the operation in flight (the runner counts them up).
        self.request = -1
        #: While set, calls are not recorded (e.g. a set-up between rounds).
        self.paused = False
        self._stack: List[int] = []

    def open(self, name: str) -> Optional[int]:
        if self.paused:
            return None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.request, None])
        self._stack.append(index)
        return index

    def close(self, index: Optional[int], extra: Optional[dict] = None) -> None:
        if index is None:
            return
        span = self.spans[index]
        span[2] = perf_counter_ns()
        span[5] = extra
        self._stack.pop()

    def call(self, name: str, function: Callable, *args, **kwargs):
        index = self.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(index)


def self_times(spans: List[list]) -> List[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


# --------------------------------------------------------------------------- #
# the boundaries
# --------------------------------------------------------------------------- #
def _after_cache_get(args, result, before):
    return {"hit": result is not None}


def _before_resolve(args):
    return args[0].stats.get("queries_classified", 0)


def _after_resolve(args, result, before):
    return {"classified": args[0].stats.get("queries_classified", 0) != before}


def _after_dataset(args, result, before):
    return {"facts": len(result)}


def _after_certk(args, result, before):
    return {"processed": getattr(result, "iterations", 0), "certain": bool(result.certain)}


def _after_matching(args, result, before):
    return {"certain": bool(result)}


def _after_encode(args, result, before):
    encoding = args[0]
    return {
        "clauses": len(getattr(encoding, "clauses", ())),
        "variables": encoding.variable_count() if hasattr(encoding, "variable_count") else 0,
    }


def _before_dpll(args):
    return dict(getattr(args[0], "statistics", {}))


def _after_dpll(args, result, before):
    after = getattr(args[0], "statistics", {})
    return {key: after.get(key, 0) - before.get(key, 0) for key in ("decisions", "propagations")}


#: (module, class, method, span name, before hook, after hook)
BOUNDARIES: Tuple[tuple, ...] = (
    ("repro.server.app", "CQAServer", "handle_payload", "server", None, None),
    ("repro.server.app", "CQAServer", "handle_request", "server", None, None),
    ("repro.server.pool", "SessionPool", "answer", "pool", None, None),
    ("repro.server.cache", "AnswerCache", "get", "cache.get", None, _after_cache_get),
    ("repro.server.cache", "AnswerCache", "put", "cache.put", None, None),
    ("repro.catalog.service", "CatalogService", "dataset_ref", "catalog.read", None, None),
    ("repro.catalog.service", "CatalogService", "annotate", "catalog.read", None, None),
    ("repro.catalog.service", "CatalogService", "handle_payload", "catalog.write", None, None),
    ("repro.service.session", "Session", "resolve_query", "session.resolve", _before_resolve, _after_resolve),
    ("repro.service.planner", "Planner", "plan", "planner.plan", None, None),
    ("repro.service.datasets", "DatasetRef", "resolve", "datasets.resolve", None, _after_dataset),
    ("repro.core.certain", "CertainEngine", "explain", "engine.explain", None, None),
    ("repro.core.certk", "CertK", "run", "certk.run", None, _after_certk),
    ("repro.core.matching", "MatchingAlgorithm", "certain_by_negation", "matching", None, _after_matching),
    ("repro.logic.encode", "FalsifyingRepairEncoding", "__init__", "encode", None, _after_encode),
    ("repro.logic.dpll", "DpllSolver", "solve_clauses", "dpll.solve", _before_dpll, _after_dpll),
)


def _wrap(recorder: Recorder, original, name, before, after):
    def traced(*args, **kwargs):
        state = before(args) if before is not None else None
        index = recorder.open(name)
        extra = None
        try:
            result = original(*args, **kwargs)
            if after is not None:
                extra = after(args, result, state)
            return result
        finally:
            recorder.close(index, extra)

    return traced


def _wrap_cached(recorder: Recorder, original):
    """``Database.cached``: time the builder and the delta replay it runs."""

    def traced(self, key, builder, maintainer=None):
        label = key[0] if isinstance(key, tuple) and key and isinstance(key[0], str) else ""
        name = "derived.build." + (label if label in STRUCTURES else "other")

        def build(database):
            return recorder.call(name, builder, database)

        replay = None
        if maintainer is not None:

            def replay(database, value, delta):
                return recorder.call("deltas.maintain", maintainer, database, value, delta)

        return original(self, key, build, replay)

    return traced


def install(recorder: Recorder) -> Tuple[Callable[[], None], int]:
    """Wrap every boundary that exists; returns ``(restore, wrapped count)``."""
    undo: List[Tuple[type, str, object]] = []
    targets = list(BOUNDARIES) + [("repro.db.fact_store", "Database", "cached", None, None, None)]
    for module_name, class_name, method, name, before, after in targets:
        try:
            owner = getattr(importlib.import_module(module_name), class_name)
        except (ImportError, AttributeError):
            continue
        original = owner.__dict__.get(method)
        if not callable(original):
            continue
        if name is None:
            wrapper = _wrap_cached(recorder, original)
        else:
            wrapper = _wrap(recorder, original, name, before, after)
        setattr(owner, method, wrapper)
        undo.append((owner, method, original))

    def restore() -> None:
        for owner, method, original in reversed(undo):
            setattr(owner, method, original)

    return restore, len(undo)


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
def _totals(spans: List[list]):
    self_ns: Dict[str, int] = {}
    total_ns: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    extras: Dict[str, List[dict]] = {}
    for span, ns in zip(spans, self_times(spans)):
        name = span[0]
        self_ns[name] = self_ns.get(name, 0) + ns
        total_ns[name] = total_ns.get(name, 0) + span[2] - span[1]
        calls[name] = calls.get(name, 0) + 1
        if span[5] is not None:
            extras.setdefault(name, []).append(span[5])
    return self_ns, total_ns, calls, extras


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(rows: List[dict], key: str) -> float:
    return _ratio(sum(row.get(key, 0) for row in rows), len(rows))


def _share(rows: List[dict], key: str) -> float:
    return _ratio(sum(1 for row in rows if row.get(key)), len(rows))


#: Every per-layer metric with its unit.  ``ms/op`` is self time per
#: operation of the traced phase; ``ratio`` is a share between 0 and 1
#: (``trace.overhead`` may go below 0 on noise); ``count`` is a count, or
#: the mean count per call for the ``certk``/``encode``/``dpll`` details.
PER_LAYER = (
    ("server.self_ms", "ms/op"),
    ("server.errors", "count"),
    ("server.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans_per_op", "count"),
    ("trace.boundaries", "count"),
    ("pool.self_ms", "ms/op"),
    ("cache.get_ms", "ms/op"),
    ("cache.put_ms", "ms/op"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("catalog.read_ms", "ms/op"),
    ("catalog.write_ms", "ms/op"),
    ("session.resolve_ms", "ms/op"),
    ("classify.ms", "ms/op"),
    ("session.registry_hit_rate", "ratio"),
    ("planner.plan_ms", "ms/op"),
    ("datasets.resolve_ms", "ms/op"),
    ("datasets.facts", "count"),
    ("engine.explain_ms", "ms/op"),
    ("engine.calls", "count"),
    ("engine.sat_share", "ratio"),
    *(("derived.build_ms." + structure, "ms/op") for structure in STRUCTURES + ("other",)),
    ("derived.builds", "count"),
    ("derived.rebuilds", "count"),
    ("certk.run_ms", "ms/op"),
    ("certk.calls", "count"),
    ("certk.processed", "count"),
    ("certk.decided_ratio", "ratio"),
    ("matching.ms", "ms/op"),
    ("matching.calls", "count"),
    ("matching.decided_ratio", "ratio"),
    ("encode.ms", "ms/op"),
    ("encode.calls", "count"),
    ("encode.clauses", "count"),
    ("encode.variables", "count"),
    ("dpll.solve_ms", "ms/op"),
    ("dpll.decisions", "count"),
    ("dpll.propagations", "count"),
    ("deltas.write_ms", "ms/op"),
    ("deltas.maintain_ms", "ms/op"),
    ("deltas.maintained", "count"),
    ("deltas.rebuilds", "count"),
    ("deltas.maintained_ratio", "ratio"),
)


def layer_metrics(spans: List[list], ops: int, counters: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer ``name -> (value, unit)`` of one traced phase (see ``PER_LAYER``).

    ``counters`` carries what the program counts itself (cache and
    derived-structure statistics, failed operations, tracing overhead).
    """
    self_ns, total_ns, calls, extras = _totals(spans)

    def per_op(name: str) -> float:
        return _ratio(self_ns.get(name, 0), ops) / 1e6

    roots = [span for span in spans if span[3] < 0 and span[0] == "server"]
    resolves = extras.get("session.resolve", [])
    classified_ns = sum(
        span[2] - span[1]
        for span in spans
        if span[0] == "session.resolve" and span[5] and span[5].get("classified")
    )
    sat_ns = total_ns.get("encode", 0) + total_ns.get("dpll.solve", 0)
    values = {
        "server.self_ms": per_op("server"),
        "server.errors": counters["errors"],
        "server.unattributed_share": _ratio(
            self_ns.get("server", 0), sum(span[2] - span[1] for span in roots)
        ),
        "trace.overhead": counters["overhead"],
        "trace.spans_per_op": _ratio(len(spans), ops),
        "trace.boundaries": counters["boundaries"],
        "pool.self_ms": per_op("pool"),
        "cache.get_ms": per_op("cache.get"),
        "cache.put_ms": per_op("cache.put"),
        "cache.hit_rate": counters["cache.hit_rate"],
        "cache.evictions": counters["cache.evictions"],
        "cache.invalidations": counters["cache.invalidations"],
        "catalog.read_ms": per_op("catalog.read"),
        "catalog.write_ms": per_op("catalog.write"),
        "session.resolve_ms": per_op("session.resolve"),
        "classify.ms": _ratio(classified_ns, ops) / 1e6,
        "session.registry_hit_rate": _ratio(
            sum(1 for row in resolves if not row.get("classified")), len(resolves)
        ),
        "planner.plan_ms": per_op("planner.plan"),
        "datasets.resolve_ms": per_op("datasets.resolve"),
        "datasets.facts": _mean(extras.get("datasets.resolve", []), "facts"),
        "engine.explain_ms": per_op("engine.explain"),
        "engine.calls": calls.get("engine.explain", 0),
        "engine.sat_share": _ratio(sat_ns, total_ns.get("engine.explain", 0)),
        "derived.builds": counters["derived.builds"],
        "derived.rebuilds": counters["derived.rebuilds"],
        "certk.run_ms": per_op("certk.run"),
        "certk.calls": calls.get("certk.run", 0),
        "certk.processed": _mean(extras.get("certk.run", []), "processed"),
        "certk.decided_ratio": _share(extras.get("certk.run", []), "certain"),
        "matching.ms": per_op("matching"),
        "matching.calls": calls.get("matching", 0),
        "matching.decided_ratio": _share(extras.get("matching", []), "certain"),
        "encode.ms": per_op("encode"),
        "encode.calls": calls.get("encode", 0),
        "encode.clauses": _mean(extras.get("encode", []), "clauses"),
        "encode.variables": _mean(extras.get("encode", []), "variables"),
        "dpll.solve_ms": per_op("dpll.solve"),
        "dpll.decisions": _mean(extras.get("dpll.solve", []), "decisions"),
        "dpll.propagations": _mean(extras.get("dpll.solve", []), "propagations"),
        "deltas.write_ms": per_op("deltas.write"),
        "deltas.maintain_ms": per_op("deltas.maintain"),
        "deltas.maintained": counters["deltas.maintained"],
        "deltas.rebuilds": counters["deltas.rebuilds"],
        "deltas.maintained_ratio": _ratio(
            counters["deltas.maintained"],
            counters["deltas.maintained"] + counters["deltas.rebuilds"],
        ),
    }
    for structure in STRUCTURES + ("other",):
        values["derived.build_ms." + structure] = per_op("derived.build." + structure)
    return {name: (values[name], unit) for name, unit in PER_LAYER}
