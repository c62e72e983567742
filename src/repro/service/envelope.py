"""The typed ``Request → Answer`` envelope every service operation flows through.

A :class:`Request` names an operation, a query and (usually) datasets; the
session answers it with one :class:`Answer` per dataset (operations without a
dataset — ``classify``, ``reduce`` — produce exactly one).  The answer
envelope is the single result shape of the whole library surface: verdict,
algorithm provenance, the planner's chosen backend strategy, wall-clock
timings, the answered database's shape and version, an optional inline
falsifying repair, and any planner warnings.

The JSON forms (:func:`request_from_json_dict`, :meth:`Answer.to_json_dict`)
are the CLI's ``--json`` contract and the wire format of ``repro run``
workload files; ``tests/test_cli_json.py`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

from .datasets import DatasetRef, dataset_refs_from_json, json_flag

#: The operations a session understands.
OPERATIONS = ("certain", "explain", "witness", "support", "classify", "reduce")

#: The catalog dialect's wire operation, answered by :mod:`repro.catalog`
#: (named here so the server can route it without loading the catalog).
CATALOG_OP = "catalog"

#: Version tag stamped into every JSON answer envelope.
ENVELOPE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Request:
    """One service operation over one query (and zero or more datasets)."""

    op: str
    query: str
    datasets: Tuple[DatasetRef, ...] = ()
    workers: Optional[int] = None
    witness: bool = False
    samples: int = 500
    confidence: float = 0.95
    seed: Optional[int] = None
    clauses: Tuple[Tuple[int, ...], ...] = ()
    depth: int = 4
    backend: Optional[str] = None
    request_id: Optional[str] = None
    #: Attach the planner's scored alternatives to every answer's
    #: ``details["plan"]`` (the CLI's ``--explain-plan``).
    explain_plan: bool = False

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ValueError(
                f"unknown operation {self.op!r}; expected one of {OPERATIONS}"
            )

    @property
    def wants_witness(self) -> bool:
        return self.witness or self.op == "witness"


@dataclass
class Answer:
    """The uniform result envelope (see module docs).

    ``timings`` keys: ``load_s`` (dataset resolution), ``answer_s``
    (per-database decision time on sequential plans) *or*
    ``batch_answer_s`` (whole-batch wall-clock on sharded plans, where the
    per-database cost overlaps across workers), and ``total_s`` (the whole
    request, shared by every answer of a batch).
    """

    op: str
    query: str
    verdict: object = None
    ok: bool = True
    algorithm: str = ""
    backend: str = ""
    exact: Optional[bool] = None
    timings: Dict[str, float] = field(default_factory=dict)
    database: Optional[Dict[str, int]] = None
    source: Optional[str] = None
    witness: Optional[List[str]] = None
    details: Dict[str, object] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    error: Optional[str] = None
    request_id: Optional[str] = None

    def to_json_dict(self) -> Dict[str, object]:
        """The JSON envelope, with a stable key order."""
        return {
            "schema_version": ENVELOPE_SCHEMA_VERSION,
            "op": self.op,
            "query": self.query,
            "ok": self.ok,
            "verdict": self.verdict,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "exact": self.exact,
            "timings": self.timings,
            "database": self.database,
            "source": self.source,
            "witness": self.witness,
            "details": self.details,
            "warnings": self.warnings,
            "error": self.error,
            "request_id": self.request_id,
        }


def answer_from_json_dict(payload: Dict[str, object]) -> Answer:
    """Rebuild an :class:`Answer` from its JSON envelope.

    The inverse of :meth:`Answer.to_json_dict`, used wherever an envelope
    crosses a process boundary and comes back — the fleet dispatcher
    re-typing worker replies, the persistent answer cache rehydrating a
    stored row.  Unknown keys (a newer writer's fields) are dropped rather
    than rejected; ``schema_version`` is consumed, not stored.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"envelope must be a JSON object, got {type(payload).__name__}")
    known = {field.name for field in dataclass_fields(Answer)}
    kwargs = {key: value for key, value in payload.items() if key in known}
    kwargs.setdefault("op", "?")
    kwargs.setdefault("query", "?")
    return Answer(**kwargs)


def request_from_json_dict(
    payload: Dict[str, object], base_dir: Optional[str] = None
) -> Request:
    """Build a :class:`Request` from one JSONL workload line.

    Recognised keys: ``op`` (default ``certain``), ``query`` (required; a
    paper name like ``q3`` or inline query text), the dataset keys of
    :func:`~repro.service.datasets.dataset_refs_from_json`, and the option
    keys ``workers``, ``witness``, ``samples``, ``confidence``, ``seed``,
    ``clauses``, ``depth``, ``backend``, ``id``, ``explain_plan``.
    ``witness`` and ``explain_plan`` must be booleans when given.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"request must be a JSON object, got {type(payload).__name__}")
    query = payload.get("query")
    if not isinstance(query, str) or not query.strip():
        raise ValueError("request is missing a 'query' string")
    clauses = tuple(
        tuple(int(literal) for literal in clause)
        for clause in payload.get("clauses", ())
    )
    workers = payload.get("workers")
    seed = payload.get("seed")
    request_id = payload.get("id")
    return Request(
        op=str(payload.get("op", "certain")),
        query=query,
        datasets=tuple(dataset_refs_from_json(payload, base_dir=base_dir)),
        workers=int(workers) if workers is not None else None,
        witness=json_flag(payload, "witness", False),
        samples=int(payload.get("samples", 500)),
        confidence=float(payload.get("confidence", 0.95)),
        seed=int(seed) if seed is not None else None,
        clauses=clauses,
        depth=int(payload.get("depth", 4)),
        backend=payload.get("backend"),
        request_id=str(request_id) if request_id is not None else None,
        explain_plan=json_flag(payload, "explain_plan", False),
    )
