"""repro — consistent query answering for two-atom self-join queries.

A full reproduction of "A Dichotomy in the Complexity of Consistent Query
Answering for Two Atom Queries With Self-Join" (Padmanabha, Segoufin,
Sirangelo, PODS 2024): the term/query model, the inconsistent-database
substrate (blocks, repairs, SQLite backend, generators), the polynomial
algorithms (``Cert_k``, ``matching``), the tripath machinery, the dichotomy
classifier, the hardness reductions, and exact oracles.

Quickstart::

    from repro import parse_query, classify, CertainEngine, random_solution_database

    q2 = parse_query("R(x,u|x,y) R(u,y|x,z)")
    print(classify(q2).summary())          # coNP-complete via FORK_TRIPATH ...
    engine = CertainEngine(q2)
    db = random_solution_database(q2, solution_count=6, domain_size=4)
    print(engine.is_certain(db))

Or through the service layer — the unified front door that classifies each
query once, plans the execution strategy per request, and answers every
operation with one typed envelope::

    from repro import Session, Request, DatasetRef

    session = Session()
    [answer] = session.answer(
        Request(op="witness", query="R(x,u|x,y) R(u,y|x,z)",
                datasets=(DatasetRef.in_memory(db),))
    )
    print(answer.verdict, answer.algorithm, answer.witness)
"""

from .backends import (
    Backend,
    BackendCapabilities,
    BackendSpec,
    DatasetUnavailable,
    DbApiBackend,
    backend_totals,
    is_backend_spec,
    parse_backend_spec,
    reset_backend_totals,
)
from .core.approximate import (
    RepairOracle,
    SupportEstimate,
    estimate_support,
    exact_support,
    probably_certain,
)
from .core.branching import BranchingTriple, g_bar, g_elements
from .core.certain import (
    CertainEngine,
    EngineReport,
    certain_bruteforce,
    certain_exact,
    certain_trivial,
    find_falsifying_repair,
)
from .core.certk import (
    CertK,
    CertKResult,
    NaiveCertK,
    cert_2,
    cert_k,
    delta_k,
)
from .core.classification import (
    ClassificationResult,
    Complexity,
    Method,
    classify,
)
from .core.matching import (
    BipartiteGraphMaintainer,
    MatchingAlgorithm,
    MatchingResult,
    MatchingState,
    certain_by_matching,
    matching_algorithm,
    matching_cache_key,
    matching_maintainer,
)
from .core.query import (
    TwoAtomQuery,
    homomorphism,
    paper_queries,
    parse_atom,
    parse_query,
    queries_isomorphic,
    subsuming_homomorphism,
)
from .core.reduction import ReductionError, SatReduction, sat_reduction
from .core.sjf import (
    SelfJoinFreeQuery,
    SjfComplexity,
    certain_sjf_bruteforce,
    classify_sjf,
    reduce_sjf_database,
    sjf,
)
from .core.solutions import (
    BlockComponentMaintainer,
    SolutionGraph,
    block_component_maintainer,
    build_solution_graph,
    build_solution_graph_naive,
    q_connected_block_components,
    solution_graph_cache_key,
)
from .core.terms import Atom, Element, Fact, RelationSchema
from .core.tripath import (
    FORK,
    TRIANGLE,
    Tripath,
    TripathBlock,
    TripathSearcher,
    find_tripath_for_query,
    find_tripath_in_database,
)
from .db.fact_store import (
    Block,
    Database,
    Repair,
    derived_cache_totals,
    reset_derived_cache_totals,
)
from .graphs.bipartite import IncrementalMatching
from .eval.deltas import (
    ADD,
    REMOVE,
    DeltaUnsupported,
    FactDelta,
    SolutionGraphMaintainer,
)
from .eval.evaluator import IndexedEvaluator
from .eval.fact_index import FactIndex
from .eval.matcher import AtomMatcher
from .db.generators import (
    random_block_database,
    random_solution_database,
    scaled_workload,
)
from .db.repairs import count_repairs, iter_repairs, sample_repair, sample_repairs
from .logic.cnf import CnfFormula, Clause, Literal, random_restricted_three_sat
from .logic.dpll import DpllSolver, is_satisfiable
from .logic.encode import FalsifyingRepairEncoding, certain_via_sat
from .service import (
    Answer,
    CostEstimate,
    CostModel,
    DatasetRef,
    ExecutionContext,
    Plan,
    Planner,
    QueryHandle,
    Request,
    ScoredStrategy,
    Session,
    Strategy,
    StrategyRegistry,
    request_from_json_dict,
    run_workload,
)

__version__ = "1.0.0"

#: Server-layer symbols re-exported lazily (PEP 562): the resident front end
#: drags in http.server/socketserver/urllib, which a plain ``import repro``
#: — in particular every per-process CLI invocation — should not pay for.
_SERVER_EXPORTS = frozenset(
    {
        "AnswerCache",
        "CQAServer",
        "CachingSession",
        "FleetDispatcher",
        "PersistentAnswerCache",
        "spawn_fleet",
        "start_http_server",
        "start_jsonl_server",
    }
)

#: Catalog, SQLite-store and workload symbols, also lazy: sqlite3
#: connections and trace synthesis are opt-in subsystems, not part of the
#: core import cost (an in-process server loads neither).
_CATALOG_EXPORTS = frozenset(
    {"CatalogError", "CatalogService", "CatalogStore"}
)
_SQLITE_EXPORTS = frozenset(
    {"SqliteFactStore", "certain_answer_via_sqlite", "certain_answers_via_sqlite"}
)
_WORKLOAD_EXPORTS = frozenset(
    {"ReplayReport", "TraceSpec", "generate_trace", "read_trace", "replay",
     "write_trace"}
)


def __getattr__(name):
    if name in _SERVER_EXPORTS:
        from . import server

        return getattr(server, name)
    if name in _CATALOG_EXPORTS:
        from . import catalog

        return getattr(catalog, name)
    if name in _SQLITE_EXPORTS:
        from .db import sqlite_backend

        return getattr(sqlite_backend, name)
    if name in _WORKLOAD_EXPORTS:
        from . import workload

        return getattr(workload, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    # terms / queries
    "Atom", "Element", "Fact", "RelationSchema",
    "TwoAtomQuery", "parse_atom", "parse_query", "paper_queries",
    "homomorphism", "subsuming_homomorphism", "queries_isomorphic",
    # database substrate
    "Database", "Block", "Repair",
    "iter_repairs", "count_repairs", "sample_repair", "sample_repairs",
    "random_solution_database", "random_block_database", "scaled_workload",
    "SqliteFactStore", "certain_answer_via_sqlite", "certain_answers_via_sqlite",  # noqa: F822
    # relational backend layer (DB-API pushdown)
    "Backend", "BackendCapabilities", "BackendSpec", "DbApiBackend",
    "DatasetUnavailable", "is_backend_spec", "parse_backend_spec",
    "backend_totals", "reset_backend_totals",
    # indexed evaluation layer
    "FactIndex", "AtomMatcher", "IndexedEvaluator",
    # delta pipeline
    "FactDelta", "ADD", "REMOVE", "DeltaUnsupported",
    "SolutionGraphMaintainer",
    # algorithms
    "CertK", "CertKResult", "NaiveCertK", "cert_k", "cert_2", "delta_k",
    "MatchingAlgorithm", "MatchingResult", "matching_algorithm", "certain_by_matching",
    "MatchingState", "BipartiteGraphMaintainer", "matching_cache_key",
    "matching_maintainer", "IncrementalMatching",
    "derived_cache_totals", "reset_derived_cache_totals",
    "SolutionGraph", "build_solution_graph", "build_solution_graph_naive",
    "q_connected_block_components", "solution_graph_cache_key",
    "BlockComponentMaintainer", "block_component_maintainer",
    # tripaths and classification
    "BranchingTriple", "g_bar", "g_elements",
    "Tripath", "TripathBlock", "TripathSearcher",
    "find_tripath_for_query", "find_tripath_in_database", "FORK", "TRIANGLE",
    "ClassificationResult", "Complexity", "Method", "classify",
    # certain answering
    "CertainEngine", "EngineReport",
    "certain_bruteforce", "certain_exact", "certain_trivial", "find_falsifying_repair",
    "SupportEstimate", "RepairOracle",
    "estimate_support", "exact_support", "probably_certain",
    # reductions and logic substrate
    "SelfJoinFreeQuery", "SjfComplexity", "sjf", "classify_sjf",
    "reduce_sjf_database", "certain_sjf_bruteforce",
    "SatReduction", "sat_reduction", "ReductionError",
    "CnfFormula", "Clause", "Literal", "random_restricted_three_sat",
    "DpllSolver", "is_satisfiable",
    "FalsifyingRepairEncoding", "certain_via_sat",
    # service layer (the unified front door)
    "Session", "Request", "Answer", "DatasetRef", "Planner", "Plan",
    "QueryHandle", "request_from_json_dict", "run_workload",
    # strategy API and cost model
    "Strategy", "StrategyRegistry", "ExecutionContext",
    "CostModel", "CostEstimate", "ScoredStrategy",
    # server layer (the resident front end; resolved lazily via __getattr__)
    "CQAServer", "CachingSession", "AnswerCache",  # noqa: F822
    "FleetDispatcher", "PersistentAnswerCache", "spawn_fleet",  # noqa: F822
    "start_http_server", "start_jsonl_server",  # noqa: F822
    # catalog and workload subsystems (lazy as well)
    "CatalogService", "CatalogStore", "CatalogError",  # noqa: F822
    "TraceSpec", "generate_trace", "write_trace", "read_trace",  # noqa: F822
    "replay", "ReplayReport",  # noqa: F822
    "__version__",
]
