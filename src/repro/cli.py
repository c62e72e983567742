"""Command line interface: ``python -m repro <command>``.

Commands
--------
``classify``
    Classify one or more queries (or the paper's examples with ``--paper``).
``certain``
    Decide the certain answer of a query over facts loaded from CSV file(s).
``support``
    Estimate the fraction of repairs satisfying the query (Monte-Carlo).
``reduce``
    Build the Section 9 gadget database ``D[φ]`` for a DIMACS-like formula
    and report its size and certainty.
``run``
    Drive a whole JSONL workload (mixed queries, mixed backends) through one
    service session.
``serve``
    Run the long-lived server front end: a stdio JSONL loop, a TCP JSONL
    socket and/or a stdlib HTTP endpoint, all over one resident session pool
    with fingerprint-keyed answer caching.
``client``
    Scripted calls against a running server (JSONL socket or HTTP): send a
    workload file, or fetch the server's ``stats`` envelope.
``fleet-worker``
    Internal: one fleet worker process (spawned by ``serve --fleet``), a
    plain CQA server on an ephemeral JSONL port that lives until its stdin
    reaches EOF.
``fleet-status``
    Render a running server's or fleet's stats: per-worker breakdown, cache
    tiers, monotonic fleet totals.
``calibrate``
    Refit the planner's cost-model constants from the observed-vs-predicted
    strategy timings a server has accumulated, and flag strategies whose
    predictions drift past a threshold.
``catalog``
    Manage the multi-tenant dataset catalog: create tenants and datasets,
    list them, import CSV files (every import records a provenance session),
    show a dataset's import history.
``workload``
    Synthesise a seeded public-scale trace: Zipf-skewed query popularity,
    tenant hot spots, interleaved delta bursts and adversarial cache-busting
    rewrites, written as a portable JSONL file.
``replay``
    Fire a trace at any transport — an in-process server, a local fleet, a
    JSONL socket or an HTTP endpoint — with open-loop pacing, and report
    latency percentiles, per-tier cache hits and provenance coverage.

The CLI is a thin client of the service layer
(:class:`~repro.service.session.Session`): every command builds typed
requests, lets the backend-aware planner pick the execution strategy, and
renders the resulting answer envelopes.  Every command accepts ``--json`` to
emit the envelopes verbatim — one JSON object per answer, JSONL for batches —
which is the machine contract pinned by ``tests/test_cli_json.py``.  Planner
warnings (e.g. ``--workers`` on a single-database request) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core.reduction import ReductionError
from .service.datasets import DatasetRef
from .service.envelope import Answer, Request
from .service.runner import run_workload
from .service.session import Session


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Consistent query answering for two-atom self-join queries "
        "(PODS 2024 dichotomy reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    classify_parser = subparsers.add_parser("classify", help="classify queries")
    classify_parser.add_argument("queries", nargs="*", help='queries like "R(x,u|x,y) R(u,y|x,z)"')
    classify_parser.add_argument("--paper", action="store_true",
                                 help="classify the paper's example queries q1..q7")
    classify_parser.add_argument("--depth", type=int, default=4,
                                 help="tripath search depth (default 4)")
    classify_parser.add_argument("--json", action="store_true",
                                 help="emit one JSON answer envelope per query")

    certain_parser = subparsers.add_parser("certain", help="certain answer over CSV relations")
    certain_parser.add_argument("query", help="the two-atom query")
    certain_parser.add_argument("csv", nargs="+",
                                help="CSV file(s) with one column per position, or "
                                "relational backend connection specs "
                                "(dbapi:sqlite:/path?table=facts, backend://...); "
                                "several are answered in one batch, reusing the engine")
    certain_parser.add_argument("--backend", default=None, metavar="SPEC",
                                help="execution backend: 'memory', 'sqlite', 'dbapi', "
                                "or a connection spec like dbapi:sqlite:/path — with "
                                "a spec, each CSV file is first ingested into that "
                                "backend and answered server-side (pushdown)")
    certain_parser.add_argument("--no-header", action="store_true",
                                help="the CSV files have no header row")
    certain_parser.add_argument("--witness", action="store_true",
                                help="print a falsifying repair when the query is not certain")
    certain_parser.add_argument("--workers", type=int, default=None, metavar="N",
                                help="shard a multi-file batch across N worker "
                                "processes (default: planner decides; 0 = one per CPU)")
    certain_parser.add_argument("--explain-plan", action="store_true",
                                help="show why the planner's cost model picked the "
                                "execution strategy (and the scored alternatives)")
    certain_parser.add_argument("--json", action="store_true",
                                help="emit one JSON answer envelope per database (JSONL)")

    support_parser = subparsers.add_parser("support", help="estimate the repair support")
    support_parser.add_argument("query", help="the two-atom query")
    support_parser.add_argument("csv", help="CSV file with one column per position")
    support_parser.add_argument("--samples", type=int, default=500)
    support_parser.add_argument("--seed", type=int, default=None,
                                help="seed the repair sampler (reproducible estimates)")
    support_parser.add_argument("--no-header", action="store_true")
    support_parser.add_argument("--json", action="store_true",
                                help="emit the JSON answer envelope")

    reduce_parser = subparsers.add_parser("reduce", help="build the Section 9 gadget D[phi]")
    reduce_parser.add_argument("query", help="a query admitting a fork-tripath (e.g. q2)")
    reduce_parser.add_argument(
        "clauses",
        nargs="+",
        help='clauses as comma-separated signed integers, e.g. "-1,2,3"; '
        'put "--" before the first clause so that leading minus signs are '
        "not parsed as options",
    )
    reduce_parser.add_argument("--json", action="store_true",
                               help="emit the JSON answer envelope")

    run_parser = subparsers.add_parser(
        "run", help="answer a JSONL workload of mixed requests through one session"
    )
    run_parser.add_argument("requests", help="path to a JSONL file, one request per line")
    run_parser.add_argument("--json", action="store_true",
                            help="emit one JSON answer envelope per answer (JSONL)")

    serve_parser = subparsers.add_parser(
        "serve", help="run the resident server (stdio/socket JSONL and/or HTTP)"
    )
    serve_parser.add_argument("--stdio", action="store_true",
                              help="serve the JSONL dialect on stdin/stdout until EOF")
    serve_parser.add_argument("--socket", type=int, default=None, metavar="PORT",
                              help="serve the JSONL dialect on a TCP port (0 = ephemeral)")
    serve_parser.add_argument("--http", type=int, default=None, metavar="PORT",
                              help="serve the HTTP endpoint on a TCP port (0 = ephemeral)")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address for --socket/--http (default 127.0.0.1)")
    serve_parser.add_argument("--no-cache", action="store_true",
                              help="disable the fingerprint-keyed answer cache")
    serve_parser.add_argument("--cache-size", type=int, default=1024, metavar="N",
                              help="answer-cache capacity in envelopes (default 1024)")
    serve_parser.add_argument("--workers", type=int, default=None, metavar="N",
                              help="cap the planner's worker pool (0 = one per CPU)")
    serve_parser.add_argument("--fleet", type=int, default=None, metavar="N",
                              help="fan requests out to N worker processes with "
                              "dataset-affinity routing (the transports stay the same)")
    serve_parser.add_argument("--cache-db", default=None, metavar="PATH",
                              help="SQLite file backing the persistent answer-cache "
                              "tier (shared by every fleet worker; survives restarts)")
    serve_parser.add_argument("--catalog", default=None, metavar="PATH",
                              help="SQLite dataset catalog: enables the 'catalog' "
                              "wire op and tenant/name dataset addressing "
                              "(shared by every fleet worker)")
    serve_parser.add_argument("--calibrate-every", type=float, default=0.0,
                              metavar="SECONDS",
                              help="refit the planner's cost model from live "
                              "strategy timings every N seconds (0 = off)")

    client_parser = subparsers.add_parser(
        "client", help="send requests to a running server (JSONL socket or HTTP)"
    )
    client_parser.add_argument("requests", nargs="?", default=None,
                               help="JSONL workload file to send (omit with --stats)")
    client_parser.add_argument("--socket", metavar="HOST:PORT", default=None,
                               help="address of a JSONL socket server")
    client_parser.add_argument("--http", metavar="URL", default=None,
                               help="base URL of an HTTP server (e.g. http://127.0.0.1:8080)")
    client_parser.add_argument("--stats", action="store_true",
                               help="fetch the server's stats envelope instead of a workload")
    client_parser.add_argument("--json", action="store_true",
                               help="emit the raw JSON envelopes (JSONL)")

    worker_parser = subparsers.add_parser(
        "fleet-worker",
        help="internal: one fleet worker (spawned by serve --fleet)",
    )
    worker_parser.add_argument("--host", default="127.0.0.1")
    worker_parser.add_argument("--port", type=int, default=0,
                               help="JSONL port to bind (default 0 = ephemeral)")
    worker_parser.add_argument("--cache-db", default=None, metavar="PATH",
                               help="SQLite file for the shared persistent cache tier")
    worker_parser.add_argument("--cache-size", type=int, default=1024, metavar="N")
    worker_parser.add_argument("--no-cache", action="store_true")
    worker_parser.add_argument("--workers", type=int, default=None, metavar="N",
                               help="cap this worker's planner pool")
    worker_parser.add_argument("--catalog", default=None, metavar="PATH",
                               help="SQLite dataset catalog shared with the fleet")

    status_parser = subparsers.add_parser(
        "fleet-status", help="render a running server's or fleet's stats"
    )
    status_parser.add_argument("--socket", metavar="HOST:PORT", default=None,
                               help="address of a JSONL socket server")
    status_parser.add_argument("--http", metavar="URL", default=None,
                               help="base URL of an HTTP server")
    status_parser.add_argument("--json", action="store_true",
                               help="emit the raw stats envelope")

    calibrate_parser = subparsers.add_parser(
        "calibrate",
        help="refit planner cost-model constants from observed strategy timings",
    )
    calibrate_parser.add_argument(
        "stats", nargs="?", default=None,
        help="a saved stats envelope JSON file (or use --socket/--http)",
    )
    calibrate_parser.add_argument("--socket", metavar="HOST:PORT", default=None,
                                  help="fetch timings from a JSONL socket server")
    calibrate_parser.add_argument("--http", metavar="URL", default=None,
                                  help="fetch timings from an HTTP server")
    calibrate_parser.add_argument("--threshold", type=float, default=2.0, metavar="X",
                                  help="flag strategies whose observed/predicted ratio "
                                  "falls outside [1/X, X] (default 2.0)")
    calibrate_parser.add_argument("--write", metavar="PATH", default=None,
                                  help="write the refit constants as a COST_MODEL.json")
    calibrate_parser.add_argument("--check", action="store_true",
                                  help="exit 1 if any strategy drifts past the threshold")
    calibrate_parser.add_argument("--json", action="store_true",
                                  help="emit the refit constants and drift table as JSON")

    catalog_parser = subparsers.add_parser(
        "catalog", help="manage the multi-tenant dataset catalog"
    )
    catalog_sub = catalog_parser.add_subparsers(dest="catalog_command", required=True)
    catalog_create = catalog_sub.add_parser(
        "create", help="create a tenant (NAME) or a dataset (TENANT/NAME)"
    )
    catalog_create.add_argument("spec",
                                help="a tenant name, or TENANT/NAME for a dataset")
    catalog_ls = catalog_sub.add_parser(
        "ls", help="list tenants and datasets (with fact/session counts)"
    )
    catalog_ls.add_argument("tenant", nargs="?", default=None,
                            help="restrict the dataset listing to one tenant")
    catalog_ingest = catalog_sub.add_parser(
        "ingest", help="import a CSV file into a dataset (records provenance)"
    )
    catalog_ingest.add_argument("spec", help="the dataset as TENANT/NAME")
    catalog_ingest.add_argument("csv", help="CSV file with one column per position")
    catalog_ingest.add_argument("--no-header", action="store_true",
                                help="the CSV file has no header row")
    catalog_history = catalog_sub.add_parser(
        "history", help="show a dataset's import sessions (provenance trail)"
    )
    catalog_history.add_argument("spec", help="the dataset as TENANT/NAME")
    catalog_delete = catalog_sub.add_parser(
        "delete", help="delete a dataset with its facts and import history "
        "(a serving catalog also evicts dependent cached answers)"
    )
    catalog_delete.add_argument("spec", help="the dataset as TENANT/NAME")
    for sub in (catalog_create, catalog_ls, catalog_ingest, catalog_history,
                catalog_delete):
        sub.add_argument("--catalog", default="catalog.sqlite3", metavar="PATH",
                         help="the catalog SQLite file (default catalog.sqlite3)")
        sub.add_argument("--json", action="store_true",
                         help="emit the raw result as JSON")

    workload_parser = subparsers.add_parser(
        "workload", help="synthesise a seeded JSONL request trace"
    )
    workload_parser.add_argument("out", help="trace file to write (JSONL)")
    workload_parser.add_argument("--requests", type=int, default=1000, metavar="N",
                                 help="traffic request count (default 1000)")
    workload_parser.add_argument("--seed", type=int, default=0,
                                 help="trace seed (same spec + seed => same trace)")
    workload_parser.add_argument("--mode", choices=("catalog", "rows"),
                                 default="catalog",
                                 help="'catalog' addresses tenant/name datasets "
                                 "(self-contained preamble); 'rows' inlines "
                                 "every dataset's rows per request")
    workload_parser.add_argument("--queries", default="q1,q2,q3,q4,q5,q6",
                                 metavar="NAMES",
                                 help="comma-separated paper queries to draw from")
    workload_parser.add_argument("--query-skew", type=float, default=1.2, metavar="S",
                                 help="Zipf exponent over query popularity "
                                 "(0 = uniform; default 1.2)")
    workload_parser.add_argument("--tenants", type=int, default=3, metavar="N",
                                 help="tenant count (default 3)")
    workload_parser.add_argument("--datasets-per-tenant", type=int, default=2,
                                 metavar="N", help="datasets per tenant (default 2)")
    workload_parser.add_argument("--tenant-skew", type=float, default=1.2,
                                 metavar="S",
                                 help="Zipf exponent over dataset popularity "
                                 "(0 = uniform; default 1.2)")
    workload_parser.add_argument("--solutions", type=int, default=30, metavar="N",
                                 help="solution pairs per generated dataset "
                                 "(size scale; default 30)")
    workload_parser.add_argument("--rate", type=float, default=200.0, metavar="RPS",
                                 help="offered rate for the open-loop 'at' "
                                 "schedule (default 200)")
    workload_parser.add_argument("--delta-every", type=int, default=0, metavar="N",
                                 help="every N requests, one delta burst on a hot "
                                 "dataset (default 0 = none)")
    workload_parser.add_argument("--delta-size", type=int, default=2, metavar="N",
                                 help="rows added and removed per delta burst")
    workload_parser.add_argument("--rewrite-fraction", type=float, default=0.0,
                                 metavar="F",
                                 help="fraction of requests that are adversarial "
                                 "cache-busting rewrites (default 0)")
    workload_parser.add_argument("--json", action="store_true",
                                 help="emit the trace metadata as JSON")

    replay_parser = subparsers.add_parser(
        "replay", help="fire a trace at a transport and measure it"
    )
    replay_parser.add_argument("trace", help="a trace (or any JSONL workload) file")
    replay_parser.add_argument("--socket", metavar="HOST:PORT", default=None,
                               help="replay against a running JSONL socket server "
                               "(keep-alive connections, one per replay thread)")
    replay_parser.add_argument("--no-keepalive", action="store_true",
                               help="with --socket: dial a fresh connection per "
                               "request (the pre-keep-alive behaviour)")
    replay_parser.add_argument("--http", metavar="URL", default=None,
                               help="replay against a running HTTP server")
    replay_parser.add_argument("--fleet", type=int, default=None, metavar="N",
                               help="spawn an N-worker fleet for the replay "
                               "(torn down afterwards)")
    replay_parser.add_argument("--catalog", default=None, metavar="PATH",
                               help="catalog SQLite file for --fleet/direct replays "
                               "(default: a throwaway temporary catalog)")
    replay_parser.add_argument("--cache-db", default=None, metavar="PATH",
                               help="persistent answer-cache tier for "
                               "--fleet/direct replays")
    replay_parser.add_argument("--cache-size", type=int, default=1024, metavar="N",
                               help="answer-cache capacity (default 1024)")
    replay_parser.add_argument("--no-cache", action="store_true",
                               help="disable the answer cache (direct/--fleet)")
    replay_parser.add_argument("--speed", type=float, default=0.0, metavar="X",
                               help="open-loop pacing: 1 = trace time, 2 = double "
                               "speed, 0 = as fast as possible (default)")
    replay_parser.add_argument("--concurrency", type=int, default=1, metavar="N",
                               help="in-flight request cap (default 1 = strictly "
                               "sequential, deterministic)")
    replay_parser.add_argument("--verify-sample", type=int, default=0, metavar="N",
                               help="after the replay, re-answer N sampled query "
                               "lines on a fresh direct session and fail on any "
                               "verdict mismatch")
    replay_parser.add_argument("--json", action="store_true",
                               help="emit the replay report as JSON")
    replay_parser.add_argument("--out", metavar="PATH", default=None,
                               help="also write the JSON report to a file")
    return parser


# --------------------------------------------------------------------------- #
# envelope rendering helpers
# --------------------------------------------------------------------------- #
def _emit_json(answers: Sequence[Answer]) -> None:
    for answer in answers:
        print(json.dumps(answer.to_json_dict()))


def _emit_warnings(answers: Sequence[Answer]) -> None:
    seen = set()
    for answer in answers:
        for warning in answer.warnings:
            if warning not in seen:
                seen.add(warning)
                print(f"warning: {warning}", file=sys.stderr)


def _describe_database(answer: Answer) -> str:
    info = answer.database or {}
    return (
        f"Database(facts={info.get('facts')}, blocks={info.get('blocks')}, "
        f"max_block={info.get('max_block')}, repairs={info.get('repairs')})"
    )


def _print_witness(answer: Answer, label: Optional[str] = None) -> None:
    if answer.witness is None:
        return
    header = "falsifying repair:" if label is None else f"falsifying repair for {label}:"
    print(header)
    for fact in answer.witness:
        print(f"  {fact}")


def _emit_dataset_unavailable(request: Request, error: Exception, as_json: bool) -> int:
    """Render an unreadable-dataset failure as the typed envelope; exit 2.

    The envelope is the same ``ok: false`` shape ``repro run`` and the server
    emit for the fault (``details["error_kind"] = "dataset_unavailable"``),
    so scripted callers can dispatch on the failure class either way.
    """
    from .service.runner import error_answer

    answer = error_answer(request.op, request.query, error, request)
    if as_json:
        _emit_json([answer])
    else:
        print(f"error: {answer.error}", file=sys.stderr)
    return 2


# --------------------------------------------------------------------------- #
# command handlers
# --------------------------------------------------------------------------- #
def _run_classify(args) -> int:
    names: List[str] = []
    if args.paper:
        from .core.query import paper_queries

        names.extend(paper_queries())
    names.extend(args.queries)
    if not names:
        print("nothing to classify: pass queries or --paper", file=sys.stderr)
        return 2
    session = Session()
    answers = []
    for name in names:
        answers.extend(
            session.answer(Request(op="classify", query=name, depth=args.depth))
        )
    if args.json:
        _emit_json(answers)
        return 0
    for answer in answers:
        print(f"{answer.query}: {answer.details['summary']}")
    return 0


def _print_plan(answers: Sequence[Answer]) -> None:
    """Render the ``--explain-plan`` scoreboard (shared by every answer)."""
    plan = answers[0].details.get("plan") if answers else None
    if not plan:
        return
    headline = f"plan      : {plan['strategy']} — {plan['reason']}"
    cost = plan.get("cost")
    if cost is not None:
        headline += f" (modelled {cost['total_s'] * 1e3:.2f} ms)"
    print(headline)
    for scored in plan.get("alternatives", ()):
        if scored["strategy"] == plan["strategy"]:
            continue
        if scored.get("eligible") and scored.get("cost"):
            line = f"modelled {scored['cost']['total_s'] * 1e3:.2f} ms"
            speedup = scored["cost"].get("predicted_speedup")
            if speedup is not None:
                line += f", predicted speedup {speedup:.2f}x"
        else:
            line = "; ".join(scored.get("reasons", ())) or "ineligible"
        print(f"            {scored['strategy']}: {line}")


def _run_certain(args) -> int:
    from .backends.base import DatasetUnavailable, is_backend_spec

    ingest_spec = (
        args.backend
        if args.backend is not None and is_backend_spec(args.backend)
        else None
    )
    plain_csv = [path for path in args.csv if not is_backend_spec(path)]
    if ingest_spec is not None and len(plain_csv) > 1:
        print("--backend with a connection spec ingests into one table: "
              "pass one CSV file (or use ?table=... specs as positionals)",
              file=sys.stderr)
        return 2
    datasets = []
    for path in args.csv:
        if is_backend_spec(path):
            datasets.append(DatasetRef.backend(path))
        elif ingest_spec is not None:
            datasets.append(
                DatasetRef.backend(
                    ingest_spec,
                    ingest_csv=path,
                    has_header=not args.no_header,
                    label=path,
                )
            )
        else:
            datasets.append(DatasetRef.csv(path, has_header=not args.no_header))
    request = Request(
        op="certain",
        query=args.query,
        datasets=tuple(datasets),
        workers=args.workers,
        witness=args.witness,
        backend="dbapi" if ingest_spec is not None else args.backend,
        explain_plan=args.explain_plan,
    )
    session = Session()
    try:
        answers = session.answer(request)
    except DatasetUnavailable as error:
        return _emit_dataset_unavailable(request, error, args.json)
    _emit_warnings(answers)
    if args.json:
        _emit_json(answers)
        return 0
    if args.explain_plan:
        _print_plan(answers)
    if len(answers) == 1:
        answer = answers[0]
        print(f"query     : {session.resolve_query(args.query).query}")
        print(f"database  : {_describe_database(answer)}")
        print(f"certain   : {answer.verdict}")
        print(f"algorithm : {answer.algorithm}")
        if args.witness and not answer.verdict:
            _print_witness(answer)
        return 0
    sharded = answers[0].backend == "sharded-pool"
    workers = answers[0].details.get("workers")
    print(f"query     : {session.resolve_query(args.query).query}")
    print(f"batch     : {len(answers)} databases"
          + (f" (sharded over {workers} workers)" if sharded else ""))
    for path, answer in zip(args.csv, answers):
        print(f"  {path}: certain={answer.verdict} "
              f"[{answer.algorithm}] {_describe_database(answer)}")
    if args.witness:
        for path, answer in zip(args.csv, answers):
            if answer.verdict:
                continue
            _print_witness(answer, label=path)
    return 0


def _run_support(args) -> int:
    from .backends.base import DatasetUnavailable

    request = Request(
        op="support",
        query=args.query,
        datasets=(DatasetRef.csv(args.csv, has_header=not args.no_header),),
        samples=args.samples,
        seed=args.seed,
    )
    session = Session()
    try:
        answers = session.answer(request)
    except DatasetUnavailable as error:
        return _emit_dataset_unavailable(request, error, args.json)
    _emit_warnings(answers)
    if args.json:
        _emit_json(answers)
        return 0
    answer = answers[0]
    details = answer.details
    print(f"query            : {session.resolve_query(args.query).query}")
    print(f"database         : {_describe_database(answer)}")
    print(f"estimated support: {details['estimate']:.3f} "
          f"[{details['lower_bound']:.3f}, {details['upper_bound']:.3f}] "
          f"({details['confidence']:.0%} confidence, {details['samples']} samples)")
    if details["definitely_not_certain"]:
        print("a falsifying repair was sampled: the query is definitely NOT certain")
    return 0


def _run_reduce(args) -> int:
    clauses: List[List[int]] = []
    for clause_text in args.clauses:
        try:
            clauses.append([int(token) for token in clause_text.split(",") if token.strip()])
        except ValueError:
            print(f"cannot parse clause {clause_text!r}", file=sys.stderr)
            return 2
    session = Session()
    request = Request(
        op="reduce",
        query=args.query,
        clauses=tuple(tuple(clause) for clause in clauses),
    )
    try:
        answers = session.answer(request)
    except ReductionError as error:
        print(f"reduction failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        _emit_json(answers)
        return 0
    answer = answers[0]
    details = answer.details
    print(f"formula      : {details['formula']}")
    print(f"satisfiable  : {details['satisfiable']}")
    print(f"D[phi]       : {_describe_database(answer)}")
    print(f"certain(q)   : {answer.verdict}")
    print(f"Lemma 9.2    : {details['lemma_9_2']}")
    return 0


def _run_run(args) -> int:
    try:
        answers = run_workload(args.requests)
    except OSError as error:
        print(f"cannot read workload: {error}", file=sys.stderr)
        return 2
    _emit_warnings(answers)
    if args.json:
        _emit_json(answers)
    else:
        for index, answer in enumerate(answers):
            tag = answer.request_id or str(index)
            total = answer.timings.get("total_s")
            elapsed = f", {total * 1000:.1f} ms" if total is not None else ""
            if answer.ok:
                print(f"[{tag}] {answer.op} {answer.query}: {answer.verdict} "
                      f"[{answer.algorithm}] ({answer.backend}{elapsed})")
            else:
                print(f"[{tag}] {answer.op} {answer.query}: ERROR {answer.error}")
    return 0 if all(answer.ok for answer in answers) else 1


def _run_serve(args) -> int:
    from .server import serve_stdio, start_http_server, start_jsonl_server

    if not (args.stdio or args.socket is not None or args.http is not None):
        print("serve needs a transport: --stdio, --socket PORT and/or --http PORT",
              file=sys.stderr)
        return 2
    if args.cache_size < 1:
        print("--cache-size must be positive", file=sys.stderr)
        return 2
    fleet = None
    if args.fleet:
        if args.fleet < 1:
            print("--fleet must be positive", file=sys.stderr)
            return 2
        from .server.fleet import FleetDispatcher, spawn_fleet

        workers = spawn_fleet(
            args.fleet,
            cache_db=args.cache_db,
            cache_size=args.cache_size,
            no_cache=args.no_cache,
            default_workers=args.workers if args.workers else None,
            catalog=args.catalog,
        )
        server = fleet = FleetDispatcher(workers)
        ports = ", ".join(str(worker.port) for worker in workers)
        print(f"fleet: {len(workers)} workers on ports {ports}", file=sys.stderr)
        if args.calibrate_every:
            print("serve: --calibrate-every applies to single-server mode only "
                  "(fleet workers keep their committed calibration)",
                  file=sys.stderr)
    else:
        from .server import CQAServer

        server = CQAServer(
            cache_entries=args.cache_size,
            enable_cache=not args.no_cache,
            # 0 means "one per CPU", which is the planner's own default;
            # passing it through would instead cap the pool at one worker.
            default_workers=args.workers if args.workers else None,
            persistent_path=args.cache_db,
            catalog_path=args.catalog,
            calibrate_every=args.calibrate_every,
        )
    background = []
    try:
        if args.socket is not None:
            jsonl_server = start_jsonl_server(server, host=args.host, port=args.socket)
            background.append(jsonl_server)
            print(f"serving JSONL on {args.host}:{jsonl_server.port}", file=sys.stderr)
        if args.http is not None:
            http_server = start_http_server(server, host=args.host, port=args.http)
            background.append(http_server)
            print(f"serving HTTP on http://{args.host}:{http_server.port}",
                  file=sys.stderr)
        if args.stdio:
            serve_stdio(server)
        elif background:
            # Foreground until interrupted; the transports run on their own
            # threads, all answering through the one resident session pool.
            import threading

            threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        for transport in background:
            transport.shutdown()
            transport.server_close()
        if fleet is not None:
            fleet.close()
    return 0


def _render_client_envelopes(envelopes, as_json: bool) -> int:
    if as_json:
        for envelope in envelopes:
            print(json.dumps(envelope))
        return 0 if all(envelope.get("ok", False) for envelope in envelopes) else 1
    for index, envelope in enumerate(envelopes):
        tag = envelope.get("request_id") or str(index)
        if envelope.get("op") == "stats":
            details = envelope.get("details", {})
            cache = details.get("cache") or {}
            print(f"[{tag}] stats: hit_rate={envelope.get('verdict')} "
                  f"entries={cache.get('entries')} "
                  f"requests={details.get('transport', {}).get('requests')}")
        elif envelope.get("ok"):
            cache_tag = envelope.get("details", {}).get("cache")
            marker = f" cache={cache_tag}" if cache_tag else ""
            print(f"[{tag}] {envelope.get('op')} {envelope.get('query')}: "
                  f"{envelope.get('verdict')} [{envelope.get('algorithm')}] "
                  f"({envelope.get('backend')}{marker})")
        else:
            print(f"[{tag}] {envelope.get('op')} {envelope.get('query')}: "
                  f"ERROR {envelope.get('error')}")
    return 0 if all(envelope.get("ok", False) for envelope in envelopes) else 1


def _client_errors():
    """The exception classes every network client call can surface.

    ``http.client.HTTPException`` (a dead port answering garbage, a JSONL
    socket dialled with ``--http``, a truncated response) is neither an
    ``OSError`` nor a ``ValueError`` — without it a wrong ``--http`` target
    escapes as a raw ``BadStatusLine`` traceback instead of a one-line error.
    """
    import http.client

    return (OSError, ValueError, http.client.HTTPException)


def _describe_client_error(error) -> str:
    """One readable line for a failed client call.

    A ``BadStatusLine`` carries the server's whole first response line (for
    a JSONL server dialled with ``--http``, a full error envelope) — keep
    the diagnosis, drop the dump.
    """
    text = " ".join(str(error).split()) or type(error).__name__
    return text if len(text) <= 120 else text[:117] + "..."


def _run_client(args) -> int:
    from .server.client import (
        call_http,
        call_jsonl,
        fetch_stats,
        parse_host_port,
        workload_lines,
    )

    if (args.socket is None) == (args.http is None):
        print("client needs exactly one of --socket HOST:PORT or --http URL",
              file=sys.stderr)
        return 2
    if not args.stats and args.requests is None:
        print("client needs a workload file (or --stats)", file=sys.stderr)
        return 2
    try:
        if args.stats:
            if args.http is not None:
                envelope = fetch_stats(http_url=args.http)
            else:
                envelope = fetch_stats(jsonl_address=parse_host_port(args.socket))
            envelopes = [envelope]
        elif args.http is not None:
            payloads = [json.loads(line) for line in workload_lines(args.requests)]
            envelopes = call_http(args.http, payloads)
        else:
            host, port = parse_host_port(args.socket)
            envelopes = call_jsonl(host, port, workload_lines(args.requests))
    except _client_errors() as error:
        target = args.http if args.http is not None else args.socket
        print(f"client: cannot reach server at {target}: "
              f"{_describe_client_error(error)}", file=sys.stderr)
        return 2
    return _render_client_envelopes(envelopes, args.json)


def _run_fleet_worker(args) -> int:
    """One fleet worker: a CQA server on a JSONL port, alive until stdin EOF.

    Prints exactly one JSON ready line (``{"ready": true, "port": ...,
    "pid": ...}``) so the spawning dispatcher learns the ephemeral port,
    then blocks on stdin — closing the dispatcher's pipe is the shutdown
    signal, so an orphaned worker exits with its parent instead of leaking.
    """
    import os

    from .server import CQAServer, start_jsonl_server

    server = CQAServer(
        cache_entries=args.cache_size,
        enable_cache=not args.no_cache,
        default_workers=args.workers if args.workers else None,
        persistent_path=args.cache_db,
        catalog_path=args.catalog,
    )
    jsonl_server = start_jsonl_server(server, host=args.host, port=args.port)
    print(json.dumps({"ready": True, "port": jsonl_server.port, "pid": os.getpid()}),
          flush=True)
    try:
        sys.stdin.read()
    except KeyboardInterrupt:
        pass
    finally:
        jsonl_server.shutdown()
        jsonl_server.server_close()
    return 0


def _run_fleet_status(args) -> int:
    from .server.client import fetch_stats, parse_host_port

    if (args.socket is None) == (args.http is None):
        print("fleet-status needs exactly one of --socket HOST:PORT or --http URL",
              file=sys.stderr)
        return 2
    try:
        if args.http is not None:
            envelope = fetch_stats(http_url=args.http)
        else:
            envelope = fetch_stats(jsonl_address=parse_host_port(args.socket))
    except _client_errors() as error:
        target = args.http if args.http is not None else args.socket
        print(f"fleet-status: cannot reach server at {target}: "
              f"{_describe_client_error(error)}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(envelope))
        return 0
    details = envelope.get("details", {}) or {}
    fleet = details.get("fleet")
    if fleet:
        print(f"fleet     : {fleet.get('alive')}/{fleet.get('workers')} workers alive "
              f"({fleet.get('routing')} routing, {fleet.get('draining')} draining)")
    transport = details.get("transport", {}) or {}
    print(f"transport : requests={transport.get('requests')} "
          f"answers={transport.get('answers')} errors={transport.get('errors')} "
          f"retries={transport.get('retries', 0)} "
          f"deaths={transport.get('worker_deaths', 0)}")
    cache = details.get("cache") or {}
    persistent = cache.get("persistent") or {}
    line = (f"cache     : entries={cache.get('entries')} hits={cache.get('hits')} "
            f"misses={cache.get('misses')} hit_rate={envelope.get('verdict')}")
    if persistent:
        line += (f" persistent[entries={persistent.get('entries')} "
                 f"hits={persistent.get('hits')} stores={persistent.get('stores')}]")
    print(line)
    for row in details.get("workers") or []:
        state = ("draining" if row.get("draining")
                 else "alive" if row.get("alive")
                 else f"dead ({row.get('error')})")
        worker_cache = row.get("cache") or {}
        print(f"  worker {row.get('index')}: pid={row.get('pid')} "
              f"port={row.get('port')} {state} dispatched={row.get('dispatched')} "
              f"cache[entries={worker_cache.get('entries')} "
              f"hits={worker_cache.get('hits')}]")
    return 0


def _run_calibrate(args) -> int:
    from .service.costmodel import CostModel, refit_from_timings

    sources = sum(1 for source in (args.stats, args.socket, args.http)
                  if source is not None)
    if sources != 1:
        print("calibrate needs exactly one timing source: a stats JSON file, "
              "--socket HOST:PORT or --http URL", file=sys.stderr)
        return 2
    try:
        if args.stats is not None:
            with open(args.stats, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        else:
            from .server.client import fetch_stats, parse_host_port

            if args.http is not None:
                envelope = fetch_stats(http_url=args.http)
            else:
                envelope = fetch_stats(jsonl_address=parse_host_port(args.socket))
    except _client_errors() as error:
        if args.stats is not None:
            print(f"calibrate: cannot read stats file {args.stats!r}: {error}",
                  file=sys.stderr)
        else:
            target = args.http if args.http is not None else args.socket
            print(f"calibrate: cannot reach server at {target}: "
                  f"{_describe_client_error(error)}", file=sys.stderr)
        return 2
    details = envelope.get("details", envelope) if isinstance(envelope, dict) else {}
    timings = details.get("strategy_timings")
    if not timings:
        totals = details.get("totals")
        if isinstance(totals, dict):
            timings = totals.get("strategy_timings")
    if not timings:
        print("no strategy timings recorded: answer some requests first "
              "(the stats envelope carries details.strategy_timings)",
              file=sys.stderr)
        return 2
    model, drifts = refit_from_timings(
        timings, model=CostModel.committed(), drift_threshold=args.threshold
    )
    flagged = [drift for drift in drifts if drift.flagged]
    if args.json:
        print(json.dumps({
            "constants": model.to_json_dict(),
            "drift": [drift.to_json_dict() for drift in drifts],
            "flagged": [drift.strategy for drift in flagged],
        }))
    else:
        if drifts:
            print(f"{'strategy':<16} {'requests':>8} {'predicted':>11} "
                  f"{'observed':>11} {'ratio':>7}  drift")
            for drift in drifts:
                status = (f"FLAGGED (>{args.threshold:g}x)" if drift.flagged else "ok")
                print(f"{drift.strategy:<16} {drift.requests:>8} "
                      f"{drift.predicted_s:>10.4f}s {drift.observed_s:>10.4f}s "
                      f"{drift.ratio:>6.2f}x  {status}")
        else:
            print("(no usable strategy timings: rows need predicted_s > 0)")
    if args.write:
        payload = {
            "description": "Calibrated constants of "
            "repro.service.costmodel.CostModel, refit from a server's "
            "observed-vs-predicted strategy timings.",
            "calibrated_by": "repro calibrate",
            "constants": model.to_json_dict(),
        }
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.write}", file=sys.stderr)
    if args.check and flagged:
        print("drift check failed: "
              + ", ".join(drift.strategy for drift in flagged), file=sys.stderr)
        return 1
    return 0


def _run_catalog(args) -> int:
    from .catalog import CatalogError, CatalogService, split_spec

    service = CatalogService(args.catalog)
    try:
        if args.catalog_command == "create":
            if "/" in args.spec:
                created = service.create_dataset(args.spec)
                result: object = {"created": created}
                text = (f"created dataset {created['tenant']}/{created['name']} "
                        f"(id {created['id']})")
            else:
                created = service.create_tenant(args.spec)
                result = {"created": created}
                text = f"created tenant {created['name']} (id {created['id']})"
            lines = [text]
        elif args.catalog_command == "ls":
            datasets = service.datasets(args.tenant)
            result = {"tenants": service.tenants(), "datasets": datasets}
            lines = [
                f"{row['tenant']}/{row['name']}: {row['facts']} facts, "
                f"{row['import_sessions']} import sessions"
                for row in datasets
            ] or ["(no datasets)"]
        elif args.catalog_command == "ingest":
            session = service.ingest_csv(
                args.spec, args.csv, has_header=not args.no_header
            )
            result = {"import_session": session}
            lines = [
                f"session {session['id']}: +{session['facts_added']} "
                f"-{session['facts_removed']} facts "
                f"({session['fact_count']} total) "
                f"checksum={session['checksum'][:12]}"
            ]
        elif args.catalog_command == "delete":
            deleted = service.delete_dataset(args.spec)
            result = {"deleted": deleted}
            lines = [
                f"deleted {deleted['tenant']}/{deleted['name']}: "
                f"{deleted['facts']} facts, "
                f"{deleted['import_sessions']} import sessions "
                f"(fingerprint {'dropped' if deleted['fingerprint'] else 'none'})"
            ]
        else:  # history
            split_spec(args.spec)  # fail fast on a malformed spec
            sessions = service.history(args.spec)
            result = {"dataset": args.spec, "import_sessions": sessions}
            lines = [
                f"session {row['id']} [{row['kind']}] {row['source']}: "
                f"+{row['facts_added']} -{row['facts_removed']} "
                f"({row['fact_count']} total) checksum={row['checksum'][:12]}"
                for row in sessions
            ] or ["(no import sessions)"]
    except CatalogError as error:
        print(f"catalog error: {error}", file=sys.stderr)
        return 2
    finally:
        service.close()
    if args.json:
        print(json.dumps(result))
    else:
        for line in lines:
            print(line)
    return 0


def _run_workload(args) -> int:
    from .workload import TraceSpec, write_trace

    try:
        spec = TraceSpec(
            requests=args.requests,
            seed=args.seed,
            mode=args.mode,
            queries=tuple(
                name.strip() for name in args.queries.split(",") if name.strip()
            ),
            query_skew=args.query_skew,
            tenants=args.tenants,
            datasets_per_tenant=args.datasets_per_tenant,
            tenant_skew=args.tenant_skew,
            solutions=args.solutions,
            rate=args.rate,
            delta_every=args.delta_every,
            delta_size=args.delta_size,
            rewrite_fraction=args.rewrite_fraction,
        )
        meta, count = write_trace(args.out, spec)
    except ValueError as error:
        print(f"workload: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"workload: cannot write {args.out!r}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(meta))
    else:
        print(f"wrote {args.out}: {count} lines "
              f"({spec.requests} requests, seed {spec.seed}, mode {spec.mode})")
    return 0


def _run_replay(args) -> int:
    import os
    import tempfile

    from .workload import (
        compare_verdicts,
        direct_sender,
        http_sender,
        jsonl_sender,
        read_trace,
        replay,
        sample_indices,
    )

    remote_targets = sum(
        1 for target in (args.socket, args.http, args.fleet) if target is not None
    )
    if remote_targets > 1:
        print("replay needs at most one of --socket, --http or --fleet",
              file=sys.stderr)
        return 2
    if args.concurrency < 1:
        print("--concurrency must be positive", file=sys.stderr)
        return 2
    try:
        meta, payloads = read_trace(args.trace)
    except (OSError, ValueError) as error:
        print(f"replay: cannot read trace {args.trace!r}: {error}", file=sys.stderr)
        return 2
    if not payloads:
        print(f"replay: trace {args.trace!r} has no request lines", file=sys.stderr)
        return 2

    # Catalog-addressed traces need a catalog behind a direct/--fleet replay;
    # a throwaway file keeps `repro replay trace.jsonl` self-contained.
    needs_catalog = any(
        payload.get("dataset") is not None or payload.get("op") == "catalog"
        for payload in payloads
    )
    tempdir: Optional[tempfile.TemporaryDirectory] = None

    def local_catalog() -> Optional[str]:
        nonlocal tempdir
        if args.catalog is not None:
            return args.catalog
        if not needs_catalog:
            return None
        if tempdir is None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-replay-")
        return os.path.join(tempdir.name, "catalog.sqlite3")

    fleet = None
    sender = None
    try:
        if args.socket is not None:
            from .server.client import parse_host_port

            host, port = parse_host_port(args.socket)
            if args.no_keepalive:
                sender = jsonl_sender(host, port)
            else:
                from .workload import jsonl_keepalive_sender

                sender = jsonl_keepalive_sender(host, port)
        elif args.http is not None:
            sender = http_sender(args.http)
        elif args.fleet is not None:
            if args.fleet < 1:
                print("--fleet must be positive", file=sys.stderr)
                return 2
            from .server.fleet import FleetDispatcher, spawn_fleet

            fleet = FleetDispatcher(spawn_fleet(
                args.fleet,
                cache_db=args.cache_db,
                cache_size=args.cache_size,
                no_cache=args.no_cache,
                catalog=local_catalog(),
            ))
            sender = direct_sender(fleet)
        else:
            from .server import CQAServer

            sender = direct_sender(CQAServer(
                cache_entries=args.cache_size,
                enable_cache=not args.no_cache,
                persistent_path=args.cache_db,
                catalog_path=local_catalog(),
            ))
        try:
            report = replay(
                payloads, sender, speed=args.speed, concurrency=args.concurrency
            )
        except _client_errors() as error:
            target = args.http if args.http is not None else args.socket
            print(f"replay: cannot reach server at {target}: "
                  f"{_describe_client_error(error)}", file=sys.stderr)
            return 2

        verification = None
        if args.verify_sample:
            # Fidelity check: the same trace, sequentially, on a fresh direct
            # server with its own fresh catalog — import-session ids and
            # verdicts must agree with what the measured transport answered.
            from .server import CQAServer

            if tempdir is not None:
                tempdir.cleanup()
                tempdir = None
            reference_dir = tempfile.TemporaryDirectory(prefix="repro-replay-ref-")
            try:
                reference_server = CQAServer(
                    enable_cache=False,
                    catalog_path=(
                        os.path.join(reference_dir.name, "catalog.sqlite3")
                        if needs_catalog else None
                    ),
                )
                reference = replay(
                    payloads, direct_sender(reference_server), concurrency=1
                )
            finally:
                reference_dir.cleanup()
            indices = sample_indices(payloads, args.verify_sample, seed=0)
            verification = compare_verdicts(report, reference, indices)
    finally:
        closer = getattr(sender, "close", None)
        if callable(closer):
            closer()
        if fleet is not None:
            fleet.close()
        if tempdir is not None:
            tempdir.cleanup()

    stats = report.to_json_dict()
    if meta is not None:
        stats["trace"] = meta
    if verification is not None:
        stats["verification"] = verification
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(stats, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(json.dumps(stats))
    else:
        print(report.render())
        if verification is not None:
            print(f"fidelity  : {verification['agreements']}"
                  f"/{verification['sampled']} sampled verdicts agree "
                  "with a fresh direct session")
    if verification is not None and verification["mismatches"]:
        if not args.json:
            for mismatch in verification["mismatches"][:5]:
                print(f"  mismatch at line {mismatch['index']}: "
                      f"observed={mismatch['observed']} "
                      f"reference={mismatch['reference']}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "classify": _run_classify,
        "certain": _run_certain,
        "support": _run_support,
        "reduce": _run_reduce,
        "run": _run_run,
        "serve": _run_serve,
        "client": _run_client,
        "fleet-worker": _run_fleet_worker,
        "fleet-status": _run_fleet_status,
        "calibrate": _run_calibrate,
        "catalog": _run_catalog,
        "workload": _run_workload,
        "replay": _run_replay,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
