#!/usr/bin/env python3
"""Server-layer quickstart: one resident process, two transports, one cache.

PR 4 makes the service layer *resident*: a :class:`repro.CQAServer` owns one
session pool plus a fingerprint-keyed :class:`repro.AnswerCache`, and the
stdio/socket JSONL loop and the stdlib HTTP endpoint all answer through it.
Because the certain answer is a pure function of (query, database), a
repeated request is served straight from the cache — with ``cache: "hit"``
provenance — and any mutation of the underlying data (a fact delta, a
rewritten CSV, an out-of-band SQLite write) makes the next request miss.
A :class:`repro.server.JsonlClient` keeps one socket open across calls (a
framing ``ping`` marks the end of each batch), and the last section answers
a batch of databases over two pool workers, which receive each database as
its fact list, and checks the verdicts against the sequential engine.

Run with::

    python examples/server_quickstart.py
"""

import io
import json
import random

from repro import (
    CertainEngine,
    CQAServer,
    Database,
    DatasetRef,
    Fact,
    Request,
    parse_query,
)
from repro.db.generators import random_solution_database
from repro.server import (
    JsonlClient,
    serve_stream,
    start_http_server,
    start_jsonl_server,
)
from repro.server.client import call_http, call_jsonl, fetch_stats

Q3 = "R(x|y) R(y|z)"


def main() -> None:
    server = CQAServer()

    # ------------------------------------------------------------------ #
    # 1. The stdio JSONL loop (what `repro serve --stdio` runs): one JSON
    #    request per line in, one answer envelope per line out.
    # ------------------------------------------------------------------ #
    workload = "\n".join(
        [
            '{"op": "classify", "query": "q3"}',
            '{"op": "certain", "query": "%s", "rows": [["a","b"],["b","c"]]}' % Q3,
            '{"op": "certain", "query": "q3", "rows": [["a","b"],["b","c"]]}',
        ]
    )
    output = io.StringIO()
    serve_stream(server, io.StringIO(workload + "\n"), output)
    print("stdio loop:")
    for line in output.getvalue().splitlines():
        envelope = json.loads(line)
        print(
            f"  {envelope['op']:<9} verdict={envelope['verdict']!r:<18} "
            f"cache={envelope['details'].get('cache')}"
        )

    # ------------------------------------------------------------------ #
    # 2. The TCP transports: a JSONL socket and an HTTP endpoint, both
    #    answering through the *same* resident pool and cache.
    # ------------------------------------------------------------------ #
    jsonl = start_jsonl_server(server)
    http = start_http_server(server)
    try:
        [envelope] = call_jsonl(
            "127.0.0.1",
            jsonl.port,
            ['{"op": "certain", "query": "q3", "rows": [["a","b"],["b","c"]]}'],
        )
        print(f"\nJSONL socket (port {jsonl.port}): cache="
              f"{envelope['details'].get('cache')}")
        [envelope] = call_http(
            f"http://127.0.0.1:{http.port}",
            {"op": "certain", "query": Q3, "rows": [["a", "b"], ["b", "c"]]},
        )
        print(f"HTTP endpoint (port {http.port}):  cache="
              f"{envelope['details'].get('cache')}")

        # ------------------------------------------------------------------ #
        # 3. A keep-alive client: two calls, one dial.  Pipelined lines in
        #    one call come back in order, each tagged with its request_id.
        # ------------------------------------------------------------------ #
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            lines = [
                json.dumps({"op": "certain", "query": Q3,
                            "rows": [["a", "b"], ["b", "c"]], "id": str(i)})
                for i in range(3)
            ]
            envelopes = client.call(lines)
            print(f"\nkeep-alive: {len(envelopes)} pipelined answers over "
                  f"{client.connects} dial(s):")
            for envelope in envelopes:
                print(f"  id={envelope['request_id']} verdict={envelope['verdict']} "
                      f"cache={envelope['details'].get('cache')}")
            [again] = client.call([lines[0]])  # reuses the same socket
            assert client.connects == 1
            assert again["details"]["cache"] == "hit"

        # ------------------------------------------------------------------ #
        # 4. The stats operation: hit rates and per-query timings.
        # ------------------------------------------------------------------ #
        stats = fetch_stats(http_url=f"http://127.0.0.1:{http.port}")
        cache_stats = stats["details"]["cache"]
        print(f"\nstats: hit_rate={stats['verdict']:.2f} "
              f"hits={cache_stats['hits']} misses={cache_stats['misses']} "
              f"entries={cache_stats['entries']}")
    finally:
        jsonl.shutdown()
        jsonl.server_close()
        http.shutdown()
        http.server_close()

    # ------------------------------------------------------------------ #
    # 5. Delta-driven invalidation: mutate the database behind a cached
    #    answer and the server must re-answer, never serve the stale verdict.
    # ------------------------------------------------------------------ #
    schema = parse_query(Q3).schema
    database = Database([Fact(schema, ("a", "b"))])
    ref = DatasetRef.in_memory(database)
    request = Request(op="certain", query=Q3, datasets=(ref,))
    [cold] = server.handle_request(request)
    [warm] = server.handle_request(request)
    database.add(Fact(schema, ("b", "c")))  # the FactDelta evicts the entry
    [fresh] = server.handle_request(request)
    print("\ndelta invalidation:")
    print(f"  before mutation : verdict={cold.verdict} "
          f"({cold.details.get('cache')} → {warm.details.get('cache')})")
    print(f"  after mutation  : verdict={fresh.verdict} "
          f"({fresh.details.get('cache')} — recomputed, not stale)")

    print(f"\n{server.describe()}")

    # ------------------------------------------------------------------ #
    # 6. Parallel batch answering: two pool workers, one chunk of fact
    #    lists per task, verdicts identical to the sequential engine.
    # ------------------------------------------------------------------ #
    query = parse_query(Q3)
    rng = random.Random(2024)
    databases = [
        random_solution_database(query, 20, 10, domain_size=30, rng=rng)
        for _ in range(8)
    ]
    engine = CertainEngine(query)
    sequential = engine.is_certain_many(databases)
    sharded = engine.is_certain_many(databases, workers=2)
    assert sharded == sequential
    stats = engine.last_parallel_stats
    print(f"\n{len(databases)} databases in {stats['chunks']} chunks over "
          f"{stats['workers']} workers agree with sequential: "
          f"{sum(sharded)}/{len(sharded)} certain")


if __name__ == "__main__":
    main()
