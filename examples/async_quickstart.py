#!/usr/bin/env python3
"""Async serving quickstart: one event loop, keep-alive clients, a parallel batch.

PR 9 adds asyncio siblings of the threaded transports.  The wire dialects
are identical — one JSON request per line (JSONL) or ``POST /answer``
(HTTP) — but every connection is multiplexed on a single event loop, so a
slow or half-open client costs a queue slot instead of a thread.  On top of
that the :class:`repro.server.client.JsonlClient` keeps one socket open
across calls (a framing ``ping`` marks the end of each batch).  The last
section answers a batch of databases over two pool workers, which receive
each database as its fact list, and checks the verdicts against the
sequential engine.

Run with::

    python examples/async_quickstart.py
"""

import json

from repro import CQAServer, CertainEngine, parse_query
from repro.db.generators import random_solution_database
from repro.server import JsonlClient, call_http
from repro.server.aio import start_async_http_server, start_async_jsonl_server

import random

Q3 = "R(x|y) R(y|z)"


def main() -> None:
    app = CQAServer()

    # ------------------------------------------------------------------ #
    # 1. Both async transports share one resident app (and its cache).
    # ------------------------------------------------------------------ #
    jsonl = start_async_jsonl_server(app)
    web = start_async_http_server(app)
    print(f"async JSONL on :{jsonl.port}, async HTTP on :{web.port}")

    # ------------------------------------------------------------------ #
    # 2. A keep-alive client: three calls, one dial.  Pipelined lines in
    #    one call come back in order, each tagged with its request_id.
    # ------------------------------------------------------------------ #
    with JsonlClient("127.0.0.1", jsonl.port) as client:
        lines = [
            json.dumps({"op": "certain", "query": Q3,
                        "rows": [["a", "b"], ["b", "c"]], "id": str(i)})
            for i in range(3)
        ]
        envelopes = client.call(lines)
        print(f"pipelined {len(envelopes)} answers over {client.connects} dial(s):")
        for envelope in envelopes:
            print(f"  id={envelope['request_id']} verdict={envelope['verdict']} "
                  f"cache={envelope['details'].get('cache')}")
        # A second call reuses the same socket.
        [again] = client.call([lines[0]])
        assert client.connects == 1
        assert again["details"]["cache"] == "hit"

    # ------------------------------------------------------------------ #
    # 3. The HTTP endpoint answers through the same cache.
    # ------------------------------------------------------------------ #
    answer = call_http(
        f"http://127.0.0.1:{web.port}",
        {"op": "certain", "query": Q3, "rows": [["a", "b"], ["b", "c"]]},
    )[0]
    print(f"HTTP answer: verdict={answer['verdict']} "
          f"cache={answer['details'].get('cache')}")

    web.shutdown()
    jsonl.shutdown()

    # ------------------------------------------------------------------ #
    # 4. Parallel batch answering: two pool workers, one chunk of fact
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
    print(f"{len(databases)} databases in {stats['chunks']} chunks over "
          f"{stats['workers']} workers agree with sequential: "
          f"{sum(sharded)}/{len(sharded)} certain")


if __name__ == "__main__":
    main()
