"""Long-lived server front end over the service layer.

PR 3's :class:`~repro.service.session.Session` gave every caller one typed
front door — but a caller still paid process startup, query classification
and dataset resolution per *invocation*.  This package makes the session
resident and its answers reusable:

* :class:`~repro.server.app.CQAServer` — one session pool + lock behind every
  transport, the ``repro run`` line dialect, per-request fault isolation, and
  a ``stats`` operation;
* :class:`~repro.server.cache.AnswerCache` /
  :class:`~repro.server.app.CachingSession` — fingerprint-keyed answer
  caching with delta-driven invalidation (the certain answer is a pure
  function of (query, database), so a cached envelope is sound whenever the
  dataset fingerprint and version match);
* :mod:`~repro.server.jsonl` — the stdio JSONL loop and the JSONL socket
  server (``socketserver``);
* :mod:`~repro.server.http_transport` — a stdlib ``http.server`` endpoint
  (``POST /answer``, ``GET /stats``, ``GET /healthz``);
* :mod:`~repro.server.client` — scripted-call helpers (``repro client``);
* :mod:`~repro.server.persistent_cache` — the SQLite-backed second cache
  tier shared across processes and restarts (content-addressed keys only);
* :mod:`~repro.server.fleet` — the worker fleet behind the front door:
  :class:`~repro.server.fleet.FleetDispatcher` owns the same transports and
  fans requests out to worker processes with dataset-affinity routing.

The two socket servers are the only socket transports.  Each runs one
thread per connection, with Nagle's algorithm off (a keep-alive reply is
two writes, and the second would wait for the client's delayed ACK) and a
listen backlog of 100; every protocol error comes back as a JSON ``ok:
false`` answer, never a bare drop.

Every export loads its submodule on first use (PEP 562), so an in-process
:class:`~repro.server.app.CQAServer` never imports the transports, the
client or the fleet, nor ``http.server``, ``socketserver``, ``ssl`` and
``urllib.request`` behind them.

Quickstart::

    from repro.server import CQAServer, start_http_server
    from repro.server.client import call_http

    app = CQAServer()
    http = start_http_server(app, port=0)
    [envelope] = call_http(
        f"http://127.0.0.1:{http.port}",
        {"op": "certain", "query": "R(x|y) R(y|z)", "rows": [["a", "b"]]},
    )
    http.shutdown()
"""

from importlib import import_module

#: Each export's submodule, imported by :func:`__getattr__` on first use.
_EXPORTS = {
    "PING_OP": "app",
    "STATS_OP": "app",
    "AnswerCacheStrategy": "app",
    "CachingSession": "app",
    "CQAServer": "app",
    "AnswerCache": "cache",
    "CacheKey": "cache",
    "persistable_key": "cache",
    "settings_digest": "cache",
    "JsonlClient": "client",
    "call_http": "client",
    "call_jsonl": "client",
    "fetch_stats": "client",
    "workload_lines": "client",
    "FleetDispatcher": "fleet",
    "FleetWorker": "fleet",
    "spawn_fleet": "fleet",
    "spawn_worker": "fleet",
    "HttpServer": "http_transport",
    "start_http_server": "http_transport",
    "JsonlServer": "jsonl",
    "serve_stdio": "jsonl",
    "serve_stream": "jsonl",
    "start_jsonl_server": "jsonl",
    "PersistentAnswerCache": "persistent_cache",
    "ReadWriteLock": "pool",
    "SessionPool": "pool",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)
