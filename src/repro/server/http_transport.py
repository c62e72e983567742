"""The HTTP transport: a stdlib ``http.server`` endpoint over the server core.

No framework, no dependencies — a ``ThreadingHTTPServer`` (one thread per
connection, keep-alive by default) whose handler translates three routes
onto :class:`~repro.server.app.CQAServer`; a ``?query`` suffix is ignored:

``POST /answer``
    Body: one JSON request object (the ``repro run`` line dialect) or an
    array of them.  Response: ``{"schema_version": 1, "answers": [...]}``
    with one envelope per answer, in request order.  Bad payloads come back
    as ``ok: false`` envelopes (HTTP 200 — the request was served; the
    *operation* failed), malformed JSON bodies as HTTP 400.
``GET /stats``
    The ``stats`` operation's envelope: hit rates, per-query timings,
    session pool counters, uptime.
``GET /healthz``
    ``{"ok": true, "uptime_s": ...}`` — a liveness probe that never touches
    the session.

Every error is a JSON ``ok: false`` body under a status line: an unknown
path (404), a method other than GET and POST (405), and a request that
does not parse (http.server's own 400, 414, 431 or 505, which it would
otherwise send as HTML, with no status line at all for a request line it
reads as HTTP/0.9).  An error that leaves part of the request unread also
closes the connection.  As on the JSONL socket, Nagle's algorithm is off
(the headers and the body are two writes, and the second would wait for
the client's delayed ACK) and the listen backlog is 100.

Threads share the one resident :class:`~repro.server.app.CQAServer` (its
internal lock serialises session access), so the HTTP endpoint and a JSONL
socket can serve one mixed workload off the same pool and cache.
"""

from __future__ import annotations

import json
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List

from ..service.envelope import ENVELOPE_SCHEMA_VERSION
from .app import CQAServer
from .jsonl import AppServer, bind_server

#: Maximum accepted request-body size (a guard against unbounded reads).
MAX_BODY_BYTES = 64 * 1024 * 1024


class HttpAnswerHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the resident server (see module docs)."""

    server_version = "repro-cqa"
    protocol_version = "HTTP/1.1"
    #: http.server's default, HTTP/0.9, answers a request line that does
    #: not parse (and a two-word one) without a status line or headers.
    default_request_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # see the module docs
    #: Socket timeout: a client announcing a body it never sends must not
    #: pin a handler thread and socket forever on the resident server.
    timeout = 30

    @property
    def app(self) -> CQAServer:
        return self.server.app

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr access log (servers run under tests)."""

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def _route(self) -> str:
        return self.path.split("?", 1)[0].rstrip("/") or "/"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self._route()
        if path == "/stats":
            self.app._bump("stats_requests")
            self._send_json(200, self.app.stats_answer().to_json_dict())
        elif path in ("/", "/healthz"):
            self._send_json(
                200,
                {"ok": True, "uptime_s": time.monotonic() - self.app._started},
            )
        else:
            self._send_json(404, {"ok": False, "error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        if self._route() != "/answer":
            # The body is never read on this branch, so keep-alive must end
            # here too (see the invariant below).
            self._send_json(
                404, {"ok": False, "error": f"unknown path {self.path!r}"}, close=True
            )
            return
        # Any request whose body we will not fully read must close the
        # connection, or the unread bytes would be parsed as the next
        # request line of the kept-alive stream.
        if self.headers.get("Transfer-Encoding"):
            self._send_json(
                411,
                {"ok": False, "error": "chunked bodies not supported; send Content-Length"},
                close=True,
            )
            return
        raw_length = self.headers.get("Content-Length")
        if raw_length is None:
            self._send_json(411, {"ok": False, "error": "Content-Length required"}, close=True)
            return
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"ok": False, "error": "bad Content-Length"}, close=True)
            return
        try:
            body = self.rfile.read(length)
        except OSError:  # the socket timed out or broke mid-body
            self.close_connection = True
            return
        if len(body) < length:
            # The client half-closed before sending the announced body.
            self._send_json(400, {"ok": False, "error": "truncated request body"}, close=True)
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as error:  # deep nesting recurses
            self._send_json(400, {"ok": False, "error": f"malformed JSON body: {error}"})
            return
        items: List[object] = payload if isinstance(payload, list) else [payload]
        answers = []
        for index, item in enumerate(items, start=1):
            answers.extend(self.app.handle_payload(item, line_number=index))
        self._send_json(
            200,
            {
                "schema_version": ENVELOPE_SCHEMA_VERSION,
                "answers": [answer.to_json_dict() for answer in answers],
            },
        )

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def send_error(self, code: int, message=None, explain=None) -> None:
        """http.server's protocol errors, as JSON under a status line."""
        if code == HTTPStatus.NOT_IMPLEMENTED:  # no do_<method>: GET and POST only
            code = HTTPStatus.METHOD_NOT_ALLOWED
            message = f"method {self.command} not allowed"
        error = message or HTTPStatus(code).phrase
        self._send_json(code, {"ok": False, "error": error}, close=True)

    def _send_json(self, status: int, payload: dict, close: bool = False) -> None:
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(data)


class HttpServer(AppServer, ThreadingHTTPServer):
    """Threading HTTP server carrying the resident :class:`CQAServer`."""

    handler_class = HttpAnswerHandler


def start_http_server(
    app: CQAServer, host: str = "127.0.0.1", port: int = 0, in_thread: bool = True
) -> HttpServer:
    """Bind an :class:`HttpServer` and (by default) serve it on a daemon thread.

    Mirrors :func:`repro.server.jsonl.start_jsonl_server`: with
    ``in_thread=False`` the caller owns ``serve_forever()``.
    """
    return bind_server(HttpServer, app, host, port, in_thread, "repro-http-server")
