"""The JSONL transports: a stdio loop and a threaded TCP socket server.

Both speak exactly the ``repro run`` workload dialect — one JSON request per
line in, one JSON answer envelope per line out (a batch request emits one
line per dataset).  Blank lines and ``#`` comments are ignored; a bad line
becomes an ``ok: false`` envelope, never a dropped connection.  Output is
flushed after every request so a pipelined client can read each answer as
soon as it exists.

* :func:`serve_stream` — the core loop over text streams; :func:`serve_stdio`
  binds it to the process's stdin/stdout (the CLI's ``repro serve --stdio``).
* :class:`JsonlServer` / :func:`start_jsonl_server` — a
  ``socketserver.ThreadingTCPServer`` running the same loop per connection,
  one thread each.  Connections are independent, but all of them answer
  through the one :class:`~repro.server.app.CQAServer` (one session pool,
  one cache).

A keep-alive exchange writes twice: the answers, then the echo of the
framing ``ping`` (:class:`~repro.server.client.JsonlClient`) or ``stats``
sentinel (the fleet dispatcher).  With Nagle's algorithm on, the second
small write waits for the client's delayed ACK, about 40 ms on Linux, so
every socket sets ``TCP_NODELAY``.  The listen backlog is 100 instead of
socketserver's 5, which drops connection requests once a few dozen clients
dial at once (each dropped one retries after 1 s).
"""

from __future__ import annotations

import json
import socketserver
import sys
import threading
from typing import IO, Optional, Tuple

from ..service.runner import error_answer
from .app import CQAServer

#: Longest accepted request line, mirroring the HTTP transport's body cap:
#: the resident server must not buffer an unbounded line into memory before
#: it can even decide the request is bad.
MAX_LINE_BYTES = 64 * 1024 * 1024


def _oversized_answer(line_number: int):
    return error_answer(
        "?",
        "?",
        ValueError(
            f"line {line_number}: request line exceeds {MAX_LINE_BYTES} bytes"
        ),
    )


def serve_stream(server: CQAServer, input_stream: IO[str], output_stream: IO[str]) -> int:
    """Answer every line of ``input_stream``; returns the envelope count."""
    emitted = 0
    line_number = 0
    while True:
        line = input_stream.readline(MAX_LINE_BYTES + 1)
        if not line:
            break
        line_number += 1
        if len(line) > MAX_LINE_BYTES:
            # Skip the remainder of the oversized line, then report it.
            while True:
                rest = input_stream.readline(MAX_LINE_BYTES)
                if not rest or rest.endswith("\n"):
                    break
            answers = [_oversized_answer(line_number)]
        else:
            answers = server.handle_line(line, line_number)
        for answer in answers:
            output_stream.write(json.dumps(answer.to_json_dict()) + "\n")
            emitted += 1
        if answers:
            output_stream.flush()
    output_stream.flush()
    return emitted


def serve_stdio(
    server: CQAServer,
    input_stream: Optional[IO[str]] = None,
    output_stream: Optional[IO[str]] = None,
) -> int:
    """The stdio loop: serve until EOF on stdin; returns the envelope count."""
    return serve_stream(
        server,
        input_stream if input_stream is not None else sys.stdin,
        output_stream if output_stream is not None else sys.stdout,
    )


class _JsonlConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: the stream loop over the socket's file views."""

    disable_nagle_algorithm = True  # see the module docs

    def handle(self) -> None:  # pragma: no cover - exercised over real sockets
        app: CQAServer = self.server.app
        line_number = 0
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                break
            line_number += 1
            if len(raw) > MAX_LINE_BYTES:
                # Answer the oversize error, then drop the connection — the
                # remaining bytes of the runaway line cannot be resynced
                # into a line stream worth trusting.
                answer = _oversized_answer(line_number)
                self.wfile.write(
                    (json.dumps(answer.to_json_dict()) + "\n").encode("utf-8")
                )
                self.wfile.flush()
                return
            text = raw.decode("utf-8", errors="replace")
            for answer in app.handle_line(text, line_number):
                payload = json.dumps(answer.to_json_dict()) + "\n"
                self.wfile.write(payload.encode("utf-8"))
            self.wfile.flush()


#: How often the accept loop looks for a ``shutdown()`` request, in seconds.
#: socketserver's default of 0.5 s would make every shutdown wait up to that long.
POLL_INTERVAL_S = 0.05


class AppServer:
    """What both socket servers share, mixed into a ``socketserver`` class.

    One daemon thread per connection, all answering through ``app``; the
    listen backlog of 100 (see the module docs); an accept loop that
    notices ``shutdown()`` within :data:`POLL_INTERVAL_S`; and no traceback
    for a client that disconnected or timed out, which is its doing, not a
    fault.
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 100
    #: The request handler class of the concrete server.
    handler_class: type

    def __init__(self, app: CQAServer, address: Tuple[str, int] = ("127.0.0.1", 0)) -> None:
        self.app = app
        super().__init__(address, self.handler_class)

    def serve_forever(self, poll_interval: float = POLL_INTERVAL_S) -> None:
        super().serve_forever(poll_interval)

    def handle_error(self, request, client_address) -> None:
        if isinstance(sys.exc_info()[1], (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self.server_address[1]


def bind_server(server_class, app, host: str, port: int, in_thread: bool, name: str):
    """Bind ``server_class`` and (by default) serve it on a daemon thread."""
    server = server_class(app, (host, port))
    if in_thread:
        threading.Thread(target=server.serve_forever, name=name, daemon=True).start()
    return server


class JsonlServer(AppServer, socketserver.ThreadingTCPServer):
    """Threaded TCP server speaking the JSONL dialect (see module docs)."""

    handler_class = _JsonlConnectionHandler


def start_jsonl_server(
    app: CQAServer, host: str = "127.0.0.1", port: int = 0, in_thread: bool = True
) -> JsonlServer:
    """Bind a :class:`JsonlServer` and (by default) serve it on a daemon thread.

    With ``in_thread=False`` the caller owns the accept loop and must call
    ``serve_forever()`` itself (the CLI's foreground mode).  Either way the
    returned server exposes the bound ``port`` and ``shutdown()``.
    """
    return bind_server(JsonlServer, app, host, port, in_thread, "repro-jsonl-server")
