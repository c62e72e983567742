"""The socket transports' wire contract: latency, protocol errors, fuzz.

The JSONL and HTTP servers (``repro.server.jsonl``,
``repro.server.http_transport``) are the only socket transports, and the
fleet dispatcher talks to its workers over the JSONL one.  These tests pin:

* **keep-alive latency** — a keep-alive exchange writes its reply in two
  pieces (the answers, then the framing ``ping`` or ``stats`` echo; or the
  HTTP headers, then the body).  With Nagle's algorithm on, the second
  piece waits for the client's delayed ACK (~40 ms on Linux), so twenty
  exchanges take ~0.87 s; with ``TCP_NODELAY`` they take a few ms;
* **the listen backlog** — 64 clients dialing a busy server at once are
  all queued, none dropped (socketserver's default backlog of 5 drops the
  rest, which retry after 1 s);
* **JSON protocol errors** — every request http.server cannot parse, and
  every method but GET and POST, is answered with a status line and a JSON
  ``ok: false`` body; routes ignore a ``?query`` suffix;
* **deep nesting** — a line of 100,000 ``[`` recurses out of ``json``;
  every transport answers it with an ``ok: false`` envelope (a JSON 400 on
  HTTP) and then answers the next request on the same connection;
* **wire fuzz** — generated malformed JSONL lines and HTTP frames each get
  an ``ok: false`` envelope or a JSON 4xx, and the server keeps serving.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import socket
import string
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import (
    CQAServer,
    JsonlClient,
    start_http_server,
    start_jsonl_server,
)
from repro.server.fleet import FleetDispatcher, FleetWorker
from repro.service.runner import normalize_workload_line

SRC = Path(__file__).resolve().parents[1] / "src"

VALID = {"op": "certain", "query": "q3", "rows": [["a", "b"], ["b", "c"]]}
VALID_LINE = json.dumps(VALID)
DEEP_LINE = "[" * 100_000 + "]" * 100_000

#: Twenty stalled exchanges take at least 20 x 40 ms; twenty prompt ones a
#: few ms.  The bound sits at half the stall's floor.
EXCHANGES = 20
KEEPALIVE_BOUND_S = 0.4


def _close(server) -> None:
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def jsonl():
    server = start_jsonl_server(CQAServer())
    yield server
    _close(server)


@pytest.fixture(scope="module")
def web():
    server = start_http_server(CQAServer())
    yield server
    _close(server)


@pytest.fixture()
def fleet():
    """A dispatcher over two in-process workers (real sockets, no fork)."""
    workers = []
    for index in range(2):
        server = start_jsonl_server(CQAServer())
        workers.append(
            FleetWorker(
                index, "127.0.0.1", server.port, on_close=lambda s=server: _close(s)
            )
        )
    dispatcher = FleetDispatcher(workers)
    yield dispatcher
    dispatcher.close()


def _post(conn: http.client.HTTPConnection, body: bytes, path: str = "/answer"):
    conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.getheader("Content-Type"), json.loads(response.read())


# --------------------------------------------------------------------------- #
# keep-alive latency
# --------------------------------------------------------------------------- #
class TestKeepAliveLatency:
    def test_jsonl_keepalive_exchanges_do_not_wait_for_a_delayed_ack(self, jsonl):
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            client.call([VALID_LINE])  # dial and compute once
            started = time.perf_counter()
            for _ in range(EXCHANGES):
                [envelope] = client.call([VALID_LINE])
                assert envelope["ok"] is True
            elapsed = time.perf_counter() - started
        assert client.connects == 1
        assert elapsed < KEEPALIVE_BOUND_S, f"{EXCHANGES} exchanges took {elapsed:.3f} s"

    def test_http_keepalive_exchanges_do_not_wait_for_a_delayed_ack(self, web):
        conn = http.client.HTTPConnection("127.0.0.1", web.port, timeout=10)
        try:
            _post(conn, VALID_LINE.encode())
            started = time.perf_counter()
            for _ in range(EXCHANGES):
                status, _, payload = _post(conn, VALID_LINE.encode())
                assert status == 200 and payload["answers"][0]["ok"] is True
            elapsed = time.perf_counter() - started
        finally:
            conn.close()
        assert elapsed < KEEPALIVE_BOUND_S, f"{EXCHANGES} exchanges took {elapsed:.3f} s"

    def test_fleet_hops_do_not_wait_for_a_delayed_ack(self, fleet):
        fleet.handle_payload(VALID)
        started = time.perf_counter()
        for _ in range(EXCHANGES):
            [answer] = fleet.handle_payload(VALID)
            assert answer.ok
        elapsed = time.perf_counter() - started
        assert elapsed < KEEPALIVE_BOUND_S, f"{EXCHANGES} hops took {elapsed:.3f} s"


# --------------------------------------------------------------------------- #
# the listen backlog
# --------------------------------------------------------------------------- #
class TestBacklog:
    @pytest.mark.parametrize("start", [start_jsonl_server, start_http_server])
    def test_listen_backlog_is_100(self, start):
        server = start(CQAServer(), in_thread=False)
        try:
            assert server.request_queue_size == 100
        finally:
            server.server_close()

    def test_sixty_four_simultaneous_dials_are_all_queued(self):
        # The accept loop is not running yet: every dial must wait in the
        # listen backlog.  A dropped SYN is retried only after 1 s, so the
        # short connect timeout fails the test on a backlog below 64.
        server = start_jsonl_server(CQAServer(), in_thread=False)
        connections = []
        try:
            for _ in range(64):
                connections.append(
                    socket.create_connection(("127.0.0.1", server.port), timeout=0.5)
                )
        finally:
            # Serve even after a failed dial: shutdown() waits for the loop.
            threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            for index, conn in enumerate(connections):
                conn.settimeout(10)
                conn.sendall(b'{"op": "ping", "id": "%d"}\n' % index)
            for index, conn in enumerate(connections):
                envelope = json.loads(conn.makefile("rb").readline())
                assert envelope["op"] == "ping" and envelope["request_id"] == str(index)
        finally:
            for conn in connections:
                conn.close()
            _close(server)


# --------------------------------------------------------------------------- #
# HTTP protocol errors and routing
# --------------------------------------------------------------------------- #
def _raw_exchange(port: int, frame: bytes, timeout: float = 10.0) -> bytes:
    """Send ``frame``, half-close, and read the whole reply stream.

    A server that answers and closes without reading the whole frame (an
    error it answers before the body) resets the connection once it closes;
    the reply read before the reset is the whole reply.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        try:
            conn.sendall(frame)
            conn.shutdown(socket.SHUT_WR)
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except (BrokenPipeError, ConnectionResetError):
            pass
    return b"".join(chunks)


_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) ")


def _responses(stream: bytes):
    """``(status, headers, body)`` for every response in a reply stream."""
    responses = []
    while stream:
        head, separator, stream = stream.partition(b"\r\n\r\n")
        assert separator, f"unterminated response head {head[:200]!r}"
        status_line, *header_lines = head.split(b"\r\n")
        match = _STATUS.match(status_line)
        assert match, f"no status line: {status_line[:200]!r}"
        headers = {}
        for line in header_lines:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        body, stream = stream[:length], stream[length:]
        assert len(body) == length
        responses.append((int(match.group(1)), headers, body))
    return responses


def _json_error(stream: bytes):
    [(status, headers, body)] = _responses(stream)
    assert headers["content-type"] == "application/json"
    assert headers.get("connection") == "close"
    payload = json.loads(body)
    assert payload["ok"] is False and payload["error"]
    return status, payload


class TestHttpProtocolErrors:
    def test_unparsable_request_line_is_json_400_with_a_status_line(self, web):
        status, payload = _json_error(_raw_exchange(web.port, b"GARBAGE\r\n\r\n"))
        assert status == 400
        assert "GARBAGE" in payload["error"]

    def test_unknown_method_is_json_405(self, web):
        frame = b"PUT /answer HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
        status, payload = _json_error(_raw_exchange(web.port, frame))
        assert status == 405
        assert "PUT" in payload["error"]

    def test_oversized_request_line_and_header_are_json(self, web):
        status, _ = _json_error(_raw_exchange(web.port, b"G" * 70_000 + b"\r\n\r\n"))
        assert status == 414
        frame = b"GET / HTTP/1.1\r\nX-Big: " + b"y" * 70_000 + b"\r\n\r\n"
        status, _ = _json_error(_raw_exchange(web.port, frame))
        assert status == 431

    def test_routes_ignore_a_query_string(self, web):
        conn = http.client.HTTPConnection("127.0.0.1", web.port, timeout=10)
        try:
            conn.request("GET", "/stats?x=1")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["op"] == "stats"
            conn.request("GET", "/healthz?probe=1")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
            status, _, payload = _post(conn, VALID_LINE.encode(), "/answer?trace=1")
            assert status == 200 and payload["answers"][0]["verdict"] is True
        finally:
            conn.close()


# --------------------------------------------------------------------------- #
# deep nesting on every transport
# --------------------------------------------------------------------------- #
class TestDeepNesting:
    def test_stdio_answers_the_error_then_the_next_line(self):
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio"],
            input=DEEP_LINE + "\n" + VALID_LINE + "\n",
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        first, second = (json.loads(line) for line in completed.stdout.splitlines())
        assert first["ok"] is False and "recursion" in first["error"]
        assert second["ok"] is True and second["verdict"] is True

    def test_jsonl_socket_answers_the_error_then_the_next_line(self, jsonl):
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            first, second = client.call([DEEP_LINE, VALID_LINE])
        assert client.connects == 1
        assert first["ok"] is False and "recursion" in first["error"]
        assert second["ok"] is True and second["verdict"] is True

    def test_http_answers_json_400_then_the_next_request(self, web):
        conn = http.client.HTTPConnection("127.0.0.1", web.port, timeout=30)
        try:
            status, content_type, payload = _post(conn, DEEP_LINE.encode())
            assert status == 400 and content_type == "application/json"
            assert payload["ok"] is False and "recursion" in payload["error"]
            status, _, payload = _post(conn, VALID_LINE.encode())
            assert status == 200 and payload["answers"][0]["verdict"] is True
        finally:
            conn.close()

    def test_fleet_answers_the_error_then_the_next_line(self, fleet):
        front = start_jsonl_server(fleet)
        try:
            with JsonlClient("127.0.0.1", front.port) as client:
                first, second = client.call([DEEP_LINE, VALID_LINE])
        finally:
            _close(front)
        assert first["ok"] is False and "recursion" in first["error"]
        assert second["ok"] is True and second["verdict"] is True
        # A decoded payload too deep to re-encode for the worker hop.
        deep = []
        for _ in range(100_000):
            deep = [deep]
        [answer] = fleet.handle_payload({"op": "certain", "query": "q3", "rows": deep})
        assert answer.ok is False and "recursion" in answer.error
        [answer] = fleet.handle_payload(VALID)
        assert answer.ok is True


# --------------------------------------------------------------------------- #
# wire fuzz
# --------------------------------------------------------------------------- #
_PRINTABLE = string.ascii_letters + string.digits + string.punctuation
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)
_letters = st.text(alphabet=string.ascii_letters, min_size=1, max_size=8)


def _with(field, values):
    return values.map(lambda value: json.dumps({**VALID, field: value}))


#: Requests with one field of a type the request parse rejects.
_wrong_typed = st.one_of(
    _with("query", st.one_of(st.none(), st.booleans(), st.integers(), st.just(""),
                             st.lists(st.integers(), max_size=3))),
    _with("rows", st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                            st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=3))),
    _with("witness", st.one_of(st.integers(), _letters)),
    _with("samples", st.one_of(_letters, st.lists(st.integers(), max_size=2))),
    _with("workers", st.one_of(_letters, st.dictionaries(_letters, st.integers(), max_size=2))),
    _with("seed", st.lists(st.integers(), max_size=2)),
    _with("op", st.one_of(st.integers(), _letters.map(lambda text: "no-such-op-" + text))),
)
#: JSON text that is not an object (a non-empty list is not a batch here).
_not_an_object = st.one_of(_scalars, st.lists(_scalars, min_size=1, max_size=4)).map(
    json.dumps
)
#: A valid request cut short.
_truncated = st.integers(min_value=1, max_value=len(VALID_LINE) - 1).map(
    lambda cut: VALID_LINE[:cut]
)
_text_frames = st.one_of(
    st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=120),
    _truncated,
    _not_an_object,
    _wrong_typed,
)
_jsonl_frames = st.one_of(
    _text_frames.map(lambda text: text.encode("utf-8")),
    st.binary(max_size=120).map(lambda data: data.replace(b"\n", b"")),
)


def _request_line_is_bad(line: str) -> bool:
    """One word, or three and more whose last is no HTTP version: a 400.

    (A well-formed version makes http.server judge the line by its version
    first, and ``HTTP/2.0`` is a 505.)
    """
    words = line.split()
    return len(words) == 1 or (
        len(words) >= 3 and not re.fullmatch(r"HTTP/\d+\.\d+", words[-1])
    )


_bad_request_lines = st.text(alphabet=_PRINTABLE + " ", min_size=1, max_size=60).filter(
    _request_line_is_bad
)
_bad_methods = _letters.map(str.upper).filter(lambda method: method not in ("GET", "POST"))
_bodies = st.one_of(
    st.binary(max_size=120).filter(lambda data: not _decodes_to_a_request(data)),
    _truncated.map(str.encode),
    _not_an_object.map(str.encode),
    _wrong_typed.map(str.encode),
)
_header_lines = st.lists(
    st.tuples(_letters, st.text(alphabet=_PRINTABLE + " ", max_size=30)).map(
        lambda pair: f"{pair[0]}: {pair[1]}"
    )
    | st.text(alphabet=_PRINTABLE, min_size=1, max_size=30),  # no colon at all
    max_size=5,
)


def _decodes_to_a_request(data: bytes) -> bool:
    """Random bytes that happen to be a JSON object or list (a batch)."""
    try:
        return isinstance(json.loads(data.decode("utf-8")), (dict, list))
    except (ValueError, RecursionError):
        return False


def _frame(request_line: str, headers, body: bytes = b"") -> bytes:
    head = "\r\n".join([request_line, *headers]) + "\r\n\r\n"
    return head.encode("latin-1") + body


@st.composite
def _http_frames(draw):
    kind = draw(st.sampled_from(["line", "method", "headers", "length", "body"]))
    body = draw(_bodies)
    if kind == "line":
        return _frame(draw(_bad_request_lines), ["Host: x"])
    if kind == "method":
        length = [f"Content-Length: {len(body)}"]
        return _frame(f"{draw(_bad_methods)} /answer HTTP/1.1", length, body)
    if kind == "headers":
        # Random header lines and no valid Content-Length: 411, 400 or 431.
        headers = [line for line in draw(_header_lines)
                   if not line.lower().startswith(("content-length", "expect"))]
        return _frame("POST /answer HTTP/1.1", headers, body)
    if kind == "length":
        announced = draw(st.integers(min_value=0, max_value=len(body) + 40)
                         .filter(lambda value: value != len(body)))
        return _frame("POST /answer HTTP/1.1", [f"Content-Length: {announced}"], body)
    return _frame("POST /answer HTTP/1.1", [f"Content-Length: {len(body)}"], body)


_FUZZ = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestWireFuzz:
    @_FUZZ
    @given(frame=_jsonl_frames)
    def test_every_malformed_jsonl_line_gets_an_error_envelope(self, jsonl, frame):
        with socket.create_connection(("127.0.0.1", jsonl.port), timeout=10) as conn:
            conn.sendall(frame + b'\n{"op": "ping", "id": "fuzz-frame"}\n')
            reader = conn.makefile("rb")
            envelopes = []
            while True:
                line = reader.readline()
                assert line, "the connection closed before the framing ping echoed"
                envelope = json.loads(line)
                if envelope.get("request_id") == "fuzz-frame":
                    break
                envelopes.append(envelope)
        if normalize_workload_line(frame.decode("utf-8", errors="replace")) is None:
            assert envelopes == []  # a blank line or a comment
        else:
            [envelope] = envelopes
            assert envelope["ok"] is False and envelope["error"]

    @_FUZZ
    @given(frame=_http_frames())
    def test_every_malformed_http_frame_gets_a_json_error(self, web, frame):
        responses = _responses(_raw_exchange(web.port, frame))
        assert responses, f"no response to {frame[:200]!r}"
        for status, headers, body in responses:
            assert headers["content-type"] == "application/json"
            payload = json.loads(body)
            if status == 200:
                assert payload["answers"]
                assert all(answer["ok"] is False for answer in payload["answers"])
            else:
                assert 400 <= status < 500, (status, payload)
                assert payload["ok"] is False

    def test_servers_still_answer_on_a_fresh_connection(self, jsonl, web):
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            [envelope] = client.call([VALID_LINE])
        assert envelope["ok"] is True
        conn = http.client.HTTPConnection("127.0.0.1", web.port, timeout=10)
        try:
            status, _, payload = _post(conn, VALID_LINE.encode())
        finally:
            conn.close()
        assert status == 200 and payload["answers"][0]["ok"] is True
