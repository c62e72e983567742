"""Torture tests for the socket transports: the JSONL and HTTP servers.

Both run one thread per connection over the one resident server.  These
tests attack the places where a socket transport can rot:

* a **slowloris** client dribbling a partial line must not stall other
  connections (it holds only its own thread);
* a client **disconnecting mid-request** must neither poison the shared
  session pool nor leak the in-flight answer;
* concurrent keep-alive readers racing ``pool.exclusive()`` mutations must
  drain cleanly (reader/writer fairness holds over the wire);
* the wire contract: ping framing, oversized lines, HTTP status/keep-alive
  semantics.

``tests/test_socket_transports.py`` pins the rest of the wire contract:
keep-alive latency, JSON protocol errors, deep nesting and a wire fuzz.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.server import CQAServer, JsonlClient, start_http_server, start_jsonl_server

Q = "R(x|y) R(y|z)"


def _line(op="certain", rows=(("a", "b"), ("b", "c")), **extra):
    payload = {"op": op, "query": Q, "rows": [list(row) for row in rows]}
    payload.update(extra)
    return json.dumps(payload)


@pytest.fixture()
def app():
    return CQAServer()


@pytest.fixture()
def jsonl(app):
    server = start_jsonl_server(app)
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture()
def http_server(app):
    server = start_http_server(app)
    yield server
    server.shutdown()
    server.server_close()


# --------------------------------------------------------------------------- #
# JSONL dialect parity
# --------------------------------------------------------------------------- #
class TestJsonlDialect:
    def test_pipelined_requests_answer_in_order(self, jsonl):
        with socket.create_connection(("127.0.0.1", jsonl.port)) as conn:
            conn.sendall(
                "\n".join(
                    [_line(id=str(i)) for i in range(5)] + [""]
                ).encode("utf-8")
            )
            conn.shutdown(socket.SHUT_WR)
            reader = conn.makefile("r")
            envelopes = [json.loads(line) for line in reader if line.strip()]
        assert [env["request_id"] for env in envelopes] == [
            str(i) for i in range(5)
        ]
        assert all(env["ok"] for env in envelopes)

    def test_ping_echoes_request_id(self, jsonl):
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            first = client.call([_line()])
            second = client.call([_line(), _line(op="explain")])
        assert len(first) == 1 and len(second) == 2
        assert client.connects == 1  # keep-alive: one dial for both calls

    def test_malformed_line_answers_error_envelope(self, jsonl):
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            [envelope] = client.call(["{not json"])
        assert envelope["ok"] is False

    def test_oversized_line_answers_then_drops(self, jsonl, monkeypatch):
        # The server's limit is 64MB; sending that much through loopback is
        # slow, so attack with a real >limit line only in spirit: verify the
        # stream-limit path by sending a line just over the cap.
        from repro.server import jsonl as transport

        big = b"x" * (transport.MAX_LINE_BYTES + 16)
        with socket.create_connection(("127.0.0.1", jsonl.port)) as conn:
            conn.sendall(big + b"\n")
            reader = conn.makefile("rb")
            answer = json.loads(reader.readline())
            assert answer["ok"] is False
            assert "exceeds" in str(answer.get("error", ""))
            # …and the connection is dropped afterwards.
            assert reader.readline() == b""


# --------------------------------------------------------------------------- #
# slowloris and disconnects
# --------------------------------------------------------------------------- #
class TestTorture:
    def test_slowloris_does_not_stall_other_connections(self, jsonl):
        slow = socket.create_connection(("127.0.0.1", jsonl.port))
        try:
            slow.sendall(b'{"op": "cert')  # a partial line, never finished
            time.sleep(0.05)
            # A well-behaved client on another connection must be served
            # immediately while the slow one dribbles.
            with JsonlClient("127.0.0.1", jsonl.port) as client:
                started = time.perf_counter()
                [envelope] = client.call([_line()])
                elapsed = time.perf_counter() - started
            assert envelope["ok"] is True
            assert elapsed < 5.0
            # The slowloris connection still works once it finishes its line.
            slow.sendall(b'ain", "query": "%s", "rows": [["a", "b"]]}\n' % Q.encode())
            reader = slow.makefile("r")
            assert json.loads(reader.readline())["ok"] is True
        finally:
            slow.close()

    def test_disconnect_mid_request_does_not_poison_the_pool(self, app, jsonl):
        # Fire a request and slam the connection before reading the answer.
        for _ in range(5):
            conn = socket.create_connection(("127.0.0.1", jsonl.port))
            conn.sendall((_line() + "\n").encode("utf-8"))
            conn.close()
        # The server must still answer new clients, and the pool must not
        # hold a stuck reader from any aborted connection.
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            [envelope] = client.call([_line()])
        assert envelope["ok"] is True
        deadline = time.time() + 5.0
        while app.pool.describe_dict()["active_readers"] and time.time() < deadline:
            time.sleep(0.01)
        assert app.pool.describe_dict()["active_readers"] == 0

    def test_concurrent_reads_survive_exclusive_deltas(self, app, jsonl):
        stop = threading.Event()
        failures = []

        def hammer():
            try:
                with JsonlClient("127.0.0.1", jsonl.port) as client:
                    while not stop.is_set():
                        for envelope in client.call([_line()]):
                            # Verdicts may flip as deltas land, but every
                            # answer must be served, never errored.
                            if not envelope["ok"]:
                                failures.append(envelope)
            except Exception as error:  # noqa: BLE001 - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            # Exclusive mutation passes interleaved with the reads: the gate
            # must drain readers, apply, and let readers back in.
            for _ in range(10):
                with app.pool.exclusive():
                    time.sleep(0.002)
                time.sleep(0.005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not failures
        stats = app.pool.describe_dict()
        assert stats["active_readers"] == 0
        assert stats["exclusive_requests"] >= 10

    def test_cancelled_connections_leave_cache_consistent(self, app, jsonl):
        # Abort several pipelined streams mid-flight, then verify the answer
        # cache still replays the same verdict it computes fresh.
        for _ in range(3):
            conn = socket.create_connection(("127.0.0.1", jsonl.port))
            conn.sendall(("\n".join([_line()] * 8) + "\n").encode("utf-8"))
            conn.close()
        with JsonlClient("127.0.0.1", jsonl.port) as client:
            [first] = client.call([_line()])
            [second] = client.call([_line()])
        assert first["verdict"] == second["verdict"]
        assert second["details"]["cache"] == "hit"


# --------------------------------------------------------------------------- #
# HTTP parity
# --------------------------------------------------------------------------- #
class TestAsyncHttp:
    def test_keep_alive_across_requests(self, http_server):
        conn = http.client.HTTPConnection("127.0.0.1", http_server.port)
        try:
            for _ in range(3):
                body = json.dumps({"op": "certain", "query": Q,
                                   "rows": [["a", "b"], ["b", "c"]]})
                conn.request("POST", "/answer", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 200
                payload = json.loads(response.read())
                assert payload["schema_version"] == 1
                assert payload["answers"][0]["ok"] is True
        finally:
            conn.close()

    def test_routes_and_status_codes(self, http_server):
        base = f"127.0.0.1:{http_server.port}"
        conn = http.client.HTTPConnection(base)
        conn.request("GET", "/healthz")
        health = conn.getresponse()
        assert health.status == 200
        assert json.loads(health.read())["ok"] is True
        conn.request("GET", "/stats")
        stats = conn.getresponse()
        assert stats.status == 200
        assert json.loads(stats.read())["details"]["transport"]["requests"] >= 0
        conn.request("GET", "/nowhere")
        missing = conn.getresponse()
        assert missing.status == 404
        missing.read()
        conn.close()

    def test_post_without_content_length_is_411_and_closes(self, http_server):
        with socket.create_connection(("127.0.0.1", http_server.port)) as conn:
            conn.sendall(
                b"POST /answer HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            response = conn.makefile("rb").read()
        assert b"411" in response.split(b"\r\n", 1)[0]
        assert b"Connection: close" in response

    def test_chunked_body_is_411(self, http_server):
        with socket.create_connection(("127.0.0.1", http_server.port)) as conn:
            conn.sendall(
                b"POST /answer HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            response = conn.makefile("rb").read()
        assert b"411" in response.split(b"\r\n", 1)[0]

    def test_truncated_body_is_400(self, http_server):
        with socket.create_connection(("127.0.0.1", http_server.port)) as conn:
            conn.sendall(
                b"POST /answer HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"op\":"
            )
            conn.shutdown(socket.SHUT_WR)
            response = conn.makefile("rb").read()
        assert b"400" in response.split(b"\r\n", 1)[0]
        assert b"truncated" in response

    def test_malformed_json_is_400_but_keeps_the_connection(self, http_server):
        conn = http.client.HTTPConnection("127.0.0.1", http_server.port)
        try:
            conn.request("POST", "/answer", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            bad = conn.getresponse()
            assert bad.status == 400
            bad.read()
            # Same connection must still serve the next request.
            conn.request("GET", "/healthz")
            ok = conn.getresponse()
            assert ok.status == 200
            ok.read()
        finally:
            conn.close()

    def test_unknown_post_path_is_404_close(self, http_server):
        with socket.create_connection(("127.0.0.1", http_server.port)) as conn:
            conn.sendall(
                b"POST /elsewhere HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 2\r\n\r\n{}"
            )
            response = conn.makefile("rb").read()
        assert b"404" in response.split(b"\r\n", 1)[0]
        assert b"Connection: close" in response


# --------------------------------------------------------------------------- #
# lifecycle
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_shutdown_with_open_connections_is_clean(self, app):
        server = start_jsonl_server(app)
        conn = socket.create_connection(("127.0.0.1", server.port))
        conn.sendall((_line() + "\n").encode("utf-8"))
        reader = conn.makefile("r")
        assert json.loads(reader.readline())["ok"] is True
        server.shutdown()  # the idle open connection must not wedge this
        server.server_close()  # releases the listening socket
        conn.close()

    def test_both_transports_share_one_app(self, app):
        jsonl = start_jsonl_server(app)
        web = start_http_server(app)
        try:
            with JsonlClient("127.0.0.1", jsonl.port) as client:
                client.call([_line()])
            conn = http.client.HTTPConnection("127.0.0.1", web.port)
            body = json.dumps({"op": "certain", "query": Q,
                               "rows": [["a", "b"], ["b", "c"]]})
            conn.request("POST", "/answer", body=body)
            [answer] = json.loads(conn.getresponse().read())["answers"]
            conn.close()
            # Second transport hits the first transport's cache entry.
            assert answer["details"]["cache"] == "hit"
        finally:
            for server in (jsonl, web):
                server.shutdown()
                server.server_close()
