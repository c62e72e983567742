"""End-to-end tests for the long-lived server front end (``repro.server``).

Pins the PR 4 tentpole: the resident :class:`CQAServer` over both transports
(in-process, a real JSONL TCP socket, HTTP), envelope identity against
direct :class:`Session` calls, cache-hit provenance, and delta-driven
invalidation (no stale verdict after a mutation).
"""

from __future__ import annotations

import io
import json

import pytest

from repro import (
    CQAServer,
    Database,
    DatasetRef,
    Fact,
    Request,
    Session,
    start_http_server,
    start_jsonl_server,
)
from repro.server import STATS_OP, CachingSession, serve_stream
from repro.server.client import call_http, call_jsonl, fetch_stats, parse_host_port

Q3 = "R(x|y) R(y|z)"

#: A mixed run-style workload over wire-friendly inline rows.
WORKLOAD = [
    {"op": "classify", "query": "q3"},
    {"op": "certain", "query": Q3, "rows": [["a", "b"], ["b", "c"]]},
    {"op": "witness", "query": Q3, "rows": [["a", "b"], ["a", "c"], ["b", "d"]]},
    {"op": "classify", "query": "q2"},
    {"op": "certain", "query": "q3", "rows": [["a", "b"], ["b", "c"]]},
    {"op": "support", "query": Q3, "rows": [["a", "b"], ["a", "c"]], "samples": 50,
     "seed": 11},
    {"op": "reduce", "query": "q2", "clauses": [[1, -2], [-1, 2]]},
]


def stable(envelope: dict) -> dict:
    """An envelope with the volatile fields (timings, cache marker) removed."""
    core = dict(envelope)
    core.pop("timings", None)
    details = dict(core.get("details") or {})
    details.pop("cache", None)
    core["details"] = details
    return core


def direct_session_envelopes() -> list:
    """The workload answered through a plain session (the PR 3 path)."""
    session = Session()
    envelopes = []
    for payload in WORKLOAD:
        from repro import request_from_json_dict

        request = request_from_json_dict(payload)
        envelopes.extend(a.to_json_dict() for a in session.answer(request))
    return envelopes


class TestInProcessServer:
    def test_envelopes_identical_to_direct_session(self):
        server = CQAServer()
        served = []
        for payload in WORKLOAD:
            served.extend(
                a.to_json_dict() for a in server.handle_line(json.dumps(payload))
            )
        expected = direct_session_envelopes()
        assert [stable(e) for e in served] == [stable(e) for e in expected]

    def test_repeat_workload_hits_cache_with_provenance(self):
        server = CQAServer()
        for payload in WORKLOAD:
            server.handle_line(json.dumps(payload))
        second = []
        for payload in WORKLOAD:
            second.extend(
                a.to_json_dict() for a in server.handle_line(json.dumps(payload))
            )
        assert all(e["details"].get("cache") == "hit" for e in second)
        # Hits must still be envelope-identical to a cold direct session.
        expected = direct_session_envelopes()
        assert [stable(e) for e in second] == [stable(e) for e in expected]
        # Every request of the replay hits, plus the duplicate q3-rows
        # request already hit during the first pass.
        assert server.cache.stats["hits"] == len(WORKLOAD) + 1

    def test_blank_comment_and_bom_lines_are_skipped(self):
        server = CQAServer()
        assert server.handle_line("") == []
        assert server.handle_line("   \t  ") == []
        assert server.handle_line("# a comment") == []
        assert server.handle_line("\ufeff") == []
        assert server.transport_stats["lines"] == 0

    def test_malformed_line_becomes_error_envelope(self):
        server = CQAServer()
        [answer] = server.handle_line("{not json", line_number=7)
        assert not answer.ok
        assert "line 7" in answer.error
        [answer] = server.handle_line('{"op": "certain"}')
        assert not answer.ok and "query" in answer.error

    def test_mistyped_fields_are_rejected_at_the_json_boundary(self):
        # A string row used to split into its characters: ["ab", "bc"]
        # answered exactly as [["a", "b"], ["b", "c"]] does.
        server = CQAServer()
        [answer] = server.handle_line(
            json.dumps({"op": "certain", "query": "q3", "rows": [["a", "b"], "bc"]}), 3
        )
        assert not answer.ok and "line 3: 'rows'[1] must be an array" in answer.error
        [answer] = server.handle_payload({"op": "certain", "query": "q3", "rows": "ab"})
        assert not answer.ok and "'rows' must be an array" in answer.error
        rows = [["a", "b"], ["b", "c"]]
        for field, value in (("witness", "no"), ("explain_plan", 1), ("has_header", "yes")):
            [answer] = server.handle_payload(
                {"op": "certain", "query": "q3", "rows": rows, field: value}
            )
            assert not answer.ok and f"'{field}' must be true or false" in answer.error
        [answer] = server.handle_payload(
            {"op": "certain", "query": "q3", "rows": rows, "witness": False, "has_header": None}
        )
        assert answer.ok and answer.verdict is True

    def test_request_fault_is_isolated(self):
        server = CQAServer()
        [answer] = server.handle_line(
            json.dumps({"op": "certain", "query": Q3, "csv": ["/no/such/file.csv"]})
        )
        assert not answer.ok
        assert server.transport_stats["errors"] == 1
        # The server stays serviceable afterwards.
        [ok_answer] = server.handle_line(json.dumps(WORKLOAD[1]))
        assert ok_answer.ok

    def test_stats_operation(self):
        server = CQAServer()
        server.handle_line(json.dumps(WORKLOAD[1]))
        server.handle_line(json.dumps(WORKLOAD[1]))
        [stats] = server.handle_line('{"op": "stats", "id": "s1"}')
        assert stats.op == STATS_OP
        assert stats.request_id == "s1"
        details = stats.details
        assert details["cache"]["hits"] == 1
        assert details["cache"]["per_query"]  # per-query timings exposed
        assert details["session"]["requests"] == 2
        assert details["transport"]["requests"] == 2
        assert stats.verdict == pytest.approx(0.5)

    def test_cache_disabled_server(self):
        server = CQAServer(enable_cache=False)
        assert server.cache is None
        first = server.handle_line(json.dumps(WORKLOAD[1]))
        second = server.handle_line(json.dumps(WORKLOAD[1]))
        assert first[0].verdict == second[0].verdict
        assert "cache" not in second[0].details


class TestDeltaInvalidation:
    def test_no_stale_answer_after_fact_delta(self, schema21):
        """The delta-invalidation proof: mutate, and the verdict must follow."""
        database = Database([Fact(schema21, ("a", "b"))])
        session = CachingSession(cache=CQAServer().cache)
        ref = DatasetRef.in_memory(database)
        [cold] = session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        assert cold.verdict is False and cold.details["cache"] == "miss"
        [warm] = session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        assert warm.verdict is False and warm.details["cache"] == "hit"
        # The FactDelta both bumps the version (key component) and actively
        # evicts this database's entries through the registered listener.
        database.add(Fact(schema21, ("b", "c")))
        assert session.cache.stats["invalidations"] >= 1
        [fresh] = session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        assert fresh.verdict is True
        assert fresh.details["cache"] == "miss"
        # And removal flips it back — again without serving anything stale.
        database.remove(Fact(schema21, ("b", "c")))
        [back] = session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        assert back.verdict is False

    def test_partial_batch_hit_preserves_order(self, schema21):
        session = CachingSession(cache=CQAServer().cache)
        db_a = Database([Fact(schema21, ("a", "b")), Fact(schema21, ("b", "c"))])
        db_b = Database([Fact(schema21, ("a", "b"))])
        ref_a, ref_b = DatasetRef.in_memory(db_a), DatasetRef.in_memory(db_b)
        [only_a] = session.answer(Request(op="certain", query=Q3, datasets=(ref_a,)))
        both = session.answer(
            Request(op="certain", query=Q3, datasets=(ref_a, ref_b))
        )
        assert [a.verdict for a in both] == [True, False]
        assert both[0].details["cache"] == "hit"
        assert both[1].details["cache"] == "miss"
        assert only_a.verdict is True

    def test_certain_group_shares_entries_and_rewrites_op(self, schema21):
        session = CachingSession(cache=CQAServer().cache)
        database = Database([Fact(schema21, ("a", "b")), Fact(schema21, ("b", "c"))])
        ref = DatasetRef.in_memory(database)
        [certain] = session.answer(Request(op="certain", query=Q3, datasets=(ref,)))
        [explain] = session.answer(Request(op="explain", query=Q3, datasets=(ref,)))
        assert explain.details["cache"] == "hit"
        assert explain.op == "explain" and certain.op == "certain"
        # witness wants a repair: a different digest, so no unsound sharing.
        [witness] = session.answer(Request(op="witness", query=Q3, datasets=(ref,)))
        assert witness.details["cache"] == "miss"

    def test_classify_with_datasets_keeps_one_envelope(self, schema21):
        """Dataset-independent ops must not multiply envelopes on a warm cache."""
        session = CachingSession(cache=CQAServer().cache)
        ref_a = DatasetRef.in_memory(Database([Fact(schema21, ("a", "b"))]))
        ref_b = DatasetRef.in_memory(Database([Fact(schema21, ("b", "c"))]))
        [cold] = session.answer(Request(op="classify", query=Q3, datasets=(ref_a,)))
        assert cold.details["cache"] == "miss"
        answers = session.answer(
            Request(op="classify", query=Q3, datasets=(ref_a, ref_b))
        )
        assert len(answers) == 1  # exactly what a plain Session returns
        assert answers[0].details["cache"] == "hit"

    def test_unseeded_support_is_never_cached(self, schema21):
        session = CachingSession(cache=CQAServer().cache)
        database = Database([Fact(schema21, ("a", "b")), Fact(schema21, ("a", "c"))])
        ref = DatasetRef.in_memory(database)
        request = Request(op="support", query=Q3, datasets=(ref,), samples=20)
        [first] = session.answer(request)
        [second] = session.answer(request)
        assert "cache" not in first.details and "cache" not in second.details
        assert len(session.cache) == 0

    def test_planner_short_circuit_is_counted(self, schema21):
        session = CachingSession(cache=CQAServer().cache)
        database = Database([Fact(schema21, ("a", "b"))])
        ref = DatasetRef.in_memory(database)
        request = Request(op="certain", query=Q3, datasets=(ref,))
        session.answer(request)
        assert session.stats["plans_skipped"] == 0
        session.answer(request)
        assert session.stats["plans_skipped"] == 1


class TestJsonlSocketTransport:
    def test_mixed_workload_over_a_real_socket(self):
        server = CQAServer()
        transport = start_jsonl_server(server)
        try:
            lines = [json.dumps(payload) for payload in WORKLOAD]
            served = call_jsonl("127.0.0.1", transport.port, lines)
            expected = direct_session_envelopes()
            assert [stable(e) for e in served] == [stable(e) for e in expected]
            # Replay on a second connection: all hits, same envelopes.
            again = call_jsonl("127.0.0.1", transport.port, lines)
            assert all(e["details"].get("cache") == "hit" for e in again)
            assert [stable(e) for e in again] == [stable(e) for e in expected]
            stats = fetch_stats(jsonl_address=("127.0.0.1", transport.port))
            assert stats["op"] == STATS_OP
            assert stats["details"]["cache"]["hits"] >= len(WORKLOAD)
        finally:
            transport.shutdown()
            transport.server_close()

    def test_bad_lines_do_not_kill_the_connection(self):
        server = CQAServer()
        transport = start_jsonl_server(server)
        try:
            served = call_jsonl(
                "127.0.0.1",
                transport.port,
                ["{oops", "", "# comment", json.dumps(WORKLOAD[1])],
            )
            assert len(served) == 2
            assert served[0]["ok"] is False
            assert served[1]["ok"] is True
        finally:
            transport.shutdown()
            transport.server_close()


class TestHttpTransport:
    @pytest.fixture()
    def http(self):
        server = CQAServer()
        transport = start_http_server(server)
        yield server, f"http://127.0.0.1:{transport.port}"
        transport.shutdown()
        transport.server_close()

    def test_batch_post_matches_direct_session(self, http):
        _, url = http
        served = call_http(url, WORKLOAD)
        expected = direct_session_envelopes()
        assert [stable(e) for e in served] == [stable(e) for e in expected]
        again = call_http(url, WORKLOAD)
        assert all(e["details"].get("cache") == "hit" for e in again)

    def test_single_object_post(self, http):
        _, url = http
        [envelope] = call_http(url, WORKLOAD[1])
        assert envelope["ok"] and envelope["verdict"] is True

    def test_stats_and_healthz(self, http):
        import urllib.request

        server, url = http
        call_http(url, WORKLOAD[1])
        stats = fetch_stats(http_url=url)
        assert stats["op"] == STATS_OP
        assert stats["details"]["transport"]["requests"] == 1
        with urllib.request.urlopen(url + "/healthz") as response:
            body = json.loads(response.read().decode("utf-8"))
        assert body["ok"] is True and body["uptime_s"] >= 0

    def test_bad_content_length_does_not_desync_keep_alive(self, http):
        """An unread body must not be parsed as the next request line."""
        from http.client import HTTPConnection

        _, url = http
        host, port = url.replace("http://", "").split(":")
        connection = HTTPConnection(host, int(port), timeout=10)
        try:
            connection.putrequest("POST", "/answer")
            connection.putheader("Content-Length", "nonsense")
            connection.endheaders()
            connection.send(b'{"op": "stats"}')
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        # The endpoint stays healthy for new connections.
        [envelope] = call_http(url, WORKLOAD[1])
        assert envelope["ok"] is True

    def test_post_to_unknown_path_closes_keep_alive(self, http):
        """The unread body must never leak into the next request's parse."""
        from http.client import HTTPConnection

        _, url = http
        host, port = url.replace("http://", "").split(":")
        connection = HTTPConnection(host, int(port), timeout=10)
        try:
            connection.request(
                "POST", "/wrong", body=json.dumps({"op": "classify", "query": "q3"})
            )
            response = connection.getresponse()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            connection.close()
        [envelope] = call_http(url, WORKLOAD[1])  # fresh connections unaffected
        assert envelope["ok"] is True

    def test_truncated_body_gets_400_not_a_hung_thread(self, http):
        import socket as socket_module

        _, url = http
        host, port = url.replace("http://", "").split(":")
        with socket_module.create_connection((host, int(port)), timeout=10) as raw:
            raw.sendall(
                b"POST /answer HTTP/1.1\r\n"
                b"Host: x\r\nContent-Length: 1000\r\n\r\n"
                b'{"op": "stats"}'
            )
            raw.shutdown(socket_module.SHUT_WR)  # body ends 985 bytes early
            chunks = []
            while True:
                data = raw.recv(4096)
                if not data:
                    break
                chunks.append(data)
            response = b"".join(chunks).decode("utf-8", errors="replace")
        assert " 400 " in response.splitlines()[0]
        assert "truncated" in response

    def test_unknown_path_and_malformed_body(self, http):
        import urllib.error
        import urllib.request

        _, url = http
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(url + "/nope")
        assert excinfo.value.code == 404
        request = urllib.request.Request(
            url + "/answer", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestStdioLoop:
    def test_serve_stream_round_trip(self):
        server = CQAServer()
        lines = [json.dumps(payload) for payload in WORKLOAD]
        stdin = io.StringIO("\n".join(lines + ["# trailer", ""]) + "\n")
        stdout = io.StringIO()
        emitted = serve_stream(server, stdin, stdout)
        served = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert emitted == len(served) == len(WORKLOAD)
        expected = direct_session_envelopes()
        assert [stable(e) for e in served] == [stable(e) for e in expected]

    def test_oversized_line_is_enveloped_not_buffered(self, monkeypatch):
        import repro.server.jsonl as jsonl_module

        monkeypatch.setattr(jsonl_module, "MAX_LINE_BYTES", 256)
        server = CQAServer()
        huge = json.dumps(
            {"op": "certain", "query": Q3, "rows": [["a", "b"]] * 100}
        )
        assert len(huge) > 256
        stdin = io.StringIO(huge + "\n" + json.dumps(WORKLOAD[1]) + "\n")
        stdout = io.StringIO()
        jsonl_module.serve_stream(server, stdin, stdout)
        first, second = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert first["ok"] is False and "exceeds" in first["error"]
        assert second["ok"] is True  # the stream resyncs on the next line

    def test_cli_serve_stdio(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setattr(
            "sys.stdin",
            io.StringIO(json.dumps(WORKLOAD[1]) + "\n" + '{"op": "stats"}\n'),
        )
        assert main(["serve", "--stdio"]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        envelopes = [json.loads(line) for line in out_lines]
        assert envelopes[0]["verdict"] is True
        assert envelopes[1]["op"] == STATS_OP

    def test_cli_serve_requires_a_transport(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 2
        assert "transport" in capsys.readouterr().err


class TestClientHelpers:
    def test_parse_host_port(self):
        assert parse_host_port("9000") == ("127.0.0.1", 9000)
        assert parse_host_port("example.org:81") == ("example.org", 81)
        with pytest.raises(ValueError):
            parse_host_port("nonsense")

    def test_cli_client_round_trip_over_socket(self, tmp_path, capsys):
        from repro.cli import main

        server = CQAServer()
        transport = start_jsonl_server(server)
        workload = tmp_path / "requests.jsonl"
        workload.write_text(
            "\n".join(json.dumps(payload) for payload in WORKLOAD[:3]) + "\n",
            encoding="utf-8",
        )
        try:
            address = f"127.0.0.1:{transport.port}"
            assert main(["client", "--socket", address, str(workload)]) == 0
            output = capsys.readouterr().out
            assert "classify q3" in output and "certain" in output
            assert main(["client", "--socket", address, "--stats"]) == 0
            assert "hit_rate" in capsys.readouterr().out
        finally:
            transport.shutdown()
            transport.server_close()

    def test_cli_client_requires_exactly_one_transport(self, capsys):
        from repro.cli import main

        assert main(["client", "somefile"]) == 2
        assert main(
            ["client", "--socket", "1:2", "--http", "http://x", "somefile"]
        ) == 2
        capsys.readouterr()
