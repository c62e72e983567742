"""Tests for the workload generator and the replay driver."""

import json

import pytest

from repro.core.query import paper_queries
from repro.server.app import CQAServer
from repro.workload import (
    ReplayReport,
    TraceSpec,
    compare_verdicts,
    direct_sender,
    generate_trace,
    percentile,
    read_trace,
    replay,
    sample_indices,
    write_trace,
    zipf_weights,
)

SMALL = dict(requests=40, seed=3, solutions=8, tenants=2, datasets_per_tenant=2)


class TestTraceSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown trace mode"):
            TraceSpec(mode="chaos")
        with pytest.raises(ValueError, match="unknown queries"):
            TraceSpec(queries=("q1", "q99"))
        with pytest.raises(ValueError, match="requests"):
            TraceSpec(requests=-1)

    def test_to_json_dict_round_trips(self):
        spec = TraceSpec(**SMALL)
        encoded = json.loads(json.dumps(spec.to_json_dict()))
        assert TraceSpec(**{**encoded, "queries": tuple(encoded["queries"])}) == spec

    def test_zipf_weights(self):
        weights = zipf_weights(4, 1.0)
        assert weights == [1.0, 0.5, pytest.approx(1 / 3), 0.25]
        assert zipf_weights(3, 0.0) == [1.0, 1.0, 1.0]


class TestGenerator:
    def test_deterministic(self):
        spec = TraceSpec(**SMALL)
        assert generate_trace(spec) == generate_trace(TraceSpec(**SMALL))

    def test_seed_changes_trace(self):
        assert generate_trace(TraceSpec(**SMALL)) != generate_trace(
            TraceSpec(**{**SMALL, "seed": 4})
        )

    def test_catalog_preamble_is_self_contained(self):
        lines = generate_trace(TraceSpec(**SMALL))
        created_tenants = {line["tenant"] for line in lines
                           if line.get("action") == "create" and "tenant" in line}
        created_datasets = {line["dataset"] for line in lines
                            if line.get("action") == "create" and "dataset" in line}
        ingested = {line["dataset"] for line in lines
                    if line.get("action") == "ingest"}
        addressed = {line["dataset"] for line in lines
                     if line.get("op") == "certain" and "dataset" in line}
        assert ingested == created_datasets
        assert addressed <= created_datasets
        assert {spec.split("/")[0] for spec in created_datasets} <= created_tenants

    def test_queries_match_dataset_schema(self):
        # Every traffic request must draw a query whose schema matches the
        # arity of the rows its dataset was ingested with.
        lines = generate_trace(TraceSpec(**SMALL))
        arity = {}
        for line in lines:
            if line.get("action") == "ingest":
                arity[line["dataset"]] = len(line["rows"][0])
        named = paper_queries()
        for line in lines:
            if line.get("op") == "certain" and "dataset" in line:
                assert named[line["query"]].schema.arity == arity[line["dataset"]]

    def test_rows_mode_needs_no_catalog(self):
        lines = generate_trace(TraceSpec(**{**SMALL, "mode": "rows"}))
        assert all(line.get("op") != "catalog" for line in lines)
        assert all("rows" in line for line in lines if line.get("op") == "certain")

    def test_delta_bursts_interleave(self):
        spec = TraceSpec(**{**SMALL, "delta_every": 5, "delta_size": 1})
        lines = generate_trace(spec)
        deltas = [line for line in lines if line.get("action") == "delta"]
        assert deltas
        assert all(line["add"] and len(line["add"][0]) for line in deltas)

    def test_rewrites_carry_poison_rows(self):
        spec = TraceSpec(**{**SMALL, "rewrite_fraction": 0.5})
        lines = generate_trace(spec)
        rewrites = [line for line in lines
                    if line.get("op") == "certain" and "rows" in line]
        assert rewrites
        # The poison row makes each rewrite's content identity unique.
        assert all(any(value.startswith("poison-") for value in line["rows"][-1])
                   for line in rewrites)

    def test_at_offsets_monotonic(self):
        lines = generate_trace(TraceSpec(**SMALL))
        offsets = [line["at"] for line in lines]
        assert offsets == sorted(offsets)

    def test_trace_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spec = TraceSpec(**SMALL)
        meta, count = write_trace(path, spec)
        loaded_meta, payloads = read_trace(path)
        assert loaded_meta == meta
        assert len(payloads) == count == meta["lines"]
        assert loaded_meta["spec"]["seed"] == spec.seed

    def test_read_plain_workload_without_header(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        path.write_text('{"op": "classify", "query": "q3"}\n', encoding="utf-8")
        meta, payloads = read_trace(path)
        assert meta is None
        assert payloads == [{"op": "classify", "query": "q3"}]


class TestReplayReport:
    def test_percentile(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 0.99) == 3.0

    def test_record_accounting(self):
        report = ReplayReport()
        report.record({"op": "certain", "query": "q3", "dataset": "t/d"},
                      [{"ok": True, "verdict": True,
                        "details": {"cache": "hit",
                                    "provenance": {"import_sessions": [{}]}}}],
                      0.01)
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": False,
                        "details": {"cache": "hit", "cache_tier": "persistent"}}],
                      0.02)
        report.record({"op": "catalog", "action": "ls"},
                      [{"ok": True, "verdict": 1, "details": {}}], 0.001)
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": False, "error": "boom", "details": {}}], 0.0)
        assert report.requests == 4 and report.answers == 4
        assert report.errors == 1 and report.control == 1
        assert report.tiers == {"memory_hits": 1, "persistent_hits": 1,
                                "misses": 0, "uncached": 1}
        assert report.hit_rate() == 1.0
        assert report.provenance_expected == 1
        assert report.provenance_resolved == 1
        stats = report.to_json_dict()
        assert stats["verdicts"] == {"True": 1, "False": 1, "None": 1}
        assert "provenance" in report.render() or report.provenance_expected

    def test_connect_and_service_split_accounting(self):
        report = ReplayReport()
        # A cold request that spent most of its latency dialing …
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": True, "details": {}}],
                      0.05, connect_s=0.04)
        # … two warm keep-alive requests (no dial) …
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": True, "details": {}}],
                      0.01)
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": False, "details": {}}],
                      0.02, connect_s=0.0)
        # … and a clock-skewed one where connect_s > latency (service floors
        # at zero instead of going negative).
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": True, "details": {}}],
                      0.001, connect_s=0.002)
        assert report.connects == 2
        stats = report.to_json_dict()
        assert stats["connects"] == 2
        assert set(stats["connect_ms"]) == {"p50", "max", "total"}
        assert set(stats["service_ms"]) == {"p50", "p90"}
        # The latency block's schema is unchanged by the split.
        assert set(stats["latency_ms"]) == {"p50", "p90", "p99", "max"}
        assert stats["connect_ms"]["max"] >= stats["connect_ms"]["p50"]
        # Service time is latency minus connect, floored at zero.
        services = sorted(report._services_s())
        assert services[0] == 0.0
        assert all(value >= 0.0 for value in services)
        assert "dials" in report.render()

    def test_legacy_record_without_connect_kwarg(self):
        # Positional 3-arg record() keeps working: no dial accounted.
        report = ReplayReport()
        report.record({"op": "certain", "query": "q3"},
                      [{"ok": True, "verdict": True, "details": {}}], 0.01)
        assert report.connects == 0
        assert report.to_json_dict()["connects"] == 0

    def test_compare_verdicts(self):
        observed, reference = ReplayReport(), ReplayReport()
        observed.verdicts = [True, False, True]
        reference.verdicts = [True, True, True]
        outcome = compare_verdicts(observed, reference, [0, 1, 2])
        assert outcome["sampled"] == 3 and outcome["agreements"] == 2
        assert outcome["mismatches"] == [
            {"index": 1, "observed": False, "reference": True}
        ]

    def test_sample_indices_skip_control_lines(self):
        payloads = [
            {"op": "catalog", "action": "create"},
            {"op": "certain", "query": "q3"},
            {"op": "stats"},
            {"op": "certain", "query": "q5"},
        ]
        assert sample_indices(payloads, 10) == [1, 3]
        assert sample_indices(payloads, 1, seed=0) == sample_indices(
            payloads, 1, seed=0
        )


class TestReplayIntegration:
    def test_catalog_trace_replays_with_full_provenance(self, tmp_path):
        spec = TraceSpec(**SMALL, delta_every=7)
        payloads = generate_trace(spec)
        server = CQAServer(catalog_path=str(tmp_path / "catalog.sqlite3"))
        report = replay(payloads, direct_sender(server))
        assert report.errors == 0
        assert report.requests == len(payloads)
        # Every catalog-addressed answer resolved to recorded sessions.
        assert report.provenance_expected > 0
        assert report.provenance_resolved == report.provenance_expected
        assert report.elapsed_s > 0.0

    def test_replay_fidelity_across_fresh_servers(self, tmp_path):
        payloads = generate_trace(TraceSpec(**SMALL, delta_every=9))
        first = replay(payloads, direct_sender(
            CQAServer(catalog_path=str(tmp_path / "one.sqlite3"))))
        second = replay(payloads, direct_sender(
            CQAServer(enable_cache=False,
                      catalog_path=str(tmp_path / "two.sqlite3"))))
        indices = sample_indices(payloads, 50)
        outcome = compare_verdicts(first, second, indices)
        assert outcome["mismatches"] == []

    def test_concurrent_replay_collects_every_answer(self, tmp_path):
        payloads = generate_trace(TraceSpec(
            **{**SMALL, "requests": 12, "mode": "rows"}))
        server = CQAServer()
        report = replay(payloads, direct_sender(server), concurrency=4)
        assert report.requests == len(payloads)
        assert report.errors == 0

    def test_empty_trace(self):
        report = replay([], direct_sender(CQAServer()))
        assert report.requests == 0 and report.elapsed_s == 0.0

    def test_concurrent_catalog_replay_matches_sequential(self, tmp_path):
        """Catalog mutations barrier the pool: concurrency changes nothing."""
        payloads = generate_trace(TraceSpec(**SMALL, delta_every=7))
        sequential = replay(payloads, direct_sender(
            CQAServer(catalog_path=str(tmp_path / "seq.sqlite3"))))
        concurrent = replay(payloads, direct_sender(
            CQAServer(catalog_path=str(tmp_path / "conc.sqlite3"))),
            concurrency=6)
        assert concurrent.errors == 0
        assert concurrent.requests == len(payloads)
        indices = sample_indices(payloads, 50)
        assert compare_verdicts(concurrent, sequential, indices)["mismatches"] == []

    def test_keepalive_replay_reuses_connections(self, tmp_path):
        """Keep-alive socket replay: far fewer dials than requests, 0 errors."""
        from repro.server import start_jsonl_server
        from repro.workload import jsonl_keepalive_sender

        payloads = generate_trace(TraceSpec(
            **{**SMALL, "requests": 16, "mode": "rows"}))
        server = start_jsonl_server(
            CQAServer(catalog_path=str(tmp_path / "catalog.sqlite3")))
        sender = jsonl_keepalive_sender("127.0.0.1", server.port)
        try:
            report = replay(payloads, sender, concurrency=4)
        finally:
            sender.close()
            server.shutdown()
            server.server_close()
        assert report.errors == 0
        assert report.requests == len(payloads)
        # One dial per worker thread, not per request.
        assert 0 < report.connects <= 4 < report.requests
        stats = report.to_json_dict()
        assert stats["connects"] == report.connects
        assert stats["connect_ms"]["total"] > 0.0

    def test_one_shot_sender_dials_per_request(self, tmp_path):
        from repro.server import start_jsonl_server
        from repro.workload import jsonl_sender

        payloads = generate_trace(TraceSpec(
            **{**SMALL, "requests": 6, "mode": "rows"}))
        server = start_jsonl_server(
            CQAServer(catalog_path=str(tmp_path / "catalog.sqlite3")))
        try:
            report = replay(payloads, jsonl_sender("127.0.0.1", server.port))
        finally:
            server.shutdown()
            server.server_close()
        assert report.errors == 0
        assert report.connects == report.requests == len(payloads)
