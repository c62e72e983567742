"""Tests for the multi-tenant dataset catalog (store, service, server dialect)."""

import json
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import (
    CatalogError,
    CatalogService,
    CatalogStore,
    row_key,
    split_spec,
)
from repro.catalog.store import SCHEMA_VERSION
from repro.core.query import parse_query
from repro.server.app import CQAServer
from repro.service.datasets import DatasetRef
from repro.service.envelope import Answer, Request


@pytest.fixture
def store(tmp_path):
    store = CatalogStore(str(tmp_path / "catalog.sqlite3"))
    yield store
    store.close()


@pytest.fixture
def service(tmp_path):
    service = CatalogService(str(tmp_path / "catalog.sqlite3"))
    yield service
    service.close()


def _seed(service):
    service.create_tenant("acme")
    service.create_dataset("acme/orders")
    return service.ingest_rows(
        "acme/orders", [["a", "b"], ["a", "c"], ["d", "e"]], source="seed"
    )


class TestStoreRegistry:
    def test_create_and_list_tenants(self, store):
        store.create_tenant("acme")
        store.create_tenant("beta")
        assert [row["name"] for row in store.tenants()] == ["acme", "beta"]

    def test_duplicate_tenant_raises(self, store):
        store.create_tenant("acme")
        with pytest.raises(CatalogError, match="already exists"):
            store.create_tenant("acme")

    def test_invalid_names_raise(self, store):
        with pytest.raises(CatalogError):
            store.create_tenant("")
        with pytest.raises(CatalogError):
            store.create_tenant("a/b")
        store.create_tenant("acme")
        with pytest.raises(CatalogError):
            store.create_dataset("acme", "x/y")

    def test_unknown_tenant_and_dataset(self, store):
        with pytest.raises(CatalogError, match="unknown tenant"):
            store.create_dataset("ghost", "orders")
        store.create_tenant("acme")
        with pytest.raises(CatalogError, match="unknown dataset"):
            store.dataset_id("acme", "orders")

    def test_duplicate_dataset_raises(self, store):
        store.create_tenant("acme")
        store.create_dataset("acme", "orders")
        with pytest.raises(CatalogError, match="already exists"):
            store.create_dataset("acme", "orders")

    def test_dataset_listing_counts(self, store):
        store.create_tenant("acme")
        store.create_tenant("beta")
        dataset = store.create_dataset("acme", "orders")
        store.create_dataset("beta", "logs")
        store.record_import(dataset["id"], kind="rows", source="s",
                            checksum="c", add_rows=[["1", "2"]])
        rows = store.datasets("acme")
        assert rows == [{"tenant": "acme", "name": "orders",
                         "id": dataset["id"], "facts": 1, "import_sessions": 1}]
        assert len(store.datasets()) == 2


class TestStoreProvenance:
    def test_import_session_counts(self, store):
        store.create_tenant("t")
        dataset = store.create_dataset("t", "d")
        session = store.record_import(
            dataset["id"], kind="rows", source="s", checksum="c",
            add_rows=[["a", "b"], ["a", "b"], ["c", "d"]],
        )
        # The duplicate row is ignored: effective counts, not batch sizes.
        assert session["facts_added"] == 2
        assert session["fact_count"] == 2

    def test_first_writer_wins(self, store):
        store.create_tenant("t")
        dataset = store.create_dataset("t", "d")
        first = store.record_import(dataset["id"], kind="rows", source="one",
                                    checksum="c1", add_rows=[["a", "b"]])
        second = store.record_import(dataset["id"], kind="rows", source="two",
                                     checksum="c2", add_rows=[["a", "b"], ["x", "y"]])
        assert second["facts_added"] == 1
        facts = dict()
        for values, session_id in store.facts(dataset["id"]):
            facts[tuple(values)] = session_id
        assert facts[("a", "b")] == first["id"]
        assert facts[("x", "y")] == second["id"]

    def test_delta_removal(self, store):
        store.create_tenant("t")
        dataset = store.create_dataset("t", "d")
        store.record_import(dataset["id"], kind="rows", source="s", checksum="c",
                            add_rows=[["a", "b"], ["c", "d"]])
        delta = store.record_import(
            dataset["id"], kind="delta", source="delta", checksum="c2",
            add_rows=[["e", "f"]], remove_rows=[["a", "b"], ["ghost", "row"]],
        )
        assert delta["facts_added"] == 1
        assert delta["facts_removed"] == 1  # absent rows do not count
        assert delta["fact_count"] == 2
        assert store.sessions(dataset["id"])[-1]["id"] == delta["id"]

    def test_row_key_normalises_values(self):
        assert row_key([1, 2]) == row_key(["1", "2"])


class TestStoreFileDiscipline:
    def test_garbage_file_resets(self, tmp_path):
        path = tmp_path / "catalog.sqlite3"
        path.write_bytes(b"this is not a sqlite file, not even close......")
        store = CatalogStore(str(path))
        assert store.enabled
        assert store.stats["resets"] == 1
        store.create_tenant("acme")  # usable after the reset
        store.close()

    def test_schema_version_mismatch_resets(self, tmp_path):
        path = tmp_path / "catalog.sqlite3"
        first = CatalogStore(str(path))
        first.create_tenant("acme")
        first.close()
        conn = sqlite3.connect(str(path))
        conn.execute("UPDATE meta SET value='999' WHERE key='schema_version'")
        conn.commit()
        conn.close()
        second = CatalogStore(str(path))
        assert second.stats["resets"] == 1
        assert second.tenants() == []  # the old-schema content is gone
        second.close()

    def test_reopen_preserves_content(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        first = CatalogStore(path)
        first.create_tenant("acme")
        first.close()
        second = CatalogStore(path)
        assert [row["name"] for row in second.tenants()] == ["acme"]
        assert second.stats["resets"] == 0
        second.close()

    def test_describe_dict(self, store):
        store.create_tenant("t")
        described = store.describe_dict()
        assert described["enabled"] is True
        assert described["tenants"] == 1
        assert described["resets"] == 0
        assert SCHEMA_VERSION == 1


class TestService:
    def test_split_spec(self):
        assert split_spec("acme/orders") == ("acme", "orders")
        for bad in ("acme", "/orders", "acme/", "a/b/c", ""):
            with pytest.raises(CatalogError):
                split_spec(bad)

    def test_ingest_csv_records_checksum(self, service, tmp_path):
        _seed(service)
        csv_path = tmp_path / "more.csv"
        csv_path.write_text("k,v\nq,r\n", encoding="utf-8")
        session = service.ingest_csv("acme/orders", str(csv_path))
        assert session["kind"] == "csv"
        assert session["source"] == str(csv_path)
        assert len(session["checksum"]) == 32
        assert session["facts_added"] == 1

    def test_missing_csv_raises(self, service):
        _seed(service)
        with pytest.raises(CatalogError, match="cannot read CSV"):
            service.ingest_csv("acme/orders", "does-not-exist.csv")

    def test_dataset_ref_tracks_content(self, service):
        _seed(service)
        before = service.dataset_ref("acme/orders")
        service.apply_delta("acme/orders", add=[["z", "z"]])
        after = service.dataset_ref("acme/orders")
        # A delta changes the content identity: stale cache entries become
        # unreachable instead of wrong.
        assert before.fingerprint() != after.fingerprint()
        assert before.routing_key() != after.routing_key()

    def test_history(self, service):
        _seed(service)
        service.apply_delta("acme/orders", add=[["z", "z"]], source="burst")
        sources = [row["source"] for row in service.history("acme/orders")]
        assert sources == ["seed", "burst"]

    def test_handle_payload_actions(self, service):
        create = service.handle_payload({"op": "catalog", "action": "create",
                                         "tenant": "acme"})
        assert create.ok and create.op == "catalog"
        assert service.handle_payload(
            {"op": "catalog", "action": "create", "dataset": "acme/orders"}
        ).ok
        ingest = service.handle_payload(
            {"op": "catalog", "action": "ingest", "dataset": "acme/orders",
             "rows": [["a", "b"]], "id": "req-1"}
        )
        assert ingest.ok and ingest.request_id == "req-1"
        assert ingest.verdict == ingest.details["import_session"]["id"]
        listing = service.handle_payload({"op": "catalog", "action": "ls"})
        assert listing.verdict == 1
        history = service.handle_payload(
            {"op": "catalog", "action": "history", "dataset": "acme/orders"}
        )
        assert history.verdict == 1

    def test_handle_payload_errors_are_envelopes(self, service):
        bad = service.handle_payload({"op": "catalog", "action": "history",
                                      "dataset": "nope/nope"})
        assert not bad.ok and "unknown" in bad.error
        unknown = service.handle_payload({"op": "catalog", "action": "frobnicate"})
        assert not unknown.ok and "unknown catalog action" in unknown.error


class TestServerIntegration:
    @pytest.fixture
    def server(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        service = CatalogService(path)
        _seed(service)
        service.close()
        return CQAServer(catalog_path=path)

    def test_catalog_op_via_dialect(self, server):
        [envelope] = server.handle_payload(
            {"op": "catalog", "action": "history", "dataset": "acme/orders"}
        )
        assert envelope.ok and envelope.verdict == 1
        assert server.transport_stats["catalog_requests"] == 1

    def test_no_catalog_configured(self):
        server = CQAServer()
        [envelope] = server.handle_payload({"op": "catalog", "action": "ls"})
        assert not envelope.ok and "--catalog" in envelope.error
        [answer] = server.handle_payload(
            {"op": "certain", "query": "q3", "dataset": "acme/orders"}
        )
        assert not answer.ok and "--catalog" in answer.error

    def test_dataset_addressed_answer_carries_provenance(self, server):
        [answer] = server.handle_payload(
            {"op": "certain", "query": "q3", "dataset": "acme/orders",
             "witness": True}
        )
        assert answer.ok
        provenance = answer.details["provenance"]
        assert provenance["dataset"] == "acme/orders"
        assert provenance["import_sessions"]
        if answer.witness:
            # Every witness fact that came from the catalog traces back to
            # the session that ingested it.
            assert set(provenance["deciding_facts"]) <= set(answer.witness)
            assert all(isinstance(sid, int)
                       for sid in provenance["deciding_facts"].values())

    def test_cache_hit_keeps_provenance(self, server):
        payload = {"op": "certain", "query": "q3", "dataset": "acme/orders"}
        [first] = server.handle_payload(dict(payload))
        [second] = server.handle_payload(dict(payload))
        assert second.details.get("cache") == "hit"
        assert second.details["provenance"]["import_sessions"]
        assert first.verdict == second.verdict

    def test_delta_invalidates_cached_answers(self, server):
        payload = {"op": "certain", "query": "q3", "dataset": "acme/orders"}
        server.handle_payload(dict(payload))
        [hit] = server.handle_payload(dict(payload))
        assert hit.details.get("cache") == "hit"
        server.handle_payload(
            {"op": "catalog", "action": "delta", "dataset": "acme/orders",
             "add": [["fresh", "row"]]}
        )
        [after] = server.handle_payload(dict(payload))
        assert after.details.get("cache") == "miss"
        assert len(after.details["provenance"]["import_sessions"]) >= 1

    def test_unknown_dataset_is_an_error_envelope(self, server):
        [answer] = server.handle_payload(
            {"op": "certain", "query": "q3", "dataset": "acme/ghost"}
        )
        assert not answer.ok and "unknown dataset" in answer.error

    def test_stats_embed_catalog(self, server):
        server.handle_payload({"op": "catalog", "action": "ls"})
        stats = server.stats()
        assert stats["catalog"]["tenants"] == 1
        assert stats["catalog"]["enabled"] is True

    def test_fleet_routing_key_prefers_dataset(self):
        from repro.server.fleet import FleetDispatcher

        dispatcher = FleetDispatcher.__new__(FleetDispatcher)
        dispatcher.base_dir = None
        key = FleetDispatcher._routing_key(
            dispatcher, {"op": "certain", "query": "q3", "dataset": "acme/orders"}
        )
        assert key == "catalog:acme/orders"
        # Catalog write ops route identically, so one dataset's reads and
        # ingests serialise on the same worker.
        assert FleetDispatcher._routing_key(
            dispatcher,
            {"op": "catalog", "action": "delta", "dataset": "acme/orders"},
        ) == "catalog:acme/orders"

    def test_answers_remain_json_serialisable(self, server):
        [answer] = server.handle_payload(
            {"op": "certain", "query": "q3", "dataset": "acme/orders"}
        )
        encoded = json.loads(json.dumps(answer.to_json_dict()))
        assert encoded["details"]["provenance"]["dataset"] == "acme/orders"


def _inline(rows):
    return DatasetRef.inline_rows(rows).fingerprint()


def _sources(answer):
    return [session["source"] for session in answer.details["provenance"]["import_sessions"]]


class TestStoredHead:
    """A catalog read learns the dataset's identity from its stored head."""

    PAYLOAD = {"op": "certain", "query": "q3", "dataset": "acme/orders"}

    @pytest.fixture
    def server(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        service = CatalogService(path)
        _seed(service)
        service.close()
        server = CQAServer(catalog_path=path)
        yield server
        server.catalog.close()

    def test_repeated_hits_read_no_rows(self, server, monkeypatch):
        [first] = server.handle_payload(dict(self.PAYLOAD))
        calls = []
        original = CatalogStore.facts

        def counting(store, dataset_id):
            calls.append(dataset_id)
            return original(store, dataset_id)

        monkeypatch.setattr(CatalogStore, "facts", counting)
        for _ in range(20):
            [hit] = server.handle_payload(dict(self.PAYLOAD))
            assert hit.details["cache"] == "hit"
            assert hit.verdict == first.verdict
            assert _sources(hit) == ["seed"]
        assert calls == []
        # A miss does load the rows, once.
        server.handle_payload(
            {"op": "catalog", "action": "delta", "dataset": "acme/orders",
             "add": [["z", "z"]]}
        )
        [miss] = server.handle_payload(dict(self.PAYLOAD))
        assert miss.details["cache"] == "miss"
        assert len(calls) == 1

    def test_the_reference_reports_the_stored_identity(self, server):
        ref = server.catalog.dataset_ref("acme/orders")
        rows = [["a", "b"], ["a", "c"], ["d", "e"]]
        inline = DatasetRef.inline_rows(rows, label="acme/orders")
        assert ref.describe() == inline.describe() == "rows:acme/orders"
        assert ref.size_hint() == inline.size_hint() == 3
        assert ref.fingerprint() == inline.fingerprint()
        assert ref.stripe_key() == inline.stripe_key()
        assert ref.routing_key() == inline.routing_key()
        ref.resolve(parse_query("R(x|y) R(y|z)"))
        assert ref.fingerprint() == inline.fingerprint()
        assert ref.size_hint() == 3

    def test_rowid_reuse_after_delete_lists_only_the_new_session(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        writer = CatalogService(path)
        writer.create_tenant("t")
        first = writer.create_dataset("t/a")
        old = writer.ingest_rows("t/a", [["a", "b"], ["b", "c"]], source="old")
        server = CQAServer(catalog_path=path)
        payload = {"op": "certain", "query": "q3", "dataset": "t/a"}
        [before] = server.handle_payload(dict(payload))
        assert _sources(before) == ["old"]
        # Another process deletes and re-creates the dataset: SQLite hands
        # the deleted rows' ids out again, so (dataset id, head session id)
        # repeats while the content and the history do not.
        writer.delete_dataset("t/a")
        second = writer.create_dataset("t/a")
        new = writer.ingest_rows("t/a", [["x", "y"]], source="new")
        assert (second["id"], new["id"]) == (first["id"], old["id"]) == (1, 1)
        [after] = server.handle_payload(dict(payload))
        assert after.details["cache"] == "miss"
        assert _sources(after) == ["new"]
        assert after.details["provenance"]["import_sessions"] == writer.history("t/a")
        writer.close()
        server.catalog.close()

    def test_a_write_through_another_service_is_seen_by_the_next_read(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        reader = CatalogService(path)
        _seed(reader)
        writer = CatalogService(path)
        before = reader.dataset_ref("acme/orders")
        answer = Answer(op="certain", query="q3", verdict=True)
        reader.annotate(answer, before)
        assert _sources(answer) == ["seed"]
        writer.apply_delta("acme/orders", add=[["z", "z"]], source="from-writer")
        after = reader.dataset_ref("acme/orders")
        rows = [["a", "b"], ["a", "c"], ["d", "e"], ["z", "z"]]
        assert after.fingerprint() == _inline(rows) != before.fingerprint()
        assert after.size_hint() == 4
        answer = Answer(op="certain", query="q3", verdict=True)
        reader.annotate(answer, after)
        assert _sources(answer) == ["seed", "from-writer"]
        writer.close()
        reader.close()

    def test_provenance_copies_cannot_corrupt_the_memo(self, server):
        [first] = server.handle_payload(dict(self.PAYLOAD))
        first.details["provenance"]["import_sessions"][0]["source"] = "tampered"
        first.details["provenance"]["import_sessions"].clear()
        [second] = server.handle_payload(dict(self.PAYLOAD))
        assert _sources(second) == ["seed"]

    def test_a_catalog_without_stored_heads_is_backfilled_without_reset(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        service = CatalogService(path)
        _seed(service)
        service.apply_delta("acme/orders", remove=[["d", "e"]])
        service.create_dataset("acme/empty")
        dataset_id = service.store.dataset_id("acme", "orders")
        sessions = service.history("acme/orders")
        facts = service.store.facts(dataset_id)
        service.close()
        # The layout before heads were stored: no heads table, no counter.
        conn = sqlite3.connect(path)
        conn.execute("DROP TABLE dataset_heads")
        conn.execute("DELETE FROM meta WHERE key='writes'")
        conn.commit()
        conn.close()
        reopened = CatalogService(path)
        assert reopened.store.stats["resets"] == 0
        assert reopened.history("acme/orders") == sessions
        assert reopened.store.facts(dataset_id) == facts
        ref = reopened.dataset_ref("acme/orders")
        assert ref.fingerprint() == _inline([["a", "b"], ["a", "c"]])
        assert ref.size_hint() == 2
        empty = reopened.dataset_ref("acme/empty")
        assert empty.fingerprint() == _inline([]) and empty.size_hint() == 0
        reopened.close()
        server = CQAServer(catalog_path=path)
        [answer] = server.handle_payload(dict(self.PAYLOAD))
        assert answer.ok and answer.verdict is False
        assert answer.details["provenance"]["import_sessions"] == sessions
        assert server.catalog.store.stats["resets"] == 0
        server.catalog.close()

    def test_opening_a_current_file_takes_no_write_lock(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        service = CatalogService(path)
        _seed(service)
        service.close()
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN IMMEDIATE")  # another process mid-write
        try:
            store = CatalogStore(path, busy_timeout_s=0.05)
            assert store.stats == {"errors": 0, "resets": 0}
            assert store.head("acme", "orders")[3] == 3
            store.close()
        finally:
            blocker.rollback()
            blocker.close()

    def test_a_write_racing_a_miss_stores_the_answer_under_the_loaded_rows(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite3")
        old_rows, new_rows = [["a", "b"], ["b", "c"]], [["a", "b"], ["d", "e"]]
        writer = CatalogService(path)
        writer.create_tenant("t")
        writer.create_dataset("t/a")
        writer.ingest_rows("t/a", old_rows)
        server = CQAServer(catalog_path=path)
        ref = server.catalog.dataset_ref("t/a")  # the old content's head
        assert ref.fingerprint() == _inline(old_rows)
        writer.apply_delta("t/a", add=[["d", "e"]], remove=[["b", "c"]])
        [raced] = server.handle_request(Request(op="certain", query="q3", datasets=(ref,)))
        assert raced.details["cache"] == "miss"
        assert raced.verdict is False  # answered on the rows actually loaded
        assert ref.fingerprint() == _inline(new_rows)
        [later] = server.handle_payload({"op": "certain", "query": "q3", "dataset": "t/a"})
        assert later.details["cache"] == "hit" and later.verdict is False
        # The old content's digest holds no entry for the new content.
        [old] = server.handle_request(
            Request(op="certain", query="q3", datasets=(DatasetRef.inline_rows(old_rows),))
        )
        assert old.details["cache"] == "miss" and old.verdict is True
        writer.close()
        server.catalog.close()


_VALUES = st.sampled_from(["a", "b", "1", 1, 2])
_ROWS = st.lists(st.tuples(_VALUES, _VALUES), max_size=5)
_SPECS = st.sampled_from(["t/a", "t/b"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("ingest"), _SPECS, _ROWS),
        st.tuples(st.just("delta"), _SPECS, _ROWS, _ROWS),
        st.tuples(st.just("recreate"), _SPECS),
    ),
    min_size=1,
    max_size=8,
)


class TestStoredDigestProperty:
    """The stored digest is the inline-rows fingerprint of the current rows."""

    @settings(max_examples=40, deadline=None)
    @given(steps=_STEPS)
    def test_stored_identity_tracks_every_write(self, steps):
        query = parse_query("R(x|y) R(y|z)")
        with tempfile.TemporaryDirectory() as directory:
            service = CatalogService(str(Path(directory) / "catalog.sqlite3"))
            service.create_tenant("t")
            model = {}
            for spec in ("t/a", "t/b"):
                service.create_dataset(spec)
                model[spec] = set()
            for step in steps:
                kind, spec = step[0], step[1]
                if kind == "ingest":
                    service.ingest_rows(spec, step[2])
                    model[spec] |= {tuple(map(str, row)) for row in step[2]}
                elif kind == "delta":
                    service.apply_delta(spec, add=step[2], remove=step[3])
                    model[spec] -= {tuple(map(str, row)) for row in step[3]}
                    model[spec] |= {tuple(map(str, row)) for row in step[2]}
                else:
                    service.delete_dataset(spec)
                    service.create_dataset(spec)
                    model[spec] = set()
                fingerprints = {}
                for name, rows in model.items():
                    ref = service.dataset_ref(name)
                    fingerprints[name] = ref.fingerprint()
                    assert fingerprints[name] == _inline(sorted(rows))
                    assert ref.size_hint() == len(rows)
                    answer = Answer(op="certain", query="q", verdict=True)
                    service.annotate(answer, ref)
                    assert answer.details["provenance"]["import_sessions"] == (
                        service.store.sessions(ref.dataset_id)
                    )
                    ref.resolve(query)
                    assert ref.fingerprint() == fingerprints[name]
                assert (fingerprints["t/a"] == fingerprints["t/b"]) == (
                    model["t/a"] == model["t/b"]
                )
            service.close()
