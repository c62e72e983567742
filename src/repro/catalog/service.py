"""The catalog service: named datasets, ingest provenance, answer annotation.

A :class:`CatalogService` sits between the wire dialect and a
:class:`~repro.catalog.store.CatalogStore`.  It owns three responsibilities:

* **Naming.**  Datasets are addressed as ``tenant/name`` specs.  A request
  payload carrying ``"dataset": "acme/orders"`` is resolved through
  :meth:`dataset_ref` into an inline-rows
  :class:`~repro.service.datasets.DatasetRef` — inline rows are
  content-addressed, so catalog datasets flow through every existing cache
  tier (fingerprint identity) and fleet route (rows digest) unchanged, and a
  delta automatically invalidates by changing the content identity.  The
  reference is built from the dataset's stored head (digest, version, fact
  count; see :mod:`repro.catalog.store`) in one indexed read: its
  fingerprint, stripe key, route and size hint need no rows, and the rows
  load only when a cache miss resolves it.
* **Ingest.**  CSV imports, inline-row loads and delta batches all funnel
  through :meth:`ingest_rows` / :meth:`ingest_csv` / :meth:`apply_delta`,
  each recording one import session (source, checksum, counts, timestamp)
  in the store.
* **Provenance.**  :meth:`annotate` stamps an answered envelope's
  ``details["provenance"]`` with the ingest trail: the falsifying repair's
  facts (the envelope's ``witness`` strings) are traced back to the import
  sessions that introduced them; an answer without a witness carries the
  dataset's full import history — either way every catalog answer resolves
  to at least one recorded import session.  The history is memoised per
  dataset version, so a repeated hit re-reads nothing.

The ``catalog`` wire operation (:meth:`handle_payload`) is the server
dialect: ``{"op": "catalog", "action": "create" | "ls" | "ingest" |
"history" | "delta", ...}``, answered with the standard envelope shape so
transports, the fleet dispatcher and ``repro run`` workloads need no new
framing.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional, Sequence, Tuple

from ..hashing import blake2b
from ..service.datasets import DatasetRef
from ..service.envelope import CATALOG_OP, Answer
from .store import CatalogError, CatalogStore, Head, row_key

#: The ``action`` values :meth:`CatalogService.handle_payload` understands.
CATALOG_ACTIONS = ("create", "ls", "ingest", "history", "delta", "delete")


def split_spec(spec: str) -> Tuple[str, str]:
    """``"tenant/name"`` as a pair; raises :class:`CatalogError` otherwise."""
    if not isinstance(spec, str):
        raise CatalogError(f"dataset spec must be a string, got {type(spec).__name__}")
    tenant, separator, name = spec.partition("/")
    if not separator or not tenant or not name or "/" in name:
        raise CatalogError(
            f"invalid dataset spec {spec!r} (expected 'tenant/name')"
        )
    return tenant, name


def _rows_checksum(rows: Sequence[Sequence[object]]) -> str:
    """Content checksum of a row batch (order-insensitive, like the ref digest)."""
    digest = blake2b(digest_size=16)
    for key in sorted(row_key(values) for values in rows):
        digest.update(key.encode("utf-8"))
    return digest.hexdigest()


class _CatalogRows(DatasetRef):
    """A catalog dataset as an inline-rows reference, rows loaded on demand.

    Until it is resolved, the reference knows only the dataset's stored head:
    its fingerprint, stripe key and route come from the stored digest and its
    size hint from the stored count — the values an inline-rows reference
    over the same rows would report.  The first resolution reads the rows and
    digests *them*, so a write racing a cache miss can never park the old
    content's answer under the new content's digest, or the reverse.
    """

    def __init__(self, store: CatalogStore, spec: str, head: Head) -> None:
        super().__init__(DatasetRef.ROWS, label=spec)
        self.spec = spec
        self.dataset_id, self._rows_digest, self.version, self._count = head
        self._catalog = store

    def size_hint(self) -> Optional[int]:
        return self._count if self._rows is None else len(self._rows)

    def _load(self, query, pushdown):
        if self._rows is None:
            self._rows = [
                tuple(values) for values, _ in self._catalog.facts(self.dataset_id)
            ]
            self._rows_digest = None
        return super()._load(query, pushdown)


class CatalogService:
    """Tenant/dataset registry + ingest provenance over one catalog file."""

    def __init__(self, path: str) -> None:
        self.store = CatalogStore(path)
        #: dataset id -> (version, import history at that version).
        self._history: Dict[int, Tuple[int, List[Dict[str, object]]]] = {}

    @property
    def path(self) -> str:
        return self.store.path

    def close(self) -> None:
        self.store.close()

    # ------------------------------------------------------------------ #
    # registry
    # ------------------------------------------------------------------ #
    def create_tenant(self, name: str) -> Dict[str, object]:
        return self.store.create_tenant(name)

    def create_dataset(self, spec: str) -> Dict[str, object]:
        tenant, name = split_spec(spec)
        return self.store.create_dataset(tenant, name)

    def tenants(self) -> List[Dict[str, object]]:
        return self.store.tenants()

    def datasets(self, tenant: Optional[str] = None) -> List[Dict[str, object]]:
        return self.store.datasets(tenant)

    # ------------------------------------------------------------------ #
    # ingest (every path records an import session)
    # ------------------------------------------------------------------ #
    def ingest_rows(
        self,
        spec: str,
        rows: Sequence[Sequence[object]],
        *,
        source: str = "inline",
        kind: str = "rows",
    ) -> Dict[str, object]:
        """Load a batch of inline fact rows; returns the import session row."""
        tenant, name = split_spec(spec)
        dataset_id = self.store.dataset_id(tenant, name)
        return self.store.record_import(
            dataset_id,
            kind=kind,
            source=source,
            checksum=_rows_checksum(rows),
            add_rows=rows,
        )

    def ingest_csv(
        self, spec: str, path: str, *, has_header: bool = True
    ) -> Dict[str, object]:
        """Import a CSV file; the session checksum digests the exact bytes read."""
        tenant, name = split_spec(spec)
        dataset_id = self.store.dataset_id(tenant, name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise CatalogError(f"cannot read CSV {path!r}: {error}") from error
        rows = list(csv.reader(io.StringIO(data.decode("utf-8-sig"))))
        if has_header and rows:
            rows = rows[1:]
        rows = [row for row in rows if row]
        return self.store.record_import(
            dataset_id,
            kind="csv",
            source=str(path),
            checksum=blake2b(data, digest_size=16).hexdigest(),
            add_rows=rows,
        )

    def apply_delta(
        self,
        spec: str,
        *,
        add: Sequence[Sequence[object]] = (),
        remove: Sequence[Sequence[object]] = (),
        source: str = "delta",
    ) -> Dict[str, object]:
        """Apply one add/remove fact batch (a wire-level FactDelta)."""
        tenant, name = split_spec(spec)
        dataset_id = self.store.dataset_id(tenant, name)
        return self.store.record_import(
            dataset_id,
            kind="delta",
            source=source,
            checksum=_rows_checksum(list(add) + list(remove)),
            add_rows=add,
            remove_rows=remove,
        )

    def history(self, spec: str) -> List[Dict[str, object]]:
        tenant, name = split_spec(spec)
        return self.store.sessions(self.store.dataset_id(tenant, name))

    def delete_dataset(self, spec: str) -> Dict[str, object]:
        """Drop a dataset; returns the deleted summary plus its fingerprint.

        The content fingerprint is the digest stored for the rows the dataset
        held at deletion time — the same identity an inline-rows reference
        over those rows would carry — so the serving layer can evict every
        answer cache entry (in-memory and persistent) derived from the
        deleted data.  A dataset later re-created with identical rows is
        *recomputed*, never served from stale cache.
        """
        tenant, name = split_spec(spec)
        deleted = self.store.delete_dataset(tenant, name)
        deleted["fingerprint"] = [DatasetRef.ROWS, deleted.pop("digest")]
        self._history.pop(deleted["id"], None)
        return deleted

    # ------------------------------------------------------------------ #
    # answering
    # ------------------------------------------------------------------ #
    def dataset_ref(self, spec: str) -> DatasetRef:
        """The dataset's current facts as an inline-rows reference.

        Inline rows make the catalog transparent to the serving stack: the
        reference is content-addressed (cacheable in every tier, routable by
        the fleet ring), and a later ingest/delta yields a new rows digest —
        stale cache entries become unreachable rather than wrong.  It costs
        one indexed read of the dataset's stored head; the rows load only if
        the reference is resolved (see :class:`_CatalogRows`).
        """
        tenant, name = split_spec(spec)
        return _CatalogRows(self.store, spec, self.store.head(tenant, name))

    def annotate(self, answer: Answer, ref: DatasetRef, schema=None) -> None:
        """Stamp ``answer.details["provenance"]`` with the ingest trail.

        ``ref`` is the reference :meth:`dataset_ref` returned for the
        request; its dataset id and version select the import history, which
        is memoised per version (the write counter never repeats) and handed
        out as copies.  ``schema`` is the answered query's
        :class:`~repro.core.terms.RelationSchema`; with it, the envelope's
        witness facts (rendered ``R(keys|rest)`` strings) are matched back to
        catalog rows and their import sessions.  Without a witness — or when
        no witness fact matches — the block carries the dataset's full import
        history, so every catalog answer resolves to recorded sessions.
        """
        # Unlocked: requests racing on one dataset may each read the history
        # and overwrite each other's entry; each still answers from the pair
        # it read itself, so the race costs a read, never a wrong answer.
        memo = self._history.get(ref.dataset_id)
        if memo is None or memo[0] != ref.version:
            memo = (ref.version, self.store.sessions(ref.dataset_id))
            self._history[ref.dataset_id] = memo
        sessions = [dict(session) for session in memo[1]]
        by_id = {session["id"]: session for session in sessions}
        deciding: Dict[str, int] = {}
        if answer.witness and schema is not None:
            rendered = {
                _render_fact(schema, values): session_id
                for values, session_id in self.store.facts(ref.dataset_id)
            }
            for fact_text in answer.witness:
                session_id = rendered.get(fact_text)
                if session_id is not None:
                    deciding[fact_text] = session_id
        if deciding:
            selected = [
                by_id[session_id]
                for session_id in sorted(set(deciding.values()))
                if session_id in by_id
            ]
        else:
            selected = sessions
        answer.details["provenance"] = {
            "dataset": ref.spec,
            "deciding_facts": deciding,
            "import_sessions": selected,
        }

    # ------------------------------------------------------------------ #
    # the wire dialect
    # ------------------------------------------------------------------ #
    def handle_payload(self, payload: Dict[str, object]) -> Answer:
        """Answer one ``{"op": "catalog", ...}`` payload (never raises)."""
        action = payload.get("action")
        request_id = payload.get("id")
        try:
            verdict, details = self._dispatch_action(action, payload)
        except CatalogError as error:
            return Answer(
                op=CATALOG_OP,
                query=str(action or "?"),
                ok=False,
                verdict=None,
                algorithm="catalog",
                backend="catalog",
                error=str(error),
                request_id=str(request_id) if request_id is not None else None,
            )
        return Answer(
            op=CATALOG_OP,
            query=str(action),
            verdict=verdict,
            algorithm="catalog",
            backend="catalog",
            exact=True,
            details=details,
            request_id=str(request_id) if request_id is not None else None,
        )

    def _dispatch_action(
        self, action: object, payload: Dict[str, object]
    ) -> Tuple[object, Dict[str, object]]:
        if action == "create":
            spec = payload.get("dataset")
            if spec is not None:
                created = self.create_dataset(str(spec))
                return True, {"created": created}
            tenant = payload.get("tenant")
            if tenant is None:
                raise CatalogError("create needs 'tenant' or 'dataset'")
            return True, {"created": self.create_tenant(str(tenant))}
        if action == "ls":
            tenant = payload.get("tenant")
            return (
                len(self.datasets(str(tenant) if tenant is not None else None)),
                {
                    "tenants": self.tenants(),
                    "datasets": self.datasets(
                        str(tenant) if tenant is not None else None
                    ),
                },
            )
        if action == "ingest":
            spec = str(payload.get("dataset", ""))
            csv_path = payload.get("csv")
            if csv_path is not None:
                session = self.ingest_csv(
                    spec,
                    str(csv_path),
                    has_header=bool(payload.get("has_header", True)),
                )
            else:
                rows = payload.get("rows")
                if not isinstance(rows, (list, tuple)):
                    raise CatalogError("ingest needs 'csv' or 'rows'")
                session = self.ingest_rows(
                    spec, rows, source=str(payload.get("source", "inline"))
                )
            return session["id"], {"import_session": session}
        if action == "delta":
            spec = str(payload.get("dataset", ""))
            add = payload.get("add") or []
            remove = payload.get("remove") or []
            if not isinstance(add, (list, tuple)) or not isinstance(
                remove, (list, tuple)
            ):
                raise CatalogError("delta 'add'/'remove' must be row lists")
            session = self.apply_delta(
                spec,
                add=add,
                remove=remove,
                source=str(payload.get("source", "delta")),
            )
            return session["id"], {"import_session": session}
        if action == "history":
            spec = str(payload.get("dataset", ""))
            sessions = self.history(spec)
            return len(sessions), {"dataset": spec, "import_sessions": sessions}
        if action == "delete":
            spec = str(payload.get("dataset", ""))
            return True, {"deleted": self.delete_dataset(spec)}
        raise CatalogError(
            f"unknown catalog action {action!r}; expected one of {CATALOG_ACTIONS}"
        )


def _render_fact(schema, values: Sequence[str]) -> str:
    """A catalog row rendered exactly like ``str(Fact)`` (witness matching).

    Catalog rows hold string values, and string elements render as
    themselves, so the join below reproduces
    :meth:`repro.core.terms.Fact.__str__` without building Fact objects.
    Rows whose width does not match the schema's arity cannot appear in a
    witness over that schema and render to a sentinel no witness contains.
    """
    if len(values) != schema.arity:
        return f"{schema.name}<arity-mismatch:{len(values)}>"
    key = ",".join(str(value) for value in values[: schema.key_size])
    rest = ",".join(str(value) for value in values[schema.key_size:])
    return f"{schema.name}({key}|{rest})"
