"""``repro``, ``repro.server`` and ``repro.workload`` load exports on first use.

An in-process server needs none of the transports, the client or the fleet,
so ``from repro import CQAServer`` must not import them, nor asyncio,
``http.server``, ``ssl`` and ``urllib.request`` behind them.  Nor does it
need the SQLite stack: ``sqlite3``, the SQLite fact store and the catalog
load only when a SQLite dataset, a persistent cache or a catalog is used,
and ``from repro import *`` still resolves every exported name.  Likewise a
catalog-backed server fed from a generated trace needs neither the replay
module nor ``multiprocessing``, ``concurrent.futures``, ``logging``,
``importlib.metadata`` or ``hashlib`` (whose OpenSSL bindings blake2b never
uses).  The checks run in a fresh interpreter: the test session itself has
imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
from repro import CQAServer
CQAServer()
heavy = ("asyncio", "http.server", "ssl", "urllib.request") + tuple(
    "repro.server." + name for name in ("http_transport", "jsonl", "client", "fleet")
) + ("sqlite3", "repro.db.sqlite_backend", "repro.catalog")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded
import repro
from repro import *
missing = [name for name in repro.__all__ if name not in globals()]
assert not missing, missing
assert "repro.db.sqlite_backend" in sys.modules and "repro.catalog" in sys.modules
import repro.server
from repro.server import *
missing = [name for name in repro.server.__all__ if name not in globals()]
assert not missing, missing
try:
    repro.server.no_such_export
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


CATALOG_SCRIPT = """
import sys
from repro import CQAServer, TraceSpec, generate_trace
generate_trace(TraceSpec(requests=5, seed=1, mode="catalog", tenants=1,
                         datasets_per_tenant=1, solutions=2))
server = CQAServer(catalog_path=sys.argv[1])
for payload in (
    {"op": "catalog", "action": "create", "tenant": "t"},
    {"op": "catalog", "action": "create", "dataset": "t/a"},
    {"op": "catalog", "action": "ingest", "dataset": "t/a", "rows": [["a", "b"], ["b", "c"]]},
):
    [envelope] = server.handle_payload(payload)
    assert envelope.ok, envelope.error
[answer] = server.handle_payload({"op": "certain", "query": "q3", "dataset": "t/a"})
assert answer.ok and answer.details["provenance"]["import_sessions"], answer
heavy = ("multiprocessing", "concurrent.futures", "logging", "importlib.metadata",
         "hashlib", "_hashlib", "repro.workload.replay")
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded
import hashlib
from repro.hashing import blake2b
assert blake2b(b"row", digest_size=16).hexdigest() == (
    hashlib.blake2b(b"row", digest_size=16).hexdigest()
)
import repro.workload
from repro.workload import *
missing = [name for name in repro.workload.__all__ if name not in globals()]
assert not missing, missing
# The submodule and the function share the name ``replay``: the package
# attribute must stay the function once the submodule is loaded.
assert "repro.workload.replay" in sys.modules
assert callable(repro.workload.replay), repro.workload.replay
assert callable(replay), replay
try:
    repro.workload.no_such_export
except AttributeError:
    pass
else:
    raise AssertionError("an unknown name resolved")
"""


def _run(script, *args):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_an_in_process_server_imports_no_transport():
    completed = _run(SCRIPT)
    assert completed.returncode == 0, completed.stderr


def test_a_catalog_read_imports_no_replay_pool_plugin_scan_or_openssl(tmp_path):
    completed = _run(CATALOG_SCRIPT, str(tmp_path / "catalog.sqlite3"))
    assert completed.returncode == 0, completed.stderr

