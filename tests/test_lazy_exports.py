"""``repro.server`` loads each export's submodule on first use.

An in-process server needs none of the transports, the client or the fleet,
so ``from repro import CQAServer`` must not import them, nor asyncio,
``http.server``, ``ssl`` and ``urllib.request`` behind them.  The check runs
in a fresh interpreter: the test session itself has imported everything.
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
    "repro.server." + name for name in ("aio", "http_transport", "jsonl", "client", "fleet")
)
loaded = [name for name in heavy if name in sys.modules]
assert not loaded, loaded
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


def test_an_in_process_server_imports_no_transport():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr

