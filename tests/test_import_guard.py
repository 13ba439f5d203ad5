"""Start-up cost of the command line: what ``import quadfrob.cli`` loads.

Every ``quadfrob`` process pays for its imports before any work.
``dataclasses`` alone pulled in ``inspect``, ``ast``, ``dis`` and
``tokenize`` and generated methods by ``exec`` for every decorated class,
about two thirds of the package's import time; ``typing`` is as heavy.  The
import runs in a fresh interpreter without site hooks (``-S``), so that
modules a site hook loads first cannot hide one the package loads.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
FORBIDDEN = {"dataclasses", "inspect", "typing"}

PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import quadfrob.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_heavy_modules():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, str(SRC)],
        check=True, capture_output=True, text=True,
    ).stdout
    added = set(json.loads(out))
    assert "quadfrob.cli" in added
    assert not added & FORBIDDEN, sorted(added & FORBIDDEN)
