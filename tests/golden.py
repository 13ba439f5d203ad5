"""The golden files of the test suite: one loader and one writer.

Each module named in ``MODULES`` pins what the code computes on fixed
inputs in its ``GOLDEN_FILE``.  It defines ``capture()``, which computes
the file's content afresh, and tests that hold the code to the file, which
they read through the ``golden`` fixture of ``conftest.py``.  A file with a
layout of its own is written by its module's ``dump(obj)``; the others by
``dumps`` below.  Run

    python tests/golden.py

to rewrite all of them, only when the output is meant to change; CI runs it
and fails on any file it changed.  A new golden file takes a module with a
``GOLDEN_FILE`` and a ``capture()``, and its name in ``MODULES``.
"""

import importlib
import json
import sys
from pathlib import Path

MODULES = (
    "test_algebra_boxes",
    "test_cli_golden",
    "test_complex_golden",
    "test_former_stalls_golden",
    "test_rejection_golden",
    "test_remainder_golden",
    "test_stall_golden",
)


def load(module):
    """The parsed golden file of ``module``, one of ``MODULES``, so that
    the writer below rewrites every file a test reads."""
    assert module.__name__ in MODULES, f"{module.__name__} is not in golden.MODULES"
    return json.loads(module.GOLDEN_FILE.read_text())


def dumps(obj):
    """The default layout of a golden file."""
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def write(name):
    """Rewrites the golden file of module ``name``; returns its path."""
    module = importlib.import_module(name)
    module.GOLDEN_FILE.write_text(getattr(module, "dump", dumps)(module.capture()))
    return module.GOLDEN_FILE


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    for name in MODULES:
        print(f"wrote {write(name)}")
