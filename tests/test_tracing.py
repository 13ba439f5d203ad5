"""The benchmark's per-layer tracer still installs over the package.

``bench/tracing.py`` wraps package functions by name; a rename of one of
them makes the traced runs below fail.  Each run is a subprocess, as in the
benchmark, and takes about a quarter of a second.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from quadfrob import corpus

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_spans(tmp_path, *argv):
    """Runs one traced job and returns the names of its recorded spans."""
    log = tmp_path / "spans.log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(log), *argv],
        capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    spans, _ = _tracing_module().read_log(log)
    assert spans and not any(s["cut"] for s in spans)
    return proc.stdout, {s["name"] for s in spans}


def test_traced_link_homology(tmp_path):
    pd = tmp_path / "trefoil.json"
    pd.write_text(json.dumps(corpus.diagram("trefoil").to_json()))
    out, names = traced_spans(tmp_path, "link", "link", "homology", "--pd", str(pd), "--format", "json")
    assert json.loads(out)["homology"]["total_k_dim"] == 2
    assert {"cli.main", "linkhom.resolve", "linkhom.build_complex", "linkhom.homology_integral"} <= names


def test_traced_algebra_job(tmp_path):
    out, names = traced_spans(tmp_path, "algebra", "-d", "-5", "--mu", "2,1+w", "--z", "2", "--bound", "0")
    assert json.loads(out)["count"] == 0
    assert {"job.algebra", "frobenius.search_solutions", "ideals.certify_order_two"} <= names
