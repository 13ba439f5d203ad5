"""The benchmark's per-layer tracer still installs over the package.

``bench/tracing.py`` wraps package functions by name; a rename of one of
them makes the traced runs below fail.  Each run is a subprocess, as in the
benchmark, and takes about a quarter of a second.  The tracer also reads
size attributes off what the wrapped functions return; every reader gets a
real output here, including those of functions no traced run calls.
"""

import collections
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from quadfrob import corpus, frobenius, intlin, linkhom, omodule

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_run(tmp_path, *argv):
    """Runs one traced job and returns its stdout and recorded spans."""
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
    return proc.stdout, spans


def traced_spans(tmp_path, *argv):
    """Runs one traced job and returns the names of its recorded spans."""
    out, spans = traced_run(tmp_path, *argv)
    return out, {s["name"] for s in spans}


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


def test_traced_algebra_job_wraps_the_algebra_methods(tmp_path):
    # the algebra inherits the wrapped kernel_m_analysis from AlgebraLattice,
    # so every algebra of the d = -6 box records one ker(m) span and five
    # closed-surface spans
    out, spans = traced_run(tmp_path, "algebra", "-d", "-6", "--mu", "2,w", "--z", "2", "--bound", "1")
    assert json.loads(out)["count"] == 24
    counts = collections.Counter(s["name"] for s in spans)
    assert counts["omodule.kernel_m_analysis"] == 24
    assert counts["frobenius.closed_surface_invariant"] == 120


def test_attribute_readers_take_real_outputs(tmp_path, alg_worked):
    tracing = _tracing_module()
    pd = corpus.diagram("trefoil")
    cx = linkhom.build_complex(pd, alg_worked)
    a = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    # span name -> (wrapped function, its arguments as the wrapper sees them)
    calls = {
        "linkhom.resolve": (linkhom.resolve, (pd,)),
        "linkhom.build_complex": (linkhom.build_complex, (pd, alg_worked)),
        "linkhom.simplify": (linkhom.simplify, (cx,)),
        "intlin.mat_mul": (intlin.mat_mul, (a, a)),
        "intlin.perm_matrix": (intlin.perm_matrix, (2, 3, [1, 0])),
        "intlin.rank_rat": (intlin.rank_rat, (a,)),
        "intlin.smith_normal_form": (intlin.smith_normal_form, (a,)),
        "omodule.tensor_power": (omodule.AlgebraLattice.tensor_power, (alg_worked, 2)),
        "frobenius.analyze": (frobenius.analyze, (alg_worked.data,)),
    }
    assert set(calls) == set(tracing.ATTRS)
    log = tracing.SpanLog(tmp_path / "spans.log")
    expected = []
    for name, (fn, args) in calls.items():
        attrs = tracing.ATTRS[name](args, fn(*args))
        assert 1 <= len(attrs) <= 3, name
        assert all(isinstance(x, (int, float)) and math.isfinite(x) and x >= 0 for x in attrs), name
        log.close(log.open(tracing.NAME_ID[name]), 0.0, *attrs)
        expected.append((name, [float(x) for x in attrs]))
    log.finish()
    spans, _ = tracing.read_log(tmp_path / "spans.log")
    assert [(sp["name"], sp["attrs"]) for sp in spans] == expected
    attrs = dict(expected)
    assert attrs["intlin.smith_normal_form"][:2] == [3.0, 5.0]
    assert attrs["intlin.perm_matrix"] == [81.0]
    assert attrs["intlin.rank_rat"] == [9.0]
    assert attrs["frobenius.analyze"] == [1.0]
