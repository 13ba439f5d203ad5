"""Link-homology benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload cube-eps0 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is run from ``src/``.
Closed loop, one job at a time, one child process at a time.  Each link job
is what a user runs, ``python -m quadfrob link homology --format json``; each
algebra job is ``bench/algebra_job.py``.  A job still running at its
workload's budget is killed and charged at the budget.  Every job's output
is checked (``check.py``).  With ``--trace 1`` the jobs run under
``tracing.py`` and the per-layer metrics are printed instead of the
end-to-end ones.  The last line of standard output is the result object;
the job log goes to standard error.

The benchmark process itself imports nothing from the package, so its own
memory stays below every job's: a child's peak RSS as reported by the
kernel includes the parent's RSS at the moment of the spawn.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("torsion", "algebra", "cube-eps0")
# Per-job budget in seconds.  torsion: the slowest job the seed code solves
# there takes 1.5 s; each known stall is charged at the budget.  The others
# let the largest job run at least twice as slow, and keep a run under 180 s.
BUDGET_S = {"cube-eps0": 120.0, "torsion": 2.5, "algebra": 60.0}
TOP_JOB = {"cube-eps0": "eps0/T2_6", "torsion": "eps1/figure8", "algebra": "algebra/d-5"}
SETUP_REPEATS = 5
# Untraced passes rerun a short top job until its runs add up to this many
# seconds, spread evenly through the pass (the host's speed drifts over
# seconds); top_job_s is their median.
TOP_JOB_MIN_S = 4.0
# a traced run checks that the top job's self times sum to its root span
# within this share
SELF_COVER_TOLERANCE = 0.10


@dataclass
class ChildResult:
    code: int
    seconds: float
    stalled: bool
    kill_time: float | None
    rss_mb: float
    out: bytes
    err: str


def run_child(argv, budget, root, env, out_path):
    """Runs one process to completion or to ``budget`` seconds, then kills
    it; always reaps it.  Peak RSS comes from the child's own rusage."""
    reaped = {}
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=root, env=env)
        waiter = threading.Thread(target=lambda: reaped.update(result=os.wait4(proc.pid, 0)))
        waiter.start()
        kill_time = None
        try:
            waiter.join(budget)
        finally:
            if waiter.is_alive():  # over budget, or the benchmark is interrupted
                kill_time = time.monotonic()
                proc.kill()
                waiter.join()
        seconds = time.monotonic() - start
    _, status, usage = reaped["result"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        out = fh.read()
    with open(err_path, "rb") as fh:
        err = fh.read().decode(errors="replace")
    return ChildResult(proc.returncode, seconds, kill_time is not None, kill_time,
                       usage.ru_maxrss / 1024.0, out, err)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def job_argv(job, traced, log_path):
    if traced:
        return [sys.executable, os.path.join(HERE, "tracing.py"), log_path, job["kind"], *job["args"]]
    if job["kind"] == "link":
        return [sys.executable, "-m", "quadfrob", *job["args"]]
    return [sys.executable, os.path.join(HERE, "algebra_job.py"), *job["args"]]


def judge(job, res, golden, budget):
    """(status, problems).  status: solved, stall (known), or failed."""
    known_stall = job["id"] in golden["known_stalls"]
    if res.stalled:
        return ("stall", []) if known_stall else ("failed", [f"new stall at {budget} s"])
    if res.code != 0:
        return "failed", [f"exit code {res.code}: {res.err.strip()[-300:]}"]
    try:
        payload = json.loads(res.out)
    except ValueError as exc:
        return "failed", [f"unreadable output: {exc}"]
    if job["kind"] == "link":
        problems = check.check_link(payload, job["components"], golden["link"].get(job["id"]))
    else:
        problems = check.check_algebra(payload, golden["algebra"][job["id"]])
    return ("failed" if problems else "solved"), problems


def run_pass(jobs, workload, traced, root, env, work, golden, log):
    """One pass over ``jobs``.  Untraced, the top job runs first and its
    reruns (rows marked ``rerun``) are spread through the rest."""
    if traced:
        return run_jobs(jobs, workload, traced, root, env, work, golden, log)
    top = [j for j in jobs if j["id"] == TOP_JOB[workload]]
    rest = [j for j in jobs if j["id"] != TOP_JOB[workload]]
    rows = run_jobs(top, workload, False, root, env, work, golden, log)
    reruns = max(0, math.ceil(TOP_JOB_MIN_S / max(rows[0]["seconds"], 0.01)) - 1)
    step = len(rest) / (reruns + 1)
    for i in range(reruns + 1):
        rows += run_jobs(rest[round(i * step):round((i + 1) * step)], workload, False,
                         root, env, work, golden, log)
        if i < reruns:
            rerun = run_jobs(top, workload, False, root, env, work, golden, log)
            rerun[0]["rerun"] = True
            rows += rerun
    return rows


def run_jobs(jobs, workload, traced, root, env, work, golden, log):
    budget = BUDGET_S[workload]
    rows = []
    for job in jobs:
        log_path = os.path.join(work, "spans.bin")
        res = run_child(job_argv(job, traced, log_path), budget, root, env,
                        os.path.join(work, "job.out"))
        status, problems = judge(job, res, golden, budget)
        row = {"id": job["id"], "status": status, "problems": problems,
               "seconds": min(res.seconds, budget), "rss_mb": res.rss_mb}
        if traced and os.path.exists(log_path):
            row["spans"], row["counters"] = tracing.read_log(log_path, res.kill_time)
            os.remove(log_path)
        rows.append(row)
        log(f"  {job['id']:<24} {status:<7} {row['seconds']:8.3f} s {res.rss_mb:7.1f} MB"
            + ("".join(f"\n      {p}" for p in problems)))
    return rows


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(setup_times, passes, workload):
    """Metrics of untraced passes; reruns of the top job count only in
    top_job_s."""
    top = TOP_JOB[workload]
    rows = [r for p in passes for r in p]
    once = [r for r in rows if not r.get("rerun")]
    solved = sum(1 for r in once if r["status"] == "solved")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(sum(r["seconds"] for r in p if not r.get("rerun")) for p in passes), "s"),
        "top_job_s": (statistics.median(r["seconds"] for r in rows if r["id"] == top), "s"),
        "peak_rss_mb": (statistics.median(max(r["rss_mb"] for r in p) for p in passes), "MB"),
        "solved_frac": (solved / len(once), "ratio"),
    }


def span_stats(spans):
    """Per-name inclusive seconds (outermost spans only), self seconds and
    calls, plus the list of attribute tuples, for one job's spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    attrs = defaultdict(list)
    for idx, s in enumerate(spans):
        name, dur = s["name"], s["end"] - s["start"]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += dur - child[idx]
        p = s["parent"]
        while p >= 0 and spans[p]["name"] != name:
            p = spans[p]["parent"]
        if p < 0:
            out[name + ".s"] += dur
        if s["attrs"]:
            attrs[name].append(s["attrs"])
    return out, attrs


PER_LAYER_TOTALS = (
    "cli.main.s",
    "linkhom.resolve.s", "linkhom.build_complex.s", "linkhom.build_complex.self_s",
    "linkhom.check_d_squared.s", "linkhom.homology_integral.s", "linkhom.homology_over_K.self_s",
    "linkhom.simplify.s",
    "omodule.tensor_power.s", "omodule.tensor_power.calls",
    "omodule.tensor_over_O.s", "omodule.tensor_over_O.calls",
    "omodule.homology_pair.s", "omodule.homology_pair.calls", "omodule.kernel_m_analysis.s",
    "intlin.mat_mul.s", "intlin.mat_mul.calls", "intlin.kron.s", "intlin.perm_matrix.s",
    "intlin.rank_rat.s", "intlin.rank_rat.calls",
    "intlin.smith_normal_form.s", "intlin.smith_normal_form.calls",
    "intlin.hnf_rows.s", "intlin.hnf_rows.calls", "intlin.kernel_basis.s",
    "frobenius.analyze.s", "frobenius.analyze.calls", "frobenius.search_solutions.s",
    "frobenius.twist.s", "frobenius.closed_surface_invariant.s",
    "ideals.solve_partition_of_z.s", "ideals.solve_partition_of_z.calls",
    "ideals.is_principal.s", "ideals.certify_order_two.s",
)


def pass_layers(rows):
    """Per-layer metrics of one traced pass, summed over its jobs."""
    totals = defaultdict(float)
    attrs = defaultdict(list)
    contains = 0
    cut = 0
    for r in rows:
        spans = r.get("spans", [])
        cut += sum(1 for s in spans if s["cut"])
        stats, job_attrs = span_stats(spans)
        for k, v in stats.items():
            totals[k] += v
        for k, v in job_attrs.items():
            attrs[k].extend(v)
        contains += r.get("counters", {}).get("ideals.contains", 0)

    def col(name, i):
        return [a[i] for a in attrs[name] if len(a) > i]

    m = {name: totals[name] for name in PER_LAYER_TOTALS}
    m["cli.homology_integral.calls"] = totals["linkhom.homology_integral.calls"]
    m["linkhom.cube_vertices"] = sum(col("linkhom.resolve", 0))
    m["linkhom.max_circles"] = max(col("linkhom.resolve", 1), default=0)
    m["linkhom.chain_rank_total"] = sum(col("linkhom.build_complex", 0))
    nnz, cells = sum(col("linkhom.build_complex", 1)), sum(col("linkhom.build_complex", 2))
    m["linkhom.diff_nnz"] = nnz
    m["linkhom.diff_cells"] = cells
    m["linkhom.diff_density"] = nnz / cells if cells else 0.0
    m["linkhom.simplified_rank_total"] = sum(col("linkhom.simplify", 0))
    m["omodule.tensor_power.max_z_rank"] = max(col("omodule.tensor_power", 0), default=0)
    m["intlin.mat_mul.cells"] = sum(col("intlin.mat_mul", 0))
    m["intlin.perm_matrix.cells"] = sum(col("intlin.perm_matrix", 0))
    m["intlin.rank_rat.cells"] = sum(col("intlin.rank_rat", 0))
    m["intlin.smith_normal_form.max_dim"] = max(col("intlin.smith_normal_form", 0), default=0)
    m["intlin.smith_normal_form.max_in_bits"] = max(col("intlin.smith_normal_form", 1), default=0)
    m["intlin.smith_normal_form.max_out_bits"] = max(col("intlin.smith_normal_form", 2), default=0)
    accepted = col("frobenius.analyze", 0)
    m["frobenius.analyze.accept_frac"] = sum(accepted) / len(accepted) if accepted else 0.0
    m["frobenius.search_solutions.yielded"] = sum(col("frobenius.search_solutions", 0))
    m["ideals.contains.calls"] = contains
    m["trace.solve_s"] = sum(r["seconds"] for r in rows)
    m["trace.cut_spans"] = cut
    return m


def top_self_cover(rows, top):
    """Sum of self seconds over the top job's spans, over its root span."""
    for r in rows:
        if r["id"] == top and r.get("spans"):
            spans = r["spans"]
            stats, _ = span_stats(spans)
            self_sum = sum(v for k, v in stats.items() if k.endswith(".self_s"))
            roots = sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
            return self_sum / roots if roots else None
    return None


UNITS = {
    "linkhom.cube_vertices": "count", "linkhom.max_circles": "count",
    "linkhom.chain_rank_total": "count", "linkhom.diff_nnz": "count", "linkhom.diff_cells": "count",
    "linkhom.diff_density": "ratio", "linkhom.simplified_rank_total": "count",
    "omodule.tensor_power.max_z_rank": "count", "intlin.mat_mul.cells": "count",
    "intlin.perm_matrix.cells": "count", "intlin.rank_rat.cells": "count",
    "intlin.smith_normal_form.max_dim": "count", "intlin.smith_normal_form.max_in_bits": "bits",
    "intlin.smith_normal_form.max_out_bits": "bits", "frobenius.analyze.accept_frac": "ratio",
    "frobenius.search_solutions.yielded": "count", "ideals.contains.calls": "count",
    "cli.homology_integral.calls": "count", "trace.solve_s": "s", "trace.cut_spans": "count",
    "trace.top_self_ratio": "ratio",
}


def unit_of(name):
    return UNITS.get(name) or ("count" if name.endswith(".calls") else "s")


def write_spans(path, passes):
    """One JSON array per span: pass, job id, span index in the job, name,
    start, end, parent index (-1 for the root), cut at a kill."""
    with open(path, "w", encoding="utf-8") as fh:
        for n, rows in enumerate(passes):
            for r in rows:
                for i, s in enumerate(r.get("spans", [])):
                    fh.write(json.dumps([n, r["id"], i, s["name"], s["start"], s["end"],
                                         s["parent"], s["cut"]]) + "\n")


# ---------------------------------------------------------------------------


def main(argv):
    ap = argparse.ArgumentParser(prog="bench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes over the workload until this much time has gone; at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    if not os.path.isfile(os.path.join(root, "src", "quadfrob", "cli.py")):
        log("bench: no src/quadfrob here; run from the root of a quadfrob checkout")
        return 2
    missed = check.selftest()
    if missed:
        log("bench: checker self-test failed: " + "; ".join(missed))
        return 2
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    env = child_env(root)
    # byte-compile once, untimed, so every timed process starts the same way
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(root, "src"), HERE],
                   check=True, env=env, cwd=root, stdout=subprocess.DEVNULL)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_times = []
        manifest = None
        for _ in range(SETUP_REPEATS):
            res = run_child([sys.executable, os.path.join(HERE, "prepare.py"), "--workload", args.workload,
                             "--seed", str(args.seed), "--out", work],
                            BUDGET_S[args.workload], root, env, os.path.join(work, "manifest.json"))
            if res.code != 0 or res.stalled:
                log(f"bench: set-up failed (exit {res.code}): {res.err.strip()[-300:]}")
                return 1
            setup_times.append(res.seconds)
            manifest = json.loads(res.out)
        log(f"{args.workload} seed {args.seed}: {len(manifest['jobs'])} jobs, "
            f"budget {BUDGET_S[args.workload]} s per job, trace {args.trace}")

        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < args.seconds:
            log(f"pass {len(passes) + 1}")
            passes.append(run_pass(manifest["jobs"], args.workload, bool(args.trace),
                                   root, env, work, golden, log))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rows = [r for p in passes for r in p]
    failed = sum(1 for r in rows if r["status"] == "failed")
    stalls = sorted({r["id"] for r in rows if r["status"] == "stall"})
    if stalls:
        log(f"stalled at the {BUDGET_S[args.workload]} s budget (known seed stalls): {', '.join(stalls)}")
    if failed:
        log("FAILED: " + ", ".join(r["id"] for r in rows if r["status"] == "failed"))
    correct = failed == 0

    metrics = {}
    if args.trace:
        per_pass = [pass_layers(p) for p in passes]
        for name in per_pass[0]:
            metrics[name] = (statistics.median(m[name] for m in per_pass), unit_of(name))
        ratio = top_self_cover(passes[0], TOP_JOB[args.workload])
        metrics["trace.top_self_ratio"] = (ratio if ratio is not None else 0.0, "ratio")
        if ratio is not None and abs(ratio - 1.0) > SELF_COVER_TOLERANCE:
            log(f"trace: self times of {TOP_JOB[args.workload]} cover {ratio:.3f} of its root span")
            correct = False
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        write_spans(spans_path, passes)
        log(f"spans written to {os.path.relpath(spans_path, root)}")
    else:
        metrics = end_to_end(setup_times, passes, args.workload)
    for name, (value, unit) in metrics.items():
        log(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
