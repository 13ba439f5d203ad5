"""Captures ``golden.json`` from the current code.

    python3 bench/capture.py            # from the root of a checkout

Runs every job any seed can draw: the fixed jobs, the cube-eps0 braid
pools, every rotation class of mixed-sign 4-crossing 3-braids on both
torsion algebras, and the algebra boxes, each with a generous capture
budget.  Records each finished job's golden output and time, and sorts the
braids into strata by time.  A seed draws the same number of braids from
each stratum, so every seed gets about the same work.

cube-eps0 (eps0): ``light`` under 2 s, ``heavy`` 2-6 s, ``slow`` over 6 s.
Slow braids (some 6-crossing closures take as long as T(2,6)) are never
drawn: a run has no room for a second T(2,6).

torsion (worked, eps1), against the 2.5 s job budget:

- ``solved``: finished in under budget / 1.5;
- ``stall``: ran past 1.5 x budget (or past the capture budget);
- ``near``: anything between, never drawn, so that a job's outcome does not
  flip with machine speed.

Jobs past the benchmark budget are the known stalls.  Rerun only when the
program's answers are meant to change; the seed stalls are defects of the
program, recorded here so that they are charged, not hidden.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402

CAPTURE_BUDGET_S = {"cube-eps0": 170.0, "torsion": 10.0, "algebra": 170.0}
MARGIN = 1.5
CUBE_LIGHT_S = 2.0
CUBE_SLOW_S = 6.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def capture_link(specs, workload, root, env, work):
    """Runs (algebra key, name, PD json) jobs; returns {id: (seconds, table)},
    both None for a job past the capture budget."""
    from quadfrob.linkhom import PDCode

    algs = prepare.build_algebras(sorted({k for k, _, _ in specs}))
    for key, alg in algs.items():
        with open(os.path.join(work, f"alg-{key}.json"), "w", encoding="utf-8") as fh:
            json.dump(alg.data.to_json(), fh)
    pd_path = os.path.join(work, "pd.json")
    out = {}
    for key, name, pd_json in specs:
        jid = f"{key}/{name}"
        pd = PDCode.from_json(pd_json)
        with open(pd_path, "w", encoding="utf-8") as fh:
            json.dump(pd.to_json(), fh)
        argv = [sys.executable, "-m", "quadfrob", "link", "homology", "--pd", pd_path, "--format", "json"]
        if key != "eps0":
            argv += ["--alg", os.path.join(work, f"alg-{key}.json")]
        res = run.run_child(argv, CAPTURE_BUDGET_S[workload], root, env, os.path.join(work, "out.json"))
        if res.stalled:
            out[jid] = (None, None)
            log(f"{jid:<24} over {CAPTURE_BUDGET_S[workload]} s")
            continue
        if res.code != 0:
            raise RuntimeError(f"{jid}: exit code {res.code}")
        payload = json.loads(res.out)
        problems = check.check_link(payload, pd.components())
        if problems:
            raise RuntimeError(f"{jid}: {problems}")
        out[jid] = (res.seconds, check.homology_table(payload))
        log(f"{jid:<24} {res.seconds:.3f} s")
    return out


def main():
    root = os.getcwd()
    env = run.child_env(root)
    work = os.path.join(root, ".bench_work", "capture")
    os.makedirs(work, exist_ok=True)
    sys.path.insert(0, os.path.join(root, "src"))
    from quadfrob import corpus

    cube = [("eps0", f"T2_{n}", gen.torus_2n(n)) for n in range(2, 7)]
    cube_braids = [("eps0", gen.word_name(w), gen.braid_closure(w, 3))
                   for length, size, pool_seed in prepare.CUBE_POOLS
                   for w in gen.pool(length, size, pool_seed)]
    torsion_fixed = []
    torsion_braids = []
    for alg in prepare.TORSION_ALGEBRAS:
        torsion_fixed += [(alg, n, corpus.diagram(n).to_json()) for n in corpus.names()]
        torsion_fixed += [(alg, f"T2_{n}", gen.torus_2n(n)) for n in range(3, 6)]
        torsion_braids += [(alg, gen.word_name(w), gen.braid_closure(w, 3))
                           for w in gen.mixed_words(prepare.TORSION_BRAID_LENGTH)]
    try:
        results = capture_link(cube + cube_braids, "cube-eps0", root, env, work)
        results.update(capture_link(torsion_fixed + torsion_braids, "torsion", root, env, work))
        algebra = {}
        for name, d, gens, z, bound in prepare.ALGEBRA_BOXES:
            argv = [sys.executable, os.path.join(HERE, "algebra_job.py"),
                    "-d", str(d), f"--mu={gens}", "--z", z, "--bound", str(bound)]
            res = run.run_child(argv, CAPTURE_BUDGET_S["algebra"], root, env, os.path.join(work, "out.json"))
            if res.code != 0 or res.stalled:
                raise RuntimeError(f"algebra/{name}: exit code {res.code}")
            algebra[f"algebra/{name}"] = json.loads(res.out)
            log(f"algebra/{name:<17} {res.seconds:.3f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    strata = {"eps0": {"light": [], "heavy": [], "slow": []}}
    for _, name, _ in cube_braids:
        seconds = results[f"eps0/{name}"][0]
        if seconds is None or seconds >= CUBE_SLOW_S:
            strata["eps0"]["slow"].append(name)
        else:
            strata["eps0"]["light" if seconds < CUBE_LIGHT_S else "heavy"].append(name)
    budget = run.BUDGET_S["torsion"]
    for alg in prepare.TORSION_ALGEBRAS:
        strata[alg] = {"solved": [], "stall": [], "near": []}
    for alg, name, _ in torsion_braids:
        seconds = results[f"{alg}/{name}"][0]
        if seconds is not None and seconds < budget / MARGIN:
            strata[alg]["solved"].append(name)
        elif seconds is None or seconds > budget * MARGIN:
            strata[alg]["stall"].append(name)
        else:
            strata[alg]["near"].append(name)
    known = []
    for jid, (seconds, _) in results.items():
        workload = "cube-eps0" if jid.startswith("eps0/") else "torsion"
        if seconds is None or seconds > run.BUDGET_S[workload] / MARGIN:
            known.append(jid)
    golden = {
        "known_stalls": sorted(known),
        "strata": strata,
        "capture_seconds": {jid: (round(s, 3) if s is not None else None) for jid, (s, _) in results.items()},
        "link": {jid: table for jid, (_, table) in results.items() if table is not None},
        "algebra": algebra,
    }
    with open(os.path.join(HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log(f"known stalls: {', '.join(golden['known_stalls'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
