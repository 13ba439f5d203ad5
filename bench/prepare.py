"""Benchmark set-up: generate and validate one workload's inputs.

``python bench/prepare.py --workload W --seed S --out DIR`` writes the PD
codes and algebra files of workload W for seed S into DIR, validating every
PD code with ``PDCode`` and building (hence validating) every algebra, and
prints the job manifest as JSON.  The benchmark times this whole process as
its set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import gen

HERE = os.path.dirname(os.path.abspath(__file__))

TORSION_ALGEBRAS = ("worked", "eps1")
ALGEBRA_BOXES = (
    # name, d, mu generators, z, coordinate bound
    ("d-5", -5, "2,1+w", "2", 1),
    ("d-6", -6, "2,w", "2", 1),
)
# algebras per box the seed picks for the twist: each twist revalidates the
# algebra from scratch, and twisting all 104 would nearly double the run
TWISTS_PER_BOX = 8
# cube-eps0 braids come from fixed samples of 5- and 6-crossing words, so
# that every braid the seed can draw has golden data
CUBE_POOLS = ((5, 12, "cube-eps0:5"), (6, 12, "cube-eps0:6"))
TORSION_BRAID_LENGTH = 4


def load_golden():
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def cube_words(seed, strata):
    """One light and one heavy braid, so that every seed draws about the
    same amount of work."""
    return [name for stratum in ("light", "heavy")
            for name in gen.pick(strata[stratum], 1, seed, f"cube-eps0:{stratum}")]


def torsion_words(seed, alg, strata):
    """One braid the seed code stalls on and one it solves, so that every
    seed draws the same mix of stalls."""
    return [name for stratum in ("stall", "solved")
            for name in gen.pick(strata[stratum], 1, seed, f"torsion:{alg}:{stratum}")]


def link_jobs(workload, seed, golden):
    """(algebra key, job name, PD json) triples in run order."""
    jobs = []
    if workload == "cube-eps0":
        for n in range(2, 7):
            jobs.append(("eps0", f"T2_{n}", gen.torus_2n(n)))
        for name in cube_words(seed, golden["strata"]["eps0"]):
            jobs.append(("eps0", name, gen.braid_closure(gen.parse_word_name(name), 3)))
    elif workload == "torsion":
        from quadfrob import corpus

        for alg in TORSION_ALGEBRAS:
            for name in corpus.names():
                jobs.append((alg, name, corpus.diagram(name).to_json()))
            for n in range(3, 6):
                jobs.append((alg, f"T2_{n}", gen.torus_2n(n)))
            for name in torsion_words(seed, alg, golden["strata"][alg]):
                jobs.append((alg, name, gen.braid_closure(gen.parse_word_name(name), 3)))
    else:
        raise ValueError(f"no link jobs in workload {workload!r}")
    return jobs


def build_algebras(keys):
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import example_zsqrtm5, family_eps_x_one, family_eps_x_zero

    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    makers = {
        # the CLI's default algebra: eps(X) = 0, b_bar = 1
        "eps0": lambda: family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one),
        "worked": lambda: example_zsqrtm5(1, 1),
        "eps1": lambda: family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx.one, ctx.one),
    }
    return {k: makers[k]() for k in keys}


def prepare(workload, seed, out):
    from quadfrob.linkhom import PDCode

    os.makedirs(out, exist_ok=True)
    golden = load_golden()
    if workload == "algebra":
        from quadfrob import Ideal, RingContext
        from quadfrob.ring import parse_element

        jobs = []
        for name, d, gens, z, bound in ALGEBRA_BOXES:
            ctx = RingContext(d)
            Ideal.from_generators(ctx, [parse_element(ctx, g) for g in gens.split(",")])
            parse_element(ctx, z)
            jid = f"algebra/{name}"
            count = golden["algebra"][jid]["count"]
            twisted = gen.pick(range(count), min(TWISTS_PER_BOX, count), seed, jid)
            jobs.append({
                "id": jid, "kind": "algebra",
                "args": ["-d", str(d), f"--mu={gens}", "--z", z, "--bound", str(bound),
                         "--twist", ",".join(map(str, twisted))],
            })
        return {"workload": workload, "seed": seed, "jobs": jobs}

    specs = link_jobs(workload, seed, golden)
    algs = build_algebras(sorted({k for k, _, _ in specs}))
    alg_paths = {}
    for key, alg in algs.items():
        if key == "eps0":
            continue  # run on the CLI's default algebra, which is this one
        path = os.path.join(out, f"alg-{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(alg.data.to_json(), fh)
        alg_paths[key] = path
    jobs = []
    for key, name, pd_json in specs:
        pd = PDCode.from_json(pd_json)
        path = os.path.join(out, f"pd-{key}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pd.to_json(), fh)
        args = ["link", "homology", "--pd", path, "--format", "json"]
        if key in alg_paths:
            args += ["--alg", alg_paths[key]]
        jobs.append({
            "id": f"{key}/{name}", "kind": "link", "args": args,
            "components": pd.components(), "crossings": len(pd.crossings),
        })
    return {"workload": workload, "seed": seed, "jobs": jobs}


def main(argv):
    ap = argparse.ArgumentParser(prog="prepare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    print(json.dumps(prepare(args.workload, args.seed, args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
