"""One job of the ``algebra`` workload, run in its own process.

``python bench/algebra_job.py -d D --mu GENS --z Z --bound B`` certifies
that mu has order two with mu^2 = (z), enumerates ``search_solutions`` over
the coordinate box and, for every algebra found, runs
``kernel_m_analysis(8)`` and ``closed_surface_invariant(g)`` for g <= 4.
``--twist I,J,...`` (positions in search order, or ``all``) also applies a
kind-3 twist by -1 to those algebras; each twist revalidates from scratch.
It prints one JSON object with the results.
"""

from __future__ import annotations

import argparse
import json
import sys

GENUS_MAX = 4
KERNEL_BOUND = 8


def main(argv):
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import TwistSpec, search_solutions, twist
    from quadfrob.ideals import certify_order_two
    from quadfrob.ring import parse_element

    ap = argparse.ArgumentParser(prog="algebra_job")
    ap.add_argument("-d", type=int, required=True)
    ap.add_argument("--mu", required=True)
    ap.add_argument("--z", required=True)
    ap.add_argument("--bound", type=int, required=True)
    ap.add_argument("--twist", default="all")
    args = ap.parse_args(argv)
    ctx = RingContext(args.d)
    mu = Ideal.from_generators(ctx, [parse_element(ctx, g) for g in args.mu.split(",")])
    z = parse_element(ctx, args.z)
    cert = certify_order_two(mu)
    if cert.z * cert.z != z * z:
        raise SystemExit(f"z = {z} does not generate mu^2 = ({cert.z})")
    # drained before any other work, so search spans do not nest the rest
    found = list(search_solutions(mu, z, coord_bound=args.bound))
    twisted = range(len(found)) if args.twist == "all" else {int(i) for i in args.twist.split(",")}
    out = []
    for i, alg in enumerate(found):
        data = alg.data
        ker = alg.kernel_m_analysis(KERNEL_BOUND)
        row = {
            "params": [str(data.a_bar), str(data.b_bar), str(data.eps_one), str(data.eps_x_bar)],
            "kernel": [len(ker.kernel_basis), ker.direct_sum_verified, ker.action_formulas_verified,
                       ker.iso_to_A, str(ker.generator[0]) if ker.generator else None],
            "genus": [str(alg.closed_surface_invariant(g)) for g in range(GENUS_MAX + 1)],
        }
        if i in twisted:
            tw = twist(alg, TwistSpec(3, -ctx.one))
            row["twist"] = [tw.report.accepted, str(tw.data.eps_one), str(tw.data.eps_x_bar)]
        out.append(row)
    print(json.dumps({"count": len(out), "algebras": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
