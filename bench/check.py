"""Output checks for benchmark jobs.

Link jobs (the JSON payload of ``quadfrob link homology --format json``):

- golden: per-degree ``(z_rank, torsion)`` equals the data captured from
  the seed code, for every job that finished there;
- Lee count: ``total_k_dim == 2 ** components`` (every benchmark algebra has
  a nonzero discriminant);
- Euler characteristic: ``sum (-1)^i chain_rank_i / 2 == sum (-1)^i k_dim_i``.

Algebra jobs: the number of algebras found in each box and, per algebra,
the golden kernel, genus and (where twisted) twist values.

``python bench/check.py`` runs the self-test: payloads with one value
changed must be caught.
"""

from __future__ import annotations

import copy
import sys


def homology_table(payload):
    """Per-degree (z_rank, torsion) of a link payload, JSON-shaped."""
    return {
        deg: [v["z_rank"], [str(t) for t in v["torsion"]]]
        for deg, v in payload["homology"]["degrees"].items()
        if v["z_rank"] or v["torsion"]
    }


def check_link(payload, components, golden=None):
    """List of problems with one link payload; empty when it checks out."""
    problems = []
    if golden is not None and homology_table(payload) != golden:
        problems.append(f"homology {homology_table(payload)} != golden {golden}")
    total = payload["homology"]["total_k_dim"]
    if total != 2 ** components:
        problems.append(f"Lee count: total K-dim {total} != 2^{components}")
    chi_chain = sum((-1) ** int(i) * r for i, r in payload["chain_ranks"].items())
    if chi_chain % 2:
        problems.append(f"odd chain Euler characteristic {chi_chain}")
    chi_hom = sum((-1) ** int(i) * d for i, d in payload["k_dims"].items())
    if chi_chain // 2 != chi_hom:
        problems.append(f"Euler characteristic: chains {chi_chain}/2 != homology {chi_hom}")
    return problems


def check_algebra(payload, golden):
    problems = []
    if payload["count"] != golden["count"]:
        problems.append(f"found {payload['count']} algebras, golden {golden['count']}")
    for i, (got, want) in enumerate(zip(payload["algebras"], golden["algebras"])):
        for key in got:
            if got[key] != want.get(key):
                problems.append(f"algebra {i} {key}: {got[key]} != golden {want.get(key)}")
    return problems


def selftest():
    """Problems the checker failed to catch; empty when it works."""
    trefoil = {  # worked algebra, right-handed trefoil
        "homology": {
            "degrees": {
                "0": {"z_rank": 4, "torsion": [], "k_dim": 2},
                "3": {"z_rank": 0, "torsion": ["721"], "k_dim": 0},
            },
            "total_k_dim": 2,
        },
        "chain_ranks": {"0": 8, "1": 12, "2": 24, "3": 16},
        "k_dims": {"0": 2},
    }
    golden = {"0": [4, []], "3": [0, ["721"]]}
    missed = []
    if check_link(trefoil, 1, golden):
        missed.append("a correct payload was rejected")
    bad = copy.deepcopy(trefoil)
    bad["homology"]["degrees"]["3"]["torsion"] = ["720"]
    if not check_link(bad, 1, golden):
        missed.append("a changed torsion invariant was not caught")
    bad = copy.deepcopy(trefoil)
    bad["homology"]["total_k_dim"] = 4
    if not check_link(bad, 1, golden):
        missed.append("a wrong total K-dimension was not caught")
    bad = copy.deepcopy(trefoil)
    bad["k_dims"] = {"0": 2, "2": 1}
    if not check_link(bad, 1, golden):
        missed.append("a wrong K-dimension was not caught")
    alg = {"count": 1, "algebras": [{"params": ["0"], "kernel": [4], "genus": ["1", "2"], "twist": [True]}]}
    bad = copy.deepcopy(alg)
    bad["algebras"][0]["genus"][1] = "3"
    if check_algebra(alg, alg) or not check_algebra(bad, alg):
        missed.append("a changed genus value was not caught")
    return missed


if __name__ == "__main__":
    missed = selftest()
    for m in missed:
        print("checker self-test:", m, file=sys.stderr)
    print("checker self-test", "FAILED" if missed else "passed")
    sys.exit(1 if missed else 0)
