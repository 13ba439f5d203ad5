"""Golden results of the algebra search boxes, algebra by algebra.

``algebra_boxes_golden.json`` holds, for each box below, every algebra that
``search_solutions`` yields, in search order: its data, validation report,
dual solution, partition of z, Delta(1) in monomial coordinates, the
``ker(m)`` report at generator bound 8 and the closed-surface invariants of
genus 0..4; and the same record for its kind-3 twist by -1.  The values
were captured before the search shared one (mu, z) lattice between its
algebras; a change to the lattice, kernel or genus code that moves any
result shows here.  Rerun ``python tests/test_algebra_boxes.py`` only when
the results are meant to change.
"""

import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("algebra_boxes_golden.json")

# name -> (d, generators of mu, z, coordinate bound)
BOXES = {
    "d-5": (-5, ((2, 0), (1, 1)), (2, 0), 1),
    "d-6": (-6, ((2, 0), (0, 1)), (2, 0), 1),
}
KERNEL_BOUND = 8
GENUS_MAX = 4


def _record(alg):
    us, ups = alg.partition
    return {
        "data": alg.data.to_json(),
        "report": alg.report.to_json(),
        "duals": alg.duals.to_json(),
        "partition": [[u.to_json() for u in us], [u.to_json() for u in ups]],
        "delta_one_coords": list(alg.comultiply_one().coords),
        "kernel": alg.kernel_m_analysis(KERNEL_BOUND).to_json(),
        "genus": [str(alg.closed_surface_invariant(g)) for g in range(GENUS_MAX + 1)],
    }


def _box(name):
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import TwistSpec, search_solutions, twist

    d, gens, z, bound = BOXES[name]
    ctx = RingContext(d)
    mu = Ideal.from_generators(ctx, [ctx(*g) for g in gens])
    out = []
    for alg in search_solutions(mu, ctx(*z), coord_bound=bound):
        row = _record(alg)
        row["twist"] = _record(twist(alg, TwistSpec(3, -ctx.one)))
        out.append(row)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_box_is_frozen(golden):
    assert sorted(golden) == sorted(BOXES)


@pytest.mark.parametrize("name", sorted(BOXES))
def test_box_matches_golden(name, golden):
    got = _box(name)
    want = golden[name]
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}: algebra {i} ({w['data']}) differs"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps({name: _box(name) for name in BOXES}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
