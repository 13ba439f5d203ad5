"""The unit-elimination remainder, pinned.

For every diagram of ``test_golden_homology.GOLDEN`` (worked T(2,5) among
them), plus T(2,6) over the default algebra, ``remainder_golden.json`` holds the ranks of the complex
that ``reduce_units`` leaves and a SHA-256 of the JSON of its ``kept``
indices.  Homology does not depend on which unit entries are eliminated, so
the golden homology cannot see a change of pivot order; this file can: any
change to the order of unit elimination changes a digest.  Rerun
``python tests/test_remainder_golden.py`` only when the order is meant to
change.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    HERE = Path(__file__).resolve().parent
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from quadfrob import corpus  # noqa: E402
from quadfrob.intlin import reduce_units  # noqa: E402
from quadfrob.linkhom import build_complex  # noqa: E402
from test_golden_homology import GOLDEN, diagram  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("remainder_golden.json")
EXTRA = {"eps0_b1/T2_6": ((1,) * 6, 2)}  # braid word and strands
KEYS = sorted(GOLDEN) + sorted(EXTRA)


def remainder_record(key, algebras):
    aname, name = key.split("/")
    pd = corpus.braid_closure(*EXTRA[key]) if key in EXTRA else diagram(name)
    cx = build_complex(pd, algebras[aname])
    kept, _ = reduce_units(cx.diffs, cx.ranks)
    digest = hashlib.sha256(json.dumps(kept).encode()).hexdigest()
    return {"simplified_ranks": [len(k) for k in kept], "kept_sha256": digest}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_every_key_is_frozen(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_remainder_matches_golden(key, golden, algebra_corpus):
    assert remainder_record(key, algebra_corpus) == golden[key]


if __name__ == "__main__":
    from quadfrob import Ideal, RingContext
    from quadfrob.frobenius import FrobeniusData, build_algebra, example_zsqrtm5, family_eps_x_one, family_eps_x_zero

    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    algebras = {  # as in conftest.algebra_corpus
        "eps0_b1": family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one),
        "worked": example_zsqrtm5(1, 1),
        "eps_x_one": family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx.one, ctx.one),
        "free_sanity": build_algebra(
            FrobeniusData(ctx, Ideal.from_generators(ctx, [ctx.one]), ctx.one, ctx.zero, ctx.one, ctx.one, ctx.zero)
        ),
    }
    out = {key: remainder_record(key, algebras) for key in KEYS}
    GOLDEN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
