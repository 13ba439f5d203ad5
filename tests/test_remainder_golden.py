"""The unit-elimination remainder, pinned.

For every diagram of ``test_golden_homology.GOLDEN`` (worked T(2,5) among
them), plus T(2,6) over the default algebra, ``remainder_golden.json`` holds the ranks of the complex
that ``reduce_units`` leaves and a SHA-256 of the JSON of its ``kept``
indices.  Homology does not depend on which unit entries are eliminated, so
the golden homology cannot see a change of pivot order; this file can: any
change to the order of unit elimination changes a digest.  Rerun
``python tests/golden.py`` only when the order is meant to change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import corpus_of, fixture_algebras
from quadfrob import corpus
from quadfrob.intlin import reduce_units
from quadfrob.linkhom import build_complex
from test_golden_homology import GOLDEN, diagram

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


def capture():
    algebras = corpus_of(fixture_algebras())
    return {key: remainder_record(key, algebras) for key in KEYS}


def test_every_key_is_frozen(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_remainder_matches_golden(key, golden, algebra_corpus):
    assert remainder_record(key, algebra_corpus) == golden[key]
