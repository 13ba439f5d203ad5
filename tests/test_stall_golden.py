"""Golden homology of the former stalls of the ``torsion`` benchmark.

The benchmark's ``known_stalls`` list the jobs that once ran past their
budget: T(2,4) and T(2,5) and 46 four-crossing 3-braids over the worked
algebra ``example_zsqrtm5(1, 1)`` and over ``eps1``,
``family_eps_x_one(mu, 2, 1+w, 1, 1)``.  All of them finish now.  The worked
T(2,4) and T(2,5) are golden in ``test_golden_homology``; for the other 48,
``stall_golden.json`` holds per degree the free Z-rank and the torsion, and
the nonzero K-dimensions.  The ``checks`` list of ``homology_integral`` is
not stored: each case's list must be what ``conftest.expected_checks``
gives for its torsion.  The braid names use +i for s_i and -i for s_i^-1,
as in the benchmark.  Rerun ``python tests/golden.py`` only when the output
is meant to change.
"""

from pathlib import Path

import pytest

from quadfrob import corpus
from quadfrob.linkhom import build_complex, homology_integral, homology_over_K

from conftest import expected_checks, fixture_algebras

GOLDEN_FILE = Path(__file__).with_name("stall_golden.json")

BRAIDS = {
    "eps1": (
        "b-1222 b-2-1-11 b-2-1-21 b-2-1-22 b-2-121 b-2-2-12 b-2-212 b-2-22-1 b-2111"
    ),
    "worked": (
        "b-1-121 b-1121 b-1122 b-1211 b-1221 b-1222 b-2-1-11 b-2-1-12 b-2-1-21"
        " b-2-1-22 b-2-11-1 b-2-111 b-2-112 b-2-12-1 b-2-121 b-2-122 b-2-2-12"
        " b-2-212 b-2-22-1 b-21-1-1 b-21-11 b-21-12 b-21-21 b-21-22 b-211-1"
        " b-2111 b-2112 b-212-1 b-2121 b-2122 b-22-1-1 b-22-11 b-22-12 b-221-1"
        " b-2211 b-2212 b-222-1"
    ),
}
KEYS = ["eps1/T2_4", "eps1/T2_5"] + [f"{a}/{name}" for a, names in BRAIDS.items() for name in names.split()]


def parse_word(name):
    """'b-12-1' -> (-1, 2, -1): one digit per generator, '-' for an inverse."""
    word, sign = [], 1
    for ch in name[1:]:
        if ch == "-":
            sign = -1
        else:
            word.append(sign * int(ch))
            sign = 1
    return tuple(word)


def stall_record(key, algebras):
    """(golden record, homology report) of one stall."""
    aname, name = key.split("/")
    if name.startswith("T2_"):
        pd = corpus.braid_closure((1,) * int(name[3:]), 2)
    else:
        pd = corpus.braid_closure(parse_word(name), 3)
    cx = build_complex(pd, algebras[aname])
    h = homology_integral(cx)
    record = {
        "homology": {str(i): [v["z_rank"], v["torsion"]] for i, v in sorted(h.degrees.items())},
        "k_dims": {str(i): d for i, d in sorted(homology_over_K(cx).items())},
    }
    return record, h


def capture():
    algebras = fixture_algebras()
    return {key: stall_record(key, algebras)[0] for key in KEYS}


def test_every_stall_is_frozen(golden):
    assert len(KEYS) == len(set(KEYS)) == 48
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_stall_matches_golden(key, golden, algebras):
    record, h = stall_record(key, algebras)
    assert record == golden[key]
    assert h.checks == expected_checks(h.to_json())
