"""Golden ``link homology --format json`` payloads of two former stalls.

T(3,4) = ``braid_closure((1, 2) * 4, 3)`` over ``eps1``,
``family_eps_x_one(mu, 2, 1+w, 1, 1)``, and T(3,5) over the command line's
default algebra ``eps0``, ``family_eps_x_zero(mu, 2, 0, 1, 1)``.  Their
remainders after unit elimination (32x39 and 126x126 blocks) once took about
10 s and 90 s in a dense Smith form.  ``former_stalls_golden.json`` holds, per
case, the command's JSON payload: ``homology``, ``k_dims``, ``chain_ranks``
and ``simplified_ranks``.  It was captured from the dense route.  The
payload's ``homology.checks`` is not stored: it must be what
``conftest.expected_checks`` gives for the case's torsion.  Rerun
``python tests/test_former_stalls_golden.py`` only when the output is meant
to change.
"""

import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadfrob import Ideal, RingContext, corpus  # noqa: E402
from quadfrob.cli import _homology_payload  # noqa: E402
from quadfrob.frobenius import family_eps_x_one, family_eps_x_zero  # noqa: E402

from conftest import expected_checks  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("former_stalls_golden.json")

CASES = {"eps1/T3_4": ("eps1", 4), "eps0/T3_5": ("eps0", 5)}


def build_algebras():
    ctx = RingContext(-5)
    mu = Ideal.from_generators(ctx, [ctx(2), ctx(1, 1)])
    return {
        "eps0": family_eps_x_zero(mu, ctx(2), ctx.zero, ctx.one, ctx.one),
        "eps1": family_eps_x_one(mu, ctx(2), ctx(1, 1), ctx.one, ctx.one),
    }


def payload(key, algebras):
    """The case's JSON payload, and the ``checks`` popped from its
    ``homology``."""
    aname, n = CASES[key]
    out = json.loads(json.dumps(_homology_payload(corpus.braid_closure((1, 2) * n, 3), algebras[aname])))
    return out, out["homology"].pop("checks")


@pytest.fixture(scope="module")
def algebras(alg_eps0, alg_eps1):
    return {"eps0": alg_eps0, "eps1": alg_eps1}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_golden_holds_both_cases(golden):
    assert sorted(golden) == sorted(CASES)
    torsion = {key: {d: v["torsion"] for d, v in golden[key]["homology"]["degrees"].items()} for key in CASES}
    assert torsion["eps1/T3_4"] == {"0": [], "3": ["49"], "5": ["49", "49"]}
    assert torsion["eps0/T3_5"] == {"0": [], "3": ["2"] * 4, "5": ["4"] * 4, "7": ["2"] * 4}
    assert "mod_7" in expected_checks(golden["eps1/T3_4"]["homology"])


@pytest.mark.parametrize("key", sorted(CASES))
def test_former_stall_matches_golden(key, golden, algebras):
    out, checks = payload(key, algebras)
    assert out == golden[key]
    assert checks == expected_checks(out["homology"])


if __name__ == "__main__":
    algs = build_algebras()
    out = {key: payload(key, algs)[0] for key in CASES}
    GOLDEN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
