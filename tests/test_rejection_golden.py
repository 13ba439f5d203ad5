"""Golden outcomes of algebra validation, accepted and rejected.

``rejection_golden.json`` holds about 300 seeded ``FrobeniusData`` over five
(d, mu, z) settings, plus hand-picked cases that reach every rejection path
at least once.  For each case it records the input, the outcome of
``build_algebra`` (``ok`` or the exception class and message) and a SHA-256
of the JSON of ``analyze``'s report.  It also records, for each ring, A's
sqrt(d)-action on the Z-basis (1, sqrt(d), g1 X, g2 X) and the two sqrt(d)
blocks the cube's chain groups use (``MuZLattice.sqrt_d_blocks``) on an
algebra of that ring.  Rerun
``python tests/test_rejection_golden.py`` only when the output is meant to
change.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quadfrob import Ideal, RingContext  # noqa: E402
from quadfrob.frobenius import FrobeniusData, analyze, build_algebra, search_solutions  # noqa: E402
from quadfrob.ring import parse_element  # noqa: E402

GOLDEN_FILE = Path(__file__).with_name("rejection_golden.json")

# (d, generators of mu, z) with mu^2 = (z); the last one has mu principal
RINGS = (
    (-5, "2,1+w", "2"),
    (-6, "2,w", "2"),
    (-10, "2,w", "2"),
    (-13, "2,1+w", "2"),
    (-5, "1", "1"),
)
SEED = 12
N_SEEDED = 300

# (d, mu, z, a_bar, b_bar, eps_one, eps_x_bar, relax) and the path each reaches
HAND_PICKED = (
    (-6, "2,w", "2", "-3", "-3+3w", "0", "2-w", True),  # t_bar_in_O under relax
    (-6, "2,w", "2", "4+w", "0", "2+w", "0", False),  # DegenerateTraceError
    (-5, "1", "1", "0", "1", "0", "0", False),  # eps(1) = 0 and degenerate: NonvanishingError
    (-6, "2,w", "2", "-4+3w", "0", "2+2w", "-2-2w", False),  # c_in_O
    (-10, "2,w", "2", "0", "0", "2-w", "2-4w", False),  # d_in_mu
    (-6, "2,w", "2", "2+4w", "4w", "1", "0", False),  # d_prime_in_O
    (-5, "2,1+w", "3", "0", "1", "1", "0", False),  # mu_squared_is_principal_z
    (-5, "2,1+w", "2", "1+w", "1", "1", "3", False),  # eps_x_bar_in_mu
    (-5, "2,1+w", "2", "1", "1", "1", "0", False),  # a_bar_in_mu
    (-5, "2,1+w", "2", "1", "1", "1", "0", True),  # accepted under relax
    (-5, "2,1+w", "2", "1-w", "-6+w", "1", "1+w", False),  # the worked example, accepted
    (-5, "1", "1", "0", "1", "1", "0", False),  # free sanity algebra, accepted
)


def _ring(d, gens):
    ctx = RingContext(d)
    return ctx, Ideal.from_generators(ctx, [parse_element(ctx, g) for g in gens.split(",")])


def seeded_cases(seed=SEED, n=N_SEEDED):
    """ā, b̄, ε̄_X from a box of ±4 per coordinate and ε(1) from ±2, each
    zero a quarter of the time; z random for 10 % of cases, relax for 30 %."""
    r = random.Random(seed)
    out = []
    for _ in range(n):
        d, gens, z = r.choice(RINGS)
        ctx, mu = _ring(d, gens)

        def draw(bound):
            return ctx.zero if r.random() < 0.25 else ctx(r.randint(-bound, bound), r.randint(-bound, bound))

        zz = parse_element(ctx, z) if r.random() >= 0.1 else draw(4)
        relax = r.random() < 0.3
        data = FrobeniusData(ctx, mu, zz, draw(4), draw(4), draw(2), draw(4))
        out.append((data, relax))
    return out


def hand_picked_cases():
    out = []
    for d, gens, z, *params, relax in HAND_PICKED:
        ctx, mu = _ring(d, gens)
        z_elt, *elts = (parse_element(ctx, s) for s in (z, *params))
        out.append((FrobeniusData(ctx, mu, z_elt, *elts), relax))
    return out


def outcome(data, relax):
    try:
        build_algebra(data, relax_a_bar=relax)
    except Exception as exc:  # the class and message are the record
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def report_digest(data, relax):
    try:
        report = analyze(data, relax_a_bar=relax)[1]
    except Exception:
        return None
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


def case_record(data, relax):
    return {
        "data": data.to_json(),
        "relax": relax,
        "outcome": outcome(data, relax),
        "report_sha256": report_digest(data, relax),
    }


def ring_key(ring):
    return "/".join(str(part) for part in ring)


def lattice_record(d, gens, z):
    ctx, mu = _ring(d, gens)
    alg = next(search_solutions(mu, parse_element(ctx, z), coord_bound=1, limit=1))
    return {
        "algebra": alg.data.to_json(),
        "A_action": alg.mu_z.A.action,
        "sqrt_d_blocks": [[list(row) for row in block] for block in alg.mu_z.sqrt_d_blocks],
    }


def capture():
    cases = [case_record(*c) for c in seeded_cases() + hand_picked_cases()]
    lattices = {ring_key(ring): lattice_record(*ring) for ring in RINGS}
    return {"cases": cases, "lattices": lattices}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_FILE.read_text())


def test_every_path_is_reached(golden):
    cases = golden["cases"]
    assert len(cases) == N_SEEDED + len(HAND_PICKED)
    outcomes = {c["outcome"] for c in cases}
    cells = ("mu_squared_is_principal_z", "a_bar_in_mu", "eps_x_bar_in_mu", "t_bar_in_O",
             "c_in_O", "d_in_mu", "d_prime_in_O")
    for cell in cells:
        assert f"IntegralityViolationError: integrality table cell failed: {cell}" in outcomes
    assert "NonvanishingError: eps(1) must be nonzero" in outcomes
    assert "DegenerateTraceError: pairing determinant is zero" in outcomes
    assert "ok" in outcomes
    relaxed = {c["outcome"] for c in cases if c["relax"]}
    assert "IntegralityViolationError: integrality table cell failed: t_bar_in_O" in relaxed
    assert "ok" in relaxed


def test_inputs_are_the_seeded_and_hand_picked_cases(golden):
    expected = [{"data": data.to_json(), "relax": relax} for data, relax in seeded_cases() + hand_picked_cases()]
    assert [{"data": c["data"], "relax": c["relax"]} for c in golden["cases"]] == expected


def test_outcomes_match_golden(golden):
    for case in golden["cases"]:
        data = FrobeniusData.from_json(case["data"])
        assert case_record(data, case["relax"]) == case, case["data"]


@pytest.mark.parametrize("ring", RINGS, ids=ring_key)
def test_lattice_matches_golden(ring, golden):
    assert lattice_record(*ring) == golden["lattices"][ring_key(ring)]


if __name__ == "__main__":
    golden = capture()
    cases = ",\n".join(json.dumps(c, sort_keys=True) for c in golden["cases"])
    lattices = json.dumps(golden["lattices"], indent=1, sort_keys=True)
    GOLDEN_FILE.write_text(f'{{"cases": [\n{cases}\n],\n"lattices": {lattices}}}\n')
    print(f"wrote {GOLDEN_FILE}")
