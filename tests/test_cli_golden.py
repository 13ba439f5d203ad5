"""Golden JSON output of the command line, byte for byte.

``cli_golden.json`` holds the input files (the worked algebra, the
trefoil and figure-8 diagrams, and two algebras over Z[sqrt(-21)], where
Cl(O) = (Z/2)^2, with mu in the two classes of order two of (2,1+w) and
(3,w)) and, per case, the argument list, the exit
code and the exact standard output of ``--format json``.  The outputs were
captured from the code before the value classes were rewritten without
``dataclasses``; a change to any ``to_json``, ``str`` or ``repr`` that feeds
the output shows here.  Rerun ``python tests/test_cli_golden.py`` only when
the output is meant to change.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("cli_golden.json")

WORKED = ("--alg", "{worked}")
CASES = {
    "ideal-classinfo": ("ideal", "classinfo", "-d", "-5", "--gens", "2,1+w"),
    "example-zsqrtm5": ("algebra", "example-zsqrtm5"),
    "example-zsqrtm5-s-1": ("algebra", "example-zsqrtm5", "--s", "-1"),
    "example-zsqrtm5-eps1-1": ("algebra", "example-zsqrtm5", "--eps1", "-1"),
    "example-zsqrtm5-s-1-eps1-1": ("algebra", "example-zsqrtm5", "--s", "-1", "--eps1", "-1"),
    "family-eps0": ("algebra", "family-eps0", "--abar", "0", "--bbar", "1", "--eps1", "1"),
    "family-eps0-abar1": ("algebra", "family-eps0", "--abar", "1", "--bbar", "1", "--eps1", "1"),
    "family-eps1": ("algebra", "family-eps1", "--abar", "1+w", "--eps1", "1", "--dbar", "1"),
    "search-d-5": ("algebra", "search", "-d", "-5", "--bound", "1", "--limit", "3"),
    "search-d-6": ("algebra", "search", "-d", "-6", "--mu", "2,w", "--bound", "1", "--limit", "3"),
    "validate-worked": ("algebra", "validate", *WORKED),
    "validate-worked-relax": ("algebra", "validate", *WORKED, "--relax"),
    "twist-3": ("algebra", "twist", "--type", "3", "--param", "-1"),
    "twist-1": ("algebra", "twist", "--type", "1", "--param", "-1"),
    "twist-2": ("algebra", "twist", "--type", "2", "--param", "2"),
    "twist-3-worked": ("algebra", "twist", *WORKED, "--type", "3", "--param", "-1"),
    "kernel": ("kernel",),
    "kernel-worked": ("kernel", *WORKED),
    "tqft": ("tqft",),
    "tqft-worked": ("tqft", *WORKED),
}
for _alg, _extra in (("default", ()), ("worked", WORKED)):
    for _knot in ("trefoil", "figure8"):
        CASES[f"homology-{_knot}-{_alg}"] = ("link", "homology", "--pd", f"{{{_knot}}}", *_extra)
        CASES[f"lee-check-{_knot}-{_alg}"] = ("link", "lee-check", "--pd", f"{{{_knot}}}", *_extra)
    CASES[f"compare-{_alg}"] = ("link", "compare", "--pd1", "{trefoil}", "--pd2", "{figure8}", *_extra)
# (d, generators of mu, z) of the Z[sqrt(-21)] inputs; each is the first
# algebra ``algebra search`` finds at bound 1
D21_RINGS = {"d21_mu2": (-21, "2,1+w", "2"), "d21_mu3": (-21, "3,w", "3")}
for _alg in D21_RINGS:
    CASES[f"homology-trefoil-{_alg}"] = ("link", "homology", "--pd", "{trefoil}", "--alg", f"{{{_alg}}}")


def _write_inputs(inputs, directory):
    paths = {}
    for name, obj in inputs.items():
        path = Path(directory) / f"{name}.json"
        path.write_text(json.dumps(obj))
        paths[name] = str(path)
    return paths


def _run(argv, paths):
    from quadfrob.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([a.format(**paths) for a in argv] + ["--format", "json"])
    return code, out.getvalue()


def _capture(directory):
    from conftest import ring_of
    from quadfrob import corpus
    from quadfrob.frobenius import example_zsqrtm5, search_solutions

    inputs = {
        "worked": example_zsqrtm5(1, 1).data.to_json(),
        "trefoil": corpus.diagram("trefoil").to_json(),
        "figure8": corpus.diagram("figure8").to_json(),
    }
    for name, ring in D21_RINGS.items():
        _, mu, z = ring_of(*ring)
        inputs[name] = next(search_solutions(mu, z, coord_bound=1)).data.to_json()
    paths = _write_inputs(inputs, directory)
    cases = {}
    for name, argv in CASES.items():
        code, out = _run(argv, paths)
        cases[name] = {"argv": list(argv), "exit": code, "stdout": out}
    return {"inputs": inputs, "cases": cases}


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    data = json.loads(GOLDEN.read_text())
    return data, _write_inputs(data["inputs"], tmp_path_factory.mktemp("golden"))


def test_every_case_is_frozen(golden):
    data, _ = golden
    assert {k: tuple(v["argv"]) for k, v in data["cases"].items()} == CASES


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, golden):
    data, paths = golden
    case = data["cases"][name]
    code, out = _run(case["argv"], paths)
    assert code == case["exit"]
    assert out == case["stdout"]


def _reports(obj):
    """Every homology report inside a parsed output: the objects that hold
    a ``checks`` list."""
    if isinstance(obj, dict):
        if "checks" in obj:
            yield obj
        for value in obj.values():
            yield from _reports(value)


def test_the_check_rule_reproduces_the_anchors(golden, alg_worked):
    """``conftest.expected_checks``, which the stall goldens are held to,
    against the literal lists of this file: the 10 reports of its 8
    ``link homology`` and ``link compare`` records.  On a remainder the
    list starts at ``remainder_d_squared``; the worked trefoil's torsion
    721 = 7 * 103 adds ``mod_7`` and ``mod_103``."""
    from conftest import expected_checks
    from quadfrob import corpus
    from quadfrob.linkhom import build_complex, homology_integral, simplify

    data, _ = golden
    records = {name: list(_reports(json.loads(case["stdout"]))) for name, case in data["cases"].items()}
    reports = [r for found in records.values() for r in found]
    assert sum(1 for found in records.values() if found) == 8 and len(reports) == 10
    for report in reports:
        assert report["checks"] == expected_checks(report)

    remainder = homology_integral(simplify(build_complex(corpus.diagram("trefoil"), alg_worked)))
    assert [d["torsion"] for d in remainder.degrees.values() if d["torsion"]] == [[721]]
    assert remainder.checks == expected_checks(remainder.to_json(), built=False)
    assert remainder.checks[0] == "remainder_d_squared"
    assert {"mod_7", "mod_103"} <= set(remainder.checks)
    assert not {"d_squared", "equivariance"} & set(remainder.checks)


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(_capture(tmp), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
