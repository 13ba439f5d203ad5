import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    RINGS,
    bump_m_entry,
    bump_one_edge_entry,
    bump_remainder_entry,
    double_x_u_off_the_generators,
    freeze_first_crossing,
    negate_a2_action,
    ring_of,
)
from quadfrob import Ideal, RingContext, corpus, frobenius, linkhom, omodule
from quadfrob.cli import main, make_parser
from quadfrob.frobenius import (
    FrobeniusData,
    InconsistentRoutesError,
    analyze,
    build_algebra,
    example_zsqrtm5,
    family_eps_x_one,
    family_eps_x_zero,
    search_solutions,
)
from quadfrob.omodule import AlgebraLattice, DirectSumFailureError, MultiplicationLattice, MuZLattice
from quadfrob.ring import RingElement


REAL_QUADRATIC = "real quadratic d = {}: only imaginary quadratic rings (d < 0) are supported"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def test_ideal_classinfo(capsys):
    code, payload, _ = run_json(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "2,1+w")
    assert code == 0
    assert payload["hnf"] == [["2", "0"], ["1", "1"]]
    assert payload["norm"] == 2
    assert payload["principal"] is False
    assert payload["order_two"] is True
    assert payload["z"] in ("2", "-2")


def test_ideal_classinfo_large_d_is_malformed(capsys):
    code, out, err = run(capsys, "ideal", "classinfo", "-d", str(-(2**32 + 2)), "--gens", "2")
    assert code == 3
    assert out == ""
    assert "must be below 2**32" in err


def test_ideal_classinfo_principal(capsys):
    code, payload, _ = run_json(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "1")
    assert code == 0
    assert payload["principal"] is True
    assert payload["order_two"] is False


def test_ideal_classinfo_mu3(capsys):
    code, payload, _ = run_json(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "3,1+w")
    assert code == 0
    assert payload["order_two"] is True


def test_ideal_classinfo_square_not_principal(capsys):
    # Cl(Z[sqrt(-14)]) is cyclic of order 4: (3, 1+w) squared is not principal
    code, out, err = run(capsys, "ideal", "classinfo", "-d", "-14", "--gens", "3,1+w")
    assert code == 0
    assert err == ""
    assert out.splitlines()[-1] == "  not of order two: (3, 1+w) squared is not principal"


def test_a_space_inside_a_number_is_malformed(capsys):
    code, out, err = run(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "1 0,1+w")
    assert (code, out) == (3, "")
    assert err.strip() == "malformed input: cannot parse element '1 0'"


def test_a_non_ascii_digit_is_malformed(capsys):
    code, out, err = run(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "\u0663,1+w")
    assert (code, out) == (3, "")
    assert err.strip() == "malformed input: cannot parse element '\u0663'"


def test_an_unbuildable_d_is_malformed(capsys):
    message = "malformed input: d = 1 (mod 4) not supported: {1, sqrt(d)} must be an integral basis"
    assert run(capsys, "algebra", "search", "-d", "5") == (3, "", message + "\n")


def test_algebra_example(capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5", "--s", "1", "--eps1", "1")
    assert code == 0
    assert payload["report"]["accepted"] is True
    assert payload["data"]["b_bar"] == {"x": "-6", "y": "1"}
    assert payload["epsilon_tilde_det"] in (1, -1)
    assert payload["report"]["equations"]["eq42"] is True
    assert payload["report"]["equations"]["eq45"] is True


def test_algebra_validate_roundtrip(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps(payload["data"]))
    code, payload2, _ = run_json(capsys, "algebra", "validate", "--alg", str(spec))
    assert code == 0
    assert payload2["report"]["accepted"] is True


def test_algebra_validate_rejects(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    data = payload["data"]
    data["eps_one"] = {"x": "0", "y": "0"}
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(data))
    code, payload2, _ = run_json(capsys, "algebra", "validate", "--alg", str(spec))
    assert code == 2


def test_algebra_validate_names_the_failed_cell(tmp_path, capsys):
    # a_bar = 1 is not in mu = (2, 1+w): the cell kernel and tqft name too
    code, payload, _ = run_json(
        capsys, "algebra", "family-eps0", "--abar", "1", "--bbar", "1", "--eps1", "1",
    )
    assert code == 0
    spec = tmp_path / "relaxed.json"
    spec.write_text(json.dumps(payload["data"]))
    code, out, err = run(capsys, "algebra", "validate", "--alg", str(spec))
    assert code == 2
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "rejected: integrality table cell failed: a_bar_in_mu"
    assert "  [FAIL] a_bar_in_mu" in lines
    assert "  [ok] eps_x_bar_in_mu" in lines
    code, payload2, _ = run_json(capsys, "algebra", "validate", "--alg", str(spec))
    assert code == 2
    assert set(payload2) == {"report"}
    assert payload2["report"]["accepted"] is False
    assert payload2["report"]["cells"]["a_bar_in_mu"] is False


def test_algebra_families(capsys):
    code, payload, _ = run_json(
        capsys, "algebra", "family-eps0", "-d", "-5",
        "--abar", "0", "--bbar", "1", "--eps1", "1",
    )
    assert code == 0
    assert payload["report"]["accepted"] is True
    code, payload, _ = run_json(
        capsys, "algebra", "family-eps1", "-d", "-5",
        "--abar", "1+w", "--eps1", "1", "--dbar", "1",
    )
    assert code == 0
    assert payload["data"]["b_bar"] == {"x": "0", "y": "-1"}


def test_algebra_family_rejects_nonunit(capsys):
    code, _, err = run(
        capsys, "algebra", "family-eps0", "-d", "-5",
        "--abar", "0", "--bbar", "2", "--eps1", "1",
    )
    assert code == 2
    assert "rejected" in err


def test_algebra_family_eps1_rejects_a_nonunit_d_underbar(capsys):
    code, out, err = run(
        capsys, "algebra", "family-eps1", "--abar", "1+w", "--eps1", "1", "--dbar", "2",
    )
    assert (code, out) == (2, "")
    assert err.strip() == "rejected: d_underbar = 2 is not a unit"


REAL_ALGEBRA = {"d": 2, "mu_gens": [{"x": "2", "y": "0"}, {"x": "0", "y": "1"}], "z": {"x": "2", "y": "0"},
                "a_bar": {"x": "0", "y": "0"}, "b_bar": {"x": "1", "y": "0"}, "eps_one": {"x": "1", "y": "0"},
                "eps_x_bar": {"x": "0", "y": "0"}}


@pytest.mark.parametrize("argv, d", [
    (("ideal", "classinfo", "-d", "2", "--gens", "2,w"), 2),
    (("algebra", "family-eps0", "-d", "3", "--abar", "0", "--bbar", "1", "--eps1", "1"), 3),
    (("algebra", "family-eps1", "-d", "6", "--abar", "0", "--eps1", "1", "--dbar", "1"), 6),
    (("algebra", "search", "-d", "2"), 2),
    (("algebra", "validate", "--alg", "{alg}"), 2),
    (("algebra", "twist", "--alg", "{alg}", "--type", "3", "--param", "-1"), 2),
    (("kernel", "--alg", "{alg}"), 2),
    (("tqft", "--alg", "{alg}"), 2),
    (("link", "homology", "--alg", "{alg}", "--pd", "{pd}"), 2),
    (("link", "lee-check", "--alg", "{alg}", "--pd", "{pd}"), 2),
])
def test_every_entry_point_refuses_a_real_quadratic_ring_alike(argv, d, tmp_path, capsys):
    alg, pd = tmp_path / "real.json", tmp_path / "t23.json"
    alg.write_text(json.dumps(REAL_ALGEBRA))
    pd.write_text(json.dumps(corpus.braid_closure((1, 1, 1), 2).to_json()))
    argv = [arg.format(alg=alg, pd=pd) for arg in argv]
    assert run(capsys, *argv) == (2, "", "rejected: " + REAL_QUADRATIC.format(d) + "\n")


def test_algebra_twist(capsys):
    code, payload, _ = run_json(capsys, "algebra", "twist", "--type", "3", "--param", "-1")
    assert code == 0
    assert payload["report"]["accepted"] is True
    assert payload["data"]["eps_one"] == {"x": "-1", "y": "0"}


def test_algebra_search(capsys):
    code, payload, _ = run_json(
        capsys, "algebra", "search", "-d", "-5", "--bound", "1", "--limit", "2",
    )
    assert code == 0
    assert payload["count"] >= 1


def test_algebra_search_limit_zero_and_negative(capsys):
    argv = ("algebra", "search", "-d", "-5", "--bound", "1", "--limit")
    code, payload, _ = run_json(capsys, *argv, "0")
    assert code == 0
    assert payload["count"] == 0
    code, payload, err = run_json(capsys, *argv, "-3")
    assert code == 3
    assert payload is None
    assert "limit must be nonnegative" in err


def test_negative_search_bounds_are_malformed(capsys):
    for argv in (("algebra", "search", "-d", "-5", "--bound", "-1"), ("kernel", "--bound", "-3")):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "bound must be nonnegative" in err


def test_search_rejects_z_like_the_families(capsys):
    for action, extra in (("search", ("--bound", "1")), ("family-eps0", ("--abar", "0", "--bbar", "1", "--eps1", "1"))):
        argv = ("algebra", action, "-d", "-5", *extra, "--z")
        code, out, err = run(capsys, *argv, "0")
        assert (code, out) == (3, ""), action
        assert err.strip() == "malformed input: z must be nonzero"
        code, out, err = run(capsys, *argv, "3")
        assert (code, out) == (2, ""), action
        assert err.strip() == "rejected: integrality table cell failed: mu_squared_is_principal_z"


@pytest.mark.parametrize("action, extra", [
    ("family-eps0", ("--abar", "0", "--bbar", "1", "--eps1", "1")),
    ("family-eps1", ("--abar", "1+w", "--eps1", "1", "--dbar", "1")),
])
def test_both_families_refuse_zero_z(action, extra, capsys):
    argv = ("algebra", action, "-d", "-5", *extra, "--z", "0")
    assert run(capsys, *argv) == (3, "", "malformed input: z must be nonzero\n")


def test_kernel_command(capsys):
    code, payload, _ = run_json(capsys, "kernel")
    assert code == 0
    assert payload["iso_to_A"] is True
    assert payload["generator"]["eq87"] == {"x": "-1", "y": "0"}


def test_kernel_text_without_a_generator_in_bound(tmp_path, capsys):
    # the worked algebra's generator is at u = -1-w, outside bound 0
    alg = tmp_path / "worked.json"
    alg.write_text(json.dumps(frobenius.example_zsqrtm5(1, 1).data.to_json()))
    code, out, _ = run(capsys, "kernel", "--alg", str(alg), "--bound", "0")
    assert code == 0
    assert "  no single generator found within bound 0" in out.splitlines()


def test_link_corpus_and_homology(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "link", "corpus", "--out-dir", str(tmp_path))
    assert code == 0
    assert len(payload["written"]) == 7
    pd = os.path.join(str(tmp_path), "unknot0.json")
    code, payload, _ = run_json(capsys, "link", "homology", "--pd", pd)
    assert code == 0
    assert payload["homology"]["degrees"]["0"]["z_rank"] == 4
    assert payload["homology"]["total_k_dim"] == 2


def test_link_homology_worked_t25(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    alg = tmp_path / "worked.json"
    alg.write_text(json.dumps(payload["data"]))
    pd = tmp_path / "t25.json"
    pd.write_text(json.dumps(corpus.braid_closure((1, 1, 1, 1, 1), 2).to_json()))
    code, payload, _ = run_json(capsys, "link", "homology", "--pd", str(pd), "--alg", str(alg))
    assert code == 0
    degrees = payload["homology"]["degrees"]
    assert {i: (v["z_rank"], v["torsion"]) for i, v in degrees.items()} == {
        "0": (4, []), "3": (0, ["721"]), "5": (0, ["721"]),
    }
    assert payload["k_dims"] == {"0": 2}
    assert {"k_rank_vs_z_rank", "mod_2", "mod_7", "mod_103"} <= set(payload["homology"]["checks"])


def test_link_compare(tmp_path, capsys):
    run_json(capsys, "link", "corpus", "--out-dir", str(tmp_path))
    code, payload, _ = run_json(
        capsys, "link", "compare",
        "--pd1", os.path.join(str(tmp_path), "unknot0.json"),
        "--pd2", os.path.join(str(tmp_path), "unknot_r1plus.json"),
    )
    assert code == 0
    assert payload["integral_equal"] is True
    assert payload["k_dims_equal"] is True


def test_link_compare_per_degree_entries_are_the_reports_entries(tmp_path, capsys):
    pds = {}
    for name in ("trefoil", "figure8"):
        pds[name] = tmp_path / f"{name}.json"
        pds[name].write_text(json.dumps(corpus.diagram(name).to_json()))
    code, payload, _ = run_json(capsys, "link", "compare", "--pd1", str(pds["trefoil"]), "--pd2", str(pds["figure8"]))
    assert code == 0
    empty = {"z_rank": 0, "torsion": [], "k_dim": 0}
    torsion = []
    for deg, row in payload["per_degree"].items():
        for side in ("left", "right"):
            assert row[side] == payload[side]["degrees"].get(deg, empty)
            torsion += row[side]["torsion"]
    assert torsion and all(isinstance(t, str) for t in torsion)


def test_link_lee_check(tmp_path, capsys):
    run_json(capsys, "link", "corpus", "--out-dir", str(tmp_path))
    code, payload, _ = run_json(
        capsys, "link", "lee-check", "--pd", os.path.join(str(tmp_path), "hopf.json"),
    )
    assert code == 0
    assert payload["matches"] is True
    assert payload["total_k_dim"] == 4


def test_link_malformed_pd(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"crossings": [[1, 2, 3, 4]], "signs": [1]}))
    code, _, err = run(capsys, "link", "homology", "--pd", str(bad))
    assert code == 3
    assert "malformed" in err


def test_link_non_planar_pd_is_malformed(tmp_path, capsys):
    bad = tmp_path / "torus.json"
    bad.write_text(json.dumps({"crossings": [[3, 2, 1, 4], [1, 4, 3, 2]], "signs": [1, 1]}))
    code, _, err = run(capsys, "link", "homology", "--pd", str(bad))
    assert code == 3
    assert "not planar" in err


def test_an_edge_that_keeps_its_circles_is_malformed(tmp_path, monkeypatch, capsys):
    freeze_first_crossing(monkeypatch)
    code, out, err = run(capsys, "link", "homology", "--pd", _trefoil_file(tmp_path))
    assert (code, out) == (3, "")
    assert err.strip() == "malformed input: edge (0, 0, 0)->(1, 0, 0) changes circles 2->2"


def test_a_lookup_fault_inside_a_command_is_not_malformed_input(tmp_path, monkeypatch):
    def fault(pd, vertex):
        raise KeyError("arc 7")

    monkeypatch.setattr(linkhom, "_circles_at", fault)
    with pytest.raises(KeyError, match="arc 7"):
        main(["link", "homology", "--pd", _trefoil_file(tmp_path)])


HOPF = {"crossings": [[1, 3, 4, 2], [3, 1, 2, 4]], "signs": [1, 1]}


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"crossings": 5, "signs": []},
    {"crossings": [5], "signs": [1]},
    {"crossings": [[1, 1, 2, 2]], "signs": 1},
    {**HOPF, "loops": None},
    {**HOPF, "loops": 2.5},
    {**HOPF, "loops": True},
    {**HOPF, "signs": [1.0, 1]},
    {**HOPF, "crossings": [[1, 3, 4, 2], [3, 1, 2, 4.0]]},
    {**HOPF, "crossings": [[1, 3, 4, 2], [3, 1, 2, "4"]]},
], ids=["list", "crossings-int", "crossing-int", "signs-int", "loops-null", "loops-float", "loops-bool",
        "sign-float", "label-float", "label-string"])
def test_pd_json_of_the_wrong_shape_is_malformed(payload, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run(capsys, "link", "homology", "--pd", str(bad))
    assert code == 3
    assert out == "" and err.startswith("malformed input:")


def test_pd_json_loops_default_to_zero(tmp_path, capsys):
    pd = tmp_path / "hopf.json"
    pd.write_text(json.dumps(HOPF))
    code, payload, _ = run_json(capsys, "link", "homology", "--pd", str(pd))
    assert code == 0
    assert payload["homology"]["total_k_dim"] == 4


@pytest.mark.parametrize("change", [
    lambda data: [],
    lambda data: {**data, "mu_gens": 3},
    lambda data: {**data, "mu_gens": [3, 4]},
    lambda data: {**data, "d": -5.0},
    lambda data: {**data, "d": True},
    lambda data: {**data, "z": {"x": 2.0, "y": "0"}},
    lambda data: {**data, "z": {"x": "2", "y": False}},
    lambda data: {**data, "a_bar": "1-w"},
], ids=["list", "mu_gens-int", "mu_gens-ints", "d-float", "d-bool", "x-float", "y-bool", "element-string"])
def test_algebra_json_of_the_wrong_shape_is_malformed(change, tmp_path, capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(change(payload["data"])))
    for argv in (("algebra", "validate", "--alg", str(bad)), ("link", "homology", "--pd", "x", "--alg", str(bad))):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and err.startswith("malformed input:")


def test_a_missing_key_is_malformed_and_named(tmp_path, capsys):
    _, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    no_z = tmp_path / "no_z.json"
    no_z.write_text(json.dumps({k: v for k, v in payload["data"].items() if k != "z"}))
    no_crossings = tmp_path / "no_crossings.json"
    no_crossings.write_text(json.dumps({"signs": [1, 1]}))
    for argv, key in [
        (("link", "homology", "--pd", str(no_crossings)), "crossings"),
        (("algebra", "validate", "--alg", str(no_z)), "z"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.strip() == f"malformed input: missing key {key!r}"


def test_algebra_json_integers_in_either_form(tmp_path, capsys):
    code, payload, _ = run_json(capsys, "algebra", "example-zsqrtm5")
    spec = tmp_path / "alg.json"
    spec.write_text(json.dumps({**payload["data"], "z": {"x": 2, "y": 0}}))
    code, payload2, _ = run_json(capsys, "algebra", "validate", "--alg", str(spec))
    assert code == 0
    assert payload2["data"] == payload["data"]


def test_missing_file_is_malformed(capsys):
    code, _, err = run(capsys, "link", "homology", "--pd", "/nonexistent.json")
    assert code == 3


def test_tqft(capsys):
    code, payload, _ = run_json(capsys, "tqft", "--genus", "2")
    assert code == 0
    assert payload["genus_values"] == {"0": "1", "1": "2", "2": "4"}


def test_tqft_applies_the_handle_once_per_genus(monkeypatch, alg_eps0, capsys):
    # alg_eps0 is the CLI's default algebra
    calls = []
    real = frobenius.mat_vec
    monkeypatch.setattr(frobenius, "mat_vec", lambda *a: calls.append(1) or real(*a))
    code, payload, _ = run_json(capsys, "tqft", "--genus", "50")
    assert code == 0
    assert len(calls) <= 50
    assert payload["genus_values"] == {str(g): str(alg_eps0.closed_surface_invariant(g)) for g in range(51)}


def test_tqft_negative_genus_is_malformed(capsys):
    code, out, err = run(capsys, "tqft", "--genus", "-1")
    assert code == 3
    assert out == ""
    assert "genus must be nonnegative" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_stdout_exits_1_and_prints_nothing(fmt, tmp_path):
    # the reader of the pipe is gone before the report is written: that is
    # not malformed input, and the interpreter's exit flush stays quiet
    corpus.write_corpus(str(tmp_path))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (["tqft", "--genus", "3"], ["link", "homology", "--pd", str(tmp_path / "trefoil.json")]):
        cmd = [sys.executable, "-m", "quadfrob", *argv, "--format", fmt]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b""), argv


def test_text_output_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, "ideal", "classinfo", "-d", "-5", "--gens", "2,1+w", "--out", str(out))
    assert code == 0
    assert stdout == ""
    text = out.read_text()
    assert "order two" in text


def test_relaxed_algebra_outside_the_lattice_is_rejected(tmp_path, capsys):
    # a_bar = 1 is not in mu: products such as X * X leave O*1 + mu*X
    code, payload, _ = run_json(
        capsys, "algebra", "family-eps0", "--abar", "1", "--bbar", "1", "--eps1", "1",
    )
    assert code == 0
    alg = tmp_path / "relaxed.json"
    alg.write_text(json.dumps(payload["data"]))
    for command in ("kernel", "tqft"):
        code, _, err = run(capsys, command, "--alg", str(alg))
        assert code == 2
        assert "rejected" in err and "a_bar_in_mu" in err


def test_ring_parameter_is_checked_not_defaulted(capsys):
    code, _, err = run(capsys, "algebra", "family-eps0", "-d", "0", "--abar", "0", "--bbar", "1", "--eps1", "1")
    assert code == 3
    assert "d must not be 0 or 1" in err


@pytest.mark.parametrize("argv", [
    ("validate", "--alg", "a.json", "-d", "-5"),
    ("example-zsqrtm5", "-d", "-5"),
    ("twist", "--type", "3", "--param", "-1", "-d", "-5"),
    ("family-eps0", "--abar", "0", "--bbar", "1", "--eps1", "1", "--relax"),
    ("family-eps1", "--abar", "1+w", "--eps1", "1", "--dbar", "1", "--relax"),
    ("example-zsqrtm5", "--relax"),
    ("search", "--relax"),
    ("twist", "--type", "3", "--param", "-1", "--relax"),
])
def test_removed_algebra_options_are_unknown(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", *argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kernel", "tqft"])
def test_relax_is_unknown_outside_algebra_validate(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--relax"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _assert_check_failed(capsys, check, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 5
    assert out == ""
    assert f"{check} check failed" in err
    return err


def test_validation_routes_failure_exits_5(monkeypatch, capsys):
    real = frobenius.rescaled_equations

    def one_false_identity(data, duals, t_bar):
        return {**real(data, duals, t_bar), "eq42": False}

    monkeypatch.setattr(frobenius, "rescaled_equations", one_false_identity)
    _assert_check_failed(capsys, "validation_routes", "algebra", "example-zsqrtm5")


def test_ker_m_splitting_failure_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(MultiplicationLattice, "x_hat", lambda self: [0] * 8)
    _assert_check_failed(capsys, "ker_m_splitting", "kernel")


def _worked_file(tmp_path):
    path = tmp_path / "worked.json"
    path.write_text(json.dumps(example_zsqrtm5(1, 1).data.to_json()))
    return str(path)


def test_a_failed_action_identity_exits_5(tmp_path, monkeypatch, capsys):
    # the worked algebra's b_bar g1 is no generator of mu, so its X_u doubles
    double_x_u_off_the_generators(monkeypatch)
    alg = _worked_file(tmp_path)
    code, payload, err = run_json(capsys, "kernel", "--alg", alg)
    assert code == 5
    assert payload["error"]["check"] == "ker_m_splitting" and payload["error"]["inputs"] == {"alg": alg}
    assert "acting on X_hat breaks its identity on ker(m)" in err


def test_a_failed_x_mu_action_identity_exits_5(tmp_path, monkeypatch, capsys):
    # X_hat is 0 in coordinates 2-3 and X_g1 is not, so a 1 added at entry
    # [0][2] of (g1 X .) (x) id breaks only the identity on X_mu
    real = MultiplicationLattice.x_first_factor_maps

    def bumped(self):
        maps = [[list(row) for row in lmat] for lmat in real(self)]
        maps[0][0][2] += 1
        return maps

    monkeypatch.setattr(MultiplicationLattice, "x_first_factor_maps", bumped)
    alg = _worked_file(tmp_path)
    code, payload, err = run_json(capsys, "kernel", "--alg", alg)
    assert code == 5
    assert payload["error"]["check"] == "ker_m_splitting" and payload["error"]["inputs"] == {"alg": alg}
    assert "acting on X_mu breaks its identity on ker(m)" in err


@pytest.mark.parametrize("action", ["compare", "lee-check"])
def test_a_remainder_with_nonzero_d_squared_exits_5(action, tmp_path, monkeypatch, capsys):
    pd = tmp_path / "t25.json"
    pd.write_text(json.dumps(corpus.braid_closure((1,) * 5, 2).to_json()))
    bump_remainder_entry(monkeypatch)
    pds = ["--pd1", str(pd), "--pd2", str(pd)] if action == "compare" else ["--pd", str(pd)]
    err = _assert_check_failed(capsys, "d_squared", "link", action, "--alg", _worked_file(tmp_path), *pds)
    assert "d^2 != 0 at degree 2" in err


def test_well_defined_failure_exits_5(monkeypatch, capsys):
    # one entry of m +1 makes m not O-linear: its kernel is not stable
    # under the sqrt(d)-action, which is checked before associativity
    bump_m_entry(monkeypatch)
    err = _assert_check_failed(capsys, "well_defined", "kernel")
    assert "kernel not stable under the action" in err


# -- named checks that only a fault reaches: each fault patches one
# collaborator, and the command fails with the library's own error


def _double_pairing_det(monkeypatch):
    real = frobenius.epsilon_tilde_matrix

    def doubled(*args):
        rows, det = real(*args)
        return rows, 2 * det

    monkeypatch.setattr(frobenius, "epsilon_tilde_matrix", doubled)


def _mu_never_principal(monkeypatch):
    monkeypatch.setattr(MuZLattice, "mu_principal", property(lambda self: False))


def _nothing_divides(monkeypatch):
    monkeypatch.setattr(RingElement, "divides", lambda self, other: False)


def _negate_trace(monkeypatch):
    # build_algebra validates the data with eps negated: a valid algebra
    # whose duals are the negatives of the data's own
    real = frobenius.build_algebra

    def negated(data, **kwargs):
        return real(FrobeniusData(data.ctx, data.mu, data.z, data.a_bar, data.b_bar,
                                  -data.eps_one, -data.eps_x_bar), **kwargs)

    monkeypatch.setattr(frobenius, "build_algebra", negated)


def _repeat_a_kernel_row(monkeypatch):
    # one more row in the kernel basis: the same lattice, so the stability
    # check passes, but of the wrong Z-rank
    real = omodule.kernel_basis

    def repeated(a, ncols=None):
        rows = real(a, ncols=ncols)
        return rows + rows[:1]

    monkeypatch.setattr(omodule, "kernel_basis", repeated)


def _worked_data():
    return example_zsqrtm5(1, 1).data


def _nilpotent_data():
    """X^2 = 0 with eps(1) = eps(X) = 1 over mu = O: accepted with t_bar =
    c = 0, which only a principal mu allows."""
    ctx = RingContext(-5)
    unit_ideal = Ideal.from_generators(ctx, [ctx.one])
    return FrobeniusData(ctx, unit_ideal, ctx.one, ctx.zero, ctx.zero, ctx.one, ctx.one)


def _family_eps0(_):
    ctx, mu, z = ring_of(*RINGS[0])
    return family_eps_x_zero(mu, z, ctx.zero, ctx.one, ctx.one)


def _family_eps1(_):
    ctx, mu, z = ring_of(*RINGS[0])
    return family_eps_x_one(mu, z, ctx(1, 1), ctx.one, ctx.one)


def _first_search_hit(_):
    _, mu, z = ring_of(*RINGS[0])
    return next(search_solutions(mu, z, coord_bound=1))


CLOSED_FORMS = "family duals disagree with the closed forms"


@pytest.mark.parametrize("fault, data, call, error, message, argv", [
    (_double_pairing_det, _worked_data, analyze, InconsistentRoutesError,
     "dual-solution route says True, unimodularity route says False", ("algebra", "validate")),
    (_mu_never_principal, _nilpotent_data, analyze, InconsistentRoutesError,
     "nonvanishing consequences failed on accepted data", ("algebra", "validate")),
    (_nothing_divides, _worked_data, analyze, InconsistentRoutesError,
     "d*eps(1) escaped (eps_x_bar) on accepted data", ("algebra", "validate")),
    (_negate_trace, None, _family_eps0, InconsistentRoutesError, CLOSED_FORMS,
     ("algebra", "family-eps0", "--abar", "0", "--bbar", "1", "--eps1", "1")),
    (_negate_trace, None, _family_eps1, InconsistentRoutesError, CLOSED_FORMS,
     ("algebra", "family-eps1", "--abar", "1+w", "--eps1", "1", "--dbar", "1")),
    (_negate_trace, None, lambda _: example_zsqrtm5(1, 1), InconsistentRoutesError,
     "worked example duals disagree with the closed forms", ("algebra", "example-zsqrtm5")),
    (_negate_trace, None, _first_search_hit, InconsistentRoutesError,
     "search ansatz d = s eps_x_bar failed", ("algebra", "search", "--bound", "1")),
    (_repeat_a_kernel_row, _worked_data, lambda data: build_algebra(data).kernel_m_analysis(),
     DirectSumFailureError, "ker(m) has Z-rank 5, expected 4", ("kernel",)),
], ids=["routes", "nonvanishing", "d_eps_one", "family_eps0", "family_eps1", "worked", "search", "ker_m_rank"])
def test_a_fault_fails_its_named_check(fault, data, call, error, message, argv, tmp_path, monkeypatch, capsys):
    # the data and its file are made before the fault
    if data is not None:
        data = data()
        alg = tmp_path / "alg.json"
        alg.write_text(json.dumps(data.to_json()))
        argv += ("--alg", str(alg))
    fault(monkeypatch)
    with pytest.raises(error) as exc:
        call(data)
    assert str(exc.value) == f"{exc.value.check} check failed: {message}"
    assert exc.value.check == ("ker_m_splitting" if error is DirectSumFailureError else "validation_routes")
    code, payload, err = run_json(capsys, *argv)
    assert code == 5
    assert err == f"{exc.value}\n"
    inputs = {} if data is None else {"alg": str(alg)}
    assert payload == {"error": {"check": exc.value.check, "message": str(exc.value), "inputs": inputs}}


def _trefoil_file(tmp_path):
    pd = tmp_path / "trefoil.json"
    pd.write_text(json.dumps(corpus.diagram("trefoil").to_json()))
    return str(pd)


def test_d_squared_failure_exits_5(tmp_path, monkeypatch, capsys):
    # the first edge pattern's first entry +1: edge_entries memoizes its
    # lists, so the fault is a copy and reaches one edge of the cube
    real = AlgebraLattice.edge_entries
    bumped = []

    def bump_once(self, *args):
        out = real(self, *args)
        if bumped:
            return out
        bumped.append(args)
        (r, c, e), *rest = out
        return [(r, c, e + 1), *rest]

    monkeypatch.setattr(AlgebraLattice, "edge_entries", bump_once)
    _assert_check_failed(capsys, "d_squared", "link", "homology", "--pd", _trefoil_file(tmp_path))
    assert bumped


def test_d_squared_failure_writes_a_json_error(tmp_path, monkeypatch, capsys):
    bump_one_edge_entry(monkeypatch)
    pd = _trefoil_file(tmp_path)
    code, payload, err = run_json(capsys, "link", "homology", "--pd", pd)
    assert code == 5
    assert "d_squared check failed" in err
    assert payload == {"error": {"check": "d_squared", "message": err.strip(), "inputs": {"pd": pd}}}


def test_well_defined_failure_writes_a_json_error_to_out(tmp_path, monkeypatch, capsys):
    alg = tmp_path / "worked.json"
    alg.write_text(json.dumps(frobenius.example_zsqrtm5(1, 1).data.to_json()))
    out = tmp_path / "error.json"
    bump_m_entry(monkeypatch)
    argv = ("kernel", "--alg", str(alg), "--format", "json", "--out")
    code, stdout, err = run(capsys, *argv, str(out))
    assert (code, stdout) == (5, "")
    assert "well_defined check failed" in err
    error = {"check": "well_defined", "message": err.strip(), "inputs": {"alg": str(alg)}}
    assert json.loads(out.read_text()) == {"error": error}
    # an --out that cannot be written keeps the exit code of the check
    code, stdout, err = run(capsys, *argv, str(tmp_path / "missing" / "error.json"))
    assert (code, stdout) == (5, "")
    assert "well_defined check failed" in err and "cannot write the error report" in err


def _bump_sqrt_d_rows(monkeypatch, min_n):
    # one entry of the first sqrt(d) block +1 on A^(x n) for n >= min_n
    real = MuZLattice.sqrt_d_rows

    def bumped(self, n):
        rows = real(self, n)
        if n < min_n:
            return rows
        rows = [dict(row) for row in rows]
        rows[0][0] = rows[0].get(0, 0) + 1
        return rows

    monkeypatch.setattr(MuZLattice, "sqrt_d_rows", bumped)


def test_equivariance_failure_exits_5(tmp_path, monkeypatch, capsys):
    # the bump for n > 2 only: A and A (x)_O A read n = 1 and 2, where a
    # bad J fails the J^2 = d check of the laid-out action (well_defined,
    # exit 5) before any cube is built
    _bump_sqrt_d_rows(monkeypatch, 3)
    _assert_check_failed(capsys, "equivariance", "link", "homology", "--pd", _trefoil_file(tmp_path))


def test_sqrt_d_layout_failure_exits_5(tmp_path, monkeypatch, capsys):
    # the bump for every n: A's laid-out action fails J^2 = d, an internal
    # check, not bad input
    _bump_sqrt_d_rows(monkeypatch, 1)
    _assert_check_failed(capsys, "well_defined", "link", "homology", "--pd", _trefoil_file(tmp_path))


def _double_delta_one(monkeypatch):
    real = AlgebraLattice._delta_one
    monkeypatch.setattr(AlgebraLattice, "_delta_one", lambda self: [2 * e for e in real(self)])


def _bump_x_map_entry(monkeypatch):
    real = MultiplicationLattice._x_map

    def bumped(self, i):
        out = real(self, i)
        out[0][0] += 1
        return out

    monkeypatch.setattr(MultiplicationLattice, "_x_map", bumped)


def _swap_c_and_d_prime(monkeypatch):
    real = AlgebraLattice._delta_one

    def swapped(self):
        out = real(self)
        return out[6:8] + out[2:6] + out[0:2]

    monkeypatch.setattr(AlgebraLattice, "_delta_one", swapped)


def _drop_a_bar_from_m(monkeypatch):
    real = MultiplicationLattice.m_matrix

    def dropped(self):
        out = [row[:] for row in real(self)]
        for row in out[2:4]:
            row[6:8] = [0, 0]  # the block zX(x)X -> X, a_bar's coordinates in mu
        return out

    monkeypatch.setattr(MultiplicationLattice, "m_matrix", dropped)


def _bump_checked_m_entry(monkeypatch):
    # the entry of bump_m_entry, changed once m has passed associativity
    real = MultiplicationLattice.x_first_factor_maps

    def bump_after(self):
        out = real(self)
        if not getattr(self, "_bumped", False):
            self._m[2][6] += 1
            self._bumped = True
        return out

    monkeypatch.setattr(MultiplicationLattice, "x_first_factor_maps", bump_after)


COUNIT = "counit identity (eps (x) id) Delta(1) = 1 fails"
DELTA_COUNIT = "counit identity (eps (x) id) Delta = id fails"
ASSOCIATIVITY = "is not associative with m"
PER_BLOCK = "is not multiplication by one scalar of K"


@pytest.mark.parametrize("fault, message", [
    (_double_delta_one, COUNIT),
    (_swap_c_and_d_prime, COUNIT),
    (_drop_a_bar_from_m, ASSOCIATIVITY),
    (_bump_x_map_entry, ASSOCIATIVITY),
    (bump_m_entry, ASSOCIATIVITY),
    (_bump_checked_m_entry, PER_BLOCK),
    (negate_a2_action, DELTA_COUNIT),
], ids=["delta_one", "c_d_prime_swapped", "a_bar_dropped", "x_map", "m_entry", "checked_m_entry", "a2_negated"])
def test_a_faulty_closed_form_fails_link_homology(fault, message, tmp_path, monkeypatch, capsys):
    # the cube's edge maps are the blocks of the checked m and Delta, so a
    # fault in either fails a check before any homology is computed
    alg = tmp_path / "worked.json"
    alg.write_text(json.dumps(frobenius.example_zsqrtm5(1, 1).data.to_json()))
    pd = tmp_path / "trefoil.json"
    pd.write_text(json.dumps(corpus.diagram("trefoil").to_json()))
    fault(monkeypatch)
    code, out, err = run(capsys, "link", "homology", "--pd", str(pd), "--alg", str(alg))
    assert (code, out) == (5, "")
    assert "well_defined check failed" in err and message in err


@pytest.mark.parametrize("fault, argv", [
    (_double_delta_one, ("tqft",)),
    (_double_delta_one, ("algebra", "example-zsqrtm5")),
    (_bump_x_map_entry, ("kernel",)),
    (_bump_x_map_entry, ("tqft",)),
], ids=["delta_one-tqft", "delta_one-algebra", "x_map-kernel", "x_map-tqft"])
def test_a_faulty_closed_form_exits_5(fault, argv, monkeypatch, capsys):
    # Delta(1) fails the counit identity, an X-map fails associativity
    fault(monkeypatch)
    _assert_check_failed(capsys, "well_defined", *argv)


COMMAND_PATHS = [
    (), ("ideal",), ("ideal", "classinfo"), ("kernel",), ("tqft",),
    ("algebra",), *(("algebra", a) for a in ("validate", "family-eps0", "family-eps1", "example-zsqrtm5", "twist", "search")),
    ("link",), *(("link", a) for a in ("homology", "compare", "lee-check", "corpus")),
]


def _help_text(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
def test_lean_parser_help_matches_the_full_parser(path, capsys):
    argv = [*path, "--help"]
    assert _help_text(make_parser(argv), path, capsys) == _help_text(make_parser(), path, capsys)


def _option_count(parser):
    """Options other than -h over a parser and every sub-parser it holds."""
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            count += sum(_option_count(p) for p in action.choices.values())
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            count += 1
    return count


def test_parser_builds_only_the_options_of_the_command_run():
    assert _option_count(make_parser()) == 64
    lean = make_parser(["link", "homology", "--pd", "x.json"])
    assert _option_count(lean) == 4  # --pd, --alg, --format and --out
    # only the command and the action run are built
    commands = lean._actions[-1].choices
    assert list(commands) == ["link"]
    assert list(commands["link"]._actions[-1].choices) == ["homology"]


@pytest.mark.parametrize("argv, built", [
    (["link", "homology", "--pd", "x.json"], 3),
    (["kernel", "--bound", "3"], 2),
    (["link", "--help"], 17),  # a missing word builds every parser
    (["link", "bogus"], 17),  # so does an unknown one
    (None, 17),
], ids=["link-homology", "kernel", "link-help", "link-bogus", "no-argv"])
def test_parser_counts_the_parsers_it_builds(argv, built, monkeypatch):
    real = argparse.ArgumentParser.__init__
    count = []

    def counted(self, *args, **kwargs):
        count.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    make_parser(argv)
    assert len(count) == built


def _failure(parser, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["bogus"], ["link", "bogus"], ["link"], [], ["link", "homology"], ["link", "homology", "--pd", "x", "--bogus"],
    ["kernel", "--bogus"], ["algebra", "search", "--bound", "x"],
], ids=lambda argv: " ".join(argv) or "no-words")
def test_lean_parser_errors_match_the_full_parser(argv, capsys):
    assert _failure(make_parser(argv), argv, capsys) == _failure(make_parser(), argv, capsys)
