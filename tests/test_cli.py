import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import freeze_first_crossing
from quadfrob import corpus, frobenius, linkhom
from quadfrob.cli import main, make_parser
from quadfrob.frobenius import example_zsqrtm5
from test_faults import bump_m_entry, bump_one_edge_entry


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
    (("link", "compare", "--alg", "{alg}", "--pd1", "{pd}", "--pd2", "{pd}"), 2),
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
    for argv in (
        ("algebra", "search", "-d", "-5", "--bound", "-1"),
        ("algebra", "search", "-d", "-5", "--bound", "-1", "--limit", "0"),
        ("kernel", "--bound", "-3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert "bound must be nonnegative" in err


def test_search_rejects_z_like_the_families(capsys):
    # --limit 0 reads no candidate, and the search still checks z
    for extra in (("search", "--bound", "1"), ("search", "--limit", "0"),
                  ("family-eps0", "--abar", "0", "--bbar", "1", "--eps1", "1")):
        argv = ("algebra", *extra, "-d", "-5", "--z")
        code, out, err = run(capsys, *argv, "0")
        assert (code, out) == (3, ""), extra
        assert err.strip() == "malformed input: z must be nonzero"
        code, out, err = run(capsys, *argv, "3")
        assert (code, out) == (2, ""), extra
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


def _trefoil_file(tmp_path):
    pd = tmp_path / "trefoil.json"
    pd.write_text(json.dumps(corpus.diagram("trefoil").to_json()))
    return str(pd)


def test_an_edge_that_keeps_its_circles_is_malformed(tmp_path, monkeypatch, capsys):
    freeze_first_crossing(monkeypatch)
    code, out, err = run(capsys, "link", "homology", "--pd", _trefoil_file(tmp_path))
    assert (code, out) == (3, "")
    assert err.strip() == "malformed input: edge (0, 0, 0)->(1, 0, 0) changes circles 2->2"


def test_d_squared_failure_writes_a_json_error(tmp_path, monkeypatch, capsys):
    bump_one_edge_entry(monkeypatch)
    pd = _trefoil_file(tmp_path)
    code, payload, err = run_json(capsys, "link", "homology", "--pd", pd)
    assert code == 5
    assert "d_squared check failed" in err
    assert payload == {"error": {"check": "d_squared", "message": err.strip(), "inputs": {"pd": pd}}}


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


def test_tqft_prints_exact_values_past_the_int_digit_cap():
    # the default algebra's handle is 2*I, so genus g prints 2^g: 663 digits
    # at genus 2200, past a cap of 640 on int -> str conversion
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-X", "int_max_str_digits=640", "-m", "quadfrob", "tqft", "--genus", "2200", "--format", "json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["genus_values"]["2200"] == str(2**2200)


def test_tqft_input_keeps_the_int_digit_cap(tmp_path, capsys):
    # only the results convert without the cap: a 5000-digit coordinate in
    # the algebra file is still malformed
    data = example_zsqrtm5(1, 1).data.to_json()
    data["z"]["x"] = "1" * 5000
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(data))
    code, out, err = run(capsys, "tqft", "--alg", str(alg))
    assert (code, out) == (3, "")
    assert err.startswith("malformed input: ")


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


def test_a_closed_stdout_keeps_exit_5_and_prints_only_the_check(tmp_path):
    # the json error report of a failed check meets a closed stdout: the
    # check line is all of stderr, and the exit flush stays quiet
    corpus.write_corpus(str(tmp_path))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys\n"
        "from quadfrob import linkhom\n"
        "from quadfrob.cli import main\n"
        "def fail(self):\n"
        "    raise linkhom.DifferentialSquareNonzeroError('d^2 != 0 at degree 0')\n"
        "linkhom.Complex.check_d_squared = fail\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["link", "homology", "--pd", str(tmp_path / "trefoil.json"), "--format", "json"]
    with subprocess.Popen([sys.executable, "-c", code, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (5, b"d_squared check failed: d^2 != 0 at degree 0\n")


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


COMMAND_PATHS = [
    (), ("ideal",), ("ideal", "classinfo"), ("kernel",), ("tqft",),
    ("algebra",), *(("algebra", a) for a in ("validate", "family-eps0", "family-eps1", "example-zsqrtm5", "twist", "search")),
    ("link",), *(("link", a) for a in ("homology", "compare", "corpus")),
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
    assert _option_count(make_parser()) == 60
    lean = make_parser(["link", "homology", "--pd", "x.json"])
    assert _option_count(lean) == 4  # --pd, --alg, --format and --out
    # only the command and the action run are built
    commands = lean._actions[-1].choices
    assert list(commands) == ["link"]
    assert list(commands["link"]._actions[-1].choices) == ["homology"]


@pytest.mark.parametrize("argv, built", [
    (["link", "homology", "--pd", "x.json"], 3),
    (["kernel", "--bound", "3"], 2),
    (["link", "--help"], 16),  # a missing word builds every parser
    (["link", "bogus"], 16),  # so does an unknown one
    (None, 16),
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
