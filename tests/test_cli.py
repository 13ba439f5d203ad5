import json
import os

import pytest

from quadfrob import corpus, frobenius
from quadfrob.cli import main
from quadfrob.intlin import IntSolver
from quadfrob.omodule import AlgebraLattice


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


def test_kernel_command(capsys):
    code, payload, _ = run_json(capsys, "kernel")
    assert code == 0
    assert payload["iso_to_A"] is True
    assert payload["generator"]["eq87"] == {"x": "-1", "y": "0"}


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


def test_validation_routes_failure_exits_5(monkeypatch, capsys):
    real = frobenius.rescaled_equations

    def one_false_identity(data, duals):
        return {**real(data, duals), "eq42": False}

    monkeypatch.setattr(frobenius, "rescaled_equations", one_false_identity)
    _assert_check_failed(capsys, "validation_routes", "algebra", "example-zsqrtm5")


def test_ker_m_splitting_failure_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(AlgebraLattice, "x_hat", lambda self: [0] * 8)
    _assert_check_failed(capsys, "ker_m_splitting", "kernel")


def test_well_defined_failure_exits_5(monkeypatch, capsys):
    monkeypatch.setattr(IntSolver, "solve", lambda self, rhs: None)
    _assert_check_failed(capsys, "well_defined", "algebra", "example-zsqrtm5")
