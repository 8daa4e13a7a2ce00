import copy
import functools
import json
import operator
import re
from pathlib import Path

import numpy as np
import pytest

from banalg.algebra import Algebra, validate

from banalg import cli
from banalg.cli import main
from banalg.constructions import direct_sum, finite_abelian_group_algebra
from banalg.fixtures import build_fixture
from banalg.jsonio import (
    algebra_from_dict,
    algebra_to_dict,
    bundle_from_dict,
    bundle_to_dict,
    load_json,
    morphism_to_dict,
)
from banalg.multipliers import split_blocks

from conftest import diagonal_algebra, lau_c_c2, pointwise_semidirect, write_json


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "c2.json"
    write_json(str(path), algebra_to_dict(diagonal_algebra(2, "C2")))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_group_and_characters(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "build", "group", "--orders", "2,3", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["dim"] == 6
    code, stdout, _ = run_cli(capsys, "characters", str(out))
    assert code == 0
    chars = json.loads(stdout)
    assert chars["count"] == 6
    assert all(c["residual"] <= 1e-9 for c in chars["characters"])


def test_characters_rejects_seed(tmp_path, capsys):
    # --seed, --jobs and --format belong to verify, the one command reading them
    out = tmp_path / "g.json"
    run_cli(capsys, "build", "group", "--orders", "2,3", "-o", str(out))
    with pytest.raises(SystemExit) as exc:
        main(["characters", "--seed", "0", str(out)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_characters_closed_form_needs_a_bundle(algebra_file, tmp_path, capsys):
    # a plain algebra has no product decomposition: refused as bad input
    code, stdout, err = run_cli(capsys, "characters", algebra_file, "--closed-form")
    assert code == 2 and stdout == ""
    assert err == f"error: {algebra_file}: --closed-form needs a build bundle\n"
    bundle = tmp_path / "lau.json"
    write_json(str(bundle), bundle_to_dict(lau_c_c2()))
    code, stdout, _ = run_cli(capsys, "characters", str(bundle), "--closed-form")
    assert code == 0 and json.loads(stdout)["count"] == 3


def test_build_lau_bundle_and_verify(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    phi = tmp_path / "phi.json"
    write_json(str(a), algebra_to_dict(diagonal_algebra(1, "A")))
    write_json(str(b), algebra_to_dict(diagonal_algebra(2, "B")))
    phi.write_text('{"source": "B", "target": "A", "matrix": [[[1,0],[0,0]]]}')
    bundle = tmp_path / "lau.json"
    code, _, _ = run_cli(capsys, "build", "lau", "--a", str(a), "--b", str(b),
                         "--phi", str(phi), "-o", str(bundle))
    assert code == 0
    for theorem in ("theta", "lemma41", "lau-bse", "tim2", "lemma21"):
        code, stdout, _ = run_cli(capsys, "verify", str(bundle),
                                  "--theorem", theorem, "--format", "text")
        assert code == 0, (theorem, stdout)


def c_plus_c2():
    return direct_sum(diagonal_algebra(1, "A"), diagonal_algebra(2, "B"))


def _bundle_file(tmp_path, desc):
    path = tmp_path / "bundle.json"
    write_json(str(path), bundle_to_dict(desc))
    return str(path)


@pytest.mark.parametrize("make", [pointwise_semidirect, lau_c_c2, c_plus_c2])
def test_verify_bundle_runs_every_check_of_its_kind(tmp_path, capsys, make):
    path = _bundle_file(tmp_path, make())
    code, stdout, err = run_cli(capsys, "verify", path, "--format", "json")
    assert code == 0, err
    records = json.loads(stdout)["records"]
    assert len(records) > 10
    assert not [r for r in records if r["name"].endswith("/error")]


def test_verify_bundle_theorem_of_the_other_kind_skips(tmp_path, capsys):
    path = _bundle_file(tmp_path, pointwise_semidirect())
    code, stdout, _ = run_cli(capsys, "verify", path, "--theorem", "lau-bse",
                              "--format", "json")
    assert code == 0
    records = json.loads(stdout)["records"]
    assert [(r["name"], r["verdict"]) for r in records] == [
        ("semidirect/bundle/lau-bse", "SKIP")
    ]


def test_verify_noncontractive_bundle_has_no_error_record(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    phi = tmp_path / "phi.json"
    write_json(str(a), algebra_to_dict(diagonal_algebra(1, "A", weights=[4.0])))
    write_json(str(b), algebra_to_dict(diagonal_algebra(2, "B")))
    phi.write_text('{"source": "B", "target": "A", "matrix": [[[1,0],[0,0]]]}')
    bundle = tmp_path / "lau.json"
    code, _, _ = run_cli(capsys, "build", "lau", "--a", str(a), "--b", str(b),
                         "--phi", str(phi), "--force", "-o", str(bundle))
    assert code == 0
    assert json.loads(bundle.read_text())["descriptor"]["contractive"] is False
    code, stdout, err = run_cli(capsys, "verify", str(bundle), "--format", "json")
    assert stdout, err
    records = json.loads(stdout)["records"]
    assert records
    assert not [r for r in records if r["name"].endswith("/error")]


def test_build_semidirect(tmp_path, capsys):
    b = tmp_path / "b.json"
    i = tmp_path / "i.json"
    act = tmp_path / "act.json"
    write_json(str(b), algebra_to_dict(diagonal_algebra(1, "B")))
    write_json(str(i), algebra_to_dict(diagonal_algebra(1, "I")))
    act.write_text('{"action_bi": [[0,0,0,1,0]], "action_ib": [[0,0,0,1,0]]}')
    bundle = tmp_path / "sd.json"
    code, _, _ = run_cli(capsys, "build", "semidirect", "--b", str(b), "--i", str(i),
                         "--actions", str(act), "-o", str(bundle))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "verify", str(bundle), "--theorem", "prop24",
                              "--format", "text")
    assert code == 0


def test_multipliers_command(algebra_file, capsys):
    code, stdout, _ = run_cli(capsys, "multipliers", algebra_file, "--left")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["dim"] == 2 and doc["kind"] == "LM"


def test_bse_norm_command(algebra_file, tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"values": [[1,0],[1,0]]}')
    code, stdout, _ = run_cli(capsys, "bse-norm", algebra_file,
                              "--sigma", str(sigma), "--dual")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["bse_norm"] == pytest.approx(2.0)
    assert doc["dual_norm"] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("dual", [(), ("--dual",)], ids=["primal", "dual"])
def test_bse_norm_of_zero_prints_no_negative_zero(tmp_path, capsys, dual):
    # the square primal solves an all-zero sigma, and LU back-substitution
    # can give -0.0: each zero must print as 0
    group = tmp_path / "z4.json"
    run_cli(capsys, "build", "group", "--orders", "4", "-o", str(group))
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"values": [[0,0],[0,0],[0,0],[0,0]]}')
    code, stdout, _ = run_cli(capsys, "bse-norm", str(group), "--sigma", str(sigma), *dual)
    assert code == 0
    assert json.loads(stdout)["bse_norm"] == 0
    assert re.search(r"-0\b(?!\.)", stdout) is None


def z2z3_file(tmp_path):
    path = tmp_path / "z2z3.json"
    write_json(str(path), algebra_to_dict(finite_abelian_group_algebra([2, 3])))
    return str(path)


def dual_numbers_file(tmp_path):
    """C[x]/(x^2) with weights 1: one character, so bse-norm takes the
    rectangular cone route."""
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1.0
    path = tmp_path / "dual_numbers.json"
    write_json(str(path), algebra_to_dict(Algebra("C[x]/(x^2)", np.ones(2), c,
                                                  unit=np.array([1.0, 0.0]))))
    return str(path)


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
@pytest.mark.parametrize("make, values, dual, opt_tol", [
    (z2z3_file, [[1, 0], [0.5, 0.25], [-1, 0], [0, 2], [0.3, -0.7], [1, 1]],
     ("--dual",), "1e-3"),
    (dual_numbers_file, [[1, 0]], (), "1e-2"),
], ids=["z2z3-dual", "dual-numbers"])
def test_bse_norm_ignores_opt_tol(tmp_path, capsys, make, values, dual, opt_tol):
    # --opt-tol is verify's judging tolerance: bse-norm always solves to
    # GAP_REL, so a loose value can neither change the output nor stop the
    # solve short of the certification bound
    path, sigma = make(tmp_path), tmp_path / "sigma.json"
    write_json(str(sigma), {"values": values})
    default = run_cli(capsys, "bse-norm", path, "--sigma", str(sigma), *dual)
    assert default[0] == 0, default[2]
    loose = run_cli(capsys, "bse-norm", path, "--sigma", str(sigma), *dual,
                    "--opt-tol", opt_tol)
    assert loose == default


@pytest.mark.parametrize("command, expected", [
    ("bse-norm", {"bse_norm": 1.0, "dual_norm": 1.0}),
    ("check-bse", {"is_bse": True, "semisimple": False}),
])
def test_semisimplicity_warning_is_one_line_of_the_cli(tmp_path, capsys, command, expected):
    # on C[x]/(x^2) the library warns that the algebra is not semisimple (the
    # primal and the dual solve each warn); the CLI says so once, in its own
    # format, without a source location
    sigma = tmp_path / "sigma.json"
    write_json(str(sigma), {"values": [[1, 0]]})
    extra = ("--sigma", str(sigma), "--dual") if command == "bse-norm" else ()
    code, stdout, err = run_cli(capsys, command, dual_numbers_file(tmp_path), *extra)
    assert code == 0
    doc = json.loads(stdout)
    assert {key: doc[key] for key in expected} == pytest.approx(expected)
    assert len(err.splitlines()) == 1 and err.startswith("warning: algebra 'C[x]/(x^2)'")
    assert "cli.py" not in err


def test_check_bse_command(algebra_file, capsys):
    code, stdout, _ = run_cli(capsys, "check-bse", algebra_file)
    assert code == 0
    assert json.loads(stdout)["is_bse"] is True


def test_verify_harness_json_deterministic(capsys):
    argv = ["verify", "--families", "diag", "--count", "1", "--seed", "42",
            "--format", "json", "--max-dim", "3"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    doc = json.loads(out1)
    assert doc["summary"]["FAIL"] == 0


def test_verify_text_respects_no_color(capsys, monkeypatch):
    monkeypatch.setenv("BANALG_NO_COLOR", "1")
    code, stdout, _ = run_cli(capsys, "verify", "--families", "diag", "--count", "1",
                              "--format", "text", "--max-dim", "3")
    assert code == 0
    assert "\x1b[" not in stdout


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "dim": 2, "weights": [1, -1], "structure": []}')
    code, _, err = run_cli(capsys, "characters", str(bad))
    assert code == 2
    assert "weights" in err
    worse = tmp_path / "worse.json"
    worse.write_text("{nope")
    code, _, err = run_cli(capsys, "characters", str(worse))
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(capsys, "characters", str(missing))
    assert code == 2


def test_noncontractive_build_exit_1(tmp_path, capsys):
    a = tmp_path / "a.json"
    c = tmp_path / "c.json"
    phi = tmp_path / "phi.json"
    write_json(str(a), algebra_to_dict(diagonal_algebra(2, "A")))
    write_json(str(c), algebra_to_dict(diagonal_algebra(1, "C")))
    phi.write_text('{"source": "C", "target": "A", "matrix": [[[1,0]],[[1,0]]]}')
    code, _, err = run_cli(capsys, "build", "lau", "--a", str(a), "--b", str(c),
                           "--phi", str(phi))
    assert code == 1
    assert "NOT_CONTRACTIVE" in err
    code, _, _ = run_cli(capsys, "build", "lau", "--a", str(a), "--b", str(c),
                         "--phi", str(phi), "--force")
    assert code == 0


@pytest.mark.parametrize("actions", [
    '{"action_bi": [[0.5, 0, 0, 1, 0]]}',  # float index
    '{"action_bi": [["0", 0, 0, 1, 0]]}',  # string index
    '[{"action_bi": []}]',  # a list, not an object
], ids=["float-index", "string-index", "list"])
def test_build_semidirect_malformed_actions_exit_2(tmp_path, capsys, actions):
    b = tmp_path / "b.json"
    i = tmp_path / "i.json"
    act = tmp_path / "act.json"
    write_json(str(b), algebra_to_dict(diagonal_algebra(1, "B")))
    write_json(str(i), algebra_to_dict(diagonal_algebra(1, "I")))
    act.write_text(actions)
    code, _, err = run_cli(capsys, "build", "semidirect", "--b", str(b), "--i", str(i),
                           "--actions", str(act))
    assert code == 2
    assert str(act) in err


@pytest.mark.parametrize("descriptor", ['[]', '{"kind": "lau"}'], ids=["list", "no-parents"])
def test_malformed_bundle_exit_2(tmp_path, capsys, descriptor):
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"algebra": {}, "descriptor": %s}' % descriptor)
    code, _, err = run_cli(capsys, "characters", str(bundle))
    assert code == 2
    assert "descriptor" in err


def test_bse_norm_malformed_sigma_exit_2(algebra_file, tmp_path, capsys):
    sigma = tmp_path / "sigma.json"
    sigma.write_text('{"values": [["x", 0], [1, 0]]}')
    code, _, err = run_cli(capsys, "bse-norm", algebra_file, "--sigma", str(sigma))
    assert code == 2
    assert "values[0]" in err


@pytest.mark.parametrize("orders", ["2,x", "0"], ids=["not-an-integer", "zero"])
def test_build_group_bad_orders_exit_2(tmp_path, capsys, orders):
    # --orders takes only a comma list of positive integers; argparse refuses
    # anything else with exit 2 and a usage message, never a traceback
    out = tmp_path / "g.json"
    with pytest.raises(SystemExit) as exc:
        main(["build", "group", "--orders", orders, "-o", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --orders: invalid orders value: '{orders}'" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    (["--seed", "-1"], "seed must be >= 0"),
    (["--max-dim", "1"], "max_dim must stay at desk scale (2..16)"),
    (["--families", "diag,diag"],
     "fixture families must be distinct, from diag,group,semidirect,lau: diag,diag"),
], ids=["negative-seed", "max-dim-1", "repeated-family"])
def test_verify_bad_settings_exit_2(capsys, settings, message):
    # each used to crash in numpy or to write every record twice
    code, stdout, err = run_cli(capsys, "verify", "--count", "1", "--max-dim", "2", *settings)
    assert code == 2 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("option", ["--tol", "--opt-tol"])
@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_bad_tolerance_exit_2(tmp_path, capsys, option, value):
    # a tolerance is finite and positive; NaN used to fail every check of
    # verify, and NaN or -1 made check-bse reject a valid algebra
    group = tmp_path / "g.json"
    run_cli(capsys, "build", "group", "--orders", "2,2", "-o", str(group))
    for argv in (["verify", "--count", "1", "--max-dim", "2"], ["check-bse", str(group)]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{option}={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: invalid tolerance value: '{value}'" in err
        assert "Traceback" not in err


def test_multipliers_blocks_of_another_dimension_exit_2(algebra_file, tmp_path, capsys):
    # the bundle's product (C x_phi C^2, dim 3) cannot split maps on C^2
    bundle = tmp_path / "lau.json"
    write_json(str(bundle), bundle_to_dict(lau_c_c2()))
    code, stdout, err = run_cli(capsys, "multipliers", algebra_file, "--blocks", str(bundle))
    assert code == 2 and stdout == ""
    assert err == f"error: {bundle}: dim 3, not 2\n"


@pytest.mark.parametrize("left", [False, True], ids=["M", "LM"])
def test_multipliers_blocks_split_the_space_in_one_call(tmp_path, capsys, monkeypatch, left):
    # the whole basis is split in one stacked call, and block i holds the
    # residuals split_blocks gives basis map i alone
    bundle = tmp_path / "lau.json"
    write_json(str(bundle), bundle_to_dict(build_fixture("lau", 0, 0, 6).descriptor))
    calls, original = [], cli.decompose_left_multiplier

    def counted(T, *args):
        calls.append(np.shape(T))
        return original(T, *args)

    monkeypatch.setattr(cli, "decompose_left_multiplier", counted)
    argv = ["multipliers", str(bundle), "--blocks", str(bundle)] + ["--left"] * left
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(stdout)
    desc = bundle_from_dict(load_json(str(bundle)))
    n = desc.algebra.dim
    assert calls == [(doc["dim"], n, n)] and doc["dim"] > 1
    assert len(doc["blocks"]) == doc["dim"]
    for pairs, got in zip(doc["basis"], doc["blocks"]):
        want = split_blocks(np.array([[complex(*z) for z in row] for row in pairs]), desc)
        for field in ("relation_residuals", "membership_residuals"):
            expected = getattr(want, field)
            assert got[field].keys() == expected.keys()
            assert all(abs(got[field][k] - v) <= 1e-15 for k, v in expected.items())


VERIFY_SMALL = ("--families", "diag", "--count", "1", "--max-dim", "2", "--format", "json")


@pytest.mark.parametrize("flag, key", [("--tol", "tol_algebraic"), ("--opt-tol", "tol_opt")])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_global_tolerance_flags_reach_the_config(capsys, flag, key, before):
    # README: the global flags go before or after the subcommand
    argv = [flag, "1e-8", "verify", *VERIFY_SMALL] if before else [
        "verify", flag, "1e-8", *VERIFY_SMALL]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert f'"{key}": 1e-08' in stdout
    assert json.loads(stdout)["config"][key] == 1e-8


def test_global_tolerance_defaults(capsys):
    code, stdout, err = run_cli(capsys, "verify", *VERIFY_SMALL)
    assert code == 0, err
    config = json.loads(stdout)["config"]
    assert (config["tol_algebraic"], config["tol_opt"]) == (1e-9, 1e-6)


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "0"],
    ["verify", "--max-dim", "17"],
    ["verify", "--families", "nope"],
    ["verify", "--jobs", "-3"],
], ids=["count", "max-dim", "families", "jobs"])
def test_verify_bad_configuration_exit_2(capsys, argv):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert stdout == ""


def scaled_diagonal(name, scales, weights):
    """e_k e_k = s_k e_k, every other product zero; unit sum_k e_k / s_k."""
    n = len(scales)
    c = np.zeros((n, n, n), dtype=complex)
    c[np.arange(n), np.arange(n), np.arange(n)] = scales
    return Algebra(name, np.asarray(weights, dtype=float), c,
                   unit=1.0 / np.asarray(scales, dtype=complex))


def golden_build_argv(tmp_path, kind):
    """The `build` argv of one golden bundle, its input files written to tmp_path.

    The parents have different dimensions and complex structure constants,
    so a block placed at the wrong offset changes the bundle.
    """
    def path(name, doc):
        p = tmp_path / name
        write_json(str(p), doc)
        return str(p)

    if kind == "semidirect":
        # B = C^2 acts on I = C^3 through e0 -> f0 + f1, e1 -> f2
        t = [0.5 + 0.5j, -0.75]
        B = scaled_diagonal("B2", t, [1.0, 2.0])
        I = scaled_diagonal("I3", [1.0, 1j, 0.5], [1.0, 1.5, 3.0])
        selector = [0, 0, 1]
        actions = {
            "action_bi": [[l, k, k, t[l].real, t[l].imag] for k, l in enumerate(selector)],
            "action_ib": [[k, l, k, t[l].real, t[l].imag] for k, l in enumerate(selector)],
        }
        return ["build", "semidirect", "--b", path("b.json", algebra_to_dict(B)),
                "--i", path("i.json", algebra_to_dict(I)),
                "--actions", path("actions.json", actions)]
    A = scaled_diagonal("A2", [0.8, 0.6j], [1.0, 2.0])
    B = scaled_diagonal("B3", [0.4, 0.3j, 1.0], [1.0, 1.5, 2.0])
    # phi(u_l) = (t_l / s_k) v_k: u0 -> v0 / 2, u1 -> v1 / 2, u2 -> 0
    matrix = ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]] if kind == "lau" else np.zeros((2, 3)))
    phi = np.asarray(matrix, dtype=complex)
    return ["build", "lau", "--a", path("a.json", algebra_to_dict(A)),
            "--b", path("b.json", algebra_to_dict(B)),
            "--phi", path("phi.json", morphism_to_dict(phi, B, A))]


@pytest.mark.parametrize("kind", ["semidirect", "lau", "direct_sum"])
def test_build_stdout_matches_golden(tmp_path, capsys, kind):
    code, stdout, err = run_cli(capsys, *golden_build_argv(tmp_path, kind))
    assert code == 0, err
    golden = Path(__file__).parent / "golden" / f"build_{kind}.json"
    assert json.loads(stdout)["descriptor"]["kind"] == kind
    assert stdout == golden.read_text()


GOLDEN = Path(__file__).parent / "golden"


def group_z2_doc():
    """The file `build group --orders 2` writes, as a document."""
    return algebra_to_dict(finite_abelian_group_algebra([2]))


def numeric_leaves(doc, path=()):
    """The path of every number in a JSON document, in document order."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


MUTATIONS = {
    "nan": lambda x: float("nan"),
    "inf": lambda x: float("inf"),
    "-inf": lambda x: float("-inf"),
    "1e300": lambda x: 1e300,
    "zero": lambda x: 0,
    "sign-flip": lambda x: -x,
    "drop": None,
}


def mutate(doc, path, mutation):
    """A copy of doc with the number at path changed by `mutation`, or
    dropped from its list or object."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if MUTATIONS[mutation] is None:
        del parent[last]
    else:
        parent[last] = MUTATIONS[mutation](parent[last])
    return doc


def validate_accepts(doc):
    """Whether validate accepts the algebra a document describes: a bundle's
    rebuilt product, or a plain algebra."""
    if "descriptor" in doc:
        return validate(bundle_from_dict(doc).algebra).accepted
    return validate(algebra_from_dict(doc)).accepted


@pytest.mark.filterwarnings("ignore::banalg.bse.SemisimplicityWarning")
@pytest.mark.parametrize("source", [
    "build_semidirect.json", "build_lau.json", "build_direct_sum.json", "group-2"])
def test_no_single_field_mutation_ends_in_a_traceback(tmp_path, capsys, monkeypatch, source):
    # every number of the file is set to NaN, +-inf, 1e300 or 0, has its sign
    # flipped, or is dropped, one at a time; `characters` and `check-bse` on
    # the result exit 2 (bad input), or 0 or 1 on an algebra validate accepts
    parser = cli.make_parser()  # built once: it is most of a refused run's time
    monkeypatch.setattr(cli, "make_parser", lambda: parser)
    doc = group_z2_doc() if source == "group-2" else json.loads((GOLDEN / source).read_text())
    path = tmp_path / "mutant.json"
    wrong, runs = [], 0
    for leaf in numeric_leaves(doc):
        for mutation in MUTATIONS:
            mutant = mutate(doc, leaf, mutation)
            if mutant == doc:  # zero or a sign flip of a 0
                continue
            path.write_text(json.dumps(mutant))
            for command in ("characters", "check-bse"):
                runs += 1
                where = f"{command} {mutation} at {'/'.join(map(str, leaf))}"
                try:
                    code = main([command, str(path)])
                except Exception as exc:
                    wrong.append(f"{where}: {type(exc).__name__}: {exc}")
                    continue
                if code != 2 and not (code in (0, 1) and validate_accepts(mutant)):
                    wrong.append(f"{where}: exit {code}")
    capsys.readouterr()
    assert wrong == [], f"{len(wrong)} of {runs} runs"


def z2_file(tmp_path, entry, value):
    """The `build group --orders 2` file, l1(Z2), with structure entry
    [i, j, k] set to value."""
    doc = group_z2_doc()
    row = next(r for r in doc["structure"] if r[:3] == entry)
    row[3] = value
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("command", ["characters", "check-bse"])
def test_non_finite_algebra_exit_2(tmp_path, capsys, command):
    # read unvalidated, the NaN ends in LinAlgError ("SVD did not converge")
    code, stdout, err = run_cli(capsys, command, z2_file(tmp_path, [1, 1, 0], float("nan")))
    assert (code, stdout) == (2, "")
    assert err == "error: algebra 'l1(Z2)' rejected: finite\n"


def test_non_associative_algebra_exit_2(tmp_path, capsys):
    # e0 e0 = e1, e1 e1 = e0: commutative, but (e0 e0) e1 = e0 while
    # e0 (e0 e1) = 0; read unvalidated, `multipliers` prints a 2-dim M
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = c[1, 1, 0] = 1.0
    path = tmp_path / "nonassoc.json"
    write_json(str(path), algebra_to_dict(Algebra("nonassoc", np.ones(2), c)))
    code, stdout, err = run_cli(capsys, "multipliers", str(path))
    assert (code, stdout) == (2, "")
    assert err == "error: algebra 'nonassoc' rejected: associativity\n"


def test_overflowing_algebra_exit_2(tmp_path, capsys):
    # c[0, 0, 0] = 1e300 breaks the norm and the unit, and its square
    # overflows the associativity residual to NaN; read unvalidated,
    # `characters` prints "count": 0 and exits 0
    code, stdout, err = run_cli(capsys, "characters", z2_file(tmp_path, [0, 0, 0], 1e300))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == [f"error: algebra 'l1(Z2)' rejected: {failure}" for failure
                                in ("associativity", "submultiplicativity", "unit")]


def test_build_with_a_rejected_parent_exit_2(tmp_path, capsys):
    b = tmp_path / "b.json"
    act = tmp_path / "act.json"
    write_json(str(b), algebra_to_dict(diagonal_algebra(1, "B")))
    act.write_text("{}")
    code, _, err = run_cli(capsys, "build", "semidirect", "--b", str(b),
                           "--i", z2_file(tmp_path, [1, 1, 0], float("nan")),
                           "--actions", str(act))
    assert code == 2
    assert err == "error: algebra 'l1(Z2)' rejected: finite\n"


def test_bundle_with_a_non_finite_stored_entry_exit_2(tmp_path, capsys):
    # the drift check max|stored - rebuilt| > 1e-12 is false on NaN, so
    # without the finiteness check `verify` reads this bundle: 13 PASS
    doc = json.loads((GOLDEN / "build_semidirect.json").read_text())
    doc["algebra"]["structure"][0][3] = float("nan")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "verify", str(bundle))
    assert (code, stdout) == (2, "")
    assert err == (f"error: {bundle}.algebra: a weight, structure or unit entry "
                   "is not finite\n")


@pytest.mark.parametrize("source, change", [
    ("build_lau.json", "sign-flip"), ("build_lau.json", "drop"),
    ("build_semidirect.json", "add")])
def test_bundle_whose_stored_unit_is_not_the_rebuilt_one_exit_2(tmp_path, capsys, source,
                                                                  change):
    # the rebuilt Lau product has a unit and the semidirect one none; the
    # stored unit must agree with it, or be absent with it
    doc = json.loads((GOLDEN / source).read_text())
    algebra = doc["algebra"]
    if change == "sign-flip":  # one entry of the unit
        algebra["unit"][2][0] = -algebra["unit"][2][0]
    elif change == "drop":
        del algebra["unit"]
    else:
        algebra["unit"] = [[1, 0]] * algebra["dim"]
    bundle = tmp_path / "bundle.json"
    bundle.write_text(json.dumps(doc))
    code, stdout, err = run_cli(capsys, "characters", str(bundle))
    assert (code, stdout) == (2, "")
    assert err == f"error: {bundle}: stored algebra does not match its descriptor\n"


def test_bundle_is_validated_at_tol(tmp_path, capsys):
    # lau/000 (seed 0) has associativity residual 4.4e-16; below it, its
    # algebra file is rejected, and so is its bundle, where the parent A
    # (unit residual 1.4e-16) fails first
    desc = build_fixture("lau", 0, 0, 6).descriptor
    algebra, bundle = tmp_path / "lau.json", tmp_path / "bundle.json"
    write_json(str(algebra), algebra_to_dict(desc.algebra))
    write_json(str(bundle), bundle_to_dict(desc))
    for path in (algebra, bundle):
        assert run_cli(capsys, "characters", str(path))[0] == 0
        code, stdout, err = run_cli(capsys, "characters", "--tol", "4.4e-17", str(path))
        assert (code, stdout) == (2, ""), err
    assert err == "error: algebra 'A2#0' rejected: unit\n"


def test_build_lau_with_a_phi_file_for_other_algebras_exit_2(tmp_path, capsys):
    # the golden Lau build, with phi's source renamed: the matrix has the
    # right shape, but the file names another algebra than --b
    argv = golden_build_argv(tmp_path, "lau")
    phi = argv[argv.index("--phi") + 1]
    doc = load_json(phi)
    doc["source"] = "nope"
    write_json(phi, doc)
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout) == (2, "")
    assert err == f"error: {phi}.source: expected 'B3', got 'nope'\n"
