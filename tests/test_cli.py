"""Command-line front end, exercised in process through main()."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import HELSTROM_VALUE, helstrom_problem

from qnetopt import serde
from qnetopt.cli import EXAMPLE_NAMES, build_parser, main
from qnetopt.networks import comb_of_state
from qnetopt.operators import LabeledOperator, SystemLabel
from qnetopt.sdp import solve


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    serde.dump_path(serde.problem_to_json(helstrom_problem()), str(path))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_problem(problem_file, capsys):
    rc, _out, err = run(capsys, "validate", problem_file)
    assert rc == 0
    assert "OK problem: 2 parameters" in err


def test_validate_quiet_says_nothing(problem_file, capsys):
    rc, out, err = run(capsys, "validate", "--quiet", problem_file)
    assert rc == 0
    assert out == "" and err == ""


def test_validate_garbage_is_parse_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    rc, _out, _err = run(capsys, "validate", str(bad))
    assert rc == 3


def test_validate_broken_comb_is_invalid_exit(tmp_path, capsys):
    problem = helstrom_problem()
    doc = serde.comb_to_json(problem.combs[0])
    doc["matrix"] = serde.complex_to_json(2.0 * np.asarray(
        serde.complex_from_json(doc["matrix"])))
    path = tmp_path / "comb.json"
    serde.dump_path(doc, str(path))
    rc, _out, _err = run(capsys, "validate", str(path))
    assert rc == 2


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal",
                                                         "off-diagonal"])
def test_validate_non_finite_comb_is_invalid_exit(tmp_path, capsys, entry,
                                                  value):
    doc = serde.comb_to_json(helstrom_problem().combs[0])
    doc["matrix"][entry[0]][entry[1]][0] = float(value)
    path = tmp_path / "comb.json"
    path.write_text(json.dumps(doc))
    rc, _out, err = run(capsys, "validate", str(path))
    assert rc == 2
    assert "not Hermitian" in err


@pytest.fixture
def solution_doc(problem_file, tmp_path, capsys):
    path = tmp_path / "solution.json"
    assert run(capsys, "solve", problem_file, "--out", str(path),
               "--quiet")[0] == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("key, says", [
    ("tester", "OK tester: 2 outcomes"),
    ("comb_certificate", "OK comb: 1 steps"),
])
def test_validate_a_solutions_tester_and_comb(solution_doc, key, says,
                                              tmp_path, capsys):
    path = tmp_path / ("%s.json" % key)
    path.write_text(json.dumps(solution_doc[key]))
    rc, _out, err = run(capsys, "validate", str(path))
    assert rc == 0
    assert says in err


def test_validate_tester_with_a_non_psd_outcome_is_invalid_exit(
        solution_doc, tmp_path, capsys):
    # move -I from one outcome to the other: the sum, and so the
    # normalization, stays, and the first outcome is no longer PSD
    doc = solution_doc["tester"]
    shift = np.eye(2)
    (a, ma), (b, mb) = doc["outcomes"].items()
    doc["outcomes"] = {
        a: serde.complex_to_json(serde.complex_from_json(ma) - shift),
        b: serde.complex_to_json(serde.complex_from_json(mb) + shift)}
    path = tmp_path / "tester.json"
    path.write_text(json.dumps(doc))
    rc, _out, err = run(capsys, "validate", str(path))
    assert rc == 2
    assert "outcome" in err


@pytest.mark.parametrize("doc, says", [
    ({"foo": 1}, "file is neither a comb, a tester, nor a problem"),
    ({"outcomes": {"0": [[[1, 0]]]}}, "tester file missing key 'steps'"),
    ({"steps": [{"in": {"id": "i", "dim": 1}, "out": {"id": "o", "dim": 1}}],
      "outcomes": {}}, "tester outcomes must be a non-empty object"),
], ids=["no-known-kind", "tester-no-steps", "tester-no-outcomes"])
def test_validate_a_malformed_object_is_parse_exit(tmp_path, capsys, doc,
                                                   says):
    path = tmp_path / "other.json"
    path.write_text(json.dumps(doc))
    rc, _out, err = run(capsys, "validate", str(path))
    assert rc == 3
    assert err == "parse error: %s\n" % says


def test_solve_writes_solution_and_dual_check_accepts_it(
        problem_file, tmp_path, capsys):
    sol_path = tmp_path / "solution.json"
    rc, _out, err = run(capsys, "solve", problem_file, "--out", str(sol_path))
    assert rc == 0
    assert "gamma 0.8535533" in err
    doc = json.loads(sol_path.read_text())
    assert doc["gamma"] == pytest.approx(HELSTROM_VALUE, abs=1e-6)

    rc2, _out2, err2 = run(capsys, "dual-check", problem_file, str(sol_path))
    assert rc2 == 0
    assert "certified True" in err2


def test_solve_report_is_reproducible(problem_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(capsys, "solve", problem_file, "--out", str(a))[0] == 0
    assert run(capsys, "solve", problem_file, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_main_calls_do_not_share_options(problem_file, tmp_path,
                                                  capsys):
    a, b, fresh = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    rc, out, err = run(capsys, "solve", problem_file, "--tol", "1e-6",
                       "--quiet", "--out", str(a))
    assert rc == 0 and out == "" and err == ""
    rc, _out, err = run(capsys, "solve", problem_file, "--out", str(b))
    assert rc == 0
    assert "gamma 0.8535533" in err

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qnetopt.cli", "solve",
                           problem_file, "--out", str(fresh)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert b.read_bytes() == fresh.read_bytes()
    assert a.read_bytes() != b.read_bytes()


def test_solve_iteration_limit_exit(problem_file, capsys):
    rc, _out, _err = run(capsys, "solve", problem_file, "--max-iter", "2",
                         "--out", "/dev/null")
    assert rc == 5


@pytest.mark.parametrize("flag, value", [
    ("--tol", "inf"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "-1"),
    ("--max-iter", "-1")])
def test_solve_bad_option_is_usage_exit(problem_file, capsys, flag, value):
    rc, _out, err = run(capsys, "solve", problem_file, flag, value,
                        "--out", "/dev/null")
    assert rc == 7
    assert "usage error" in err


def test_example_negative_max_iter_is_usage_exit(capsys):
    assert run(capsys, "example", "helstrom", "--max-iter", "-1")[0] == 7


def test_solve_zero_iterations_is_limit_exit(problem_file, capsys):
    rc, _out, _err = run(capsys, "solve", problem_file, "--max-iter", "0",
                         "--out", "/dev/null")
    assert rc == 5


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_dual_check_bad_tol_is_usage_exit(problem_file, tmp_path, capsys,
                                          tol):
    doc = serde.solution_to_json(solve(helstrom_problem()))
    doc["lambda"] = 0.1  # below the optimum 0.854: no tol may certify it
    path = tmp_path / "low.json"
    serde.dump_path(doc, str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path),
                        "--tol", tol)
    assert rc == 7
    assert "certified" not in err
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path),
                        "--tol", "1e-3")
    assert rc == 2 and "certified False" in err


def test_solve_lapack_failure_is_numerical_exit(problem_file, tmp_path,
                                                capsys, monkeypatch):
    # the interior point inverts its Cholesky factors every iteration
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    rc, _out, err = run(capsys, "solve", problem_file,
                        "--out", str(tmp_path / "solution.json"))
    assert rc == 6
    assert err.startswith("numerical failure: Cholesky inverse failed")


def test_dual_check_rejects_scaled_lambda(problem_file, tmp_path, capsys):
    sol = solve(helstrom_problem())
    doc = serde.solution_to_json(sol)
    doc["lambda"] = 0.5 * doc["lambda"]
    path = tmp_path / "cheat.json"
    serde.dump_path(doc, str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 2
    assert "certified False" in err


# a JSON number only: float() would take true as 1.0 and "-1" as -1.0
@pytest.mark.parametrize("lam", ["-Infinity", "Infinity", "NaN", "true",
                                 "false", "-1.0", "-1e-300", '"-1"', '"nan"'])
def test_dual_check_rejects_non_finite_lambda(problem_file, tmp_path, capsys,
                                              lam):
    doc = serde.comb_to_json(solve(helstrom_problem()).comb_certificate)
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(doc)[:-1] + ', "lambda": %s}' % lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 3
    assert err == ("parse error: certificate file needs a finite, "
                   "nonnegative numeric 'lambda'\n")


def test_dual_check_rejects_a_numeric_string_lambda(problem_file, tmp_path,
                                                    capsys):
    doc = serde.solution_to_json(solve(helstrom_problem()))
    doc["lambda"] = repr(doc["lambda"])  # the right value, as a string
    path = tmp_path / "lambda.json"
    serde.dump_path(doc, str(path))
    rc, out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 3 and out == ""
    assert err == ("parse error: certificate file needs a finite, "
                   "nonnegative numeric 'lambda'\n")


def _first_matrix_entry(doc):
    return next(iter(doc["combs"].values()))[0]


# Helstrom's own values, as strings or as true: float() would read each
@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("field, edit", [
    ("prior", lambda doc: doc["prior"].__setitem__(0, "0.5")),
    ("payoff", lambda doc: doc["payoff"][1].__setitem__(0, "0")),
    ("matrix", lambda doc: _first_matrix_entry(doc).__setitem__(
        0, ["1.0", "0"])),
    ("payoff_shift", lambda doc: doc.__setitem__("payoff_shift", "0")),
    ("payoff_shift", lambda doc: doc.__setitem__("payoff_shift", True)),
    # NumPy reads true as 1 beside numbers
    ("prior", lambda doc: doc.__setitem__("prior", [True, 0.5])),
    ("payoff", lambda doc: doc.__setitem__("payoff", [[True, 0], [0, 1]])),
    ("matrix", lambda doc: _first_matrix_entry(doc).__setitem__(
        0, [True, 0.0])),
], ids=["prior", "payoff", "matrix", "shift-string", "shift-true",
        "prior-true", "payoff-true", "matrix-true"])
def test_a_problem_number_that_is_no_json_number_is_parse_exit(
        tmp_path, capsys, command, field, edit):
    doc = serde.problem_to_json(helstrom_problem())
    edit(doc)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "solution.json"
    argv = [command, str(path)]
    if command == "solve":
        argv += ["--out", str(out_path)]
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert err.startswith("parse error: %s " % field)
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("key, index, value", [
    ("prior", (0,), "NaN"),
    ("payoff", (0, 1), "NaN"),
    ("payoff", (1, 1), "Infinity"),
    ("payoff_shift", (), "NaN"),
    ("payoff_shift", (), "Infinity"),
    ("payoff_shift", (), "-Infinity"),
], ids=["prior-nan", "payoff-nan", "payoff-inf", "shift-nan", "shift-inf",
        "shift-minus-inf"])
def test_non_finite_problem_input_is_usage_exit(tmp_path, capsys, command,
                                                key, index, value):
    doc = serde.problem_to_json(helstrom_problem())
    if index:
        row = doc[key]
        for i in index[:-1]:
            row = row[i]
        row[index[-1]] = float(value)
    else:
        doc[key] = float(value)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "solve":
        argv += ["--out", str(tmp_path / "solution.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        rc, _out, err = run(capsys, *argv)
    assert rc == 7
    assert "%s " % key in err and "finite" in err
    assert not (tmp_path / "solution.json").exists()


@pytest.mark.parametrize("command", ["validate", "solve", "dual-check"])
@pytest.mark.parametrize("key, value", [
    ("payoff_shift", "abc"),
    ("payoff_shift", None),
    ("payoff_shift", [1]),
    ("payoff_shift", 10 ** 400),  # no float holds it
    ("combs", 5),
    ("combs", {"0": [[[1, 0]], [[1, 0], [0, 0]]]}),
    ("steps", KeyError),  # the key is deleted
], ids=["shift-string", "shift-null", "shift-list", "shift-huge",
        "combs-number", "combs-ragged", "no-steps"])
def test_malformed_problem_is_parse_exit(problem_file, tmp_path, capsys,
                                         command, key, value):
    doc = serde.problem_to_json(helstrom_problem())
    if value is KeyError:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "dual-check":
        argv.append(problem_file)  # never read: the problem fails first
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert err.startswith("parse error:")


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("labels", ["01", {"0": 0, "1": 1}],
                         ids=["string", "object"])
def test_labels_that_are_not_a_list_are_parse_exit(tmp_path, capsys, command,
                                                   labels):
    doc = serde.problem_to_json(helstrom_problem())
    doc["labels_x"] = labels  # iterating either would give '0' and '1'
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, command, str(path),
                       *(["--out", "/dev/null"] if command == "solve" else []))
    assert rc == 3 and out == ""
    assert err == "parse error: problem labels_x must be a list\n"


@pytest.mark.parametrize("dim", [0, -3, 2.5, "2", True])
def test_bad_factor_dim_is_parse_exit(tmp_path, capsys, dim):
    # a dim must be a JSON integer >= 1: none is rounded, read from a
    # string, or left for the dimension cap to refuse
    doc = serde.problem_to_json(helstrom_problem())
    doc["steps"][0]["out"]["dim"] = dim
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "validate", str(path))
    assert rc == 3 and out == ""
    assert err.startswith("parse error:") and "dim" in err


@pytest.mark.parametrize("doc", [
    [1, 2], "lambda", 5, {"comb_certificate": [1, 2], "lambda": 1.0},
], ids=["list", "string", "number", "certificate-list"])
def test_dual_check_malformed_solution_is_parse_exit(problem_file, tmp_path,
                                                      capsys, doc):
    path = tmp_path / "solution.json"
    path.write_text(json.dumps(doc))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 3
    assert err.startswith("parse error:")


def test_dual_check_accepts_bare_comb_with_lambda(problem_file, tmp_path,
                                                  capsys):
    sol = solve(helstrom_problem())
    doc = serde.comb_to_json(sol.comb_certificate)
    doc["lambda"] = sol.lambda_
    path = tmp_path / "bare.json"
    serde.dump_path(doc, str(path))
    assert run(capsys, "dual-check", problem_file, str(path))[0] == 0


@pytest.mark.parametrize("factor", [SystemLabel("hel", 3),
                                    SystemLabel("other", 2)],
                         ids=["other-dims", "other-ids"])
def test_dual_check_certificate_on_another_space_is_invalid_exit(
        problem_file, tmp_path, capsys, factor):
    mixed = LabeledOperator((factor,), np.eye(factor.dim) / factor.dim)
    doc = {"comb_certificate": serde.comb_to_json(comb_of_state(mixed)),
           "lambda": 1.0}
    path = tmp_path / "solution.json"
    serde.dump_path(doc, str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 2
    assert "match problem space" in err


def test_dual_check_needs_lambda(problem_file, tmp_path, capsys):
    sol = solve(helstrom_problem())
    path = tmp_path / "nolam.json"
    serde.dump_path(serde.comb_to_json(sol.comb_certificate), str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 3
    assert "lambda" in err


def test_example_helstrom_document(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _o, err = run(capsys, "example", "helstrom", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["gamma"] == pytest.approx(HELSTROM_VALUE, abs=1e-6)
    assert "gamma 0.8535533" in err


def test_example_two_phase_document(tmp_path, capsys):
    out = tmp_path / "rep.json"
    rc, _o, _e = run(capsys, "example", "two-phase", "--p", "0.7",
                     "--quiet", "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["gamma_joint"] == pytest.approx(0.35, abs=1e-5)
    assert doc["bell_sq_overlap"] >= 0.999
    assert doc["product_grid_value"] == pytest.approx(0.25, abs=1e-9)


SQRT_HALF, SQRT_3_4 = np.sqrt(0.5), np.sqrt(0.75)


@pytest.mark.parametrize("name, expected, tol", [
    ("ykl", {"p_success": 2.0 / 3.0}, 1e-7),
    ("qmax", {"q_max": 0.5, "p_success": 1.0,
              "invariant_state_diag": [0.5, 0.5]}, 1e-7),
    ("multicopy", {"p_single": (1 + SQRT_HALF) / 2,
                   "p_multi": (1 + SQRT_3_4) / 2,
                   "advantage": (1 + SQRT_3_4) / 2 - ((1 + SQRT_HALF) / 2) ** 2},
     1e-12),
    ("product-rule", {"gamma_joint": ((1 + SQRT_HALF) / 2) ** 2}, 2e-6),
])
def test_example_reports(tmp_path, capsys, name, expected, tol):
    out = tmp_path / "rep.json"
    assert run(capsys, "example", name, "--quiet", "--out", str(out))[0] == 0
    doc = json.loads(out.read_text())
    for key, value in expected.items():
        assert doc[key] == pytest.approx(value, abs=tol), key
    if name == "ykl":
        assert doc["witness_slack"] <= 1e-6
    if name == "product-rule":
        assert doc["certified"] is True
        assert doc["relative_deviation"] <= 1e-6


def test_example_emits_to_stdout_by_default(capsys):
    rc, out, _err = run(capsys, "example", "sum-phases", "--levels", "8",
                        "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ratio"] == pytest.approx(1.0 + np.cos(np.pi / 9.0), abs=1e-12)


def test_example_unknown_name_is_usage_exit(capsys):
    rc, _out, err = run(capsys, "example", "nonesuch")
    assert rc == 7
    assert "unknown example" in err


def test_example_multicopy_cap_exit(capsys):
    rc, _out, err = run(capsys, "example", "multicopy", "--copies", "13")
    assert rc == 4
    assert "dimension cap" in err


def test_example_multicopy_bad_copies_is_usage_exit(capsys):
    assert run(capsys, "example", "multicopy", "--copies", "0")[0] == 7


def test_product_rule_over_files(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        p = tmp_path / ("%s.json" % tag)
        serde.dump_path(serde.problem_to_json(helstrom_problem(tag)), str(p))
        paths.append(str(p))
    out = tmp_path / "rep.json"
    rc, _o, _e = run(capsys, "product-rule", *paths, "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["certified"] is True
    assert doc["gamma_joint"] == pytest.approx(HELSTROM_VALUE ** 2, abs=2e-6)


def test_run_examples_script_passes_every_example():
    """scripts/run_examples.py runs each named example and exits 0."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    script = root / "scripts" / "run_examples.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(EXAMPLE_NAMES)
    assert len(lines) == 8 and all(" rc=0 " in line for line in lines)
