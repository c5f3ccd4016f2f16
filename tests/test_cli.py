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


def test_validate_an_object_of_no_known_kind_is_parse_exit(tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"foo": 1}))
    rc, _out, err = run(capsys, "validate", str(path))
    assert rc == 3
    assert "neither a comb, a tester, nor a problem" in err


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


def test_solve_svd_failure_is_numerical_exit(problem_file, tmp_path, capsys,
                                             monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    rc, _out, err = run(capsys, "solve", problem_file,
                        "--out", str(tmp_path / "solution.json"))
    assert rc == 6
    assert "numerical failure" in err


def test_dual_check_rejects_scaled_lambda(problem_file, tmp_path, capsys):
    sol = solve(helstrom_problem())
    doc = serde.solution_to_json(sol)
    doc["lambda"] = 0.5 * doc["lambda"]
    path = tmp_path / "cheat.json"
    serde.dump_path(doc, str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 2
    assert "certified False" in err


# JSON's true loads as a bool, which float() would take as 1.0; a string
# goes through float(), as payoff_shift's does
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


def test_dual_check_reads_a_numeric_string_lambda(problem_file, tmp_path,
                                                  capsys):
    doc = serde.solution_to_json(solve(helstrom_problem()))
    doc["lambda"] = repr(doc["lambda"])  # as problem files' payoff_shift
    path = tmp_path / "lambda.json"
    serde.dump_path(doc, str(path))
    rc, _out, err = run(capsys, "dual-check", problem_file, str(path))
    assert rc == 0 and "certified True" in err


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
    ("combs", 5),
], ids=["shift-string", "shift-null", "shift-list", "combs-number"])
def test_malformed_problem_is_parse_exit(problem_file, tmp_path, capsys,
                                         command, key, value):
    doc = serde.problem_to_json(helstrom_problem())
    doc[key] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if command == "dual-check":
        argv.append(problem_file)  # never read: the problem fails first
    rc, out, err = run(capsys, *argv)
    assert rc == 3 and out == ""
    assert err.startswith("parse error:")


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
