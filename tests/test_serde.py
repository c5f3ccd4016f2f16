"""JSON round trips for every interchange format, plus the failure paths."""

import numpy as np
import pytest
from conftest import helstrom_problem, operator_from_json, operator_to_json
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetopt import serde
from qnetopt.errors import ParseError
from qnetopt.instances import random_memory_comb
from qnetopt.networks import (CombSpace, born_probability, validate_comb,
                              validate_tester)
from qnetopt.operators import LabeledOperator, SystemLabel
from qnetopt.sdp import solve


def test_complex_round_trip_is_exact(rng):
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = serde.complex_from_json(serde.complex_to_json(m))
    assert np.array_equal(back, m)


def _complex_to_json_rows(data):
    """The per-entry loop complex_to_json replaced, kept as its reference."""
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(data, dtype=complex)]


@pytest.mark.parametrize("n", range(1, 10))
def test_complex_to_json_matches_the_entry_loop(n, rng):
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    special = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-1e-300, 1e-300)]
    data.flat[:3] = special[:n * n]
    assert serde.dumps(serde.complex_to_json(data)) == \
        serde.dumps(_complex_to_json_rows(data))
    assert serde.complex_to_json(data.real) == _complex_to_json_rows(data.real)


def test_complex_rejects_flat_arrays():
    with pytest.raises(ParseError, match="pairs"):
        serde.complex_from_json([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ParseError):
        serde.complex_from_json([[["x", "y"]]])


def test_operator_round_trip(rng):
    a, b = SystemLabel("a", 2), SystemLabel("b", 3)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    op = LabeledOperator((a, b), m)
    back = operator_from_json(operator_to_json(op))
    assert back.factors == (a, b)
    assert np.array_equal(back.data, op.data)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_comb_round_trip_stays_valid(seed):
    g = np.random.default_rng(seed)
    space = CombSpace(tuple((SystemLabel("si%d" % k, 2), SystemLabel("so%d" % k, 2))
                            for k in range(2)))
    comb = random_memory_comb(g, space)
    back = serde.comb_from_json(serde.comb_to_json(comb))
    validate_comb(back)
    assert back.space == comb.space
    assert np.allclose(back.op.data, comb.op.data)


def test_tester_round_trip_preserves_born_rule():
    problem = helstrom_problem()
    sol = solve(problem)
    back = validate_tester(serde.tester_from_json(
        serde.tester_to_json(sol.tester)))
    comb = problem.combs[0]
    for (m0, op0), (m1, op1) in zip(sol.tester.outcomes, back.outcomes):
        assert str(m0) == m1
        assert born_probability(op0, comb) == pytest.approx(
            born_probability(op1, comb), abs=1e-14)


def test_tester_string_collision_is_refused():
    problem = helstrom_problem()
    sol = solve(problem)
    outcomes = ((1, sol.tester.outcomes[0][1]), ("1", sol.tester.outcomes[1][1]))
    from qnetopt.networks import Tester
    with pytest.raises(ParseError, match="collide"):
        serde.tester_to_json(Tester(sol.tester.space, outcomes))


def test_problem_round_trip():
    problem = helstrom_problem()
    doc = serde.problem_to_json(problem)
    back = serde.problem_from_json(doc)
    assert back.labels_x == tuple(str(x) for x in problem.labels_x)
    assert np.array_equal(back.prior, problem.prior)
    assert np.array_equal(back.payoff, problem.payoff)
    assert back.payoff_shift == problem.payoff_shift
    for a, b in zip(back.combs, problem.combs):
        assert np.array_equal(a.op.data, b.op.data)


def test_problem_shift_defaults_to_zero():
    doc = serde.problem_to_json(helstrom_problem())
    del doc["payoff_shift"]
    assert serde.problem_from_json(doc).payoff_shift == 0.0


def test_problem_missing_comb_is_a_parse_error():
    doc = serde.problem_to_json(helstrom_problem())
    doc["combs"].popitem()
    with pytest.raises(ParseError, match="no comb"):
        serde.problem_from_json(doc)


def test_solution_document_keys():
    sol = solve(helstrom_problem())
    doc = serde.solution_to_json(sol)
    assert set(doc) == {"gamma", "lambda", "gap", "tester", "comb_certificate",
                        "payoff_shift", "iterations", "status"}
    assert doc["gamma"] == pytest.approx(sol.gamma_primal)
    assert doc["lambda"] == pytest.approx(sol.lambda_)
    assert doc["status"] == "optimal"


def test_product_report_document():
    from qnetopt.product_rule import verify_product_rule
    rep = verify_product_rule([helstrom_problem("a"), helstrom_problem("b")])
    doc = serde.product_report_to_json(rep)
    assert set(doc) == {"gamma_joint", "gamma_factors", "product",
                        "relative_deviation", "certified"}
    assert doc["certified"] is True
    assert doc["product"] == pytest.approx(rep.product_of_factors)


def test_space_needs_well_formed_steps():
    with pytest.raises(ParseError):
        serde.space_from_json([{"in": {"id": "a", "dim": 2}}])
    with pytest.raises(ParseError):
        serde.space_from_json("steps")


def test_loads_wraps_decode_errors(tmp_path):
    with pytest.raises(ParseError, match="invalid JSON"):
        serde.loads("{not json")
    with pytest.raises(ParseError, match="cannot read"):
        serde.load_path(str(tmp_path / "absent.json"))


def test_dumps_is_deterministic():
    doc = serde.problem_to_json(helstrom_problem())
    assert serde.dumps(doc) == serde.dumps(doc)
    assert serde.dumps(doc).endswith("\n")


def test_dumps_refuses_nan():
    with pytest.raises(ValueError):
        serde.dumps({"gamma": float("nan")})


def test_dump_path_writes_and_returns(tmp_path):
    target = tmp_path / "out.json"
    text = serde.dump_path({"a": 1}, str(target))
    assert target.read_text() == text
    assert serde.dump_path({"a": 1}, None) == text
