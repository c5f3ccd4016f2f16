"""JSON interchange for operators, combs, testers, problems and reports.

Conventions, shared by every format here:

* complex matrices are nested arrays of ``[re, im]`` pairs, row-major, and
  carry an explicit ``"factors": [{"id", "dim"}, ...]`` header where one is
  needed;
* comb and tester files start from a ``"steps"`` header listing
  ``{"in": {"id", "dim"}, "out": {"id", "dim"}}`` per time step, and store
  operators in the canonical factor order;
* outcome ids and parameter labels are written as strings.

Loading never validates physics (positivity, normalization); that is the
job of the validators, which the command-line front end calls explicitly.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .errors import ParseError
from .estimation import EstimationProblem
from .networks import CombSpace, QuantumComb, Tester
from .operators import LabeledOperator, SystemLabel


def complex_to_json(data: np.ndarray) -> list:
    data = np.asarray(data, dtype=complex)
    return np.stack([data.real, data.imag], axis=-1).tolist()


def complex_from_json(doc) -> np.ndarray:
    try:
        arr = np.asarray(doc, dtype=float)
    except (TypeError, ValueError) as e:
        raise ParseError("bad matrix payload: %s" % e)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ParseError("matrix entries must be [re, im] pairs")
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def _label_to_json(lab: SystemLabel) -> dict:
    return {"id": str(lab.id), "dim": int(lab.dim)}


def _label_from_json(doc) -> SystemLabel:
    try:
        ident, dim = str(doc["id"]), doc["dim"]
    except (KeyError, TypeError) as e:
        raise ParseError("bad factor header: %s" % e)
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError("bad factor header: dim %r is not an integer >= 1"
                         % (dim,))
    return SystemLabel(ident, dim)


def steps_to_json(space: CombSpace) -> list:
    return [{"in": _label_to_json(s.in_sys), "out": _label_to_json(s.out_sys)}
            for s in space.steps]


def space_from_json(doc) -> CombSpace:
    if not isinstance(doc, list) or not doc:
        raise ParseError("steps header must be a non-empty list")
    steps = []
    for s in doc:
        try:
            steps.append((_label_from_json(s["in"]), _label_from_json(s["out"])))
        except (KeyError, TypeError) as e:
            raise ParseError("bad step entry: %s" % e)
    return CombSpace(tuple(steps))


def comb_to_json(comb: QuantumComb) -> dict:
    return {"steps": steps_to_json(comb.space),
            "matrix": complex_to_json(comb.op.data)}


def comb_from_json(doc) -> QuantumComb:
    try:
        space = space_from_json(doc["steps"])
        data = complex_from_json(doc["matrix"])
    except KeyError as e:
        raise ParseError("comb file missing key %s" % e)
    except TypeError as e:
        raise ParseError("bad comb payload: %s" % e)
    return QuantumComb(space, LabeledOperator(space.factors(), data))


def tester_to_json(tester: Tester) -> dict:
    outcomes = {}
    for m, op in tester.outcomes:
        key = str(m)
        if key in outcomes:
            raise ParseError("outcome ids collide as strings: %r" % key)
        outcomes[key] = complex_to_json(op.data)
    return {"steps": steps_to_json(tester.space), "outcomes": outcomes}


def tester_from_json(doc) -> Tester:
    try:
        space = space_from_json(doc["steps"])
        raw = doc["outcomes"]
    except KeyError as e:
        raise ParseError("tester file missing key %s" % e)
    if not isinstance(raw, dict) or not raw:
        raise ParseError("tester outcomes must be a non-empty object")
    factors = space.factors()
    outcomes = tuple((m, LabeledOperator(factors, complex_from_json(mat)))
                     for m, mat in raw.items())
    return Tester(space, outcomes)


def problem_to_json(problem: EstimationProblem) -> dict:
    labels = [str(x) for x in problem.labels_x]
    if len(set(labels)) != len(labels):
        raise ParseError("parameter labels collide as strings: %r" % labels)
    combs = {x: complex_to_json(c.op.data)
             for x, c in zip(labels, problem.combs)}
    return {"steps": steps_to_json(problem.space),
            "labels_x": labels,
            "prior": [float(p) for p in problem.prior],
            "payoff": [[float(g) for g in row] for row in problem.payoff],
            "combs": combs,
            "payoff_shift": float(problem.payoff_shift)}


def problem_from_json(doc) -> EstimationProblem:
    try:
        space = space_from_json(doc["steps"])
        labels = tuple(str(x) for x in doc["labels_x"])
        prior = np.asarray(doc["prior"], dtype=float)
        payoff = np.asarray(doc["payoff"], dtype=float)
        raw_combs = doc["combs"]
        shift = float(doc.get("payoff_shift", 0.0))
    except KeyError as e:
        raise ParseError("problem file missing key %s" % e)
    except (TypeError, ValueError) as e:
        raise ParseError("bad problem payload: %s" % e)
    if not isinstance(raw_combs, dict):
        raise ParseError("problem combs must be an object")
    factors = space.factors()
    combs = []
    for x in labels:
        if x not in raw_combs:
            raise ParseError("no comb for parameter %r" % x)
        combs.append(QuantumComb(space, LabeledOperator(
            factors, complex_from_json(raw_combs[x]))))
    return EstimationProblem(space, labels, prior, tuple(combs), payoff, shift)


def solution_to_json(sol) -> dict:
    return {"gamma": float(sol.gamma_primal),
            "lambda": float(sol.lambda_),
            "gap": float(sol.gap),
            "tester": tester_to_json(sol.tester),
            "comb_certificate": comb_to_json(sol.comb_certificate),
            "payoff_shift": float(sol.payoff_shift),
            "iterations": int(sol.iterations),
            "status": "optimal"}


def product_report_to_json(report) -> dict:
    return {"gamma_joint": float(report.gamma_joint),
            "gamma_factors": [float(g) for g in report.gamma_factors],
            "product": float(report.product_of_factors),
            "relative_deviation": float(report.relative_deviation),
            "certified": bool(report.certified)}


def dumps(doc) -> str:
    """Canonical rendering: two-space indent, insertion order, no NaN."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError("invalid JSON: %s" % e)


def load_path(path: str) -> dict:
    """The JSON object in a file; every file format here is one."""
    try:
        with open(path, "r") as fh:
            doc = loads(fh.read())
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e))
    if not isinstance(doc, dict):
        raise ParseError("%s does not hold a JSON object" % path)
    return doc


def dump_path(doc, path: Optional[str]) -> str:
    text = dumps(doc)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
