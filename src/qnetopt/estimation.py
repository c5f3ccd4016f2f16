"""Estimation problems over finite parameter sets.

An EstimationProblem bundles a comb space, a finite parameter list, a prior,
one process comb per parameter, and a nonnegative payoff matrix g(est, true).
It induces one payoff operator per candidate estimate,

    G_est = sum_x prior(x) * g(est, x) * R_x,

whose pairing with a tester gives the expected payoff.

Payoffs must be nonnegative.  Problems built from sign-indefinite score
functions record the constant added to make them nonnegative in
``payoff_shift``; optimal values reported by the solver subtract it again.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParameter, OutcomeMismatch, ShapeMismatch
from .networks import CombSpace, Tester, tensor_combs, validate_comb

PRIOR_TOL = 1e-12


def float_array(values, what: str) -> np.ndarray:
    """A read-only float copy of values; BadParameter if complex or unreadable."""
    try:
        if np.iscomplexobj(values):  # numpy would keep an array's real part
            raise TypeError("complex values")
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError) as e:
        raise BadParameter("%s is not an array of numbers: %s" % (what, e))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EstimationProblem:
    """Finite-parameter estimation task: prior, process combs, payoff matrix."""

    space: CombSpace
    labels_x: tuple
    prior: np.ndarray
    combs: tuple  # QuantumComb per parameter, aligned with labels_x
    payoff: np.ndarray  # payoff[est_index, true_index] >= 0
    payoff_shift: float = 0.0

    def __post_init__(self):
        labels = tuple(self.labels_x)
        object.__setattr__(self, "labels_x", labels)
        if len(set(labels)) != len(labels):
            raise BadParameter("parameter labels repeat: %r" % (labels,))
        prior = float_array(self.prior, "prior")
        object.__setattr__(self, "prior", prior)
        if prior.shape != (len(labels),):
            raise ShapeMismatch("prior length %r vs %d labels" % (prior.shape, len(labels)))
        if not np.isfinite(prior).all():
            raise BadParameter("prior has non-finite entries")
        if np.any(prior < -PRIOR_TOL):
            raise BadParameter("prior has negative entries")
        if abs(float(prior.sum()) - 1.0) > 1e-9:
            raise BadParameter("prior sums to %.12f, not 1" % float(prior.sum()))
        payoff = float_array(self.payoff, "payoff")
        object.__setattr__(self, "payoff", payoff)
        if payoff.shape != (len(labels), len(labels)):
            raise ShapeMismatch("payoff shape %r vs %d labels" % (payoff.shape, len(labels)))
        if not np.isfinite(payoff).all():
            raise BadParameter("payoff has non-finite entries")
        shift = float_array(self.payoff_shift, "payoff_shift")
        if shift.shape or not np.isfinite(shift):
            raise BadParameter("payoff_shift %r is not a finite number"
                               % (self.payoff_shift,))
        object.__setattr__(self, "payoff_shift", float(shift))
        if np.any(payoff < -1e-12):
            raise BadParameter(
                "payoff has negative entries (min %.3e); apply a shift first"
                % float(payoff.min()))
        combs = tuple(self.combs)
        object.__setattr__(self, "combs", combs)
        if len(combs) != len(labels):
            raise ShapeMismatch("%d combs vs %d labels" % (len(combs), len(labels)))
        for c in combs:
            if c.space != self.space:
                raise ShapeMismatch("comb space differs from problem space")

    @property
    def num_params(self) -> int:
        return len(self.labels_x)

    def validated(self) -> "EstimationProblem":
        """Re-run validate_comb on every comb; returns self on success."""
        for c in self.combs:
            validate_comb(c)
        return self

    def g_max(self) -> float:
        return float(self.payoff.max())


def payoff_operators(problem: EstimationProblem) -> np.ndarray:
    """G_est = sum_x prior(x) g(est, x) R_x on the canonical factor order.

    A read-only Hermitian (K, D, D) stack, row k for labels_x[k].
    """
    stack = np.array([c.op.data for c in problem.combs], dtype=complex)
    acc = np.tensordot(problem.payoff * problem.prior[None, :], stack, 1)
    del stack  # the combs' copy, freed before the Hermitian part is taken
    acc += acc.conj().swapaxes(-1, -2)
    acc /= 2.0
    acc.setflags(write=False)
    return acc


def expected_payoff(tester: Tester, problem: EstimationProblem) -> float:
    """gamma[T] = sum_est Tr[T_est G_est], computed with the stored payoff.

    The tester must be on the problem's space (ShapeMismatch), and its
    outcome ids must coincide with the problem's parameter labels as sets.
    The value is on the stored-payoff scale; subtract problem.payoff_shift to
    get back to the unshifted score.
    """
    if tester.space != problem.space:
        raise ShapeMismatch("tester space differs from problem space")
    if sorted(map(repr, tester.outcome_ids())) != sorted(map(repr, problem.labels_x)):
        raise OutcomeMismatch(
            "tester outcomes %r vs problem labels %r"
            % (tester.outcome_ids(), problem.labels_x))
    G = payoff_operators(problem)
    total = 0.0
    for m, op in tester.outcomes:  # in canonical order, as Tester keeps them
        total += float(np.trace(op.data @ G[problem.labels_x.index(m)]).real)
    return total


def joint_problem(problems: Sequence[EstimationProblem]) -> EstimationProblem:
    """Product of independent problems: product prior, tensor combs, product payoff.

    Parameter labels become tuples.  The stored payoffs multiply, so factors
    should carry payoff_shift == 0 for the product to have its usual meaning;
    the joint problem's own shift is 0 either way.
    """
    if not problems:
        raise BadParameter("need at least one problem")
    space = problems[0].space
    labels = [(x,) for x in problems[0].labels_x]
    prior = problems[0].prior
    payoff = problems[0].payoff
    for p in problems[1:]:  # concat raises DuplicateLabel for shared labels
        space = space.concat(p.space)
        labels = [lx + (x,) for lx in labels for x in p.labels_x]
        prior = np.outer(prior, p.prior).reshape(-1)
        payoff = np.einsum("ij,kl->ikjl", payoff, p.payoff).reshape(
            payoff.shape[0] * p.payoff.shape[0], -1)
    combs = tuple(functools.reduce(tensor_combs, chosen)
                  for chosen in itertools.product(*(p.combs for p in problems)))
    return EstimationProblem(space, tuple(labels), prior, combs, payoff)


def problem_from_raw_payoff(space, labels_x, prior, combs,
                            raw_payoff) -> EstimationProblem:
    """Build a problem from a possibly sign-indefinite score matrix.

    Shifts by -min(raw) when the minimum is negative and records the shift.
    """
    raw = np.asarray(raw_payoff, dtype=float)
    shift = float(max(0.0, -raw.min()))
    return EstimationProblem(space, tuple(labels_x), prior, tuple(combs),
                             raw + shift, payoff_shift=shift)
