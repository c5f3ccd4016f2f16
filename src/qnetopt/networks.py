"""Quantum combs and testers.

A comb describes a multi-time-step process as a single positive operator on
the interleaved (output, input) factors of its steps; a tester describes a
measuring strategy as a family of positive operators.  Both carry recursive
partial-trace normalizations, checked by validate_comb / validate_tester,
and pair through the generalized Born rule born_probability.

Conventions fixed here and used end-to-end:

* Choi operators are ordered (output, input):  choi(C) = sum_ij C(|i><j|) (x) |i><j|.
  With this choice  Tr[choi(C) (A_out (x) B_in^T)] = Tr[A C(B)]  and the partial
  trace over the output equals the identity on the input.
* A comb on steps s = 1..N lives on (out_1, in_1, ..., out_N, in_N), the
  canonical factor order.  QuantumComb and Tester store their operators in
  that order from construction, whatever order they were given in, so no
  code downstream permutes or checks it again.
* A step with input dimension 1 is a preparation; output dimension 1 is a sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import (DuplicateLabel, NormalizationViolation, NotAState, NotPSD,
                     NotTracePreserving, ShapeMismatch)
from .operators import (LabeledOperator, SystemLabel, embed_identity,
                        identity_on, min_eig, partial_trace, permute_systems,
                        tensor, tensor_all)

DEFAULT_TOL = 1e-8


class Step(NamedTuple):
    """One time step: the input system fed to the process, the output returned."""

    in_sys: SystemLabel
    out_sys: SystemLabel


@dataclass(frozen=True)
class CombSpace:
    """Ordered time-step structure shared by combs and testers."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(Step(*s) for s in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ShapeMismatch("a comb space needs at least one step")
        ids = [l.id for s in steps for l in (s.in_sys, s.out_sys)]
        if len(set(ids)) != len(ids):
            raise DuplicateLabel("repeated labels in steps: %r" % (ids,))

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def factors(self) -> tuple:
        """Canonical factor order (out_1, in_1, ..., out_N, in_N)."""
        return self.prefix_factors(self.num_steps)

    def prefix_factors(self, j: int) -> tuple:
        """Factors (out_1, in_1, ..., out_j, in_j) of the first j steps."""
        out = []
        for s in self.steps[:j]:
            out.extend([s.out_sys, s.in_sys])
        return tuple(out)

    def factor_ids(self) -> tuple:
        return tuple(f.id for f in self.factors())

    def in_dims(self) -> tuple:
        return tuple(s.in_sys.dim for s in self.steps)

    def out_dims(self) -> tuple:
        return tuple(s.out_sys.dim for s in self.steps)

    def total_in_dim(self) -> int:
        return int(np.prod(self.in_dims(), dtype=np.int64))

    def concat(self, other: "CombSpace") -> "CombSpace":
        return CombSpace(self.steps + other.steps)


def _canonical(op: LabeledOperator, space: CombSpace) -> LabeledOperator:
    """op in the space's factor order; BadPermutation if its labels differ."""
    want = space.factor_ids()
    if op.label_ids() != want:
        op = permute_systems(op, want)
    return op


@dataclass(frozen=True)
class QuantumComb:
    """Positive operator satisfying the comb normalization recursion."""

    space: CombSpace
    op: LabeledOperator

    def __post_init__(self):
        object.__setattr__(self, "op", _canonical(self.op, self.space))


@dataclass(frozen=True)
class Tester:
    """Outcome-indexed positive operators; the sum obeys the tester recursion."""

    __test__ = False  # not a pytest class, despite the name

    space: CombSpace
    outcomes: tuple  # of (outcome_id, LabeledOperator) pairs, order preserved
    xi_chain: Optional[tuple] = None

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(
            (m, _canonical(op, self.space)) for m, op in self.outcomes))

    def outcome_ids(self) -> tuple:
        return tuple(m for m, _ in self.outcomes)

    def op_for(self, outcome_id) -> LabeledOperator:
        for m, op in self.outcomes:
            if m == outcome_id:
                return op
        raise KeyError(outcome_id)


def choi_of_channel(kraus_list: Sequence[np.ndarray], in_label: SystemLabel,
                    out_label: SystemLabel, tol: float = DEFAULT_TOL) -> LabeledOperator:
    """Choi operator of the channel with the given Kraus operators.

    Factors are ordered (out, in).  Raises NotTracePreserving when the Kraus
    sum deviates from the identity by more than tol in max-entry norm.
    """
    ks = [np.asarray(k, dtype=complex) for k in kraus_list]
    if not ks:
        raise NotTracePreserving("empty Kraus list")
    for k in ks:
        if k.shape != (out_label.dim, in_label.dim):
            raise ShapeMismatch(
                "Kraus shape %r does not map dim %d -> dim %d"
                % (k.shape, in_label.dim, out_label.dim))
    acc = sum(k.conj().T @ k for k in ks)
    if np.max(np.abs(acc - np.eye(in_label.dim))) > tol:
        raise NotTracePreserving(
            "Kraus operators are not trace preserving (residual %.3e)"
            % float(np.max(np.abs(acc - np.eye(in_label.dim)))))
    d = out_label.dim * in_label.dim
    data = np.zeros((d, d), dtype=complex)
    for k in ks:
        v = k.reshape(-1)  # row-major (out, in) pairs
        data += np.outer(v, v.conj())
    return LabeledOperator((out_label, in_label), data)


def comb_of_state(rho: LabeledOperator, tol: float = DEFAULT_TOL) -> QuantumComb:
    """Single-step preparation comb for a density matrix on one factor."""
    if len(rho.factors) != 1:
        raise ShapeMismatch("expected a single-factor state, got %r" % (rho.label_ids(),))
    if abs(np.trace(rho.data) - 1.0) > tol:
        raise NotAState("trace %.6f is not 1" % float(np.trace(rho.data).real))
    if min_eig(rho) < -tol * max(1.0, float(np.max(np.abs(rho.data)))):
        raise NotAState("state has a negative eigenvalue")
    out_sys = rho.factors[0]
    in_sys = SystemLabel(out_sys.id + "#src", 1)
    space = CombSpace(((in_sys, out_sys),))
    op = LabeledOperator((out_sys, in_sys), rho.data.copy())
    return validate_comb(QuantumComb(space, op), tol)


def comb_of_memoryless_sequence(chois: Sequence[LabeledOperator],
                                tol: float = DEFAULT_TOL) -> QuantumComb:
    """Comb of a time-ordered sequence of independent channels (their Chois)."""
    steps = []
    for c in chois:
        if len(c.factors) != 2:
            raise ShapeMismatch("a Choi operator needs (out, in) factors")
        out_sys, in_sys = c.factors
        steps.append((in_sys, out_sys))
    space = CombSpace(tuple(steps))
    op = tensor_all(chois)
    return validate_comb(QuantumComb(space, op), tol)


def _check_psd(op: LabeledOperator, tol: float, what: str):
    scale = max(1.0, float(np.max(np.abs(op.data))) if op.data.size else 1.0)
    me = min_eig(op)
    if me < -tol * scale:
        raise NotPSD("%s has eigenvalue %.3e below -tol*scale" % (what, me))


def validate_comb(comb: QuantumComb, tol: float = DEFAULT_TOL) -> QuantumComb:
    """Check the comb recursion; return the comb.

    Each level's reduced comb, from level N-1 down to level 0, must be the
    partial trace of the level above; the level-0 one is the scalar 1.
    Raises NotPSD or NormalizationViolation(level, residual).
    """
    space = comb.space
    _check_psd(comb.op, tol, "comb operator")
    current = comb.op
    for n in range(space.num_steps, 0, -1):
        step = space.steps[n - 1]
        traced = partial_trace(current, [step.out_sys.id])
        reduced = partial_trace(traced, [step.in_sys.id]) * (1.0 / step.in_sys.dim)
        expected = embed_identity(reduced, step.in_sys,
                                  traced.label_ids().index(step.in_sys.id))
        residual = float(np.max(np.abs(traced.data - expected.data)))
        if residual > tol:
            raise NormalizationViolation(n, residual)
        current = reduced
    # level 0: the innermost reduction must be the scalar 1, not merely
    # proportional to the identity
    scalar = complex(current.data[0, 0])
    if abs(scalar - 1.0) > tol:
        raise NormalizationViolation(0, abs(scalar - 1.0))
    return comb


def validate_tester(tester: Tester, tol: float = DEFAULT_TOL) -> Tester:
    """Check the tester recursion; return the tester with its Xi chain attached.

    The chain lists Xi^(N) down to Xi^(1).  Raises NotPSD when an outcome
    operator is not positive, NormalizationViolation when the recursion fails
    (level N+1 refers to the outcome-sum condition, level 0 to the final scalar).
    """
    space = tester.space
    n_steps = space.num_steps
    if not tester.outcomes:
        raise ShapeMismatch("a tester needs at least one outcome")
    ops = tester.outcomes
    for m, op in ops:
        _check_psd(op, tol, "outcome %r" % (m,))
    total = ops[0][1]
    for _, op in ops[1:]:
        total = total + op
    last = space.steps[-1]
    xi = partial_trace(total, [last.out_sys.id]) * (1.0 / last.out_sys.dim)
    expected = embed_identity(xi, last.out_sys,
                              total.label_ids().index(last.out_sys.id))
    residual = float(np.max(np.abs(total.data - expected.data)))
    if residual > tol:
        raise NormalizationViolation(n_steps + 1, residual)
    chain = [xi]
    for n in range(n_steps, 1, -1):
        prev_out = space.steps[n - 2].out_sys
        traced = partial_trace(xi, [space.steps[n - 1].in_sys.id])
        xi_next = partial_trace(traced, [prev_out.id]) * (1.0 / prev_out.dim)
        expected = embed_identity(xi_next, prev_out,
                                  traced.label_ids().index(prev_out.id))
        residual = float(np.max(np.abs(traced.data - expected.data)))
        if residual > tol:
            raise NormalizationViolation(n - 1, residual)
        xi = xi_next
        chain.append(xi)
    final = float(np.abs(np.trace(xi.data) - 1.0))
    if final > tol:
        raise NormalizationViolation(0, final)
    return Tester(space, ops, xi_chain=tuple(chain))


def born_probability(t_m: LabeledOperator, comb) -> float:
    """Generalized Born rule p(m|R) = Tr[T_m R]."""
    op = comb.op if isinstance(comb, QuantumComb) else comb
    if sorted(t_m.label_ids()) != sorted(op.label_ids()):
        raise ShapeMismatch(
            "tester factors %r do not match comb factors %r"
            % (t_m.label_ids(), op.label_ids()))
    t_aligned = permute_systems(t_m, op.label_ids())
    val = complex(np.trace(t_aligned.data @ op.data))
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-10 * scale:
        raise ShapeMismatch("Born value has imaginary part %.3e" % val.imag)
    return float(val.real)


def tensor_combs(a: QuantumComb, b: QuantumComb) -> QuantumComb:
    """Parallel composition; a's steps first, then b's."""
    return QuantumComb(a.space.concat(b.space), tensor(a.op, b.op))


def tensor_testers(a: Tester, b: Tester) -> Tester:
    """Parallel composition; outcome ids become (id_a, id_b) pairs."""
    outcomes = tuple(((ma, mb), tensor(opa, opb))
                     for ma, opa in a.outcomes for mb, opb in b.outcomes)
    return Tester(a.space.concat(b.space), outcomes)


def uniform_tester(space: CombSpace, outcome_ids: Sequence) -> Tester:
    """The maximally uninformative tester: equal PSD share of a mixed chain.

    Every outcome operator equals I / (|M| * prod in_dims); the chain consists of
    maximally mixed operators and every normalization holds with equality.
    """
    n_out = len(outcome_ids)
    if n_out < 1:
        raise ShapeMismatch("need at least one outcome")
    factors = space.factors()
    c = 1.0 / (n_out * space.total_in_dim())
    op = identity_on(factors) * c
    return Tester(space, tuple((m, op) for m in outcome_ids))
