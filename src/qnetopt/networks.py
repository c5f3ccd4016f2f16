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
  canonical factor order.  QuantumComb and Tester store their operators on
  exactly space.factors(), dims included, whatever order they were given
  in, so downstream "same space?" is CombSpace equality.
* A step with input dimension 1 is a preparation; output dimension 1 is a sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DuplicateLabel, NormalizationViolation, NotAState, NotPSD,
                     NotTracePreserving, ShapeMismatch)
from .operators import (LabeledOperator, SystemLabel, batches, min_eig,
                        permute_systems, tensor, tensor_all, trace_middle)

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

    def concat(self, other: "CombSpace") -> "CombSpace":
        return CombSpace(self.steps + other.steps)


def _canonical(op: LabeledOperator, space: CombSpace) -> LabeledOperator:
    """op in the space's factor order, permuted by labels.

    BadPermutation if its labels differ from the space's, ShapeMismatch if
    a factor's dimension does.
    """
    want = space.factors()
    if op.factors != want:
        op = permute_systems(op, want)
        bad = ["%s: %d, not %d" % (f.id, f.dim, w.dim)
               for f, w in zip(op.factors, want) if f != w]
        if bad:
            raise ShapeMismatch("factor dims differ from the space's: "
                                + "; ".join(bad))
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

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(
            (m, _canonical(op, self.space)) for m, op in self.outcomes))

    def outcome_ids(self) -> tuple:
        return tuple(m for m, _ in self.outcomes)


def choi_of_channel(kraus_list: Sequence[np.ndarray], in_label: SystemLabel,
                    out_label: SystemLabel) -> LabeledOperator:
    """Choi operator of the channel with the given Kraus operators.

    Factors are ordered (out, in).  Raises NotTracePreserving when the Kraus
    sum deviates from the identity by more than DEFAULT_TOL in max-entry
    norm.
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
    if np.max(np.abs(acc - np.eye(in_label.dim))) > DEFAULT_TOL:
        raise NotTracePreserving(
            "Kraus operators are not trace preserving (residual %.3e)"
            % float(np.max(np.abs(acc - np.eye(in_label.dim)))))
    d = out_label.dim * in_label.dim
    data = np.zeros((d, d), dtype=complex)
    for k in ks:
        v = k.reshape(-1)  # row-major (out, in) pairs
        data += np.outer(v, v.conj())
    return LabeledOperator((out_label, in_label), data)


def comb_of_state(rho: LabeledOperator) -> QuantumComb:
    """Single-step preparation comb for a density matrix on one factor.

    NotAState if validate_comb finds rho not PSD or not of unit trace.
    """
    if len(rho.factors) != 1:
        raise ShapeMismatch("expected a single-factor state, got %r" % (rho.label_ids(),))
    out_sys = rho.factors[0]
    in_sys = SystemLabel(out_sys.id + "#src", 1)
    space = CombSpace(((in_sys, out_sys),))
    op = LabeledOperator((out_sys, in_sys), rho.data.copy())
    try:  # a one-step comb with a trivial input is a state: PSD, trace 1
        return validate_comb(QuantumComb(space, op))
    except (NotPSD, NormalizationViolation) as exc:
        raise NotAState("not a state: %s" % exc) from exc


def comb_of_memoryless_sequence(chois: Sequence[LabeledOperator]
                                ) -> QuantumComb:
    """Comb of a time-ordered sequence of independent channels (their Chois)."""
    steps = []
    for c in chois:
        if len(c.factors) != 2:
            raise ShapeMismatch("a Choi operator needs (out, in) factors")
        out_sys, in_sys = c.factors
        steps.append((in_sys, out_sys))
    space = CombSpace(tuple(steps))
    op = tensor_all(chois)
    return validate_comb(QuantumComb(space, op))


def _check_psd(mats: Sequence[np.ndarray], tol: float, what):
    """NotPSD naming the first of mats, what(k) matrix k's name, with an
    eigenvalue below -tol * max(1, its largest entry).

    The matrices go to min_eig as stacks, one a batch (operators.batches).
    """
    for part in batches(len(mats), mats[0].nbytes):
        ops = mats[part]
        ops = np.array(ops) if len(ops) > 1 else ops[0][None]
        scale = np.maximum(1.0, np.abs(ops).max(axis=(-2, -1)))
        me = min_eig(ops)
        bad = np.flatnonzero(me < -tol * scale)
        if bad.size:
            raise NotPSD("%s has eigenvalue %.3e below -tol*scale"
                         % (what(part.start + bad[0]), me[bad[0]]))


def _reduce(m: np.ndarray, pre: int, d: int, post: int, level, tol):
    """Tr_d(m) / d, after checking that m on (pre, d, post) is I_d (x) it."""
    reduced = trace_middle(m, pre, d, post) * (1.0 / d)
    expected = (reduced.reshape(pre, 1, post, pre, 1, post)
                * np.eye(d).reshape(1, d, 1, 1, d, 1))
    residual = float(np.max(np.abs(
        m.reshape(pre, d, post, pre, d, post) - expected)))
    if not residual <= tol:  # NaN where a trace overflowed
        raise NormalizationViolation(level, residual)
    return reduced


def _walk(m: np.ndarray, steps: tuple, tol: float, tester: bool):
    """The normalization recursion on m, in canonical order, last step first.

    At step n the matrix is on (pre, out_n, in_n).  A comb's loses out_n and
    must then be its reduction (x) I_in, which carries on to step n-1.  A
    tester's must be I_out (x) Xi^(n), whose trace over in_n carries on.  The
    scalar left at the bottom must be 1.  NormalizationViolation levels: n
    for step n, except N+1 for a tester's top step, and 0 for the scalar.
    Entries near the float maximum can overflow a trace: the level that
    reads it fails, on an infinite or NaN residual.
    """
    top = len(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(top, 0, -1):
            d_out, d_in = steps[n - 1].out_sys.dim, steps[n - 1].in_sys.dim
            pre = len(m) // (d_out * d_in)
            if tester:
                xi = _reduce(m, pre, d_out, d_in, top + 1 if n == top else n,
                             tol)
                m = trace_middle(xi, pre, d_in, 1)
            else:
                m = _reduce(trace_middle(m, pre, d_out, d_in), pre, d_in, 1,
                            n, tol)
    # off the real axis np.abs rounds differently from abs(): a tester's
    # level-0 residual is the first, a comb's the second
    miss = float((np.abs if tester else abs)(m[0, 0] - 1.0))
    if not miss <= tol:
        raise NormalizationViolation(0, miss)


def validate_comb(comb: QuantumComb, tol: float = DEFAULT_TOL) -> QuantumComb:
    """Check the comb recursion; return the comb.

    Each level's reduced comb, from level N-1 down to level 0, must be the
    partial trace of the level above; the level-0 one is the scalar 1.
    Raises NotPSD or NormalizationViolation(level, residual).
    """
    _check_psd([comb.op.data], tol, lambda _: "comb operator")
    _walk(comb.op.data, comb.space.steps, tol, tester=False)
    return comb


def validate_tester(tester: Tester, tol: float = DEFAULT_TOL) -> Tester:
    """Check the tester recursion; return the tester.

    Raises NotPSD when an outcome operator is not positive,
    NormalizationViolation when the recursion fails: level N+1 for the
    outcome sum I_out(N) (x) Xi^(N), level n for Tr_in(n+1) Xi^(n+1) =
    I_out(n) (x) Xi^(n), and level 0 for the final trace.
    """
    if not tester.outcomes:
        raise ShapeMismatch("a tester needs at least one outcome")
    arrays = [op.data for _, op in tester.outcomes]
    _check_psd(arrays, tol, lambda k: "outcome %r" % (tester.outcomes[k][0],))
    _walk(sum(arrays[1:], arrays[0]), tester.space.steps, tol, tester=True)
    return tester


def born_probability(t_m: LabeledOperator, comb) -> float:
    """Generalized Born rule p(m|R) = Tr[T_m R]."""
    op = comb.op if isinstance(comb, QuantumComb) else comb
    if set(t_m.factors) != set(op.factors):
        raise ShapeMismatch(
            "tester factors %r do not match comb factors %r"
            % (t_m.factors, op.factors))
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

