"""Random and named problem instances for tests and corpus runs.

All generators take a ``numpy.random.Generator`` so corpora are reproducible
from a seed.  Channels come out of isometric dilations and are therefore
trace preserving by construction; comb validity and tester validity are
still re-checked by the callers' validators rather than trusted.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .estimation import EstimationProblem
from .networks import (CombSpace, QuantumComb, choi_of_channel,
                       comb_of_memoryless_sequence, comb_of_state,
                       validate_comb)
from .operators import LabeledOperator, SystemLabel

_counter = itertools.count()

#: Memory and environment dimensions of the random combs' dilations.
MEMORY_DIM = 2
ENV_DIM = 2


def _fresh(tag: str) -> str:
    return "%s%d" % (tag, next(_counter))


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_isometry(rng: np.random.Generator, d_from: int, d_to: int) -> np.ndarray:
    """Haar-ish isometry with d_to >= d_from, columns orthonormal."""
    if d_to < d_from:
        raise ValueError("isometry needs d_to >= d_from")
    return random_unitary(rng, d_to)[:, :d_from]


def random_prior(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.uniform(0.2, 1.0, size=n)
    return w / w.sum()


def random_payoff(rng: np.random.Generator, n: int, delta: bool) -> np.ndarray:
    if delta:
        return np.eye(n)
    return rng.uniform(0.0, 1.0, size=(n, n))


def random_state_problem(rng: np.random.Generator, n_states: int, dim: int,
                         delta: bool = True) -> EstimationProblem:
    """Discrimination-style problem over random states on one fresh system."""
    lab = SystemLabel(_fresh("s"), dim)
    combs = [comb_of_state(LabeledOperator((lab,), random_density(rng, dim)))
             for _ in range(n_states)]
    labels = tuple(range(n_states))
    return EstimationProblem(combs[0].space, labels, random_prior(rng, n_states),
                             tuple(combs), random_payoff(rng, n_states, delta))


def random_memory_comb(rng: np.random.Generator,
                       space: CombSpace) -> QuantumComb:
    """Random strategy comb from chained step isometries with memory.

    Step s maps (memory x in_s) isometrically into (out_s x memory x env_s);
    all environments and the final memory are traced out.  One step reduces
    to a plain random channel.
    """
    steps = space.steps
    n = len(steps)
    if n == 1:
        return random_sequence_comb(rng, space)
    t = np.ones((1, 1, 1), dtype=complex)  # (kept legs, memory, input legs)
    kept_dims = []  # interleaved (out_s, env_s)
    in_dims = []
    m_prev = 1
    for s, step in enumerate(steps):
        m_next = MEMORY_DIM if s < n - 1 else 1
        # environment large enough for the dilation to be an isometry
        e_dim = max(ENV_DIM, -(-m_prev * step.in_sys.dim
                             // (step.out_sys.dim * m_next)))
        v = random_isometry(rng, m_prev * step.in_sys.dim,
                            step.out_sys.dim * m_next * e_dim)
        v5 = v.reshape(step.out_sys.dim, m_next, e_dim, m_prev, step.in_sys.dim)
        t = np.einsum("pnq,omeni->poemqi", t, v5)
        t = t.reshape(-1, m_next, t.shape[4] * t.shape[5])
        kept_dims.extend([step.out_sys.dim, e_dim])
        in_dims.append(step.in_sys.dim)
        m_prev = m_next
    full = t.reshape(tuple(kept_dims) + tuple(in_dims))
    n_keep = len(kept_dims)  # final memory is trivial, already dropped
    out_axes = list(range(0, n_keep, 2))
    env_axes = list(range(1, n_keep, 2))
    in_axes = list(range(n_keep, n_keep + n))
    full = full.transpose(out_axes + env_axes + in_axes)
    d_out_tot = int(np.prod([kept_dims[a] for a in out_axes], dtype=np.int64))
    d_in_tot = int(np.prod(in_dims, dtype=np.int64))
    w = full.reshape(d_out_tot, -1, d_in_tot)
    r = np.einsum("aei,bej->aibj", w, w.conj()).reshape(d_out_tot * d_in_tot, -1)
    outs = tuple(s.out_sys for s in steps)
    ins = tuple(s.in_sys for s in steps)
    return validate_comb(QuantumComb(space, LabeledOperator(outs + ins, r)))


def random_sequence_comb(rng: np.random.Generator,
                         space: CombSpace) -> QuantumComb:
    """Random no-memory strategy comb: an independent channel per step.

    Each channel's Kraus operators are the ENV_DIM slices of a random
    isometry from in_s into out_s x env.
    """
    chois = []
    for step in space.steps:
        d_in, d_out = step.in_sys.dim, step.out_sys.dim
        v = random_isometry(rng, d_in, d_out * ENV_DIM)
        kraus = v.reshape(d_out, ENV_DIM, d_in).transpose(1, 0, 2)
        chois.append(choi_of_channel(kraus, step.in_sys, step.out_sys))
    return comb_of_memoryless_sequence(chois)


def random_channel_problem(rng: np.random.Generator, n_params: int,
                           dims: Sequence[tuple], delta: bool = True,
                           memory: bool = False) -> EstimationProblem:
    """Random channel-sequence discrimination problem.

    `dims` lists (d_in, d_out) per step; each parameter gets an independent
    random comb on the shared fresh space, memoryful when asked.
    """
    steps = []
    for (d_in, d_out) in dims:
        steps.append((SystemLabel(_fresh("i"), d_in), SystemLabel(_fresh("o"), d_out)))
    space = CombSpace(tuple(steps))
    if memory:
        combs = tuple(random_memory_comb(rng, space) for _ in range(n_params))
    else:
        combs = tuple(random_sequence_comb(rng, space) for _ in range(n_params))
    labels = tuple(range(n_params))
    return EstimationProblem(space, labels, random_prior(rng, n_params), combs,
                             random_payoff(rng, n_params, delta))


def random_problem(rng: np.random.Generator) -> EstimationProblem:
    """Mixed corpus draw: random states or a short random channel sequence."""
    if rng.uniform() < 0.5:
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        return random_state_problem(rng, n, d, delta=bool(rng.uniform() < 0.7))
    n = int(rng.integers(2, 4))
    if rng.uniform() < 0.5:
        dims = [(2, 2)]
    else:
        dims = [(2, 2), (2, 2)]
    return random_channel_problem(rng, n, dims, delta=bool(rng.uniform() < 0.7),
                                  memory=bool(rng.uniform() < 0.5))
