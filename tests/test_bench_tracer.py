"""The benchmark tracer still finds every name it wraps.

bench/tracer.py replaces module attributes by name and reads constraint
tensors off build_primal's map; a rename in the package would break traced
benchmark runs without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from conftest import helstrom_problem
from qnetopt.covariant import phase_grid_problem
from qnetopt.instances import random_channel_problem
from qnetopt.sdp.standard_form import build_primal

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    for owner, attr, name in tracer.TARGETS:
        assert callable(getattr(tracer._resolve(owner), attr)), (owner, attr)
        assert name in tracer.SELF_METRICS


def test_constraint_entries_carry_their_tensors():
    tracer = _load_tracer()
    for problem in (helstrom_problem(), phase_grid_problem(3)[0],
                    random_channel_problem(np.random.default_rng(3), 2,
                                           [(2, 2), (2, 2)], memory=True)):
        sdp = build_primal(problem)
        assert sdp.cmap.entries
        for e in sdp.cmap.entries:
            assert isinstance(e.tensor, np.ndarray) and e.tensor.nbytes > 0
        t = tracer.Tracer()
        tracer._count_build(t, sdp)
        assert t.counts["standard_form.rows"] == sdp.cmap.m
        assert t.counts["standard_form.tensor_bytes"] > 0
