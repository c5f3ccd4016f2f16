"""Spans around qnetopt's public functions, installed from outside the package.

The tracer replaces module attributes (and three methods of
``BlockConstraintMap``) with wrappers that record a span per call: name,
start, end, parent span and op id.  Attributes are replaced where the caller
looks them up, so ``engine.solve`` reaching ``build_primal`` goes through
``qnetopt.sdp.engine.build_primal``.  Private helpers (``_max_step``,
``_chol_jitter``, ``_qmax_solve``) are not wrapped, so their time stays in
the self time of the public function that calls them.

Spans and counts are kept in memory; only calls made while an op span is
open are recorded, so the benchmark's own correctness checks never show up.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# (owner, attribute, span name).  An owner "pkg.mod:Class" names a class.
TARGETS = (
    ("qnetopt.sdp", "solve", "engine.solve"),
    ("qnetopt.cli", "solve", "engine.solve"),
    ("qnetopt.sdp.engine", "build_primal", "standard_form.build"),
    ("qnetopt.sdp.engine", "slater_point", "engine.slater"),
    ("qnetopt.sdp.engine", "tighten_dual", "engine.tighten"),
    ("qnetopt.sdp.engine", "certify_dual", "engine.certify"),
    ("qnetopt.cli", "certify_dual", "engine.certify"),
    ("qnetopt.sdp.engine", "validate_tester", "networks.validate"),
    ("qnetopt.sdp.engine", "validate_comb", "networks.validate"),
    ("qnetopt.sdp.engine", "payoff_operators", "estimation.payoff_ops"),
    ("qnetopt.sdp.standard_form", "payoff_operators", "estimation.payoff_ops"),
    ("qnetopt.sdp.engine", "solve_ipm", "ipm.solve"),
    ("qnetopt.covariant", "solve_ipm", "ipm.solve"),
    ("qnetopt.sdp.ipm:BlockConstraintMap", "schur", "ipm.schur"),
    ("qnetopt.sdp.ipm:BlockConstraintMap", "apply_A", "ipm.apply"),
    ("qnetopt.sdp.ipm:BlockConstraintMap", "apply_AT", "ipm.apply"),
    ("qnetopt.sdp.ipm", "cho_factor", "ipm.chol"),
    ("qnetopt.sdp.ipm", "cho_solve", "ipm.chol"),
    ("qnetopt.covariant", "covariant_gamma", "covariant.gamma"),
    ("qnetopt.serde", "load_path", "serde.load"),
    ("qnetopt.serde", "problem_from_json", "serde.load"),
    ("qnetopt.serde", "comb_from_json", "serde.load"),
    ("qnetopt.serde", "solution_to_json", "serde.dump"),
    ("qnetopt.serde", "dumps", "serde.dump"),
    ("qnetopt.cli", "main", "cli.main"),
)

# span name -> per-layer metric that receives the span's self time
SELF_METRICS = {
    "standard_form.build": "standard_form.build_s",
    "ipm.solve": "ipm.self_s",
    "ipm.schur": "ipm.schur_s",
    "ipm.apply": "ipm.apply_s",
    "ipm.chol": "ipm.schur_chol_s",
    "engine.solve": "engine.self_s",
    "engine.slater": "engine.slater_s",
    "engine.tighten": "engine.tighten_s",
    "engine.certify": "engine.certify_s",
    "networks.validate": "networks.validate_s",
    "estimation.payoff_ops": "estimation.payoff_ops_s",
    "covariant.gamma": "covariant.self_s",
    "serde.load": "serde.load_s",
    "serde.dump": "serde.dump_s",
    "cli.main": "cli.self_s",
}

OP_SPAN = "op"


def _count_build(tracer, sdp):
    tracer.counts["standard_form.rows"] += sdp.cmap.m
    unique = {id(e.tensor): e.tensor.nbytes for e in sdp.cmap.entries}
    tracer.counts["standard_form.tensor_bytes"] += sum(unique.values())


def _count_ipm(tracer, res):
    tracer.counts["ipm.iterations"] += res.iterations


def _count_schur(tracer, _H):
    tracer.counts["ipm.schur_calls"] += 1


def _count_solve(tracer, _sol):
    tracer.counts["engine.solves"] += 1


def _count_payoff(tracer, _gops):
    if tracer.inside("engine.solve"):
        tracer.counts["estimation.payoff_ops_in_solve"] += 1


COUNTERS = {
    "standard_form.build": _count_build,
    "ipm.solve": _count_ipm,
    "ipm.schur": _count_schur,
    "engine.solve": _count_solve,
    "estimation.payoff_ops": _count_payoff,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder with wrappers for the TARGETS above."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(int)
        self._stack = []
        self._op_id = None
        self._saved = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def run_op(self, op_id, fn):
        """Call fn() inside a root op span; spans below it get this op id."""
        self._op_id = op_id
        idx = self._begin(OP_SPAN)
        try:
            return fn()
        finally:
            self._end(idx)
            self._op_id = None

    def _wrap(self, fn, name):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            idx = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(idx)
            if count is not None:
                count(tracer, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved = []

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id}) + "\n")


def layer_metrics(tracer: Tracer, passes: int):
    """Per-layer values per traced pass, plus the self-time coverage error.

    Self time is a span's duration minus the durations of its child spans.
    Returns (metrics, coverage_error) where coverage_error is the relative
    difference between the summed layer self times and the summed op time.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = dict.fromkeys(list(SELF_METRICS.values())
                           + ["ipm.solve_s", "covariant.ipm_s"], 0.0)
    op_time = 0.0
    layer_self = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        if name == OP_SPAN:
            op_time += dur
            continue
        self_time = dur - child[i]
        layer_self += self_time
        totals[SELF_METRICS[name]] += self_time
        if name == "ipm.solve":
            totals["ipm.solve_s"] += dur
            if parent >= 0 and spans[parent][0] == "covariant.gamma":
                totals["covariant.ipm_s"] += dur
    metrics = {k: v / passes for k, v in totals.items()}
    c = tracer.counts
    for key in ("ipm.iterations", "ipm.schur_calls", "standard_form.rows"):
        metrics[key] = c[key] / passes
    metrics["standard_form.tensor_mb"] = c["standard_form.tensor_bytes"] / 2**20 / passes
    solves = c["engine.solves"]
    metrics["estimation.payoff_ops_per_solve"] = (
        c["estimation.payoff_ops_in_solve"] / solves if solves else 0.0)
    coverage_error = abs(layer_self - op_time) / op_time if op_time else 0.0
    return metrics, coverage_error
