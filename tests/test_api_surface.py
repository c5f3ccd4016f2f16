"""The package's surface: every function in src/ has a caller in src/.

A function or method that only the tests reach is test scaffolding, and
belongs in tests/conftest.py.  The scan is by name: a definition counts as
used when its name occurs in src/qnetopt as a name or an attribute outside
__init__.py, whose re-exports are not callers.  KEPT lists the exceptions.
The program pipeline (PIPELINE) is defined in sdp/ and called from there
only: every other module solves through sdp.engine's solve or
solve_program.  Positivity is tested by operators.min_eig alone: no other
module names eigvalsh, to call it or to pass it on, except in the
functions EIGVALSH lists, which test no positivity.  Every parameter of
every function, self and cls aside, is read in the function's body.
"""

import ast
import collections
import os

import qnetopt

KEPT = {
    "partial_trace": "the paper's partial trace of a labeled operator",
    "born_probability": "the paper's generalized Born rule Tr[T_m R]",
    "tensor_testers": "the paper's parallel composition of testers",
    "random_problem": "scripts/random_corpus.py draws its corpus with it",
    "problem_to_json": "bench/workloads.py writes the CLI corpus with it",
}


PIPELINE = {"build_primal", "solve_ipm", "slater_point", "tighten_dual",
            "check_memory"}

# uses of eigvalsh outside operators.min_eig, which test no positivity
EIGVALSH = {
    ("sdp/ipm.py", "_step_pair"): "the step lengths' generalized eigenvalues",
    ("sdp/engine.py", "slater_point"): "the top payoff eigenvalue",
}


def _trees():
    """(path relative to the package, parsed module) of every source file."""
    root = os.path.dirname(qnetopt.__file__)
    for dirpath, _, files in os.walk(root):
        for fn in sorted(files):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                with open(path) as fh:
                    yield os.path.relpath(path, root), ast.parse(fh.read(), path)


def _called(call: ast.Call):
    """The name a call calls: f of f(...) and of obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _scan():
    """(name, path) of every non-dunder def, and the count of each name's uses."""
    defs, uses = [], collections.Counter()
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not (node.name.startswith("__")
                             and node.name.endswith("__")):
                defs.append((node.name, path))
            elif os.path.basename(path) == "__init__.py":
                continue
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
    return defs, uses


def test_every_function_has_a_caller_in_src():
    defs, uses = _scan()
    unused = sorted("%s (%s)" % (name, path) for name, path in defs
                    if not uses[name] and name not in KEPT)
    assert not unused, "only the tests call: " + ", ".join(unused)


def test_kept_names_are_defined_and_uncalled():
    defs, uses = _scan()
    defined = {name for name, _ in defs}
    stale = sorted(name for name in KEPT
                   if name not in defined or uses[name])
    assert not stale, "KEPT entries to drop: " + ", ".join(stale)


def test_pipeline_names_are_defined_in_sdp():
    defs, _ = _scan()
    defined = {name for name, path in defs if os.path.dirname(path) == "sdp"}
    stale = sorted(PIPELINE - defined)
    assert not stale, "PIPELINE entries to drop: " + ", ".join(stale)


def test_only_sdp_calls_the_program_pipeline():
    calls = []
    for path, tree in _trees():
        if os.path.dirname(path) == "sdp":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) in PIPELINE:
                calls.append("%s:%d calls %s"
                             % (path, node.lineno, _called(node)))
    assert not calls, "; ".join(calls)


def test_only_min_eig_tests_positivity():
    calls = []
    for path, tree in _trees():
        if path == "operators.py":
            continue
        exempt = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and (path, fn.name) in EIGVALSH for node in ast.walk(fn)}
        calls += ["%s:%d" % (path, node.lineno) for node in ast.walk(tree)
                  if id(node) not in exempt and "eigvalsh" in (
                      getattr(node, "id", None), getattr(node, "attr", None))]
    assert not calls, "eigvalsh outside min_eig: " + ", ".join(calls)


def test_every_parameter_is_read():
    unread = []
    for path, tree in _trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += ["%s:%d %s(%s)" % (path, fn.lineno, fn.name, p.arg)
                       for p in params
                       if p.arg not in read and p.arg not in ("self", "cls")]
    assert not unread, "parameters never read: " + ", ".join(unread)
