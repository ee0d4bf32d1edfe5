"""Static guard: one decomposition engine after the irrep table.

Once the table exists, every comodule is cut by ``corep._block_diagonalize``,
which reads ``Hom(pi^r, V)`` for the table's irreps off the paper's projections
``P^r_l1`` of ``V`` (the range of the ``d_V x d_V`` map ``P^r_11``, lifted);
the CG systems, ``decompose_comodule`` and ``are_equivalent`` all reach it.  So
no function of the package solves a whole commutant ``End(V)`` (a
``morphism_space`` or ``intertwiners`` call with one comodule as both
arguments, ``d_V^2`` unknowns), the commutant eigensplit ``_split`` serves the
table alone, and the table's projection factor (a cached property, so a read
rather than a call) is read by the engine alone.
The guard stops CG and decomposition from forking again.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
CALLERS = {"_split": {"corep.irrep_table"},
           "_projection_factor": {"corep._block_diagonalize"}}
SOLVERS = {"morphism_space", "intertwiners"}


def _called(node: ast.Call | ast.Attribute) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _calls(tree: ast.Module, module: str):
    """Each call, and each read of a guarded attribute, in a module with the top-level
    function or method that encloses it (nested functions count for their outermost
    one)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            funcs = [(f"{node.name}.{item.name}", item) for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            funcs = [(node.name, node)]
        else:
            continue
        for name, func in funcs:
            for call in ast.walk(func):
                if isinstance(call, ast.Call) or (isinstance(call, ast.Attribute)
                                                  and call.attr in CALLERS):
                    yield f"{module}.{name}", call


def _package_calls():
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for where, call in _calls(tree, path.stem):
            yield where, f"{path.name}:{call.lineno}", call


def _whole_commutant_solves(calls):
    """``file:line`` of each solver call whose first two arguments are one expression."""
    return [line for _, line, call in calls
            if _called(call) in SOLVERS and len(call.args) >= 2
            and ast.dump(call.args[0]) == ast.dump(call.args[1])]


def test_guarded_calls_are_found():
    called = [_called(call) for _, _, call in _package_calls()]
    for name in [*CALLERS, "intertwiners"]:  # morphism_space has no caller in the package
        assert name in called, name


def test_a_whole_commutant_solve_is_recognized():
    snippet = ("def f(pi, h):\n    return morphism_space(pi, pi, h)\n"
               "def g(pi, h):\n    return corep.intertwiners(pi.coeffs, pi.coeffs, h)\n"
               "def k(pi, rho, h):\n    return intertwiners(rho.coeffs, pi.coeffs, h)\n")
    calls = [(where, f"snippet:{call.lineno}", call)
             for where, call in _calls(ast.parse(snippet), "snippet")]
    assert _whole_commutant_solves(calls) == ["snippet:2", "snippet:4"]


def test_no_function_solves_a_whole_commutant():
    assert _whole_commutant_solves(_package_calls()) == []


def test_split_and_the_projection_factor_keep_their_callers():
    offenders = [f"{line} {_called(call)} in {where}" for where, line, call in _package_calls()
                 if _called(call) in CALLERS and where not in CALLERS[_called(call)]]
    assert offenders == []
