"""Static guard: one decomposition engine after the irrep table.

Once the table exists, every comodule is cut by ``corep._block_diagonalize``,
which reads ``Hom(pi^r, V)`` for the table's irreps off the paper's projections
``P^r_l1`` of ``V`` (the range of the ``d_V x d_V`` map ``P^r_11``, lifted);
the CG systems, ``decompose_comodule``, ``are_equivalent``, ``morphism_space``
and the restricted basis-function and family solvers all reach it.  So the
range of an idempotent on a comodule is taken there alone (no second idempotent,
such as the Haar average on ``Hom(V, W)``, comes back).  ``_range_basis`` has one
more caller, ``homspace.state_coideal``: the range of ``E_phi`` for an idempotent
state ``phi``, an idempotent on the algebra, which is the coideal.  The commutant
eigensplit ``_split`` serves the table alone, and the table's projection factor (a
cached property, so a read rather than a call) is read by the engine alone.  The
guard stops CG and decomposition from forking again.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
CALLERS = {"_split": {"corep.irrep_table"},
           "_projection_factor": {"corep._block_diagonalize"},
           "_range_basis": {"corep._block_diagonalize", "homspace.state_coideal"}}


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


def _offenders(calls) -> list[str]:
    """Each guarded call or read outside its one allowed function."""
    return [f"{line} {_called(call)} in {where}" for where, line, call in calls
            if _called(call) in CALLERS and where not in CALLERS[_called(call)]]


def test_guarded_calls_are_found():
    called = [_called(call) for _, _, call in _package_calls()]
    for name in CALLERS:
        assert name in called, name


def test_a_stray_range_basis_call_is_recognized():
    snippet = ("def _block_diagonalize(bigs):\n    return _range_basis(bigs, 1e-9)\n"
               "def intertwiners(avg):\n    return _range_basis(avg, 1e-9)\n")
    calls = [(where, f"snippet:{call.lineno}", call)
             for where, call in _calls(ast.parse(snippet), "corep")]
    assert _offenders(calls) == ["snippet:4 _range_basis in corep.intertwiners"]


def test_range_basis_has_its_two_callers():
    """The engine and the coideal of an idempotent state are the places the range of an
    idempotent is taken."""
    callers = {where for where, _, call in _package_calls() if _called(call) == "_range_basis"}
    assert callers == {"corep._block_diagonalize", "homspace.state_coideal"}


def test_split_and_the_projection_factor_keep_their_callers():
    """Every guarded name (``_range_basis`` too) is called or read by its one function."""
    assert _offenders(_package_calls()) == []
