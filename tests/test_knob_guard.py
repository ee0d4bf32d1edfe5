"""Static guard: each numerical decision has one threshold, not a parameter.

The rank of every intertwiner space is cut at ``corep.RANK_RCOND``, the
eigenvalue clusters of the commutant split at ``corep.CLUSTER_TOL``, and the
other cuts (linear dependence, the route check of the operator coaction) are
fixed where they are made.  A parameter named like a cut invites a caller to
move one decision away from the others, so no function of the package takes
one, except the low-level routine that tests drive with their own cut:
``_range_basis(rcond)``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"

KNOBS = {"rcond", "cluster_tol", "dependence_tol", "check_routes"}
ALLOWED = {("_range_basis", "rcond")}


def _parameters():
    """Each parameter of each function in the package, with its function's name."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                    yield f"{path.name}:{node.lineno}", node.name, arg.arg


def test_parameters_are_found():
    assert sum(1 for _ in _parameters()) > 300
    found = {(name, param) for _, name, param in _parameters()}
    assert ALLOWED <= found


def test_no_function_takes_a_cut_as_a_parameter():
    offenders = [f"{where} {name}({param})" for where, name, param in _parameters()
                 if param in KNOBS and (name, param) not in ALLOWED]
    assert offenders == []
