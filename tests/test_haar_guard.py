"""Static guard: the Haar functional is solved by the caller, never behind its back.

Every construction of the package is derived from the one Haar functional
``h``, so every library function that needs it takes it, as
``corep.invariant_gram`` does, or reads its table's (``IrrepTable.haar``), as
``cg.solve_cg_systems`` does.  Only the command-line frontend, which owns a run
from start to end, calls ``haar.solve_haar``; a call anywhere else would solve
the same ``h`` again inside a run.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
ALLOWED = {"cli.py"}


def _solve_haar_calls():
    """``file:line`` of each call of ``solve_haar`` in the package, by name or attribute."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "solve_haar":
                    yield path.name, f"{path.name}:{node.lineno}"


def test_solve_haar_calls_are_found():
    assert any(name in ALLOWED for name, _ in _solve_haar_calls())


def test_only_the_cli_solves_the_haar_functional():
    offenders = [where for name, where in _solve_haar_calls() if name not in ALLOWED]
    assert offenders == []
