"""Static guard: no many-operand or path-searching einsum in the package source.

A certificate contraction written as one ``np.einsum`` over four or more
tensors runs as a single nested loop over every index (n^8 for the bialgebra
axiom); with ``optimize=True`` numpy searches for a contraction order on every
call instead, which costs more than the contraction itself at desk scale.
Contractions are written as explicit chains of two-operand steps.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"


def _einsum_calls():
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"):
                yield f"{path.name}:{node.lineno}", node


def test_einsum_calls_are_found():
    assert sum(1 for _ in _einsum_calls()) > 50


def test_no_einsum_with_four_or_more_operands():
    offenders = [where for where, call in _einsum_calls()
                 if len(call.args) - 1 >= 4
                 or any(isinstance(arg, ast.Starred) for arg in call.args)]
    assert offenders == []


def test_no_einsum_path_search():
    offenders = [where for where, call in _einsum_calls()
                 for kw in call.keywords
                 if kw.arg == "optimize" and not (isinstance(kw.value, ast.Constant)
                                                  and kw.value.value is False)]
    assert offenders == []
