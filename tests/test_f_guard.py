"""Static guard: the F matrix is decided in ``corep.py`` alone.

Every finite-dimensional CQG algebra is of Kac type (``S^2 = id``), and
``corep.compute_F`` certifies that per irrep and sets ``F = I``.  The
orthogonality, projection, triple-Haar and Wigner-Eckart formulas therefore use
``I / d`` for the paper's ``F^{-1} / tr F^{-1}``.  Outside ``corep.py`` the
package may only ask whether that certificate ran: every read of a ``.F``
attribute is the left side of an ``is None`` / ``is not None`` test.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"


def _f_reads():
    """Each ``.F`` load outside ``corep.py`` with its parent node."""
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "corep.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if (isinstance(node, ast.Attribute) and node.attr == "F"
                        and isinstance(node.ctx, ast.Load)):
                    yield f"{path.name}:{node.lineno}", node, parent


def _is_none_test(node: ast.AST, parent: ast.AST) -> bool:
    return (isinstance(parent, ast.Compare) and parent.left is node
            and len(parent.ops) == 1 and isinstance(parent.ops[0], (ast.Is, ast.IsNot))
            and isinstance(parent.comparators[0], ast.Constant)
            and parent.comparators[0].value is None)


def test_f_reads_are_found():
    assert sum(1 for _ in _f_reads()) >= 2


def test_f_is_read_only_as_a_none_test_outside_corep():
    offenders = [where for where, node, parent in _f_reads()
                 if not _is_none_test(node, parent)]
    assert offenders == []
