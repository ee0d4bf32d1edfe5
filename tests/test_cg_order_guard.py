"""Static guard: the Wigner-Eckart CG-order rule has one home.

Ordinary families factorize through the ``(q, p)`` CG system and twisted ones
through ``(p, q)``.  In ``cli.py`` and ``wigner_eckart.py`` that rule is
``wigner_eckart._cg_order`` alone: the table driver's system lookup, the
one-triple call's key, the CLI's choice of CG products and the pair-matrix
transpose all read it, so only ``_cg_order`` compares a ``kind`` with
``"ordinary"`` or ``"twisted"``.  The coupling rule of ``couple_families`` and
``coupled_basis_functions`` is a different one and lives in other modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
FILES = ("cli.py", "wigner_eckart.py")
KINDS = {"ordinary", "twisted"}
HOME = "wigner_eckart._cg_order"


def _is_kind(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind") or (
        isinstance(node, ast.Attribute) and node.attr == "kind")


def _names_a_kind(node) -> bool:
    """A literal ``"ordinary"``/``"twisted"``, alone or in a tuple, list or set."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_names_a_kind, node.elts))
    return isinstance(node, ast.Constant) and node.value in KINDS


def _kind_comparisons():
    """``(function, where)`` for each comparison of a kind with a kind literal; the
    function is the top-level one that encloses it, or ``<module>``."""
    for filename in FILES:
        path = SOURCE / filename
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                    if any(map(_is_kind, operands)) and any(map(_names_a_kind, operands)):
                        yield f"{path.stem}.{owner}", f"{filename}:{node.lineno}"


def test_the_rule_is_found():
    assert HOME in {func for func, _ in _kind_comparisons()}


def test_only_cg_order_compares_a_kind():
    offenders = [f"{where} in {func}" for func, where in _kind_comparisons() if func != HOME]
    assert offenders == []
