"""Static guard: no result of the package depends on a random draw.

Every certificate is deterministic: equivalence is read off characters with a
witness built from the decompositions, and decompositions are read off the
commutant.  The package therefore has no use of ``np.random`` at all; the
sample elements tests draw come from ``tests/oracles.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"

ALLOWED: set[str] = set()


def _is_random(node: ast.AST) -> bool:
    """``np.random`` / ``numpy.random``, or an import of ``random`` or ``numpy.random``."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "random" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return node.module in ("random", "numpy.random") or (
            node.module == "numpy" and any(alias.name == "random" for alias in node.names))
    return False


def _uses(node: ast.AST, where: str, allowed: bool = False):
    """``(file:line, allowed)`` for each random use below ``node``; a use is allowed
    inside a function named in ``ALLOWED``."""
    for child in ast.iter_child_nodes(node):
        inside = allowed or (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                             and child.name in ALLOWED)
        if _is_random(child):
            yield f"{where}:{child.lineno}", inside
        yield from _uses(child, where, inside)


def _all_uses():
    for path in sorted(SOURCE.glob("*.py")):
        yield from _uses(ast.parse(path.read_text(encoding="utf-8")), path.name)


def test_scan_flags_a_random_draw():
    """The guard can fail: a draw in a parsed snippet is found and not allowed."""
    assert len(list(SOURCE.glob("*.py"))) > 10
    snippet = ast.parse("import numpy as np\n\n\ndef draw():\n"
                        "    return np.random.default_rng(0).standard_normal(3)\n")
    assert list(_uses(snippet, "snippet.py")) == [("snippet.py:5", False)]


def test_no_np_random_in_the_package():
    assert [where for where, allowed in _all_uses() if not allowed] == []
