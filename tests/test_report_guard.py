"""Static guard: a check in the package reports its residual, it does not assert.

``report.py`` states the rule: a verification routine records the residual
and the tolerance it was compared against in a :class:`cqglab.report.Report`,
so the CLI can print which identity broke and by how much.  Input errors raise
a ``CqglabError`` subclass (or ``ValueError``).  An ``assert`` statement, or a
bare ``AssertionError``, would instead abort the run on a numerical failure,
and ``python -O`` would silently drop the former.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def _offenders():
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and _raised_name(node) == "AssertionError"):
                yield f"{path.name}:{node.lineno}"


def test_source_is_scanned():
    assert len(list(SOURCE.glob("*.py"))) > 10


def test_no_assert_or_assertion_error_in_the_package():
    assert list(_offenders()) == []
