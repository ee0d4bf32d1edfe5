"""Static guard: no test module imports another test module.

A ``tests/test_*.py`` file is a suite pytest collects, not a library.  What suites
share lives in plain modules: the bed registry (``beds``), the oracles
(``oracles``) and the static guards' AST helpers (``guard_ast``).
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _test_imports(tree: ast.AST) -> list[str]:
    """The ``test_*`` modules an absolute import in ``tree`` names."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.append(node.module)
    return [name for name in names if name.split(".")[0].startswith("test_")]


def test_no_test_module_imports_another():
    offenders = {path.name: imported for path in sorted(TESTS.glob("test_*.py"))
                 if (imported := _test_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert offenders == {}
