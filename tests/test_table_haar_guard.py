"""Static guard: an irrep table carries its Haar functional, so no function takes both.

``irrep_table(alg, h, ...)`` certifies the table under one ``h`` and stores it as
``IrrepTable.haar``; everything built from the table (the projections, the CG
systems, the decompositions) reads that one.  A function that took a table and
an ``h`` beside it could use the table with a functional it was never certified
under.  The one exception is ``cg.solve_cg``, whose positional signature the
benchmark's library pipeline calls; it refuses any ``h`` but the table's.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
EXEMPT = {"cg.solve_cg"}


def _takes_table_and_h(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    table = any(arg.arg == "table" or (arg.annotation is not None
                                       and "IrrepTable" in ast.unparse(arg.annotation))
                for arg in params)
    return table and any(arg.arg == "h" for arg in params)


def _offenders(tree: ast.Module, module: str) -> list[str]:
    """``module.function`` (methods as ``module.Class.method``) of each function that
    takes both a table and ``h``."""
    out = []

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _takes_table_and_h(child):
                    out.append(f"{prefix}{child.name}")
                visit(child, f"{prefix}{child.name}.")

    visit(tree, f"{module}.")
    return out


def _package_offenders() -> list[str]:
    return [name for path in sorted(SOURCE.glob("*.py"))
            for name in _offenders(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def test_a_table_beside_h_is_recognized():
    snippet = ("def a(pi, table, h): pass\n"
               "def b(pi, t: IrrepTable, h): pass\n"
               "def c(pi, t: 'IrrepTable | None', *, h=None): pass\n"
               "def d(pi, table): pass\n"
               "def e(pi, h): pass\n"
               "class K:\n    def f(self, table, h): pass\n")
    assert _offenders(ast.parse(snippet), "m") == ["m.a", "m.b", "m.c", "m.K.f"]


def test_the_exemption_is_still_needed():
    assert set(_package_offenders()) >= EXEMPT


def test_no_function_takes_a_table_and_h():
    assert [name for name in _package_offenders() if name not in EXEMPT] == []
