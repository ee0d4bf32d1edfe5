"""Static guard: a corepresentation is its coefficients, and ``F`` is read, never set.

Every finite-dimensional CQG algebra is of Kac type (``S^2 = id``), so the
paper's F-matrix is ``I``: a certificate of the coefficients, not stored state.
``Corepresentation.F`` certifies ``S^2(pi) = pi`` on its first read, and the
orthogonality, projection, triple-Haar and Wigner-Eckart formulas read it.  No
code asks whether F was set (``.F is None``), sets an attribute by name
(``setattr``), or assigns a corepresentation field or one of the certificate
flags that used to record which reports had run.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"

FROZEN = ("F", "label", "coeffs", "verified", "unitary", "irreducible")


def _trees():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def _f_reads():
    """Each ``.F`` load in the package source."""
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "F" and isinstance(
                    node.ctx, ast.Load):
                yield f"{name}:{node.lineno}", node


def test_f_reads_are_found():
    assert {where.split(":")[0] for where, _ in _f_reads()} >= {
        "corep.py", "cg.py", "regular.py", "wigner_eckart.py"}


def _none_test(node: ast.Compare) -> bool:
    """``x.F is None`` or ``x.F is not None``, either way round."""
    operands = [node.left, *node.comparators]
    return (any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(x, ast.Attribute) and x.attr == "F" for x in operands)
            and any(isinstance(x, ast.Constant) and x.value is None for x in operands))


def _targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return [leaf for target in node.targets for leaf in ast.walk(target)]
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return list(ast.walk(node.target))
    return []


def _offenses(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, what)`` for each ``.F`` None test, ``setattr`` call and assignment to a
    frozen field or flag."""
    out = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Compare) and _none_test(node):
            out.append((line, "F is None"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "setattr"):
            out.append((line, "setattr"))
        out += [(line, f"assigns .{target.attr}") for target in _targets(node)
                if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store)
                and target.attr in FROZEN]
    return out


def test_no_f_none_test_setattr_or_field_assignment():
    offenders = [f"{name}:{line}: {what}" for name, tree in _trees()
                 for line, what in _offenses(tree)]
    assert offenders == []


def test_guard_sees_each_pattern():
    sample = ast.parse("if pi.F is not None:\n    pi.F = f\nsetattr(pi, 'unitary', True)\n"
                       "pi.label += 'x'\nrep.irreducible: bool = True\nok[pi.label] = pi.F\n")
    assert sorted(_offenses(sample)) == [(1, "F is None"), (2, "assigns .F"), (3, "setattr"),
                                         (4, "assigns .label"), (5, "assigns .irreducible")]
