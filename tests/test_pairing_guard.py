"""Static guard: the Haar pairing ``h(a_a a_b)`` is formed in one place.

Inner products, Schur and character orthogonality, projections, the
intertwiner average, the triple-Haar coefficients and the averaging lemmas all
read the matrix ``pair[a, b] = phi(a_a a_b)``.  It is ``mult @ covector``, and
``LinearFunctional.pair`` is its one home: every other site reads that cached
array instead of multiplying the product tensor by a covector again.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
ALLOWED = {"algebra.py:LinearFunctional.pair"}
PRODUCTS = {"einsum", "tensordot", "dot", "matmul"}


def _aliases(tree: ast.AST, attr: str) -> set[str]:
    """Names bound to an ``x.<attr>`` expression anywhere in the module, tuple targets
    included (``star, m = alg.star, alg.mult`` binds ``m``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                for name, value in pairs:
                    if (isinstance(name, ast.Name) and isinstance(value, ast.Attribute)
                            and value.attr == attr):
                        names.add(name.id)
    return names


def _mentions(node: ast.AST, attr: str, names: set[str]) -> bool:
    return any((isinstance(sub, ast.Attribute) and sub.attr == attr)
               or (isinstance(sub, ast.Name) and sub.id in names) for sub in ast.walk(node))


def _operands(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right]
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in PRODUCTS:
            return list(node.args)
    return []


def _pairings():
    """``(file:qualname, file:line)`` of each product or einsum whose operands hold the
    product tensor ``mult`` in one operand and a covector in another."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mults = _aliases(tree, "mult")
        covs = _aliases(tree, "covector") | {"cov"}

        def visit(node: ast.AST, scope: tuple[str, ...]):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scope = (*scope, node.name)
            ops = _operands(node)
            has_mult = [_mentions(op, "mult", mults) for op in ops]
            has_cov = [_mentions(op, "covector", covs) for op in ops]
            if any(m and c for i, m in enumerate(has_mult)
                   for j, c in enumerate(has_cov) if i != j):
                yield f"{path.name}:{'.'.join(scope)}", f"{path.name}:{node.lineno}"
            for child in ast.iter_child_nodes(node):
                yield from visit(child, scope)

        yield from visit(tree, ())


def test_the_pairing_home_is_found():
    assert {name for name, _ in _pairings()} >= ALLOWED


def test_only_linear_functional_pair_forms_the_pairing():
    offenders = [where for name, where in _pairings() if name not in ALLOWED]
    assert offenders == []
