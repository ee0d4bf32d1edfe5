"""Static guard: the Gram matrix is built in the Haar layer alone.

Under the Kac premise that ``solve_haar`` certifies (``S^2 = id`` and a
tracial Haar functional) the left inner product ``h(a_k (S^2 a_j)^*)`` is the
right one, so there is one Gram matrix, ``star @ h.pair``, and ``haar.py``
builds it (``gram_matrices``, and the positivity check of ``certify_haar``).
Every other module reads a ``GramPair``.  A second Gram shows as a product
whose two operands are the star matrix and a pairing, or as ``S @ S``,
the ``S^2`` of the left-Gram formula.  ``S @ S`` has two other homes: the Kac
certificate ``haar._kac_gaps`` and the paper's doubly contragredient partner
``corep.doubly_contragredient``.  ``star @ phi.pair`` has one home outside the
Haar layer: ``homspace.state_coideal`` certifies a state ``phi`` by the positivity
of ``phi(a_j^* a_k)``, a matrix of ``phi``, not of ``h``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from guard_ast import aliases

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"


def _is(node: ast.AST, attr: str, names: set[str]) -> bool:
    """``node`` is ``x.<attr>``, ``x.<attr>.T``, a name bound to ``x.<attr>``, or
    ``np.conj`` of one of these."""
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "conj":
        return len(node.args) == 1 and _is(node.args[0], attr, names)
    if isinstance(node, ast.Attribute) and node.attr == "T":
        node = node.value
    return ((isinstance(node, ast.Attribute) and node.attr == attr)
            or (isinstance(node, ast.Name) and node.id in names))


def _operands(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return [node.left, node.right]
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("matmul", "dot"):
        return list(node.args)
    return []


def _gram_builds(tree: ast.AST) -> list[tuple[int, str, str]]:
    """``(line, what, function)`` of each product of the star matrix with the Haar
    pairing and of each product of the antipode with itself."""
    stars, pairs, antipodes = (aliases(tree, attr) for attr in ("star", "pair", "antipode"))
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        ops = _operands(node)
        if len(ops) == 2:
            if any(_is(a, "star", stars) and _is(b, "pair", pairs)
                   for a, b in (ops, ops[::-1])):
                out.append((node.lineno, "star @ pair", scope))
            if all(_is(op, "antipode", antipodes) for op in ops):
                out.append((node.lineno, "S @ S", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def _sites() -> set[tuple[str, str, str]]:
    """``(file, what, function)`` of every Gram-building product in the package."""
    return {(path.name, what, scope) for path in sorted(SOURCE.glob("*.py"))
            for _, what, scope in _gram_builds(ast.parse(path.read_text(encoding="utf-8")))}


def test_only_the_haar_layer_builds_a_gram():
    assert _sites() == {("haar.py", "star @ pair", "certify_haar"),
                        ("haar.py", "star @ pair", "gram_matrices"),
                        ("homspace.py", "star @ pair", "state_coideal"),
                        ("haar.py", "S @ S", "_kac_gaps"),
                        ("corep.py", "S @ S", "doubly_contragredient")}


def test_gram_guard_sees_each_pattern():
    sample = ast.parse(
        "star, s, H = alg.star, alg.antipode, h.pair\n"
        "gram = alg.star @ h.pair\n"
        "left = np.conj(s @ s) @ star @ h.pair.T\n"
        "again = np.matmul(np.conj(star), H)\n"
        "weights = np.conj(rows) @ alg.star @ H\n"
        "chars = chi @ h.pair @ (np.conj(chi) @ alg.star)\n")
    assert sorted((line, what) for line, what, _ in _gram_builds(sample)) == [
        (2, "star @ pair"), (3, "S @ S"), (4, "star @ pair")]
