"""Static guard: one antipode, and a kind that only picks a product.

Every finite-dimensional CQG algebra has ``S^2 = id``, and ``solve_haar``
certifies it, so the package reads ``S`` wherever the paper writes ``S^{-1}``
and drops ``S^{-2}``: no module keeps ``antipode_inv`` or inverts the antipode
(``inv``, ``solve`` or ``pinv`` of an expression holding it).  A twisted variant
is then the ordinary variant of ``A^op``, which differs from ``A`` only in its
product, so below the public entry points a kind is compared only where it picks
that product (``algebra._kind_product``) or is validated (``_variant_key``), in
the CG-order rules (``wigner_eckart._cg_order``, ``couple_families``), in
``cg.tensor_product``'s glyph, and in the CLI.  A kind that picks anything else
shows as a comparison with ``kind`` or ``x.kind``, or as a lookup ``x[kind]``.

Under the same premise the left formalism is the right formalism of ``A^cop`` with ``S``
on the second leg, so a side picks only through ``algebra._regular_side`` (the coproduct,
the second leg's map and the kind its second legs multiply in).  Below the public entry
points a side is compared, or used as a key, only there, in ``_variant_key``, where input
is validated (``GramPair.gram``, ``CoidealSubalgebra.__post_init__``,
``_carrier_of`` and ``check_families``' coideal check), in ``regular_carrier``'s
side-keyed cache, in ``verify_coideal``'s ``S^2`` line (a check on the left, ``meta`` on the
right) and in the CLI.  A side shows as a comparison or a lookup whose operand mentions
``side``, ``x.side`` or a name bound to ``x.side``.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from guard_ast import aliases, mentions

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"
INVERSES = {"inv", "solve", "pinv"}
KIND_ALLOWED = {("algebra.py", "_kind_product"), ("tensor_ops.py", "_variant_key"),
                ("wigner_eckart.py", "_cg_order"), ("tensor_ops.py", "couple_families"),
                ("cg.py", "tensor_product")}
KIND_MODULES = {"cli.py"}
SIDE_ALLOWED = Counter({("algebra.py", "side compared", "_regular_side"): 2,
                        ("tensor_ops.py", "side compared", "_variant_key"): 1,
                        ("haar.py", "side compared", "gram"): 1,
                        ("homspace.py", "side compared", "__post_init__"): 1,
                        ("regular.py", "side compared", "_carrier_of"): 1,
                        ("tensor_ops.py", "side compared", "check_families"): 2,
                        ("regular.py", "side lookup", "regular_carrier"): 1,
                        ("homspace.py", "side compared", "verify_coideal"): 1})


def _is_kind(node: ast.AST) -> bool:
    """``kind`` or ``x.kind``, but not a dtype's ``arr.dtype.kind``."""
    if isinstance(node, ast.Name):
        return node.id == "kind"
    return (isinstance(node, ast.Attribute) and node.attr == "kind"
            and getattr(node.value, "attr", None) != "dtype")


def _antipode_sites(tree: ast.AST) -> list[tuple[int, str, str]]:
    """``(line, what, function)`` of each ``antipode_inv``, each inverse of an antipode
    and each comparison or lookup by a kind or a side."""
    antipodes, sides = aliases(tree, "antipode"), aliases(tree, "side") | {"side"}
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if "antipode_inv" in (getattr(node, "attr", None), getattr(node, "id", None),
                              getattr(node, "name", None)):
            out.append((node.lineno, "antipode_inv", scope))
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in INVERSES and any(mentions(arg, "antipode", antipodes)
                                        for arg in node.args):
                out.append((node.lineno, f"{name} of S", scope))
        if isinstance(node, ast.Compare) and any(map(_is_kind, [node.left, *node.comparators])):
            out.append((node.lineno, "kind compared", scope))
        if isinstance(node, ast.Subscript) and _is_kind(node.slice):
            out.append((node.lineno, "kind lookup", scope))
        if isinstance(node, ast.Compare) and any(mentions(operand, "side", sides)
                                                 for operand in [node.left, *node.comparators]):
            out.append((node.lineno, "side compared", scope))
        if isinstance(node, ast.Subscript) and mentions(node.slice, "side", sides):
            out.append((node.lineno, "side lookup", scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return out


def _sites() -> Counter:
    """How often each ``(file, what, function)`` occurs in the package."""
    return Counter((path.name, what, scope) for path in sorted(SOURCE.glob("*.py"))
                   for _, what, scope in _antipode_sites(ast.parse(path.read_text(
                       encoding="utf-8"))))


def test_no_inverse_antipode_in_the_package():
    assert {site for site in _sites() if not site[1].startswith(("kind", "side"))} == set()


def test_kind_only_picks_the_product():
    kinds = {(name, scope) for name, what, scope in _sites() if what.startswith("kind")}
    assert {site for site in kinds if site[0] not in KIND_MODULES} == KIND_ALLOWED


def test_side_only_picks_through_the_helper():
    sides = Counter({site: count for site, count in _sites().items()
                     if site[1].startswith("side") and site[0] != "cli.py"})
    assert sides == SIDE_ALLOWED


def test_antipode_guard_sees_each_pattern():
    sample = ast.parse(
        "s, m = alg.antipode, alg.mult\n"
        "a = alg.antipode_inv\n"
        "b = np.linalg.inv(alg.antipode)\n"
        "c = np.linalg.solve(s @ s, x)\n"
        "d = np.linalg.pinv(p @ alg.antipode.T @ r)\n"
        "e = np.linalg.inv(p)\n"
        "def f(kind, fam):\n"
        "    x = m if kind == 'ordinary' else m.T\n"
        "    y = fam.kind != 'twisted'\n"
        "    z = powers[kind]\n"
        "    return arr.dtype.kind == 'c'\n"
        "def antipode_inv(self):\n"
        "    return None\n")
    assert sorted((line, what) for line, what, _ in _antipode_sites(sample)) == [
        (2, "antipode_inv"), (3, "inv of S"), (4, "solve of S"), (5, "pinv of S"),
        (8, "kind compared"), (9, "kind compared"), (10, "kind lookup"), (12, "antipode_inv")]


def test_side_guard_sees_each_pattern():
    sample = ast.parse(
        "def f(side, bset, table):\n"
        "    if side == 'L':\n"
        "        x = 1\n"
        "    y = bset.carrier.side != 'R'\n"
        "    own = bset.side\n"
        "    z = own in ('L',)\n"
        "    w = table.sets[side]\n"
        "    v = cache[_key(kind, bset.side)]\n"
        "    return x.dtype.kind == 'c', sides[0]\n")
    assert sorted((line, what) for line, what, _ in _antipode_sites(sample)) == [
        (2, "side compared"), (4, "side compared"), (6, "side compared"),
        (7, "side lookup"), (8, "side lookup")]
