"""Static guard: each matrix decomposition of the package has its homes.

Every ``np.linalg`` call that factors a matrix is listed below with the
functions it may appear in; a new call site must join one of them or be added
here with its reason.

* Cholesky: the factor of an invariant inner product is taken in
  ``corep._gram_basis`` alone; the start of the commutant split, ``unitarize``
  and the coideal's orthonormal basis all read it from there.
* SVD: the antipode's invertibility, the range of each projection ``P^r_11``
  of the decomposition engine, the conditioning of every block-diagonalizing
  ``C`` (CG systems and comodule decompositions alike), the conditioning of a
  table's Peter-Weyl basis and the rank of the family stack.  ``matrix_rank``
  and ``pinv`` are SVDs too: the span of the coupled products and the
  least-squares cross-check of the Wigner-Eckart reduced elements.  ``lstsq``
  is one as well and has no home.
* QR: the coideal's standard projector, the family stack's orthonormal
  columns and the orthonormal basis of ``Hom(V, W)`` that ``morphism_space``
  spans from two block-diagonalizing ``C``.
* Eigendecompositions: the commutant split of ``irrep_table`` (``eigh``) and
  the positivity check of a Gram matrix (``eigvalsh``); general ``eig`` and
  ``eigvals`` have no home.

The Haar functional is a trace and takes no factorization.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"

HOMES = {
    "cholesky": {"corep._gram_basis"},
    "svd": {"algebra.verify_star_axioms", "corep._range_basis",
            "corep._block_diagonalize", "tensor_ops._PeterWeyl.__init__",
            "tensor_ops.solve_family_space"},
    "matrix_rank": {"cg.coupled_basis_functions"},
    "pinv": {"wigner_eckart._factorize_targets"},
    "lstsq": set(),
    "qr": {"corep.morphism_space", "homspace.verify_coideal", "tensor_ops.solve_family_space"},
    "eigh": {"corep._split"},
    "eigvalsh": {"haar._positivity"},
    "eig": set(),
    "eigvals": set(),
}


def _functions(tree: ast.Module):
    """Each top-level function and method of a module with its qualified name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _factorizations():
    """Each ``linalg.<name>`` call for a name in ``HOMES``, with the function that
    encloses it (nested functions count for their outermost one)."""
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, func in _functions(tree):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in HOMES
                        and isinstance(node.func.value, ast.Attribute)
                        and node.func.value.attr == "linalg"):
                    yield node.func.attr, f"{path.stem}.{name}", f"{path.name}:{node.lineno}"


def test_factorizations_are_found():
    """The scan finds every listed home: no home is stale."""
    found = {(kind, func) for kind, func, _ in _factorizations()}
    assert found >= {(kind, func) for kind, homes in HOMES.items() for func in homes}


def test_each_factorization_stays_in_its_homes():
    offenders = [f"{where} {kind} in {func}" for kind, func, where in _factorizations()
                 if func not in HOMES[kind]]
    assert offenders == []
