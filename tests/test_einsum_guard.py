"""Static guard: no many-operand or path-searching einsum in the package source.

A contraction written as one ``np.einsum`` over three or more tensors runs as
a single nested loop over every index (n^8 for the bialgebra axiom, n^4 for a
Gram matrix ``star @ (mult @ h)`` that two matrix products form in n^3); with
``optimize=True`` numpy searches for a contraction order on every call
instead, which costs more than the contraction itself at desk scale.
Contractions are written as explicit chains of two-operand steps.

Two-operand ``einsum`` still runs as numpy's own loop, not BLAS.  The
structure-constant certificates (:func:`verify_hopf_axioms`,
:func:`product_coaction_check`, :func:`dual_action_crosscheck`) hold n^5
contractions at n = 60, and the tensor-operator engine (the Peter-Weyl
context and the functions that drive it) k n^4 ones, so there every step with
five or more distinct indices is a reshape plus a matrix product or a
``tensordot`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "cqglab"


def _is_einsum(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "einsum")


def _einsum_calls():
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _is_einsum(node):
                yield f"{path.name}:{node.lineno}", node


# functions whose einsums the scanner must find; named, not counted, so replacing
# another einsum by a matrix product does not break the check
KNOWN_SITES = {("algebra.py", "verify_star_axioms"), ("regular.py", "check_basis_functions"),
               ("wigner_eckart.py", "_inner_product_tensor")}


def test_einsum_calls_are_found():
    found = {where for where, _ in _einsum_calls()}
    for name, function in KNOWN_SITES:
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        [func] = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == function]
        lines = range(func.lineno, func.end_lineno + 1)
        assert any(f"{name}:{line}" in found for line in lines), (name, function)


def test_no_einsum_with_three_or_more_operands():
    offenders = [where for where, call in _einsum_calls()
                 if len(call.args) - 1 >= 3
                 or any(isinstance(arg, ast.Starred) for arg in call.args)]
    assert offenders == []


def test_no_einsum_path_search():
    offenders = [where for where, call in _einsum_calls()
                 for kw in call.keywords
                 if kw.arg == "optimize" and not (isinstance(kw.value, ast.Constant)
                                                  and kw.value.value is False)]
    assert offenders == []


BLAS_ONLY = {"algebra.py": ("verify_hopf_axioms",),
             "regular.py": ("product_coaction_check", "dual_action_crosscheck"),
             "tensor_ops.py": ("_coaction_stack", "check_families", "_stacked",
                               "_operator_gaps", "_PeterWeyl.__init__",
                               "_PeterWeyl._cut_legs", "_PeterWeyl.route",
                               "_PeterWeyl.components")}


def _defs(tree: ast.Module):
    """Each top-level function and method of a module with its qualified name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_structure_constant_certificates_have_no_wide_einsum():
    offenders = []
    for name, functions in BLAS_ONLY.items():
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        defs = [(qual, node) for qual, node in _defs(tree) if qual in functions]
        assert sorted(qual for qual, _ in defs) == sorted(functions)
        for qual, func in defs:
            for node in filter(_is_einsum, ast.walk(func)):
                spec = node.args[0] if node.args else None
                letters = (set(filter(str.isalpha, spec.value))
                           if isinstance(spec, ast.Constant) and isinstance(spec.value, str)
                           else None)
                if letters is None or len(letters) >= 5:
                    offenders.append(f"{name}:{qual}:{node.lineno}")
    assert offenders == []
