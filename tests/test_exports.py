"""Export integrity: every exported name resolves, and the removed element layer is gone.

Elements are coefficient arrays and functionals are covectors; the object layer
that wrapped them (and the test-only helpers now in ``tests/oracles.py``) must not
come back through a stale export list.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil

import pytest

import cqglab
from cqglab.algebra import HopfAlgebraSpec, LinearFunctional

REMOVED = ("Element", "TensorElement", "multiply", "coproduct", "counit_of", "unary_map",
           "antipode_inverse_via_star", "regular_coaction", "opposite_algebra",
           "verify_dual_pairing", "random_elements")
REMOVED_METHODS = ("element", "basis_element", "one", "random_element", "is_commutative")

MODULES = [importlib.import_module(f"cqglab.{info.name}")
           for info in pkgutil.iter_modules(cqglab.__path__)]


def _package_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for each name ``cqglab/__init__.py`` imports from a submodule."""
    with open(cqglab.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return [(node.module, alias.name) for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 for alias in node.names]


def test_every_exported_name_resolves():
    assert len(MODULES) > 10
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
    imports = _package_imports()
    assert len(imports) > 80
    for module_name, name in imports:
        module = importlib.import_module(f"cqglab.{module_name}")
        assert getattr(cqglab, name) is getattr(module, name), name
        if hasattr(module, "__all__"):
            assert name in module.__all__, f"{module_name}.{name} is not in its __all__"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_importable(name):
    assert not hasattr(cqglab, name)
    for module in MODULES:
        assert not hasattr(module, name), f"{module.__name__}.{name}"
        assert name not in getattr(module, "__all__", ())


def test_removed_constructors_and_evaluation():
    for method in REMOVED_METHODS:
        assert not hasattr(HopfAlgebraSpec, method), method
    assert not callable(LinearFunctional(cqglab.builtin_algebras()["C(Z2)"], [1.0, 0.0]))
