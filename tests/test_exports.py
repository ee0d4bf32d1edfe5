"""Export integrity: every exported name resolves, module ``__all__`` lists and the
package namespace agree, and removed names stay gone.

Elements are coefficient arrays and functionals are covectors; the object layer
that wrapped them (and the test-only helpers now in ``tests/oracles.py``) must not
come back through a stale export list.  A coideal is built with its Gram, so its
orthonormal basis and carrier need no separate step and no separate tensor
functions.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import cqglab
from cqglab.algebra import HopfAlgebraSpec, LinearFunctional
from cqglab.homspace import CoidealSubalgebra

REMOVED = ("Element", "TensorElement", "multiply", "coproduct", "counit_of", "unary_map",
           "antipode_inverse_via_star", "regular_coaction", "opposite_algebra",
           "verify_dual_pairing", "random_elements", "restricted_coaction_tensor",
           "restricted_product_tensor", "orthonormalize", "WEReport", "compute_F",
           "NotIrreducible", "Character", "character", "intertwiners",
           "excluded_substitution_residual")
REMOVED_METHODS = ("element", "basis_element", "one", "random_element", "is_commutative",
                   "antipode_inv")
REMOVED_COIDEAL_MEMBERS = ("orthonormalize", "onb_rows", "_carrier", "std_projector")
# a module used as a namespace (``cqglab.io.save_report``): its names are not re-exported
NAMESPACES = ("cqglab.io",)

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


def _defined_public(module) -> list[str]:
    """Public functions and classes that ``module`` defines itself."""
    return [name for name, obj in vars(module).items() if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__]


def test_module_lists_and_package_agree():
    """Each public function or class of a module with ``__all__`` is listed there, and
    each listed name is the package's own, except in a namespace module."""
    listed = [module for module in MODULES if hasattr(module, "__all__")]
    assert len(listed) > 8
    for module in listed:
        unlisted = [name for name in _defined_public(module) if name not in module.__all__]
        assert unlisted == [], module.__name__
        if module.__name__ in NAMESPACES:
            continue
        unexported = [name for name in module.__all__
                      if getattr(cqglab, name, None) is not getattr(module, name)]
        assert unexported == [], module.__name__


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
    for member in REMOVED_COIDEAL_MEMBERS:
        assert not hasattr(CoidealSubalgebra, member), member
