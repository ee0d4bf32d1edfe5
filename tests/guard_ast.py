"""AST helpers shared by the static guards (``tests/test_*_guard.py``)."""

from __future__ import annotations

import ast


def aliases(tree: ast.AST, attr: str) -> set[str]:
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


def mentions(node: ast.AST, attr: str, names: set[str]) -> bool:
    """``node`` holds an ``x.<attr>`` expression or one of ``names``."""
    return any((isinstance(sub, ast.Attribute) and sub.attr == attr)
               or (isinstance(sub, ast.Name) and sub.id in names) for sub in ast.walk(node))
