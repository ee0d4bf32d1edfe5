"""Static guard: a coideal is built once, with its Gram, and is not edited after.

``CoidealSubalgebra`` stores its side's invariant Gram of the algebra when it is
built, and derives its orthonormal basis and carrier from it on first use.  A
function that took the Gram pair again could hand a coideal a second Gram, and
a field that could be reassigned could leave a cached basis or carrier stale.
So in ``homspace.py`` only the two constructors take ``grams``, a coideal's
fields cannot be assigned, and its arrays cannot be written in place.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cqglab.groups import symmetric_group_3
from cqglab.homspace import build_coset_subalgebra

HOMSPACE = Path(__file__).resolve().parent.parent / "src" / "cqglab" / "homspace.py"
CONSTRUCTORS = {"build_coset_subalgebra", "subspace_coideal"}


def _takers_of_grams() -> set[str]:
    tree = ast.parse(HOMSPACE.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "grams" in [arg.arg for arg in [*node.args.posonlyargs, *node.args.args,
                                                 *node.args.kwonlyargs]]}


def test_only_the_constructors_take_grams():
    assert _takers_of_grams() == CONSTRUCTORS


@pytest.mark.parametrize("field", ["algebra", "span_rows", "side", "gram", "label"])
def test_coideal_fields_cannot_be_assigned(cs3_fun, field):
    coideal = build_coset_subalgebra(symmetric_group_3(), [0, 1], "R",
                                     cs3_fun.grams)
    assert field in {f.name for f in dataclasses.fields(coideal)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(coideal, field, np.eye(6))


@pytest.mark.parametrize("field", ["span_rows", "gram"])
def test_coideal_arrays_cannot_be_written(cs3_fun, field):
    """An in-place write to a coideal's rows or Gram raises instead of changing B
    under its cached basis; the arrays it was built from stay the caller's (the
    ``GramPair``'s own are read-only, so a writable copy stands in for them)."""
    grams = cs3_fun.grams
    coideal = build_coset_subalgebra(symmetric_group_3(), [0, 1], "R", grams)
    onb = coideal.onb.copy()
    with pytest.raises(ValueError, match="read-only"):
        getattr(coideal, field)[0] = np.eye(6)[2]
    assert np.array_equal(coideal.onb, onb)
    source = np.array(getattr(coideal, field))
    again = dataclasses.replace(coideal, **{field: source})
    assert getattr(again, field) is not source and source.flags.writeable
