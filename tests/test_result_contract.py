"""Every result is a frozen value: the twin of ``test_corep_contract.py`` for the
other result types.

``CGSystem``, ``BasisFunctionSet``, ``TensorOperatorFamily`` and ``GramPair`` are
frozen dataclasses holding read-only complex copies of their arrays, as
``Corepresentation`` and ``LinearFunctional`` do, all through one copy-then-freeze
helper, and as ``HopfAlgebraSpec`` does in its own dtype (``test_real_structure.py``):
assigning a field raises ``FrozenInstanceError``, writing into an array raises
``ValueError``, and the caller's array is neither shared nor made read-only.  An
irrep table carries the Haar functional it was certified under, and ``solve_cg``
refuses any other.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cqglab.algebra import HopfAlgebraSpec, LinearFunctional
from cqglab.cg import solve_cg
from cqglab.corep import Corepresentation, invariant_gram, is_irreducible
from cqglab.errors import DimensionMismatch
from cqglab.haar import GramPair, gram_matrices
from cqglab.regular import BasisFunctionSet, canonical_basis_functions, projection_operator
from cqglab.tensor_ops import TensorOperatorFamily, multiplication_family

SPEC_FIELDS = ("mult", "comult", "antipode", "counit", "unit", "star")


def _results(ctx):
    """One value of each frozen result type, with the name of its array fields."""
    bset = canonical_basis_functions(ctx.table["p2"], "R", 0)
    return {"CGSystem": (ctx.cg("p2", "p2"), ("C", "Cinv")),
            "BasisFunctionSet": (bset, ("functions",)),
            "TensorOperatorFamily": (multiplication_family(bset, "ordinary"), ("operators",)),
            "GramPair": (ctx.grams, ("matrix", "gram_right", "gram_left")),
            "LinearFunctional": (ctx.haar, ("covector",)),
            "Corepresentation": (ctx.table["p2"], ("coeffs",))}


@pytest.mark.parametrize("kind", ["CGSystem", "BasisFunctionSet", "TensorOperatorFamily",
                                  "GramPair", "LinearFunctional", "Corepresentation"])
def test_fields_are_frozen_and_arrays_read_only(cs3_fun, kind):
    """Every result array is complex128, even on a spec whose structure constants are
    stored real: only the spec narrows its dtype."""
    assert cs3_fun.algebra.mult.dtype == np.float64
    value, arrays = _results(cs3_fun)[kind]
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    for name in arrays:
        arr = getattr(value, name)
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 1.0
        assert arr.dtype == np.complex128


def test_cg_system_tables_are_read_only_and_derived_once(cs3_fun):
    """The multiplicities and column index are read-only, so the cached offsets and
    target rows read off them cannot fall behind an edit."""
    system = cs3_fun.cg("p2", "p2")
    with pytest.raises(TypeError):
        system.multiplicities["p0"] = 2
    assert isinstance(system.col_index, tuple)
    assert system.offsets is system.offsets and system.target_rows is system.target_rows
    assert system.target_rows.tolist() == [[mult, system.offsets[r]]
                                           for r, mult in system.multiplicities.items()]
    assert dataclasses.replace(system).block_residual == system.block_residual


def test_arrays_are_copies_of_the_callers(cs3_fun):
    """Each constructor copies: the caller's array stays writable, and writing into it
    does not move the value."""
    pi = cs3_fun.table["p2"]
    funcs = np.array(canonical_basis_functions(pi, "R", 0).functions)
    ops = np.array(multiplication_family(canonical_basis_functions(pi, "R", 0),
                                         "ordinary").operators)
    gram = np.array(cs3_fun.grams.gram_right)
    system = cs3_fun.cg("p2", "p2")
    c_mat = np.array(system.C)
    made = [(BasisFunctionSet(pi, "R", funcs), "functions", funcs),
            (TensorOperatorFamily(pi, "ordinary", "R", ops), "operators", ops),
            (GramPair(cs3_fun.algebra, gram), "matrix", gram),
            (dataclasses.replace(system, C=c_mat), "C", c_mat)]
    for value, name, source in made:
        before = getattr(value, name).copy()
        assert not np.shares_memory(getattr(value, name), source)
        source.flat[0] += 1.0
        assert source.flags.writeable and np.array_equal(getattr(value, name), before), name


def test_spec_does_not_alias_the_callers_arrays(cs3_fun):
    """The aliasing reproduction: a spec built with ``mult=big[0]`` from a writable
    complex array shared its memory, so ``big[0, 0, 0, 0] = 1e6`` moved ``spec.mult``
    under the cached ``magnitude`` (still 1.0), and the caller's own array became
    read-only."""
    alg = cs3_fun.algebra
    big = np.array(alg.mult)[None]
    arrays = {name: np.array(getattr(alg, name)) for name in SPEC_FIELDS}
    spec = HopfAlgebraSpec(alg.dim, **{**arrays, "mult": big[0]}, label="copy")
    assert spec.magnitude == 1.0
    big[0, 0, 0, 0] = 1e6
    assert spec.mult[0, 0, 0] == alg.mult[0, 0, 0] and spec.magnitude == 1.0
    for name in SPEC_FIELDS:
        assert not np.shares_memory(getattr(spec, name), arrays[name]), name
        assert arrays[name].flags.writeable and not getattr(spec, name).flags.writeable, name
    covector = np.array(cs3_fun.haar.covector)
    coeffs = np.array(cs3_fun.table["p2"].coeffs)
    for value, name, source in ((LinearFunctional(alg, covector), "covector", covector),
                                (Corepresentation(alg, coeffs), "coeffs", coeffs)):
        assert not np.shares_memory(getattr(value, name), source) and source.flags.writeable


def test_table_carries_its_haar_functional(contexts):
    """``irrep_table`` stores its ``h`` on the table; a functional of another algebra
    is refused."""
    for label, ctx in contexts.items():
        assert ctx.table.haar is ctx.haar, label
    table = contexts["C(S3)"].table
    with pytest.raises(DimensionMismatch):
        dataclasses.replace(table, haar=contexts["C[S3]"].haar)


@pytest.mark.parametrize("foreign", ["C(Z3)", "C[S3]"])
def test_functions_taking_h_refuse_another_algebras(contexts, foreign):
    """A Haar functional of another algebra raises ``DimensionMismatch``, as
    ``irrep_table`` does, in each function that takes it beside a corep or a spec:
    C(Z3)'s (n = 3) made numpy leak a ``matmul`` ``ValueError``, and C[S3]'s (n = 6,
    like C(S3)) gave a wrong answer silently."""
    ctx, h = contexts["C(S3)"], contexts[foreign].haar
    p2 = ctx.table["p2"]
    calls = [lambda side=side, route=route: projection_operator(p2, 0, 1, side, h, route=route)
             for side in ("R", "L") for route in ("maps", "constants")]
    calls += [lambda: is_irreducible(p2, h), lambda: invariant_gram(p2, h),
              lambda: gram_matrices(ctx.algebra, h)]
    for call in calls:
        with pytest.raises(DimensionMismatch):
            call()


def test_solve_cg_refuses_another_functional(cs3_fun):
    """Even an equal copy of the table's functional is refused: the table was certified
    under its own ``haar``, and ``solve_cg`` reads only that one."""
    table, p2 = cs3_fun.table, cs3_fun.table["p2"]
    for other in (LinearFunctional(cs3_fun.algebra, cs3_fun.haar.covector),
                  LinearFunctional(cs3_fun.algebra, 1.5 * cs3_fun.haar.covector)):
        with pytest.raises(ValueError, match="table was built with"):
            solve_cg(p2, p2, table, other)
    assert solve_cg(p2, p2, table, cs3_fun.haar).multiplicities == {"p0": 1, "p1": 1, "p2": 1}
