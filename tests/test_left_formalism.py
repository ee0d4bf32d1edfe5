"""The left formalism against the paper's left formulas, on every bed with n <= 36.

The package reads a side only through ``algebra._regular_side``: the left formalism
is the right formalism of ``A^cop`` with ``S`` on the second leg, so the left coaction
tensor, the left canonical sets, the left multiplication families and the engine's
left second-leg products are all right formulas read through it.  The paper writes
each of them on its own; :mod:`oracles` keeps those formulas (``S^{-1}`` inverted as
written), and each is compared with the package here on every bed with n <= 36 (``beds.up_to``),
among them C(S3) (x) C[S3], its rotation and its dual, and the twisted group algebras
C[D6]^J and C[S4]^J with their duals, neither commutative nor cocommutative.
"""

from __future__ import annotations

import numpy as np
import pytest

from beds import context, up_to
from oracles import (antipode_inverse, dense_family_residuals, paper_coaction,
                     paper_left_family, paper_left_products, paper_left_set)

from cqglab.algebra import HopfAlgebraSpec
from cqglab.corep import Corepresentation, IrrepTable, check_unitary
from cqglab.haar import HaarFunctional
from cqglab.regular import (canonical_basis_functions, check_basis_functions,
                            regular_coaction_tensor)
from cqglab.tensor_ops import (VARIANTS, TensorOperatorFamily, check_families,
                               multiplication_family)

KINDS = ("ordinary", "twisted")


@pytest.fixture(scope="module")
def beds():
    """A context (Haar functional, Grams, irrep table) for each bed with n <= 36."""
    return [context(label) for label in up_to(36)]


def _close(got: np.ndarray, want: np.ndarray, alg) -> bool:
    return float(np.abs(got - want).max()) <= 1e-12 * alg.magnitude ** 2


def test_left_coaction_tensor_is_the_papers(beds):
    for ctx in beds:
        alg = ctx.algebra
        for side in ("R", "L"):
            assert _close(regular_coaction_tensor(alg, side), paper_coaction(alg, side),
                          alg), (alg.label, side)


def test_left_canonical_sets_are_the_papers(beds):
    """``S(pi_lj)``, the right set through the second leg's ``S``, is the paper's
    ``S^{-2}(pi^*_{jl})`` for every irrep and row."""
    for ctx in beds:
        for pi in ctx.table:
            for row in range(pi.dim):
                got = canonical_basis_functions(pi, "L", row).functions
                assert _close(got, paper_left_set(pi, row), ctx.algebra), (pi.label, row)


def test_left_sets_of_non_unitary_conjugates_pass(beds):
    """``S(pi_l.)`` is a left set of every corep under ``S^2 = id``: for a fixed
    non-unitary conjugate ``T^{-1} pi T`` of every irrep of dimension at least 2, which
    fails ``check_unitary``, every row's left set satisfies the defining relation to
    ``1e-12`` times the magnitude."""
    for ctx in beds:
        alg = ctx.algebra
        for pi in ctx.table:
            if pi.dim < 2:
                continue
            skew = np.eye(pi.dim) + 0.5 * np.triu(np.ones((pi.dim, pi.dim)), 1)
            coeffs = np.einsum("ja,abm,bk->jkm", np.linalg.inv(skew), pi.coeffs, skew)
            moved = Corepresentation(alg, coeffs, label=f"skewed {pi.label}")
            assert not check_unitary(moved).passed, (alg.label, pi.label)
            for row in range(pi.dim):
                bset = canonical_basis_functions(moved, "L", row)
                assert check_basis_functions(bset) <= 1e-12 * alg.magnitude, (
                    alg.label, pi.label, row)


def test_left_families_are_the_papers_right_multiplications(beds):
    """A left multiplication family of either kind, one left multiplication in the product
    read through the side, is the paper's right multiplication by the left set."""
    for ctx in beds:
        for pi in ctx.table:
            bset = canonical_basis_functions(pi, "L", 0)
            for kind in KINDS:
                want = paper_left_family(paper_left_set(pi, 0), ctx.algebra, kind)
                got = multiplication_family(bset, kind).operators
                assert _close(got, want, ctx.algebra), (ctx.algebra.label, pi.label, kind)


def test_left_second_leg_products_are_the_papers(beds):
    """The engine's left products, the other kind's right products with their legs
    swapped, are the paper's ``S(u_B) S^{+-1}(S(u_v))`` in the kind's product."""
    for ctx in beds:
        pw, n = ctx.table._peter_weyl, ctx.algebra.dim
        for kind in KINDS:
            got = pw.variants[kind, "twisted"][1][:, :, :n]
            want = paper_left_products(ctx.table, kind)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (
                ctx.algebra.label, kind)


def _cop(alg) -> HopfAlgebraSpec:
    """``A^cop``: the coproduct's legs swapped and the antipode ``S^{-1}``."""
    return HopfAlgebraSpec(alg.dim, alg.mult, alg.comult.transpose(0, 2, 1),
                           antipode_inverse(alg), alg.counit, alg.unit, alg.star,
                           label=f"cop({alg.label})")


def test_left_families_are_right_families_of_the_coopposite_for_the_other_kind():
    """On C(S3) (x) C[S3], neither commutative nor cocommutative: a left multiplication
    family of either kind for ``pi`` passes ``A^cop``'s right condition for the other kind
    with ``w_kj = (pi_jk)^*`` (the table mapped, ``A``'s Haar covector kept), by the dense
    routes, and fails it for its own kind."""
    ctx = context("C(S3)(x)C[S3]")
    alg, cop = ctx.algebra, _cop(ctx.algebra)
    mapped = [Corepresentation(cop, np.conj(pi.coeffs).transpose(1, 0, 2) @ alg.star, pi.label)
              for pi in ctx.table]
    table = IrrepTable(cop, HaarFunctional(cop, ctx.haar.covector), mapped,
                       ctx.table.multiplicities, ctx.table.labels)
    tol = 1e-10 * alg.magnitude ** 2
    own = []
    for pi, w in zip(ctx.table, table):
        bset = canonical_basis_functions(pi, "L", 0)
        for kind, other in zip(KINDS, reversed(KINDS)):
            ops = multiplication_family(bset, kind).operators
            assert dense_family_residuals(TensorOperatorFamily(w, other, "R", ops), table,
                                          other, "R")[0] <= tol, (pi.label, kind)
            own.append(dense_family_residuals(TensorOperatorFamily(w, kind, "R", ops),
                                              table, kind, "R")[0])
    assert max(own) > 0.5


def test_twisted_d6_families_fail_the_other_kind_off_the_centre():
    """C[D6]^J, ``C[D6]`` twisted over ``K = {e, r^3, s, s r^3}``: its Hopf and star
    residuals are 0, and every variant's multiplication families of the row-0 canonical
    sets pass their own condition.  Tested as the other kind they pass exactly where the
    set is central in ``A`` (multiplying from the left or the right is then one
    operator), on two irreps, and fail by more than 1 on the other four."""
    ctx = context("C[D6]^J")
    alg, table = ctx.algebra, ctx.table
    assert ctx.admission["hopf"].max_residual == ctx.admission["star"].max_residual == 0.0
    assert not ctx.bed.commutative and not ctx.bed.cocommutative
    commutator = alg.mult - alg.mult.swapaxes(0, 1)
    tol = 1e-12 * alg.magnitude ** 2
    for kind, side in VARIANTS:
        other = KINDS[1 - KINDS.index(kind)]
        bsets = [canonical_basis_functions(pi, side, 0) for pi in table]
        central = [np.abs(np.tensordot(bset.functions, commutator, axes=(1, 0))).max() <= tol
                   for bset in bsets]
        fams = [multiplication_family(bset, kind) for bset in bsets]
        assert max(check_families(fams, table)) <= tol, (kind, side)
        crossed = check_families(fams, table, kind=other)
        assert sum(central) == 2, (kind, side)
        for pi, is_central, residual in zip(table, central, crossed):
            assert (residual <= tol) if is_central else (residual > 1.0), (
                kind, side, pi.label, residual)
