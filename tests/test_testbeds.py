"""Irrep tables against their known answers, and beyond the built-ins: n = 24, n = 36
and n = 60.

Every entry of the bed registry carries the sorted irrep dims group theory predicts
(:mod:`beds`): hook lengths for C(S_n), |G| ones for C[G], products of the factors'
dims for a tensor product, the unrotated answer for a rotated bed, the double-coset
rule for C[G]^J and G's degrees for its dual.  The known-answer test checks every
entry's table against them, never against the library.  C(S3) (x) C[S3] (n = 36) is
neither commutative nor cocommutative; so are the twists and their duals.
"""

from __future__ import annotations

import numpy as np
import pytest

from beds import (BEDS, GROUPS, Bed, alternating_elements, character_gram, context,
                  permutation_group, select)

from cqglab.algebra import HopfAlgebraSpec
from cqglab.corep import (Corepresentation, check_unitary, decompose_comodule, irrep_table,
                          is_irreducible, morphism_space, verify_corep)
from cqglab.groups import build_function_algebra
from cqglab.haar import gram_matrices, solve_haar
from cqglab.regular import regular_corep


@pytest.fixture(scope="module", params=select(lambda bed: bed.n >= 24))
def bed(request):
    ctx = context(request.param)
    return ctx.algebra, ctx.bed.dims, ctx.haar, ctx.table


def test_tensor_product_bed_has_no_symmetry():
    alg = context("C(S3)(x)C[S3]").algebra   # admitted: the axiom suites pass at 1e-12
    assert np.abs(alg.mult - alg.mult.transpose(1, 0, 2)).max() > 0.5
    assert np.abs(alg.comult - alg.comult.transpose(0, 2, 1)).max() > 0.5


def test_a_bed_that_fails_admission_raises_in_every_lookup(monkeypatch):
    """C(S3) with noise of 1e-11 on its coproduct still has a Haar functional and a
    table, but fails the Hopf axioms at 1e-12: every lookup raises, none is cached."""
    alg = context("C(S3)").algebra
    noise = 1e-11 * np.random.default_rng(1).standard_normal(alg.comult.shape)
    noisy = HopfAlgebraSpec(alg.dim, alg.mult, alg.comult + noise, alg.antipode, alg.counit,
                            alg.unit, alg.star, label="noisy")
    monkeypatch.setitem(BEDS, "noisy", Bed("noisy", lambda: noisy, (1, 1, 2)))
    for _ in range(2):
        with pytest.raises(AssertionError, match=r"^noisy fails admission: hopf axioms"):
            context("noisy")


@pytest.mark.parametrize("label", select())
def test_dims_and_multiplicities_match_group_theory(label):
    """The known-answer test: every entry's table has the dims of its entry."""
    ctx = context(label)
    table, dims = ctx.table, ctx.bed.dims
    assert tuple(sorted(table.dims())) == dims
    assert list(table.multiplicities) == table.dims()  # Peter-Weyl: m_p = d_p
    assert sum(d * d for d in dims) == ctx.algebra.dim


def test_characters_are_orthonormal(bed):
    _, _, h, table = bed
    assert np.abs(character_gram(table, h) - np.eye(len(table))).max() < 1e-12


def test_every_irrep_is_a_unitary_irreducible_corep(bed):
    _, _, h, table = bed
    for pi in table:
        assert verify_corep(pi, 1e-10).passed, pi.label
        assert check_unitary(pi, 1e-10).passed, pi.label
        assert is_irreducible(pi, h), pi.label


def test_character_certificate_matches_the_commutant(bed):
    """``is_irreducible`` (``h(chi^* chi) = 1``) agrees with ``dim End(pi) = 1`` on the
    table irreps and on a reducible direct sum of the first and last."""
    _, _, h, table = bed
    first, last = table[0], table[-1]
    coeffs = np.zeros((first.dim + last.dim,) * 2 + (first.algebra.dim,), dtype=complex)
    coeffs[:first.dim, :first.dim], coeffs[first.dim:, first.dim:] = first.coeffs, last.coeffs
    summed = Corepresentation(first.algebra, coeffs, label="first+last")
    for pi in [*table, summed]:
        assert is_irreducible(pi, h) == (len(morphism_space(pi, pi, table)) == 1), pi.label
    assert not is_irreducible(summed, h)


@pytest.mark.parametrize("label", ["C(S4)", "C[S4]"])
def test_regular_comodule_decomposes_by_peter_weyl(label):
    """The regular comodule is cut against the table, one ``Hom(pi^r, A)`` solve in
    d_r n unknowns per irrep: every irreducible of dimension d splits off d times,
    and conjugating the regular corep by the pieces' columns gives the table's
    irreps on the diagonal and nothing off it, to 1e-12."""
    ctx = context(label)
    alg, dims, table = ctx.algebra, ctx.bed.dims, ctx.table
    reg = regular_corep(alg, "R")
    blocks = decompose_comodule(reg, table)
    assert [sub.dim for _, sub in blocks] == sorted(d for d in dims for _ in range(d))
    c_mat = np.hstack([basis for basis, _ in blocks])
    conjugated = np.einsum("ja,abm,bk->jkm", np.linalg.inv(c_mat), reg.coeffs, c_mat)
    expected = np.zeros_like(conjugated)
    start = 0
    for _, sub in blocks:
        assert any(sub is irrep for irrep in table)
        expected[start:start + sub.dim, start:start + sub.dim] = sub.coeffs
        start += sub.dim
    assert np.abs(conjugated - expected).max() < 1e-12


GOLDEN = (1 + 5 ** 0.5) / 2


def test_a5_three_dim_label_order_is_stable_under_relabelling():
    """The two 3-dim irreps of C(A5) are Galois conjugates: their characters swap
    (1 + sqrt 5)/2 and (1 - sqrt 5)/2 between the two classes of 5-cycles, and an
    outer automorphism of A5 swaps those classes, so no order of the two labels is
    basis-free.  The table orders them by the rounded character fingerprint in basis
    order; under every relabelling the first 3-dim label takes (1 - sqrt 5)/2 on the
    first 5-cycle of the basis and the second takes (1 + sqrt 5)/2."""
    elems = alternating_elements(5)
    for seed in (1, 2):
        order = [0, *(1 + np.random.default_rng(seed).permutation(len(elems) - 1))]
        relabelled = [elems[i] for i in order]
        alg = build_function_algebra(permutation_group(relabelled))
        h = solve_haar(alg)
        table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
        assert tuple(table.dims()) == GROUPS["A5"][1]
        # an even permutation of five points without a fixed point is a 5-cycle
        first = next(i for i, p in enumerate(relabelled) if all(p[x] != x for x in range(5)))
        chis = table.characters[1:3, first]
        assert np.abs(chis - [1 - GOLDEN, GOLDEN]).max() < 1e-10, seed
