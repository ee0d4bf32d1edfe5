"""Irrep tables beyond the built-ins: n = 24, n = 60 and an algebra with no symmetry.

C(S4) and C[S4] have n = 24, C(A5) and C[A5] n = 60.  C(S3) (x) C[S3]
(n = 36) is neither commutative nor cocommutative; its irreducibles are the
products of the three irreducibles of C(S3) with the six group-likes of
C[S3].  Expected dimensions come from the hook-length formula or are written
out from the character table of A5, never from the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import alternating_elements, permutation_group
from oracles import hook_length_degrees, tensor_product_algebra

from cqglab.algebra import verify_hopf_axioms, verify_star_axioms
from cqglab.corep import (Corepresentation, check_unitary, decompose_comodule, irrep_table,
                          is_irreducible, morphism_space, verify_corep)
from cqglab.groups import (all_permutation_group, build_function_algebra,
                           build_group_algebra, symmetric_group_3)
from cqglab.haar import certify_haar, gram_matrices, solve_haar
from cqglab.regular import regular_corep


def _beds():
    s3, s4 = symmetric_group_3(), all_permutation_group(4)
    mixed = tensor_product_algebra(build_function_algebra(s3), build_group_algebra(s3))
    # sorted irrep dimensions: C(G) has the degrees of G, C[G] has |G| group-likes
    return {
        "C(S4)": (build_function_algebra(s4), hook_length_degrees(4)),
        "C[S4]": (build_group_algebra(s4), [1] * 24),
        "C(S3)(x)C[S3]": (mixed, sorted(d for d in hook_length_degrees(3) for _ in range(6))),
    }


BEDS = _beds()


@pytest.fixture(scope="module", params=sorted(BEDS))
def bed(request):
    alg, dims = BEDS[request.param]
    h = solve_haar(alg)
    table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
    return alg, dims, h, table


def test_tensor_product_bed_has_no_symmetry():
    alg, _ = BEDS["C(S3)(x)C[S3]"]
    assert verify_hopf_axioms(alg, 1e-12).passed
    assert verify_star_axioms(alg, 1e-12).passed
    assert np.abs(alg.mult - alg.mult.transpose(1, 0, 2)).max() > 0.5
    assert np.abs(alg.comult - alg.comult.transpose(0, 2, 1)).max() > 0.5


def test_dims_and_multiplicities_match_group_theory(bed):
    alg, dims, _, table = bed
    assert sorted(table.dims()) == dims
    assert list(table.multiplicities) == table.dims()  # Peter-Weyl: m_p = d_p
    assert sum(d * d for d in dims) == alg.dim


def _characters(table) -> np.ndarray:
    return np.array([np.einsum("jjm->m", pi.coeffs) for pi in table])


def _character_gram(alg, h, table) -> np.ndarray:
    """``h(chi_p^* chi_q)`` for every pair of irreducible characters."""
    chis = _characters(table)
    stars = np.conj(chis) @ alg.star
    return stars @ (alg.mult @ h.covector) @ chis.T


def test_characters_are_orthonormal(bed):
    alg, _, h, table = bed
    assert np.abs(_character_gram(alg, h, table) - np.eye(len(table))).max() < 1e-10


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
    alg, dims = BEDS[label]
    h = solve_haar(alg)
    table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
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


# ---------------------------------------------------------------------------
# n = 60: C(A5) and C[A5], each built once per session
# ---------------------------------------------------------------------------

A5_DIMS = {"ca5_fun": [1, 3, 3, 4, 5], "ca5_grp": [1] * 60}
GOLDEN = (1 + 5 ** 0.5) / 2


@pytest.fixture(scope="module", params=sorted(A5_DIMS))
def a5(request):
    return request.getfixturevalue(request.param), A5_DIMS[request.param]


def test_a5_passes_the_axiom_suites_and_haar(a5):
    ctx, _ = a5
    alg = ctx.algebra
    assert alg.dim == 60
    assert verify_hopf_axioms(alg, 1e-12).passed
    assert verify_star_axioms(alg, 1e-12).passed
    assert certify_haar(ctx.haar, 1e-12).passed  # solve_haar ran in the context


def test_a5_dims_and_characters(a5):
    ctx, dims = a5
    table = ctx.table
    assert sorted(table.dims()) == dims
    assert list(table.multiplicities) == table.dims()
    gram = _character_gram(ctx.algebra, ctx.haar, table)
    assert np.abs(gram - np.eye(len(table))).max() < 1e-10


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
        assert table.dims() == [1, 3, 3, 4, 5]
        # an even permutation of five points without a fixed point is a 5-cycle
        first = next(i for i, p in enumerate(relabelled) if all(p[x] != x for x in range(5)))
        chis = _characters(table)[1:3, first]
        assert np.abs(chis - [1 - GOLDEN, GOLDEN]).max() < 1e-10, seed
