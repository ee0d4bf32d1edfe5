"""Irrep tables beyond the built-ins: n = 24 and an algebra with no symmetry.

C(S4) and C[S4] have n = 24.  C(S3) (x) C[S3] (n = 36) is neither
commutative nor cocommutative; its irreducibles are the products of the
three irreducibles of C(S3) with the six group-likes of C[S3].  Expected
dimensions come from the hook-length formula, never from the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import hook_length_degrees, tensor_product_algebra

from cqglab.algebra import verify_hopf_axioms, verify_star_axioms
from cqglab.corep import (check_unitary, decompose_comodule, irrep_table, is_irreducible,
                          verify_corep)
from cqglab.groups import (all_permutation_group, build_function_algebra,
                           build_group_algebra, symmetric_group_3)
from cqglab.haar import gram_matrices, solve_haar
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
    assert table.multiplicities == table.dims()  # Peter-Weyl: m_p = d_p
    assert sum(d * d for d in dims) == alg.dim


def test_characters_are_orthonormal(bed):
    alg, _, h, table = bed
    chis = np.array([np.einsum("jjm->m", pi.coeffs) for pi in table])
    stars = np.conj(chis) @ alg.star
    gram = np.einsum("pa,qb,abl,l->pq", stars, chis, alg.mult, h.covector)
    assert np.abs(gram - np.eye(len(table))).max() < 1e-10


def test_every_irrep_is_a_unitary_irreducible_corep(bed):
    _, _, _, table = bed
    for pi in table:
        assert verify_corep(pi, 1e-10).passed, pi.label
        assert check_unitary(pi, 1e-10).passed, pi.label
        assert is_irreducible(pi), pi.label


@pytest.mark.parametrize("label", ["C(S4)", "C[S4]"])
def test_regular_comodule_decomposes_by_peter_weyl(label):
    """The commutant of the regular comodule is one intertwiner solve in
    N = n^2 = 576 unknowns; every irreducible of dimension d splits off d times."""
    alg, dims = BEDS[label]
    h = solve_haar(alg)
    blocks = decompose_comodule(regular_corep(alg, "R"), gram_matrices(alg, h).gram_right)
    assert [sub.dim for _, sub in blocks] == sorted(d for d in dims for _ in range(d))
    assert all(verify_corep(sub, 1e-10).passed for _, sub in blocks)
