from __future__ import annotations

import sys

import numpy as np
import pytest

from oracles import (brute_cross_schur, brute_schur_sum, classical_corep_coeffs,
                     s3_irreps)

from cqglab import corep
from cqglab.corep import (Corepresentation, are_equivalent, check_unitary, compute_F,
                          conjugate_corep, decompose_comodule, doubly_contragredient,
                          identity_corep, invariant_gram, irrep_table, is_irreducible,
                          morphism_space, unitarize, verify_corep, verify_orthogonality)
from cqglab.errors import DecompositionStall, NotIrreducible, PositivityFailure
from cqglab.groups import (all_permutation_group, build_function_algebra,
                           build_group_algebra, symmetric_group_3)
from cqglab.haar import _positivity, gram_matrices, solve_haar
from cqglab.regular import regular_corep


@pytest.fixture(scope="module")
def classical(cs3_fun):
    """Classical S3 irreps packaged as matrix-coefficient coreps over C(S3)."""
    alg = cs3_fun.algebra
    return {name: Corepresentation(alg, classical_corep_coeffs(mats), label=name)
            for name, mats in s3_irreps().items()}


def test_verify_corep_on_classical_irreps(classical):
    for name, pi in classical.items():
        assert verify_corep(pi, 1e-12).passed, name
        assert check_unitary(pi, 1e-12).passed, name
        assert is_irreducible(pi), name


def test_group_like_coreps(cs3_grp):
    alg = cs3_grp.algebra
    for g in range(6):
        coeffs = np.zeros((1, 1, 6), dtype=complex)
        coeffs[0, 0, g] = 1.0
        pi = Corepresentation(alg, coeffs, label=f"g{g}")
        assert verify_corep(pi, 1e-12).passed
        assert check_unitary(pi, 1e-12).passed


def test_broken_entry_fails_counit(classical):
    pi = classical["standard"]
    coeffs = pi.coeffs.copy()
    coeffs[0, 0] = 0.0
    broken = Corepresentation(pi.algebra, coeffs, label="broken")
    report = verify_corep(broken)
    assert not report["counit is identity"].passed


def test_morphism_space_dimensions(classical):
    std = classical["standard"]
    assert len(morphism_space(std, std)) == 1
    assert len(morphism_space(classical["trivial"], classical["sign"])) == 0
    alg = std.algebra
    # trivial (+) trivial carries the full 2x2 commutant
    coeffs = np.zeros((2, 2, alg.dim), dtype=complex)
    coeffs[0, 0] = alg.unit
    coeffs[1, 1] = alg.unit
    double = Corepresentation(alg, coeffs, label="triv+triv")
    assert len(morphism_space(double, double)) == 4


def test_doubly_contragredient_and_conjugate(classical, cs3_grp):
    for name, pi in classical.items():
        dd = doubly_contragredient(pi)
        assert np.abs(dd.coeffs - pi.coeffs).max() < 1e-12  # S^2 = id classically
        assert verify_corep(dd).passed
    assert np.abs(conjugate_corep(classical["sign"]).coeffs
                  - classical["sign"].coeffs).max() < 1e-12
    # conjugating a group-like inverts the group element
    alg = cs3_grp.algebra
    s3 = symmetric_group_3()
    for g in range(6):
        coeffs = np.zeros((1, 1, 6), dtype=complex)
        coeffs[0, 0, g] = 1.0
        pi = Corepresentation(alg, coeffs)
        bar = conjugate_corep(pi)
        assert abs(bar.coeffs[0, 0, s3.inverse(g)] - 1.0) < 1e-12
        again = conjugate_corep(bar)
        assert np.abs(again.coeffs - pi.coeffs).max() < 1e-12


def test_compute_f_classical_identity(classical):
    for name, pi in classical.items():
        f = compute_F(pi)
        assert np.abs(f - np.eye(pi.dim)).max() < 1e-9, name


def test_compute_f_rejects_reducible(classical):
    alg = classical["trivial"].algebra
    coeffs = np.zeros((2, 2, alg.dim), dtype=complex)
    coeffs[0, 0] = alg.unit
    coeffs[1, 1] = alg.unit
    with pytest.raises(NotIrreducible):
        compute_F(Corepresentation(alg, coeffs, label="red"))


def test_f_covariance_under_conjugation(classical):
    """Conjugating the corep by an invertible matrix conjugates F accordingly."""
    std = classical["standard"]
    t_mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    t_inv = np.linalg.inv(t_mat)
    coeffs = np.einsum("ka,abm,bj->kjm", t_inv, std.coeffs, t_mat)
    moved = Corepresentation(std.algebra, coeffs, label="moved")
    assert verify_corep(moved).passed
    f_moved = compute_F(moved)
    # the defining equation transports F to T^{-1} F T (proportionally)
    expected = t_inv @ compute_F(std) @ t_mat
    assert np.abs(f_moved / np.trace(f_moved)
                  - expected / np.trace(expected)).max() < 1e-9


def test_schur_orthogonality_against_brute_force(cs3_fun, classical):
    h = cs3_fun.haar
    mats = s3_irreps()
    for name, pi in classical.items():
        compute_F(pi)
        report = verify_orthogonality(pi, pi, h, 1e-10)
        assert report.passed, report.summary()
        d = pi.dim
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    for n in range(d):
                        brute = brute_schur_sum(mats[name], j, k, m, n)
                        expected = (1.0 / d) if (j == n and m == k) else 0.0
                        assert abs(brute - expected) < 1e-12


def test_cross_orthogonality_zero(cs3_fun, classical):
    h = cs3_fun.haar
    pairs = [("trivial", "sign"), ("trivial", "standard"), ("sign", "standard")]
    for a, b in pairs:
        report = verify_orthogonality(classical[a], classical[b], h, 1e-10)
        assert report.passed
        # and the brute-force cross sums vanish
        mats_a, mats_b = s3_irreps()[a], s3_irreps()[b]
        val = brute_cross_schur(mats_a, mats_b, 0, 0, 0, 0)
        assert abs(val) < 1e-12


def test_orthogonality_invariant_under_f_rescaling(cs3_fun, classical):
    """All downstream formulas use F/tr F, so rescaling F changes nothing."""
    h = cs3_fun.haar
    std = classical["standard"]
    compute_F(std)
    base = verify_orthogonality(std, std, h, 1e-10)
    std.F = 3.7 * std.F
    rescaled = verify_orthogonality(std, std, h, 1e-10)
    assert base.passed and rescaled.passed
    compute_F(std)  # restore


def test_orthogonality_rejects_equivalent_but_unequal(cs3_fun, classical):
    std = classical["standard"]
    t_mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    coeffs = np.einsum("ka,abm,bj->kjm", np.linalg.inv(t_mat), std.coeffs, t_mat)
    moved = Corepresentation(std.algebra, coeffs, label="moved")
    with pytest.raises(ValueError):
        verify_orthogonality(std, moved, cs3_fun.haar)


def test_unitarize_recovers_unitarity(cs3_fun, classical):
    std = classical["standard"]
    t_mat = np.diag([2.0, 1.0])
    coeffs = np.einsum("ka,abm,bj->kjm", np.linalg.inv(t_mat), std.coeffs, t_mat)
    skew = Corepresentation(std.algebra, coeffs, label="skew")
    assert verify_corep(skew).passed
    assert not check_unitary(skew)["columns orthonormal"].passed
    fixed, change = unitarize(skew, h=cs3_fun.haar)
    assert check_unitary(fixed, 1e-10).passed
    assert are_equivalent(skew, fixed) is not None
    # already-unitary input: change of basis is the identity up to phase
    already, change2 = unitarize(std, h=cs3_fun.haar)
    ratio = change2 / change2[0, 0]
    assert np.abs(ratio - np.eye(2)).max() < 1e-9


def _direct_sum(*pis: Corepresentation) -> Corepresentation:
    """The block-diagonal corep ``pi_1 (+) pi_2 (+) ...``."""
    d = sum(pi.dim for pi in pis)
    coeffs = np.zeros((d, d, pis[0].algebra.dim), dtype=complex)
    start = 0
    for pi in pis:
        coeffs[start:start + pi.dim, start:start + pi.dim] = pi.coeffs
        start += pi.dim
    return Corepresentation(pis[0].algebra, coeffs, label="+".join(pi.label for pi in pis))


def _s3_equivalent_pairs(table):
    """trivial+sign against sign+trivial, and std+std against a real rotation of it."""
    p0, p1, p2 = table.irreps
    c, s = np.cos(0.7), np.sin(0.7)
    rot = np.kron(np.array([[c, -s], [s, c]]), np.eye(2))  # mixes the two copies
    both = _direct_sum(p2, p2)
    rotated = Corepresentation(both.algebra, np.einsum("ja,abm,kb->jkm", rot, both.coeffs, rot),
                               label="rotated")
    return [(_direct_sum(p0, p1), _direct_sum(p1, p0)), (both, rotated)]


def test_equivalence_witness_when_no_basis_element_is_invertible(cs3_fun):
    """Hom(V, W) has no invertible basis element here, so the witness must combine
    pieces: it has full rank and intertwines."""
    for pi_v, pi_w in _s3_equivalent_pairs(cs3_fun.table):
        basis = morphism_space(pi_v, pi_w)
        assert all(np.linalg.matrix_rank(phi, tol=1e-9) < pi_v.dim for phi in basis)
        phi = are_equivalent(pi_v, pi_w)
        assert np.linalg.matrix_rank(phi, tol=1e-9) == pi_v.dim, pi_w.label
        gap = (np.einsum("ab,bcm->acm", phi, pi_v.coeffs)
               - np.einsum("abm,bc->acm", pi_w.coeffs, phi))
        assert np.abs(gap).max() < 1e-12, pi_w.label


def test_equal_dimensions_with_unequal_characters_are_inequivalent(cs3_fun):
    p0, p1, _ = cs3_fun.table.irreps
    assert are_equivalent(_direct_sum(p0, p0), _direct_sum(p0, p1)) is None


def test_equivalence_piece_without_partner_raises(cs3_fun, monkeypatch):
    """Equal characters, but an intertwiner solve between pieces that finds nothing,
    raise ``DecompositionStall`` rather than return a singular witness."""
    solve = corep.morphism_space
    monkeypatch.setattr(corep, "morphism_space", lambda v, w: solve(v, w) if v is w else [])
    pi_v, pi_w = _s3_equivalent_pairs(cs3_fun.table)[0]
    with pytest.raises(DecompositionStall):
        are_equivalent(pi_v, pi_w)


def test_invariant_gram_is_identity_for_unitary(cs3_fun, classical):
    for pi in classical.values():
        g = invariant_gram(pi, cs3_fun.haar)
        assert np.abs(g - np.eye(pi.dim)).max() < 1e-12


def test_one_dim_unitarize_rescales():
    alg = build_function_algebra(symmetric_group_3())
    from cqglab.haar import solve_haar
    h = solve_haar(alg)
    coeffs = (2.0 * alg.unit).reshape(1, 1, -1)
    pi = Corepresentation(alg, coeffs, label="2x-trivial")
    # not a corep (counit is 2); scaling the carrier cannot fix that
    assert not verify_corep(pi).passed


def test_peter_weyl_function_algebra(cs3_fun):
    table = cs3_fun.table
    assert table.dims() == [1, 1, 2]
    assert table.multiplicities == [1, 1, 2]
    assert sum(d * d for d in table.dims()) == 6
    assert table.labels[table.trivial_index()] == "p0"


def test_peter_weyl_group_algebra(cs3_grp):
    table = cs3_grp.table
    assert table.dims() == [1] * 6
    assert table.multiplicities == [1] * 6


def test_decomposition_blocks_pass_everything(contexts):
    for label, ctx in contexts.items():
        total = 0
        for pi, mult in zip(ctx.table.irreps, ctx.table.multiplicities):
            assert pi.verified and pi.unitary
            assert is_irreducible(pi)
            total += pi.dim * mult
        assert total == ctx.algebra.dim  # matrix coefficients span the algebra


def test_decompose_already_irreducible(cs3_fun, classical):
    std = classical["standard"]
    gram = invariant_gram(std, cs3_fun.haar)
    blocks = decompose_comodule(std, gram)
    assert len(blocks) == 1
    assert blocks[0][1].dim == 2


def test_decomposition_deterministic(cs3_fun):
    reg = regular_corep(cs3_fun.algebra, "R")
    one = decompose_comodule(reg, cs3_fun.grams.gram_right)
    two = decompose_comodule(reg, cs3_fun.grams.gram_right)
    for (b1, c1), (b2, c2) in zip(one, two):
        assert np.abs(b1 - b2).max() < 1e-14
        assert np.abs(c1.coeffs - c2.coeffs).max() < 1e-14


@pytest.mark.parametrize("gram", [-np.eye(6), np.diag([1.0, 1, 1, 1, 1, 0])],
                         ids=["negative", "singular"])
def test_decompose_rejects_non_positive_gram(cs3_fun, gram):
    """A Gram matrix that is not positive definite is refused, not left to Cholesky."""
    with pytest.raises(PositivityFailure, match="not positive definite"):
        decompose_comodule(regular_corep(cs3_fun.algebra, "R"), gram)


def test_non_invariant_eigenspace_raises_stall(cs3_fun):
    """A matrix outside the commutant has non-invariant eigenspaces: refused."""
    reg = regular_corep(cs3_fun.algebra, "R")
    not_commutant = np.diag(np.arange(6.0)).astype(complex)
    with pytest.raises(DecompositionStall):
        corep._split(reg, cs3_fun.grams.gram_right, [not_commutant])


def test_non_invariant_cut_of_a_resumed_piece_raises_stall(cs3_fun):
    """A cut by a non-commutant matrix on a piece that resumed after an earlier
    cut is certified like any other."""
    reg = regular_corep(cs3_fun.algebra, "R")
    gram = cs3_fun.grams.gram_right
    transposition = cs3_fun.algebra.comult.transpose(1, 2, 0)[1]  # a left convolution
    assert [b.shape[1] for b in corep._split(reg, gram, [transposition])] == [3, 3]
    not_commutant = np.diag(np.arange(6.0)).astype(complex)
    with pytest.raises(DecompositionStall):
        corep._split(reg, gram, [transposition, not_commutant])


@pytest.mark.parametrize("build", [build_group_algebra, build_function_algebra],
                         ids=["C[S4]", "C(S4)"])
def test_n24_split_makes_few_eigen_calls(build, monkeypatch):
    """The one split of the regular comodule by the left convolutions takes 68
    ``eigh`` and ``eigvalsh`` calls on C[S4] (24 classes) and 65 on C(S4) (5
    classes): pieces resume where their parent was cut and scan in doubling
    batches.  Peeling one class per level made 529 and 434 calls."""
    alg = build(all_permutation_group(4))
    h = solve_haar(alg)
    gram = gram_matrices(alg, h).gram_right
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), **kw):
            if sys._getframe(1).f_code is not _positivity.__code__:
                calls.append(name)
            return _real(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    irrep_table(alg, h, gram)
    assert len(calls) < 100


@pytest.mark.parametrize("merged_dim, norm", [(1, 2), (2, 4)],
                         ids=["inequivalent", "two-copies"])
def test_merged_classes_raise_stall(cs3_fun, monkeypatch, merged_dim, norm):
    """Two pieces of the regular comodule merged into one must not pass as a class:
    the merged piece's ``h(chi^* chi)`` is 2 for C(S3)'s two 1-dim pieces
    (inequivalent) and 4 for its two 2-dim pieces (copies of one irrep), not 1."""
    split = corep._split

    def merging(pi, gram, ops, cluster_tol=1e-8):
        pieces = split(pi, gram, ops, cluster_tol)
        pair = [k for k, piece in enumerate(pieces) if piece.shape[1] == merged_dim]
        assert len(pair) == 2
        rest = [piece for k, piece in enumerate(pieces) if k not in pair]
        return [np.hstack([pieces[k] for k in pair]), *rest]

    monkeypatch.setattr(corep, "_split", merging)
    with pytest.raises(DecompositionStall, match=rf"h\(chi\^\* chi\) = \[{norm}, 1, 1\]"):
        irrep_table(cs3_fun.algebra, cs3_fun.haar, cs3_fun.grams.gram_right)


def test_table_lookup_errors(cs3_fun):
    table = cs3_fun.table
    assert table["trivial"].dim == 1
    assert table[1] is table.irreps[1]
    assert table["1"] is table.irreps[1]
    with pytest.raises(KeyError):
        table.index_of("nonsense")
    with pytest.raises(KeyError):
        table.index_of("99")


def test_table_canonical_matches_classical(cs3_fun, classical):
    """Every table representative is equivalent to exactly one classical irrep."""
    matched = set()
    for pi in cs3_fun.table:
        hits = [name for name, cl in classical.items()
                if pi.dim == cl.dim and are_equivalent(pi, cl) is not None]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == {"trivial", "sign", "standard"}


def test_identity_corep(cs3_fun):
    ident = identity_corep(cs3_fun.algebra)
    assert verify_corep(ident).passed
    assert check_unitary(ident).passed
