from __future__ import annotations

import sys

import numpy as np
import pytest

from beds import context
from oracles import (brute_cross_schur, brute_schur_sum, classical_corep_coeffs,
                     s3_irreps)

from cqglab import corep
from cqglab.corep import (Corepresentation, are_equivalent, check_unitary,
                          conjugate_corep, decompose_comodule, doubly_contragredient,
                          identity_corep, invariant_gram, irrep_table, is_irreducible,
                          morphism_space, unitarize, verify_corep, verify_orthogonality)
from cqglab.errors import DecompositionStall, PositivityFailure
from cqglab.groups import symmetric_group_3
from cqglab.haar import _positivity
from cqglab.regular import regular_corep


@pytest.fixture(scope="module")
def classical(cs3_fun):
    """Classical S3 irreps packaged as matrix-coefficient coreps over C(S3)."""
    alg = cs3_fun.algebra
    return {name: Corepresentation(alg, classical_corep_coeffs(mats), label=name)
            for name, mats in s3_irreps().items()}


def test_verify_corep_on_classical_irreps(cs3_fun, classical):
    for name, pi in classical.items():
        assert verify_corep(pi, 1e-12).passed, name
        assert check_unitary(pi, 1e-12).passed, name
        assert is_irreducible(pi, cs3_fun.haar), name


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


def test_morphism_space_dimensions(cs3_fun, classical):
    table = cs3_fun.table
    std = classical["standard"]
    assert len(morphism_space(std, std, table)) == 1
    assert len(morphism_space(classical["trivial"], classical["sign"], table)) == 0
    alg = std.algebra
    # trivial (+) trivial carries the full 2x2 commutant
    coeffs = np.zeros((2, 2, alg.dim), dtype=complex)
    coeffs[0, 0] = alg.unit
    coeffs[1, 1] = alg.unit
    double = Corepresentation(alg, coeffs, label="triv+triv")
    assert len(morphism_space(double, double, table)) == 4


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


def test_compute_f_classical_identity(cs3_fun, classical):
    for name, pi in classical.items():
        assert is_irreducible(pi, cs3_fun.haar), name
        assert np.abs(pi.F - np.eye(pi.dim)).max() < 1e-9, name


def test_f_covariance_under_conjugation(cs3_fun, classical):
    """Conjugating the corep by an invertible matrix conjugates F accordingly."""
    std = classical["standard"]
    t_mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    t_inv = np.linalg.inv(t_mat)
    coeffs = np.einsum("ka,abm,bj->kjm", t_inv, std.coeffs, t_mat)
    moved = Corepresentation(std.algebra, coeffs, label="moved")
    assert verify_corep(moved).passed
    assert is_irreducible(moved, cs3_fun.haar) and is_irreducible(std, cs3_fun.haar)
    f_moved = moved.F
    # the defining equation transports F to T^{-1} F T (proportionally)
    expected = t_inv @ std.F @ t_mat
    assert np.abs(f_moved / np.trace(f_moved)
                  - expected / np.trace(expected)).max() < 1e-9


def test_schur_orthogonality_against_brute_force(cs3_fun, classical):
    h = cs3_fun.haar
    mats = s3_irreps()
    for name, pi in classical.items():
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


def test_orthogonality_rejects_equivalent_but_unequal(cs3_fun, classical):
    std = classical["standard"]
    t_mat = np.array([[2.0, 1.0], [0.0, 1.0]])
    coeffs = np.einsum("ka,abm,bj->kjm", np.linalg.inv(t_mat), std.coeffs, t_mat)
    moved = Corepresentation(std.algebra, coeffs, label="moved")
    with pytest.raises(ValueError):
        verify_orthogonality(std, moved, cs3_fun.haar)


def _skew(std: Corepresentation) -> Corepresentation:
    """``std`` conjugated by ``diag(2, 1)``: a corep that is not unitary."""
    t_mat = np.diag([2.0, 1.0])
    coeffs = np.einsum("ka,abm,bj->kjm", np.linalg.inv(t_mat), std.coeffs, t_mat)
    return Corepresentation(std.algebra, coeffs, label="skew")


def test_unitarize_recovers_unitarity(cs3_fun, classical):
    std = classical["standard"]
    skew = _skew(std)
    assert verify_corep(skew).passed
    assert not check_unitary(skew)["columns orthonormal"].passed
    h = cs3_fun.haar
    fixed, change = unitarize(skew, invariant_gram(skew, h))
    assert check_unitary(fixed, 1e-10).passed
    assert are_equivalent(skew, fixed, cs3_fun.table) is not None
    # already-unitary input: change of basis is the identity up to phase
    already, change2 = unitarize(std, invariant_gram(std, h))
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
        basis = morphism_space(pi_v, pi_w, cs3_fun.table)
        assert all(np.linalg.matrix_rank(phi, tol=1e-9) < pi_v.dim for phi in basis)
        phi = are_equivalent(pi_v, pi_w, cs3_fun.table)
        assert np.linalg.matrix_rank(phi, tol=1e-9) == pi_v.dim, pi_w.label
        gap = (np.einsum("ab,bcm->acm", phi, pi_v.coeffs)
               - np.einsum("abm,bc->acm", pi_w.coeffs, phi))
        assert np.abs(gap).max() < 1e-12, pi_w.label


def test_equal_dimensions_with_unequal_characters_are_inequivalent(cs3_fun):
    p0, p1, _ = cs3_fun.table.irreps
    assert are_equivalent(_direct_sum(p0, p0), _direct_sum(p0, p1), cs3_fun.table) is None


def test_invariant_gram_is_identity_for_unitary(cs3_fun, classical):
    for pi in classical.values():
        g = invariant_gram(pi, cs3_fun.haar)
        assert np.abs(g - np.eye(pi.dim)).max() < 1e-12


def test_one_dim_unitarize_rescales(cs3_fun):
    alg, h = cs3_fun.algebra, cs3_fun.haar
    coeffs = (2.0 * alg.unit).reshape(1, 1, -1)
    pi = Corepresentation(alg, coeffs, label="2x-trivial")
    # not a corep (counit is 2); scaling the carrier cannot fix that
    assert not verify_corep(pi).passed


def test_peter_weyl_function_algebra(cs3_fun):
    table = cs3_fun.table
    assert table.dims() == list(cs3_fun.bed.dims)   # sorted by dimension
    assert table.multiplicities == tuple(table.dims())
    assert sum(d * d for d in table.dims()) == 6
    assert table.labels[table.trivial_index()] == "p0"


def test_peter_weyl_group_algebra(cs3_grp):
    table = cs3_grp.table
    assert table.dims() == list(cs3_grp.bed.dims)
    assert table.multiplicities == tuple(table.dims())


def test_decomposition_blocks_pass_everything(contexts):
    for label, ctx in contexts.items():
        total = 0
        for pi, mult in zip(ctx.table.irreps, ctx.table.multiplicities):
            assert verify_corep(pi).passed and check_unitary(pi).passed
            assert is_irreducible(pi, ctx.haar)
            total += pi.dim * mult
        assert total == ctx.algebra.dim  # matrix coefficients span the algebra


def test_character_certificate_matches_the_commutant(contexts):
    """``is_irreducible`` reads ``h(chi^* chi) = 1``; the oracle is ``dim End(pi) = 1``,
    for every table irrep and for reducible direct sums."""
    for label, ctx in contexts.items():
        table, h = ctx.table, ctx.haar
        coreps = [*table, _direct_sum(table[0], table[-1]), _direct_sum(table[-1], table[-1])]
        for pi in coreps:
            assert is_irreducible(pi, h) == (len(morphism_space(pi, pi, table)) == 1), (
                label, pi.label)
        assert [is_irreducible(pi, h) for pi in coreps] == [True] * len(table) + [False, False]


def _assert_pieces_are_table_irreps(pi, pieces, table, labels):
    """Each piece intertwines into its table irrep, ``pi basis = basis pi^r`` to 1e-12,
    ``rho`` is the table's own representative, and the pieces are ``labels`` in order."""
    label_of = {id(irrep): label for label, irrep in zip(table.labels, table)}
    assert [label_of.get(id(rho)) for _, rho in pieces] == labels
    for basis, rho in pieces:
        gap = (np.einsum("jkm,kl->jlm", pi.coeffs, basis)
               - np.einsum("jk,klm->jlm", basis, rho.coeffs))
        assert np.abs(gap).max() < 1e-12, (pi.label, rho.label)


def test_decompose_already_irreducible(cs3_fun, classical):
    std = classical["standard"]
    blocks = decompose_comodule(std, cs3_fun.table)
    _assert_pieces_are_table_irreps(std, blocks, cs3_fun.table, ["p2"])


def test_decomposition_pieces_are_table_irreps(cs3_fun, classical):
    """A non-unitary corep and two copies of the 2-dim irrep mixed by a rotation cut
    into the table's own irreps, in table order."""
    table, h = cs3_fun.table, cs3_fun.haar
    skew = _skew(classical["standard"])
    (pair, swapped), (_, rotated) = _s3_equivalent_pairs(table)
    for pi, labels in ((skew, ["p2"]), (rotated, ["p2", "p2"]), (pair, ["p0", "p1"]),
                       (swapped, ["p0", "p1"])):
        _assert_pieces_are_table_irreps(pi, decompose_comodule(pi, table), table, labels)


def test_decomposition_deterministic(cs3_fun):
    reg = regular_corep(cs3_fun.algebra, "R")
    one = decompose_comodule(reg, cs3_fun.table)
    two = decompose_comodule(reg, cs3_fun.table)
    for (b1, c1), (b2, c2) in zip(one, two):
        assert np.abs(b1 - b2).max() < 1e-14
        assert np.abs(c1.coeffs - c2.coeffs).max() < 1e-14


@pytest.mark.parametrize("gram", [-np.eye(6), np.diag([1.0, 1, 1, 1, 1, 0])],
                         ids=["negative", "singular"])
def test_decompose_rejects_non_positive_gram(cs3_fun, gram):
    """The irrep table's split of the regular comodule refuses a Gram matrix that is
    not positive definite rather than leave it to Cholesky."""
    with pytest.raises(PositivityFailure, match="not positive definite"):
        irrep_table(cs3_fun.algebra, cs3_fun.haar, gram)


def test_non_invariant_eigenspace_raises_stall(cs3_fun):
    """A matrix outside the commutant has non-invariant eigenspaces: refused."""
    reg = regular_corep(cs3_fun.algebra, "R")
    not_commutant = np.diag(np.arange(6.0)).astype(complex)
    with pytest.raises(DecompositionStall):
        corep._split(reg, cs3_fun.grams.gram_right, [not_commutant])


def test_non_invariant_cut_of_a_resumed_piece_raises_stall(cs3_fun):
    """A non-commutant matrix weighed into the cut next to a commutant one, which
    alone cuts the carrier into two invariant halves, is refused too."""
    reg = regular_corep(cs3_fun.algebra, "R")
    gram = cs3_fun.grams.gram_right
    transposition = cs3_fun.algebra.comult.transpose(1, 2, 0)[1]  # a left convolution
    assert [b.shape[1] for b, _ in corep._split(reg, gram, [transposition])] == [3, 3]
    not_commutant = np.diag(np.arange(6.0)).astype(complex)
    with pytest.raises(DecompositionStall):
        corep._split(reg, gram, [transposition, not_commutant])


@pytest.mark.parametrize("label", ["C[S4]", "C(S4)"])
def test_n24_split_makes_few_eigen_calls(label, monkeypatch):
    """The one split of the regular comodule by the left convolutions takes one
    ``eigh`` call on C[S4] (24 classes) and on C(S4) (5 classes): the carrier is
    cut by one combination of all the convolutions' parts.  Scanning the parts
    piece by piece in doubling batches made 68 and 65 calls, and peeling one
    class per level 529 and 434."""
    ctx = context(label)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(*args, _real=getattr(np.linalg, name), **kw):
            if sys._getframe(1).f_code is not _positivity.__code__:
                calls.append(name)
            return _real(*args, **kw)
        monkeypatch.setattr(np.linalg, name, counted)
    irrep_table(ctx.algebra, ctx.haar, ctx.grams.gram_right)
    assert len(calls) == 1


def test_refinement_cuts_a_piece_where_the_combination_collides(cs3_grp, monkeypatch):
    """Two diagonal ops on C[S3]'s regular comodule (its lines are the group
    elements, and the Gram is the identity) whose weighted combination is
    ``cos(1) diag(1, 1, 2, 3, 4, 5)``: the first cut leaves the first two lines
    as one piece, on which the first op is not scalar, so that op cuts it again."""
    alg = cs3_grp.algebra
    gram = cs3_grp.grams.gram_right
    assert np.array_equal(gram, np.eye(6))
    first = np.diag([1.0, 0, 2, 3, 4, 5]).astype(complex)
    second = np.diag([0, np.cos(1) / np.cos(2), 0, 0, 0, 0]).astype(complex)
    shapes = []

    def recorded(matrix, _real=np.linalg.eigh):
        shapes.append(matrix.shape)
        return _real(matrix)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    pieces = corep._split(regular_corep(alg, "R"), gram, [first, second])
    assert shapes == [(6, 6), (2, 2)]
    assert [basis.shape[1] for basis, _ in pieces] == [1] * 6


def test_refinement_that_cannot_cut_raises_stall(cs3_grp):
    """An op whose first four eigenvalues lie 0.9e-8 apart: on their piece it is not
    scalar (1.35e-8 from its mean), yet no gap reaches the 1e-8 cut, so refining
    by it would not end; that is refused."""
    reg = regular_corep(cs3_grp.algebra, "R")
    ramp = np.diag([0, 0.9e-8, 1.8e-8, 2.7e-8, 6, 7]).astype(complex)
    with pytest.raises(DecompositionStall, match="does not cut it"):
        corep._split(reg, cs3_grp.grams.gram_right, [ramp])


@pytest.mark.parametrize("merged_dim, norm", [(1, 2), (2, 4)],
                         ids=["inequivalent", "two-copies"])
def test_merged_classes_raise_stall(cs3_fun, monkeypatch, merged_dim, norm):
    """Two pieces of the regular comodule merged into one must not pass as a class:
    the merged piece's ``h(chi^* chi)`` is 2 for C(S3)'s two 1-dim pieces
    (inequivalent) and 4 for its two 2-dim pieces (copies of one irrep), not 1."""
    split = corep._split

    def merging(pi, gram, ops):
        pieces = split(pi, gram, ops)
        pair = [k for k, (piece, _) in enumerate(pieces) if piece.shape[1] == merged_dim]
        assert len(pair) == 2
        rest = [piece for k, piece in enumerate(pieces) if k not in pair]
        merged = np.hstack([pieces[k][0] for k in pair])
        return [(merged, corep._restrict_corep(pi, merged, gram, "merged")), *rest]

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
                if pi.dim == cl.dim
                and are_equivalent(pi, cl, cs3_fun.table) is not None]
        assert len(hits) == 1
        matched.add(hits[0])
    assert matched == {"trivial", "sign", "standard"}


def test_identity_corep(cs3_fun):
    ident = identity_corep(cs3_fun.algebra)
    assert verify_corep(ident).passed
    assert check_unitary(ident).passed
