from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from oracles import is_commutative, s3_character_table, s3_fusion_multiplicity

from cqglab.algebra import LinearFunctional
from cqglab.cg import (cg_block_residual, character_orthogonality,
                       conjugate_multiplicity_symmetries, coupled_basis_functions,
                       coupled_inverse_residual, multiplicity_in, solve_cg,
                       tensor_product, verify_triple_haar)
from cqglab.corep import Corepresentation, are_equivalent, verify_corep
from cqglab.errors import LinearDependenceWarning, NonIntegerMultiplicity
from cqglab.groups import build_function_algebra, cyclic_group, symmetric_group_3
from cqglab.haar import HaarFunctional, solve_haar
from cqglab.regular import canonical_basis_functions, check_basis_functions, regular_corep
from cqglab.tensor_ops import multiplication_family
from cqglab.wigner_eckart import verify_wigner_eckart


def test_characters_match_classical_table(cs3_fun):
    chars = s3_character_table()
    # table irreps are equivalent to the classical ones; characters are equal
    # as functions, so compare value multisets per element
    by_dim = {1: [], 2: []}
    for pi in cs3_fun.table:
        by_dim[pi.dim].append(pi.character())
    assert np.abs(by_dim[2][0] - chars["standard"]).max() < 1e-9
    one_dim = {tuple(np.round(c.real, 6)) for c in by_dim[1]}
    assert tuple(np.round(chars["trivial"], 6)) in one_dim
    assert tuple(np.round(chars["sign"], 6)) in one_dim


def test_trivial_character_is_unit(contexts):
    for ctx in contexts.values():
        triv = ctx.table["trivial"]
        assert np.abs(triv.character() - ctx.algebra.unit).max() < 1e-12


def test_character_of_direct_sum_adds(cs3_fun):
    alg = cs3_fun.algebra
    a, b = cs3_fun.table["p0"], cs3_fun.table["p1"]
    coeffs = np.zeros((2, 2, alg.dim), dtype=complex)
    coeffs[0, 0] = a.coeffs[0, 0]
    coeffs[1, 1] = b.coeffs[0, 0]
    direct = Corepresentation(alg, coeffs, label="p0+p1")
    total = direct.character()
    summed = a.character() + b.character()
    assert np.abs(total - summed).max() <= 1e-14


def test_character_orthogonality(contexts):
    for label, ctx in contexts.items():
        for i, p in enumerate(ctx.table):
            for j, q in enumerate(ctx.table):
                rep = character_orthogonality(p, q, ctx.haar)
                assert rep.passed, (label, i, j)


def test_multiplicities_from_characters(cs3_fun):
    reg = regular_corep(cs3_fun.algebra, "R")
    chi_reg = reg.character()
    for pi, expected in zip(cs3_fun.table.irreps, cs3_fun.table.multiplicities):
        n = multiplicity_in(chi_reg, pi.character(), cs3_fun.haar)
        assert n == expected == pi.dim
    triv = cs3_fun.table["trivial"].character()
    assert multiplicity_in(triv, triv, cs3_fun.haar) == 1


def test_fusion_multiplicities_match_classical(cs3_fun):
    """standard (x) standard = trivial (+) sign (+) standard, and friends."""
    names = {1: ["p0", "p1"], 2: ["p2"]}
    classical_of = {"p0": "trivial", "p1": "sign", "p2": "standard"}
    h = cs3_fun.haar
    for pl in cs3_fun.table.labels:
        for ql in cs3_fun.table.labels:
            prod = tensor_product(cs3_fun.table[pl], cs3_fun.table[ql])
            chi = prod.character()
            for rl in cs3_fun.table.labels:
                got = multiplicity_in(chi, cs3_fun.table[rl].character(), h)
                want = s3_fusion_multiplicity(classical_of[pl], classical_of[ql],
                                              classical_of[rl])
                assert got == want, (pl, ql, rl)


def test_non_integer_multiplicity_raises(cs3_fun):
    triv = cs3_fun.table["trivial"].character()
    scaled = 0.5 * triv
    with pytest.raises(NonIntegerMultiplicity):
        multiplicity_in(scaled, triv, cs3_fun.haar)


def test_tensor_products_verify_and_twist_equivalence(contexts):
    for label, ctx in contexts.items():
        table = ctx.table
        for p in table.irreps[:2]:
            for q in table.irreps[:2]:
                ordinary = tensor_product(p, q, "ordinary")
                twisted = tensor_product(p, q, "twisted")
                assert verify_corep(ordinary, 1e-10).passed, label
                assert verify_corep(twisted, 1e-10).passed, label
                # twisted(p, q) is the reordering of ordinary(q, p)
                swapped = tensor_product(q, p, "ordinary")
                assert are_equivalent(twisted, swapped, table) is not None
                if is_commutative(ctx.algebra):
                    assert np.abs(ordinary.coeffs - twisted.coeffs).max() < 1e-12


def test_twist_permutation_is_explicit(cs3_grp):
    """The index-pair swap matrix intertwines twisted(p,q) with ordinary(q,p)."""
    table = cs3_grp.table
    p, q = table["p1"], table["p2"]
    twisted = tensor_product(p, q, "twisted")
    swapped = tensor_product(q, p, "ordinary")
    # both are 1x1 here; use a 2-dim check on the function algebra instead
    assert np.abs(twisted.coeffs - swapped.coeffs).max() < 1e-12


def test_twist_permutation_matrix_2d(cs3_fun):
    table = cs3_fun.table
    p, q = table["p1"], table["p2"]  # dims 1 and 2
    twisted = tensor_product(p, q, "twisted")
    swapped = tensor_product(q, p, "ordinary")
    d_p, d_q = p.dim, q.dim
    perm = np.zeros((d_q * d_p, d_p * d_q))
    for j in range(d_p):
        for k in range(d_q):
            perm[k * d_p + j, j * d_q + k] = 1.0
    moved = np.einsum("ra,abm,bs->rsm", perm, twisted.coeffs, perm.T)
    assert np.abs(moved - swapped.coeffs).max() < 1e-12


def test_group_like_products(cs3_grp):
    s3 = symmetric_group_3()
    alg = cs3_grp.algebra
    for g in range(6):
        for k in range(6):
            cg_like = np.zeros((1, 1, 6), dtype=complex)
            cg_like[0, 0, g] = 1.0
            ch_like = np.zeros((1, 1, 6), dtype=complex)
            ch_like[0, 0, k] = 1.0
            pg = Corepresentation(alg, cg_like)
            ph = Corepresentation(alg, ch_like)
            ordinary = tensor_product(pg, ph, "ordinary")
            twisted = tensor_product(pg, ph, "twisted")
            assert abs(ordinary.coeffs[0, 0, s3.mul(g, k)] - 1.0) < 1e-14
            assert abs(twisted.coeffs[0, 0, s3.mul(k, g)] - 1.0) < 1e-14


def test_conjugate_multiplicity_symmetries(contexts):
    for label, ctx in contexts.items():
        assert conjugate_multiplicity_symmetries(ctx.table).passed, label


def test_conjugate_multiplicity_symmetries_on_larger_tables(ca4_fun, cd6_fun):
    """C(A4) has a conjugate pair of 1-dim irreps and a fusion target of multiplicity 2."""
    for ctx in (ca4_fun, cd6_fun):
        rep = conjugate_multiplicity_symmetries(ctx.table)
        assert rep["symmetries hold"].residual == 0.0


def test_conjugate_multiplicity_symmetries_use_the_integer_rule(cs3_fun):
    """A table that carries a non-Haar functional reads non-integer fusion counts."""
    scaled = LinearFunctional(cs3_fun.algebra, 1.5 * cs3_fun.haar.covector)
    with pytest.raises(NonIntegerMultiplicity):
        conjugate_multiplicity_symmetries(dataclasses.replace(cs3_fun.table, haar=scaled))


def test_abelian_fusion_single_coefficient():
    alg = build_function_algebra(cyclic_group(3))
    h = solve_haar(alg)
    from cqglab.corep import irrep_table
    from cqglab.haar import gram_matrices
    table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
    for a in table.labels:
        for b in table.labels:
            system = solve_cg(table[a], table[b], table, h)
            assert sum(system.multiplicities.values()) == 1
            (coef,) = system.C.flatten()
            assert abs(abs(coef) - 1.0) < 1e-12


def test_cg_block_diagonalization_independent_check(cs3_fun):
    """Recompute the conjugated product corep with plain numpy and compare."""
    table = cs3_fun.table
    h = cs3_fun.haar
    for pl in table.labels:
        for ql in table.labels:
            system = cs3_fun.cg(pl, ql)
            big = tensor_product(table[pl], table[ql])
            conj = np.einsum("ra,abm,bs->rsm", system.Cinv, big.coeffs, system.C)
            expected = np.zeros_like(conj)
            for i, (r1, a1, l1) in enumerate(system.col_index):
                for j, (r2, a2, l2) in enumerate(system.col_index):
                    if (r1, a1) == (r2, a2):
                        expected[i, j] = table[r1].coeffs[l1, l2]
            assert np.abs(conj - expected).max() < 1e-9, (pl, ql)
            assert cg_block_residual(system, table[pl], table[ql], table) < 1e-9


def test_cg_s3_standard_square(cs3_fun):
    system = cs3_fun.cg("p2", "p2")
    assert system.C.shape == (4, 4)
    assert system.multiplicities == {"p0": 1, "p1": 1, "p2": 1}
    # deterministic orientation: first nonzero entry of each block is positive
    for r_lab, alpha in {(r, a) for (r, a, _) in system.col_index}:
        cols = [i for i, (r, a, _) in enumerate(system.col_index)
                if (r, a) == (r_lab, alpha)]
        block = system.C[:, cols].flatten()
        nz = block[np.abs(block) > 1e-12][0]
        assert abs(nz.imag) < 1e-12 and nz.real > 0


def test_incomplete_table_raises_multiplicity_mismatch(cs3_fun):
    """A table missing a fused irrep cannot fill the CG matrix."""
    from cqglab.corep import IrrepTable
    from cqglab.errors import MultiplicityMismatch
    partial = IrrepTable(cs3_fun.algebra, cs3_fun.haar, cs3_fun.table.irreps[:2],
                         cs3_fun.table.multiplicities[:2],
                         labels=list(cs3_fun.table.labels[:2]))
    std = cs3_fun.table["p2"]
    with pytest.raises(MultiplicityMismatch):
        solve_cg(std, std, partial, cs3_fun.haar)


def test_triple_haar_all_builtin_triples(contexts):
    for label, ctx in contexts.items():
        table = ctx.table
        for pl in table.labels:
            for ql in table.labels:
                sys_pq = ctx.cg(pl, ql)
                sys_qp = ctx.cg(ql, pl)
                for rl in table.labels:
                    rep = verify_triple_haar(table[pl], table[ql], table[rl],
                                             sys_pq, sys_qp, ctx.haar, 1e-9)
                    assert rep.passed, (label, pl, ql, rl, rep.summary())


def test_triple_haar_needs_the_target_f(cs3_fun):
    """The target's F is read off its coefficients: a fresh copy of ``p2`` that no
    report has seen gives the table's own report."""
    table = cs3_fun.table
    bare = Corepresentation(cs3_fun.algebra, table["p2"].coeffs, label="p2")
    system = cs3_fun.cg("p2", "p2")
    fresh = verify_triple_haar(table["p2"], table["p2"], bare, system, system, cs3_fun.haar)
    assert fresh.passed
    own = verify_triple_haar(table["p2"], table["p2"], table["p2"], system, system,
                             cs3_fun.haar)
    assert fresh.to_dict() == own.to_dict()
    assert np.array_equal(bare.F, np.eye(2))


def test_wigner_eckart_needs_the_target_f(cs3_fun):
    """The target's F is its corep's, certified on read: ``f_r`` is not consulted."""
    std = canonical_basis_functions(cs3_fun.table["p2"], "R", 0)
    fam = multiplication_family(std, "ordinary")
    args = (std, fam, std, cs3_fun.cg("p2", "p2"))
    unread = verify_wigner_eckart(*args, None, cs3_fun.grams.gram("R"))
    assert unread.passed
    assert unread.to_dict() == verify_wigner_eckart(*args, std.corep.F,
                                                    cs3_fun.grams.gram("R")).to_dict()


def test_triple_haar_zero_when_multiplicity_vanishes(cs3_fun):
    """p0 x p0 contains only p0, so the p2 block of the identity is all zero."""
    table = cs3_fun.table
    h = cs3_fun.haar
    p0, p2 = table["p0"], table["p2"]
    pair = np.einsum("abx,xcy,y->abc", cs3_fun.algebra.mult, cs3_fun.algebra.mult,
                     h.covector)
    lhs = np.einsum("ula,sjb,tkc,abc->ulsjtk", p2.star_coeffs(), p0.coeffs,
                    p0.coeffs, pair)
    assert np.abs(lhs).max() < 1e-12


def test_coupled_basis_functions(cs3_fun):
    """p2 row 0 times the sign irrep: independent products, so no coupled set vanishes."""
    table = cs3_fun.table
    # side L couples with the (q, p) system
    for side, system in (("R", cs3_fun.cg("p2", "p1")), ("L", cs3_fun.cg("p1", "p2"))):
        phis = canonical_basis_functions(table["p2"], side, 0)
        psis = canonical_basis_functions(table["p1"], side, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coupled = coupled_basis_functions(phis, psis, system, table)
        assert set(coupled) == {("p2", 0)}
        for bset in coupled.values():
            assert np.abs(bset.functions).max() > 1e-3, bset.label
            assert check_basis_functions(bset) < 1e-9
        assert coupled_inverse_residual(phis, psis, system, coupled) < 1e-9
    # a carrier has one side, so a right set and a left set do not couple
    with pytest.raises(ValueError, match="different carriers"):
        coupled_basis_functions(canonical_basis_functions(table["p2"], "R", 0),
                                canonical_basis_functions(table["p1"], "L", 0),
                                cs3_fun.cg("p2", "p1"), table)


def test_coupled_with_trivial_factor_returns_input(cs3_fun):
    table = cs3_fun.table
    std, triv = table["p2"], table["p0"]
    system = cs3_fun.cg("p0", "p2")
    phis = canonical_basis_functions(triv, "R", 0)
    psis = canonical_basis_functions(std, "R", 0)
    coupled = coupled_basis_functions(phis, psis, system, table)
    [(key, bset)] = coupled.items()
    assert key[0] == "p2"
    # the coupled set is the q-set itself up to the CG block phase
    ratio = bset.functions[np.abs(bset.functions) > 1e-12] / \
        psis.functions[np.abs(bset.functions) > 1e-12]
    assert np.abs(ratio - ratio[0]).max() < 1e-9


def test_group_like_coupling(cs3_grp):
    s3 = symmetric_group_3()
    table = cs3_grp.table
    h = cs3_grp.haar
    p, q = table.irreps[1], table.irreps[2]
    system = cs3_grp.cg(table.labels[1], table.labels[2])
    phis = canonical_basis_functions(p, "R", 0)
    psis = canonical_basis_functions(q, "R", 0)
    coupled = coupled_basis_functions(phis, psis, system, table)
    [(key, bset)] = coupled.items()
    # the coupled function is the product element, a basis function for (gh)
    assert check_basis_functions(bset) < 1e-12


def test_linear_dependence_warning(cs3_fun):
    """Same-row products of the standard irrep are symmetric, hence dependent."""
    alg, table = cs3_fun.algebra, cs3_fun.table
    std = table["p2"]
    system = cs3_fun.cg("p2", "p2")
    phis = canonical_basis_functions(std, "R", 0)
    with pytest.warns(LinearDependenceWarning):
        coupled_basis_functions(phis, phis, system, table)
    # times the sign irrep (an invertible element): independent for every representative
    signs = canonical_basis_functions(table["p1"], "R", 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coupled_basis_functions(phis, signs, cs3_fun.cg("p2", "p1"), table)
    # distinct rows: dependent or not according to the representative; the
    # warning must fire exactly when the products' rank is below 4
    psis = canonical_basis_functions(std, "R", 1)
    products = np.einsum("ja,kb,abm->jkm", phis.functions, psis.functions, alg.mult)
    sigma = np.linalg.svd(products.reshape(4, alg.dim), compute_uv=False)
    rank = int(np.sum(sigma > 1e-9 * sigma[0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coupled_basis_functions(phis, psis, system, table)
    fired = any(issubclass(w.category, LinearDependenceWarning) for w in caught)
    assert fired == (rank < 4), (rank, sigma)


def test_functionals_and_coreps_compare_by_identity(cs3_fun):
    """``==`` on a functional, the Haar functional or a corepresentation compares
    identity and returns a ``bool``; it does not compare the coefficient arrays."""
    alg, p2 = cs3_fun.algebra, cs3_fun.table["p2"]
    pairs = [(LinearFunctional(alg, alg.counit), LinearFunctional(alg, alg.counit)),
             (solve_haar(alg), HaarFunctional(alg, solve_haar(alg).covector)),
             (p2, Corepresentation(alg, p2.coeffs, label=p2.label))]
    for obj, twin in pairs:
        assert (obj == obj) is True and (obj != obj) is False
        assert (obj == twin) is False and (obj != twin) is True
        assert hash(obj) == hash(obj)
