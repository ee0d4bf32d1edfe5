"""Every solution space is Hom(pi, W): its dimension is the character count.

``dim Hom(pi, W) = h(chi_W chi_pi^*)`` for a unitary irreducible ``pi`` and
any comodule ``W``, so each solver is checked against a number computed only
from the Haar functional, the algebra's product and star, and the character
of ``W``.  For an operator space ``End(B) = B (x) B^*`` the character is
``chi_B S(chi_B)`` (ordinary) or ``S^{-1}(chi_B) chi_B`` (twisted).
"""

from __future__ import annotations

import numpy as np
import pytest

from cqglab.cg import solve_cg
from cqglab.corep import decompose_comodule, irrep_table, morphism_space
from cqglab.groups import symmetric_group_3
from cqglab.homspace import (build_coset_subalgebra, restricted_coaction_tensor,
                             solve_restricted_basis_functions, solve_restricted_family)
from cqglab.regular import regular_coaction_tensor, regular_corep
from cqglab.tensor_ops import VARIANTS, solve_family_space

S3 = symmetric_group_3()
# {e}, {e, (01)}, A3 and S3 itself
SUBGROUPS = ([0], [0, 1], [0, 4, 5], [0, 1, 2, 3, 4, 5])


def _product(alg, x, y):
    return np.einsum("j,k,jkl->l", x, y, alg.mult)


def _hom_count(h, chi_w, pi) -> int:
    """``h(chi_W chi_pi^*)``, checked to be a nonnegative integer."""
    alg = h.algebra
    chi_pi_star = np.conj(np.einsum("jjm->m", pi.coeffs)) @ alg.star
    value = complex(h.covector @ _product(alg, chi_w, chi_pi_star))
    count = int(round(value.real))
    assert abs(value - count) < 1e-8 and count >= 0, value
    return count


def _operator_character(alg, chi_b, kind):
    if kind == "ordinary":
        return _product(alg, chi_b, chi_b @ alg.antipode)
    return _product(alg, chi_b @ alg.antipode_inv, chi_b)


def test_morphism_space_matches_character_count(contexts):
    for label, ctx in contexts.items():
        for pi_v in ctx.table:
            for pi_w in ctx.table:
                chi_w = np.einsum("jjm->m", pi_w.coeffs)
                assert len(morphism_space(pi_v, pi_w)) == _hom_count(ctx.haar, chi_w, pi_v), (
                    label, pi_v.label, pi_w.label)


def test_family_space_matches_character_count(contexts):
    for label, ctx in contexts.items():
        alg = ctx.algebra
        for kind, side in VARIANTS:
            chi_a = np.einsum("ttm->m", regular_coaction_tensor(alg, side))
            chi_ops = _operator_character(alg, chi_a, kind)
            for pi in ctx.table:
                assert len(solve_family_space(pi, kind, side)) == _hom_count(
                    ctx.haar, chi_ops, pi), (label, pi.label, kind, side)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("subgroup", SUBGROUPS, ids=lambda s: f"H{len(s)}")
def test_restricted_spaces_match_character_count(cs3_fun, subgroup, side):
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    coideal = build_coset_subalgebra(S3, alg, subgroup, side)
    coideal.orthonormalize(grams)
    chi_b = np.einsum("iim->m", restricted_coaction_tensor(coideal, grams))
    for pi in cs3_fun.table:
        expected = _hom_count(cs3_fun.haar, chi_b, pi)
        assert len(solve_restricted_basis_functions(pi, coideal, grams)) == expected, pi.label
        for kind in ("ordinary", "twisted"):
            expected = _hom_count(cs3_fun.haar, _operator_character(alg, chi_b, kind), pi)
            assert len(solve_restricted_family(pi, coideal, grams, kind)) == expected, (
                pi.label, kind)


def _fingerprints(table):
    return sorted(tuple(np.round(np.einsum("jjm->m", pi.coeffs), 9).view(float).tolist())
                  for pi in table)


def test_invariants_survive_representative_rotation(contexts):
    """The table is built without random draws: every seed gives the same arrays."""
    for label, ctx in contexts.items():
        ref = ctx.table
        ref_fusion = {(p, q): ctx.cg(p, q).multiplicities
                      for p in ref.labels for q in ref.labels}
        for seed in range(4):
            table = irrep_table(ctx.algebra, ctx.haar, ctx.grams.gram_right, seed=seed)
            assert table.labels == ref.labels, (label, seed)
            assert table.multiplicities == ref.multiplicities, (label, seed)
            for pi, rho in zip(table, ref):
                assert np.array_equal(pi.coeffs, rho.coeffs), (label, seed, pi.label)
                assert np.array_equal(pi.F, rho.F), (label, seed, pi.label)
            assert _fingerprints(table) == _fingerprints(ref), (label, seed)
            for (p, q), mults in ref_fusion.items():
                system = solve_cg(table[p], table[q], table, ctx.haar)
                assert system.multiplicities == mults, (label, seed, p, q)


def test_decomposition_is_seed_invariant(contexts):
    for label, ctx in contexts.items():
        reg = regular_corep(ctx.algebra, "R")
        ref = decompose_comodule(reg, ctx.grams.gram_right, seed=0)
        for seed in range(1, 4):
            blocks = decompose_comodule(reg, ctx.grams.gram_right, seed=seed)
            assert len(blocks) == len(ref), (label, seed)
            for (b1, c1), (b2, c2) in zip(blocks, ref):
                assert np.array_equal(b1, b2), (label, seed)
                assert np.array_equal(c1.coeffs, c2.coeffs), (label, seed)
