from __future__ import annotations

import numpy as np
import pytest

from oracles import conjugation_family_space_dim

from cqglab.algebra import opposite_algebra
from cqglab.corep import Corepresentation, identity_corep
from cqglab.groups import symmetric_group_3
from cqglab.regular import canonical_basis_functions, regular_coaction_tensor
from cqglab.tensor_ops import (VARIANTS, TensorOperatorFamily,
                               apply_family_to_basis_functions, check_family,
                               coaction_on_operator, couple_families,
                               excluded_substitution_residual, family_report,
                               multiplication_family, operator_coaction_components,
                               operator_comodule,
                               operator_product_rule_residual, solve_family_space)


def _random_ops(alg, count, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((alg.dim, alg.dim))
            + 1j * rng.standard_normal((alg.dim, alg.dim)) for _ in range(count)]


def test_identity_operator_all_variants(contexts):
    for label, ctx in contexts.items():
        ident = identity_corep(ctx.algebra)
        for kind, side in VARIANTS:
            fam = TensorOperatorFamily(ident, kind, side,
                                       np.eye(ctx.algebra.dim)[None, :, :])
            assert check_family(fam) < 1e-12, (label, kind, side)


def test_multiplication_families_pass(contexts):
    for label, ctx in contexts.items():
        for pi in ctx.table:
            for kind, side in VARIANTS:
                bset = canonical_basis_functions(pi, side, 0)
                fam = multiplication_family(bset, kind)
                assert check_family(fam) < 1e-10, (label, pi.label, kind, side)
                assert family_report(fam).passed


def test_coaction_routes_agree_on_random_operators(contexts):
    for label, ctx in contexts.items():
        alg = ctx.algebra
        n = alg.dim
        for q_op in _random_ops(alg, 2, seed=7):
            for kind, side in VARIANTS:
                result = coaction_on_operator(alg, q_op, kind, side)
                assert result.routes_agreement() < 1e-10, (label, kind, side)
                # the operator comodule contracted with q_op is a third route
                comodule = operator_comodule(regular_coaction_tensor(alg, side), alg, kind)
                batched = np.einsum("atxym,xy->mat", comodule.reshape(n, n, n, n, n), q_op)
                for route in ("maps", "constants"):
                    single = operator_coaction_components(alg, q_op, kind, side, route=route)
                    assert np.abs(batched - single).max() < 1e-10, (label, kind, side, route)


def test_operator_coactions_are_comodules(contexts):
    for label, ctx in contexts.items():
        for q_op in _random_ops(ctx.algebra, 2, seed=11):
            for kind, side in VARIANTS:
                result = coaction_on_operator(ctx.algebra, q_op, kind, side)
                rep = result.comodule_axiom_report(1e-9)
                assert rep.passed, (label, kind, side, rep.summary())


def test_operator_product_rules(contexts):
    for label, ctx in contexts.items():
        q1, q2 = _random_ops(ctx.algebra, 2, seed=13)
        for kind, side in VARIANTS:
            res = operator_product_rule_residual(ctx.algebra, kind, side, q1, q2)
            assert res < 1e-9, (label, kind, side, res)
        if ctx.algebra.is_commutative():
            # ordinary and twisted coactions coincide entirely
            for side in ("R", "L"):
                a = operator_coaction_components(ctx.algebra, q1, "ordinary", side)
                b = operator_coaction_components(ctx.algebra, q1, "twisted", side)
                assert np.abs(a - b).max() < 1e-10


def test_mult_family_is_group_translation(cs3_grp):
    """ordinary-R for a group-like is left multiplication by that element."""
    s3 = symmetric_group_3()
    alg = cs3_grp.algebra
    for pi in cs3_grp.table:
        g = int(np.argmax(np.abs(pi.coeffs[0, 0])))
        bset = canonical_basis_functions(pi, "R", 0)
        fam = multiplication_family(bset, "ordinary")
        expected = np.zeros((6, 6))
        for t in range(6):
            expected[s3.mul(g, t), t] = 1.0
        assert np.abs(fam.operators[0] - expected).max() < 1e-12


def test_ordinary_family_fails_twisted_condition_on_cs3(cs3_grp):
    found = False
    for pi in cs3_grp.table:
        bset = canonical_basis_functions(pi, "R", 0)
        fam = multiplication_family(bset, "ordinary")
        own = check_family(fam)
        cross = check_family(fam, kind="twisted")
        if own < 1e-10 and cross > 1e-3:
            found = True
            break
    assert found, "every ordinary-R family also passed the twisted-R condition"


def test_variants_coincide_on_commutative(cs3_fun):
    for pi in cs3_fun.table:
        bset = canonical_basis_functions(pi, "R", 0)
        ordinary = multiplication_family(bset, "ordinary")
        twisted = multiplication_family(bset, "twisted")
        assert np.abs(ordinary.operators - twisted.operators).max() < 1e-12


def test_solution_space_dimension_matches_oracle(cs3_fun):
    """Brute-force classical count: conjugation action on the operator space."""
    table = cs3_fun.table
    oracle = {"p0": conjugation_family_space_dim("trivial"),
              "p1": conjugation_family_space_dim("sign"),
              "p2": conjugation_family_space_dim("standard")}
    assert oracle["p2"] == 12  # = d_q |G| for the standard irrep
    for label, want in oracle.items():
        fams = solve_family_space(table[label], "ordinary", "R")
        assert len(fams) == want, (label, len(fams), want)
        for fam in fams:
            assert check_family(fam) < 1e-10


def test_identity_in_identity_corep_solution_space(contexts):
    for label, ctx in contexts.items():
        ident = identity_corep(ctx.algebra)
        for kind, side in VARIANTS:
            fams = solve_family_space(ident, kind, side)
            assert fams, (label, kind, side)
            flat = np.array([f.operators.flatten() for f in fams])
            target = np.eye(ctx.algebra.dim).flatten()
            coefs, *_ = np.linalg.lstsq(flat.T, target, rcond=None)
            assert np.abs(flat.T @ coefs - target).max() < 1e-9, (label, kind, side)


def test_multiplication_families_lie_in_solved_span(cs3_fun):
    std = cs3_fun.table["p2"]
    for kind, side in VARIANTS:
        fams = solve_family_space(std, kind, side)
        flat = np.array([f.operators.flatten() for f in fams])
        bset = canonical_basis_functions(std, side, 1)
        target = multiplication_family(bset, kind).operators.flatten()
        coefs, *_ = np.linalg.lstsq(flat.T, target, rcond=None)
        assert np.abs(flat.T @ coefs - target).max() < 1e-9, (kind, side)


def test_family_transformation_law(contexts):
    for label, ctx in contexts.items():
        table = ctx.table
        for pi in table:
            for rho in table:
                for kind, side in VARIANTS:
                    qset = canonical_basis_functions(rho, side, 0)
                    fam = multiplication_family(qset, kind)
                    phis = canonical_basis_functions(pi, side, 0)
                    rep = apply_family_to_basis_functions(fam, phis, 1e-10)
                    assert rep.passed, (label, pi.label, rho.label, kind, side)


def test_twisted_transformation_differs_on_noncommutative(cs3_grp):
    """Using the ordinary law for a twisted family fails when the group is
    noncommutative: the coefficient products land on different elements."""
    table = cs3_grp.table
    seen_nonzero = False
    for pi in table:
        for rho in table:
            qset = canonical_basis_functions(rho, "R", 0)
            fam = multiplication_family(qset, "twisted")
            phis = canonical_basis_functions(pi, "R", 0)
            assert apply_family_to_basis_functions(fam, phis, 1e-10).passed
            mislabeled = TensorOperatorFamily(fam.corep, "ordinary", "R",
                                              fam.operators)
            rep = apply_family_to_basis_functions(mislabeled, phis, 1e-10)
            if not rep.passed:
                seen_nonzero = True
    assert seen_nonzero


def test_couple_families(cs3_fun):
    table = cs3_fun.table
    std = table["p2"]
    for kind, side in VARIANTS:
        fam_p = multiplication_family(canonical_basis_functions(std, side, 0), kind)
        fam_q = multiplication_family(canonical_basis_functions(std, side, 1), kind)
        order = ("p2", "p2")
        system = cs3_fun.cg(*order)
        coupled = couple_families(fam_p, fam_q, system, table)
        assert set(coupled) == {("p0", 0), ("p1", 0), ("p2", 0)}
        for key, fam in coupled.items():
            assert check_family(fam) < 1e-10, (kind, side, key)


def test_couple_with_identity_family(cs3_fun):
    table = cs3_fun.table
    std = table["p2"]
    ident_fam = TensorOperatorFamily(identity_corep(cs3_fun.algebra), "ordinary", "R",
                                     np.eye(6)[None, :, :])
    fam_p = multiplication_family(canonical_basis_functions(std, "R", 0), "ordinary")
    system = cs3_fun.cg("p2", "p0")
    coupled = couple_families(fam_p, ident_fam, system, table)
    [(key, fam)] = coupled.items()
    assert key[0] == "p2"
    assert check_family(fam) < 1e-10
    # coupling against the trivial factor returns fam_p up to the block phase
    ratio = fam.operators[np.abs(fam.operators) > 1e-9] / \
        fam_p.operators[np.abs(fam.operators) > 1e-9]
    assert np.abs(ratio - ratio[0]).max() < 1e-9


def test_group_like_coupling_lands_on_products(cs3_grp):
    s3 = symmetric_group_3()
    table = cs3_grp.table
    labels = table.labels

    def group_index(pi):
        return int(np.argmax(np.abs(pi.coeffs[0, 0])))

    p, q = table.irreps[1], table.irreps[2]
    g, k = group_index(p), group_index(q)
    fam_p = multiplication_family(canonical_basis_functions(p, "R", 0), "ordinary")
    fam_q = multiplication_family(canonical_basis_functions(q, "R", 0), "ordinary")
    system = cs3_grp.cg(labels[1], labels[2])
    coupled = couple_families(fam_p, fam_q, system, table)
    [(key, fam)] = coupled.items()
    assert group_index(table[key[0]]) == s3.mul(g, k)
    # twisted coupling lands on the reversed product
    tfam_p = multiplication_family(canonical_basis_functions(p, "R", 0), "twisted")
    tfam_q = multiplication_family(canonical_basis_functions(q, "R", 0), "twisted")
    system_qp = cs3_grp.cg(labels[2], labels[1])
    coupled_tw = couple_families(tfam_p, tfam_q, system_qp, table)
    [(key_tw, fam_tw)] = coupled_tw.items()
    assert group_index(table[key_tw[0]]) == s3.mul(k, g)
    assert check_family(fam_tw) < 1e-12


def test_couple_families_order_validation(cs3_fun):
    std = cs3_fun.table["p2"]
    triv = cs3_fun.table["p0"]
    fam_p = multiplication_family(canonical_basis_functions(std, "R", 0), "twisted")
    fam_q = multiplication_family(canonical_basis_functions(triv, "R", 0), "twisted")
    with pytest.raises(ValueError):
        couple_families(fam_p, fam_q, cs3_fun.cg("p2", "p0"), cs3_fun.table)


def test_excluded_substitutions_collapse_on_builtins(contexts):
    """Neither rejected variant is visible on a commutative or cocommutative
    spec: reversing the product or inverting the antipode is invisible to the
    identity operator there, so the diagnostic residual is exactly zero."""
    for label, ctx in contexts.items():
        for which in ("swap_mult_only", "inverse_antipode_only"):
            res = excluded_substitution_residual(ctx.algebra, which)
            assert res < 1e-12, (label, which, res)


def test_twisted_of_a_is_ordinary_of_opposite(cs3_grp):
    """Cross-check: a twisted family of A is an ordinary family of A^op."""
    alg = cs3_grp.algebra
    op_alg = opposite_algebra(alg)
    for pi in cs3_grp.table:
        bset = canonical_basis_functions(pi, "R", 0)
        fam = multiplication_family(bset, "twisted")
        assert check_family(fam) < 1e-12
        pi_op = Corepresentation(op_alg, pi.coeffs.copy(), label=pi.label)
        fam_op = TensorOperatorFamily(pi_op, "ordinary", "R", fam.operators.copy())
        assert check_family(fam_op) < 1e-12
