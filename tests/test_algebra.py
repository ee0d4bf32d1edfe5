from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from oracles import opposite_algebra, random_elements, verify_dual_pairing

from cqglab.algebra import (LinearFunctional, _legwise_product, build_dual, verify_hopf_axioms,
                            verify_star_axioms)
from cqglab.corep import identity_corep, irrep_table, morphism_space
from cqglab.errors import DimensionMismatch, InvalidSpec
from cqglab.groups import all_permutation_group, build_function_algebra, \
    build_group_algebra, cyclic_group, symmetric_group_3
from cqglab.haar import gram_matrices, solve_haar
from cqglab.regular import product_coaction_check, regular_carrier


def test_axiom_suites_pass_on_all_builtins(algebras):
    for label, alg in algebras.items():
        hopf = verify_hopf_axioms(alg, 1e-12)
        star = verify_star_axioms(alg, 1e-12)
        assert hopf.passed, f"{label}: {hopf.summary()}"
        assert star.passed, f"{label}: {star.summary()}"


@pytest.mark.parametrize("builder", [build_function_algebra, build_group_algebra])
def test_axiom_suites_pass_at_n24(builder):
    """C(S4) and C[S4]: the bialgebra term used to be one n^8 contraction here."""
    alg = builder(all_permutation_group(4))
    assert alg.dim == 24
    hopf = verify_hopf_axioms(alg, 1e-12)
    star = verify_star_axioms(alg, 1e-12)
    assert hopf.passed, hopf.summary()
    assert star.passed, star.summary()


def _out_of_place_n5_residuals(alg) -> dict[str, float]:
    """The associativity, coassociativity and bialgebra residuals with each difference
    allocated as a new array, as ``verify_hopf_axioms`` computed them before it
    subtracted in place."""
    m, mu, n = alg.mult, alg.comult, alg.dim
    m_rows, mu_rows = m.reshape(n * n, n), mu.reshape(n * n, n)
    m_cols, mu_cols = m.reshape(n, n * n), mu.reshape(n, n * n)
    quad = (n, n, n, n)
    diffs = {
        "associativity": (m_rows @ m_cols).reshape(quad) - (
            m_rows @ m.transpose(1, 0, 2).reshape(n, n * n)).reshape(quad).transpose(2, 0, 1, 3),
        "coassociativity": (mu.transpose(0, 2, 1).reshape(n * n, n) @ mu_cols).reshape(
            quad).transpose(0, 2, 3, 1) - (mu_rows @ mu_cols).reshape(quad),
        "bialgebra": _legwise_product(mu, m) - (m_rows @ mu_cols).reshape(quad)}
    return {name: float(np.abs(diff).max()) for name, diff in diffs.items()}


def test_in_place_n5_residuals_are_bit_identical(algebras):
    """Every built-in, as given and with its product and coproduct perturbed (so the
    residuals are not all zero): the in-place subtraction changes no bit."""
    rng = np.random.default_rng(3)
    for label, alg in algebras.items():
        noisy = alg.__class__(alg.dim, alg.mult + 1e-3 * rng.standard_normal(alg.mult.shape),
                              alg.comult + 1e-3 * rng.standard_normal(alg.comult.shape),
                              alg.antipode, alg.counit, alg.unit, alg.star, label="noisy")
        for spec in (alg, noisy):
            report = verify_hopf_axioms(spec)
            want = _out_of_place_n5_residuals(spec)
            assert {name: report[name].residual for name in want} == want, label
        assert min(_out_of_place_n5_residuals(noisy).values()) > 1e-4, label


def test_product_rules_share_the_bialgebra_line(algebras):
    """``product_coaction_check`` and the bialgebra axiom are one computation: on every
    built-in, as given and perturbed, both sides' rules and both twists equal the
    out-of-place ``|lhs - rhs|`` bit for bit, and side R's plain rule is the axiom."""
    rng = np.random.default_rng(5)
    for label, alg in algebras.items():
        n = alg.dim
        noisy = alg.__class__(n, alg.mult + 1e-3 * rng.standard_normal(alg.mult.shape),
                              alg.comult + 1e-3 * rng.standard_normal(alg.comult.shape),
                              alg.antipode, alg.counit, alg.unit, alg.star, label="noisy")
        for spec in (alg, noisy):
            for side, twist in product(("R", "L"), ("plain", "twisted")):
                coact = regular_carrier(spec, side).coact
                lhs = (spec.mult.reshape(n * n, n) @ coact.reshape(n, n * n)).reshape((n,) * 4)
                rhs = _legwise_product(coact, spec.mult, twisted=twist == "twisted")
                got = product_coaction_check(spec, side, twist=twist)["product rule"].residual
                assert got == float(np.abs(lhs - rhs).max()), (label, side, twist)
            assert (product_coaction_check(spec, "R")["product rule"].residual
                    == verify_hopf_axioms(spec)["bialgebra"].residual), label


def _product(alg, x, y) -> np.ndarray:
    """``xy`` on coefficient vectors."""
    return np.einsum("j,k,jkl->l", x, y, alg.mult)


def test_unit_law_multiply(algebras):
    for seed, alg in enumerate(algebras.values()):
        (x,) = random_elements(alg, 1, seed=seed)
        assert np.abs(_product(alg, alg.unit, x) - x).max() <= 1e-12
        assert np.abs(_product(alg, x, alg.unit) - x).max() <= 1e-12


def test_function_algebra_pointwise_product():
    alg = build_function_algebra(cyclic_group(2))
    d0, d1 = np.eye(2)
    assert np.linalg.norm(_product(alg, d0, d1)) < 1e-15
    assert np.abs(_product(alg, d0, d0) - d0).max() <= 1e-9


def test_group_algebra_product_follows_table():
    s3 = symmetric_group_3()
    alg = build_group_algebra(s3)
    basis = np.eye(6)
    for i in range(6):
        for j in range(6):
            prod = _product(alg, basis[i], basis[j])
            assert np.abs(prod - basis[s3.mul(i, j)]).max() <= 1e-15


def test_coproduct_values():
    z2 = build_function_algebra(cyclic_group(2))
    tens = np.tensordot(np.eye(2)[0], z2.comult, 1)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = expected[1, 1] = 1.0  # delta_0(xy) = sum over xy = 0
    assert np.abs(tens - expected).max() < 1e-15

    cs3 = build_group_algebra(symmetric_group_3())
    for g in range(6):
        tens = np.tensordot(np.eye(6)[g], cs3.comult, 1)
        expected = np.zeros((6, 6), dtype=complex)
        expected[g, g] = 1.0
        assert np.abs(tens - expected).max() < 1e-15

    one = cs3.unit
    assert np.abs(np.tensordot(one, cs3.comult, 1) - np.outer(one, one)).max() < 1e-15


def test_unary_maps():
    s3 = symmetric_group_3()
    alg = build_group_algebra(s3)
    basis = np.eye(6)
    for g in range(6):
        assert np.abs(basis[g] @ alg.antipode - basis[s3.inverse(g)]).max() <= 1e-15
    assert np.abs(alg.unit @ alg.antipode - alg.unit).max() <= 1e-9
    (x,) = random_elements(alg, 1, seed=1)
    assert np.abs(np.conj(np.conj(x) @ alg.star) @ alg.star - x).max() <= 1e-12
    # S^{-1} realized as * o S o *
    s_inverse = np.conj(alg.star @ alg.antipode) @ alg.star
    assert np.abs(x @ alg.antipode @ s_inverse - x).max() <= 1e-12


def test_counit_values(algebras):
    s3 = symmetric_group_3()
    alg = build_function_algebra(s3)
    for g in range(6):
        assert abs(alg.counit[g] - (1.0 if g == 0 else 0.0)) < 1e-15
    for seed, a in enumerate(algebras.values()):
        assert abs(a.counit @ a.unit - 1.0) < 1e-12
        x, y = random_elements(a, 2, seed=seed)
        assert abs(a.counit @ _product(a, x, y) - (a.counit @ x) * (a.counit @ y)) < 1e-9


def test_element_level_properties(algebras):
    """Associativity, counit laws, and the antipode law on random elements."""
    for seed, alg in enumerate(algebras.values()):
        for x, y, z in random_elements(alg, 15, seed=seed).reshape(5, 3, -1):
            assert np.abs(_product(alg, _product(alg, x, y), z)
                          - _product(alg, x, _product(alg, y, z))).max() <= 1e-9
        for j in range(alg.dim):
            legs = alg.comult[j]
            assert np.abs(alg.counit @ legs - np.eye(alg.dim)[j]).max() <= 1e-12
            assert np.abs(legs @ alg.counit - np.eye(alg.dim)[j]).max() <= 1e-12
            # multiply the antipode of the first leg against the second
            collapsed = np.einsum("jk,jkl->l", alg.antipode.T @ legs, alg.mult)
            assert np.abs(collapsed - alg.counit[j] * alg.unit).max() <= 1e-12


def test_antipode_inverse_via_star_agrees(algebras):
    for alg in algebras.values():
        via_star = np.conj(alg.star @ alg.antipode) @ alg.star  # * o S o *
        assert np.abs(via_star - alg.antipode_inv).max() < 1e-12


def test_antipode_inverse_is_cached_read_only():
    alg = build_function_algebra(symmetric_group_3())
    inv = alg.antipode_inv
    assert alg.antipode_inv is inv
    with pytest.raises(ValueError):
        inv[0, 0] = 2.0
    assert np.abs(inv @ alg.antipode - np.eye(alg.dim)).max() < 1e-12


def test_singular_antipode_raises_on_every_access():
    alg = build_function_algebra(cyclic_group(3))
    broken = alg.__class__(alg.dim, alg.mult, alg.comult, np.zeros((3, 3)),
                           alg.counit, alg.unit, alg.star, label="broken")
    for _ in range(2):
        with pytest.raises(InvalidSpec):
            broken.antipode_inv


def test_broken_antipode_fails_axioms():
    alg = build_function_algebra(cyclic_group(3))
    broken = alg.__class__(alg.dim, alg.mult, alg.comult,
                           np.zeros((3, 3)), alg.counit, alg.unit, alg.star,
                           label="broken")
    report = verify_hopf_axioms(broken)
    assert not report.passed
    assert not report["antipode law left"].passed


def test_broken_star_fails_involution():
    alg = build_function_algebra(cyclic_group(3))
    broken = alg.__class__(alg.dim, alg.mult, alg.comult, alg.antipode,
                           alg.counit, alg.unit, 2.0 * np.eye(3), label="broken")
    report = verify_star_axioms(broken)
    assert not report["involution"].passed


def test_dimension_mismatch():
    z2 = build_function_algebra(cyclic_group(2))
    z3 = build_function_algebra(cyclic_group(3))
    h = solve_haar(z2)
    table = irrep_table(z2, h, gram_matrices(z2, h).gram_right)
    with pytest.raises(DimensionMismatch):
        morphism_space(identity_corep(z2), identity_corep(z3), table)
    with pytest.raises(DimensionMismatch):
        LinearFunctional(z2, np.zeros(3))


def test_invalid_spec_shapes():
    with pytest.raises(InvalidSpec):
        build_function_algebra(cyclic_group(2)).__class__(
            2, np.zeros((2, 2)), np.zeros((2, 2, 2)), np.eye(2),
            np.zeros(2), np.zeros(2), np.eye(2))


def test_dual_of_function_algebra_is_group_algebra(algebras):
    s3 = symmetric_group_3()
    fun = build_function_algebra(s3)
    grp = build_group_algebra(s3)
    dual = build_dual(fun)
    assert verify_dual_pairing(fun, dual).passed
    # the dual of C(G) has the group algebra's structure constants exactly
    assert np.abs(dual.mult - grp.mult).max() < 1e-15
    assert np.abs(dual.comult - grp.comult).max() < 1e-15
    assert np.abs(dual.antipode - grp.antipode).max() < 1e-15
    assert np.abs(dual.star - grp.star).max() < 1e-15


def test_dual_passes_axioms_and_double_dual(algebras):
    for label, alg in algebras.items():
        dual = build_dual(alg)
        assert verify_hopf_axioms(dual, 1e-12).passed, label
        assert verify_star_axioms(dual, 1e-12).passed, label
        double = build_dual(dual)
        for name in ("mult", "comult", "antipode", "counit", "unit", "star"):
            assert np.abs(getattr(double, name) - getattr(alg, name)).max() < 1e-12
        # dual counit evaluates against the unit of the original
        assert np.abs(dual.counit - alg.unit).max() < 1e-15


def test_opposite_algebra_is_hopf(algebras):
    for alg in algebras.values():
        op = opposite_algebra(alg)
        assert verify_hopf_axioms(op, 1e-12).passed
        assert verify_star_axioms(op, 1e-12).passed


def test_random_elements_deterministic(algebras):
    alg = next(iter(algebras.values()))
    assert np.array_equal(random_elements(alg, 3, seed=11), random_elements(alg, 3, seed=11))
