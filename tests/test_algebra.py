from __future__ import annotations

import numpy as np
import pytest

from cqglab.algebra import (Element, _legwise_product, build_dual, coproduct, counit_of,
                            multiply, opposite_algebra, unary_map, verify_dual_pairing,
                            verify_hopf_axioms, verify_star_axioms,
                            antipode_inverse_via_star, random_elements)
from cqglab.errors import DimensionMismatch, InvalidSpec
from cqglab.groups import all_permutation_group, build_function_algebra, \
    build_group_algebra, cyclic_group, symmetric_group_3


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


def test_unit_law_multiply(algebras):
    rng = np.random.default_rng(0)
    for alg in algebras.values():
        x = alg.random_element(rng)
        assert multiply(alg.one(), x).is_close(x, 1e-12)
        assert multiply(x, alg.one()).is_close(x, 1e-12)


def test_function_algebra_pointwise_product():
    alg = build_function_algebra(cyclic_group(2))
    d0, d1 = alg.basis_element(0), alg.basis_element(1)
    assert multiply(d0, d1).norm() < 1e-15
    assert multiply(d0, d0).is_close(d0)


def test_group_algebra_product_follows_table():
    s3 = symmetric_group_3()
    alg = build_group_algebra(s3)
    for i in range(6):
        for j in range(6):
            prod = multiply(alg.basis_element(i), alg.basis_element(j))
            assert prod.is_close(alg.basis_element(s3.mul(i, j)), 1e-15)


def test_coproduct_values():
    z2 = build_function_algebra(cyclic_group(2))
    tens = coproduct(z2.basis_element(0))
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 0] = expected[1, 1] = 1.0  # delta_0(xy) = sum over xy = 0
    assert np.abs(tens.coeffs - expected).max() < 1e-15

    cs3 = build_group_algebra(symmetric_group_3())
    for g in range(6):
        tens = coproduct(cs3.basis_element(g))
        expected = np.zeros((6, 6), dtype=complex)
        expected[g, g] = 1.0
        assert np.abs(tens.coeffs - expected).max() < 1e-15

    one = cs3.one()
    assert np.abs(coproduct(one).coeffs - np.outer(one.coeffs, one.coeffs)).max() < 1e-15


def test_unary_maps():
    s3 = symmetric_group_3()
    alg = build_group_algebra(s3)
    for g in range(6):
        sg = unary_map("S", alg.basis_element(g))
        assert sg.is_close(alg.basis_element(s3.inverse(g)), 1e-15)
    assert unary_map("S", alg.one()).is_close(alg.one())
    rng = np.random.default_rng(1)
    x = alg.random_element(rng)
    assert unary_map("star", unary_map("star", x)).is_close(x, 1e-12)
    assert unary_map("S_inverse", unary_map("S", x)).is_close(x, 1e-12)
    assert unary_map("S_squared", x).is_close(unary_map("S", unary_map("S", x)), 1e-12)
    with pytest.raises(ValueError):
        unary_map("bogus", x)


def test_counit_values(algebras):
    s3 = symmetric_group_3()
    alg = build_function_algebra(s3)
    for g in range(6):
        assert abs(counit_of(alg.basis_element(g)) - (1.0 if g == 0 else 0.0)) < 1e-15
    rng = np.random.default_rng(2)
    for a in algebras.values():
        assert abs(counit_of(a.one()) - 1.0) < 1e-12
        x, y = a.random_element(rng), a.random_element(rng)
        assert abs(counit_of(multiply(x, y)) - counit_of(x) * counit_of(y)) < 1e-9


def test_element_level_properties(algebras):
    """Associativity, counit laws, and the antipode law on random elements."""
    rng = np.random.default_rng(3)
    for alg in algebras.values():
        for _ in range(5):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            assert multiply(multiply(x, y), z).is_close(multiply(x, multiply(y, z)), 1e-9)
        for j in range(alg.dim):
            basis = alg.basis_element(j)
            legs = coproduct(basis)
            eps_first = Element(alg, alg.counit @ legs.coeffs)
            eps_second = Element(alg, legs.coeffs @ alg.counit)
            assert eps_first.is_close(basis, 1e-12)
            assert eps_second.is_close(basis, 1e-12)
            # multiply the antipode of the first leg against the second
            collapsed = legs.map_legs(first=alg.antipode.T).contract()
            expected = counit_of(basis) * alg.one()
            assert collapsed.is_close(expected, 1e-12)


def test_antipode_inverse_via_star_agrees(algebras):
    for alg in algebras.values():
        assert np.abs(antipode_inverse_via_star(alg) - alg.antipode_inv).max() < 1e-12


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
    with pytest.raises(DimensionMismatch):
        multiply(z2.basis_element(0), z3.basis_element(0))
    with pytest.raises(DimensionMismatch):
        Element(z2, np.zeros(3))


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
    xs = random_elements(alg, 3, seed=11)
    ys = random_elements(alg, 3, seed=11)
    for x, y in zip(xs, ys):
        assert x.is_close(y, 0.0)
