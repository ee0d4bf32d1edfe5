from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from oracles import classical_corep_coeffs, projection_identity_gaps, s3_inverse, s3_irreps

from cqglab.algebra import LinearFunctional
from cqglab.corep import Corepresentation, IrrepTable, check_unitary, verify_corep
from cqglab.groups import build_function_algebra, cyclic_group
from cqglab.regular import (BasisFunctionSet, basis_function_orthogonality,
                            canonical_basis_functions, check_basis_functions,
                            dual_action_crosscheck, product_coaction_check,
                            projection_completeness_residual, projection_operator,
                            regular_coaction_tensor, regular_corep,
                            verify_projection_identities)


def test_regular_coaction_values(cs3_grp, contexts):
    alg = cs3_grp.algebra
    one = alg.unit
    legs = np.tensordot(one, regular_coaction_tensor(alg, "R"), 1)
    assert np.abs(legs - np.outer(one, one)).max() < 1e-15
    # left coaction of a group-like: g (x) g^{-1}
    for g in range(6):
        legs = regular_coaction_tensor(alg, "L")[g]
        expected = np.zeros((6, 6), dtype=complex)
        expected[g, s3_inverse(g)] = 1.0
        assert np.abs(legs - expected).max() < 1e-15


def test_both_regular_comodules_satisfy_axioms(contexts):
    for label, ctx in contexts.items():
        for side in ("R", "L"):
            reg = regular_corep(ctx.algebra, side)
            assert verify_corep(reg, 1e-12).passed, (label, side)


def test_canonical_basis_functions_pass(contexts):
    for label, ctx in contexts.items():
        for pi in ctx.table:
            for side in ("R", "L"):
                for row in range(pi.dim):
                    bset = canonical_basis_functions(pi, side, row)
                    assert check_basis_functions(bset) < 1e-10, (label, side, row)


def test_left_canonical_set_needs_no_unitary_corep(cs3_fun):
    """``S(pi_l.)`` is a left set for every corep under ``S^2 = id``: a non-unitary
    conjugate of p2 fails ``check_unitary`` and its left sets still pass."""
    pi = cs3_fun.table["p2"]
    skew_t = np.array([[1.0, 0.5], [0.0, 1.0]])
    coeffs = np.einsum("ja,abm,bk->jkm", np.linalg.inv(skew_t), pi.coeffs, skew_t)
    skewed = Corepresentation(pi.algebra, coeffs, label="x")
    assert verify_corep(skewed).passed and not check_unitary(skewed).passed
    for side in ("R", "L"):
        for row in range(skewed.dim):
            bset = canonical_basis_functions(skewed, side, row)
            assert check_basis_functions(bset) <= 1e-12 * pi.algebra.magnitude, (side, row)


@pytest.mark.parametrize("index", [-1, 2])
@pytest.mark.parametrize("side", ["R", "L"])
def test_indices_outside_the_corep_raise(cs3_fun, side, index):
    """A row, ``m`` or ``n`` outside ``0 .. d - 1`` raises ``ValueError`` naming it and
    the dimension: numpy would wrap -1 to the last row and leak ``IndexError`` for 2."""
    pi = cs3_fun.table["p2"]
    with pytest.raises(ValueError, match=f"row must be in 0..1 .* got {index}"):
        canonical_basis_functions(pi, side, index)
    for route in ("maps", "constants"):
        for name, m, n in (("m", index, 0), ("n", 0, index)):
            with pytest.raises(ValueError, match=f"{name} must be in 0..1 .* got {index}"):
                projection_operator(pi, m, n, side, cs3_fun.haar, route=route)


def test_constants_fail_as_basis_functions(cs3_fun):
    """The constant element is not a basis function of a nontrivial irrep."""
    std = cs3_fun.table["p2"]
    alg = cs3_fun.algebra
    funcs = np.vstack([alg.unit, alg.unit])
    bset = BasisFunctionSet(std, "R", funcs)
    assert check_basis_functions(bset) > 0.1


def test_group_like_basis_functions(cs3_grp):
    """For a group algebra the group-like itself spans its R-side functions."""
    for pi in cs3_grp.table:
        bset = canonical_basis_functions(pi, "R", 0)
        assert check_basis_functions(bset) < 1e-14


def test_basis_function_orthogonality_values(cs3_fun):
    std = cs3_fun.table["p2"]
    grams = cs3_fun.grams
    for side in ("R", "L"):
        for s_row in range(2):
            for t_row in range(2):
                psis = canonical_basis_functions(std, side, s_row)
                phis = canonical_basis_functions(std, side, t_row)
                rep = basis_function_orthogonality(psis, phis, grams.gram(side), 1e-10,
                                                   canonical_rows=(s_row, t_row))
                assert rep.passed, rep.summary()
                if s_row == t_row:
                    # F = I, d = 2: the common diagonal value is 1/2
                    assert abs(rep["canonical value"].details["expected"] - 0.5) < 1e-12


def test_cross_irrep_basis_functions_orthogonal(cs3_fun):
    grams = cs3_fun.grams
    for side in ("R", "L"):
        triv = canonical_basis_functions(cs3_fun.table["p0"], side, 0)
        sign = canonical_basis_functions(cs3_fun.table["p1"], side, 0)
        rep = basis_function_orthogonality(triv, sign, grams.gram(side), 1e-10)
        assert rep.passed


def test_group_like_inner_products(cs3_grp):
    grams = cs3_grp.grams
    table = cs3_grp.table
    for i, p in enumerate(table.irreps):
        for j, q in enumerate(table.irreps):
            if i == j:
                continue
            a = canonical_basis_functions(p, "R", 0)
            b = canonical_basis_functions(q, "R", 0)
            rep = basis_function_orthogonality(a, b, grams.gram("R"), 1e-12)
            assert rep.passed


def test_projection_two_routes_agree(contexts):
    for label, ctx in contexts.items():
        for pi in ctx.table:
            for side in ("R", "L"):
                for m in range(pi.dim):
                    for n in range(pi.dim):
                        via_maps = projection_operator(pi, m, n, side, ctx.haar,
                                                       route="maps")
                        via_consts = projection_operator(pi, m, n, side, ctx.haar,
                                                         route="constants")
                        assert np.abs(via_maps - via_consts).max() < 1e-12, label


def test_projection_identities(cs3_fun, cs3_grp):
    for ctx in (cs3_fun, cs3_grp):
        for side in ("R", "L"):
            rep = verify_projection_identities(ctx.table, side, 1e-10)
            assert rep.passed, rep.summary()


def test_projection_completeness(contexts):
    for label, ctx in contexts.items():
        for side in ("R", "L"):
            res = projection_completeness_residual(ctx.table, side)
            assert res < 1e-10, (label, side, res)


@pytest.fixture(scope="module")
def projection_beds(contexts, cd6_fun, ca4_fun, ca4_grp, cs4_fun):
    beds = dict(contexts)
    beds.update({"C(D6)": cd6_fun, "C(A4)": ca4_fun, "C[A4]": ca4_grp, "C(S4)": cs4_fun})
    return beds


def _stacked_vs_loops(table, side, ordering="standard") -> dict[str, tuple[float, float]]:
    """``check -> (stacked value, loop-oracle value)`` for one table, side and ordering,
    both under the table's Haar functional."""
    rep = verify_projection_identities(table, side, 1e-10, ordering=ordering)
    loops = projection_identity_gaps(table, side, table.haar, ordering)
    pairs = {c.name: (c.residual, loops[c.name]) for c in rep.checks}
    pairs["completeness"] = (projection_completeness_residual(table, side),
                             loops["completeness"])
    return pairs


def test_stacked_projections_match_index_loops(projection_beds):
    """The one-contraction identities equal the per-index loops they replace."""
    for label, ctx in projection_beds.items():
        for side in ("R", "L"):
            for ordering in ("standard", "swapped"):
                pairs = _stacked_vs_loops(ctx.table, side, ordering)
                if ordering == "swapped":
                    del pairs["completeness"]  # completeness has the standard ordering only
                for name, (stacked, loops) in pairs.items():
                    assert abs(stacked - loops) < 1e-13, (label, side, ordering, name)
                    assert loops < 1e-10, (label, side, ordering, name)


@pytest.mark.parametrize("label, cross, completeness",
                         [("C(S3)", 1 / 3, 2 / 3), ("C[S3]", 1.0, 1.0)])
def test_duplicated_irrep_breaks_cross_terms(contexts, label, cross, completeness):
    """Listing the last irrep twice makes its two copies' projections overlap."""
    ctx = contexts[label]
    table = ctx.table
    dup = IrrepTable(table.algebra, table.haar, table.irreps + table.irreps[-1:],
                     table.multiplicities + table.multiplicities[-1:])
    for side in ("R", "L"):
        pairs = _stacked_vs_loops(dup, side)
        for name, (stacked, loops) in pairs.items():
            assert abs(stacked - loops) < 1e-13, (label, side, name)
        assert pairs["composition same-irrep"][0] < 1e-13
        assert abs(pairs["composition cross-irrep"][0] - cross) < 1e-12
        assert abs(pairs["action on basis functions"][0] - 1.0) < 1e-12
        assert abs(pairs["completeness"][0] - completeness) < 1e-12


def test_non_unitary_representative_breaks_action(cs3_fun):
    """A non-unitary conjugate of the standard irrep keeps the composition rule but
    not the action.  It is built from the classical matrices, so the pinned
    residual does not depend on the basis the table picked for p2."""
    table = cs3_fun.table
    skew_t = np.array([[1.0, 0.5], [0.0, 1.0]])
    standard = classical_corep_coeffs(s3_irreps()["standard"])
    skewed = replace(table["p2"], coeffs=np.einsum("ja,abm,bk->jkm", np.linalg.inv(skew_t),
                                                   standard, skew_t))
    bad = IrrepTable(table.algebra, table.haar, (*table.irreps[:2], skewed),
                     table.multiplicities)
    pairs = _stacked_vs_loops(bad, "R")
    for name, (stacked, loops) in pairs.items():
        assert abs(stacked - loops) < 1e-13, name
    assert abs(pairs["action on basis functions"][0] - 0.7143) < 1e-4
    assert pairs["composition same-irrep"][0] < 1e-13
    assert pairs["completeness"][0] < 1e-13


def test_trivial_projection_is_group_average(cs3_fun):
    """The trivial-irrep projector sends f to its average times the constant."""
    triv = cs3_fun.table["p0"]
    mat = projection_operator(triv, 0, 0, "R", cs3_fun.haar, route="constants")
    expected = np.full((6, 6), 1.0 / 6.0)
    assert np.abs(mat - expected).max() < 1e-12


def test_swapped_ordering_equals_standard_on_tracial_haar(cs3_fun, cs3_grp):
    """Both product orderings inside h coincide because the Haar is tracial.

    The swapped ordering is kept as a diagnostic flag; on every valid
    finite-dimensional spec the solved Haar satisfies h(ab) = h(ba), so the
    two projection definitions are numerically identical.
    """
    for ctx in (cs3_fun, cs3_grp):
        assert ctx.haar.is_tracial()
        for pi in ctx.table:
            for side in ("R", "L"):
                std_op = projection_operator(pi, 0, 0, side, ctx.haar,
                                             route="constants")
                swapped = projection_operator(pi, 0, 0, side, ctx.haar,
                                              route="constants", ordering="swapped")
                assert np.abs(std_op - swapped).max() < 1e-14


def test_swapped_ordering_maps_route_matches_constants(contexts):
    """The maps route builds the swapped ordering as the one-contraction route does,
    for every matrix coefficient of every irrep on every built-in.  Every built-in's
    Haar functional is tracial, so this pins the route's swapped line to the constants
    route; it cannot tell the two orderings apart (the next test can)."""
    for label, ctx in contexts.items():
        for pi in ctx.table:
            for side in ("R", "L"):
                for m in range(pi.dim):
                    for n in range(pi.dim):
                        ops = [projection_operator(pi, m, n, side, ctx.haar, route=route,
                                                   ordering="swapped")
                               for route in ("maps", "constants")]
                        assert np.abs(ops[0] - ops[1]).max() < 1e-13, (label, pi.label, side)


def test_maps_route_operand_order_on_a_non_tracial_functional(cs3_grp):
    """On C[S3], h + delta_1 (the Haar covector plus the covector of the transposition
    a_1) is not tracial, so the two orderings give different operators: each route
    must put w = pi^*_mn on the same side of the product inside the functional."""
    alg = cs3_grp.algebra
    phi = LinearFunctional(alg, cs3_grp.haar.covector + np.eye(alg.dim)[1])
    pair = alg.mult @ phi.covector
    assert np.abs(pair - pair.T).max() > 0.5
    gap = 0.0
    for pi in cs3_grp.table:
        for side in ("R", "L"):
            ops = {}
            for ordering in ("standard", "swapped"):
                maps, consts = (projection_operator(pi, 0, 0, side, phi, route=route,
                                                    ordering=ordering)
                                for route in ("maps", "constants"))
                assert np.abs(maps - consts).max() < 1e-12, (ordering, pi.label, side)
                ops[ordering] = maps
            gap = max(gap, np.abs(ops["standard"] - ops["swapped"]).max())
    assert gap > 0.1


def test_product_coaction_rules(contexts):
    for label, ctx in contexts.items():
        for side in ("R", "L"):
            assert product_coaction_check(ctx.algebra, side, 1e-10).passed, (label, side)


def test_untwisted_left_rule_fails_on_noncommutative(cs3_fun, cs3_grp):
    bad = product_coaction_check(cs3_grp.algebra, "L", 1e-10, twist="plain")
    assert bad.max_residual > 0.1
    # commutative spec: the two rules coincide, so the plain rule passes
    good = product_coaction_check(cs3_fun.algebra, "L", 1e-10, twist="plain")
    assert good.passed


def test_dual_action_crosscheck(contexts):
    for label, ctx in contexts.items():
        assert dual_action_crosscheck(ctx.algebra).passed, label
    trivial = build_function_algebra(cyclic_group(1))
    assert dual_action_crosscheck(trivial).passed
