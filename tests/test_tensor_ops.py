from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from beds import BUILTINS, context
from oracles import (conjugation_family_space_dim, dense_family_residuals, is_commutative,
                     opposite_algebra, per_operator_coaction, per_operator_family_residual,
                     svd_intertwiners)

from cqglab import tensor_ops
from cqglab.algebra import HopfAlgebraSpec, LinearFunctional
from cqglab.corep import Corepresentation, IrrepTable, identity_corep, irrep_table
from cqglab.errors import (CqglabError, DecompositionStall, NotACorepresentation,
                           PeterWeylFailure)
from cqglab.groups import build_function_algebra, symmetric_group_3
from cqglab.haar import gram_matrices, solve_haar
from cqglab.regular import canonical_basis_functions, regular_coaction_tensor
from cqglab.tensor_ops import (_BUDGET_BYTES, VARIANTS, TensorOperatorFamily, _PeterWeyl,
                               _certify_commutant, apply_family_to_basis_functions,
                               check_families, check_family, couple_families, family_report,
                               multiplication_family, operator_coaction_components,
                               operator_coaction_report, operator_comodule,
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
            assert check_family(fam, ctx.table) < 1e-12, (label, kind, side)


def test_multiplication_families_pass(contexts):
    for label, ctx in contexts.items():
        for pi in ctx.table:
            for kind, side in VARIANTS:
                bset = canonical_basis_functions(pi, side, 0)
                fam = multiplication_family(bset, kind)
                assert check_family(fam, ctx.table) < 1e-10, (label, pi.label, kind, side)
                assert family_report(fam, ctx.table).passed


def test_coaction_routes_agree_on_random_operators(contexts):
    for label, ctx in contexts.items():
        alg = ctx.algebra
        n = alg.dim
        for q_op in _random_ops(alg, 2, seed=7):
            for kind, side in VARIANTS:
                report = operator_coaction_report(ctx.table, q_op, kind, side)
                assert report["routes agree"].residual < 1e-10, (label, kind, side)
                # the operator comodule contracted with q_op is a third route
                comodule = operator_comodule(regular_coaction_tensor(alg, side), alg, kind)
                batched = np.einsum("atxym,xy->mat", comodule.reshape(n, n, n, n, n), q_op)
                for route in ("maps", "constants"):
                    single = operator_coaction_components(ctx.table, q_op, kind, side,
                                                          route=route)
                    assert np.abs(batched - single).max() < 1e-10, (label, kind, side, route)


def test_route_disagreement_is_a_failing_check(cs3_fun):
    """Order-one noise on C(S3)'s coproduct, put only where the table's Peter-Weyl
    pattern allows entries, reaches the maps route, which reads the carrier's
    coaction tensor, and not the constants route, which reads the closed form
    ``Delta(u_ij) = sum_m u_im (x) u_mj``: the ordinary-L routes part, and the
    report records it."""
    alg, table = cs3_fun.algebra, cs3_fun.table
    p_mat, r_mat = table._peter_weyl.p, table._peter_weyl.r
    in_p = np.einsum("ts,sab,ax,by->txy", p_mat, alg.comult, r_mat, r_mat)
    pattern = np.abs(in_p) > 0.5                      # the ones of the closed form
    assert pattern.sum() == sum(d ** 3 for d in table.dims())
    in_p[pattern] += 0.3 * (np.array([1.0, 1j])
                            @ np.random.default_rng(1).standard_normal((2, pattern.sum())))
    noisy = HopfAlgebraSpec(alg.dim, alg.mult,
                            np.einsum("ts,sab,ax,by->txy", r_mat, in_p, p_mat, p_mat),
                            alg.antipode, alg.counit, alg.unit, alg.star, label="noisy C(S3)")
    noisy_table = IrrepTable(noisy, LinearFunctional(noisy, table.haar.covector),
                             tuple(Corepresentation(noisy, pi.coeffs, label=pi.label)
                                   for pi in table), table.multiplicities)
    q_op = _random_ops(noisy, 1, seed=7)[0]
    report = operator_coaction_report(noisy_table, q_op, "ordinary", "L")
    assert [c.name for c in report.checks] == ["routes agree", "coassociativity", "counit"]
    assert not report["routes agree"].passed
    assert report["routes agree"].residual > 1.0


def test_operator_coactions_are_comodules(contexts):
    for label, ctx in contexts.items():
        for q_op in _random_ops(ctx.algebra, 2, seed=11):
            for kind, side in VARIANTS:
                rep = operator_coaction_report(ctx.table, q_op, kind, side, 1e-9)
                assert rep.passed, (label, kind, side, rep.summary())


def test_operator_product_rules(contexts):
    for label, ctx in contexts.items():
        q1, q2 = _random_ops(ctx.algebra, 2, seed=13)
        for kind, side in VARIANTS:
            res = operator_product_rule_residual(ctx.table, kind, side, q1, q2)
            assert res < 1e-9, (label, kind, side, res)
        if is_commutative(ctx.algebra):
            # ordinary and twisted coactions coincide entirely
            for side in ("R", "L"):
                a = operator_coaction_components(ctx.table, q1, "ordinary", side)
                b = operator_coaction_components(ctx.table, q1, "twisted", side)
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
        own = check_family(fam, cs3_grp.table)
        cross = check_family(fam, cs3_grp.table, kind="twisted")
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
            assert check_family(fam, table) < 1e-10


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
            assert check_family(fam, table) < 1e-10, (kind, side, key)


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
    assert check_family(fam, table) < 1e-10
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
    assert check_family(fam_tw, table) < 1e-12


def test_couple_families_order_validation(cs3_fun):
    std = cs3_fun.table["p2"]
    triv = cs3_fun.table["p0"]
    fam_p = multiplication_family(canonical_basis_functions(std, "R", 0), "twisted")
    fam_q = multiplication_family(canonical_basis_functions(triv, "R", 0), "twisted")
    with pytest.raises(ValueError):
        couple_families(fam_p, fam_q, cs3_fun.cg("p2", "p0"), cs3_fun.table)


def test_twisted_of_a_is_ordinary_of_opposite(cs3_grp):
    """Cross-check: a twisted family of A is an ordinary family of A^op."""
    alg, table = cs3_grp.algebra, cs3_grp.table
    op_alg = opposite_algebra(alg)
    # A^op has A's coalgebra, so the same matrix coefficients are its Peter-Weyl basis
    # and A's Haar covector is its Haar functional
    op_table = IrrepTable(op_alg, LinearFunctional(op_alg, table.haar.covector),
                          tuple(Corepresentation(op_alg, pi.coeffs, label=pi.label)
                                for pi in table), table.multiplicities)
    for pi, pi_op in zip(table, op_table):
        bset = canonical_basis_functions(pi, "R", 0)
        fam = multiplication_family(bset, "twisted")
        assert check_family(fam, table) < 1e-12
        fam_op = TensorOperatorFamily(pi_op, "ordinary", "R", fam.operators.copy())
        assert check_family(fam_op, op_table) < 1e-12


# ---------------------------------------------------------------------------
# the family space as multiplication o convolution
# ---------------------------------------------------------------------------

def _flat(families):
    return np.array([fam.operators.ravel() for fam in families])


@pytest.mark.parametrize("label", [*BUILTINS, "C(A4)", "C(D6)"])
def test_family_space_matches_averaging_oracle(label):
    """The same span as ``Hom(pi, End(A))`` solved by the Haar average over the
    n^5 operator comodule, for every table irrep and the identity corep."""
    ctx = context(label)
    alg = ctx.algebra
    n = alg.dim
    for pi in [*ctx.table, identity_corep(alg)]:
        for kind, side in VARIANTS:
            what = (label, pi.label, kind, side)
            ours = _flat(solve_family_space(pi, kind, side))
            comodule = operator_comodule(regular_coaction_tensor(alg, side), alg, kind)
            oracle = np.array([phi.T.ravel()
                               for phi in svd_intertwiners(pi.coeffs, comodule, ctx.haar)])
            assert len(ours) == len(oracle), what
            assert len(ours) % n == 0, what
            assert np.abs(ours.conj() @ ours.T - np.eye(len(ours))).max() < 1e-12, what
            assert np.abs(ours.T @ ours.conj() - oracle.T @ oracle.conj()).max() < 1e-10, what


def test_family_space_takes_no_operator_comodule(cs3_fun, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("operator_comodule called")

    monkeypatch.setattr(tensor_ops, "operator_comodule", refuse)
    for pi in cs3_fun.table:
        for kind, side in VARIANTS:
            assert len(solve_family_space(pi, kind, side)) == 6 * pi.dim, (pi.label, kind, side)


@pytest.fixture(scope="module")
def mixed_irrep():
    """A 2-dim irrep of C(S3) (x) C[S3] (n = 36, neither commutative nor cocommutative)
    and its table."""
    table = context("C(S3)(x)C[S3]").table
    return next(pi for pi in table if pi.dim == 2), table


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_n36_family_space(mixed_irrep, kind, side):
    pi, table = mixed_irrep
    families = solve_family_space(pi, kind, side)
    assert len(families) == pi.algebra.dim * pi.dim
    weights = np.random.default_rng(5).standard_normal(len(families))
    blend = TensorOperatorFamily(pi, kind, side, np.tensordot(
        weights / np.linalg.norm(weights), [fam.operators for fam in families], axes=1))
    assert check_family(blend, table) <= 1e-12      # a generic member of the space
    swapped = "twisted" if kind == "ordinary" else "ordinary"
    assert max(check_family(fam, table, kind=swapped) for fam in families[:4]) >= 0.1


def test_rank_deficient_stack_stalls(cs3_fun, monkeypatch):
    """Two equal basis-function sets give n dependent families: not a basis."""
    build = tensor_ops._multiplication_operators

    def doubled(coords, *args):
        coords = coords.copy()
        coords[2:] = coords[:2]
        return build(coords, *args)

    pi = cs3_fun.table["p2"]
    monkeypatch.setattr(tensor_ops, "_multiplication_operators", doubled)
    with pytest.raises(DecompositionStall):
        solve_family_space(pi, "ordinary", "R")


def test_family_space_refuses_a_non_corepresentation(cs3_fun):
    """C(S3)'s ``p2`` with ``coeffs[0, 0]`` doubled fails the comodule axioms, so its
    rows are not basis functions: every variant refuses it instead of returning
    ``d n = 12`` families that fail their defining condition."""
    pi = cs3_fun.table["p2"]
    coeffs = pi.coeffs.copy()
    coeffs[0, 0] *= 2.0
    broken = Corepresentation(pi.algebra, coeffs, label="p2 doubled")
    assert issubclass(NotACorepresentation, CqglabError)
    for kind, side in VARIANTS:
        with pytest.raises(NotACorepresentation, match="comodule axioms"):
            solve_family_space(broken, kind, side)


def test_commutant_certificate(cs3_fun):
    """Left convolutions commute with the right coaction, and on C(S3) not with the left one."""
    alg = cs3_fun.algebra
    left_conv = alg.comult.transpose(1, 2, 0)
    right_conv = alg.comult.transpose(2, 1, 0)
    _certify_commutant(left_conv, regular_coaction_tensor(alg, "R"), 1e-12)
    _certify_commutant(right_conv, regular_coaction_tensor(alg, "L"), 1e-12)
    with pytest.raises(DecompositionStall):
        _certify_commutant(left_conv, regular_coaction_tensor(alg, "L"), 1e-12)


@pytest.mark.parametrize("label", ["C(S3)", "C(S4)"], ids=["cs3_fun", "cs4_fun"])
def test_commutant_certificate_catches_a_perturbed_coaction(label):
    """Negative control of the chunked certificate: one coaction entry moved by 1e-6
    raises with the residual of the one-convolution-at-a-time comparison, on C(S3)
    (every C_x in one chunk) and on C(S4) (one C_x per chunk)."""
    alg = context(label).algebra
    convs = alg.comult.transpose(1, 2, 0)
    coact = regular_coaction_tensor(alg, "R")
    coact[-1, 0, -1] += 1e-6
    gap = max(float(np.abs(np.tensordot(conv, coact, axes=(0, 0))
                           - np.tensordot(conv, coact, axes=(1, 1)).transpose(1, 0, 2)).max())
              for conv in convs)
    assert gap > 5e-7
    with pytest.raises(DecompositionStall, match=(
            rf"^convolutions do not commute with the regular coaction \(residual "
            rf"{gap:.1e} > 1\.0e-09\)$")):
        _certify_commutant(convs, coact, 1e-9)


@pytest.mark.parametrize("side", ["R", "L"])
def test_commutant_certificate_memory(cs4_fun, side):
    """C(S4) (n = 24): the certificate compares one convolution at a time, so its
    traced peak stays below 2 MB (two n^4 complex arrays are 10.6 MB)."""
    alg = cs4_fun.algebra
    convs = alg.comult.transpose(1, 2, 0) if side == "R" else alg.comult.transpose(2, 1, 0)
    coact = regular_coaction_tensor(alg, side)
    tracemalloc.start()
    try:
        _certify_commutant(convs, coact, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2e6, peak / 1e6


@pytest.mark.parametrize("label", [*BUILTINS, "C(A4)", "rot C(S3)", "rot C[S3]"])
def test_stacked_coaction_matches_per_operator_oracle(label):
    """The engine's components of a stack of three operators, carried back to the input
    basis, against the per-operator einsum chains."""
    ctx = context(label)
    alg, pw = ctx.algebra, ctx.table._peter_weyl
    ops = np.array(_random_ops(alg, 3, seed=17))
    for kind, side in VARIANTS:
        plan = pw.plan(kind, side)
        for route in ("constants", "maps"):
            want = np.array([per_operator_coaction(alg, op, kind, side, route) for op in ops])
            got = pw.to_input(pw.dense(plan, pw.operators(ops), route))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), (kind, side, route)


@pytest.mark.parametrize("label", [*BUILTINS, "C(A4)", "rot C(S3)", "rot C[S3]",
                                   "C(S3)(x)C[S3]", "C(S4)", "C[S4]"])
def test_check_family_matches_per_operator_oracle(label):
    """Own and swapped-variant residuals of multiplication families against the dense
    routes (every variant up to n = 12, the own and the other kind beyond): the
    returned residual is ``kappa`` times the P-basis one to 1e-13, at least the
    input-basis one, and both give the same verdict at ``1e-10`` times the squared
    magnitude.  Up to n = 12 the dense routes' input-basis residual is also the
    per-operator einsum chains' to 1e-13."""
    ctx = context(label)
    table, n = ctx.table, ctx.algebra.dim
    kappa, tol = table._peter_weyl.kappa(), 1e-10 * ctx.algebra.magnitude ** 2
    for pi in table:
        for kind, side in VARIANTS:
            fam = multiplication_family(canonical_basis_functions(pi, side, 0), kind)
            swapped = "twisted" if kind == "ordinary" else "ordinary"
            for other, other_side in VARIANTS if n <= 12 else [(kind, side), (swapped, side)]:
                what = (pi.label, kind, side, other, other_side)
                got = check_family(fam, table, kind=other, side=other_side)
                dense, in_p = dense_family_residuals(fam, table, other, other_side)
                assert abs(got / kappa - in_p) <= 1e-13 * max(in_p, 1.0), what
                assert got >= dense, what
                assert (got <= tol) == (dense <= tol), what
                if n <= 12:
                    loop = per_operator_family_residual(fam, other, other_side)
                    assert abs(dense - loop) <= 1e-13 * max(loop, 1.0), what


def _stack(ctx, kind, side):
    """The identity operator and every irrep's multiplication family of one variant."""
    fams = [TensorOperatorFamily(identity_corep(ctx.algebra), kind, side,
                                 np.eye(ctx.algebra.dim)[None])]
    return fams + [multiplication_family(canonical_basis_functions(pi, side, 0), kind)
                   for pi in ctx.table]


def test_a_table_that_does_not_span_the_algebra_is_refused(cs3_fun):
    """With one irrep repeated the table's matrix coefficients are no basis of C(S3):
    ten rows for n = 6 with ``p2`` twice, six dependent rows with ``p0`` twice.
    ``check_families`` raises instead of returning numbers."""
    table = cs3_fun.table
    assert issubclass(PeterWeylFailure, CqglabError)
    for irreps, match in [((table[0], table[1], table[2], table[2]), "cannot be a basis"),
                          ((table[0], table[0], table[2]), "condition number")]:
        repeated = IrrepTable(cs3_fun.algebra, cs3_fun.haar, irreps, (1,) * len(irreps))
        for kind, side in VARIANTS:
            with pytest.raises(PeterWeylFailure, match=match):
                check_families(_stack(cs3_fun, kind, side), repeated)


def test_a_coaction_outside_the_blocks_is_refused(cs3_fun, cs3_grp):
    """C(S3)'s matrix coefficients taken as coreps of C[S3] span it, but C[S3]'s
    coproduct is not block-diagonal in them: the maps route, which reads the
    carrier's own coaction tensor, refuses them."""
    alg = cs3_grp.algebra
    foreign = IrrepTable(alg, cs3_grp.haar,
                         tuple(Corepresentation(alg, pi.coeffs, label=pi.label)
                               for pi in cs3_fun.table), cs3_fun.table.multiplicities)
    for kind, side in VARIANTS:
        with pytest.raises(PeterWeylFailure, match="outside the Peter-Weyl blocks"):
            check_families(_stack(cs3_grp, kind, side), foreign)


def test_operator_coaction_report_builds_each_route_once(cs3_grp, monkeypatch):
    """The report runs the constants route twice (the components, then the coaction
    again on them) and the maps route once, and both routes read one plan: one
    ``_PeterWeyl.plan`` call per report."""
    calls, plan = [], _PeterWeyl.plan

    def counting(self, kind, side):
        calls.append((kind, side))
        return plan(self, kind, side)

    monkeypatch.setattr(_PeterWeyl, "plan", counting)
    q_op = _random_ops(cs3_grp.algebra, 1, seed=23)[0]
    for kind, side in VARIANTS:
        calls.clear()
        assert operator_coaction_report(cs3_grp.table, q_op, kind, side, 1e-9).passed
        assert calls == [(kind, side)]


@pytest.mark.parametrize("which", ["C(A4)", "C(S3)(x)C[S3]"])
def test_operator_coaction_report_on_larger_beds(which):
    """The route agreement, coassociativity and counit of the operator coaction of a
    random operator, on a 12- and a 36-dimensional bed."""
    table = context(which).table
    q_op = _random_ops(table.algebra, 1, seed=19)[0]
    for kind, side in VARIANTS:
        rep = operator_coaction_report(table, q_op, kind, side, 1e-9)
        assert rep.passed, (which, kind, side, rep.summary())


def test_a_product_outside_the_fusion_rules_is_refused(cs3_grp):
    """C[S3] with one product entry moved by 5e-9 onto a group element the fusion rules
    exclude (``u_g u_h`` lies in the block of ``gh`` alone): the coproduct still has
    the Peter-Weyl pattern and the character triple products still round to the same
    counts, but the fusion-cut certificate refuses the second-leg product."""
    alg, table = cs3_grp.algebra, cs3_grp.table
    mult = alg.mult.copy()
    g, h = 1, 2
    mult[g, h, int(np.argmin(np.abs(mult[g, h])))] += 5e-9
    moved = HopfAlgebraSpec(alg.dim, mult, alg.comult, alg.antipode, alg.counit, alg.unit,
                            alg.star, label="moved C[S3]")
    moved_table = IrrepTable(moved, LinearFunctional(moved, table.haar.covector),
                             tuple(Corepresentation(moved, pi.coeffs, label=pi.label)
                                   for pi in table), table.multiplicities)
    assert moved_table._peter_weyl.n == 6                  # the coproduct certificate passes
    for kind, side in VARIANTS:
        with pytest.raises(PeterWeylFailure, match="outside the blocks its fusion rules allow"):
            check_families([TensorOperatorFamily(moved_table[0], kind, side,
                                                 np.eye(alg.dim)[None])], moved_table)


def test_commutant_is_certified_once_per_spec_and_side(monkeypatch):
    """The four variants on a fresh C(S3) certify the commutant twice, once per side, and
    a second pass certifies nothing: the residual is kept with the side's carrier."""
    calls, real = [], tensor_ops._certify_commutant

    def counting(convs, coact, tol):
        calls.append(coact.shape)
        return real(convs, coact, tol)

    monkeypatch.setattr(tensor_ops, "_certify_commutant", counting)
    alg = build_function_algebra(symmetric_group_3())
    h = solve_haar(alg)
    std = irrep_table(alg, h, gram_matrices(alg, h).gram_right)["p2"]
    for _ in range(2):
        for kind, side in VARIANTS:
            assert len(solve_family_space(std, kind, side)) == 12
    assert len(calls) == 2


@pytest.mark.parametrize("label", ["C(S4)", "C[S4]"], ids=["cs4_fun", "cs4_grp"])
def test_check_families_memory(label):
    """C(S4) and C[S4] (n = 24): one variant's stack of every multiplication family and
    the identity, checked after the table's context is built, traces a peak of at most
    twice the chunk budget (the plan's products are n^3, 0.2 MB; the chunks hold at
    most ``_BUDGET_BYTES``)."""
    ctx = context(label)
    ctx.table._peter_weyl
    for kind, side in VARIANTS:
        fams = _stack(ctx, kind, side)
        tracemalloc.start()
        try:
            check_families(fams, ctx.table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _BUDGET_BYTES, (kind, side, peak / 1e6)


def test_check_families_never_leaves_peter_weyl_coordinates(cs3_fun, monkeypatch):
    """The certificate compares in P's basis: no dense components, no change back."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense components or a change back to the input basis")

    monkeypatch.setattr(_PeterWeyl, "dense", refuse)
    monkeypatch.setattr(_PeterWeyl, "to_input", refuse)
    for kind, side in VARIANTS:
        assert max(check_families(_stack(cs3_fun, kind, side), cs3_fun.table)) < 1e-12
