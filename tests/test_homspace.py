from __future__ import annotations

import re
import warnings
from itertools import product

import numpy as np
import pytest

from oracles import coset_rows, frobenius_coset_multiplicities, reduced_elements

from cqglab.cg import coupled_basis_functions, coupled_inverse_residual
from cqglab.errors import (CoidealMismatch, CqglabError, DimensionMismatch,
                           LinearDependenceWarning, NotASubgroup)
from cqglab.groups import cyclic_group, symmetric_group_3
from cqglab.homspace import (CoidealSubalgebra, build_coset_subalgebra,
                             canonical_restricted_candidates, restricted_coaction_report,
                             restricted_gram, solve_restricted_basis_functions,
                             solve_restricted_family, subspace_coideal, verify_coideal)
from cqglab.corep import identity_corep
from cqglab.haar import GramPair
from cqglab.regular import (BasisFunctionSet, basis_function_orthogonality,
                            canonical_basis_functions, check_basis_functions,
                            regular_carrier)
from cqglab.tensor_ops import (TensorOperatorFamily, check_family, couple_families,
                               family_report, multiplication_family, operator_comodule,
                               pipeline_components)
from cqglab.wigner_eckart import verify_wigner_eckart, we_tensor

S3 = symmetric_group_3()
SUBGROUP = [0, 1]  # {e, (01)}


@pytest.fixture(scope="module", params=["L", "R"])
def coset_ctx(request, cs3_fun):
    side = request.param
    return side, build_coset_subalgebra(S3, SUBGROUP, side, cs3_fun.grams)


def test_coset_dimensions(cs3_fun):
    for side in ("L", "R"):
        b3 = build_coset_subalgebra(S3, SUBGROUP, side, cs3_fun.grams)
        assert b3.dim == 3
        full = build_coset_subalgebra(S3, [0], side, cs3_fun.grams)
        assert full.dim == 6
        point = build_coset_subalgebra(S3, list(range(6)), side, cs3_fun.grams)
        assert point.dim == 1
        # B = C1, spanned by the unit up to the phase and norm of the range basis
        assert np.abs(point.span_rows[0] / point.span_rows[0, 0]
                      - cs3_fun.algebra.unit).max() < 1e-15


def test_restricted_operator_comodule_matches_pipeline(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    alg, b = cs3_fun.algebra, coideal.dim
    coact = coideal.carrier.coact
    rng = np.random.default_rng(3)
    q_op = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
    for kind in ("ordinary", "twisted"):
        comodule = operator_comodule(coact, alg, kind).reshape(b, b, b, b, alg.dim)
        batched = np.einsum("atxym,xy->mat", comodule, q_op)
        single = pipeline_components(coact, alg, kind, q_op)
        assert np.abs(batched - single).max() < 1e-10, (side, kind)


def test_not_a_subgroup(cs3_fun):
    with pytest.raises(NotASubgroup):
        build_coset_subalgebra(S3, [0, 4], "L", cs3_fun.grams)  # (012) alone


@pytest.mark.parametrize("subgroup", [[0, 99], [0, 1, -1]])
def test_out_of_range_indices_are_not_a_subgroup(cs3_fun, subgroup):
    with pytest.raises(NotASubgroup):
        build_coset_subalgebra(S3, subgroup, "L", cs3_fun.grams)


@pytest.mark.parametrize("order", [3, 12])
def test_group_of_another_order_is_a_dimension_mismatch(cs3_fun, order):
    """Cosets of a group whose order is not the algebra's dimension raise the package's
    ``DimensionMismatch`` naming both sizes, not a plain ``ValueError``."""
    assert issubclass(DimensionMismatch, CqglabError)
    with pytest.raises(DimensionMismatch, match=rf"shape \({order},\) .* dimension 6"):
        build_coset_subalgebra(cyclic_group(order), [0], "L", cs3_fun.grams)


@pytest.mark.parametrize("gram", [np.eye(3), np.eye(6)[:, :3], np.ones(36)],
                         ids=["3x3", "6x3", "flat"])
def test_gram_of_another_shape_is_a_dimension_mismatch(cs3_fun, gram):
    """A Gram matrix that is not n x n is refused when B is built, naming both shapes,
    instead of leaking numpy's matmul ``ValueError`` on the first read of ``B.onb``."""
    shape = re.escape(str(gram.shape))
    with pytest.raises(DimensionMismatch, match=rf"gram of shape {shape} .* rows of shape "
                                                 rf"\(6, 6\)"):
        CoidealSubalgebra(cs3_fun.algebra, np.eye(6), "R", gram)


def test_coideal_axioms(coset_ctx):
    side, coideal = coset_ctx
    report = verify_coideal(coideal)
    assert report.passed, report.summary()


def test_single_delta_fails_coideal(cs3_fun):
    rows = np.zeros((1, 6), dtype=complex)
    rows[0, 2] = 1.0
    cand = subspace_coideal(rows, "L", cs3_fun.grams)
    report = verify_coideal(cand)
    assert not report["coideal condition"].passed
    assert not report["unit membership"].passed


def test_unit_span_passes_everything(cs3_fun):
    rows = cs3_fun.algebra.unit[None, :]
    cand = subspace_coideal(rows, "L", cs3_fun.grams)
    assert verify_coideal(cand).passed


def test_restricted_gram_values(coset_ctx, cs3_fun):
    """On the coset indicators each of the three cosets has Haar measure 1/3."""
    side, coideal = coset_ctx
    cosets = subspace_coideal(coset_rows(S3, SUBGROUP, side), side, cs3_fun.grams)
    assert np.abs(restricted_gram(cosets) - np.eye(3) / 3.0).max() < 1e-12
    assert np.abs(restricted_gram(coideal) - np.eye(3) / 6.0).max() < 1e-12  # range rows: ONB


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]"])
@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4, 1e5])
def test_restricted_gram_tolerance_scales_with_rows(contexts, label, scale):
    """B = A spanned by large random rows: a valid coideal whose Gram is large."""
    ctx = contexts[label]
    alg = ctx.algebra
    rng = np.random.default_rng(5)
    rows = scale * (rng.standard_normal((alg.dim, alg.dim))
                    + 1j * rng.standard_normal((alg.dim, alg.dim)))
    for side in ("R", "L"):
        coideal = subspace_coideal(rows, side, ctx.grams)
        assert verify_coideal(coideal).passed
        gram = restricted_gram(coideal)
        expected = np.conj(rows) @ ctx.grams.gram(side) @ rows.T
        assert np.abs(gram - expected).max() <= 1e-12 * np.abs(expected).max()
        onb = coideal.onb
        onb_gram = np.conj(onb) @ ctx.grams.gram(side) @ onb.T
        assert np.abs(onb_gram - np.eye(alg.dim)).max() < 1e-8, (side, scale)


def test_restricted_coaction(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    report = restricted_coaction_report(coideal, cs3_fun.haar, 1e-10)
    assert report.passed, report.summary()


def test_unit_span_coaction_is_trivial(cs3_fun):
    coideal = subspace_coideal(cs3_fun.algebra.unit[None, :], "L",
                               cs3_fun.grams)
    coact = coideal.carrier.coact
    expected = np.einsum("k,t->kt", np.ones(1), cs3_fun.algebra.unit)
    # coaction of the (normalized) unit is unit (x) 1
    assert np.abs(coact[0] - expected).max() < 1e-12


def test_restricted_basis_function_dimensions(coset_ctx, cs3_fun):
    """Solution-space dimensions equal classical coset-action multiplicities."""
    side, coideal = coset_ctx
    oracle = frobenius_coset_multiplicities(SUBGROUP, side)
    classical_of = {"p0": "trivial", "p1": "sign", "p2": "standard"}
    dims = {}
    for label, sols in solve_restricted_basis_functions(coideal, cs3_fun.table).items():
        for s in sols:
            assert check_basis_functions(s) < 1e-9
        dims[label] = len(sols)
    assert dims == {lbl: oracle[classical_of[lbl]] for lbl in dims}
    assert [dims["p0"], dims["p1"], dims["p2"]] == [1, 0, 1]


def test_full_span_reduces_to_unrestricted(cs3_fun):
    for side in ("L", "R"):
        coideal = subspace_coideal(np.eye(6, dtype=complex), side,
                                   cs3_fun.grams)
        sols = solve_restricted_basis_functions(coideal, cs3_fun.table)
        for pi in cs3_fun.table:
            # unrestricted: one tuple per matrix-coefficient row = d_p
            assert len(sols[pi.label]) == pi.dim


def test_point_space_has_no_nontrivial_functions(cs3_fun):
    for side in ("L", "R"):
        coideal = build_coset_subalgebra(S3, list(range(6)), side,
                                         cs3_fun.grams)
        sols = solve_restricted_basis_functions(coideal, cs3_fun.table)
        assert sols["p2"] == []
        assert len(sols["p0"]) == 1


def test_canonical_candidates_only_for_trivial(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    assert len(canonical_restricted_candidates(cs3_fun.table["p0"], coideal)) == 1
    assert canonical_restricted_candidates(cs3_fun.table["p1"], coideal) == []


def test_identity_family_all_variants(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    carrier = coideal.carrier
    ident = identity_corep(cs3_fun.algebra)
    for kind in ("ordinary", "twisted"):
        fam = TensorOperatorFamily(ident, kind, side, np.eye(coideal.dim)[None, :, :],
                                   carrier=carrier)
        assert check_family(fam, cs3_fun.table) < 1e-12


def test_restricted_multiplication_families(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    for sols in solve_restricted_basis_functions(coideal, cs3_fun.table).values():
        for bset in sols:
            for kind in ("ordinary", "twisted"):
                fam = multiplication_family(bset, kind)
                assert check_family(fam, cs3_fun.table) < 1e-10


def test_zero_family_space_on_point_space(cs3_fun):
    coideal = build_coset_subalgebra(S3, list(range(6)), "L", cs3_fun.grams)
    for kind in ("ordinary", "twisted"):
        assert solve_restricted_family(coideal, kind, cs3_fun.table)["p2"] == []


def test_solved_restricted_families_pass(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    for kind in ("ordinary", "twisted"):
        for fams in solve_restricted_family(coideal, kind, cs3_fun.table).values():
            for fam in fams:
                assert check_family(fam, cs3_fun.table) < 1e-9


@pytest.mark.parametrize("kind", ["ordinary", "twisted"])
def test_restricted_family_residual_matches_per_operator_loop(coset_ctx, cs3_fun, kind):
    """One stacked pipeline call gives the residual of the per-operator
    ``pipeline_components`` loop, on solved families and on random operators
    (residual of order 1)."""
    side, coideal = coset_ctx
    alg, b = cs3_fun.algebra, coideal.dim
    coact = coideal.carrier.coact
    rng = np.random.default_rng(5)
    solutions = solve_restricted_family(coideal, kind, cs3_fun.table)
    for pi in cs3_fun.table:
        noise = rng.standard_normal((pi.dim, b, b)) + 1j * rng.standard_normal((pi.dim, b, b))
        fams = solutions[pi.label]
        noisy = TensorOperatorFamily(pi, kind, side, noise,
                                     carrier=coideal.carrier)
        for fam in fams + [noisy]:
            lhs = np.array([pipeline_components(coact, alg, kind, op) for op in fam.operators])
            rhs = np.einsum("kat,kjm->jmat", fam.operators, pi.coeffs)
            loop = float(np.abs(lhs - rhs).max())
            assert abs(check_family(fam, cs3_fun.table) - loop) <= 1e-14, (side, pi.label)


def test_family_report_on_b_and_side_override_refused(coset_ctx, cs3_fun):
    """``check_family`` runs the structure-map route on a coideal carrier, so
    ``family_report`` certifies families on ``B``; a coideal fixes the side."""
    side, coideal = coset_ctx
    fams = solve_restricted_family(coideal, "ordinary", cs3_fun.table)["p0"]
    assert fams
    for fam in fams:
        report = family_report(fam, cs3_fun.table)
        assert report.passed
        assert report["defining condition"].residual == check_family(fam, cs3_fun.table) < 1e-10
        with pytest.raises(ValueError):
            check_family(fam, cs3_fun.table, side="L" if side == "R" else "R")


def test_restricted_wigner_eckart(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    std_sets = solve_restricted_basis_functions(coideal, cs3_fun.table)["p2"]
    assert len(std_sets) == 1
    psis = phis = std_sets[0]
    for kind in ("ordinary", "twisted"):
        fam = multiplication_family(std_sets[0], kind)
        system = cs3_fun.cg("p2", "p2")
        rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p2"].F,
                                   np.eye(coideal.dim), 1e-9)
        [check] = rep.checks
        assert rep.passed, (side, kind, check.residual)
        assert reduced_elements(check).shape == (1,)


def test_restricted_we_zero_multiplicity(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    solutions = solve_restricted_basis_functions(coideal, cs3_fun.table)
    triv = solutions["p0"][0]
    std = solutions["p2"][0]
    fam = multiplication_family(triv, "ordinary")
    system = cs3_fun.cg("p0", "p0")
    rep = verify_wigner_eckart(std, fam, triv, system, cs3_fun.table["p2"].F,
                               np.eye(coideal.dim), 1e-9)
    assert rep.passed
    assert np.abs(we_tensor(std, fam, triv, np.eye(coideal.dim))).max() < 1e-12


def test_restricted_coupling(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    std_sets = solve_restricted_basis_functions(coideal, cs3_fun.table)["p2"]
    for kind in ("ordinary", "twisted"):
        fam = multiplication_family(std_sets[0], kind)
        system = cs3_fun.cg("p2", "p2")
        coupled = couple_families(fam, fam, system, cs3_fun.table)
        for key, cf in coupled.items():
            assert check_family(cf, cs3_fun.table) < 1e-10, (side, kind, key)


def test_restricted_equals_unrestricted_when_b_is_a(cs3_fun):
    from cqglab.regular import canonical_basis_functions

    std = cs3_fun.table["p2"]
    system = cs3_fun.cg("p2", "p2")
    for side in ("R", "L"):
        coideal = subspace_coideal(np.eye(6, dtype=complex), side,
                                   cs3_fun.grams)
        phis = canonical_basis_functions(std, side, 0)
        psis = canonical_basis_functions(std, side, 0)
        qset = canonical_basis_functions(std, side, 1)
        fam = multiplication_family(qset, "ordinary")
        [full] = verify_wigner_eckart(psis, fam, phis, system, std.F,
                                      cs3_fun.grams.gram(side)).checks
        to_b = lambda fs: BasisFunctionSet(
            std, side, np.array([coideal.restrict(f) for f in fs.functions]),
            carrier=coideal.carrier)
        fam_b = multiplication_family(to_b(qset), "ordinary")
        [res] = verify_wigner_eckart(to_b(psis), fam_b, to_b(phis), system, std.F,
                                     np.eye(coideal.dim), 1e-9).checks
        assert np.abs(we_tensor(psis, fam, phis, cs3_fun.grams.gram(side))
                      - we_tensor(to_b(psis), fam_b, to_b(phis), np.eye(coideal.dim))
                      ).max() < 1e-12
        assert np.abs(reduced_elements(full) - reduced_elements(res)).max() < 1e-12


def test_restricted_orthogonality_matches_unrestricted_statements(coset_ctx, cs3_fun):
    """Embedded restricted sets obey the usual orthogonality statements:
    cross-irrep inner products vanish and diagonal values are j-independent."""
    from cqglab.regular import basis_function_orthogonality
    side, coideal = coset_ctx
    sols = solve_restricted_basis_functions(coideal, cs3_fun.table)
    triv = BasisFunctionSet(cs3_fun.table["p0"], side, coideal.embed(sols["p0"][0].functions))
    std = BasisFunctionSet(cs3_fun.table["p2"], side, coideal.embed(sols["p2"][0].functions))
    cross = basis_function_orthogonality(triv, std, cs3_fun.grams.gram(side), 1e-10)
    assert cross.passed
    same = basis_function_orthogonality(std, std, cs3_fun.grams.gram(side), 1e-10)
    assert same.passed


@pytest.mark.parametrize("subgroup", [SUBGROUP, [0]])
def test_orthogonality_and_coupling_on_b_carrier(cs3_fun, subgroup):
    """On B's own carrier (identity Gram, B's product) the restricted sets are
    orthogonal, and coupled pairs of them are basis functions of B; sets of A and
    of B do not mix.  Over the trivial subgroup p2 has two sets."""
    table, grams = cs3_fun.table, cs3_fun.grams
    for side in ("L", "R"):
        coideal = build_coset_subalgebra(S3, subgroup, side, grams)
        sets = [bset for sols in solve_restricted_basis_functions(coideal, table).values()
                for bset in sols]
        assert [bset.corep.label for bset in sets].count("p2") == (1 if subgroup == SUBGROUP
                                                                   else 2)
        for set_a, set_b in product(sets, repeat=2):
            rep = basis_function_orthogonality(set_a, set_b, np.eye(coideal.dim), 1e-10)
            assert rep.passed, (side, rep.summary())
        for phis, psis in product(sets, repeat=2):
            p, q = phis.corep.label, psis.corep.label
            system = cs3_fun.cg(p, q) if side == "R" else cs3_fun.cg(q, p)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinearDependenceWarning)
                coupled = coupled_basis_functions(phis, psis, system, table)
            for bset in coupled.values():
                assert bset.carrier is coideal.carrier
                assert check_basis_functions(bset) < 1e-9, (side, bset.label)
            assert coupled_inverse_residual(phis, psis, system, coupled) < 1e-9
        on_a = canonical_basis_functions(table["p0"], side, 0)
        with pytest.raises(ValueError, match="different carriers"):
            basis_function_orthogonality(sets[0], on_a, np.eye(coideal.dim))
        with pytest.raises(ValueError, match="different carriers"):
            coupled_basis_functions(sets[0], on_a, cs3_fun.cg("p0", "p0"), table)


def test_restrict_rejects_outside_elements(coset_ctx, cs3_fun):
    side, coideal = coset_ctx
    outsider = np.zeros(6, dtype=complex)
    outsider[2] = 1.0
    with pytest.raises(CoidealMismatch):
        coideal.restrict(outsider)


def _legs_and_products(coideal):
    """The coaction of ``B``'s ONB (first leg last) and its pairwise products, in ``A``."""
    onb, alg = coideal.onb, coideal.algebra
    legs = np.tensordot(onb, regular_carrier(alg, coideal.side).coact, axes=(1, 0))
    products = np.tensordot(onb, np.tensordot(onb, alg.mult, axes=(1, 1)), axes=(1, 1))
    return legs.transpose(0, 2, 1), products


def test_coaction_escape_raises(cs3_fun):
    """span{delta_e} is closed under products but is not a left coideal: building
    its carrier fails on the coaction tensor, while its products stay inside."""
    rows = np.zeros((1, 6), dtype=complex)
    rows[0, 0] = 1.0
    coideal = subspace_coideal(rows, "L", cs3_fun.grams)
    legs, products = _legs_and_products(coideal)
    coideal.restrict(products)
    with pytest.raises(CoidealMismatch):
        coideal.restrict(legs)
    with pytest.raises(CoidealMismatch):
        coideal.carrier


def test_product_escape_raises(cs3_fun):
    """Row 0 of the 2-dim irrep spans a right coideal that is not closed under
    products: building its carrier fails on the product tensor."""
    rows = cs3_fun.table["p2"].coeffs[0]
    coideal = subspace_coideal(rows, "R", cs3_fun.grams)
    legs, products = _legs_and_products(coideal)
    coideal.restrict(legs)
    with pytest.raises(CoidealMismatch):
        coideal.restrict(products)
    with pytest.raises(CoidealMismatch):
        coideal.carrier


def test_each_coideal_keeps_its_own_gram(cs3_fun):
    """Two coideals on the same cosets, built with Grams that differ by a factor 4,
    each restrict and carry in their own orthonormal basis."""
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    scaled = GramPair(alg, 4.0 * grams.matrix)
    for side in ("L", "R"):
        plain = build_coset_subalgebra(S3, SUBGROUP, side, grams)
        other = build_coset_subalgebra(S3, SUBGROUP, side, scaled)
        assert np.abs(other.onb - plain.onb / 2.0).max() < 1e-12
        for coideal in (plain, other):
            assert np.abs(coideal.restrict(coideal.onb) - np.eye(3)).max() < 1e-12
            assert coideal.carrier is coideal.carrier
        assert np.abs(other.carrier.coact - plain.carrier.coact).max() < 1e-12
        assert other.carrier is not plain.carrier


def test_restrict_stack_matches_rows(coset_ctx, cs3_fun):
    """``restrict`` maps a ``(..., n)`` stack as it maps each row (up to roundoff),
    back to the coordinates the stack was embedded from."""
    side, coideal = coset_ctx
    rng = np.random.default_rng(11)
    shape = (2, 4, coideal.dim)
    coords = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = coideal.embed(coords)
    rows = np.array([[coideal.restrict(vec) for vec in row] for row in stack])
    stacked = coideal.restrict(stack)
    assert stacked.shape == shape
    assert np.abs(stacked - rows).max() < 1e-13
    assert np.abs(rows - coords).max() < 1e-12


def test_s2_invariance_flag(coset_ctx):
    side, coideal = coset_ctx
    report = verify_coideal(coideal)
    name = ("S^2 invariance" if side == "L" else "S^2 invariance (informational)")
    assert (report[name].passed if side == "L" else  # side R: recorded, not certified
            name not in [c.name for c in report.checks]
            and report.meta["S^2 invariance"] < 1e-12)
