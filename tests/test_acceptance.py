"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 5 is split: the projection identities pass, while its
negative control (asserting the swapped projection ordering visibly fails on
the noncommutative group algebra) is expected RED -- the solved invariant
functional of every valid finite-dimensional spec is tracial, making the two
orderings bit-identical; see the test docstring.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from oracles import (brute_schur_sum, conjugation_family_space_dim,
                     frobenius_coset_multiplicities, s3_character_table, s3_irreps)

from cqglab.algebra import verify_hopf_axioms, verify_star_axioms
from cqglab.cg import character, tensor_product, verify_triple_haar
from cqglab.corep import identity_corep
from cqglab.groups import symmetric_group_3
from cqglab.haar import verify_haar_lemmas
from cqglab.homspace import (build_coset_subalgebra, solve_restricted_basis_functions,
                             subspace_coideal)
from cqglab.regular import BasisFunctionSet, canonical_basis_functions, \
    projection_operator, verify_projection_identities
from cqglab.tensor_ops import (VARIANTS, TensorOperatorFamily, check_family,
                               couple_families, multiplication_family,
                               solve_family_space)
from cqglab.wigner_eckart import verify_wigner_eckart


def _announce(num: int, ok: bool, text: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def test_criterion_01_axiom_suites(algebras):
    start = time.perf_counter()
    worst = 0.0
    for label, alg in algebras.items():
        for report in (verify_hopf_axioms(alg, 1e-12), verify_star_axioms(alg, 1e-12)):
            assert report.passed, f"{label}: {report.summary()}"
            worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    _announce(1, worst <= 1e-12 and elapsed < 1.0,
              f"axiom suites on six built-ins, max residual {worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_haar(contexts):
    start = time.perf_counter()
    worst = 0.0
    for label, ctx in contexts.items():
        n = ctx.algebra.dim
        if label.startswith("C("):
            expected = np.full(n, 1.0 / n)
        else:
            expected = np.zeros(n)
            expected[0] = 1.0
        gap = float(np.abs(ctx.haar.covector - expected).max())
        assert gap < 1e-12, label
        lemmas = verify_haar_lemmas(ctx.algebra, ctx.haar, 1e-10)
        assert lemmas.passed, f"{label}: {lemmas.summary()}"
        worst = max(worst, lemmas.max_residual, gap)
    elapsed = time.perf_counter() - start
    _announce(2, elapsed < 1.0,
              f"Haar solutions and lemmas on six built-ins, max residual {worst:.1e}, "
              f"{elapsed:.2f}s")


def test_criterion_03_peter_weyl(cs3_fun, cs3_grp):
    start = time.perf_counter()
    table = cs3_fun.table
    assert table.dims() == [1, 1, 2]
    assert table.multiplicities == [1, 1, 2]
    assert sum(d * d for d in table.dims()) == 6
    # oracle: block characters agree with the classical character table
    classical = s3_character_table()
    got = sorted(tuple(np.round(character(pi).coeffs.real, 8))
                 for pi in table)
    want = sorted(tuple(np.round(chi.real, 8)) for chi in classical.values())
    assert got == want
    assert cs3_grp.table.dims() == [1] * 6
    assert cs3_grp.table.multiplicities == [1] * 6
    elapsed = time.perf_counter() - start
    _announce(3, elapsed < 2.0,
              f"Peter-Weyl blocks match the classical character table, {elapsed:.2f}s")


def test_criterion_04_schur_orthogonality(cs3_fun):
    h = cs3_fun.haar
    gap = 0.0
    for pi in cs3_fun.table:
        assert np.abs(pi.F - np.eye(pi.dim)).max() < 1e-10
        alg = cs3_fun.algebra
        pair = np.einsum("abl,l->ab", alg.mult, h.covector)
        values = np.einsum("jka,mnb,ab->jkmn", pi.coeffs, pi.antipode_coeffs(), pair)
        expected = np.einsum("jn,mk->jkmn", np.eye(pi.dim), np.eye(pi.dim)) / pi.dim
        gap = max(gap, float(np.abs(values - expected).max()))
    # brute-force oracle on the classical matrix coefficients
    mats = s3_irreps()["standard"]
    for j, k, m, n in itertools.product(range(2), repeat=4):
        brute = brute_schur_sum(mats, j, k, m, n)
        expected = 0.5 if (j == n and m == k) else 0.0
        assert abs(brute - expected) < 1e-12
    _announce(4, gap <= 1e-10,
              f"Schur orthogonality with F = I on every C(S3) irrep, residual {gap:.1e}")


def test_criterion_05_projection_identities(cs3_fun, cs3_grp):
    worst = 0.0
    for ctx in (cs3_fun, cs3_grp):
        for side in ("R", "L"):
            rep = verify_projection_identities(ctx.table, side, ctx.haar, 1e-10)
            assert rep.passed, rep.summary()
            worst = max(worst, rep.max_residual)
    _announce(5, worst <= 1e-10,
              f"projection composition and action identities, residual {worst:.1e}")


def test_criterion_05_negative_control_swapped_ordering(cs3_grp):
    """EXPECTED RED.  The control demands the swapped ordering visibly break
    the projection identities on the noncommutative group algebra.  It cannot:
    the solved invariant functional there is the delta at the identity, which
    is tracial (h(xy) = h(yx) exactly), so both orderings define bit-identical
    operators.  Any finite-dimensional spec that passes the positivity
    certificate has antipode squared equal to the identity and hence a tracial
    functional, so no valid input can make this control fire.  The assertion
    is kept as stated rather than weakened."""
    deviation = 0.0
    for pi in cs3_grp.table:
        for side in ("R", "L"):
            for m in range(pi.dim):
                for n in range(pi.dim):
                    standard = projection_operator(pi, m, n, side, cs3_grp.haar,
                                                   route="constants")
                    swapped = projection_operator(pi, m, n, side, cs3_grp.haar,
                                                  route="constants",
                                                  ordering="swapped")
                    deviation = max(deviation, float(np.abs(standard - swapped).max()))
    _announce(5, deviation > 0.1,
              f"negative control: swapped ordering deviates by {deviation:.1e} "
              "(> 0.1 required)")


def test_criterion_06_clebsch_gordan(cs3_fun):
    table = cs3_fun.table
    h = cs3_fun.haar
    worst_block = 0.0
    worst_triple = 0.0
    for pl, ql in itertools.product(table.labels, repeat=2):
        system = cs3_fun.cg(pl, ql)
        big = tensor_product(table[pl], table[ql])
        conj = np.einsum("ra,abm,bs->rsm", system.Cinv, big.coeffs, system.C)
        expected = np.zeros_like(conj)
        for i, (r1, a1, l1) in enumerate(system.col_index):
            for j2, (r2, a2, l2) in enumerate(system.col_index):
                if (r1, a1) == (r2, a2):
                    expected[i, j2] = table[r1].coeffs[l1, l2]
        worst_block = max(worst_block, float(np.abs(conj - expected).max()))
        for rl in table.labels:
            rep = verify_triple_haar(table[pl], table[ql], table[rl],
                                     system, cs3_fun.cg(ql, pl), h, 1e-9)
            worst_triple = max(worst_triple, rep.max_residual)
            assert rep.passed
    fusion = cs3_fun.cg("p2", "p2").multiplicities
    assert fusion == {"p0": 1, "p1": 1, "p2": 1}
    _announce(6, worst_block <= 1e-9 and worst_triple <= 1e-9,
              f"CG block-diagonalization {worst_block:.1e}, triple-Haar "
              f"{worst_triple:.1e}, standard fusion = trivial+sign+standard")


def test_criterion_07_tensor_operators(contexts, cs3_fun, cs3_grp):
    worst_id = 0.0
    for label, ctx in contexts.items():
        ident = identity_corep(ctx.algebra)
        for kind, side in VARIANTS:
            fam = TensorOperatorFamily(ident, kind, side,
                                       np.eye(ctx.algebra.dim)[None, :, :])
            worst_id = max(worst_id, check_family(fam))
    assert worst_id <= 1e-10

    worst_mult = 0.0
    for ctx in (cs3_fun, cs3_grp):
        for pi in ctx.table:
            for kind, side in VARIANTS:
                bset = canonical_basis_functions(pi, side, 0)
                worst_mult = max(worst_mult, check_family(multiplication_family(bset, kind)))
    assert worst_mult <= 1e-10

    witness = False
    for pi in cs3_grp.table:
        fam = multiplication_family(canonical_basis_functions(pi, "R", 0), "ordinary")
        if check_family(fam) < 1e-10 and check_family(fam, kind="twisted") > 1e-3:
            witness = True
            break
    assert witness, "no ordinary-R family failing the twisted-R condition on C[S3]"

    oracle_dim = conjugation_family_space_dim("standard")
    solved = len(solve_family_space(cs3_fun.table["p2"], "ordinary", "R"))
    assert solved == oracle_dim == 12
    _announce(7, True,
              f"identity/multiplication families (residuals {worst_id:.1e}, "
              f"{worst_mult:.1e}), distinctness witness found, solution space "
              f"dim {solved} = oracle")


def test_criterion_08_wigner_eckart_sweep(cs3_fun, cs3_grp):
    start = time.perf_counter()
    worst = 0.0
    zero_checks = 0
    for ctx in (cs3_fun, cs3_grp):
        for pl, ql, rl in itertools.product(ctx.table.labels, repeat=3):
            for kind, side in VARIANTS:
                phis = canonical_basis_functions(ctx.table[pl], side, 0)
                psis = canonical_basis_functions(ctx.table[rl], side, 0)
                qset = canonical_basis_functions(ctx.table[ql], side, 0)
                fam = multiplication_family(qset, kind)
                order = (ql, pl) if kind == "ordinary" else (pl, ql)
                system = ctx.cg(*order)
                rep = verify_wigner_eckart(psis, fam, phis, system, ctx.table[rl].F,
                                           ctx.grams.gram(side), 1e-9)
                assert rep.passed, (ctx.algebra.label, pl, ql, rl, kind, side)
                worst = max(worst, rep.residual)
                if rl not in system.multiplicities:
                    assert np.abs(rep.tensor).max() < 1e-9
                    zero_checks += 1
    # negative control: wrong CG order on the noncommutative algebra
    control = 0.0
    for pl, ql in itertools.product(cs3_grp.table.labels, repeat=2):
        phis = canonical_basis_functions(cs3_grp.table[pl], "R", 0)
        fam = multiplication_family(
            canonical_basis_functions(cs3_grp.table[ql], "R", 0), "ordinary")
        wrong = cs3_grp.cg(pl, ql)
        for rl in cs3_grp.table.labels:
            psis = canonical_basis_functions(cs3_grp.table[rl], "R", 0)
            rep = verify_wigner_eckart(psis, fam, phis, wrong, cs3_grp.table[rl].F,
                                       cs3_grp.grams.gram("R"), 1e-9)
            control = max(control, rep.residual)
    elapsed = time.perf_counter() - start
    _announce(8, worst <= 1e-9 and control > 1e-3 and elapsed < 10.0,
              f"full W-E sweep ({zero_checks} zero-tensor cases), residual "
              f"{worst:.1e}; swapped CG order control {control:.1e}; {elapsed:.1f}s")


def test_criterion_09_operator_products(contexts, cs3_fun):
    worst = 0.0
    for label, ctx in contexts.items():
        table = ctx.table
        for pl, ql in itertools.product(table.labels, repeat=2):
            for kind, side in VARIANTS:
                fam_p = multiplication_family(
                    canonical_basis_functions(table[pl], side, 0), kind)
                fam_q = multiplication_family(
                    canonical_basis_functions(table[ql], side, 0), kind)
                order = (pl, ql) if kind == "ordinary" else (ql, pl)
                system = ctx.cg(*order)
                for key, fam in couple_families(fam_p, fam_q, system, table).items():
                    res = check_family(fam)
                    worst = max(worst, res)
                    assert res <= 1e-10, (label, pl, ql, kind, side, key)
    # restricted products over the coset space
    s3 = symmetric_group_3()
    for side in ("L", "R"):
        coideal = build_coset_subalgebra(s3, cs3_fun.algebra, [0, 1], side, cs3_fun.grams)
        sets = solve_restricted_basis_functions(cs3_fun.table["p2"], coideal)
        for kind in ("ordinary", "twisted"):
            fam = multiplication_family(sets[0], kind)
            system = cs3_fun.cg("p2", "p2")
            for key, cf in couple_families(fam, fam, system, cs3_fun.table).items():
                res = check_family(cf)
                worst = max(worst, res)
                assert res <= 1e-10, (side, kind, key)
    _announce(9, worst <= 1e-10,
              f"coupled operator families, full and restricted, residual {worst:.1e}")


def test_criterion_10_homogeneous_spaces(cs3_fun):
    s3 = symmetric_group_3()
    worst_we = 0.0
    for side in ("L", "R"):
        coideal = build_coset_subalgebra(s3, cs3_fun.algebra, [0, 1], side, cs3_fun.grams)
        assert coideal.dim == 3
        oracle = frobenius_coset_multiplicities([0, 1], side)
        classical_of = {"p0": "trivial", "p1": "sign", "p2": "standard"}
        sols = {pi.label: solve_restricted_basis_functions(pi, coideal)
                for pi in cs3_fun.table}
        dims = {lbl: len(s) for lbl, s in sols.items()}
        assert dims == {lbl: oracle[classical_of[lbl]] for lbl in dims}
        assert [dims["p0"], dims["p1"], dims["p2"]] == [1, 0, 1]
        std_set = sols["p2"][0]
        for kind in ("ordinary", "twisted"):
            fam = multiplication_family(std_set, kind)
            rep = verify_wigner_eckart(std_set, fam, std_set, cs3_fun.cg("p2", "p2"),
                                       cs3_fun.table["p2"].F, np.eye(coideal.dim), 1e-9)
            assert rep.passed
            worst_we = max(worst_we, rep.residual)

    # with B = A every restricted quantity equals its unrestricted counterpart
    from cqglab.regular import canonical_basis_functions as canon
    from cqglab.wigner_eckart import verify_wigner_eckart as full_we
    gap = 0.0
    std = cs3_fun.table["p2"]
    system = cs3_fun.cg("p2", "p2")
    for side in ("R", "L"):
        coideal = subspace_coideal(cs3_fun.algebra, np.eye(6, dtype=complex), side,
                                   cs3_fun.grams)
        phis = canon(std, side, 0)
        qset = canon(std, side, 1)
        full = full_we(phis, multiplication_family(qset, "ordinary"), phis,
                       system, std.F, cs3_fun.grams.gram(side))

        def to_b(fs):
            return BasisFunctionSet(
                std, side,
                np.array([coideal.restrict(f) for f in fs.functions]),
                carrier=coideal.carrier)

        fam_b = multiplication_family(to_b(qset), "ordinary")
        res = verify_wigner_eckart(to_b(phis), fam_b, to_b(phis), system, std.F,
                                   np.eye(coideal.dim), 1e-9)
        gap = max(gap, float(np.abs(full.tensor - res.tensor).max()),
                  float(np.abs(full.reduced - res.reduced).max()))
    _announce(10, worst_we <= 1e-9 and gap <= 1e-12,
              f"coset space b=3 with solution dims (1,0,1), restricted W-E "
              f"{worst_we:.1e}, B=A consistency gap {gap:.1e}")
