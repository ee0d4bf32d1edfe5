from __future__ import annotations

import json

import numpy as np
import pytest

from beds import context, select, up_to
from oracles import haar_invariance_rows, left_gram

from cqglab import cli
from cqglab import io as cio
from cqglab.algebra import HopfAlgebraSpec, LinearFunctional
from cqglab.errors import NoHaar, PositivityFailure
from cqglab.groups import build_function_algebra, build_group_algebra, cyclic_group, \
    symmetric_group_3
from cqglab.haar import (KAC_CHECKS, HaarFunctional, certify_haar, gram_matrices,
                         regular_unitarity_report, solve_haar, verify_haar_lemmas)
from cqglab.regular import regular_invariance_report


def test_haar_values_match_classical_forms(contexts):
    for label, ctx in contexts.items():
        h = ctx.haar
        if label.startswith("C("):
            n = ctx.algebra.dim
            assert np.abs(h.covector - np.full(n, 1.0 / n)).max() < 1e-12
        else:
            expected = np.zeros(ctx.algebra.dim)
            expected[0] = 1.0
            assert np.abs(h.covector - expected).max() < 1e-12


def test_trivial_algebra():
    alg = build_function_algebra(cyclic_group(1))
    h = solve_haar(alg)
    assert abs(h.covector[0] - 1.0) < 1e-15
    assert certify_haar(h, 1e-12).passed


def test_regular_trace_is_the_null_vector_of_the_invariance_rows():
    """The normalized regular trace spans the null space of the invariance rows,
    built one entry at a time, on every bed with n <= 36."""
    for label in up_to(36):
        ctx = context(label)
        alg, h = ctx.algebra, ctx.haar
        _, sigma, vh = np.linalg.svd(haar_invariance_rows(alg), full_matrices=False)
        assert len(sigma) == 1 or sigma[-2] > 1e-3 * sigma[0], label  # nullity one
        null = np.conj(vh[-1])
        null = null / (alg.unit @ null)
        assert np.abs(h.covector - null).max() < 1e-12, label


def test_non_real_star_matrix_keeps_the_gram_positive():
    """The Grams read ``a_j^*`` from ``star[j]`` unconjugated, so on a valid spec whose
    star matrix is not real the Haar functional certifies (the bed's admission) and both
    regular coactions are unitary for their Grams."""
    for label in select(lambda bed: not bed.real):
        ctx = context(label)
        assert np.abs(ctx.algebra.star.imag).max() > 0.1, label
        assert regular_unitarity_report(ctx.grams, 1e-10).passed, label


@pytest.mark.parametrize("command", ["haar", "irreps", "cg", "tensor-ops", "wigner-eckart"])
def test_subcommands_pass_on_rotated_beds(command, tmp_path):
    for label in select(lambda bed: not bed.real and bed.n <= 6):
        spec, out = tmp_path / "spec.json", tmp_path / "out.json"
        cio.save_algebra(context(label).algebra, spec)
        assert cli.main([command, "--algebra", str(spec), "--output", str(out)]) == 0, label
        if command == "irreps":
            meta = json.loads(out.read_text())["reports"][0]["meta"]
            assert tuple(sorted(meta["dims"])) == context(label).bed.dims


def test_non_cqg_product_gets_no_haar(tmp_path):
    """Doubling ``mult[1, 1, 1]`` of C(S3) leaves ``comult`` with an invariant
    functional, but the product is no longer a CQG algebra's: the regular trace is
    refused, and ``validate`` fails the axioms."""
    alg = build_function_algebra(symmetric_group_3())
    mult = alg.mult.copy()
    mult[1, 1, 1] *= 2
    broken = HopfAlgebraSpec(alg.dim, mult, alg.comult, alg.antipode, alg.counit,
                             alg.unit, alg.star, label="doubled")
    with pytest.raises(NoHaar):
        solve_haar(broken)
    spec = tmp_path / "doubled.json"
    cio.save_algebra(broken, spec)
    assert cli.main(["haar", "--algebra", str(spec)]) == 2
    assert cli.main(["validate", "--algebra", str(spec)]) == 1


def test_certificates_and_lemmas():
    """Every bed with n <= 36 was admitted by ``certify_haar``; its Haar lemmas hold."""
    for label in up_to(36):
        lemmas = verify_haar_lemmas(context(label).haar, 1e-10)
        assert lemmas.passed, f"{label}: {lemmas.summary()}"


def test_counit_is_not_invariant():
    alg = build_function_algebra(cyclic_group(2))
    eps = LinearFunctional(alg, alg.counit.copy())
    report = verify_haar_lemmas(eps)
    assert not report["averaging right"].passed


def test_gram_matrices_values(contexts):
    for label, ctx in contexts.items():
        grams = ctx.grams
        n = ctx.algebra.dim
        if label.startswith("C("):
            assert np.abs(grams.gram_right - np.eye(n) / n).max() < 1e-12
            # commutative with S^2 = id: both inner products coincide
            assert np.abs(grams.gram_right - grams.gram_left).max() < 1e-12
        else:
            assert np.abs(grams.gram_right - np.eye(n)).max() < 1e-12


def test_regular_coactions_unitary_and_invariant():
    for label in up_to(36):
        ctx = context(label)
        assert regular_unitarity_report(ctx.grams, 1e-12).passed, label
        assert regular_invariance_report(ctx.haar, 1e-12).passed, label


def test_haar_is_tracial_on_builtins(contexts):
    """Finite-dimensional CQG specs have S^2 = id, which forces a tracial Haar."""
    for label, ctx in contexts.items():
        s = ctx.algebra.antipode
        assert np.abs(s @ s - np.eye(ctx.algebra.dim)).max() < 1e-12, label
        assert ctx.haar.is_tracial(), label


def test_left_gram_oracle_is_the_one_gram():
    """The paper's left inner product ``h(a_k (S^2 a_j)^*)``, formed by the oracle, is
    positive definite and is the one Gram to ``1e-12`` times the magnitude, and every
    accessor of ``GramPair`` returns that one matrix, on every bed with n <= 36, whose
    admission read the Kac checks below ``1e-12``."""
    for label in up_to(36):
        ctx = context(label)
        alg, grams = ctx.algebra, ctx.grams
        left, positive = left_gram(alg, ctx.haar)
        assert positive, label
        assert np.abs(left - grams.gram("L")).max() <= 1e-12 * alg.magnitude, label
        assert all(m is grams.matrix for m in (grams.gram("R"), grams.gram("L"),
                                               grams.gram_right, grams.gram_left))
        assert max(ctx.admission["haar"][name].residual for name in KAC_CHECKS) < 1e-12, label


def test_moved_antipode_turns_the_kac_check_red():
    """C(S3) with the antipode entry of the transposition (01) moved by 1e-3:
    ``S S - I`` is ``1.001^2 - 1`` there, so ``antipode squares to identity``
    fails while the trace property holds, and ``solve_haar`` refuses the spec
    naming that check.  Invariance does not read the antipode, so it passes."""
    alg = build_function_algebra(symmetric_group_3())
    antipode = np.array(alg.antipode)
    antipode[1, 1] += 1e-3
    moved = HopfAlgebraSpec(alg.dim, alg.mult, alg.comult, antipode, alg.counit, alg.unit,
                            alg.star, label="moved antipode")
    trace = HaarFunctional(moved, moved.mult.trace(axis1=1, axis2=2) / moved.dim)
    report = certify_haar(trace)
    assert not report["antipode squares to identity"].passed
    assert report["antipode squares to identity"].residual == pytest.approx(2.001e-3)
    assert report["trace property"].passed and report["left invariance"].passed
    with pytest.raises(NoHaar, match="antipode squares to identity"):
        solve_haar(moved)


def test_non_class_function_turns_the_trace_check_red():
    """On C[S3] the functional ``delta`` at the 3-cycle (012) is not a class function:
    ``h(g g') = 1`` and ``h(g' g) = 0`` for the transpositions g = (01), g' = (12),
    so ``trace property`` reads 1 and ``is_tracial`` is False, while the antipode
    check passes."""
    alg = build_group_algebra(symmetric_group_3())
    cov = np.zeros(alg.dim)
    cov[4] = 1.0
    h = HaarFunctional(alg, cov)
    report = certify_haar(h)
    assert not report["trace property"].passed and report["trace property"].residual == 1.0
    assert report["antipode squares to identity"].passed
    assert not h.is_tracial()


def test_non_tracial_product_gets_no_haar():
    """Adding ``0.5 e`` to the product ``g_1 g_2`` of C[S3] leaves the regular trace
    and so its invariance unchanged (the trace reads ``mult[j, k, k]`` only), but
    ``h(g_1 g_2) - h(g_2 g_1)`` is 0.5: ``solve_haar`` refuses the spec naming
    ``trace property``."""
    alg = build_group_algebra(symmetric_group_3())
    mult = np.array(alg.mult)
    mult[1, 2, 0] += 0.5
    broken = HopfAlgebraSpec(alg.dim, mult, alg.comult, alg.antipode, alg.counit,
                             alg.unit, alg.star, label="non-tracial")
    with pytest.raises(NoHaar, match="trace property"):
        solve_haar(broken)


def test_no_haar_on_tampered_spec():
    alg = build_group_algebra(symmetric_group_3())
    comult = alg.comult.copy()
    comult[0] = 0.0  # destroying the identity's coproduct forces h(e) = 0
    broken = HopfAlgebraSpec(alg.dim, alg.mult, comult, alg.antipode,
                             alg.counit, alg.unit, alg.star, label="broken")
    with pytest.raises(NoHaar):
        solve_haar(broken)


def test_positivity_failure_detected():
    alg = build_function_algebra(cyclic_group(2))
    h_bad = LinearFunctional(alg, np.array([1.5, -0.5]))  # normalized but signed
    with pytest.raises(PositivityFailure):
        gram_matrices(alg, h_bad)
    assert not left_gram(alg, h_bad)[1]  # the oracle's positivity check fails too


def test_invariance_certificate_follows_tol():
    """Noise of 1e-11 on the coproduct sits above a fixed 1e-12 bound but far
    below ``tol = 1e-5``; the certificate must still accept the (near-exact) Haar."""
    alg = build_function_algebra(symmetric_group_3())
    rng = np.random.default_rng(1)
    noisy = HopfAlgebraSpec(alg.dim, alg.mult,
                            alg.comult + 1e-11 * rng.standard_normal(alg.comult.shape),
                            alg.antipode, alg.counit, alg.unit, alg.star, label="noisy")
    h = solve_haar(noisy, tol=1e-5)
    assert np.abs(h.covector - solve_haar(alg).covector).max() < 1e-6
