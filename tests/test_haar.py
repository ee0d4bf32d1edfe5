from __future__ import annotations

import json

import numpy as np
import pytest

from oracles import haar_invariance_rows, rotated_algebra, tensor_product_algebra

from cqglab import cli
from cqglab import io as cio
from cqglab.algebra import HopfAlgebraSpec, LinearFunctional, build_dual
from cqglab.errors import NoHaar, PositivityFailure
from cqglab.groups import build_function_algebra, build_group_algebra, cyclic_group, \
    symmetric_group_3
from cqglab.haar import (certify_haar, gram_matrices, regular_unitarity_report,
                         solve_haar, verify_haar_lemmas)
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


def _rotated_beds(contexts):
    """C(S3) and C[S3] in a random unitary basis, where the star matrix is not real."""
    return [rotated_algebra(contexts[label].algebra, 1) for label in ("C(S3)", "C[S3]")]


def _beds_with_haar(contexts):
    """``(label, algebra, h, grams)`` of every built-in, then of the rotated beds, whose
    non-real star matrix and dense Haar pairing the built-ins do not have."""
    beds = [(label, ctx.algebra, ctx.haar, ctx.grams) for label, ctx in contexts.items()]
    for alg in _rotated_beds(contexts):
        h = solve_haar(alg)
        beds.append((alg.label, alg, h, gram_matrices(alg, h)))
    return beds


def test_regular_trace_is_the_null_vector_of_the_invariance_rows(contexts, cs4_fun):
    """The normalized regular trace spans the null space of the invariance rows,
    built one entry at a time, on every bed: the built-ins, C(S4), C(S3) (x) C[S3]
    and its dual, and the rotated C(S3) and C[S3]."""
    s3 = symmetric_group_3()
    mixed = tensor_product_algebra(build_function_algebra(s3), build_group_algebra(s3))
    beds = ([ctx.algebra for ctx in contexts.values()] + [cs4_fun.algebra, mixed,
                                                           build_dual(mixed)]
            + _rotated_beds(contexts))
    for alg in beds:
        _, sigma, vh = np.linalg.svd(haar_invariance_rows(alg), full_matrices=False)
        assert len(sigma) == 1 or sigma[-2] > 1e-3 * sigma[0], alg.label  # nullity one
        null = np.conj(vh[-1])
        null = null / (alg.unit @ null)
        assert np.abs(solve_haar(alg).covector - null).max() < 1e-12, alg.label


def test_non_real_star_matrix_keeps_the_gram_positive(contexts):
    """The Grams read ``a_j^*`` from ``star[j]`` unconjugated, so on a valid spec whose
    star matrix is not real the Haar functional certifies and both regular coactions
    are unitary for their Grams."""
    for alg in _rotated_beds(contexts):
        assert np.abs(alg.star.imag).max() > 0.1, alg.label
        h = solve_haar(alg)
        assert certify_haar(h, 1e-12).passed, alg.label
        assert regular_unitarity_report(gram_matrices(alg, h), 1e-10).passed, alg.label


@pytest.mark.parametrize("command", ["haar", "irreps", "cg", "tensor-ops", "wigner-eckart"])
def test_subcommands_pass_on_rotated_beds(command, contexts, tmp_path):
    dims = {"C(S3)": [1, 1, 2], "C[S3]": [1] * 6}
    for label, alg in zip(("C(S3)", "C[S3]"), _rotated_beds(contexts)):
        spec, out = tmp_path / "spec.json", tmp_path / "out.json"
        cio.save_algebra(alg, spec)
        assert cli.main([command, "--algebra", str(spec), "--output", str(out)]) == 0, label
        if command == "irreps":
            meta = json.loads(out.read_text())["reports"][0]["meta"]
            assert sorted(meta["dims"]) == dims[label]


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


def test_certificates_and_lemmas(contexts):
    for label, alg, h, _ in _beds_with_haar(contexts):
        assert certify_haar(h, 1e-12).passed, label
        lemmas = verify_haar_lemmas(h, 1e-10)
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


def test_regular_coactions_unitary_and_invariant(contexts):
    for label, alg, h, grams in _beds_with_haar(contexts):
        assert regular_unitarity_report(grams, 1e-12).passed, label
        assert regular_invariance_report(h, 1e-12).passed, label


def test_haar_is_tracial_on_builtins(contexts):
    """Finite-dimensional CQG specs have S^2 = id, which forces a tracial Haar."""
    for label, ctx in contexts.items():
        s = ctx.algebra.antipode
        assert np.abs(s @ s - np.eye(ctx.algebra.dim)).max() < 1e-12, label
        assert ctx.haar.is_tracial(), label


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
