from __future__ import annotations

import numpy as np
import pytest

from oracles import haar_invariance_rows

from cqglab.algebra import HopfAlgebraSpec, LinearFunctional
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


def test_invariance_rows_match_the_loop_construction(contexts, cs4_fun, monkeypatch):
    """The system ``solve_haar`` factors is bit-identical to the per-entry loop."""
    seen = []
    svd = np.linalg.svd

    def recording(a, *args, **kw):
        seen.append(np.array(a))
        return svd(a, *args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording)
    for alg in [ctx.algebra for ctx in contexts.values()] + [cs4_fun.algebra]:
        seen.clear()
        solve_haar(alg)
        rows = haar_invariance_rows(alg)
        assert len(seen) == 1 and seen[0].shape == rows.shape, alg.label
        assert seen[0].tobytes() == rows.tobytes(), alg.label


def test_certificates_and_lemmas(contexts):
    for label, ctx in contexts.items():
        assert certify_haar(ctx.haar, 1e-12).passed, label
        lemmas = verify_haar_lemmas(ctx.algebra, ctx.haar, 1e-10)
        assert lemmas.passed, f"{label}: {lemmas.summary()}"


def test_counit_is_not_invariant():
    alg = build_function_algebra(cyclic_group(2))
    eps = LinearFunctional(alg, alg.counit.copy())
    report = verify_haar_lemmas(alg, eps)
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
    for label, ctx in contexts.items():
        assert regular_unitarity_report(ctx.algebra, ctx.grams, 1e-12).passed, label
        assert regular_invariance_report(ctx.algebra, ctx.haar, 1e-12).passed, label


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


def test_nullity_cut_follows_tol():
    """Noise of 1e-11 on the coproduct sits above a fixed 1e-12 cut but far
    below ``tol = 1e-5``; the solver must still find the (near-exact) Haar."""
    alg = build_function_algebra(symmetric_group_3())
    rng = np.random.default_rng(1)
    noisy = HopfAlgebraSpec(alg.dim, alg.mult,
                            alg.comult + 1e-11 * rng.standard_normal(alg.comult.shape),
                            alg.antipode, alg.counit, alg.unit, alg.star, label="noisy")
    h = solve_haar(noisy, tol=1e-5)
    assert np.abs(h.covector - solve_haar(alg).covector).max() < 1e-6
