"""Real structure constants stay real.

A spec stores its six structure arrays in one dtype: float64 when no entry has
a nonzero imaginary part, complex128 otherwise.  What is derived from the spec
alone (the inverse antipode, both regular carriers, the dual) inherits it, so
the axiom suites, the product rules, the commutant certificate and the dual
action run real BLAS on a real spec.  The oracle here is a complex-stored twin
of each real bed run through the same kernels: its residuals must be the same,
bit for bit on 0/1 beds, and the negative controls must fail on both.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

from beds import alternating_group_4, context, rotated_algebra, select
from oracles import sweedler_algebra

from cqglab import io as cio
from cqglab.algebra import (HopfAlgebraSpec, _legwise_product, build_dual, verify_hopf_axioms,
                            verify_star_axioms)
from cqglab.cli import _load_source
from cqglab.groups import builtin_algebras
from cqglab.regular import dual_action_crosscheck, product_coaction_check, regular_carrier
from cqglab.tensor_ops import _certify_commutant

FIELDS = ("mult", "comult", "antipode", "counit", "unit", "star")


def _derived(alg) -> dict[str, np.ndarray]:
    """Every array computed from the spec alone, by name."""
    dual = build_dual(alg)
    out = {name: getattr(alg, name) for name in FIELDS}
    for side in ("R", "L"):
        carrier = regular_carrier(alg, side)
        out[f"coact {side}"], out[f"product {side}"] = carrier.coact, carrier.product
    out.update((f"dual {name}", getattr(dual, name)) for name in FIELDS)
    out["legwise product"] = _legwise_product(alg.comult, alg.mult)
    return out


def _assert_dtype(alg, dtype) -> None:
    for name, arr in _derived(alg).items():
        assert arr.dtype == dtype, (alg.label, name, arr.dtype)


def test_builtins_are_real():
    for alg in builtin_algebras().values():
        _assert_dtype(alg, np.float64)


@pytest.mark.parametrize("construction", ["function", "group"])
def test_group_files_are_real(tmp_path, construction):
    """A ``--group`` spec, read the way the CLI reads it, holds float64."""
    path = tmp_path / "A4.json"
    cio.save_group(alternating_group_4(), path)
    args = argparse.Namespace(algebra=None, group=str(path), builtin=None,
                              construction=construction)
    _assert_dtype(_load_source(args)[0], np.float64)


def test_algebra_file_with_zero_imaginary_parts_is_real(tmp_path):
    """``load_algebra`` reads complex pairs; a file whose imaginary parts are all 0
    gives a real spec, equal entry for entry to the one saved."""
    alg = builtin_algebras()["C[S3]"]
    path = tmp_path / "cs3.json"
    cio.save_algebra(alg, path)
    loaded = cio.load_algebra(path)
    _assert_dtype(loaded, np.float64)
    for name in FIELDS:
        assert np.array_equal(getattr(loaded, name), getattr(alg, name)), name


def test_one_imaginary_entry_makes_every_array_complex():
    """One entry of ``1e-6j`` in ``star`` makes all six arrays complex128, not just that
    one, so no kernel mixes the two dtypes."""
    alg = builtin_algebras()["C(S3)"]
    star = alg.star + 0j
    star[1, 2] = 1e-6j
    noisy = HopfAlgebraSpec(alg.dim, alg.mult, alg.comult, alg.antipode, alg.counit,
                            alg.unit, star)
    _assert_dtype(noisy, np.complex128)
    assert noisy.star[1, 2] == 1e-6j


def test_narrowing_copies_once_and_keeps_the_callers_array():
    """A complex array with zero imaginary parts is narrowed into a new read-only
    float64 array; the caller's array keeps its dtype and stays writable."""
    alg = builtin_algebras()["C(Z3)"]
    given = {name: np.array(getattr(alg, name), dtype=complex) for name in FIELDS}
    spec = HopfAlgebraSpec(alg.dim, **given)
    for name in FIELDS:
        arr = getattr(spec, name)
        assert arr.dtype == np.float64 and not arr.flags.writeable, name
        assert given[name].dtype == np.complex128 and given[name].flags.writeable, name
        assert not np.shares_memory(arr, given[name]), name


# ---------------------------------------------------------------------------
# the oracle: a complex-stored twin through the same kernels
# ---------------------------------------------------------------------------

def _complex_twin(alg) -> HopfAlgebraSpec:
    """``alg`` with its six arrays stored complex128, as every spec was before specs
    narrowed; built by hand, since the constructor would narrow them again."""
    twin = HopfAlgebraSpec(alg.dim, *(getattr(alg, name) for name in FIELDS), label=alg.label)
    for name in FIELDS:
        arr = getattr(alg, name).astype(complex)
        arr.setflags(write=False)
        object.__setattr__(twin, name, arr)
    return twin


def _kernel_residuals(alg) -> dict[str, float]:
    """Every residual of the spec-only kernels: the Hopf and star axioms, both product
    rules, the dual action and the commutant certificate on both sides."""
    reports = [verify_hopf_axioms(alg), verify_star_axioms(alg),
               product_coaction_check(alg, "R"), product_coaction_check(alg, "L"),
               dual_action_crosscheck(alg)]
    out = {f"{report.title}: {check.name}": check.residual
           for report in reports for check in report.checks}
    # convs[x, t, s]: the convolutions of solve_family_space, as it builds them
    for side, convs in (("R", alg.comult.transpose(1, 2, 0)),
                        ("L", alg.comult.transpose(2, 1, 0))):
        out[f"commutant {side}"] = _certify_commutant(
            convs, regular_carrier(alg, side).coact, np.inf)
    return out


@pytest.mark.parametrize("label", [*select(lambda bed: bed.real and bed.n <= 24),
                                   "C(S3)(x)C[S3]", "Sweedler"])
def test_real_kernels_match_the_complex_twin_bit_for_bit(label):
    """Every real bed with n <= 24, C(S3) (x) C[S3] as the one at n = 36, and Sweedler's
    algebra, which has no Haar functional, have structure constants in (1/16) Z (integers
    but for the twists' J): every sum is exact, so real and complex BLAS give the same
    residuals, bit for bit."""
    alg = sweedler_algebra() if label == "Sweedler" else context(label).algebra
    _assert_dtype(alg, np.float64)
    assert _kernel_residuals(alg) == _kernel_residuals(_complex_twin(alg))


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]"])
@pytest.mark.parametrize("seed", [1, 2])
def test_real_kernels_match_the_complex_twin_on_a_rotated_bed(label, seed):
    """In a real orthogonal basis the constants are dense and not 0 or 1: the two
    dtypes may round differently, within ``1e-15`` times the magnitude."""
    alg = rotated_algebra(builtin_algebras()[label], seed, real=True)
    _assert_dtype(alg, np.float64)
    real, twin = _kernel_residuals(alg), _kernel_residuals(_complex_twin(alg))
    assert real.keys() == twin.keys()
    for name, value in real.items():
        assert abs(value - twin[name]) <= 1e-15 * alg.magnitude, (name, value, twin[name])


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def _perturbed(alg, name: str, index: tuple, delta: complex) -> HopfAlgebraSpec:
    arrays = {field: np.array(getattr(alg, field), dtype=complex) for field in FIELDS}
    arrays[name][index] += delta
    return HopfAlgebraSpec(alg.dim, **arrays, label=f"{alg.label}+{name}{index}")


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]"])
def test_real_comult_perturbation_fails_the_bialgebra_axiom(label):
    """``1e-6`` on one ``comult`` entry keeps the spec real and fails ``bialgebra`` and
    the right product rule, as it does on the complex twin."""
    noisy = _perturbed(builtin_algebras()[label], "comult", (0, 1, 2), 1e-6)
    _assert_dtype(noisy, np.float64)
    for spec in (noisy, _complex_twin(noisy)):
        assert not verify_hopf_axioms(spec)["bialgebra"].passed
        assert not product_coaction_check(spec, "R")["product rule"].passed


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]"])
def test_imaginary_mult_perturbation_stays_complex_and_fails_associativity(label):
    """``1e-6j`` on one ``mult`` entry makes the spec complex and fails associativity."""
    noisy = _perturbed(builtin_algebras()[label], "mult", (0, 1, 2), 1e-6j)
    _assert_dtype(noisy, np.complex128)
    report = verify_hopf_axioms(noisy)
    assert not report["associativity"].passed
    assert report["associativity"].residual >= 0.5e-6
