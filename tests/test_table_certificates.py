"""Table-wide comodule, unitarity, orthogonality and tensor-operator certificates
against the per-irrep and per-pair oracles.

``irrep_table`` computes every irrep's comodule and unitarity residuals in one
stacked pass per dimension class (``IrrepTable.residuals``); ``cqglab irreps``
reads its Schur and character orthogonality reports off two Grams each; and
``cqglab tensor-ops`` checks the identity operator and every irrep's
multiplication family of a variant as one operator stack (``check_families``).
Every residual must match the formulas kept in ``oracles`` to
``1e-13 * max(want, 1)``; a tensor-operator residual is ``kappa`` times the dense
routes' residual in P's basis to that accuracy, at least the per-operator einsum
chains' input-basis residual, and gives their verdict (:func:`bounds_oracles`).
C(Z3) and C(A4) have irreps that are not real-valued, so they pin the star
convention of the character Gram; C(S3) (x) C[S3] is neither commutative nor
cocommutative.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest

from beds import BUILTINS, context
from oracles import (dense_family_residuals, per_irrep_certificates, per_operator_family_residual,
                     per_pair_characters, per_pair_schur)

from cqglab import cli
from cqglab import io as cio
from cqglab.algebra import LinearFunctional
from cqglab.cg import _character_report
from cqglab.corep import (Corepresentation, IrrepTable, _schur_report, check_unitary,
                          identity_corep, verify_corep)
from cqglab.regular import canonical_basis_functions
from cqglab.tensor_ops import (VARIANTS, TensorOperatorFamily, check_families, check_family,
                               multiplication_family)

def close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-13 * max(want, 1.0)


def bounds_oracles(got: float, fam, table, kind: str, side: str, what=()) -> float:
    """Assert that ``got`` is ``kappa`` times the dense routes' residual in P's basis, at
    least the input-basis residual of the dense routes and of the per-operator einsum
    chains (which agree), and on the same side of ``1e-10`` times the squared magnitude
    as both; return the chains' residual."""
    dense, in_p = dense_family_residuals(fam, table, kind, side)
    loop = per_operator_family_residual(fam, kind, side)
    tol = 1e-10 * table.algebra.magnitude ** 2
    assert close(got / table._peter_weyl.kappa(), in_p), (*what, got, in_p)
    assert close(dense, loop), (*what, dense, loop)
    assert got >= max(dense, loop), (*what, got, dense, loop)
    assert (got <= tol) == (dense <= tol) == (loop <= tol), (*what, got, loop)
    return loop


@pytest.fixture(params=[*BUILTINS, "C(A4)", "C[A4]", "C(S3)(x)C[S3]"])
def ctx(request):
    return context(request.param)


def all_pairs(table) -> list[tuple[int, int]]:
    return [(p, q) for p in range(len(table)) for q in range(p, len(table))]


def schur_oracle(table, h) -> dict[str, float]:
    return {f"{table.labels[p]} vs {table.labels[q]}: {name}": value
            for p, q in all_pairs(table)
            for name, value in per_pair_schur(table[p], table[q], h).items()}


def character_oracle(table, h) -> dict[str, complex]:
    return {f"{table.labels[p]} vs {table.labels[q]}: {name}": value
            for p, q in all_pairs(table)
            for name, value in per_pair_characters(table[p], table[q], h).items()}


def assert_character_checks(report, want: dict[str, complex]):
    assert [c.name for c in report.checks] == list(want)
    for check, (name, value) in zip(report.checks, want.items()):
        p, q = name.split(":")[0].split(" vs ")
        residual = abs(value - (1.0 if p == q else 0.0))
        assert close(check.residual, residual), (name, check.residual, residual)
        assert abs(complex(*check.details["value"]) - value) <= 1e-13, name


def test_corep_residuals_match_per_irrep_oracle(ctx):
    table = ctx.table
    for pi, residuals in zip(table, table.residuals):
        want = per_irrep_certificates(pi)
        assert residuals.keys() == want.keys()
        for name, value in want.items():
            assert close(residuals[name], value), (pi.label, name, residuals[name], value)
        assert verify_corep(pi).passed and check_unitary(pi).passed


def test_orthogonality_grams_match_per_pair_oracle(ctx):
    table, h = ctx.table, ctx.haar
    schur = _schur_report(table.irreps, all_pairs(table), h, 1e-10)
    want = schur_oracle(table, h)
    assert schur.title == "schur orthogonality [table]"
    assert [c.name for c in schur.checks] == list(want)
    for check, value in zip(schur.checks, want.values()):
        assert close(check.residual, value), (check.name, check.residual, value)
    assert schur.passed
    chars = _character_report(table.characters, table.labels, all_pairs(table), h, 1e-10)
    assert chars.title == "character orthogonality [table]"
    assert_character_checks(chars, character_oracle(table, h))
    assert chars.passed


@pytest.mark.parametrize("label", ["C(Z3)", "C(A4)"])
def test_star_convention_on_complex_characters(label):
    """A non-real character is not its own star, so ``h(chi_p chi_q)`` in place of
    ``h(chi_p^* chi_q)`` would fail; the Gram reads 1 on the diagonal only."""
    ctx = context(label)
    chars = ctx.table.characters
    assert np.abs(chars.imag).max() > 0.1
    report = _character_report(chars, ctx.table.labels, all_pairs(ctx.table), ctx.haar, 1e-10)
    values = {c.name: complex(*c.details["value"]) for c in report.checks}
    for name, value in values.items():
        p, q = name.split(":")[0].split(" vs ")
        assert abs(value - (p == q)) < 1e-12, name
    unstarred = chars @ (ctx.algebra.mult @ ctx.haar.covector) @ chars.T  # h(chi_p chi_q)
    assert np.abs(unstarred - np.eye(len(chars))).max() > 0.5


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]", "C(A4)"])
def test_irreps_cli_layout_matches_oracles(tmp_path, label):
    """One ``corep axioms`` and one ``unitarity`` report per irrep, then the two table
    reports, with one check per (p, q) pair and order."""
    ctx = context(label)
    table = ctx.table
    path = tmp_path / "spec.json"
    cio.save_algebra(ctx.algebra, path)
    out = tmp_path / "irreps.json"
    assert cli.main(["irreps", "--algebra", str(path), "--output", str(out)]) == 0
    reports = {rep["title"]: rep for rep in json.loads(out.read_text())["reports"]}
    for pi in table:
        want = per_irrep_certificates(pi)
        for title in (f"corep axioms [{pi.label}]", f"unitarity [{pi.label}]"):
            for check in reports[title]["checks"]:
                assert close(check["residual"], want[check["name"]]), (title, check["name"])
    schur = reports["schur orthogonality [table]"]["checks"]
    want = schur_oracle(table, ctx.haar)
    assert [c["name"] for c in schur] == list(want)
    assert all(close(c["residual"], value) for c, value in zip(schur, want.values()))
    chars = reports["character orthogonality [table]"]["checks"]
    assert len(chars) == len(table) * (len(table) + 1)
    assert not any("orthogonality [p" in title for title in reports)


def family_stack(ctx, kind, side, labels):
    ident = TensorOperatorFamily(identity_corep(ctx.algebra), kind, side,
                                 np.eye(ctx.algebra.dim)[None])
    return [ident] + [multiplication_family(canonical_basis_functions(ctx.table[q], side, 0),
                                            kind) for q in labels]


def stack_labels(label, table) -> list[str]:
    """Every irrep, but on C(S3) (x) C[S3] (n = 36, where the per-operator einsum oracle
    is n^5 per operator and route) one nontrivial 1-dim irrep and one 2-dim irrep."""
    if label != "C(S3)(x)C[S3]":
        return list(table.labels)
    return [next(lab for lab, d in zip(table.labels[1:], table.dims()[1:]) if d == 1),
            next(lab for lab, d in zip(table.labels, table.dims()) if d == 2)]


@pytest.mark.parametrize("label", [*BUILTINS, "C(A4)", "C[A4]", "C(S3)(x)C[S3]", "rot C(S3)",
                                   "rot C[S3]"])
def test_family_stack_matches_per_operator_oracle(label):
    """Own and swapped variants (own only at n = 36): each family's residual in the stack
    bounds the oracles' (:func:`bounds_oracles`) and matches the family checked on its
    own.  On the rotated beds P is far from a permutation of the input basis."""
    ctx = context(label)
    mixed = label == "C(S3)(x)C[S3]"
    variants = [VARIANTS[0], VARIANTS[3]] if mixed else VARIANTS
    for kind, side in variants:
        fams = family_stack(ctx, kind, side, stack_labels(label, ctx.table))
        for other, other_side in [(kind, side)] if mixed else variants:
            got = check_families(fams, ctx.table, other, other_side)
            for fam, value in zip(fams, got):
                bounds_oracles(value, fam, ctx.table, other, other_side,
                               (label, fam.label, kind, side, other, other_side))
                assert close(check_family(fam, ctx.table, other, other_side), value)


def test_tensor_ops_cli_matches_per_operator_oracle(tmp_path):
    ctx = context("C(A4)")
    path = tmp_path / "spec.json"
    cio.save_algebra(ctx.algebra, path)
    out = tmp_path / "tensor-ops.json"
    assert cli.main(["tensor-ops", "--algebra", str(path), "--output", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    assert [rep["title"] for rep in reports] == [f"identity operator [{ctx.algebra.label}]"] + [
        f"multiplication families [{q}]" for q in ctx.table.labels]
    for v, (kind, side) in enumerate(VARIANTS):
        fams = family_stack(ctx, kind, side, ctx.table.labels)
        for rep, fam in zip(reports, fams):
            check = rep["checks"][v]
            assert check["name"] == (f"identity {kind}-{side}" if fam is fams[0]
                                     else f"{kind}-{side}")
            bounds_oracles(check["residual"], fam, ctx.table, kind, side, (fam.label, kind, side))


def test_perturbed_coefficient_fails_engine_and_oracle():
    """C(S3)'s 2-dim irrep with its matrix at one basis element moved by a random 0.1-scale
    matrix (so its character moves and its row and column products differ): its
    comodule, unitarity, Schur and character certificates fail in the stacked engines
    and in the oracles alike, and the other irreps' pass.  A 2-dim family whose second
    operator is moved fails both as well."""
    ctx = context("C(S3)")
    table, h = ctx.table, ctx.haar
    coeffs = table["p2"].coeffs.copy()
    coeffs[:, :, 3] += 0.1 * np.random.default_rng(1).standard_normal((2, 2))
    bad = Corepresentation(ctx.algebra, coeffs, label="p2")
    broken = IrrepTable(ctx.algebra, h, (*table.irreps[:2], bad), table.multiplicities)
    for pi, residuals in zip(broken, broken.residuals):
        want = per_irrep_certificates(pi)
        for name, value in want.items():
            assert close(residuals[name], value), (pi.label, name)
        assert (max(want.values()) > 1e-3) == (pi is bad)
    schur = _schur_report(broken.irreps, all_pairs(broken), h, 1e-10)
    want = schur_oracle(broken, h)
    for check, value in zip(schur.checks, want.values()):
        assert close(check.residual, value), check.name
        assert check.passed == (value <= check.tol)
    assert not schur["p2 vs p2: h(pi S(pi)) = d_jn F_mk/trF"].passed
    chars = _character_report(broken.characters, broken.labels, all_pairs(broken), h, 1e-10)
    assert_character_checks(chars, character_oracle(broken, h))
    assert not chars["p2 vs p2: forward"].passed
    assert chars["p0 vs p1: forward"].passed
    want = per_irrep_certificates(bad)
    assert abs(want["rows orthonormal"] - want["columns orthonormal"]) > 1e-3
    fams = family_stack(ctx, "ordinary", "R", ["p2"])
    noisy = TensorOperatorFamily(bad, "ordinary", "R", fams[1].operators)
    moved = fams[1].operators.copy()
    moved[1] += 0.05 * np.random.default_rng(2).standard_normal(moved[1].shape)
    second = TensorOperatorFamily(table["p2"], "ordinary", "R", moved)
    got = check_families([fams[0], noisy, second], table)
    loops = [bounds_oracles(value, fam, table, "ordinary", "R", (fam.label,))
             for fam, value in zip([noisy, second], got[1:])]
    assert got[0] < 1e-12 < 1e-3 < min(got[1:])
    assert min(loops) > 1e-3                    # the input-basis residual fails as well


def test_grams_follow_the_functional_and_the_order():
    """Under a small non-tracial functional on the noncommutative C[S3] the two Schur
    Grams and the two character orders differ, and each still matches its oracle, so
    neither Gram stands in for the other."""
    ctx = context("C[S3]")
    table = ctx.table
    rng = np.random.default_rng(11)
    covector = rng.standard_normal(ctx.algebra.dim) + 1j * rng.standard_normal(ctx.algebra.dim)
    h = LinearFunctional(ctx.algebra, 0.1 * covector / np.abs(covector).sum())
    schur = _schur_report(table.irreps, all_pairs(table), h, 1e-10)
    want = schur_oracle(table, h)
    assert [c.name for c in schur.checks] == list(want)
    for check, value in zip(schur.checks, want.values()):
        assert close(check.residual, value), (check.name, check.residual, value)
    residuals = [c.residual for c in schur.checks]
    assert max(abs(a - b) for a, b in zip(residuals[::2], residuals[1::2])) > 1e-3
    chars = _character_report(table.characters, table.labels, all_pairs(table), h, 1e-10)
    want = character_oracle(table, h)
    assert_character_checks(chars, want)
    values = list(want.values())
    assert max(abs(a - b) for a, b in zip(values[::2], values[1::2])) > 1e-3


def test_single_pair_calls_are_table_engine_calls():
    """``verify_orthogonality`` and ``character_orthogonality`` on one pair give the
    table report's checks for that pair, under the pair's own title."""
    from cqglab.cg import character_orthogonality
    from cqglab.corep import verify_orthogonality

    ctx = context("C(A4)")
    table, h = ctx.table, ctx.haar
    schur = _schur_report(table.irreps, all_pairs(table), h, 1e-10)
    chars = _character_report(table.characters, table.labels, all_pairs(table), h, 1e-10)
    for p, q in product(table.labels, repeat=2):
        if table.index_of(p) > table.index_of(q):
            continue
        one = verify_orthogonality(table[p], table[q], h, 1e-10)
        assert one.title == f"schur orthogonality [{p} vs {q}]"
        for check in one.checks:
            assert close(check.residual, schur[f"{p} vs {q}: {check.name}"].residual)
        one = character_orthogonality(table[p], table[q], h, 1e-10)
        for check in one.checks:
            assert close(check.residual, chars[f"{p} vs {q}: {check.name}"].residual)
