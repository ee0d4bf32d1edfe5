"""A corepresentation is its coefficients: frozen fields, read-only coefficients, and
``F`` certified on read, so every answer is the same whatever ran before.

The three history cases below are the ones a mutable corep got wrong: a fresh copy
of an irrep refused as a triple-Haar target until an orthogonality report had run
on it, and a non-unitary conjugate (built directly or by ``dataclasses.replace``
from a unitary irrep) whose left canonical set was accepted unless a unitarity
report had flagged it.  The irrep table is frozen the same way: its irreps,
labels and multiplicities are tuples, so the characters it caches cannot fall
behind an edited irrep.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cqglab import corep
from cqglab.cg import solve_cg, verify_triple_haar
from cqglab.corep import (Corepresentation, IrrepTable, check_unitary, irrep_table, verify_corep,
                          verify_orthogonality)
from cqglab.errors import NotUnitary
from cqglab.regular import canonical_basis_functions, check_basis_functions
from cqglab.tensor_ops import solve_family_space

SKEW = np.array([[1.0, 0.5], [0.0, 1.0]])


def _conjugate(coeffs: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
    """``T^{-1} pi T`` entrywise."""
    return np.einsum("ja,abm,bk->jkm", np.linalg.inv(t_mat), coeffs, t_mat)


def _triple(ctx, target):
    system = ctx.cg("p2", "p2")
    p2 = ctx.table["p2"]
    return verify_triple_haar(p2, p2, target, system, system, ctx.haar).to_dict()


def test_fresh_target_passes_in_either_order(cs3_fun):
    h, p2 = cs3_fun.haar, cs3_fun.table["p2"]
    first = Corepresentation(cs3_fun.algebra, p2.coeffs, label="p2")
    triple_first = _triple(cs3_fun, first)
    orth_after = verify_orthogonality(first, first, h).to_dict()
    second = Corepresentation(cs3_fun.algebra, p2.coeffs, label="p2")
    orth_first = verify_orthogonality(second, second, h).to_dict()
    triple_after = _triple(cs3_fun, second)
    assert triple_first["passed"] and orth_first["passed"]
    assert triple_first == triple_after == _triple(cs3_fun, p2)
    assert orth_first == orth_after


@pytest.mark.parametrize("checked_first", [False, True])
def test_non_unitary_conjugate_has_no_left_set(cs3_fun, checked_first):
    p2 = cs3_fun.table["p2"]
    moved = Corepresentation(p2.algebra, _conjugate(p2.coeffs, SKEW), label="moved")
    if checked_first:
        assert not check_unitary(moved).passed
    assert verify_corep(moved).passed
    with pytest.raises(NotUnitary, match="moved"):
        canonical_basis_functions(moved, "L", 0)
    assert check_basis_functions(canonical_basis_functions(moved, "R", 0)) < 1e-12


def test_replace_keeps_no_certificate(cs3_fun):
    """``dataclasses.replace`` makes a new corep from the new coefficients alone."""
    p2 = cs3_fun.table["p2"]
    skewed = dataclasses.replace(p2, coeffs=_conjugate(p2.coeffs, SKEW))
    assert skewed.label == "p2" and skewed.algebra is p2.algebra
    with pytest.raises(NotUnitary):
        canonical_basis_functions(skewed, "L", 0)
    assert not check_unitary(skewed).passed
    assert check_basis_functions(canonical_basis_functions(p2, "L", 0)) < 1e-12


def test_fields_are_frozen_and_coefficients_read_only(cs3_fun):
    p2 = cs3_fun.table["p2"]
    assert [f.name for f in dataclasses.fields(Corepresentation)] == [
        "algebra", "coeffs", "label"]
    for name, value in (("label", "x"), ("coeffs", p2.coeffs), ("F", np.eye(2)),
                        ("unitary", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p2, name, value)
    with pytest.raises(ValueError):
        p2.coeffs[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        p2.F[0, 0] = 2.0


def test_coefficients_are_a_copy(cs3_fun):
    """The caller's array stays writable, and writing into it does not move the corep."""
    source = np.array(cs3_fun.table["p2"].coeffs)
    pi = Corepresentation(cs3_fun.algebra, source, label="copy")
    source[0, 0] = 0.0
    assert np.array_equal(pi.coeffs, cs3_fun.table["p2"].coeffs)


def test_f_is_a_cached_read_only_identity(contexts):
    for label, ctx in contexts.items():
        for pi in ctx.table:
            assert pi.F is pi.F, (label, pi.label)
            assert np.array_equal(pi.F, np.eye(pi.dim)) and not pi.F.flags.writeable


def test_residuals_are_one_read_only_pass_per_corep(cs3_fun, monkeypatch):
    """Repeated left canonical sets, the left families and both certificates of one
    corep read its residuals from one :func:`corep._corep_residuals` call."""
    calls, real = [], corep._corep_residuals
    monkeypatch.setattr(corep, "_corep_residuals",
                        lambda coreps: calls.append(len(coreps)) or real(coreps))
    pi = Corepresentation(cs3_fun.algebra, cs3_fun.table["p2"].coeffs, label="p2")
    for _ in range(3):
        for row in range(pi.dim):
            canonical_basis_functions(pi, "L", row)
    assert calls == [1]
    for kind in ("ordinary", "twisted"):
        solve_family_space(pi, kind, "L")
    assert verify_corep(pi).passed and check_unitary(pi).passed
    assert calls == [1]
    assert dict(pi.residuals) == real([pi])[0]
    with pytest.raises(TypeError):
        pi.residuals["counit is identity"] = 0.0


def test_irrep_table_is_frozen_after_its_caches_are_read(contexts):
    """The stale-cache reproduction: on a mutable table, reading ``characters`` on C(S3)
    and then assigning ``t.irreps[2]`` left the cached character of p2 behind the
    new irrep, and ``solve_cg(t[2], t[2], t, h)`` raised ``MultiplicityMismatch``.
    Irreps, labels and multiplicities are tuples on a frozen table, so the edit
    itself fails and the caches stay the table's."""
    ctx = contexts["C(S3)"]
    t = irrep_table(ctx.algebra, ctx.haar, ctx.grams.gram_right)
    before = t.characters.copy()
    p2 = t["p2"]
    with pytest.raises(TypeError):
        t.irreps[2] = Corepresentation(ctx.algebra, 2 * p2.coeffs, "p2")
    for name, value in (("irreps", list(t.irreps)), ("labels", ["a", "b", "c"]),
                        ("multiplicities", [1, 1, 2]), ("algebra", ctx.algebra)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, value)
    assert isinstance(t.irreps, tuple) and isinstance(t.labels, tuple)
    assert isinstance(t.multiplicities, tuple)
    assert np.array_equal(t.characters, before)
    assert solve_cg(t[2], t[2], t, ctx.haar).multiplicities == {"p0": 1, "p1": 1, "p2": 1}


def test_irrep_table_keeps_lists_as_tuples(cs3_fun):
    """A table built from lists holds tuples of its own: editing the lists later does
    not reach it."""
    table = cs3_fun.table
    irreps, mults = list(table.irreps), list(table.multiplicities)
    copy = IrrepTable(table.algebra, table.haar, irreps, mults)
    irreps.pop()
    mults.pop()
    assert len(copy) == 3 and copy.multiplicities == (1, 1, 2)
    assert copy.labels == ("p0", "p1", "p2")
