"""Every solution space is Hom(pi, W): its dimension is the character count.

``dim Hom(pi, W) = h(chi_W chi_pi^*)`` for a unitary irreducible ``pi`` and
any comodule ``W``, so each solver is checked against a number computed only
from the Haar functional, the algebra's product and star, and the character
of ``W``.  For an operator space ``End(B) = B (x) B^*`` the character is
``chi_B S(chi_B)`` (ordinary) or ``S^{-1}(chi_B) chi_B`` (twisted).

The spaces themselves are checked against :func:`oracles.kronecker_intertwiners`,
which solves ``Phi V = W Phi`` as a tall linear system without ``h``, and
against :func:`oracles.svd_intertwiners`, the nullspace of ``I - P`` by a full
SVD, where the solver takes the range of ``P``.  A spec that is not a
CQG algebra (Sweedler's) is out of scope and must say so with a
``CqglabError``.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from oracles import (haar_average, kronecker_intertwiners, per_pair_cg, svd_intertwiners,
                     sweedler_algebra)

from cqglab import corep
from cqglab.algebra import verify_hopf_axioms
from cqglab.cg import solve_cg, solve_cg_systems, tensor_product
from cqglab.corep import (Corepresentation, _stacked_intertwiners, compute_F,
                          decompose_comodule, irrep_table, morphism_space)
from cqglab.errors import CqglabError, NoF, NoHaar
from cqglab.groups import all_permutation_group, build_function_algebra, symmetric_group_3
from cqglab.haar import gram_matrices, solve_haar
from cqglab.homspace import (build_coset_subalgebra, solve_restricted_basis_functions,
                             solve_restricted_family)
from cqglab.regular import regular_coaction_tensor, regular_corep
from cqglab.tensor_ops import VARIANTS, operator_comodule, solve_family_space

S3 = symmetric_group_3()
# {e}, {e, (01)}, A3 and S3 itself
SUBGROUPS = ([0], [0, 1], [0, 4, 5], [0, 1, 2, 3, 4, 5])


def _product(alg, x, y):
    return np.einsum("j,k,jkl->l", x, y, alg.mult)


def _hom_count(h, chi_w, pi) -> int:
    """``h(chi_W chi_pi^*)``, checked to be a nonnegative integer."""
    alg = h.algebra
    chi_pi_star = np.conj(np.einsum("jjm->m", pi.coeffs)) @ alg.star
    value = complex(h.covector @ _product(alg, chi_w, chi_pi_star))
    count = int(round(value.real))
    assert abs(value - count) < 1e-8 and count >= 0, value
    return count


def _operator_character(alg, chi_b, kind):
    if kind == "ordinary":
        return _product(alg, chi_b, chi_b @ alg.antipode)
    return _product(alg, chi_b @ alg.antipode_inv, chi_b)


def test_morphism_space_matches_character_count(contexts):
    for label, ctx in contexts.items():
        for pi_v in ctx.table:
            for pi_w in ctx.table:
                chi_w = np.einsum("jjm->m", pi_w.coeffs)
                assert len(morphism_space(pi_v, pi_w)) == _hom_count(ctx.haar, chi_w, pi_v), (
                    label, pi_v.label, pi_w.label)


def test_family_space_matches_character_count(contexts):
    for label, ctx in contexts.items():
        alg = ctx.algebra
        for kind, side in VARIANTS:
            chi_a = np.einsum("ttm->m", regular_coaction_tensor(alg, side))
            chi_ops = _operator_character(alg, chi_a, kind)
            for pi in ctx.table:
                assert len(solve_family_space(pi, kind, side)) == _hom_count(
                    ctx.haar, chi_ops, pi), (label, pi.label, kind, side)


@pytest.mark.parametrize("side", ["L", "R"])
@pytest.mark.parametrize("subgroup", SUBGROUPS, ids=lambda s: f"H{len(s)}")
def test_restricted_spaces_match_character_count(cs3_fun, subgroup, side):
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    coideal = build_coset_subalgebra(S3, alg, subgroup, side, grams)
    chi_b = np.einsum("iim->m", coideal.carrier.coact)
    for pi in cs3_fun.table:
        expected = _hom_count(cs3_fun.haar, chi_b, pi)
        assert len(solve_restricted_basis_functions(pi, coideal)) == expected, pi.label
        for kind in ("ordinary", "twisted"):
            expected = _hom_count(cs3_fun.haar, _operator_character(alg, chi_b, kind), pi)
            assert len(solve_restricted_family(pi, coideal, kind)) == expected, (
                pi.label, kind)


def _fingerprints(table):
    return sorted(tuple(np.round(np.einsum("jjm->m", pi.coeffs), 9).view(float).tolist())
                  for pi in table)


def test_invariants_survive_representative_rotation(contexts):
    """The table is built without random draws: every seed gives the same arrays."""
    for label, ctx in contexts.items():
        ref = ctx.table
        ref_fusion = {(p, q): ctx.cg(p, q).multiplicities
                      for p in ref.labels for q in ref.labels}
        for seed in range(4):
            table = irrep_table(ctx.algebra, ctx.haar, ctx.grams.gram_right, seed=seed)
            assert table.labels == ref.labels, (label, seed)
            assert table.multiplicities == ref.multiplicities, (label, seed)
            for pi, rho in zip(table, ref):
                assert np.array_equal(pi.coeffs, rho.coeffs), (label, seed, pi.label)
                assert np.array_equal(pi.F, rho.F), (label, seed, pi.label)
            assert _fingerprints(table) == _fingerprints(ref), (label, seed)
            for (p, q), mults in ref_fusion.items():
                system = solve_cg(table[p], table[q], table, ctx.haar)
                assert system.multiplicities == mults, (label, seed, p, q)


def test_decomposition_is_seed_invariant(contexts):
    for label, ctx in contexts.items():
        reg = regular_corep(ctx.algebra, "R")
        ref = decompose_comodule(reg, ctx.grams.gram_right)
        for run in range(3):
            blocks = decompose_comodule(reg, ctx.grams.gram_right)
            assert len(blocks) == len(ref), (label, run)
            for (b1, c1), (b2, c2) in zip(blocks, ref):
                assert np.array_equal(b1, b2), (label, run)
                assert np.array_equal(c1.coeffs, c2.coeffs), (label, run)


def _assert_same_span(ours, oracle, what):
    """Equal orthogonal projectors onto the two spans, to 1e-9."""
    assert len(ours) == len(oracle), (what, len(ours), len(oracle))
    if not ours:
        return
    a = np.array([m.ravel() for m in ours])
    b = np.array([m.ravel() for m in oracle])
    assert np.abs(a.T @ a.conj() - b.T @ b.conj()).max() < 1e-9, what


def test_morphism_space_matches_kronecker_oracle(contexts):
    for label, ctx in contexts.items():
        for pi_v in ctx.table:
            for pi_w in ctx.table:
                _assert_same_span(morphism_space(pi_v, pi_w),
                                  kronecker_intertwiners(pi_v.coeffs, pi_w.coeffs),
                                  (label, pi_v.label, pi_w.label))


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]"])
def test_cg_blocks_match_kronecker_oracle(contexts, label):
    ctx = contexts[label]
    table = ctx.table
    for p in table.labels:
        for q in table.labels:
            system = ctx.cg(p, q)
            big = tensor_product(table[p], table[q], "ordinary")
            for target in table:
                fwd, _ = system.blocks(target.label, target.dim)  # [alpha, j, k, l]
                ours = [block.reshape(-1, target.dim) for block in fwd]
                _assert_same_span(ours, kronecker_intertwiners(target.coeffs, big.coeffs),
                                  (label, p, q, target.label))


@pytest.mark.parametrize("side", ["L", "R"])
def test_restricted_spaces_match_kronecker_oracle(cs3_fun, side):
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    coideal = build_coset_subalgebra(S3, alg, [0, 1], side, grams)
    coact = coideal.carrier.coact
    b = coideal.dim
    for pi in cs3_fun.table:
        ours = [bset.functions.T for bset in solve_restricted_basis_functions(pi, coideal)]
        _assert_same_span(ours, kronecker_intertwiners(pi.coeffs, coact.transpose(1, 0, 2)),
                          (side, pi.label))
        for kind in ("ordinary", "twisted"):
            ours = [fam.operators.reshape(pi.dim, b * b).T
                    for fam in solve_restricted_family(pi, coideal, kind)]
            oracle = kronecker_intertwiners(pi.coeffs, operator_comodule(coact, alg, kind))
            _assert_same_span(ours, oracle, (side, pi.label, kind))


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_family_space_matches_kronecker_oracle(cs3_fun, kind, side):
    alg = cs3_fun.algebra
    n = alg.dim
    ops = operator_comodule(regular_coaction_tensor(alg, side), alg, kind)
    for pi in cs3_fun.table:
        ours = [fam.operators.reshape(pi.dim, n * n).T
                for fam in solve_family_space(pi, kind, side)]
        _assert_same_span(ours, kronecker_intertwiners(pi.coeffs, ops), pi.label)


def test_non_cqg_spec_is_out_of_scope():
    """Sweedler's algebra is a Hopf algebra with S^2 != id and no Haar functional."""
    alg = sweedler_algebra()
    assert verify_hopf_axioms(alg).passed
    pi = Corepresentation(alg, [[[0, 1, 0, 0], [0, 0, 1, 0]],       # [[g, x],
                                [[0, 0, 0, 0], [1, 0, 0, 0]]],      #  [0, 1]]
                          label="sweedler2", irreducible=True)
    with pytest.raises(NoHaar) as caught:
        morphism_space(pi, pi)
    assert isinstance(caught.value, CqglabError)
    with pytest.raises(NoF):
        compute_F(pi)


def test_family_space_memory_guard(ca4_fun):
    """The Haar average needs no (n d_W d_V) x (d_W d_V) system: C(A4)'s 3-dim irrep
    (36 families among 432 unknowns) stays below 48 MB of traced allocations."""
    pi = next(rep for rep in ca4_fun.table if rep.dim == 3)
    solve_family_space(pi, "ordinary", "R")   # warm up imports and caches
    tracemalloc.start()
    try:
        families = solve_family_space(pi, "ordinary", "R")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(families) == 36
    assert peak < 48e6, peak / 1e6


def _assert_matches_svd_oracle(ours, coact_v, coact_w, h, what):
    """As many matrices as ``round(Re tr P)``, spanning what the full SVD of ``I - P`` gives."""
    assert len(ours) == round(np.trace(haar_average(coact_v, coact_w, h)).real), what
    _assert_same_span(ours, svd_intertwiners(coact_v, coact_w, h), what)


def _assert_bit_identical(first, second, what):
    assert len(first) == len(second), what
    for a, b in zip(first, second):
        assert np.array_equal(a, b), what


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]", "C(A4)", "C(D6)"])
def test_cg_target_stacks_match_svd_oracle(request, contexts, label):
    ctx = {"C(A4)": "ca4_fun", "C(D6)": "cd6_fun"}.get(label)
    ctx = request.getfixturevalue(ctx) if ctx else contexts[label]
    table = ctx.table
    for p in table.labels:
        for q in table.labels:
            big = tensor_product(table[p], table[q], "ordinary")
            for dim in sorted(set(table.dims())):
                targets = [pi for pi in table if pi.dim == dim]
                stack = np.stack([pi.coeffs for pi in targets])
                bases = _stacked_intertwiners(stack, big.coeffs, ctx.haar)
                for pi, basis, again in zip(targets, bases,
                                            _stacked_intertwiners(stack, big.coeffs, ctx.haar)):
                    what = (label, p, q, pi.label)
                    _assert_bit_identical(basis, again, what)
                    _assert_matches_svd_oracle(basis, pi.coeffs, big.coeffs, ctx.haar, what)


def _family_case(ctx, kind, side, pi):
    alg = ctx.algebra
    n = alg.dim
    ops = operator_comodule(regular_coaction_tensor(alg, side), alg, kind)
    ours = [fam.operators.reshape(pi.dim, n * n).T for fam in solve_family_space(pi, kind, side)]
    again = [fam.operators.reshape(pi.dim, n * n).T for fam in solve_family_space(pi, kind, side)]
    _assert_bit_identical(ours, again, (kind, side, pi.label))
    _assert_matches_svd_oracle(ours, pi.coeffs, ops, ctx.haar, (kind, side, pi.label))


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_family_space_matches_svd_oracle(cs3_fun, kind, side):
    for pi in cs3_fun.table:
        _family_case(cs3_fun, kind, side, pi)


def test_large_family_space_matches_svd_oracle(ca4_fun):
    """C(A4)'s 3-dim irrep: 36 families among 432 unknowns."""
    _family_case(ca4_fun, "ordinary", "R", next(pi for pi in ca4_fun.table if pi.dim == 3))


@pytest.mark.parametrize("side", ["L", "R"])
def test_restricted_spaces_match_svd_oracle(cs3_fun, side):
    alg, grams, h = cs3_fun.algebra, cs3_fun.grams, cs3_fun.haar
    coideal = build_coset_subalgebra(S3, alg, [0, 1], side, grams)
    coact = coideal.carrier.coact
    b = coideal.dim
    for pi in cs3_fun.table:
        ours, again = ([bset.functions.T for bset in solve_restricted_basis_functions(
            pi, coideal)] for _ in range(2))
        _assert_bit_identical(ours, again, (side, pi.label))
        _assert_matches_svd_oracle(ours, pi.coeffs, coact.transpose(1, 0, 2), h,
                                   (side, pi.label))
        for kind in ("ordinary", "twisted"):
            ours, again = ([fam.operators.reshape(pi.dim, b * b).T for fam in
                            solve_restricted_family(pi, coideal, kind)]
                           for _ in range(2))
            _assert_bit_identical(ours, again, (side, pi.label, kind))
            _assert_matches_svd_oracle(ours, pi.coeffs, operator_comodule(coact, alg, kind),
                                       h, (side, pi.label, kind))


class _Proxy:
    """``target`` with some attributes replaced."""

    def __init__(self, target, **replaced):
        self._target, self._replaced = target, replaced

    def __getattr__(self, name):
        return self._replaced.get(name) or getattr(self._target, name)


def test_family_space_takes_no_large_svd(ca4_fun, monkeypatch):
    """No SVD seen from ``cqglab.corep`` has more rows than the space's dimension
    (36): the range of P is not found by factoring the 432 x 432 matrix I - P."""
    pi = next(rep for rep in ca4_fun.table if rep.dim == 3)
    rows = []

    def recording(a, *args, **kw):
        rows.append(np.shape(a)[-2])
        return np.linalg.svd(a, *args, **kw)

    monkeypatch.setattr(corep, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=recording)))
    assert len(solve_family_space(pi, "ordinary", "R")) == 36
    assert all(count <= 36 for count in rows), rows


@pytest.mark.parametrize("fixture", ["ca4_grp", "cd6_fun"])
def test_cg_systems_take_one_svd_per_class(request, fixture, monkeypatch):
    """``solve_cg_systems`` on a whole table takes one SVD per (d_p d_q, d_r) class
    (the Hom spaces) plus one per d_p d_q class (the conditioning of the C's),
    however many pairs there are: 2 on C[A4]'s 144 pairs, where solving pair
    by pair takes 288."""
    ctx = request.getfixturevalue(fixture)
    table = ctx.table
    calls = []

    def recording(a, *args, **kw):
        calls.append(np.shape(a))
        return svd(a, *args, **kw)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", recording)
    assert len(solve_cg_systems(table, table, table, ctx.haar)) == len(table) ** 2
    sizes = {p.dim * q.dim for p in table for q in table}
    assert len(calls) == len(sizes) * (len(set(table.dims())) + 1), calls
    if fixture == "ca4_grp":
        assert len(calls) == 2
        calls.clear()
        for p in table:
            for q in table:
                per_pair_cg(p, q, table, ctx.haar)
        assert len(calls) == 288


def test_n24_family_space_is_the_range_of_the_average():
    """C(S4) (n = 24): the 3-dim irrep's ordinary-R families are 72 = n d matrices
    Phi among 1728 unknowns, each fixed by the averaging map P to 1e-9."""
    alg = build_function_algebra(all_permutation_group(4))
    h = solve_haar(alg)
    table = irrep_table(alg, h, gram_matrices(alg, h).gram_right)
    pi = next(rep for rep in table if rep.dim == 3)
    n = alg.dim
    families = solve_family_space(pi, "ordinary", "R")
    assert len(families) == n * pi.dim
    ops = operator_comodule(regular_coaction_tensor(alg, "R"), alg, "ordinary")
    avg = haar_average(pi.coeffs, ops, h)
    phis = np.array([fam.operators.reshape(pi.dim, n * n).T.ravel() for fam in families])
    assert np.abs(phis @ avg.T - phis).max(axis=1).max() <= 1e-9
