"""Every solution space is Hom(pi, W): its dimension is the character count.

``dim Hom(pi, W) = h(chi_W chi_pi^*)`` for a unitary irreducible ``pi`` and
any comodule ``W``, so each solver is checked against a number computed only
from the Haar functional, the algebra's product and star, and the character
of ``W``.  For an operator space ``End(B) = B (x) B^*`` the character is
``chi_B S(chi_B)`` (ordinary) or ``S^{-1}(chi_B) chi_B`` (twisted).

The spaces themselves are checked against :func:`oracles.kronecker_intertwiners`,
which solves ``Phi V = W Phi`` as a tall linear system without ``h``, and
against :func:`oracles.svd_intertwiners`, the nullspace of ``I - P`` for the
Haar average ``P`` on ``Hom(V, W)`` by a full SVD, where the package reads every
space off the paper's projections ``P^r_11`` instead.  A spec that is not a
CQG algebra (Sweedler's) is out of scope and must say so with a
``CqglabError``.
"""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import dihedral_group
from oracles import (haar_average, kronecker_intertwiners, per_pair_cg, svd_intertwiners,
                     sweedler_algebra)

from cqglab import corep
from cqglab.algebra import verify_hopf_axioms
from cqglab.cg import solve_cg, solve_cg_systems, tensor_product
from cqglab.corep import (Corepresentation, check_unitary, decompose_comodule, irrep_table,
                          morphism_space)
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
                assert len(morphism_space(pi_v, pi_w, ctx.table)) == _hom_count(
                    ctx.haar, chi_w, pi_v), (label, pi_v.label, pi_w.label)


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
    coideal = build_coset_subalgebra(S3, subgroup, side, grams)
    chi_b = np.einsum("iim->m", coideal.carrier.coact)
    sols = solve_restricted_basis_functions(coideal, cs3_fun.table)
    fams = {kind: solve_restricted_family(coideal, kind, cs3_fun.table)
            for kind in ("ordinary", "twisted")}
    assert list(sols) == list(cs3_fun.table.labels)
    for pi in cs3_fun.table:
        assert len(sols[pi.label]) == _hom_count(cs3_fun.haar, chi_b, pi), pi.label
        for kind, spaces in fams.items():
            expected = _hom_count(cs3_fun.haar, _operator_character(alg, chi_b, kind), pi)
            assert len(spaces[pi.label]) == expected, (pi.label, kind)


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
        ref = decompose_comodule(reg, ctx.table)
        for run in range(3):
            blocks = decompose_comodule(reg, ctx.table)
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
                _assert_same_span(morphism_space(pi_v, pi_w, ctx.table),
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


# (fixture, group, subgroup): C(S3)/{e, (01)}, C(D6)/{e, reflection} and
# C(S4)/{e, (23)}, where p4 occurs twice in B
RESTRICTED_BEDS = {"C(S3)": ("cs3_fun", symmetric_group_3, [0, 1]),
                   "C(D6)": ("cd6_fun", lambda: dihedral_group(6), [0, 1]),
                   "C(S4)": ("cs4_fun", lambda: all_permutation_group(4), [0, 1])}


def _restricted_spaces(request, bed, side):
    """The bed's context and coideal, its restricted basis-function spaces as ``b x d``
    matrices and its families of each kind as ``b^2 x d`` matrices, by table label."""
    fixture, group, subgroup = RESTRICTED_BEDS[bed]
    ctx = request.getfixturevalue(fixture)
    coideal = build_coset_subalgebra(group(), subgroup, side, ctx.grams)
    b = coideal.dim
    spaces = {"B": {label: [bset.functions.T for bset in sets] for label, sets in
                    solve_restricted_basis_functions(coideal, ctx.table).items()}}
    for kind in ("ordinary", "twisted"):
        families = solve_restricted_family(coideal, kind, ctx.table)
        spaces[kind] = {label: [fam.operators.reshape(-1, b * b).T for fam in fams]
                        for label, fams in families.items()}
    return ctx, coideal, spaces


def _restricted_comodules(coideal):
    """``B``'s comodule and its operator comodule of each kind, as coaction tensors."""
    coact = coideal.carrier.coact
    return {"B": coact.transpose(1, 0, 2),
            **{kind: operator_comodule(coact, coideal.algebra, kind)
               for kind in ("ordinary", "twisted")}}


def _bed_sides(skip=()):
    """``(bed, side)`` parameters, C(S3)'s named by the side alone."""
    return [pytest.param(bed, side, id=side if bed == "C(S3)" else f"{bed}-{side}")
            for bed in RESTRICTED_BEDS for side in "LR" if (bed, side) not in skip]


# C(S4)'s tall systems take about 6 s a side, so its side R meets the SVD oracle alone
@pytest.mark.parametrize("bed,side", _bed_sides(skip=[("C(S4)", "R")]))
def test_restricted_spaces_match_kronecker_oracle(request, bed, side):
    ctx, coideal, spaces = _restricted_spaces(request, bed, side)
    for space, comodule in _restricted_comodules(coideal).items():
        assert list(spaces[space]) == list(ctx.table.labels)
        for pi in ctx.table:
            _assert_same_span(spaces[space][pi.label],
                              kronecker_intertwiners(pi.coeffs, comodule),
                              (bed, side, space, pi.label))


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
                          label="sweedler2")
    with pytest.raises(NoHaar) as caught:
        solve_haar(alg)
    assert isinstance(caught.value, CqglabError)
    for _ in range(2):  # a failed certificate is not cached: every read raises
        with pytest.raises(NoF):
            pi.F


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
    """Every target block of every CG system of the table-wide engine, bit-identical on
    a second run and spanning what the full SVD of ``I - P`` gives."""
    ctx = {"C(A4)": "ca4_fun", "C(D6)": "cd6_fun"}.get(label)
    ctx = request.getfixturevalue(ctx) if ctx else contexts[label]
    table = ctx.table
    systems, again = (solve_cg_systems(table, table, table) for _ in range(2))
    for (p, q), system in systems.items():
        big = tensor_product(table[p], table[q], "ordinary")
        for pi in table:
            what = (label, p, q, pi.label)
            basis, repeat = ([block.reshape(-1, pi.dim)
                              for block in run.blocks(pi.label, pi.dim)[0]]
                             for run in (system, again[p, q]))
            _assert_bit_identical(basis, repeat, what)
            _assert_matches_svd_oracle(basis, pi.coeffs, big.coeffs, ctx.haar, what)


def _orthonormal(mats):
    """An orthonormal basis, as matrices of the same shape, of the span of ``mats``."""
    if not mats:
        return []
    q, _ = np.linalg.qr(np.array([m.ravel() for m in mats]).T)
    return [col.reshape(mats[0].shape) for col in q.T]


def test_non_unitary_decomposition_spans_match_svd_oracle(contexts):
    """``decompose_comodule`` on a non-unitary comodule, ``p1 (+) p2 (+) p2`` of C(S3)
    conjugated by a fixed non-unitary matrix: each target's pieces are not
    orthonormal, but together they span ``Hom(pi^r, V)``."""
    ctx = contexts["C(S3)"]
    table, h = ctx.table, ctx.haar
    blocks = [table["p1"], table["p2"], table["p2"]]
    direct = np.zeros((5, 5, ctx.algebra.dim), dtype=complex)
    start = 0
    for rho in blocks:
        direct[start:start + rho.dim, start:start + rho.dim] = rho.coeffs
        start += rho.dim
    skew = np.eye(5) + 0.4 * np.random.default_rng(7).standard_normal((5, 5))
    pi = Corepresentation(ctx.algebra, np.einsum("ja,abm,bk->jkm", np.linalg.inv(skew),
                                                 direct, skew), label="skewed")
    assert not check_unitary(pi).passed
    pieces = decompose_comodule(pi, table)
    assert [rho.label for _, rho in pieces] == ["p1", "p2", "p2"]
    for target in table:
        ours = [basis for basis, rho in pieces if rho is target]
        assert len(ours) == round(np.trace(haar_average(target.coeffs, pi.coeffs, h)).real)
        _assert_same_span(_orthonormal(ours), svd_intertwiners(target.coeffs, pi.coeffs, h),
                          target.label)
    # Hom between the skewed comodule and each irrep, both ways, and its commutant
    # (1 + 2^2 = 5 dimensions): orthonormal, spanning what the full SVD gives
    for pi_v, pi_w in [*((target, pi) for target in table), *((pi, target) for target in table),
                       (pi, pi)]:
        _assert_matches_svd_oracle(morphism_space(pi_v, pi_w, table), pi_v.coeffs,
                                   pi_w.coeffs, h, (pi_v.label, pi_w.label))
    assert len(morphism_space(pi, pi, table)) == 5


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


@pytest.mark.parametrize("bed,side", _bed_sides())
def test_restricted_spaces_match_svd_oracle(request, bed, side):
    """Every restricted basis-function and family space, bit-identical on a second run
    and spanning what the full SVD of ``I - P`` gives; C(S4)'s B holds p4 twice."""
    ctx, coideal, spaces = _restricted_spaces(request, bed, side)
    again = _restricted_spaces(request, bed, side)[2]
    if bed == "C(S4)":
        assert len(spaces["B"]["p4"]) == 2
    for space, comodule in _restricted_comodules(coideal).items():
        for pi in ctx.table:
            what = (bed, side, space, pi.label)
            ours = spaces[space][pi.label]
            _assert_bit_identical(ours, again[space][pi.label], what)
            _assert_matches_svd_oracle(ours, pi.coeffs, comodule, ctx.haar, what)


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
    """``solve_cg_systems`` on a whole table takes two SVD batches per ``d_p d_q`` class
    however many pairs and targets there are: one for the ranges of the projections
    ``P^r_11`` of every target, one for the conditioning of the C's.  That is 2 on
    C[A4]'s 144 pairs, where solving pair by pair takes 144 x (12 + 1), and 6 on
    C(D6)."""
    ctx = request.getfixturevalue(fixture)
    table = ctx.table
    calls = []

    def recording(a, *args, **kw):
        calls.append(np.shape(a))
        return svd(a, *args, **kw)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", recording)
    assert len(solve_cg_systems(table, table, table)) == len(table) ** 2
    sizes = {p.dim * q.dim for p in table for q in table}
    assert len(calls) == 2 * len(sizes) == {"ca4_grp": 2, "cd6_fun": 6}[fixture], calls
    if fixture == "ca4_grp":
        calls.clear()
        for p in table:
            for q in table:
                per_pair_cg(p, q, table, ctx.haar)
        assert len(calls) == 144 * 13


def _svd_shapes(monkeypatch) -> list[tuple[int, int]]:
    """The shapes of the matrices of every SVD taken in ``cqglab.corep`` from now on."""
    shapes = []

    def recording(a, *args, **kw):
        shapes.append(np.shape(a)[-2:])
        return np.linalg.svd(a, *args, **kw)

    monkeypatch.setattr(corep, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=recording)))
    return shapes


def test_cg_systems_take_no_svd_larger_than_the_product(ca4_fun, monkeypatch):
    """No SVD reached from ``corep._block_diagonalize`` sees a matrix larger than
    ``d_V x d_V``: 9 x 9 on C(A4)'s 3 (x) 3, where the averaging map of the
    3-dim target is 27 x 27.  The first ``solve_cg`` on a table solves every pair,
    so each of its SVDs is ``(d_p d_q)^2`` for some pair."""
    table = dataclasses.replace(ca4_fun.table)   # the same irreps, with an empty memo
    shapes = _svd_shapes(monkeypatch)
    solve_cg(table[0], table[0], table, ca4_fun.haar)
    products = {(p.dim * q.dim,) * 2 for p in table for q in table}
    assert shapes and set(shapes) <= products, shapes
    assert (9, 9) in shapes
    shapes.clear()
    solve_cg_systems(table, table, table)
    assert max(max(shape) for shape in shapes) == 9


@pytest.mark.parametrize("side", ["L", "R"])
def test_restricted_spaces_take_no_svd_larger_than_the_comodule(cs3_fun, monkeypatch, side):
    """The restricted solvers' SVDs are ``b x b`` for basis functions and ``b^2 x b^2``
    for families on C(S3)/{e, (01)} (b = 3), where the averaging maps of the 2-dim
    irrep are ``d b = 6`` and ``d b^2 = 18`` square."""
    coideal = build_coset_subalgebra(S3, [0, 1], side, cs3_fun.grams)
    b = coideal.dim
    shapes = _svd_shapes(monkeypatch)
    assert len(solve_restricted_basis_functions(coideal, cs3_fun.table)["p2"]) == 1
    assert shapes and all(shape == (b, b) for shape in shapes), shapes
    for kind in ("ordinary", "twisted"):
        shapes.clear()
        assert len(solve_restricted_family(coideal, kind, cs3_fun.table)["p2"]) == 3
        assert shapes and all(shape == (b * b, b * b) for shape in shapes), (kind, shapes)


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
