"""Loop oracle for the stacked CG blocks and the CG coupling contraction.

The oracle reads every coefficient on its own, as
``C[j * d_q + k, col_index.index((r, alpha, l))]``, and sums in explicit
Python loops.  ``CGSystem.blocks``, ``CGSystem.couple`` and every coupling
routine built on them must agree with it on every ordered irrep pair of
C(S3), C[S3] and C(A4).  C(A4) is the one whose fusion has a multiplicity
above 1: its 3-dim irrep occurs twice in its own square.  Operators are
random: the coupling is pure CG arithmetic and does not care whether its
inputs are tensor-operator families.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from cqglab.cg import _padded_blocks, coupled_basis_functions, coupled_inverse_residual
from cqglab.errors import LinearDependenceWarning
from cqglab.groups import symmetric_group_3
from cqglab.homspace import build_coset_subalgebra, subspace_coideal
from cqglab.regular import canonical_basis_functions
from cqglab.tensor_ops import TensorOperatorFamily, couple_families

from oracles import padded_blocks

ALGEBRAS = ("C(S3)", "C[S3]", "C(A4)")
TOL = 1e-12


def coef(system, j, k, r, alpha, ell):
    return system.C[j * system.d_q + k, system.col_index.index((r, alpha, ell))]


def inv_coef(system, r, alpha, ell, j, k):
    return system.Cinv[system.col_index.index((r, alpha, ell)), j * system.d_q + k]


def loop_couple(system, pieces, table, swap=False):
    """``sum_jk coef(j, k) pieces[j, k]`` per target; ``swap`` reads ``coef(k, j)``."""
    out = {}
    for r, mult in system.multiplicities.items():
        d_r = table[r].dim
        for alpha in range(mult):
            acc = np.zeros((d_r,) + pieces.shape[2:], dtype=complex)
            for ell in range(d_r):
                for j in range(pieces.shape[0]):
                    for k in range(pieces.shape[1]):
                        c = (coef(system, k, j, r, alpha, ell) if swap
                             else coef(system, j, k, r, alpha, ell))
                        acc[ell] += c * pieces[j, k]
            out[r, alpha] = acc
    return out


def loop_inverse_residual(system, products, coupled, swap=False):
    worst = 0.0
    for j in range(products.shape[0]):
        for k in range(products.shape[1]):
            acc = np.zeros(products.shape[2], dtype=complex)
            for (r, alpha), bset in coupled.items():
                for ell in range(bset.corep.dim):
                    c = (inv_coef(system, r, alpha, ell, k, j) if swap
                         else inv_coef(system, r, alpha, ell, j, k))
                    acc += c * bset.functions[ell]
            worst = max(worst, float(np.abs(acc - products[j, k]).max()))
    return worst


def assert_same_coupling(got, want):
    assert list(got) == list(want)
    for key, value in want.items():
        assert np.abs(got[key] - value).max() < TOL, key


def random_stack(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def cg_contexts(contexts, ca4_fun):
    return {"C(S3)": contexts["C(S3)"], "C[S3]": contexts["C[S3]"], "C(A4)": ca4_fun}


def ordered_pairs(ctx):
    return [(p, q) for p in ctx.table.labels for q in ctx.table.labels]


@pytest.mark.parametrize("label", ALGEBRAS)
def test_blocks_match_loop_oracle(cg_contexts, label):
    ctx = cg_contexts[label]
    empty_targets, repeated_targets = 0, 0
    for p, q in ordered_pairs(ctx):
        system = ctx.cg(p, q)
        d_p, d_q = system.d_p, system.d_q
        for r in ctx.table.labels:
            d_r = ctx.table[r].dim
            mult = system.multiplicities.get(r, 0)
            fwd, inv = system.blocks(r, d_r)
            assert fwd.shape == (mult, d_p, d_q, d_r)
            assert inv.shape == (mult, d_r, d_p, d_q)
            empty_targets += mult == 0
            repeated_targets += mult > 1
            for alpha, j, k, ell in np.ndindex(mult, d_p, d_q, d_r):
                assert fwd[alpha, j, k, ell] == coef(system, j, k, r, alpha, ell)
                assert inv[alpha, ell, j, k] == inv_coef(system, r, alpha, ell, j, k)
    assert empty_targets > 0
    assert repeated_targets > 0 or label != "C(A4)"


@pytest.mark.parametrize("label", ALGEBRAS)
def test_couple_matches_loop_oracle(cg_contexts, label):
    ctx = cg_contexts[label]
    rng = np.random.default_rng(7)
    for p, q in ordered_pairs(ctx):
        system = ctx.cg(p, q)
        pieces = random_stack(rng, system.d_p, system.d_q, 2, 3)
        assert_same_coupling(system.couple(pieces, ctx.table),
                             loop_couple(system, pieces, ctx.table))


@pytest.mark.parametrize("label", ALGEBRAS)
@pytest.mark.parametrize("kind", ["ordinary", "twisted"])
def test_couple_families_match_loop_oracle(cg_contexts, label, kind):
    ctx = cg_contexts[label]
    table, n = ctx.table, ctx.algebra.dim
    rng = np.random.default_rng(11)
    for p, q in ordered_pairs(ctx):
        fam_p = TensorOperatorFamily(table[p], kind, "R",
                                     random_stack(rng, table[p].dim, n, n))
        fam_q = TensorOperatorFamily(table[q], kind, "R",
                                     random_stack(rng, table[q].dim, n, n))
        system = ctx.cg(p, q) if kind == "ordinary" else ctx.cg(q, p)
        composed = np.einsum("jab,kbc->jkac", fam_p.operators, fam_q.operators)
        want = loop_couple(system, composed, table, swap=kind == "twisted")
        got = couple_families(fam_p, fam_q, system, table)
        assert_same_coupling({key: fam.operators for key, fam in got.items()}, want)
        assert all(fam.kind == kind and fam.corep is table[key[0]]
                   for key, fam in got.items())


def _coideal(ctx, label, side):
    if label == "C(S3)":
        return build_coset_subalgebra(symmetric_group_3(), [0, 1], side,
                                      ctx.grams)
    return subspace_coideal(np.eye(ctx.algebra.dim), side, ctx.grams)


@pytest.mark.parametrize("label", ALGEBRAS)
@pytest.mark.parametrize("kind", ["ordinary", "twisted"])
@pytest.mark.parametrize("side", ["R", "L"])
def test_couple_restricted_families_match_loop_oracle(cg_contexts, label, kind, side):
    ctx = cg_contexts[label]
    table = ctx.table
    carrier = _coideal(ctx, label, side).carrier
    b = carrier.dim
    rng = np.random.default_rng(13)
    for p, q in ordered_pairs(ctx):
        fam_p = TensorOperatorFamily(table[p], kind, side,
                                     random_stack(rng, table[p].dim, b, b), carrier=carrier)
        fam_q = TensorOperatorFamily(table[q], kind, side,
                                     random_stack(rng, table[q].dim, b, b), carrier=carrier)
        system = ctx.cg(p, q) if kind == "ordinary" else ctx.cg(q, p)
        composed = np.einsum("jab,kbc->jkac", fam_p.operators, fam_q.operators)
        want = loop_couple(system, composed, table, swap=kind == "twisted")
        got = couple_families(fam_p, fam_q, system, table)
        assert_same_coupling({key: fam.operators for key, fam in got.items()}, want)
        assert all(fam.carrier is carrier and fam.kind == kind for fam in got.values())


@pytest.mark.parametrize("label", ALGEBRAS)
@pytest.mark.parametrize("side", ["R", "L"])
def test_coupled_basis_functions_match_loop_oracle(cg_contexts, label, side):
    ctx = cg_contexts[label]
    table, alg = ctx.table, ctx.algebra
    for p, q in ordered_pairs(ctx):
        phis = canonical_basis_functions(table[p], side, 0)
        psis = canonical_basis_functions(table[q], side, 0)
        system = ctx.cg(p, q) if side == "R" else ctx.cg(q, p)
        products = np.einsum("ja,kb,abm->jkm", phis.functions, psis.functions, alg.mult)
        want = loop_couple(system, products, table, swap=side == "L")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LinearDependenceWarning)
            coupled = coupled_basis_functions(phis, psis, system, table)
        assert_same_coupling({key: bset.functions for key, bset in coupled.items()}, want)
        got_res = coupled_inverse_residual(phis, psis, system, coupled)
        want_res = loop_inverse_residual(system, products, coupled, swap=side == "L")
        assert abs(got_res - want_res) < TOL, (p, q)


@pytest.mark.parametrize("label", ALGEBRAS)
def test_padded_blocks_match_the_lookup_oracle(contexts, ca4_fun, label):
    """The multiplicity and offset matrices scattered from each system's target rows
    give the padded blocks of the per-entry lookup bit for bit, for all targets, a
    repeated target (as for two sets of one irrep on a coideal) and an absent one:
    the blocks of the occurring entries, in the order of ``np.nonzero(mults)``."""
    ctx = ca4_fun if label == "C(A4)" else contexts[label]
    table = ctx.table
    systems = [ctx.cg(p, q) for p in table.labels for q in table.labels]
    last = table.labels[-1]
    for labels in (table.labels, [last, *table.labels[::-1], last, "absent"]):
        dims = [table[r].dim if r in table.labels else 2 for r in labels]
        for size in {s.d_p * s.d_q for s in systems}:
            stack = [s for s in systems if s.d_p * s.d_q == size]
            fwd, inv, mults = padded_blocks(stack, labels, dims)
            w, r = np.nonzero(mults)
            got_fwd, got_inv, got_entries = _padded_blocks(stack, labels, dims)
            for got, want in zip((got_fwd, got_inv, *got_entries),
                                 (fwd[w, r], inv[w, r], w, r, mults[w, r])):
                assert got.dtype == want.dtype and np.array_equal(got, want), (labels, size)
