"""Pairwise contraction chains against the multi-operand einsums they replace.

Every certificate contraction of three or more tensors is evaluated in
``src/`` as a chain of two-operand steps.  The naive ``np.einsum`` strings
kept here are the definitions those chains must reproduce.  Inputs are random
complex tensors or structure constants perturbed at order one, so every
residual compared is of order one and a wrong index order cannot hide behind
a residual that is zero either way.
"""

from __future__ import annotations

from dataclasses import replace

from oracles import antipode_inverse, per_operator_coaction

import numpy as np
import pytest

from cqglab.algebra import (HopfAlgebraSpec, LinearFunctional, build_dual, verify_hopf_axioms,
                            verify_star_axioms)
from cqglab.cg import cg_block_residual, tensor_product, verify_triple_haar
from cqglab.corep import (Corepresentation, IrrepTable, _restrict_corep, check_unitary,
                          unitarize)
from cqglab.groups import symmetric_group_3
from cqglab.errors import NoHaar
from cqglab.haar import GramPair, regular_unitarity_report, solve_haar, verify_haar_lemmas
from cqglab.homspace import (build_coset_subalgebra, restricted_coaction_report,
                             subspace_coideal, verify_coideal)
from cqglab.regular import (BasisFunctionSet, dual_action_crosscheck, product_coaction_check,
                            regular_coaction_tensor)
from cqglab.tensor_ops import (VARIANTS, TensorOperatorFamily,
                               apply_family_to_basis_functions, operator_coaction_components,
                               operator_comodule, operator_product_rule_residual,
                               pipeline_components)
from cqglab.wigner_eckart import _inner_product_tensor

RTOL = 1e-12
SPECS = ("C(S3)", "C[S3]")


def rand(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def conjugated(antipode: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """``T^-1 S T``: order-one antipode noise that keeps ``S^2 = id``.  The package reads
    ``S`` where the paper writes ``S^-1``, under that premise, and the one-einsum
    references here read the paper's ``S^-1``, so a noisy spec must stay inside it."""
    return np.linalg.solve(twist, antipode @ twist)


def perturbed(spec: HopfAlgebraSpec, seed: int, scale: float = 0.3) -> HopfAlgebraSpec:
    """``spec`` with order-one noise on every structure constant, the antipode's a
    :func:`conjugated` one by ``T = I + scale * noise``."""
    rng = np.random.default_rng(seed)
    n = spec.dim
    return HopfAlgebraSpec(
        n, spec.mult + scale * rand(rng, n, n, n), spec.comult + scale * rand(rng, n, n, n),
        conjugated(spec.antipode, np.eye(n) + scale * rand(rng, n, n)),
        spec.counit + scale * rand(rng, n), spec.unit + scale * rand(rng, n),
        spec.star + scale * rand(rng, n, n), label=f"noisy {spec.label}")


def residual(report, name: str) -> float:
    return next(c.residual for c in report.checks if c.name == name)


def assert_same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= RTOL * scale


def assert_same_residual(got: float, want: np.ndarray) -> None:
    want = float(np.abs(want).max())
    assert want > 1e-3, "the oracle residual must be non-zero for the comparison to bite"
    assert abs(got - want) <= RTOL * want


def random_gram(rng, n: int) -> np.ndarray:
    x = rand(rng, n, n)
    return x @ x.conj().T + n * np.eye(n)


# ---------------------------------------------------------------------------
# axiom suites
# ---------------------------------------------------------------------------

def _hopf_oracles(a: HopfAlgebraSpec) -> dict[str, np.ndarray]:
    m, mu, s, eps, u = a.mult, a.comult, a.antipode, a.counit, a.unit
    eye = np.eye(a.dim)
    return {
        "associativity": np.einsum("jks,slt->jklt", m, m) - np.einsum("jst,kls->jklt", m, m),
        "coassociativity": (np.einsum("ljk,jst->lstk", mu, mu)
                            - np.einsum("lsj,jtk->lstk", mu, mu)),
        "bialgebra": (np.einsum("jpq,kst,psr,qtu->jkru", mu, mu, m, m)
                      - np.einsum("jkp,pru->jkru", m, mu)),
        "counit multiplicative": np.einsum("jkl,l->jk", m, eps) - np.outer(eps, eps),
        "counit left": np.einsum("ljk,j->lk", mu, eps) - eye,
        "counit right": np.einsum("lkj,j->lk", mu, eps) - eye,
        "unit left": np.einsum("k,jkl->jl", u, m) - eye,
        "unit right": np.einsum("k,kjl->jl", u, m) - eye,
        "coproduct of unit": np.einsum("j,jkl->kl", u, mu) - np.outer(u, u),
        "antipode antimultiplicative": (np.einsum("jkq,qp->jkp", m, s)
                                        - np.einsum("rqp,jq,kr->jkp", m, s, s)),
        "antipode anticomultiplicative": (np.einsum("kpq,jk->jpq", mu, s)
                                          - np.einsum("jkl,lp,kq->jpq", mu, s, s)),
        "antipode law left": np.einsum("jkl,kr,rlt->jt", mu, s, m) - np.outer(eps, u),
        "antipode law right": np.einsum("jkl,lr,krt->jt", mu, s, m) - np.outer(eps, u),
        "counit of antipode": np.einsum("kj,j->k", s, eps) - eps,
    }


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("seed", [1, 2])
def test_hopf_suite_matches_naive(algebras, label, seed):
    alg = perturbed(algebras[label], seed)
    report = verify_hopf_axioms(alg)
    for name, diff in _hopf_oracles(alg).items():
        assert_same_residual(residual(report, name), diff)


@pytest.mark.parametrize("label", SPECS)
def test_hopf_suite_exact_on_builtins(algebras, label):
    alg = algebras[label]
    report = verify_hopf_axioms(alg)
    for name, diff in _hopf_oracles(alg).items():
        assert residual(report, name) == float(np.abs(diff).max()) == 0.0, name


@pytest.mark.parametrize("label", SPECS)
def test_star_suite_matches_naive(algebras, label):
    alg = perturbed(algebras[label], 3)
    m, mu, st = alg.mult, alg.comult, alg.star
    report = verify_star_axioms(alg)
    assert_same_residual(residual(report, "antimultiplicative"),
                         np.einsum("jkl,lt->jkt", np.conj(m), st)
                         - np.einsum("ku,jv,uvt->jkt", st, st, m))
    assert_same_residual(residual(report, "comultiplicative"),
                         np.einsum("jl,lst->jst", st, mu)
                         - np.einsum("juv,us,vt->jst", np.conj(mu), st, st))


@pytest.mark.parametrize("label", SPECS)
def test_haar_lemmas_match_naive(algebras, label):
    alg = perturbed(algebras[label], 4)
    rng = np.random.default_rng(4)
    h = LinearFunctional(alg, rand(rng, alg.dim))
    mu, s = alg.comult, alg.antipode
    H = np.einsum("jkl,l->jk", alg.mult, h.covector)
    report = verify_haar_lemmas(h)
    assert_same_residual(residual(report, "averaging right"),
                         np.einsum("jab,ia,bt->ijt", mu, H, s) - np.einsum("iat,aj->ijt", mu, H))
    assert_same_residual(residual(report, "averaging left"),
                         np.einsum("jab,bi,at->ijt", mu, H, s) - np.einsum("itb,jb->ijt", mu, H))


@pytest.mark.parametrize("label", SPECS)
def test_regular_unitarity_matches_naive(algebras, label):
    alg = perturbed(algebras[label], 5)
    rng = np.random.default_rng(5)
    grams = GramPair(alg, rand(rng, alg.dim, alg.dim))
    report = regular_unitarity_report(grams)
    for side in ("R", "L"):
        ct, gram = regular_coaction_tensor(alg, side), grams.gram(side)
        assert_same_residual(residual(report, f"unitarity {side}"),
                             np.einsum("jab,ia,bt->ijt", ct, gram, alg.antipode)
                             - np.einsum("iab,aj,bt->ijt", np.conj(ct), gram, alg.star))


# ---------------------------------------------------------------------------
# product rules of the regular coactions
# ---------------------------------------------------------------------------

def _product_rule_oracle(alg: HopfAlgebraSpec, side: str, twist: str) -> np.ndarray:
    tensor, m = regular_coaction_tensor(alg, side), alg.mult
    lhs = np.einsum("ijt,tab->ijab", m, tensor)
    first = np.einsum("iac,jbd,abe->ijcde", tensor, tensor, m)
    second = "cdf" if twist == "plain" else "dcf"
    return lhs - np.einsum(f"ijcde,{second}->ijef", first, m)


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("twist", ["plain", "twisted"])
def test_product_coaction_matches_naive(algebras, label, side, twist):
    alg = perturbed(algebras[label], 6)
    report = product_coaction_check(alg, side, twist=twist)
    assert_same_residual(residual(report, "product rule"), _product_rule_oracle(alg, side, twist))


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("twist", ["plain", "twisted"])
def test_product_coaction_exact_on_builtins(algebras, label, side, twist):
    """0/1 structure constants make every sum exact, so any order gives the same bits;
    on C[S3] the wrong rule leaves a non-zero residual that must match too."""
    alg = algebras[label]
    report = product_coaction_check(alg, side, twist=twist)
    assert residual(report, "product rule") == float(
        np.abs(_product_rule_oracle(alg, side, twist)).max())


# ---------------------------------------------------------------------------
# regular actions of the dual
# ---------------------------------------------------------------------------

def _dual_action_oracles(a: HopfAlgebraSpec) -> dict[str, np.ndarray]:
    dual, out = build_dual(a), {}
    for side in ("R", "L"):
        tensor = regular_coaction_tensor(a, side)
        act = np.einsum("tam->mat", tensor)
        out[f"action law {side}"] = (np.einsum("mab,kbt->mkat", act, act)
                                     - np.einsum("mkl,lat->mkat", dual.mult, act))
        out[f"dual unit acts trivially {side}"] = (np.einsum("m,mat->at", dual.unit, act)
                                                   - np.eye(a.dim))
    return out


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("seed", [1, 2])
def test_dual_action_matches_naive(algebras, label, seed):
    """The action law and the dual unit on noisy constants."""
    alg = perturbed(algebras[label], seed)
    report = dual_action_crosscheck(alg)
    for name, diff in _dual_action_oracles(alg).items():
        assert_same_residual(residual(report, name), diff)


@pytest.mark.parametrize("label", SPECS)
def test_dual_action_exact_on_builtins(algebras, label):
    alg = algebras[label]
    report = dual_action_crosscheck(alg)
    for name, diff in _dual_action_oracles(alg).items():
        assert residual(report, name) == float(np.abs(diff).max()) == 0.0, name


# ---------------------------------------------------------------------------
# corepresentations and Clebsch-Gordan systems
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,order", [("ordinary", "abm"), ("twisted", "bam")])
def test_tensor_product_matches_naive(algebras, kind, order):
    alg = perturbed(algebras["C[S3]"], 7)
    rng = np.random.default_rng(7)
    pi_v = Corepresentation(alg, rand(rng, 2, 2, alg.dim))
    pi_w = Corepresentation(alg, rand(rng, 3, 3, alg.dim))
    want = np.einsum(f"sja,tkb,{order}->stjkm", pi_v.coeffs, pi_w.coeffs, alg.mult)
    assert_same(tensor_product(pi_v, pi_w, kind).coeffs, want.reshape(6, 6, alg.dim))


def test_check_unitary_matches_naive(algebras):
    alg = perturbed(algebras["C(S3)"], 8)
    pi = Corepresentation(alg, rand(np.random.default_rng(8), 3, 3, alg.dim))
    star = pi.star_coeffs()
    eye = np.einsum("jk,m->jkm", np.eye(3), alg.unit)
    report = check_unitary(pi)
    assert_same_residual(residual(report, "columns orthonormal"),
                         np.einsum("lja,lkb,abm->jkm", star, pi.coeffs, alg.mult) - eye)
    assert_same_residual(residual(report, "rows orthonormal"),
                         np.einsum("jla,klb,abm->jkm", pi.coeffs, star, alg.mult) - eye)


def test_unitarize_and_restriction_match_naive(algebras):
    alg = algebras["C(S3)"]
    rng = np.random.default_rng(9)
    pi = Corepresentation(alg, rand(rng, 4, 4, alg.dim))
    out, t_mat = unitarize(pi, gram=random_gram(rng, 4))
    assert_same(out.coeffs,
                np.einsum("ka,abm,bj->kjm", np.linalg.inv(t_mat), pi.coeffs, t_mat))
    basis, gram = rand(rng, 4, 2), random_gram(rng, 4)
    pinv = basis.conj().T @ gram
    assert_same(_restrict_corep(pi, basis, gram, "probe").coeffs,
                np.einsum("kb,bam,aj->kjm", pinv, pi.coeffs, basis))


def test_cg_block_residual_matches_naive(cs3_fun):
    ctx = cs3_fun
    system = ctx.cg("p2", "p2")
    rng = np.random.default_rng(10)
    noisy = replace(system, C=rand(rng, *system.C.shape), Cinv=rand(rng, *system.Cinv.shape))
    big = tensor_product(ctx.table["p2"], ctx.table["p2"])
    conjugated = np.einsum("ra,abm,bs->rsm", noisy.Cinv, big.coeffs, noisy.C)
    expected = np.zeros_like(conjugated)
    start = 0
    for r_lab, mult in noisy.multiplicities.items():
        d_r = ctx.table[r_lab].dim
        for _ in range(mult):
            expected[start:start + d_r, start:start + d_r] = ctx.table[r_lab].coeffs
            start += d_r
    assert_same_residual(cg_block_residual(noisy, ctx.table["p2"], ctx.table["p2"], ctx.table),
                         conjugated - expected)


def test_triple_haar_matches_naive(ca4_fun):
    """Every (p, q, r) of C(A4), with a perturbed functional in place of h.

    The 3-dim irrep occurs twice in its own square, so the alpha sums in the
    right-hand sides run over two blocks.
    """
    ctx = ca4_fun
    alg, table = ctx.algebra, ctx.table
    rng = np.random.default_rng(11)
    h = LinearFunctional(alg, ctx.haar.covector + 0.3 * rand(rng, alg.dim))
    pair = np.einsum("abx,xcy,y->abc", alg.mult, alg.mult, h.covector)
    assert max(m for pl in table.labels for ql in table.labels
               for m in ctx.cg(pl, ql).multiplicities.values()) == 2
    for pl in table.labels:
        for ql in table.labels:
            sys_pq, sys_qp = ctx.cg(pl, ql), ctx.cg(ql, pl)
            pi_p, pi_q = table[pl], table[ql]
            for pi_r in table:
                r_star, finv = pi_r.star_coeffs(), np.linalg.inv(pi_r.F)
                lhs_pq = np.einsum("ula,sjb,tkc,abc->ulsjtk", r_star, pi_p.coeffs,
                                   pi_q.coeffs, pair)
                lhs_qp = np.einsum("ula,tkb,sjc,abc->ultksj", r_star, pi_q.coeffs,
                                   pi_p.coeffs, pair)
                fwd, inv = sys_pq.blocks(pi_r.label, pi_r.dim)
                rhs_pq = np.einsum("aljk,astv,vu->ulsjtk", inv, fwd, finv) / np.trace(finv)
                fwd, inv = sys_qp.blocks(pi_r.label, pi_r.dim)
                rhs_qp = np.einsum("alkj,atsv,vu->ultksj", inv, fwd, finv) / np.trace(finv)
                report = verify_triple_haar(pi_p, pi_q, pi_r, sys_pq, sys_qp, h)
                assert_same_residual(residual(report, "(p,q) order"), lhs_pq - rhs_pq)
                assert_same_residual(residual(report, "(q,p) order"), lhs_qp - rhs_qp)


# ---------------------------------------------------------------------------
# tensor operators
# ---------------------------------------------------------------------------

CONSTANTS = {
    ("ordinary", "R"): ("uvM,wv,iju,tlw,il->Mjt", lambda a: (a.mult, a.antipode)),
    ("twisted", "R"): ("vuM,wv,iju,tlw,il->Mjt", lambda a: (a.mult, antipode_inverse(a))),
    ("ordinary", "L"): ("wuv,vM,nw,iuj,tnl,il->Mjt",
                        lambda a: (a.mult, a.antipode, a.antipode)),
    ("twisted", "L"): ("nvM,uv,iuj,tnl,il->Mjt", lambda a: (a.mult, a.antipode)),
}


def noisy_product(ctx, seed: int) -> tuple[HopfAlgebraSpec, IrrepTable]:
    """``ctx``'s algebra with order-one noise on the product and the antipode wherever the
    tensor-operator engine's certificates let them vary, and its table's matrix
    coefficients as a table of it.

    In the Peter-Weyl basis ``u^t_ij`` of the table the product noise only reaches the
    blocks ``t`` the product reached before (so every fusion cut still holds), and only
    the coefficients ``u^t_ij`` with ``i != j``, which the Haar functional and so every
    character triple product ignore; the antipode noise is :func:`conjugated` by a ``T``
    that mixes only the off-diagonal coefficients within each block, so it keeps the
    image of each ``u^r_ij`` in its block, the image of each character and ``S^2 = id``.
    The coproduct keeps its form.  On C[S3], whose blocks are all one-dimensional, nothing
    can vary and the spec is exact; C(S3) has one 2-dim block and C(D6) two.  The table
    carries ``ctx``'s Haar covector."""
    alg, context = ctx.algebra, ctx.table._peter_weyl
    rng, p, r, b = np.random.default_rng(seed), context.p, context.r, context.block
    dims = np.array(ctx.table.dims())
    pos = np.arange(alg.dim) - context.starts[b]
    off = pos // dims[b] != pos % dims[b]                     # u^t_ij with i != j
    reach = np.zeros((len(dims),) * 3, dtype=bool)
    np.maximum.at(reach, (b[:, None, None], b[None, :, None], b), np.abs(context.mult) > 1e-9)
    mult = 0.3 * rand(rng, *context.mult.shape) * (reach[b[:, None, None], b[None, :, None], b]
                                                    & off)
    twist = np.eye(alg.dim) + 0.3 * rand(rng, alg.dim, alg.dim) * (
        off[:, None] & off & (b[:, None] == b))
    mult = np.tensordot(r, np.tensordot(r, mult @ p, axes=(1, 1)), axes=(1, 1))
    noisy = replace(alg, mult=alg.mult + mult,
                    antipode=r @ conjugated(context.antipode, twist) @ p,
                    label=f"noisy {alg.label}")
    irreps = tuple(Corepresentation(noisy, pi.coeffs, label=pi.label) for pi in ctx.table)
    return noisy, IrrepTable(noisy, LinearFunctional(noisy, ctx.haar.covector), irreps,
                             ctx.table.multiplicities)


def assert_routes_match_pipeline(ctx, kind: str, side: str) -> None:
    """Both Peter-Weyl routes on :func:`noisy_product` of ``ctx`` against the defining
    pipeline as one einsum."""
    alg, table = noisy_product(ctx, 12)
    q_op = rand(np.random.default_rng(12), alg.dim, alg.dim)
    coact = regular_coaction_tensor(alg, side)
    spow = alg.antipode if kind == "ordinary" else antipode_inverse(alg)
    order = "BwM" if kind == "ordinary" else "wBM"
    want = np.einsum(f"tab,ia,bw,iAB,{order}->MAt", coact, q_op, spow, coact, alg.mult,
                     optimize=alg.dim > 6)
    for route in ("constants", "maps"):
        assert_same(operator_coaction_components(table, q_op, kind, side, route), want)


@pytest.mark.parametrize("label", SPECS)
@pytest.mark.parametrize("kind,side", VARIANTS)
def test_operator_coaction_constants_match_naive(algebras, contexts, label, kind, side):
    """Both Peter-Weyl routes against the defining pipeline as one einsum, on a spec
    with a noisy product and antipode where its blocks let them vary (C(S3); C[S3]
    runs exact), where ordinary-L's closed form, which uses that S reverses products,
    is not the pipeline; and the per-operator oracle's constants chain, which the
    routes are compared with on valid specs, against its closed form on every
    constant noisy."""
    assert_routes_match_pipeline(contexts[label], kind, side)
    q_op = rand(np.random.default_rng(12), algebras[label].dim, algebras[label].dim)
    expr, head = CONSTANTS[kind, side]
    alg = perturbed(algebras[label], 12)
    want = np.einsum(expr, *head(alg), alg.comult, alg.comult, q_op)
    assert_same(per_operator_coaction(alg, q_op, kind, side, "constants"), want)


@pytest.mark.parametrize("kind,order", [("ordinary", "BwM"), ("twisted", "wBM")])
@pytest.mark.parametrize("b", [3, 6])
def test_operator_comodule_matches_naive(algebras, kind, order, b):
    alg = perturbed(algebras["C[S3]"], 13)
    coact = rand(np.random.default_rng(13), b, b, alg.dim)
    spow = alg.antipode if kind == "ordinary" else antipode_inverse(alg)
    want = np.einsum(f"xAB,tyb,bw,{order}->AtxyM", coact, coact, spow, alg.mult)
    assert_same(operator_comodule(coact, alg, kind), want.reshape(b * b, b * b, alg.dim))


def test_additive_antipode_noise_leaves_the_premise(algebras):
    """Red witness for :func:`conjugated`: additive antipode noise breaks ``S^2 = id``,
    ``solve_haar`` refuses the spec, and on it the engine's twisted pipeline (``S``)
    and the paper's (``S^-1``, the per-operator oracle) part by order one."""
    alg = algebras["C[S3]"]
    rng = np.random.default_rng(13)
    noisy = replace(alg, antipode=alg.antipode + 0.3 * rand(rng, alg.dim, alg.dim))
    assert np.abs(noisy.antipode @ noisy.antipode - np.eye(alg.dim)).max() > 0.1
    with pytest.raises(NoHaar, match="Kac premise"):
        solve_haar(noisy)
    q_op, coact = rand(rng, alg.dim, alg.dim), regular_coaction_tensor(noisy, "R")
    gap = np.abs(pipeline_components(coact, noisy, "twisted", q_op)
                 - per_operator_coaction(noisy, q_op, "twisted", "R", "maps")).max()
    assert gap > 1e-3


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_operator_coaction_matches_naive_on_two_blocks(cd6_fun, kind, side):
    """The routes against the pipeline on C(D6), whose two 2-dim blocks let the product
    and antipode noise reach more entries than on C(S3)."""
    assert_routes_match_pipeline(cd6_fun, kind, side)


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_operator_product_rule_matches_naive(contexts, kind, side):
    assert_product_rule_matches(contexts["C(S3)"], kind, side)


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_operator_product_rule_matches_naive_on_two_blocks(cd6_fun, kind, side):
    assert_product_rule_matches(cd6_fun, kind, side)


def assert_product_rule_matches(ctx, kind: str, side: str) -> None:
    """The product rule's residual on :func:`noisy_product` of ``ctx`` is ``kappa`` times
    the naive one in P's basis, and at least the naive one in the input basis."""
    alg, table = noisy_product(ctx, 14)
    rng = np.random.default_rng(14)
    q1, q2 = rand(rng, alg.dim, alg.dim), rand(rng, alg.dim, alg.dim)
    comp1 = operator_coaction_components(table, q1, kind, side)
    comp2 = operator_coaction_components(table, q2, kind, side)
    prod = operator_coaction_components(table, q1 @ q2, kind, side)
    order = "uvM" if kind == "ordinary" else "vuM"
    expected = np.einsum(f"uab,vbc,{order}->Mac", comp1, comp2, alg.mult)
    # the residual is kappa times the one in P's basis, and so at least the input-basis one
    context = table._peter_weyl
    in_p = np.einsum("mac,mu,ax,yc->uxy", prod - expected, context.r, context.r, context.p)
    got = operator_product_rule_residual(table, kind, side, q1, q2)
    assert_same_residual(got / context.kappa(), in_p)
    assert got >= float(np.abs(prod - expected).max())


@pytest.mark.parametrize("kind,side", VARIANTS)
def test_family_on_basis_functions_matches_naive(algebras, kind, side):
    alg = perturbed(algebras["C[S3]"], 15)
    rng = np.random.default_rng(15)
    fam = TensorOperatorFamily(Corepresentation(alg, rand(rng, 2, 2, alg.dim)), kind, side,
                               rand(rng, 2, alg.dim, alg.dim))
    phis = BasisFunctionSet(Corepresentation(alg, rand(rng, 3, 3, alg.dim)), side,
                            rand(rng, 3, alg.dim))
    coact = regular_coaction_tensor(alg, side)
    acted = np.einsum("kab,jb->kja", fam.operators, phis.functions)
    lhs = np.einsum("kjt,tab->kjab", acted, coact)
    order = "xyb" if kind == "ordinary" else "yxb"
    weights = np.einsum(f"tkx,sjy,{order}->tksjb", fam.corep.coeffs, phis.corep.coeffs,
                        alg.mult)
    rhs = np.einsum("tsa,tksjb->kjab", acted, weights)
    report = apply_family_to_basis_functions(fam, phis)
    assert_same_residual(residual(report, "transformation law"), lhs - rhs)


def test_inner_product_tensor_matches_naive():
    rng = np.random.default_rng(16)
    psis, ops, phis, gram = rand(rng, 2, 6), rand(rng, 3, 6, 6), rand(rng, 4, 6), rand(rng, 6, 6)
    acted = np.einsum("kab,jb->kja", ops, phis)
    assert_same(_inner_product_tensor(psis, ops, phis, gram),
                np.einsum("la,ab,kjb->lkj", np.conj(psis), gram, acted))


# ---------------------------------------------------------------------------
# homogeneous spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", ["R", "L"])
def test_coideal_product_closure_matches_naive(cs3_fun, side):
    alg = cs3_fun.algebra
    rows = rand(np.random.default_rng(17), 3, alg.dim)
    coideal = subspace_coideal(rows, side, cs3_fun.grams)
    q, _ = np.linalg.qr(rows.conj().T)
    comp = np.eye(alg.dim) - q @ q.conj().T
    products = np.einsum("ia,jb,abm->ijm", rows, rows, alg.mult)
    assert_same_residual(residual(verify_coideal(coideal), "product closure"),
                         products @ comp.T)


@pytest.mark.parametrize("side", ["R", "L"])
@pytest.mark.parametrize("subgroup", [[0], [0, 1], [0, 1, 2, 3, 4, 5]])
def test_restricted_tensors_match_naive(cs3_fun, side, subgroup):
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    coideal = build_coset_subalgebra(symmetric_group_3(), subgroup, side, grams)
    onb, gram_full = coideal.onb, grams.gram(side)
    lifted = np.einsum("it,tac->iac", onb, regular_coaction_tensor(alg, side))
    assert_same(coideal.carrier.coact,
                np.einsum("ka,ab,ibc->ikc", np.conj(onb), gram_full, lifted))
    products = np.einsum("ia,jb,abm->ijm", onb, onb, alg.mult)
    assert_same(coideal.carrier.product,
                np.einsum("ka,ab,ijb->ijk", np.conj(onb), gram_full, products))


@pytest.mark.parametrize("side", ["R", "L"])
def test_restricted_coaction_report_matches_naive(cs3_fun, side):
    """B = A on C(S3) with one coproduct entry moved, judged with the unperturbed
    Gram and Haar: the report's comodule residuals are the naive coassociativity
    and counit gaps of B's coaction tensor.  The unperturbed Gram is paired with
    the moved spec by hand, since a coideal takes its algebra from its Gram."""
    alg, grams = cs3_fun.algebra, cs3_fun.grams
    comult = alg.comult.copy()
    comult[1, 0, 0] += 0.5
    noisy = HopfAlgebraSpec(alg.dim, alg.mult, comult, alg.antipode, alg.counit, alg.unit,
                            alg.star, label="C(S3) with a moved coproduct entry")
    noisy_grams = GramPair(noisy, grams.matrix)
    coideal = subspace_coideal(np.eye(alg.dim, dtype=complex), side, noisy_grams)
    report = restricted_coaction_report(coideal, cs3_fun.haar)
    coact = coideal.carrier.coact
    again = np.einsum("ikc,kjd->ijdc", coact, coact)
    split = np.einsum("ijc,cde->ijde", coact, comult)
    assert_same_residual(residual(report, "coassociativity"), again - split)
    counit = np.einsum("ikc,c->ik", coact, alg.counit)
    assert_same_residual(residual(report, "counit"), counit - np.eye(alg.dim))
