from __future__ import annotations

import json

import numpy as np

from cqglab.cg import CGSystem
from cqglab.regular import canonical_basis_functions
from cqglab.tensor_ops import TensorOperatorFamily, multiplication_family
from cqglab.corep import identity_corep
from cqglab.report import Report
from cqglab.wigner_eckart import (_factorize_table, _reduced_pairs, verify_wigner_eckart,
                                  we_tensor)


def _setup(ctx, pl, ql, rl, side, kind, q_row=0):
    phis = canonical_basis_functions(ctx.table[pl], side, 0)
    psis = canonical_basis_functions(ctx.table[rl], side, 0)
    qset = canonical_basis_functions(ctx.table[ql], side, q_row)
    fam = multiplication_family(qset, kind)
    order = (ql, pl) if kind == "ordinary" else (pl, ql)
    system = ctx.cg(*order)
    return phis, psis, fam, system


def test_zero_tensor_when_fusion_absent(cs3_fun):
    """sign never appears in trivial x trivial, so the tensor vanishes."""
    phis, psis, fam, system = _setup(cs3_fun, "p0", "p0", "p1", "R", "ordinary")
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p1"].F,
                               cs3_fun.grams.gram("R"))
    assert rep.passed
    assert np.abs(rep.tensor).max() < 1e-12
    assert rep.reduced.size == 0


def test_two_reduced_elements_when_target_repeats(ca4_fun):
    """The 3-dim irrep of C(A4) occurs twice in its own square."""
    label = next(rl for rl in ca4_fun.table.labels if ca4_fun.table[rl].dim == 3)
    for side in ("R", "L"):
        for kind in ("ordinary", "twisted"):
            for q_row in range(3):
                phis, psis, fam, system = _setup(ca4_fun, label, label, label, side,
                                                 kind, q_row)
                rep = verify_wigner_eckart(psis, fam, phis, system,
                                           ca4_fun.table[label].F, ca4_fun.grams.gram(side))
                assert rep.passed, (side, kind, q_row)
                assert rep.reduced.shape == (2,)
                assert rep.details["reduced_lstsq_gap"] < 1e-10


def test_standard_case_single_reduced_element(cs3_fun):
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p2", "R", "ordinary")
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p2"].F,
                               cs3_fun.grams.gram("R"))
    assert rep.passed
    assert rep.reduced.shape == (1,)
    assert abs(rep.reduced[0]) > 1e-6
    assert rep.details["reduced_lstsq_gap"] < 1e-10


def test_reduced_elements_scale_linearly(cs3_fun):
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p2", "L", "ordinary")
    f_r = cs3_fun.table["p2"].F
    gram = cs3_fun.grams.gram("L")
    base = verify_wigner_eckart(psis, fam, phis, system, f_r, gram)
    scaled = verify_wigner_eckart(psis, fam.scaled(2.5 - 1.0j), phis, system, f_r, gram)
    assert np.abs(scaled.reduced - (2.5 - 1.0j) * base.reduced).max() < 1e-10


def test_identity_family_reduces_to_gram_values(cs3_fun):
    """q = identity corep with the identity family: the tensor is the matrix
    of basis-function inner products."""
    ident = identity_corep(cs3_fun.algebra)
    fam = TensorOperatorFamily(ident, "ordinary", "R", np.eye(6)[None, :, :])
    std = cs3_fun.table["p2"]
    phis = canonical_basis_functions(std, "R", 0)
    psis = canonical_basis_functions(std, "R", 0)
    gram = cs3_fun.grams.gram("R")
    tensor = we_tensor(psis, fam, phis, gram)
    inner = np.einsum("la,ab,jb->lj", np.conj(psis.functions), gram, phis.functions)
    assert np.abs(tensor[:, 0, :] - inner).max() < 1e-12
    # and the factorization holds with the (identity, p) CG system
    system = cs3_fun.cg("p0", "p2")
    rep = verify_wigner_eckart(psis, fam, phis, system, std.F, gram)
    assert rep.passed


def test_reduced_covariance_under_multiplicity_rotation(cs3_fun):
    """Rotating a CG multiplicity block rotates the reduced vector identically.

    Fusion multiplicities are all one here, so the rotation is a unit phase.
    """
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p2", "R", "ordinary")
    f_r = cs3_fun.table["p2"].F
    gram = cs3_fun.grams.gram("R")
    base = verify_wigner_eckart(psis, fam, phis, system, f_r, gram)
    phase = np.exp(0.7j)
    cols = [i for i, (r, a, _) in enumerate(system.col_index) if r == "p2"]
    c_rot = system.C.copy()
    c_rot[:, cols] *= phase
    rotated = CGSystem(system.p_label, system.q_label, system.d_p, system.d_q,
                       c_rot, np.linalg.inv(c_rot), dict(system.multiplicities),
                       list(system.col_index))
    rot = verify_wigner_eckart(psis, fam, phis, rotated, f_r, gram)
    assert rot.passed
    assert np.abs(rot.reduced - phase * base.reduced).max() < 1e-10


def test_wrong_cg_order_fails_on_noncommutative(cs3_grp):
    worst = 0.0
    for pl in cs3_grp.table.labels:
        for ql in cs3_grp.table.labels:
            phis = canonical_basis_functions(cs3_grp.table[pl], "R", 0)
            qset = canonical_basis_functions(cs3_grp.table[ql], "R", 0)
            fam = multiplication_family(qset, "ordinary")
            wrong = cs3_grp.cg(pl, ql)  # ordinary needs (q, p)
            for rl in cs3_grp.table.labels:
                psis = canonical_basis_functions(cs3_grp.table[rl], "R", 0)
                rep = verify_wigner_eckart(psis, fam, phis, wrong,
                                           cs3_grp.table[rl].F,
                                           cs3_grp.grams.gram("R"))
                worst = max(worst, rep.residual)
    assert worst > 1e-3


def test_wrong_cg_order_harmless_on_commutative(cs3_fun):
    """On a commutative spec the two orders carry the same information."""
    phis, psis, fam, _ = _setup(cs3_fun, "p2", "p2", "p2", "R", "ordinary")
    wrong = cs3_fun.cg("p2", "p2")  # (p, q) == (q, p) here anyway
    rep = verify_wigner_eckart(psis, fam, phis, wrong, cs3_fun.table["p2"].F,
                               cs3_fun.grams.gram("R"))
    assert rep.passed


def test_report_serialization(cs3_fun):
    """A one-triple table renders as one check named ``p,q,r`` whose details are
    those of the one-triple call."""
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p0", "R", "ordinary")
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p0"].F,
                               cs3_fun.grams.gram("R"))
    [table] = _factorize_table([([psis], [fam], [phis], cs3_fun.grams.gram("R"),
                                 "wigner-eckart [R,ordinary]")], {("p2", "p2"): system}, 1e-9)
    payload = json.loads(json.dumps(table.to_dict()))
    [check] = payload["checks"]
    assert check["name"] == "p2,p2,p0"
    assert check["details"]["cg_order"] == ["p2", "p2"] == list(rep.cg_order)
    assert check["details"]["reduced_lstsq_gap"] == rep.details["reduced_lstsq_gap"]
    assert check["residual"] == rep.residual and check["tol"] == rep.tol
    assert isinstance(check["passed"], bool)


def test_report_dict_writes_reduced_as_before():
    """``reduced`` goes out as ``[[re, im], ...]``, byte for byte what the per-entry
    comprehension over numpy scalars wrote, signed zeros included."""
    values = np.array([0.0, complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.5e-17, -0.0),
                       1 / 3 - 2j, complex(-7.25, 0.0)])
    for reduced in (values, values[:0], values[::2], values[1:2], values.real):
        old = [[z.real, z.imag] for z in reduced.astype(complex)]
        assert json.dumps(_reduced_pairs(reduced)) == json.dumps(old)
    rep = Report("wigner-eckart [R,twisted]")
    rep.add("p,q,r", 0.0, 1.0, reduced=_reduced_pairs(values), cg_order=["p", "q"])
    assert '-0.0' in json.dumps(rep.to_dict()["checks"][0]["details"]["reduced"])
