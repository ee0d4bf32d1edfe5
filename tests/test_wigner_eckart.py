from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from oracles import reduced_elements

from cqglab import wigner_eckart
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
    """sign never appears in trivial x trivial, so the tensor vanishes, and the one
    check is the pair's selection rule over that target: its residual is max |T|."""
    phis, psis, fam, system = _setup(cs3_fun, "p0", "p0", "p1", "R", "ordinary")
    gram = cs3_fun.grams.gram("R")
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p1"].F, gram)
    assert rep.passed
    tensor = we_tensor(psis, fam, phis, gram)
    assert np.abs(tensor).max() < 1e-12
    [check] = rep.checks
    assert check.name == "p0,p0 selection rule"
    assert check.details == {"absent": 1, "cg_order": ["p0", "p0"]}   # passing: no worst
    assert check.residual == np.abs(tensor).max()


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
                [check] = rep.checks
                assert reduced_elements(check).shape == (2,)
                assert check.details["reduced_lstsq_gap"] < 1e-10


def test_standard_case_single_reduced_element(cs3_fun):
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p2", "R", "ordinary")
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p2"].F,
                               cs3_fun.grams.gram("R"))
    assert rep.passed
    [check] = rep.checks
    assert reduced_elements(check).shape == (1,)
    assert abs(reduced_elements(check)[0]) > 1e-6
    assert check.details["reduced_lstsq_gap"] < 1e-10


def test_reduced_elements_scale_linearly(cs3_fun):
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p2", "L", "ordinary")
    f_r = cs3_fun.table["p2"].F
    gram = cs3_fun.grams.gram("L")
    [base] = verify_wigner_eckart(psis, fam, phis, system, f_r, gram).checks
    scaled_fam = dataclasses.replace(fam, operators=(2.5 - 1.0j) * fam.operators)
    [scaled] = verify_wigner_eckart(psis, scaled_fam, phis, system, f_r, gram).checks
    assert np.abs(reduced_elements(scaled) - (2.5 - 1.0j) * reduced_elements(base)).max() < 1e-10


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
    [base] = verify_wigner_eckart(psis, fam, phis, system, f_r, gram).checks
    phase = np.exp(0.7j)
    cols = [i for i, (r, a, _) in enumerate(system.col_index) if r == "p2"]
    c_rot = system.C.copy()
    c_rot[:, cols] *= phase
    rotated = dataclasses.replace(system, C=c_rot, Cinv=np.linalg.inv(c_rot))
    [rot] = verify_wigner_eckart(psis, fam, phis, rotated, f_r, gram).checks
    assert rot.passed
    assert np.abs(reduced_elements(rot) - phase * reduced_elements(base)).max() < 1e-10


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
                [check] = verify_wigner_eckart(psis, fam, phis, wrong,
                                               cs3_grp.table[rl].F,
                                               cs3_grp.grams.gram("R")).checks
                assert check.details["cg_order"] == [pl, ql]  # the system used
                worst = max(worst, check.residual)
    assert worst > 1e-3


def test_wrong_cg_order_harmless_on_commutative(cs3_fun):
    """On a commutative spec the two orders carry the same information."""
    phis, psis, fam, _ = _setup(cs3_fun, "p2", "p2", "p2", "R", "ordinary")
    wrong = cs3_fun.cg("p2", "p2")  # (p, q) == (q, p) here anyway
    rep = verify_wigner_eckart(psis, fam, phis, wrong, cs3_fun.table["p2"].F,
                               cs3_fun.grams.gram("R"))
    assert rep.passed


def test_report_serialization(cs3_fun, monkeypatch):
    """``verify_wigner_eckart`` returns the report of the one-triple table, from one
    engine call: one check named ``p,q,r`` with details ``reduced``, ``cg_order``
    and, as r occurs, ``reduced_lstsq_gap``."""
    phis, psis, fam, system = _setup(cs3_fun, "p2", "p2", "p0", "R", "ordinary")
    calls = []
    engine = wigner_eckart._factorize_targets
    monkeypatch.setattr(wigner_eckart, "_factorize_targets",
                        lambda *args: calls.append(args) or engine(*args))
    rep = verify_wigner_eckart(psis, fam, phis, system, cs3_fun.table["p0"].F,
                               cs3_fun.grams.gram("R"))
    assert len(calls) == 1
    monkeypatch.undo()
    [table] = _factorize_table([([psis], [fam], [phis], cs3_fun.grams.gram("R"),
                                 "wigner-eckart [R,ordinary]")], {("p2", "p2"): system}, 1e-9)
    assert json.dumps(rep.to_dict()) == json.dumps(table.to_dict())
    payload = json.loads(json.dumps(rep.to_dict()))
    assert payload["title"] == "wigner-eckart [R,ordinary]"
    [check] = payload["checks"]
    assert check["name"] == "p2,p2,p0"
    assert sorted(check["details"]) == ["cg_order", "reduced", "reduced_lstsq_gap"]
    assert check["details"]["cg_order"] == ["p2", "p2"]
    assert check["tol"] == 1e-9 * cs3_fun.algebra.magnitude ** 2
    assert isinstance(check["passed"], bool)


def test_families_and_sets_must_share_one_carrier(cs3_fun):
    """A family on the left regular carrier does not act on right basis functions."""
    std = cs3_fun.table["p2"]
    phis = canonical_basis_functions(std, "R", 0)
    fam = multiplication_family(canonical_basis_functions(std, "L", 0), "ordinary")
    gram = cs3_fun.grams.gram("R")
    with pytest.raises(ValueError, match="share one carrier"):
        we_tensor(phis, fam, phis, gram)
    with pytest.raises(ValueError, match="share one carrier"):
        verify_wigner_eckart(phis, fam, phis, cs3_fun.cg("p2", "p2"), std.F, gram)


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
