"""Table-wide CG and Wigner-Eckart certificates against per-triple calls.

``cqglab cg``, ``cqglab wigner-eckart`` and ``cqglab homspace`` evaluate each
CG-system identity for every target r of a (p, q) pair at once: one weight
tensor for the triple-product Haar identity, and one inner-product tensor and
one factorization per (side, kind) over every target, family and source.
They write one report per (p, q) pair (``cg``) or per (side, kind), and
every check in it must match, to 1e-12, the per-triple library call
(``cg_block_residual``, ``verify_triple_haar``, ``verify_wigner_eckart``,
the last also on a coideal subalgebra's carrier), and those calls must match
the per-triple formulas kept in ``oracles``.  C(A4) is here because its 3-dim irrep occurs twice in
its own square, which exercises the multiplicity axis that the all-1-dim
group algebras hide; C(D6) has CG targets of two dimensions.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest

from cqglab import cli
from cqglab import io as cio
from cqglab.cg import cg_block_residual, tensor_product, verify_triple_haar
from cqglab.corep import _stacked_intertwiners, intertwiners
from cqglab.groups import _BUILTINS
from cqglab.homspace import build_coset_subalgebra, solve_restricted_basis_functions
from cqglab.regular import canonical_basis_functions
from cqglab.report import Report
from cqglab.tensor_ops import multiplication_family
from cqglab.wigner_eckart import verify_wigner_eckart

from oracles import kronecker_intertwiners, triple_haar_gaps, we_closed_form

TOL = 1e-12


@pytest.fixture(scope="module")
def setups(contexts, ca4_fun, tmp_path_factory):
    """``label -> (context, CLI source arguments)``; C(A4) goes through a spec file."""
    path = tmp_path_factory.mktemp("specs") / "ca4.json"
    cio.save_algebra(ca4_fun.algebra, path)
    return {"C(S3)": (contexts["C(S3)"], ["--builtin", "C(S3)"]),
            "C[S3]": (contexts["C[S3]"], ["--builtin", "C[S3]"]),
            "C(A4)": (ca4_fun, ["--algebra", str(path)])}


def cli_reports(tmp_path, command, source, filters=()):
    out = tmp_path / f"{command}.json"
    assert cli.main([command, *source, *filters, "--output", str(out)]) == 0
    return json.loads(out.read_text())["reports"]


def assert_close(got, want, where):
    """Equal structure and values; floats to ``TOL``."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= TOL, (where, got, want)
    else:
        assert got == want, (where, got, want)


def assert_same_reports(got: list[dict], want: list[Report]):
    assert [rep["title"] for rep in got] == [rep.title for rep in want]
    for rep_got, rep_want in zip(got, want):
        assert_close(rep_got, json.loads(json.dumps(rep_want.to_dict())), rep_want.title)


def per_triple_cg(ctx, labels, targets=None) -> list[Report]:
    """The ``cg`` reports, one library call per triple; ``labels`` pick p and q,
    ``targets`` (default all) pick r.  Each pair's report holds its block
    diagonalization and both orders of every target's triple Haar identity."""
    table, reports = ctx.table, []
    labels = list(dict.fromkeys(labels))
    for p, q in product(labels, labels):
        sys_pq, sys_qp = ctx.cg(p, q), ctx.cg(q, p)
        head = Report(f"cg [{p} x {q}]", meta={"multiplicities": sys_pq.multiplicities})
        head.add("block diagonalization", cg_block_residual(sys_pq, table[p], table[q], table),
                 1e-9 * ctx.algebra.magnitude)
        for r in targets or table.labels:
            rep = verify_triple_haar(table[p], table[q], table[r], sys_pq, sys_qp, ctx.haar)
            gaps = triple_haar_gaps(table[p], table[q], table[r], sys_pq, sys_qp, ctx.haar)
            assert np.allclose([c.residual for c in rep.checks], gaps, rtol=0, atol=TOL)
            assert [c.name for c in rep.checks] == ["(p,q) order", "(q,p) order"]
            for check in rep.checks:
                head.add(f"triple haar {r} {check.name}", check.residual, check.tol)
        reports.append(head)
    return reports


def we_details(we) -> dict:
    """The details of a Wigner-Eckart check: reduced elements as ``[re, im]`` pairs,
    the CG order, and the least-squares gap when the target occurs."""
    return {"reduced": [[z.real, z.imag] for z in we.reduced.astype(complex)],
            "cg_order": list(we.cg_order), **we.details}


def per_triple_we(ctx, p_labels, q_labels, r_labels, sides, kinds):
    """The ``wigner-eckart`` reports, one library call per triple, and the reduced
    vectors: one report per (side, kind), one check per (p, q, r) in p-major order."""
    table, reports, reduced = ctx.table, [], []
    for side, kind in product(sides, kinds):
        rep = Report(f"wigner-eckart [{side},{kind}]")
        for p, q, r in product(p_labels, q_labels, r_labels):
            phis = canonical_basis_functions(table[p], side, 0)
            psis = canonical_basis_functions(table[r], side, 0)
            fam = multiplication_family(canonical_basis_functions(table[q], side, 0), kind)
            system = ctx.cg(q, p) if kind == "ordinary" else ctx.cg(p, q)
            we = verify_wigner_eckart(psis, fam, phis, system, table[r].F, ctx.grams.gram(side))
            want_reduced, want_residual, want_gap = we_closed_form(we.tensor, system, r,
                                                                   table[r].F, kind)
            assert np.abs(we.reduced - want_reduced).max(initial=0.0) <= TOL
            assert abs(we.residual - want_residual) <= TOL
            assert (want_gap is None) == ("reduced_lstsq_gap" not in we.details)
            if want_gap is not None:
                assert abs(we.details["reduced_lstsq_gap"] - want_gap) <= TOL
            rep.add(f"{p},{q},{r}", we.residual, we.tol, **we_details(we))
            reduced.append(we.reduced)
        reports.append(rep)
    return reports, reduced


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]", "C(A4)"])
def test_cg_report_matches_per_triple_calls(setups, tmp_path, label):
    ctx, source = setups[label]
    assert_same_reports(cli_reports(tmp_path, "cg", source),
                        per_triple_cg(ctx, ctx.table.labels))


@pytest.mark.parametrize("label", ["C(S3)", "C[S3]", "C(A4)"])
def test_wigner_eckart_report_matches_per_triple_calls(setups, tmp_path, label):
    ctx, source = setups[label]
    labels = ctx.table.labels
    want, reduced = per_triple_we(ctx, labels, labels, labels, ["R", "L"],
                                  ["ordinary", "twisted"])
    assert_same_reports(cli_reports(tmp_path, "wigner-eckart", source), want)
    assert any(len(values) == 0 for values in reduced)
    assert any(len(values) == 2 for values in reduced) == (label == "C(A4)")


@pytest.mark.parametrize("label, filters", [
    ("C(A4)", {"p": "p3", "side": "L"}),
    ("C(A4)", {"q": "p3", "r": "p3", "kind": "twisted"}),
    ("C[S3]", {"p": "p4", "q": "p3", "r": "p1", "side": "R", "kind": "ordinary"}),
])
def test_filtered_wigner_eckart_matches_per_triple_calls(setups, tmp_path, label, filters):
    ctx, source = setups[label]
    labels = ctx.table.labels
    want, _ = per_triple_we(
        ctx, *([filters[key]] if key in filters else labels for key in ("p", "q", "r")),
        [filters["side"]] if "side" in filters else ["R", "L"],
        [filters["kind"]] if "kind" in filters else ["ordinary", "twisted"])
    argv = [arg for key, value in filters.items() for arg in (f"--{key}", value)]
    assert_same_reports(cli_reports(tmp_path, "wigner-eckart", source, argv), want)


@pytest.mark.parametrize("label, p, q", [("C(A4)", "p3", "p1"), ("C(S3)", "p2", "p2")])
def test_filtered_cg_matches_per_triple_calls(setups, tmp_path, label, p, q):
    ctx, source = setups[label]
    # --p and --q pick the labels both factors run over; --r picks the certified target
    assert_same_reports(cli_reports(tmp_path, "cg", source, ["--p", p, "--q", q, "--r", p]),
                        per_triple_cg(ctx, [p, q], [p]))


@pytest.mark.parametrize("label, subgroup", [("C(S3)", "0,1"), ("C(Z4)", "0,2"), ("C(S3)", "0")])
@pytest.mark.parametrize("side", ["L", "R"])
def test_homspace_report_matches_per_triple_calls(contexts, tmp_path, label, subgroup, side):
    """One ``verify_wigner_eckart`` call on B's carrier per (source, family, target)
    set triple and kind: one report per kind, checks in source-major order over the
    sets, each named by its irrep label and, where an irrep has several sets (p2 on
    C(S3) over the trivial subgroup), the set's index."""
    ctx = contexts[label]
    table = ctx.table
    coideal = build_coset_subalgebra(_BUILTINS[label][1](), ctx.algebra,
                                     [int(g) for g in subgroup.split(",")], side, ctx.grams)
    named = [(pi.label if len(sols) == 1 else f"{pi.label}#{i}", bset)
             for pi in table
             for sols in [solve_restricted_basis_functions(pi, coideal)]
             for i, bset in enumerate(sols)]
    want = []
    for kind in ("ordinary", "twisted"):
        rep = Report(f"restricted wigner-eckart [{coideal.label},{kind}]")
        for (pn, phis), (qn, qset), (rn, psis) in product(named, repeat=3):
            p, q, r = phis.corep.label, qset.corep.label, psis.corep.label
            system = ctx.cg(q, p) if kind == "ordinary" else ctx.cg(p, q)
            we = verify_wigner_eckart(psis, multiplication_family(qset, kind), phis,
                                      system, table[r].F, np.eye(coideal.dim))
            rep.add(f"{pn},{qn},{rn}", we.residual, we.tol, **we_details(we))
        want.append(rep)
    got = cli_reports(tmp_path, "homspace",
                      ["--builtin", label, "--subgroup", subgroup, "--side", side])
    assert sum(len(rep.checks) for rep in want) >= 8
    assert_same_reports([rep for rep in got if "wigner-eckart" in rep["title"]], want)


def _projector(basis, size: int) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal matrices."""
    flat = np.array([m.ravel() for m in basis]).reshape(len(basis), size)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("fixture", ["ca4_fun", "cd6_fun"])
def test_stacked_solver_matches_single_and_kronecker(request, fixture):
    ctx = request.getfixturevalue(fixture)
    table = ctx.table
    for p, q in product(table.labels, table.labels):
        big = tensor_product(table[p], table[q], "ordinary")
        for dim in sorted(set(table.dims())):
            targets = [pi for pi in table if pi.dim == dim]
            stacked = _stacked_intertwiners(np.stack([pi.coeffs for pi in targets]),
                                            big.coeffs, ctx.haar)
            assert len(stacked) == len(targets)
            for pi, basis in zip(targets, stacked):
                single = intertwiners(pi.coeffs, big.coeffs, ctx.haar)
                oracle = kronecker_intertwiners(pi.coeffs, big.coeffs)
                assert len(basis) == len(single) == len(oracle), (p, q, pi.label)
                assert all(m.shape == (big.dim, dim) for m in basis)
                size = big.dim * dim
                ours = _projector(basis, size)
                assert np.abs(ours - _projector(single, size)).max() < TOL, (p, q, pi.label)
                assert np.abs(ours - _projector(oracle, size)).max() < 1e-9, (p, q, pi.label)
