"""Table-wide CG and Wigner-Eckart certificates against per-triple calls.

``cqglab cg``, ``cqglab wigner-eckart`` and ``cqglab homspace`` evaluate each
CG-system identity for every target r of a (p, q) pair at once: one weight
tensor for the triple-product Haar identity, one inner-product tensor per
(side, kind) over every target, family and source, and one factorization of
all the (side, kind) tables together, which must write the reports of one
factorization per table bit for bit.
They write one report per (p, q) pair (``cg``) or per (side, kind), and
every check in it must match, to 1e-12, the per-triple library call
(``cg_block_residual``, ``verify_triple_haar``, ``verify_wigner_eckart``,
the last also on a coideal subalgebra's carrier), and those calls must match
the per-triple formulas kept in ``oracles``.  The targets that do not occur
in a pair's CG system (per order in ``cg``) are one selection-rule check,
whose residual must equal the largest of their per-triple residuals bit for
bit, so no failing triple can hide in the merge.  C(A4) is here because its
3-dim irrep occurs twice in its own square, which exercises the multiplicity
axis that the all-1-dim group algebras hide; C(D6) has CG targets of two
dimensions; C[A4] is the ``fusion`` group algebra, where 11 of every 12
targets are absent.
"""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest

from cqglab import cli
from cqglab import io as cio
from cqglab.cg import cg_block_residual, solve_cg_systems, tensor_product, verify_triple_haar
from cqglab.groups import _BUILTINS
from cqglab.homspace import build_coset_subalgebra, solve_restricted_basis_functions
from cqglab.regular import canonical_basis_functions
from cqglab.report import Report
from cqglab.tensor_ops import multiplication_family
from cqglab.wigner_eckart import _factorize_table, verify_wigner_eckart, we_tensor

from oracles import (kronecker_intertwiners, reduced_elements, svd_intertwiners, triple_haar_gaps,
                     we_closed_form)

TOL = 1e-12
KINDS = ("ordinary", "twisted")


@pytest.fixture(scope="module")
def setups(contexts, ca4_fun, ca4_grp, cd6_fun, tmp_path_factory):
    """``label -> (context, CLI source arguments)``; C(A4), C[A4] and C(D6) go
    through spec files."""
    specs = tmp_path_factory.mktemp("specs")
    out = {label: (contexts[label], ["--builtin", label]) for label in ("C(S3)", "C[S3]", "C(Z4)")}
    for label, ctx in (("C(A4)", ca4_fun), ("C[A4]", ca4_grp), ("C(D6)", cd6_fun)):
        path = specs / f"{label}.json"
        cio.save_algebra(ctx.algebra, path)
        out[label] = (ctx, ["--algebra", str(path)])
    return out


SETUPS = ["C(S3)", "C[S3]", "C(Z4)", "C(A4)", "C(D6)", "C[A4]"]


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
    """Same reports to ``TOL``, and every selection-rule residual bit for bit."""
    assert [rep["title"] for rep in got] == [rep.title for rep in want]
    for rep_got, rep_want in zip(got, want):
        assert_close(rep_got, json.loads(json.dumps(rep_want.to_dict())), rep_want.title)
        rules = [(chk["residual"], check.residual)
                 for chk, check in zip(rep_got["checks"], rep_want.checks)
                 if "selection rule" in check.name]
        assert all(got_res == want_res for got_res, want_res in rules), (rep_want.title, rules)


def selection_rule(absent: list[tuple[str, float]], tol: float) -> tuple[float, dict]:
    """The selection rule over the ``(target, per-triple residual)`` of the targets
    that do not occur: the largest residual, and the details naming how many there
    are and, when the rule fails at ``tol``, the first target of that residual."""
    worst, residual = max(absent, key=lambda item: item[1])
    if residual <= tol:
        return residual, {"absent": len(absent)}
    return residual, {"absent": len(absent), "worst": worst}


def per_triple_cg(ctx, labels, targets=None) -> list[Report]:
    """The ``cg`` reports, one library call per triple; ``labels`` pick p and q,
    ``targets`` (default all) pick r.  Each pair's report holds its block
    diagonalization, both orders of the triple Haar identity of every target
    that occurs in that order's system, and one selection rule per order over
    the targets that do not."""
    table, reports = ctx.table, []
    labels = list(dict.fromkeys(labels))
    tol = 1e-9 * ctx.algebra.magnitude
    for p, q in product(labels, labels):
        sys_pq, sys_qp = ctx.cg(p, q), ctx.cg(q, p)
        head = Report(f"cg [{p} x {q}]", meta={"multiplicities": dict(sys_pq.multiplicities)})
        head.add("block diagonalization", cg_block_residual(sys_pq, table[p], table[q], table),
                 tol)
        absent = {"p,q": [], "q,p": []}
        for r in targets or table.labels:
            rep = verify_triple_haar(table[p], table[q], table[r], sys_pq, sys_qp, ctx.haar)
            gaps = triple_haar_gaps(table[p], table[q], table[r], sys_pq, sys_qp, ctx.haar)
            assert np.allclose([c.residual for c in rep.checks], gaps, rtol=0, atol=TOL)
            assert [c.name for c in rep.checks] == ["(p,q) order", "(q,p) order"]
            for check, system, order in zip(rep.checks, (sys_pq, sys_qp), absent):
                if r in system.multiplicities:
                    head.add(f"triple haar {r} {check.name}", check.residual, check.tol)
                else:
                    absent[order].append((r, check.residual))
        for order, rows in absent.items():
            if rows:
                residual, details = selection_rule(rows, tol)
                head.add(f"selection rule ({order}) order", residual, tol, **details)
        reports.append(head)
    return reports


def we_check(psis, fam, phis, system, f_r, gram):
    """The one check of a one-triple ``verify_wigner_eckart`` report, with the CG
    order of ``system``: ``p,q,r`` with its reduced elements and least-squares gap
    when the target occurs, else the pair's selection rule over that one target."""
    rep = verify_wigner_eckart(psis, fam, phis, system, f_r, gram)
    [check] = rep.checks
    p, q, r = phis.corep.label, fam.corep.label, psis.corep.label
    assert check.details["cg_order"] == [system.p_label, system.q_label]
    if r in system.multiplicities:
        assert check.name == f"{p},{q},{r}"
        assert set(check.details) == {"reduced", "cg_order", "reduced_lstsq_gap"}
    else:
        assert check.name == f"{p},{q} selection rule"
        worst = {"worst": r} if check.residual > check.tol else {}
        assert check.details == {"absent": 1, **worst, "cg_order": check.details["cg_order"]}
    return check


def per_triple_we(ctx, p_labels, q_labels, r_labels, sides, kinds):
    """The ``wigner-eckart`` reports, one library call per triple, and the reduced
    vectors: one report per (side, kind), per (p, q) in p-major order one check per
    occurring target r and then the pair's selection rule."""
    table, reports, reduced = ctx.table, [], []
    for side, kind in product(sides, kinds):
        rep = Report(f"wigner-eckart [{side},{kind}]")
        sets = {label: canonical_basis_functions(table[label], side, 0)
                for label in {*p_labels, *q_labels, *r_labels}}
        fams = {q: multiplication_family(sets[q], kind) for q in q_labels}
        gram = ctx.grams.gram(side)
        for p, q in product(p_labels, q_labels):
            system = ctx.cg(q, p) if kind == "ordinary" else ctx.cg(p, q)
            absent = []
            for r in r_labels:
                phis, psis, fam = sets[p], sets[r], fams[q]
                we = we_check(psis, fam, phis, system, table[r].F, gram)
                want_reduced, want_residual, want_gap = we_closed_form(
                    we_tensor(psis, fam, phis, gram), system, r, table[r].F, kind)
                assert abs(we.residual - want_residual) <= TOL
                if want_gap is None:
                    assert len(want_reduced) == 0
                    absent.append((r, we.residual))
                    continue
                assert np.abs(reduced_elements(we) - want_reduced).max(initial=0.0) <= TOL
                assert abs(we.details["reduced_lstsq_gap"] - want_gap) <= TOL
                rep.add(f"{p},{q},{r}", we.residual, we.tol, **we.details)
                reduced.append(reduced_elements(we))
            if absent:
                residual, details = selection_rule(absent, we.tol)
                rep.add(f"{p},{q} selection rule", residual, we.tol, **details,
                        cg_order=[system.p_label, system.q_label])
        reports.append(rep)
    return reports, reduced


@pytest.mark.parametrize("label", SETUPS)
def test_cg_report_matches_per_triple_calls(setups, tmp_path, label):
    ctx, source = setups[label]
    want = per_triple_cg(ctx, ctx.table.labels)
    assert_same_reports(cli_reports(tmp_path, "cg", source), want)
    assert any(check.name.startswith("selection rule") for rep in want for check in rep.checks)


@pytest.mark.parametrize("label", SETUPS)
def test_wigner_eckart_report_matches_per_triple_calls(setups, tmp_path, label):
    ctx, source = setups[label]
    labels = ctx.table.labels
    want, reduced = per_triple_we(ctx, labels, labels, labels, ["R", "L"],
                                  ["ordinary", "twisted"])
    assert_same_reports(cli_reports(tmp_path, "wigner-eckart", source), want)
    assert any(check.name.endswith("selection rule") for check in want[0].checks)
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
    set triple and kind: one report per kind, pairs in source-major order over the
    sets, each set named by its irrep label and, where an irrep has several sets (p2
    on C(S3) over the trivial subgroup), the set's index; per pair the occurring
    target sets, then the selection rule over the others."""
    ctx = contexts[label]
    table = ctx.table
    coideal = build_coset_subalgebra(_BUILTINS[label][1](), [int(g) for g in subgroup.split(",")],
                                     side, ctx.grams)
    named = [(label if len(sols) == 1 else f"{label}#{i}", bset)
             for label, sols in solve_restricted_basis_functions(coideal, table).items()
             for i, bset in enumerate(sols)]
    want = []
    for kind in ("ordinary", "twisted"):
        rep = Report(f"restricted wigner-eckart [{coideal.label},{kind}]")
        for (pn, phis), (qn, qset) in product(named, repeat=2):
            p, q = phis.corep.label, qset.corep.label
            system = ctx.cg(q, p) if kind == "ordinary" else ctx.cg(p, q)
            fam = multiplication_family(qset, kind)
            absent = []
            for rn, psis in named:
                we = we_check(psis, fam, phis, system, table[psis.corep.label].F,
                              np.eye(coideal.dim))
                if psis.corep.label in system.multiplicities:
                    rep.add(f"{pn},{qn},{rn}", we.residual, we.tol, **we.details)
                else:
                    absent.append((rn, we.residual))
            if absent:
                residual, details = selection_rule(absent, we.tol)
                rep.add(f"{pn},{qn} selection rule", residual, we.tol, **details,
                        cg_order=[system.p_label, system.q_label])
        want.append(rep)
    got = cli_reports(tmp_path, "homspace",
                      ["--builtin", label, "--subgroup", subgroup, "--side", side])
    assert sum(len(rep.checks) for rep in want) >= 8
    assert_same_reports([rep for rep in got if "wigner-eckart" in rep["title"]], want)


def assert_factorized_together_as_alone(tables, systems):
    """One :func:`_factorize_table` call over every table writes, bit for bit, the
    report columns of one call per table: the JSON of a report spells each float
    exactly (signed zeros and NaN included), names, residuals, tolerances and details."""
    together = _factorize_table(tables, systems, 1e-9)
    alone = [rep for table in tables for rep in _factorize_table([table], systems, 1e-9)]
    assert [rep.title for rep in together] == [table[-1] for table in tables]
    assert [json.dumps(rep.to_dict()) for rep in together] == [
        json.dumps(rep.to_dict()) for rep in alone]


def _all_systems(ctx) -> dict:
    return {(p, q): ctx.cg(p, q) for p, q in product(ctx.table.labels, repeat=2)}


@pytest.mark.parametrize("label", [*_BUILTINS, "C(A4)"])
def test_tables_on_a_factorized_together_match_alone(contexts, ca4_fun, label):
    """The four (side, kind) tables of ``cqglab wigner-eckart`` on A."""
    ctx = ca4_fun if label == "C(A4)" else contexts[label]
    tables = []
    for side in ("R", "L"):
        bsets = [canonical_basis_functions(pi, side, 0) for pi in ctx.table]
        tables += [(bsets, [multiplication_family(bset, kind) for bset in bsets], bsets,
                    ctx.grams.gram(side), f"{side},{kind}") for kind in KINDS]
    assert_factorized_together_as_alone(tables, _all_systems(ctx))


@pytest.mark.parametrize("label, subgroup", [("C(Z2)", [0]), ("C(Z3)", [0]), ("C(Z4)", [0, 2]),
                                             ("C(S3)", [0, 1]), ("C(S3)", [0])])
@pytest.mark.parametrize("side", ["L", "R"])
def test_tables_on_b_factorized_together_match_alone(contexts, label, subgroup, side):
    """The two kinds' tables of ``cqglab homspace`` on a coideal B's carrier."""
    ctx = contexts[label]
    coideal = build_coset_subalgebra(_BUILTINS[label][1](), subgroup, side, ctx.grams)
    sets = [bset for sols in solve_restricted_basis_functions(coideal, ctx.table).values()
            for bset in sols]
    tables = [(sets, [multiplication_family(bset, kind) for bset in sets], sets,
               np.eye(coideal.dim), kind) for kind in KINDS]
    assert_factorized_together_as_alone(tables, _all_systems(ctx))


def _projector(basis, size: int) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal matrices."""
    flat = np.array([m.ravel() for m in basis]).reshape(len(basis), size)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("fixture", ["ca4_fun", "cd6_fun"])
def test_engine_blocks_match_single_and_kronecker(request, fixture):
    """Each target's blocks of the table-wide engine span the averaging map's range (the
    full SVD of ``I - P``) and the Kronecker nullspace."""
    ctx = request.getfixturevalue(fixture)
    table = ctx.table
    systems = solve_cg_systems(table, table, table)
    for p, q in product(table.labels, table.labels):
        big = tensor_product(table[p], table[q], "ordinary")
        for pi in table:
            basis = [block.reshape(-1, pi.dim) for block in systems[p, q].blocks(pi.label,
                                                                                   pi.dim)[0]]
            single = svd_intertwiners(pi.coeffs, big.coeffs, ctx.haar)
            oracle = kronecker_intertwiners(pi.coeffs, big.coeffs)
            assert len(basis) == len(single) == len(oracle), (p, q, pi.label)
            assert all(m.shape == (big.dim, pi.dim) for m in basis)
            size = big.dim * pi.dim
            ours = _projector(basis, size)
            assert np.abs(ours - _projector(single, size)).max() < TOL, (p, q, pi.label)
            assert np.abs(ours - _projector(oracle, size)).max() < 1e-9, (p, q, pi.label)
