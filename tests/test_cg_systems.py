"""The table-wide CG engine against the per-pair solve it replaced.

``solve_cg_systems`` solves every pair of a table in one stacked pass per
dimension class.  Each system must equal the one the per-pair body gives
(``oracles.per_pair_cg``): ``C`` and ``C^{-1}`` to 1e-12, the same
multiplicities, column index and block offsets.  C(A4) and C(S4) have a
target of multiplicity 2, so the comparison also covers the orientation of a
two-dimensional intertwiner space.  A table that misses an irreducible or
lists one twice cannot fill the CG matrices, and both entry points must say
so with ``MultiplicityMismatch``.  ``solve_cg`` reads a table's own pairs from
the table's memo (one ``solve_cg_systems`` call on the whole table); copies of
the irreps take the one-pair engine call.
"""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from beds import BUILTINS, context
from oracles import per_pair_cg

from cqglab.cg import solve_cg, solve_cg_systems
from cqglab.corep import Corepresentation, IrrepTable
from cqglab.errors import MultiplicityMismatch

TOL = 1e-12


@pytest.mark.parametrize("label", [*BUILTINS, "C(D6)", "C(A4)", "C[A4]", "C(S4)", "C[S4]"])
def test_engine_matches_per_pair_oracle(label):
    ctx = context(label)
    table = ctx.table
    systems = solve_cg_systems(table, table, table)
    assert list(systems) == list(product(table.labels, table.labels))
    for p, q in systems:
        got, want = systems[p, q], per_pair_cg(table[p], table[q], table, ctx.haar)
        assert (got.p_label, got.q_label, got.d_p, got.d_q) == (p, q, table[p].dim,
                                                                table[q].dim)
        assert got.multiplicities == want.multiplicities, (p, q)
        assert got.col_index == want.col_index, (p, q)
        assert got.offsets == want.offsets, (p, q)
        assert np.abs(got.C - want.C).max() <= TOL, (p, q)
        assert np.abs(got.Cinv - want.Cinv).max() <= TOL, (p, q)


def _copy(pi):
    """The same corep as a new object, so ``solve_cg`` takes the one-pair engine call."""
    return Corepresentation(pi.algebra, pi.coeffs, pi.label)


def test_one_pair_call_is_the_engine_on_one_pair(cd6_fun):
    table = cd6_fun.table
    systems = solve_cg_systems([table["p4"]], table, table)
    assert list(systems) == [("p4", q) for q in table.labels]
    for (p, q), system in systems.items():
        single = solve_cg(_copy(table[p]), _copy(table[q]), table, cd6_fun.haar)
        memo = solve_cg(table[p], table[q], table, cd6_fun.haar)
        for got in (single, memo):
            assert got.col_index == system.col_index
            assert np.abs(got.C - system.C).max() <= TOL


def test_no_pairs_gives_no_systems(cs3_fun):
    table = cs3_fun.table
    assert solve_cg_systems([], table, table) == {}
    assert solve_cg_systems(table, [], table) == {}


def _missing_irrep(ctx):
    table = ctx.table
    return IrrepTable(ctx.algebra, ctx.haar, table.irreps[:-1], table.multiplicities[:-1],
                      labels=list(table.labels[:-1]))


def _last_irrep_twice(ctx):
    table = ctx.table
    return IrrepTable(ctx.algebra, ctx.haar, table.irreps + table.irreps[-1:],
                      table.multiplicities + table.multiplicities[-1:])


def test_table_missing_an_irrep_raises(cs3_fun):
    table, partial = cs3_fun.table, _missing_irrep(cs3_fun)
    std = table["p2"]
    with pytest.raises(MultiplicityMismatch):
        solve_cg(std, std, partial, cs3_fun.haar)
    with pytest.raises(MultiplicityMismatch):
        per_pair_cg(std, std, partial, cs3_fun.haar)
    with pytest.raises(MultiplicityMismatch):
        solve_cg_systems(table, table, partial)


def test_table_listing_an_irrep_twice_raises(cs3_fun):
    """Every pair whose product holds the 2-dim irrep finds it twice: 12 of the 16, on
    copies of the irreps.  The table's own irreps share its table-wide solve, which
    raises, so all 16 of their pairs raise."""
    doubled = _last_irrep_twice(cs3_fun)
    raised = {"engine": [], "oracle": []}
    for pi_p, pi_q in product(map(_copy, doubled), repeat=2):
        for route, solve in (("engine", solve_cg), ("oracle", per_pair_cg)):
            try:
                solve(pi_p, pi_q, doubled, cs3_fun.haar)
            except MultiplicityMismatch:
                raised[route].append((pi_p.label, pi_q.label))
    assert raised["engine"] == raised["oracle"]
    assert len(raised["engine"]) == 12
    for pi_p, pi_q in product(doubled, doubled):
        with pytest.raises(MultiplicityMismatch):
            solve_cg(pi_p, pi_q, doubled, cs3_fun.haar)
    with pytest.raises(MultiplicityMismatch):
        solve_cg_systems(doubled, doubled, doubled)
