"""The table's CG memo: ``solve_cg`` on a table's own irreps reads one table-wide solve.

The first ``solve_cg`` on a table solves every ordered pair of its irreps with
one ``solve_cg_systems`` call (``IrrepTable._cg_systems``); a second walk over
the pairs makes no engine call and returns the same objects.  The memo's
systems must agree with the one-pair engine call, which copies of the irreps
still take, in column index, multiplicities and C.  The CLI batches its own
products and never calls ``solve_cg``.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from beds import context

from cqglab import cg
from cqglab.cg import solve_cg
from cqglab.corep import Corepresentation

TOL = 1e-12


def _copy(pi):
    return Corepresentation(pi.algebra, pi.coeffs, pi.label)


@pytest.fixture(params=["C(S3)", "C(D6)", "C(A4)"], ids=["C(S3)", "cd6_fun", "ca4_fun"])
def ctx(request):
    return context(request.param)


def test_a_second_walk_makes_no_engine_call(ctx, monkeypatch):
    calls, block_diagonalize = [], cg._block_diagonalize

    def counting(bigs, names, table):
        calls.append(len(bigs))
        return block_diagonalize(bigs, names, table)

    monkeypatch.setattr(cg, "_block_diagonalize", counting)
    table = dataclasses.replace(ctx.table)   # the same irreps, with an empty memo
    pairs = [(p, q) for p in table for q in table]
    first = [solve_cg(p, q, table, ctx.haar) for p, q in pairs]
    assert sum(calls) == len(pairs)          # every pair, in one call per product size
    assert len(calls) == len({p.dim * q.dim for p, q in pairs})
    calls.clear()
    second = [solve_cg(p, q, table, ctx.haar) for p, q in pairs]
    assert calls == []
    assert all(a is b for a, b in zip(first, second))


def test_memo_matches_the_one_pair_engine(ctx):
    table = ctx.table
    for p in table:
        for q in table:
            memo = solve_cg(p, q, table, ctx.haar)
            single = solve_cg(_copy(p), _copy(q), table, ctx.haar)
            assert memo is not single
            assert memo.col_index == single.col_index, (p.label, q.label)
            assert memo.multiplicities == single.multiplicities, (p.label, q.label)
            assert np.abs(memo.C - single.C).max() <= TOL, (p.label, q.label)


def test_the_memo_is_read_only(cs3_fun):
    systems = cs3_fun.table._cg_systems
    with pytest.raises(TypeError):
        systems["p0", "p0"] = systems["p1", "p1"]


def test_the_cli_never_calls_solve_cg():
    """Each CLI subcommand batches the label products it needs with
    ``solve_cg_systems``, so a ``--p``/``--q`` subset pays only for its pairs."""
    path = Path(cg.__file__).with_name("cli.py")
    names = {getattr(node, "id", getattr(node, "attr", None))
             for node in ast.walk(ast.parse(path.read_text()))}
    assert "solve_cg" not in names and "solve_cg_systems" in names
