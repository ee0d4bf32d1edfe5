"""Counting guard: one pass per subcommand.

``wigner-eckart`` factorizes its four (side, kind) tables, and ``homspace`` its
two restricted tables, in one ``_factorize_targets`` call each.  Every
subcommand that builds an irrep table solves the Haar functional once and hands
it to every later solve, and the library functions that answer a question with
``h`` take it from their caller.  A second call would mean a table factorized
on its own or a Haar functional solved again.

The table's Peter-Weyl context is built once, where tensor-operator
certificates run (``tensor-ops``), with one plan per variant, and the irreps'
comodule and unitarity residuals come from one stacked pass per table, run only
where they are reported (``irreps``): canonical sets read no residuals.
"""

from __future__ import annotations

import sys

import pytest

from cqglab import cli, corep, haar, tensor_ops, wigner_eckart
from cqglab.corep import are_equivalent, decompose_comodule, is_irreducible
from cqglab.regular import regular_corep
from cqglab.tensor_ops import VARIANTS, solve_family_space

RUNS = {"irreps": ["irreps", "--builtin", "C(S3)"],
        "cg": ["cg", "--builtin", "C(S3)"],
        "tensor-ops": ["tensor-ops", "--builtin", "C(S3)"],
        "wigner-eckart": ["wigner-eckart", "--builtin", "C(S3)"],
        "homspace": ["homspace", "--builtin", "C(S3)", "--subgroup", "0,1"]}
FACTORIZING = ["wigner-eckart", "homspace"]


def _count(monkeypatch, name: str, modules) -> list[str]:
    """Wrap ``name`` in each module that holds it; the list records every call."""
    calls = []
    for module in modules:
        def counting(*args, _real=getattr(module, name), **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


def _count_solve_haar(monkeypatch) -> list[str]:
    holders = [module for name, module in sys.modules.items()
               if name.startswith("cqglab") and hasattr(module, "solve_haar")]
    return _count(monkeypatch, "solve_haar", holders)


@pytest.mark.parametrize("run", FACTORIZING)
def test_one_factorization_pass(run, tmp_path, monkeypatch):
    calls = _count(monkeypatch, "_factorize_targets", [wigner_eckart])
    assert cli.main([*RUNS[run], "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("run", list(RUNS))
def test_subcommand_solves_the_haar_functional_once(run, tmp_path, monkeypatch):
    calls = _count_solve_haar(monkeypatch)
    assert cli.main([*RUNS[run], "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_irreps_takes_the_gram_positivity_twice(tmp_path, monkeypatch):
    """``solve_haar`` certifies the Gram once and the CLI keeps that matrix; ``_split``
    takes the positivity of the Gram it is handed again, because library callers of
    ``irrep_table`` pass their own.  No third check on the same matrix."""
    calls = _count(monkeypatch, "_positivity", [haar, corep])
    assert cli.main([*RUNS["irreps"], "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 2


# (Peter-Weyl contexts, stacked residual passes) per run, each for the run's one table
TABLE_PASSES = {"tensor-ops": (1, 0), "wigner-eckart": (0, 0), "irreps": (0, 1)}


@pytest.mark.parametrize("run", list(TABLE_PASSES))
def test_one_peter_weyl_context_and_one_residual_pass_per_table(run, tmp_path, monkeypatch):
    contexts, passes = [], _count(monkeypatch, "_corep_residuals", [corep])

    class Counting(tensor_ops._PeterWeyl):
        def __init__(self, table):
            contexts.append(table)
            super().__init__(table)

    monkeypatch.setattr(tensor_ops, "_PeterWeyl", Counting)
    assert cli.main([*RUNS[run], "--output", str(tmp_path / "out.json")]) == 0
    assert (len(contexts), len(passes)) == TABLE_PASSES[run]


def test_tensor_ops_builds_one_plan_per_variant(tmp_path, monkeypatch):
    """``tensor-ops`` checks each variant's stack against one ``_PeterWeyl.plan``, which
    both routes and every chunk read: four plans per run."""
    calls, plan = [], tensor_ops._PeterWeyl.plan

    def counting(self, kind, side):
        calls.append((kind, side))
        return plan(self, kind, side)

    monkeypatch.setattr(tensor_ops._PeterWeyl, "plan", counting)
    assert cli.main([*RUNS["tensor-ops"], "--output", str(tmp_path / "out.json")]) == 0
    assert calls == list(VARIANTS)


def test_library_functions_take_the_callers_haar_functional(cs3_fun, monkeypatch):
    """``solve_family_space``, ``is_irreducible``, ``are_equivalent`` and
    ``decompose_comodule`` solve nothing for ``h``: ``is_irreducible`` takes the
    caller's, and the last two read the one their table carries."""
    table, h = cs3_fun.table, cs3_fun.haar
    assert table.haar is h
    std = table["p2"]
    calls = _count_solve_haar(monkeypatch)
    for kind, side in VARIANTS:
        assert solve_family_space(std, kind, side)
    assert is_irreducible(std, h)
    assert are_equivalent(std, std, table) is not None
    assert len(decompose_comodule(regular_corep(cs3_fun.algebra, "R"), table)) == 4
    assert calls == []
