"""Counting guard: one pass per subcommand.

``wigner-eckart`` factorizes its four (side, kind) tables, and ``homspace`` its
two restricted tables, in one ``_factorize_targets`` call each.  Every
subcommand that builds an irrep table solves the Haar functional once and hands
it to every later solve, and the library functions that answer a question with
``h`` take it from their caller.  A second call would mean a table factorized
on its own or a Haar functional solved again.
"""

from __future__ import annotations

import sys

import pytest

from cqglab import cli, wigner_eckart
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


def test_library_functions_take_the_callers_haar_functional(cs3_fun, monkeypatch):
    """``solve_family_space``, ``is_irreducible``, ``are_equivalent`` and
    ``decompose_comodule`` solve nothing for ``h``."""
    table, h = cs3_fun.table, cs3_fun.haar
    std = table["p2"]
    calls = _count_solve_haar(monkeypatch)
    for kind, side in VARIANTS:
        assert solve_family_space(std, kind, side)
    assert is_irreducible(std, h)
    assert are_equivalent(std, std, table, h) is not None
    assert len(decompose_comodule(regular_corep(cs3_fun.algebra, "R"), table, h)) == 4
    assert calls == []
