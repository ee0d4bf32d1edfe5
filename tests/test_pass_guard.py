"""Counting guard: one pass per subcommand.

``wigner-eckart`` factorizes its four (side, kind) tables, and ``homspace`` its
two restricted tables, in one ``_factorize_targets`` call each; ``homspace``
solves the Haar functional once and hands it to every restricted solve.  A
second call would mean a table factorized on its own or a Haar functional
solved again.
"""

from __future__ import annotations

import sys

import pytest

from cqglab import cli, wigner_eckart

RUNS = {"wigner-eckart": ["wigner-eckart", "--builtin", "C(S3)"],
        "homspace": ["homspace", "--builtin", "C(S3)", "--subgroup", "0,1"]}


def _count(monkeypatch, name: str, modules) -> list[str]:
    """Wrap ``name`` in each module that holds it; the list records every call."""
    calls = []
    for module in modules:
        def counting(*args, _real=getattr(module, name), **kwargs):
            calls.append(name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("run", list(RUNS))
def test_one_factorization_pass(run, tmp_path, monkeypatch):
    calls = _count(monkeypatch, "_factorize_targets", [wigner_eckart])
    assert cli.main([*RUNS[run], "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1


def test_homspace_solves_the_haar_functional_once(tmp_path, monkeypatch):
    holders = [module for name, module in sys.modules.items()
               if name.startswith("cqglab") and hasattr(module, "solve_haar")]
    calls = _count(monkeypatch, "solve_haar", holders)
    assert cli.main([*RUNS["homspace"], "--output", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1
