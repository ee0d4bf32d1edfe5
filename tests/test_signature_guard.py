"""Static guard: each value a function works with has one source among its arguments.

A Haar functional, a Gram pair, an irrep table, a corepresentation, a coideal,
a basis-function set and a tensor-operator family each carry their algebra,
and a basis-function set carries its side.  A parameter that restates one of
them lets a caller pass an inconsistent pair, so no function of the package
takes a ``HopfAlgebraSpec`` beside one of those, or a ``side`` beside a
basis-function set.  Two functions keep their spec because the benchmark's
library pipeline calls them with it; each is listed with the line of
``perfbench/jobs.py`` that pins it, and leaves the list when that line goes.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "cqglab"

CARRIERS = {"LinearFunctional", "HaarFunctional", "GramPair", "IrrepTable", "Corepresentation",
            "CoidealSubalgebra", "BasisFunctionSet", "TensorOperatorFamily"}
PINNED = {
    "gram_matrices": "grams = cq.gram_matrices(alg, h)",
    "irrep_table": "table = cq.irrep_table(alg, h, grams.gram_right, seed=seed)",
}
# parameters that no caller set, now fixed where they were read
UNSET = {("canonical_basis_functions", "label"), ("_canonical_set", "label"),
         ("identity_corep", "label"), ("multiplication_family", "label"),
         ("subspace_coideal", "label"), ("_split", "cluster_tol")}


def _functions(tree: ast.AST):
    """Each function of a module with its parameters' names and annotated type names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = {arg.arg: {name.id for name in ast.walk(arg.annotation)
                                if isinstance(name, ast.Name)} if arg.annotation else set()
                      for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]}
            yield node, params


def _offenders(tree: ast.AST, where: str) -> list[str]:
    out = []
    for node, params in _functions(tree):
        types = set().union(*params.values())
        if "HopfAlgebraSpec" in types and types & CARRIERS and node.name not in PINNED:
            out.append(f"{where}:{node.lineno} {node.name} takes a spec beside "
                       f"{sorted(types & CARRIERS)}")
        if "side" in params and "BasisFunctionSet" in types:
            out.append(f"{where}:{node.lineno} {node.name} takes a side beside a "
                       f"basis-function set")
    return out


def _package():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_function_restates_what_its_arguments_carry():
    offenders = [line for name, tree in _package() for line in _offenders(tree, name)]
    assert offenders == []


@pytest.mark.parametrize("name", sorted(PINNED))
def test_each_allowed_spec_is_pinned_by_the_benchmark(name):
    """An allowed function still takes a spec beside a carrier, and the benchmark's
    pipeline still makes the call that pins it."""
    pinned = [params for _, tree in _package() for node, params in _functions(tree)
              if node.name == name]
    assert len(pinned) == 1 and "HopfAlgebraSpec" in set().union(*pinned[0].values())
    assert PINNED[name] in (ROOT / "perfbench" / "jobs.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("source", [
    "def f(alg: HopfAlgebraSpec, h: HaarFunctional, tol: float = 1e-9): ...",
    "def f(alg: HopfAlgebraSpec, grams: GramPair): ...",
    "def f(a: BasisFunctionSet, b: BasisFunctionSet, side: str): ...",
])
def test_guard_catches_a_restated_argument(source):
    assert len(_offenders(ast.parse(source), "example")) == 1


def test_parameters_no_caller_set_are_gone():
    params = {(node.name, param) for _, tree in _package() for node, names in _functions(tree)
              for param in names}
    assert not UNSET & params
    assert "_load_spec" not in {node.name for node, _ in _functions(
        ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8")))}
