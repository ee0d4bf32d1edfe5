from __future__ import annotations

import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cqglab.corep import irrep_table
from cqglab.groups import (GroupTable, all_permutation_group, build_function_algebra,
                           build_group_algebra, builtin_algebras)
from cqglab.haar import gram_matrices, solve_haar


@pytest.fixture(scope="session")
def algebras():
    return builtin_algebras()


class Context:
    """Bundle of derived objects for one algebra, built once per session."""

    def __init__(self, alg):
        self.algebra = alg
        self.haar = solve_haar(alg)
        self.grams = gram_matrices(alg, self.haar)
        self.table = irrep_table(alg, self.haar, self.grams.gram_right)

    def cg(self, p_label: str, q_label: str):
        """The pair's CG system, from the table's own memo."""
        from cqglab.cg import solve_cg
        return solve_cg(self.table[p_label], self.table[q_label], self.table, self.haar)


@pytest.fixture(scope="session")
def contexts(algebras):
    return {label: Context(alg) for label, alg in algebras.items()}


@pytest.fixture(scope="session")
def cs3_fun(contexts):
    return contexts["C(S3)"]


@pytest.fixture(scope="session")
def cs3_grp(contexts):
    return contexts["C[S3]"]


def compose(p, q):
    """The permutation ``x -> p(q(x))``."""
    return tuple(p[q[x]] for x in range(len(q)))


def closure(generators):
    """Every product of the generating permutations, sorted (the identity first)."""
    ident = tuple(range(len(generators[0])))
    elems, frontier = {ident}, [ident]
    while frontier:
        p = frontier.pop()
        for g in generators:
            q = compose(p, g)
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    return sorted(elems)


def even(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


def permutation_group(elems) -> GroupTable:
    """The group of the listed permutations, element ``i`` being ``elems[i]``."""
    index = {p: i for i, p in enumerate(elems)}
    return GroupTable(len(elems), np.array([[index[compose(p, q)] for q in elems]
                                            for p in elems]))


def alternating_elements(k: int) -> list[tuple[int, ...]]:
    """The even permutations of k points in sorted order, identity first."""
    return [p for p in sorted(permutations(range(k))) if even(p)]


def alternating_group_4() -> GroupTable:
    """A4 as the even permutations of four letters, identity first."""
    return permutation_group(alternating_elements(4))


@pytest.fixture(scope="session")
def ca4_fun():
    """C(A4): its 3-dim irrep fuses with itself with multiplicity 2."""
    return Context(build_function_algebra(alternating_group_4()))


@pytest.fixture(scope="session")
def ca4_grp():
    """C[A4]: twelve 1-dim irreps of a noncommutative algebra."""
    return Context(build_group_algebra(alternating_group_4()))


@pytest.fixture(scope="session")
def cs4_fun():
    """C(S4), n = 24: irreps of dims 1, 1, 2, 3, 3."""
    return Context(build_function_algebra(all_permutation_group(4)))


def dihedral_group(k: int) -> GroupTable:
    """D_k as the maps ``i -> s i + r (mod k)`` of the k-gon's vertices, identity first."""
    return permutation_group(
        sorted({tuple((s * i + r) % k for i in range(k)) for r in range(k) for s in (1, -1)}))


@pytest.fixture(scope="session")
def cd6_fun():
    """C(D6): irreps of dims 1, 1, 1, 1, 2, 2, so CG targets of mixed dimension."""
    return Context(build_function_algebra(dihedral_group(6)))


@pytest.fixture(scope="session")
def ca5_fun():
    """C(A5), n = 60: irreps of dims 1, 3, 3, 4, 5; the two 3-dim ones are not real-valued
    on the 5-cycles ((1 +- sqrt 5)/2) and are swapped by an outer automorphism."""
    return Context(build_function_algebra(permutation_group(alternating_elements(5))))


@pytest.fixture(scope="session")
def ca5_grp():
    """C[A5], n = 60: sixty group-likes."""
    return Context(build_group_algebra(permutation_group(alternating_elements(5))))
