"""Finite groups by multiplication table and the two classical Hopf *-algebras.

Every finite group ``G`` yields two built-in test beds:

* the function algebra ``C(G)`` (commutative): delta-function basis,
  pointwise product, ``coproduct(f)(x, y) = f(xy)``, ``S(f)(x) = f(x^{-1})``,
  ``eps(f) = f(e)``, star = pointwise conjugation;
* the group algebra ``CG`` (cocommutative, noncommutative iff G is):
  group-element basis, convolution product, group-like coproduct,
  ``S(g) = g^{-1}``, ``eps(g) = 1``, ``g^* = g^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import permutations

import numpy as np

from .algebra import HopfAlgebraSpec
from .errors import InvalidGroupTable, NotASubgroup

__all__ = [
    "GroupTable",
    "cyclic_group",
    "symmetric_group_3",
    "all_permutation_group",
    "build_function_algebra",
    "build_group_algebra",
    "builtin_algebras",
]


@dataclass(frozen=True)
class GroupTable:
    """A finite group as a 0-based multiplication table with identity at 0."""

    order: int
    table: np.ndarray  # table[i, j] = index of g_i * g_j
    labels: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=int)
        object.__setattr__(self, "table", t)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"g{i}" for i in range(self.order)))
        self.validate()

    def validate(self) -> None:
        g, t = self.order, self.table
        if t.shape != (g, g):
            raise InvalidGroupTable(f"table shape {t.shape} != ({g}, {g})")
        if t.min() < 0 or t.max() >= g:
            raise InvalidGroupTable("table entries out of range")
        elems = np.arange(g)
        if (np.sort(t, axis=1) != elems).any() or (np.sort(t, axis=0) != elems[:, None]).any():
            raise InvalidGroupTable("table is not a Latin square")
        if (t[0] != elems).any() or (t[:, 0] != elems).any():
            raise InvalidGroupTable("index 0 is not the identity")
        for i in range(g):  # (g_i g_j) g_k against g_i (g_j g_k), one g x g slab per i
            bad = t[t[i]] != t[i][t]
            if bad.any():
                j, k = np.argwhere(bad)[0]
                raise InvalidGroupTable(f"not associative at ({i},{j},{k})")

    def inverse(self, i: int) -> int:
        return int(np.where(self.table[i] == 0)[0][0])

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_subgroup(self, indices: list[int] | tuple[int, ...]) -> bool:
        subset = set(int(i) for i in indices)
        if 0 not in subset or not subset <= set(range(self.order)):
            return False
        return all(self.mul(a, b) in subset for a in subset for b in subset) and all(
            self.inverse(a) in subset for a in subset)

    def cosets(self, subgroup: list[int], side: str) -> list[tuple[int, ...]]:
        """Partition of the group into left cosets ``gH`` (side "L") or right cosets
        ``Hg`` (side "R")."""
        if not self.is_subgroup(subgroup):
            raise NotASubgroup(f"{subgroup} is not a subgroup")
        if side not in ("L", "R"):
            raise ValueError(f"side must be 'L' or 'R', got {side!r}")
        seen: set[int] = set()
        cosets = []
        for g in range(self.order):
            if g in seen:
                continue
            coset = tuple(sorted(self.mul(g, h) if side == "L" else self.mul(h, g)
                                 for h in subgroup))
            seen.update(coset)
            cosets.append(coset)
        return cosets


def cyclic_group(n: int) -> GroupTable:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return GroupTable(n, table, tuple(str(i) for i in range(n)))


def symmetric_group_3() -> GroupTable:
    """S3 as permutations of {0,1,2}: identity, transpositions, 3-cycles."""
    elems = [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]
    index = {p: i for i, p in enumerate(elems)}
    table = np.zeros((6, 6), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            comp = tuple(p[q[x]] for x in range(3))  # (p o q)(x) = p(q(x))
            table[i, j] = index[comp]
    labels = ("e", "(01)", "(02)", "(12)", "(012)", "(021)")
    return GroupTable(6, table, labels)


def all_permutation_group(n: int) -> GroupTable:
    """The full symmetric group on n letters (identity first); small n only."""
    elems = sorted(permutations(range(n)))
    ident = tuple(range(n))
    elems.remove(ident)
    elems.insert(0, ident)
    index = {p: i for i, p in enumerate(elems)}
    size = len(elems)
    table = np.zeros((size, size), dtype=int)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return GroupTable(size, table)


def build_function_algebra(group: GroupTable) -> HopfAlgebraSpec:
    """The commutative Hopf *-algebra of functions on ``group`` (delta basis)."""
    g = group.order
    mult = np.zeros((g, g, g), dtype=complex)
    comult = np.zeros((g, g, g), dtype=complex)
    for j in range(g):
        mult[j, j, j] = 1.0
    for x in range(g):
        for y in range(g):
            comult[group.mul(x, y), x, y] = 1.0
    antipode = np.zeros((g, g), dtype=complex)
    for j in range(g):
        antipode[j, group.inverse(j)] = 1.0
    counit = np.zeros(g, dtype=complex)
    counit[0] = 1.0
    unit = np.ones(g, dtype=complex)
    star = np.eye(g, dtype=complex)
    return HopfAlgebraSpec(g, mult, comult, antipode, counit, unit, star,
                           label=f"C({_group_name(group)})")


def build_group_algebra(group: GroupTable) -> HopfAlgebraSpec:
    """The group algebra of ``group`` as a cocommutative Hopf *-algebra."""
    g = group.order
    mult = np.zeros((g, g, g), dtype=complex)
    comult = np.zeros((g, g, g), dtype=complex)
    antipode = np.zeros((g, g), dtype=complex)
    for i in range(g):
        comult[i, i, i] = 1.0
        antipode[i, group.inverse(i)] = 1.0
        for j in range(g):
            mult[i, j, group.mul(i, j)] = 1.0
    counit = np.ones(g, dtype=complex)
    unit = np.zeros(g, dtype=complex)
    unit[0] = 1.0
    star = antipode.copy()  # g^* = g^{-1} on the group basis
    return HopfAlgebraSpec(g, mult, comult, antipode, counit, unit, star,
                           label=f"C[{_group_name(group)}]")


def _group_name(group: GroupTable) -> str:
    if group.order == 6 and not group.is_abelian():
        return "S3"
    if group.is_abelian():
        # cyclic check: some element generates everything
        for gen in range(group.order):
            seen, cur = {0}, 0
            for _ in range(group.order):
                cur = group.mul(cur, gen)
                seen.add(cur)
            if len(seen) == group.order:
                return f"Z{group.order}"
    return f"G{group.order}"


# label -> (construction, group): the six built-ins, each buildable on its own
_BUILTINS = {
    "C(Z2)": (build_function_algebra, partial(cyclic_group, 2)),
    "C(Z3)": (build_function_algebra, partial(cyclic_group, 3)),
    "C(Z4)": (build_function_algebra, partial(cyclic_group, 4)),
    "C[Z3]": (build_group_algebra, partial(cyclic_group, 3)),
    "C(S3)": (build_function_algebra, symmetric_group_3),
    "C[S3]": (build_group_algebra, symmetric_group_3),
}


def builtin_algebras() -> dict[str, HopfAlgebraSpec]:
    """The six standard test algebras keyed by label."""
    return {label: build(group()) for label, (build, group) in _BUILTINS.items()}
