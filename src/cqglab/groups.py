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
from functools import cached_property, partial
from itertools import permutations

import numpy as np

from .algebra import HopfAlgebraSpec
from .errors import InvalidGroupTable

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

    @cached_property
    def inverses(self) -> np.ndarray:
        """``inverses[i]`` is the index of ``g_i^{-1}``, the one 0 in row ``i``."""
        return np.nonzero(self.table == 0)[1]

    def inverse(self, i: int) -> int:
        return int(self.inverses[i])

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def is_subgroup(self, indices: list[int] | tuple[int, ...]) -> bool:
        """Nonempty, in range and closed under the product: in a finite group, a subgroup."""
        return self._members(indices) is not None

    def _members(self, indices: list[int] | tuple[int, ...]) -> np.ndarray | None:
        """The boolean membership mask of ``indices`` over the elements, repeats and order
        aside, if they pass :meth:`is_subgroup`; else None."""
        idx, mask = np.asarray(indices, dtype=int), np.zeros(self.order, dtype=bool)
        if not (idx.size and idx.min() >= 0 and idx.max() < self.order):
            return None
        mask[idx] = True
        return mask if mask[self.table[np.ix_(idx, idx)]].all() else None


def cyclic_group(n: int) -> GroupTable:
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return GroupTable(n, table, tuple(str(i) for i in range(n)))


def _permutation_group(elems: list[tuple[int, ...]], labels: tuple[str, ...] = ()
                       ) -> GroupTable:
    """The group of the permutations ``elems`` (identity first) under composition,
    ``(p o q)(x) = p(q(x))``."""
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[tuple(p[x] for x in q)] for q in elems] for p in elems]
    return GroupTable(len(elems), np.array(table), labels)


def symmetric_group_3() -> GroupTable:
    """S3 as permutations of {0,1,2}: identity, transpositions, 3-cycles."""
    return _permutation_group([(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)],
                              ("e", "(01)", "(02)", "(12)", "(012)", "(021)"))


def all_permutation_group(n: int) -> GroupTable:
    """The full symmetric group on n letters in lexicographic order, which puts the
    identity first; small n only."""
    return _permutation_group(sorted(permutations(range(n))))


def build_function_algebra(group: GroupTable) -> HopfAlgebraSpec:
    """The commutative Hopf *-algebra of functions on ``group`` (delta basis)."""
    g, idx = group.order, np.arange(group.order)
    mult = np.zeros((g, g, g))
    mult[idx, idx, idx] = 1.0
    comult = np.zeros((g, g, g))
    comult[group.table, idx[:, None], idx] = 1.0  # coproduct(delta_xy) gets delta_x (x) delta_y
    antipode = np.zeros((g, g))
    antipode[idx, group.inverses] = 1.0
    return HopfAlgebraSpec(g, mult, comult, antipode, np.eye(g)[0], np.ones(g), np.eye(g),
                           label=f"C({_group_name(group)})")


def build_group_algebra(group: GroupTable) -> HopfAlgebraSpec:
    """The group algebra of ``group`` as a cocommutative Hopf *-algebra."""
    g, idx = group.order, np.arange(group.order)
    mult = np.zeros((g, g, g))
    mult[idx[:, None], idx, group.table] = 1.0
    comult = np.zeros((g, g, g))
    comult[idx, idx, idx] = 1.0
    antipode = np.zeros((g, g))
    antipode[idx, group.inverses] = 1.0
    # unit e; the star is the antipode, g^* = g^{-1} on the group basis (the spec keeps copies)
    return HopfAlgebraSpec(g, mult, comult, antipode, np.ones(g), np.eye(g)[0], antipode,
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
