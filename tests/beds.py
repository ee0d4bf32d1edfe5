"""The test beds: every algebra the suites run on is built, admitted and given its
known answers here.  Tests build only one-off specs of their own: tampered or
perturbed copies, relabellings they compare, and fresh specs whose caches they count.

An entry (:class:`Bed`) is a label, a builder and the sorted irrep dims that group
theory predicts for it.  The properties the suites select by (``n``, commutative,
cocommutative, real) are computed from the built spec, never set by hand.

:func:`context` is the one lookup.  On an entry's first lookup in a session it builds
the Haar functional, the Grams and the irrep table and admits the bed: the Hopf and
star axiom suites, ``certify_haar`` and the orthonormality of the table's characters,
each at ``1e-12``.  A bed that fails admission raises in every lookup, so the tests
that use it go red; it is never skipped or dropped.

To add a bed, append a :class:`Bed` to the registry below with its known dims; the
known-answer test (``test_testbeds``) and every suite whose selection it meets pick it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import permutations
from math import factorial
from typing import Callable

import numpy as np

from oracles import is_commutative

from cqglab.algebra import HopfAlgebraSpec, build_dual, verify_hopf_axioms, verify_star_axioms
from cqglab.corep import irrep_table
from cqglab.groups import (_BUILTINS, GroupTable, all_permutation_group, build_function_algebra,
                           build_group_algebra, cyclic_group, symmetric_group_3)
from cqglab.haar import certify_haar, gram_matrices, solve_haar
from cqglab.report import Report

ADMISSION_TOL = 1e-12

# ---------------------------------------------------------------------------
# groups as permutations
# ---------------------------------------------------------------------------


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


def dihedral_group(k: int) -> GroupTable:
    """D_k as the maps ``i -> s i + r (mod k)`` of the k-gon's vertices, identity first."""
    return permutation_group(
        sorted({tuple((s * i + r) % k for i in range(k)) for r in range(k) for s in (1, -1)}))


def relabelled(group: GroupTable, seed: int) -> GroupTable:
    """The group with the identity kept at 0 and the other elements renamed at random."""
    labels = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.empty_like(group.table)
    table[np.ix_(labels, labels)] = labels[group.table]
    return GroupTable(group.order, table)


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def tensor_product_algebra(first, second):
    """The tensor product Hopf *-algebra: every structure tensor is a Kronecker product.

    Basis element ``a_i (x) b_j`` has index ``i * second.dim + j``, the index
    order of ``np.kron``.
    """
    return HopfAlgebraSpec(
        first.dim * second.dim,
        np.kron(first.mult, second.mult), np.kron(first.comult, second.comult),
        np.kron(first.antipode, second.antipode), np.kron(first.counit, second.counit),
        np.kron(first.unit, second.unit), np.kron(first.star, second.star),
        label=f"{first.label}(x){second.label}")


def twisted_group_algebra(group, a: int, b: int):
    """``C[G]`` twisted by ``J`` over ``K = {e, a, b, ab}``, ``a`` and ``b`` commuting
    involutions of ``group``: ``Delta^J(x) = J Delta(x) J^{-1}`` and ``S^J(x) = Q S(x) Q^{-1}``
    with ``Q = J^1 S(J^2)``; product, star, counit and unit stay ``C[G]``'s.

    ``J = sum_{chi, psi} c(chi, psi) P_chi (x) P_psi`` over the characters of ``K``, with
    the idempotents ``P_chi = sum_k chi(k) k / 4`` and the nontrivial normalized cocycle
    ``c((s, t), (u, v)) = (-1)^(s v)``.  Its 16 terms ``J[k, l]`` on ``K x K`` are real and
    ``J^{-1} = J``, so ``J`` is unitary and the result is again a Hopf *-algebra.  Whether
    ``Delta^J`` is cocommutative depends on ``K`` (it stays so for a normal Klein subgroup
    of A4), so each bed checks it.  Each structure tensor is built from ``J``'s terms and
    the group table, with no ``n^4`` product.
    """
    base, table, n = build_group_algebra(group), group.table, group.order
    inv = group.inverses
    if table[a, a] != 0 or table[b, b] != 0 or table[a, b] != table[b, a]:
        raise ValueError("a and b must be commuting involutions")
    k = np.array([0, a, b, table[a, b]])                         # a^i b^j at 2 i + j
    bits = np.array([(0, 0), (0, 1), (1, 0), (1, 1)])
    chars = (-1.0) ** (bits @ bits.T)                            # [chi, k]: chi_(s,t)(a^i b^j)
    cocycle = (-1.0) ** np.outer(bits[:, 0], bits[:, 1])        # [chi, psi]: (-1)^(s v)
    twist = chars.T @ cocycle @ chars / 16                      # J[k, l], and J^{-1} = J
    # Delta^J(g) = sum J[k, l] J[k', l'] (k g k') (x) (l g l'), axes [g, k, l, k', l']
    g = np.arange(n)[:, None, None, None, None]
    first = table[table[k[:, None, None, None], g], k[:, None]]
    second = table[table[k[:, None, None], g], k]
    shape = (n, 4, 4, 4, 4)
    comult = np.zeros((n, n, n))
    np.add.at(comult, tuple(np.broadcast_to(x, shape) for x in (g, first, second)),
              np.broadcast_to(np.multiply.outer(twist, twist), shape))
    # Q = sum J[k, l] k l^{-1}, and Q^{-1} from its left-multiplication matrix
    q = np.zeros(n)
    np.add.at(q, table[k[:, None], inv[k][None, :]], twist)
    left = np.zeros((n, n))
    np.add.at(left, (table, np.broadcast_to(np.arange(n), (n, n))),  # Q e_j = sum q_i e_ij
              np.broadcast_to(q[:, None], (n, n)))
    q_inv = np.linalg.solve(left, base.unit)
    # S^J(g) = Q g^{-1} Q^{-1}
    antipode = np.zeros((n, n))
    rows = np.arange(n)[:, None, None]
    np.add.at(antipode, (rows, table[table[np.arange(n)[None, :, None], inv[rows]],
                                     np.arange(n)[None, None, :]]),
              q[None, :, None] * q_inv[None, None, :])
    return HopfAlgebraSpec(n, base.mult, comult, antipode, base.counit, base.unit, base.star,
                           label=f"{base.label}^J")


def rotated_algebra(alg, seed: int, real: bool = False):
    """``alg`` in the basis ``b_p = sum_j U[p, j] a_j`` for a random unitary ``U``.

    ``U`` is the Q factor of a complex Gaussian matrix drawn from ``seed``, so the
    new star matrix ``conj(U) star U^H`` is not real.  An element with
    coefficients ``x`` in the old basis has ``x @ U^H`` in the new one.  With
    ``real``, ``U`` is the Q factor of a real Gaussian matrix: a real ``alg`` stays
    real, with dense entries that are no longer 0 or 1.
    """
    rng = np.random.default_rng(seed)
    n = alg.dim
    gauss = rng.standard_normal((n, n))
    u, _ = np.linalg.qr(gauss if real else gauss + 1j * rng.standard_normal((n, n)))
    ui = u.conj().T
    mult = np.tensordot(np.tensordot(u, np.tensordot(u, alg.mult, (1, 0)), (1, 1)),
                        ui, (2, 0)).swapaxes(0, 1)
    comult = np.tensordot(np.tensordot(u, alg.comult, (1, 0)) @ ui, ui, (1, 0)).swapaxes(1, 2)
    return HopfAlgebraSpec(n, mult, comult, u @ alg.antipode @ ui, u @ alg.counit,
                           alg.unit @ ui, np.conj(u) @ alg.star @ ui,
                           label=f"rot{seed}({alg.label})")


# ---------------------------------------------------------------------------
# known answers
# ---------------------------------------------------------------------------


def hook_length_degrees(n: int) -> tuple[int, ...]:
    """Degrees of the irreducible representations of S_n, by the hook-length formula."""
    def partitions(rest, largest):
        if rest == 0:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            for tail in partitions(rest - part, part):
                yield (part,) + tail

    degrees = []
    for shape in partitions(n, n):
        columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
        hooks = 1
        for i, row in enumerate(shape):
            for j in range(row):
                hooks *= (row - j) + (columns[j] - i) - 1
        degrees.append(factorial(n) // hooks)
    return tuple(sorted(degrees))


def dihedral_degrees(k: int) -> tuple[int, ...]:
    """The character degrees of D_k (order 2k): four 1s for even k, two for odd, the
    rest 2s."""
    ones = 2 if k % 2 else 4
    return (1,) * ones + (2,) * ((2 * k - ones) // 4)


def twist_dims(group: GroupTable, a: int, b: int) -> tuple[int, ...]:
    """The irrep dims of ``C[G]^J`` twisted over ``K = {e, a, b, ab}``, by the
    double-coset rule (Etingof and Gelaki, "The representation theory of cotriangular
    semisimple Hopf algebras", IMRN 1999): each double coset ``KgK`` gives ``|K_g|``
    irreps of dim ``|K : K_g|``, ``K_g = K ∩ gKg^-1``.  For ``K_g = K`` the rule
    needs the restricted cocycle trivial, which it is here: ``Z2 x Z2`` has one
    nondegenerate alternating form, so conjugation by g keeps J's class."""
    t, inv = group.table, group.inverses
    k = {0, a, b, int(t[a, b])}
    seen, dims = set(), []
    for g in range(group.order):
        if g not in seen:
            seen |= {int(t[t[x, g], y]) for x in k for y in k}
            stable = len(k & {int(t[t[g, x], inv[g]]) for x in k})
            dims += [len(k) // stable] * stable
    return tuple(sorted(dims))


S4 = all_permutation_group(4)
D6 = dihedral_group(6)
# C[S4] is twisted over K = <(01), (23)>, C[D6] over K = {e, r^3, s, s r^3}: r^3 the
# central half turn, s the reflection fixing vertex 0 (the first non-central involution)
S4_KLEIN = tuple(sorted(permutations(range(4))).index(p) for p in ((1, 0, 2, 3), (0, 1, 3, 2)))
_HALF_TURN = next(g for g in range(1, D6.order) if (D6.table[g] == D6.table[:, g]).all())
D6_KLEIN = (_HALF_TURN, next(g for g in range(1, D6.order)
                             if D6.table[g, g] == 0 and g != _HALF_TURN))

# name -> (group, its character degrees): hook lengths for S_n, 1s for abelian groups
GROUPS = {
    **{f"Z{k}": (cyclic_group(k), (1,) * k) for k in (2, 3, 4)},
    "S3": (symmetric_group_3(), hook_length_degrees(3)),
    **{f"D{k}": (dihedral_group(k), dihedral_degrees(k)) for k in (4, 5)},
    "D6": (D6, dihedral_degrees(6)),
    "A4": (alternating_group_4(), (1, 1, 1, 3)),
    "S4": (S4, hook_length_degrees(4)),
    "A5": (permutation_group(alternating_elements(5)), (1, 3, 3, 4, 5)),
}

# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bed:
    """One test bed: its label, its builder and the sorted irrep dims it must have."""

    label: str
    build: Callable[[], HopfAlgebraSpec]
    dims: tuple[int, ...]

    @cached_property
    def algebra(self) -> HopfAlgebraSpec:
        return self.build()

    @property
    def n(self) -> int:
        return self.algebra.dim

    @cached_property
    def commutative(self) -> bool:
        return is_commutative(self.algebra)

    @cached_property
    def cocommutative(self) -> bool:
        return is_commutative(build_dual(self.algebra))

    @property
    def real(self) -> bool:
        """The spec stores its structure constants as float64: none has an imaginary part."""
        return not np.iscomplexobj(self.algebra.mult)


def _function(name: str, group: GroupTable | None = None, suffix: str = "") -> Bed:
    base, degrees = GROUPS[name]
    return Bed(f"C({name}){suffix}", partial(build_function_algebra, group or base), degrees)


def _group(name: str, group: GroupTable | None = None, suffix: str = "") -> Bed:
    base, _ = GROUPS[name]
    return Bed(f"C[{name}]{suffix}", partial(build_group_algebra, group or base),
               (1,) * base.order)


def _rotated(label: str) -> Bed:
    """``label``'s bed in a random unitary basis: its star matrix is not real."""
    return Bed(f"rot {label}", lambda: rotated_algebra(BEDS[label].algebra, 1), BEDS[label].dims)


def _twisted(name: str, klein: tuple[int, int]) -> Bed:
    """``C[G]^J`` over ``K = {e, a, b, ab}``, neither commutative nor cocommutative."""
    group, _ = GROUPS[name]
    return Bed(f"C[{name}]^J", lambda: twisted_group_algebra(group, *klein),
               twist_dims(group, *klein))


def _dual(label: str, dims: tuple[int, ...]) -> Bed:
    return Bed(f"dual {label}", lambda: build_dual(BEDS[label].algebra), dims)


def _tensor_product(first: str, second: str) -> Bed:
    """The product bed, whose irreps are the products of the factors' irreps."""
    return Bed(f"{first}(x){second}",
               lambda: tensor_product_algebra(BEDS[first].algebra, BEDS[second].algebra),
               tuple(sorted(p * q for p in BEDS[first].dims for q in BEDS[second].dims)))


BEDS: dict[str, Bed] = {}


def _register(*beds: Bed) -> None:
    BEDS.update((bed.label, bed) for bed in beds)


_register(*[(_function if label.startswith("C(") else _group)(label[2:-1])
            for label in _BUILTINS])
_register(_rotated("C(S3)"), _rotated("C[S3]"), _function("D4"), _function("D5"))
for _name in ("D6", "A4", "S4", "A5"):
    _register(_function(_name), _group(_name))
for _name in ("D4", "D5", "D6", "A4"):      # the same groups with their elements renamed
    for _seed in (1, 2):
        _copy = relabelled(GROUPS[_name][0], _seed)
        _register(_function(_name, _copy, f"/{_seed}"), _group(_name, _copy, f"/{_seed}"))
_register(MIXED := _tensor_product("C(S3)", "C[S3]"))
_register(_rotated(MIXED.label), _dual(MIXED.label, MIXED.dims))
# the dual of C[G]^J has C[G]'s product, so G's irreps
_register(_twisted("D6", D6_KLEIN), _dual("C[D6]^J", GROUPS["D6"][1]),
          _twisted("S4", S4_KLEIN), _dual("C[S4]^J", GROUPS["S4"][1]))

BUILTINS = list(_BUILTINS)


def select(keep: Callable[[Bed], bool] = lambda bed: True) -> list[str]:
    """The labels of the entries ``keep`` accepts, in registry order."""
    return [label for label, bed in BEDS.items() if keep(bed)]


def up_to(n: int) -> list[str]:
    """Every entry with at most ``n`` basis elements."""
    return select(lambda bed: bed.n <= n)


# ---------------------------------------------------------------------------
# the one lookup
# ---------------------------------------------------------------------------


class Context:
    """A bed's derived objects, built once per session, and the reports that admitted it."""

    def __init__(self, bed: Bed):
        self.bed = bed
        self.algebra = alg = bed.algebra
        self.haar = solve_haar(alg)
        self.grams = gram_matrices(alg, self.haar)
        self.table = irrep_table(alg, self.haar, self.grams.gram_right)
        self.admission = {"hopf": verify_hopf_axioms(alg, ADMISSION_TOL),
                          "star": verify_star_axioms(alg, ADMISSION_TOL),
                          "haar": certify_haar(self.haar, ADMISSION_TOL),
                          "characters": _character_report(self.table, self.haar)}

    def cg(self, p_label: str, q_label: str):
        """The pair's CG system, from the table's own memo."""
        from cqglab.cg import solve_cg
        return solve_cg(self.table[p_label], self.table[q_label], self.table, self.haar)


def character_gram(table, h) -> np.ndarray:
    """``h(chi_p^* chi_q)`` for every pair of the table's irreducible characters."""
    chis = np.array([np.einsum("jjm->m", pi.coeffs) for pi in table])
    return np.conj(chis) @ table.algebra.star @ h.pair @ chis.T


def _character_report(table, h) -> Report:
    report = Report(f"character orthonormality [{table.algebra.label}]")
    gram = character_gram(table, h)
    report.add("h(chi_p^* chi_q) = delta_pq",
               float(np.abs(gram - np.eye(len(table))).max()), ADMISSION_TOL)
    return report


@cache
def context(label: str) -> Context:
    """The admitted context of the entry ``label``; raises if the bed fails admission."""
    ctx = Context(BEDS[label])
    failed = [report.summary() for report in ctx.admission.values() if not report.passed]
    if failed:
        raise AssertionError(f"{label} fails admission: " + "; ".join(failed))
    return ctx
