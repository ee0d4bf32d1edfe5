"""Irreducible tensor operators: ordinary and twisted, right and left.

An operator on the algebra is an ``n x n`` matrix acting on coefficient
columns.  A family ``Q_1 .. Q_d`` belongs to a unitary irreducible
corepresentation ``pi`` of dimension ``d`` for one of four variants
(ordinary/twisted x right/left) when the variant's defining condition holds.
All four conditions share one pipeline applied to each basis element ``a``::

    coact(a) --(Q (x) S^pm)--> A (x) A --(coact (x) id)--> A (x) A (x) A
          [twisted: swap the last two legs] --(id (x) M)--> A (x) A

with ``coact`` the right or left regular coaction, ``S`` in the ordinary
variants and ``S^{-1}`` in the twisted ones; the result must equal
``sum_k Q_k(a) (x) pi_kj``.

Each variant equivalently defines a right coaction on operator space,
``Q -> sum_m Q^(m) (x) a_m``.  On the whole algebra its components are computed
in the Peter-Weyl basis ``u^r_ij`` of an irrep table (:class:`_PeterWeyl`), where
the coaction is block-diagonal, by two routes: "constants" reads the coaction
off the closed form ``Delta(u^r_ij) = sum_m u^r_im (x) u^r_mj``, "maps" off the
side's regular coaction tensor carried into that basis.  Both come back to the
input basis, and the two must agree.  :func:`operator_coaction_report`
certifies that agreement and the coaction axioms for one operator, and
:func:`check_families` runs both routes wherever families are certified.
Operators live on a :class:`cqglab.regular.Carrier`, the whole algebra by
default; only there do the Peter-Weyl routes and the Heisenberg double apply,
and a coideal's families run the structure-map pipeline in its own basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HopfAlgebraSpec, _freeze, _same_spec
from .cg import tensor_product
from .corep import RANK_RCOND, Corepresentation, IrrepTable, _phase_fixed
from .errors import DecompositionStall, NotACorepresentation, PeterWeylFailure
from .regular import BasisFunctionSet, Carrier, _carrier_of, regular_carrier
from .report import Report

__all__ = [
    "VARIANTS",
    "TensorOperatorFamily",
    "pipeline_components",
    "operator_comodule",
    "operator_coaction_components",
    "operator_coaction_report",
    "check_family",
    "check_families",
    "family_report",
    "multiplication_family",
    "solve_family_space",
    "apply_family_to_basis_functions",
    "operator_product_rule_residual",
    "couple_families",
    "excluded_substitution_residual",
]

VARIANTS = (("ordinary", "R"), ("twisted", "R"), ("ordinary", "L"), ("twisted", "L"))

# the Peter-Weyl routes take the operator stack in chunks of at most this many
# entries of one k n^3 array (a handful of such arrays are alive per chunk)
STACK_ENTRIES = 1 << 21
# condition number of the table's coefficient rows above which they are no basis
PETER_WEYL_COND = 1e4
# mass a regular coaction tensor may leave outside its Peter-Weyl pattern, relative
# to its largest entry
PETER_WEYL_LEAK = 1e-9


def _variant_key(kind: str, side: str) -> tuple[str, str]:
    if kind not in ("ordinary", "twisted") or side not in ("R", "L"):
        raise ValueError(f"unknown variant {(kind, side)!r}")
    return kind, side


def pipeline_components(coact: np.ndarray, alg: HopfAlgebraSpec, kind: str,
                        q_op: np.ndarray) -> np.ndarray:
    """Defining-condition pipeline for an arbitrary carrier coaction tensor.

    ``coact[t, a, b]`` may be restricted (carrier dimension below ``n``); the
    second legs always live in the full algebra.  Returns components
    ``out[m, alpha, t]``.
    """
    return _pipeline(coact, alg, np.asarray(q_op)[None], *_antipode_and_swap(alg, kind))[0]


def _antipode_and_swap(alg: HopfAlgebraSpec, kind: str) -> tuple[np.ndarray, bool]:
    """The variant's antipode power and whether its last two legs are swapped."""
    if kind == "ordinary":
        return alg.antipode, False
    return alg.antipode_inv, True


def _pipeline(coact: np.ndarray, alg: HopfAlgebraSpec, q_ops: np.ndarray,
              spow: np.ndarray, swapped: bool) -> np.ndarray:
    """The pipeline for a stack of operators ``q_ops[k]``, with the antipode power
    ``spow`` and the leg swap as free inputs.  Returns ``out[k, m, alpha, t]``."""
    b, n = coact.shape[0], alg.dim
    legs = np.tensordot(q_ops, coact, axes=(2, 1)) @ spow   # (Q (x) S^pm): [k, i, t, w]
    legs = np.matmul(coact.reshape(b, b * n).T,
                     legs.transpose(0, 2, 1, 3))            # (coact (x) id): [k, t, (A, B), w]
    mult = alg.mult.transpose(1, 0, 2) if swapped else alg.mult          # [B, w, M]
    out = legs.reshape(len(q_ops), b, b, n * n) @ mult.reshape(n * n, n)  # id (x) M: [k, t, A, M]
    return out.transpose(0, 3, 2, 1)


def operator_comodule(coact: np.ndarray, alg: HopfAlgebraSpec, kind: str) -> np.ndarray:
    """Operator space ``End(B)`` of a carrier as a comodule, in matrix-coefficient form.

    The defining pipeline of :func:`pipeline_components` applied to the ``b^2``
    unit operators ``E_xy``: ``out[(A, t), (x, y)]`` is the coefficient vector
    with which ``E_xy`` contributes to the ``(A, t)`` entry of the components.
    Returns a ``(b*b, b*b, n)`` array for a carrier of dimension ``b``.
    """
    b = coact.shape[0]
    units = np.eye(b * b).reshape(b * b, b, b)                # [(x, y), x, y]
    out = _pipeline(coact, alg, units, *_antipode_and_swap(alg, kind))  # [(x, y), M, A, t]
    return out.transpose(2, 3, 0, 1).reshape(b * b, b * b, alg.dim)


def operator_coaction_components(table: IrrepTable, q_op: np.ndarray, kind: str,
                                 side: str, route: str = "constants") -> np.ndarray:
    """Components ``C[m]`` of the operator-space coaction of one operator on the
    table's algebra.

    ``sum_m C[m] (x) a_m`` is the coaction image; equivalently ``C[m][:, t]``
    is the ``a_m``-component of the defining pipeline applied to ``a_t``.
    """
    return _coaction_stack(table, np.asarray(q_op, dtype=complex)[None], side,
                           _route(table, kind, side, route))[0]


def _route(table: IrrepTable, kind: str, side: str, route: str
           ) -> tuple[np.ndarray, list[np.ndarray]]:
    """One route of one variant on the table's Peter-Weyl context (:meth:`_PeterWeyl.route`),
    built for the caller to pass to each :func:`_coaction_stack` that runs it."""
    kind, side = _variant_key(kind, side)
    if route not in ("constants", "maps"):
        raise ValueError(f"unknown route {route!r}")
    return table._peter_weyl.route(kind, side, route)


def _coaction_stack(table: IrrepTable, q_ops: np.ndarray, side: str,
                    maps: tuple[np.ndarray, list[np.ndarray]]) -> np.ndarray:
    """:func:`operator_coaction_components` of a stack ``q_ops[k]`` under a route ``maps``
    of :func:`_route` on ``side``: ``out[k, m, a, t]``."""
    context, step = table._peter_weyl, _chunk(table.algebra.dim)
    return np.concatenate([
        context.components(q_ops[i:i + step], side, maps).transpose(0, 3, 1, 2)
        for i in range(0, len(q_ops), step)])


def _chunk(n: int) -> int:
    """Operators per chunk of the Peter-Weyl routes: ``STACK_ENTRIES / n^3``, at least 1."""
    return max(1, STACK_ENTRIES // n ** 3)


class _PeterWeyl:
    """The algebra in the basis ``u^r_ij`` of a table's matrix coefficients (Peter-Weyl).

    ``p`` stacks their coefficient rows in table order, row ``(r, i, j)``, and
    ``r = p^{-1}``: an element with input coordinates ``x`` has ``x r`` in P's basis,
    and an operator ``Q`` on coefficient columns is ``r^T Q p^T``.  The rows must be
    ``n`` with condition number at most ``PETER_WEYL_COND``, else
    ``PeterWeylFailure``; no other basis is tried.  The product and both antipode
    powers are carried into P's basis once, each side's second legs on first use.

    In P's basis the right regular coaction of ``u^r_xy`` has first legs
    ``u^r_xz`` only, and the left one ``u^r_zy`` only, so the defining pipeline
    costs one dense matrix product for ``Q (x) S^pm`` and then, per irrep block,
    one product with rows ``(b, k, t)``, inner ``(c, w)`` and columns ``(z, m)``,
    for ``u^r_bc`` (right; ``u^r_cb`` left) meeting ``u^r_bz`` (right; ``u^r_zb``
    left); blocks of one dimension go in one batched product.  The blocks are read
    off ``e[b, c, z, :]``, the second leg that goes with first leg ``u^r_bz`` in the
    coaction of ``u^r_bc``.  Route "constants" takes it from the closed form
    (``u^r_zc`` right, ``S(u^r_cz)`` left, the same for every ``b``); route "maps"
    from the side's regular coaction tensor, carried into P's basis on first use,
    whose mass outside the pattern must be at most ``PETER_WEYL_LEAK`` times its
    largest entry, else ``PeterWeylFailure``.
    """

    def __init__(self, table: IrrepTable) -> None:
        alg = table.algebra
        n = alg.dim
        dims = np.array(table.dims())
        if (dims ** 2).sum() != n:
            raise PeterWeylFailure(f"the table's {(dims ** 2).sum()} matrix coefficients "
                                   f"cannot be a basis of the {n}-dimensional {alg.label!r}")
        p = np.concatenate([pi.coeffs.reshape(-1, n) for pi in table])
        sigma = np.linalg.svd(p, compute_uv=False)
        if not sigma[-1] * PETER_WEYL_COND >= sigma[0]:
            raise PeterWeylFailure(f"the table's matrix coefficients span {alg.label!r} with "
                                   f"condition number {sigma[0] / sigma[-1]:.1e} > "
                                   f"{PETER_WEYL_COND:.0e}")
        r = np.linalg.inv(p)
        self.algebra, self.n, self.p, self.r = alg, n, p, r
        self.antipodes = {"ordinary": p @ alg.antipode @ r, "twisted": p @ alg.antipode_inv @ r}
        m = (alg.mult.reshape(n * n, n) @ r).reshape(n, n, n)          # [i, j, M]
        m = (p @ m.reshape(n, -1)).reshape(n, n, n)                    # [B, j, M]
        self.mult = np.matmul(p, m)                                    # [B, w, M]
        # the blocks of each dimension: [block, (i, j)] positions in P's basis
        starts = np.cumsum(dims ** 2) - dims ** 2
        self.classes = {int(d): starts[dims == d][:, None] + np.arange(d * d)
                        for d in dict.fromkeys(dims.tolist())}
        self.patterns = {side: [self._pattern(side, d, idx) for d, idx in self.classes.items()]
                         for side in ("R", "L")}
        self._legs: dict[tuple[str, str], list[np.ndarray]] = {}

    def _pattern(self, side: str, d: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``t`` of ``u^r_bc`` and first legs ``a`` of ``u^r_bz`` (right; ``u^r_cb``
        and ``u^r_zb`` left) of one dimension's blocks, each indexed ``[block, b, c, z]``."""
        b, c, z = np.indices((d, d, d))
        start = idx[:, :1, None, None]
        if side == "R":
            return start + b * d + c, start + b * d + z
        return start + c * d + b, start + z * d + b

    def _cut_legs(self, side: str, route: str) -> list[np.ndarray]:
        """Each dimension's ``e[block, b, c, z, :]``, which :meth:`route` keeps once per
        side and route: the constants route's from the closed form, with one ``b``; the
        maps route's cut from the side's regular coaction tensor in P's basis, certified
        to vanish outside the pattern."""
        n, p, r = self.n, self.p, self.r
        out = []
        if route == "constants":
            for d, idx in self.classes.items():
                c, z = np.indices((d, d))
                start = idx[:, :1, None]
                if side == "R":
                    out.append(np.eye(n)[start + z * d + c][:, None])
                else:
                    out.append(self.antipodes["ordinary"][start + c * d + z][:, None])
            return out
        coact = (p @ regular_carrier(self.algebra, side).coact.reshape(n, -1))  # [t, a, b]
        coact = (coact.reshape(n * n, n) @ r).reshape(n, n, n)                # [t, a, v]
        coact = np.matmul(r.T, coact)                                         # [t, a', v]
        outside = np.ones((n, n), dtype=bool)
        for rows, firsts in self.patterns[side]:
            out.append(coact[rows, firsts])
            outside[rows, firsts] = False
        scale = float(np.abs(coact).max())
        leak = float(np.abs(coact[outside]).max(initial=0.0))
        if not leak <= PETER_WEYL_LEAK * scale:
            raise PeterWeylFailure(f"the {side} regular coaction of {self.algebra.label!r} "
                                   f"leaves mass {leak:.1e} outside the Peter-Weyl blocks of "
                                   f"the table (largest entry {scale:.1e})")
        return out

    def route(self, kind: str, side: str, route: str) -> tuple[np.ndarray, list[np.ndarray]]:
        """One route of one variant: ``x[a, t, w]``, the first-leg map ``Q (x) S^pm``
        reads, and each dimension's matrices ``[block, b, (c, w), (z, m)]`` (one ``b``
        when shared), the second leg meeting the product.  ``a``, ``t`` and ``m`` are
        input coordinates, so an operator enters as ``r^T Q`` and only the first leg
        of the result goes back.  Not kept: a caller builds it once per certificate."""
        n, p, r = self.n, self.p, self.r
        if (side, route) not in self._legs:
            self._legs[side, route] = self._cut_legs(side, route)
        spow = self.antipodes[kind]
        mult = self.mult.transpose(1, 0, 2) if kind == "twisted" else self.mult  # [B, w, M]
        mult = (np.ascontiguousarray(mult).reshape(n * n, n) @ p).reshape(n, n * n)
        x = np.zeros((n, n, n), dtype=complex)
        gs = []
        for d, (rows, firsts), legs in zip(self.classes, self.patterns[side],
                                           self._legs[side, route]):
            x[firsts, rows] = legs @ spow
            meet = (legs.reshape(-1, n) @ mult).reshape(*legs.shape[:2], d, d, n, n)
            gs.append(meet.transpose(0, 1, 2, 4, 3, 5).reshape(*legs.shape[:2], d * n, d * n))
        return np.matmul(r, (p.T @ x.reshape(n, n * n)).reshape(n, n, n)), gs

    def components(self, q_ops: np.ndarray, side: str,
                   maps: tuple[np.ndarray, list[np.ndarray]]) -> np.ndarray:
        """The coaction components ``[k, a, t, m]`` of a stack of operators in the input
        basis under one route ``maps`` of :meth:`route` on ``side``: the pipeline by
        blocks, and the first leg back."""
        x, gs = maps
        k, n = len(q_ops), self.n
        legs = (np.matmul(self.r.T, q_ops).reshape(k * n, n) @ x.reshape(n, n * n)
                ).reshape(k, n, n, n)                                            # [k, i, t, w]
        out = np.empty_like(legs)                                                # [k, A, t, m]
        for (d, idx), g in zip(self.classes.items(), gs):
            block = legs[:, idx].reshape(k, len(idx), d, d, n, n)        # [k, block, i, t, w]
            if side == "L":  # the left pattern is the right one with u^r_ij read as u^r_ji
                block = block.swapaxes(2, 3)
            rows = block.transpose(1, 2, 0, 4, 3, 5).reshape(*g.shape[:2], -1, d * n)
            meet = (rows @ g).reshape(len(idx), d, k, n, d, n)          # [block, b, k, t, z, m]
            meet = meet.transpose(2, 0, 1, 4, 3, 5)                      # [k, block, b, z, t, m]
            if side == "L":
                meet = meet.swapaxes(2, 3)
            out[:, idx] = meet.reshape(k, len(idx), d * d, n, n)
        return np.matmul(self.p.T, out.reshape(k, n, n * n)).reshape(k, n, n, n)


def operator_coaction_report(table: IrrepTable, q_op: np.ndarray, kind: str, side: str,
                             tol: float = 1e-10) -> Report:
    """Operator-space coaction of one operator, certified as a right coaction.

    The constants and maps routes must agree; coacting again on every
    component must match tensoring the second leg with its coproduct; and
    contracting the second leg with the counit must give back the operator.
    """
    alg = table.algebra
    q_ops = np.asarray(q_op, dtype=complex)[None]
    constants = _route(table, kind, side, "constants")  # one route each, built once
    comps = _coaction_stack(table, q_ops, side, constants)[0]                # [m, a, t]
    maps = _coaction_stack(table, q_ops, side, _route(table, kind, side, "maps"))[0]
    report = Report(f"operator coaction [{kind}-{side}]", meta={"tol": tol})
    t = tol * alg.magnitude ** 2
    report.add("routes agree", float(np.abs(comps - maps).max()), t)
    again = _coaction_stack(table, comps, side, constants)  # again[m, m2, a, t]
    rhs = np.tensordot(alg.comult, comps, axes=(0, 0))             # [b, c, a, t]
    report.add("coassociativity", float(np.abs(again.transpose(1, 0, 2, 3) - rhs).max()), t)
    counit_side = np.einsum("mat,m->at", comps, alg.counit)
    report.add("counit", float(np.abs(counit_side - q_op).max()), t)
    return report


@dataclass(frozen=True, eq=False)
class TensorOperatorFamily:
    """``d`` operators on a carrier (default: the regular one) transforming like ``pi``."""

    corep: Corepresentation
    kind: str
    side: str
    operators: np.ndarray  # (d, c, c) in carrier coordinates, a read-only copy
    label: str = ""
    carrier: Carrier | None = None

    def __post_init__(self) -> None:
        _variant_key(self.kind, self.side)
        object.__setattr__(self, "carrier", _carrier_of(self.corep, self.side, self.carrier))
        _freeze(self, "operators")
        c = self.carrier.dim
        if self.operators.shape != (self.corep.dim, c, c):
            raise ValueError(f"operator stack must be ({self.corep.dim}, {c}, {c})")

    @property
    def algebra(self) -> HopfAlgebraSpec:
        return self.corep.algebra


def check_family(fam: TensorOperatorFamily, table: IrrepTable, kind: str | None = None,
                 side: str | None = None) -> float:
    """Max defining-condition residual of the family: the one-family call of
    :func:`check_families`."""
    return check_families([fam], table, kind, side)[0]


def check_families(fams: list[TensorOperatorFamily], table: IrrepTable,
                   kind: str | None = None, side: str | None = None) -> list[float]:
    """Max defining-condition residual of each family, over every route its carrier has.

    Residuals are raw; callers compare them with their own tolerance.  The
    families live on the whole algebra, where both Peter-Weyl routes of the
    table run, or all on one coideal, which has only the structure-map pipeline
    and fixes the side.  The variant tested is ``kind``/``side``, by default the
    first family's, so a family can be checked against another variant (the
    distinctness diagnostics rely on this).  Every route's components are
    compared in the input basis with ``sum_j Q_j (x) pi_jk``; on the whole
    algebra the stack runs in chunks of at most ``STACK_ENTRIES`` entries per
    ``k n^3`` array, whole families at a time.
    """
    kind, side = _variant_key(kind or fams[0].kind, side or fams[0].side)
    alg = _same_spec(fams[0], table)
    if all(fam.carrier is regular_carrier(alg, fam.side) for fam in fams):
        context, out = table._peter_weyl, []
        routes = [context.route(kind, side, route) for route in ("constants", "maps")]
        for chunk in _family_chunks(fams, _chunk(alg.dim)):
            ops, rhs = _stacked(chunk)
            gaps = [_operator_gaps(context.components(ops, side, maps), rhs) for maps in routes]
            out += _per_family(chunk, np.maximum(*gaps))
        return out
    if side != fams[0].side or any(fam.carrier is not fams[0].carrier for fam in fams):
        raise ValueError("families on a coideal are checked on their own carrier and side only")
    ops, rhs = _stacked(fams)
    comps = _pipeline(fams[0].carrier.coact, alg, ops, *_antipode_and_swap(alg, kind))
    return _per_family(fams, _operator_gaps(comps.transpose(0, 2, 3, 1), rhs))


def _family_chunks(fams: list[TensorOperatorFamily], limit: int):
    """Consecutive runs of whole families with at most ``limit`` operators in all (or
    one family, if it alone has more)."""
    chunk, size = [], 0
    for fam in fams:
        if chunk and size + fam.corep.dim > limit:
            yield chunk
            chunk, size = [], 0
        chunk.append(fam)
        size += fam.corep.dim
    if chunk:
        yield chunk


def _stacked(fams: list[TensorOperatorFamily]) -> tuple[np.ndarray, np.ndarray]:
    """The families' operators stacked in order, and the components ``sum_j Q_j (x) pi_jk``
    the defining condition asks of them, ``[k, a, t, m]``."""
    ops = np.concatenate([fam.operators for fam in fams])
    rhs = []
    for fam in fams:
        d, c = fam.operators.shape[:2]
        rhs.append((fam.operators.reshape(d, -1).T @ fam.corep.coeffs.reshape(d, -1)
                    ).reshape(c, c, d, -1).transpose(2, 0, 1, 3))
    return ops, np.concatenate(rhs)


def _operator_gaps(comps: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``max |comps - rhs|`` per operator."""
    return np.abs(comps - rhs).reshape(len(rhs), -1).max(axis=1)


def _per_family(fams: list[TensorOperatorFamily], gaps: np.ndarray) -> list[float]:
    """The largest operator gap of each family, its operators stacked in order."""
    starts = np.cumsum([0] + [fam.corep.dim for fam in fams[:-1]])
    return np.maximum.reduceat(gaps, starts).tolist()


def family_report(fam: TensorOperatorFamily, table: IrrepTable, tol: float = 1e-10) -> Report:
    report = Report(
        f"tensor-operator family [{fam.label or fam.corep.label} {fam.kind}-{fam.side}]",
        meta={"tol": tol})
    report.add("defining condition", check_family(fam, table),
               tol * fam.algebra.magnitude ** 2)
    return report


def multiplication_family(bset: BasisFunctionSet, kind: str,
                          label: str = "") -> TensorOperatorFamily:
    """Multiplication by basis functions, from the side the variant dictates.

    ordinary-R and twisted-L multiply from the left; twisted-R and ordinary-L
    from the right.  The set's carrier and side fix the family's.
    """
    ops = _multiplication_operators(bset.functions, bset.carrier.product, kind, bset.side)
    return TensorOperatorFamily(bset.corep, kind, bset.side, ops,
                                label=label or f"mult[{bset.label}]", carrier=bset.carrier)


def _multiplication_operators(coords: np.ndarray, mult: np.ndarray, kind: str,
                              side: str) -> np.ndarray:
    """Multiplication by each row of ``coords`` under the product tensor ``mult``,
    from the side :func:`multiplication_family` names."""
    if (kind == "ordinary") == (side == "R"):
        n = len(mult)
        return (coords @ mult.reshape(n, n * n)).reshape(-1, n, n).swapaxes(1, 2)  # [j, A, t]
    return np.matmul(coords, mult).transpose(1, 2, 0)     # one product per t, mult not copied


def solve_family_space(pi: Corepresentation, kind: str, side: str
                       ) -> list[TensorOperatorFamily]:
    """Basis of the space of families belonging to ``pi`` for one variant.

    Every family is a combination of ``Q^(c,x)_k = M_(phi^c_k) o C_x`` (the
    Heisenberg double ``A # A* = End(A)``): the sets ``phi^c`` are a basis of
    ``Hom(pi, A)`` for the side's regular coaction, ``M`` multiplies as in
    :func:`multiplication_family`, and the ``C_x`` are the convolutions
    ``a -> x(a_(1)) a_(2)`` (right side) or ``a -> a_(1) x(a_(2))`` (left
    side), which commute with the coaction.  The pipeline applies ``Q`` to the
    first coaction leg, so a family composed on the right with a comodule map
    is again a family.  ``Hom(pi, A)`` of a corep ``pi`` needs no solve: by
    Frobenius reciprocity ``Phi -> eps o Phi`` maps it onto the dual of ``pi``'s
    carrier, so its ``d`` sets are ``phi^c_k = pi_ck`` (right) or ``S^{-1}(pi_ck)``
    (left).  Those are basis functions only for a corep, so ``pi``'s comodule
    axioms are certified first, to ``verify_corep``'s default ``1e-9`` times the
    magnitude, else ``NotACorepresentation``.  The commutation is certified to
    ``RANK_RCOND`` times the squared magnitude and the stack's rank ``d n``
    against the ``RANK_RCOND`` cut, else ``DecompositionStall``.  Returns one QR
    factor of the stack: orthonormal as flattened vectors, phase-fixed.
    """
    _variant_key(kind, side)
    alg = pi.algebra
    n, d = alg.dim, pi.dim
    worst = max(pi.residuals["coproduct splits"], pi.residuals["counit is identity"])
    if worst > 1e-9 * alg.magnitude:
        raise NotACorepresentation(f"{pi.label!r} fails the comodule axioms (residual "
                                   f"{worst:.1e} > {1e-9 * alg.magnitude:.1e})")
    coords = pi.coeffs.reshape(d * d, n)                              # [(c, k), u]
    if side == "L":
        coords = coords @ alg.antipode_inv
    mults = _multiplication_operators(coords, alg.mult, kind, side)   # [(c, k), A, t]
    # convs[x, t, s]: C_x sends a_s to sum_t convs[x, t, s] a_t
    convs = alg.comult.transpose(1, 2, 0) if side == "R" else alg.comult.transpose(2, 1, 0)
    _certify_commutant(convs, regular_carrier(alg, side).coact, RANK_RCOND * alg.magnitude ** 2)
    stack = mults.reshape(-1, n) @ convs.transpose(1, 0, 2).reshape(n, n * n)
    stack = stack.reshape(d, d * n, n, n).transpose(1, 3, 0, 2).reshape(d * n * n, d * n)
    basis, tri = np.linalg.qr(stack)                                  # columns [k, A, s]
    sigma = np.linalg.svd(tri, compute_uv=False)
    if sigma[-1] <= RANK_RCOND * max(sigma[0], 1.0):
        raise DecompositionStall(
            f"the {d * n} families M_phi C_x of {pi.label} have numerical rank below "
            f"{d * n} (smallest singular value {sigma[-1]:.1e})")
    return [TensorOperatorFamily(pi, kind, side, ops.reshape(d, n, n),
                                 label=f"sol{idx}[{pi.label}]")
            for idx, ops in enumerate(_phase_fixed(basis.T))]


def _certify_commutant(convs: np.ndarray, coact: np.ndarray, tol: float) -> None:
    """Raise ``DecompositionStall`` unless every ``C_x`` is a comodule map of ``coact``.

    One ``C_x`` at a time, so no intermediate is larger than ``coact``."""
    gap = 0.0
    for conv in convs:
        diff = np.tensordot(conv, coact, axes=(0, 0))          # coact(C_x a_t): [t, a, b]
        diff -= np.tensordot(conv, coact, axes=(1, 1)).transpose(1, 0, 2)  # (C_x (x) id) coact
        gap = max(gap, float(np.abs(diff).max()))
    if gap > tol:
        raise DecompositionStall(
            f"convolutions do not commute with the regular coaction (residual {gap:.1e} "
            f"> {tol:.1e})")


def apply_family_to_basis_functions(fam: TensorOperatorFamily, phis: BasisFunctionSet,
                                    tol: float = 1e-10) -> Report:
    """Coaction of ``Q_k(phi_j)``: the tensor-product transformation law.

    Ordinary families transform with coefficients ``M(pi^q_tk (x) pi^p_sj)``,
    twisted families with the reversed product.
    """
    if phis.carrier is not fam.carrier:
        raise ValueError("family and basis functions live on different carriers")
    alg = fam.algebra
    acted = np.einsum("kab,jb->kja", fam.operators, phis.functions)  # Q_k(phi_j)
    lhs = np.einsum("kjt,tab->kjab", acted, fam.carrier.coact)
    d_q, d_p = fam.corep.dim, phis.corep.dim
    weights = tensor_product(fam.corep, phis.corep, fam.kind).coeffs.reshape(
        d_q, d_p, d_q, d_p, alg.dim)                                 # [t, s, k, j, b]
    rhs = np.einsum("tsa,tskjb->kjab", acted, weights)
    report = Report(f"family on basis functions [{fam.label} on {phis.label}]",
                    meta={"tol": tol})
    report.add("transformation law", float(np.abs(lhs - rhs).max()),
               tol * alg.magnitude ** 2)
    return report


def operator_product_rule_residual(table: IrrepTable, kind: str, side: str,
                                   q1: np.ndarray, q2: np.ndarray) -> float:
    """Residual of the product rule for the operator-space coactions.

    Ordinary: the coaction of ``Q Q'`` is the legwise product of the two
    coactions.  Twisted: the second legs multiply in reversed order.
    """
    q1, q2 = np.asarray(q1, dtype=complex), np.asarray(q2, dtype=complex)
    comp1, comp2, prod = _coaction_stack(table, np.stack([q1, q2, q1 @ q2]), side,
                                         _route(table, kind, side, "constants"))
    pairs = np.tensordot(comp1, comp2, axes=(2, 1))  # [u, a, v, c]
    m_axes = (0, 1) if kind == "ordinary" else (1, 0)
    expected = np.tensordot(pairs, table.algebra.mult, axes=((0, 2), m_axes)).transpose(2, 0, 1)
    return float(np.abs(prod - expected).max())


def couple_families(fam_p: TensorOperatorFamily, fam_q: TensorOperatorFamily,
                    system, table) -> dict[tuple[str, int], TensorOperatorFamily]:
    """CG-couple two families of the same variant into families per fused irrep.

    Ordinary coupling contracts ``Q^p_j Q^q_k`` with the ``(p, q)`` CG
    coefficients; twisted coupling with the ``(q, p)`` coefficients at pair
    index ``(k, j)``.  Both families must live on one carrier.
    """
    if fam_p.kind != fam_q.kind or fam_p.carrier is not fam_q.carrier:
        raise ValueError("families must share kind and carrier")
    d_p, d_q = fam_p.corep.dim, fam_q.corep.dim
    if fam_p.kind == "ordinary":
        if (system.d_p, system.d_q) != (d_p, d_q):
            raise ValueError("ordinary coupling needs the (p, q) CG system")
        pair = "jk"
    else:
        if (system.d_p, system.d_q) != (d_q, d_p):
            raise ValueError("twisted coupling needs the (q, p) CG system")
        pair = "kj"
    # Q^p_j Q^q_k, indexed in the system's factor order
    composed = np.einsum(f"jab,kbc->{pair}ac", fam_p.operators, fam_q.operators)
    return {(r_lab, alpha): TensorOperatorFamily(
                table[r_lab], fam_p.kind, fam_p.side, ops,
                label=f"({fam_p.label})({fam_q.label})->{r_lab},{alpha}",
                carrier=fam_p.carrier)
            for (r_lab, alpha), ops in system.couple(composed, table).items()}


def excluded_substitution_residual(alg: HopfAlgebraSpec, which: str) -> float:
    """How badly the identity operator fails the two rejected substitutions.

    ``which`` is ``"swap_mult_only"`` (product reversed, antipode kept) or
    ``"inverse_antipode_only"`` (antipode inverted, product kept).  An
    admissible defining condition must send the identity operator to
    ``id (x) 1``; on a noncommutative spec these two variants do not.
    """
    if which == "swap_mult_only":
        spow, swapped = alg.antipode, True
    elif which == "inverse_antipode_only":
        spow, swapped = alg.antipode_inv, False
    else:
        raise ValueError(f"unknown substitution {which!r}")
    n = alg.dim
    out = _pipeline(regular_carrier(alg, "R").coact, alg, np.eye(n)[None], spow, swapped)[0]
    expected = np.einsum("At,M->MAt", np.eye(n), alg.unit)
    return float(np.abs(out - expected).max())
