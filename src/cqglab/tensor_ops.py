"""Irreducible tensor operators: ordinary and twisted, right and left.

An operator on the algebra is an ``n x n`` matrix acting on coefficient
columns.  A family ``Q_1 .. Q_d`` belongs to a unitary irreducible
corepresentation ``pi`` of dimension ``d`` for one of four variants
(ordinary/twisted x right/left) when the variant's defining condition holds.
All four conditions share one pipeline applied to each basis element ``a``::

    coact(a) --(Q (x) S)--> A (x) A --(coact (x) id)--> A (x) A (x) A --(id (x) M)--> A (x) A

with ``coact`` the right or left regular coaction and ``M`` the product of ``A``
(ordinary) or of ``A^op`` (twisted: :func:`~cqglab.algebra._kind_product`); the result
must equal ``sum_k Q_k(a) (x) pi_kj``.  The paper's twisted variants read ``S^{-1}``,
which is ``S`` under the Kac premise ``S^2 = id`` that ``solve_haar`` certifies, and a
left variant is the right one of ``A^cop`` (:func:`~cqglab.algebra._regular_side`); the
entry points that take no ``h`` rest on it too.

Each variant equivalently defines a right coaction on operator space,
``Q -> sum_m Q^(m) (x) a_m``.  On the whole algebra it is computed in the
Peter-Weyl basis ``u^r_ij`` of an irrep table (:class:`_PeterWeyl`), where the
coaction is block-diagonal and a product ``u^s u^r`` only reaches the blocks the
fusion rules allow, by two routes: "constants" reads the coaction off the closed
form ``Delta(u^r_ij) = sum_m u^r_im (x) u^r_mj``, "maps" weighs it by the spec's
coproduct tensor carried into that basis.  Residuals are taken in that basis and
multiplied by ``kappa = ||P||_1^2 ||R||_inf``, the exact max-norm factor of the
change back, so each bounds the input-basis residual from above, up to the product
mass the fusion cut drops (:meth:`_PeterWeyl.variants`); only
:func:`operator_coaction_components`, which returns components, changes back.
:func:`operator_coaction_report` certifies the routes' agreement and the coaction
axioms for one operator, and :func:`check_families` runs both routes wherever
families are certified.
Operators live on a :class:`cqglab.regular.Carrier`, the whole algebra by
default; only there do the Peter-Weyl routes and the Heisenberg double apply,
and a coideal's families run the structure-map pipeline in its own basis.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .algebra import HopfAlgebraSpec, _freeze, _kind_product, _regular_side, _same_spec
from .cg import tensor_product
from .corep import (RANK_RCOND, Corepresentation, IrrepTable, _characters,
                    _integer_counts, _phase_fixed)
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
]

VARIANTS = (("ordinary", "R"), ("twisted", "R"), ("ordinary", "L"), ("twisted", "L"))

# bytes a chunk of this module's chunked steps holds at once: the Peter-Weyl engine's
# operator and pair chunks and the commutant certificate's convolution chunks are sized
# from the arrays they hold, at least one family, pair or convolution each
_BUDGET_BYTES = 1 << 20
# condition number of the table's coefficient rows above which they are no basis
PETER_WEYL_COND = 1e4
# mass the coproduct may leave outside its Peter-Weyl pattern, and a variant's second-leg
# product outside the blocks the fusion rules allow, relative to the largest entry
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
    return _pipeline(coact, alg, np.asarray(q_op)[None], kind)[0]


def _pipeline(coact: np.ndarray, alg: HopfAlgebraSpec, q_ops: np.ndarray,
              kind: str) -> np.ndarray:
    """The pipeline for a stack of operators ``q_ops[k]``.  Returns ``out[k, m, alpha, t]``."""
    b, n = coact.shape[0], alg.dim
    mult = _kind_product(alg.mult, kind)                    # [B, w, M]
    legs = np.tensordot(q_ops, coact, axes=(2, 1)) @ alg.antipode  # (Q (x) S): [k, i, t, w]
    legs = np.matmul(coact.reshape(b, b * n).T,
                     legs.transpose(0, 2, 1, 3))            # (coact (x) id): [k, t, (A, B), w]
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
    out = _pipeline(coact, alg, units, kind)                  # [(x, y), M, A, t]
    return out.transpose(2, 3, 0, 1).reshape(b * b, b * b, alg.dim)


def operator_coaction_components(table: IrrepTable, q_op: np.ndarray, kind: str,
                                 side: str, route: str = "constants") -> np.ndarray:
    """Components ``C[m]`` of the operator-space coaction of one operator on the
    table's algebra, in the input basis.

    ``sum_m C[m] (x) a_m`` is the coaction image; equivalently ``C[m][:, t]``
    is the ``a_m``-component of the defining pipeline applied to ``a_t``.  The
    engine runs in P's basis (:class:`_PeterWeyl`); only this result goes back.
    """
    context = table._peter_weyl
    comps = context.dense(context.plan(kind, side), context.operators(np.asarray(q_op)[None]),
                          route)
    return context.to_input(comps)[0]


class _Pairs:
    """Block pairs ``(s, r)`` of dimensions ``(ds, dr)`` in a side's labels, ``k`` last in each.
    ``rows[pair, b, y, z', ., x]`` and ``cols`` place the component at first leg ``u^s_bz'``,
    input ``u^r_xy``; ``ins`` and ``outs[pair, b, c, z, x]`` pick the block entry
    ``Q'[u^s_bc, u^r_xz]`` that meets it; ``w1[route, pair, x, y, z]`` and ``w2[route, pair,
    b, c, z']`` weigh the coactions of ``u^r_xy`` and ``u^s_bc`` (1 on route "constants",
    the coproduct's pattern entries on "maps").  :meth:`cut` adds a variant's allowed
    components ``ms[pair, m]`` (padded with ``n``) and products ``g[pair, y, z', m, c, z]``
    of ``u^s_z'c`` with ``u^r_zy``."""

    def __init__(self, context: _PeterWeyl, cells: np.ndarray, s: np.ndarray,
                 r: np.ndarray) -> None:
        self.s, self.r, self.n, self.ds, self.dr = s, r, context.n, *context.dims[[s[0], r[0]]]
        firsts, seconds = (cells[x, :d, :d] for x, d in ((s, self.ds), (r, self.dr)))
        self.w1, self.w2 = (np.stack([np.ones_like(w), w]) for w in (   # one gather each
            context.pattern[seconds][..., :self.dr], context.pattern[firsts][..., :self.ds]))
        self.rows = firsts[:, :, None, :, None, None]                    # [pair, b, ., z', ., .]
        self.cols = seconds.swapaxes(1, 2)[:, None, :, None, None, :]   # [pair, ., y, ., ., x]
        self.ins, self.outs = firsts[:, :, :, None, None], seconds.swapaxes(1, 2)[:, None, None]
        self.legs = (firsts[:, None, :, None, :, None],
                     seconds.swapaxes(1, 2)[:, :, None, None, None, :])

    def cut(self, prod: np.ndarray, allowed: np.ndarray, block: np.ndarray) -> _Pairs:
        """These pairs with a variant's allowed components and second-leg products
        ``prod[B, v, m]``, whose column ``n`` is 0."""
        out, mask = copy(self), allowed[self.s, self.r][:, block]
        count = mask.sum(axis=1)
        ranked = np.argsort(~mask, axis=1, kind="stable")[:, :count.max()]
        out.ms = np.where(np.arange(ranked.shape[1]) < count[:, None], ranked, self.n)
        out.g = prod[(*self.legs, out.ms[:, None, None, :, None, None])]
        return out

    def chunks(self, k: int, routes: int) -> list[slice]:
        """Slices of pairs whose arrays for ``k`` operators and ``routes`` routes (blocks,
        weighted blocks and products, components, right side, differences) hold at most
        ``_BUDGET_BYTES`` (at least one pair); :meth:`size` is one pair's."""
        step = max(1, _BUDGET_BYTES // self.size(k, routes))
        return [slice(lo, lo + step) for lo in range(0, len(self.ms), step)]

    def size(self, k: int, routes: int) -> int:
        e, m = self.ds ** 2 * self.dr ** 2, self.ms.shape[1]
        return 16 * (e * (k * (m * (3 * routes + 1) + routes * self.dr + 2)
                          + routes * self.ds * m) + 2 * k * k * m)

    def components(self, qt: np.ndarray, at: slice, routes: slice) -> np.ndarray:
        """Components ``[route, pair, b, y, z', m, x, k]`` of the pairs ``at`` of a stack
        ``qt[A, t, k]``: ``sum_(c, z) Q'[u^s_bc, u^r_xz] w1[x, y, z] w2[b, c, z'] g``, one
        product per ``(route, pair, b, y)``."""
        ds, dr, g = self.ds, self.dr, self.g[at]
        w1, w2 = self.w1[routes, at], self.w2[routes, at]
        count, k, m, routes = len(g), qt.shape[2], g.shape[3], len(w1)
        left = (qt[self.ins[at], self.outs[at]][None, :, :, None]           # [., pair, b, y,
                * w1.transpose(0, 1, 3, 4, 2)[:, :, None, :, None, :, :, None])  # c, z, x, k]
        right = w2.transpose(0, 1, 2, 4, 3)[:, :, :, None, :, None, :, None] * g[None, :, None]
        out = (right.reshape(routes, count, ds, dr, ds * m, ds * dr)
               @ left.reshape(routes, count, ds, dr, ds * dr, dr * k))
        return out.reshape(routes, count, ds, dr, ds, m, dr, k)


class _PeterWeyl:
    """The algebra in the basis ``u^r_ij`` of a table's matrix coefficients (Peter-Weyl).

    ``p`` stacks their coefficient rows, row ``(r, i, j)``, and ``r = p^{-1}``: input
    coordinates ``x`` are ``x r`` here, and an operator ``Q`` is ``Q' = r^T Q p^T``.  The
    rows must be ``n`` with condition number at most ``PETER_WEYL_COND``; the coproduct,
    carried here, must leave at most ``PETER_WEYL_LEAK`` of its largest entry outside
    ``Delta(u^r_xy) = sum_z w u^r_xz (x) u^r_zy``; else ``PeterWeylFailure``.  Its pattern
    entries ``w`` weigh route "maps"; route "constants" takes the closed form (``w = 1``).
    The product and the antipode are carried here once.

    The pipeline runs here: block ``(s, r)`` of ``Q'`` (rows ``u^s_bc``, columns
    ``u^r_xz``) meets one second-leg product, of ``u^s_z'c`` with ``S(u^r_zy)`` (right,
    ordinary; :attr:`variants` has all four, certified once per table, a left one being
    ``A^cop``'s right one in the labels ``u^r_ji``), which only reaches the blocks the
    fusion rules allow; :meth:`plan` cuts the pairs by them.  An operator costs ``2 n^3``
    for ``Q'`` and ``sum_(s, r) d_s^3 d_r^3 m_sr`` for the blocks (``m_sr`` the allowed
    size), where the dense input-basis pipeline costs about ``2 n^4``.  Residuals stay
    here: the input-basis components are ``C[A, t, m] = sum P[a, A] R[t, b] P[u, m]
    C'[a, b, u]``, so ``kappa = ||P||_1^2 ||R||_inf`` (:meth:`kappa`) times a residual
    here bounds the input-basis one, up to the product mass the fusion cut drops: the
    dense routes cut the coproduct to its pattern too, and no term is added for it.
    ``kappa`` is 1 on group algebras, 28.75 on C(S3) and 334 on C(S4).
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
        self.table, self.algebra, self.n, self.p, self.r, self.dims = table, alg, n, p, r, dims
        self.cond = float(sigma[0] / sigma[-1])
        self.norms = float(np.abs(p).sum(axis=0).max()), float(np.abs(r).sum(axis=1).max())
        self.antipode = p @ alg.antipode @ r
        m = (alg.mult.reshape(n * n, n) @ r).reshape(n, n, n)          # [i, j, M]
        m = (p @ m.reshape(n, -1)).reshape(n, n, n)                    # [B, j, M]
        self.mult = np.matmul(p, m)                                    # [B, w, M]
        self.starts = np.cumsum(dims ** 2) - dims ** 2
        self.block = np.repeat(np.arange(len(dims)), dims ** 2)       # block of each position
        self.irreps = {id(pi): i for i, pi in enumerate(table)}
        # each block's u_ij at cells[block, i, j] (blocks padded to the largest with n), and
        # the coproduct's pattern [t, a, v] = [u_xy, u_xz, u_zy] of each block
        i, j, z = np.indices((dims.max(),) * 3)
        own, blocks = dims[:, None, None, None], np.arange(len(dims))[:, None, None, None]
        inside = (i < own) & (j < own) & (z < own)                     # [block, x, y, z]
        self.cells = np.where(inside, self.starts[:, None, None, None] + i * own + j, n)[..., 0]
        t, a, v = (self.cells[blocks, e, f][inside] for e, f in ((i, j), (i, z), (z, j)))
        coproduct = self.coproduct()
        scale = float(np.abs(coproduct).max())
        # pattern[u_xy, z]: the entry of u_xz (x) u_zy in Delta(u_xy), for any labels' gather
        self.pattern = np.zeros((n + 1, dims.max()), dtype=coproduct.dtype)
        self.pattern[t, np.broadcast_to(z, inside.shape)[inside]] = coproduct[t, a, v]
        coproduct[t, a, v] = 0.0
        if not np.abs(coproduct).max() <= PETER_WEYL_LEAK * scale:
            raise PeterWeylFailure(f"the coproduct of {alg.label!r} leaves mass "
                                   f"{np.abs(coproduct).max():.1e} outside the Peter-Weyl "
                                   f"blocks of the table (largest entry {scale:.1e})")

    def kappa(self, legs: int = 2) -> float:
        """``||P||_1^legs ||R||_inf``: the max-norm factor of a change back to the input
        basis with ``legs`` element legs and one operator input leg."""
        return self.norms[0] ** legs * self.norms[1]

    def coproduct(self) -> np.ndarray:
        """The coproduct here: ``Delta(u_t) = sum c[t, a, v] u_a (x) u_v``."""
        n, p, r = self.n, self.p, self.r
        c = ((p @ self.algebra.comult.reshape(n, -1)).reshape(n * n, n) @ r).reshape(n, n, n)
        return np.matmul(r.T, c)

    def operators(self, q_ops: np.ndarray) -> np.ndarray:
        """A stack of operators here, ``r^T Q p^T``."""
        return np.matmul(self.r.T, q_ops) @ self.p.T

    @cached_property
    def variants(self) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
        """Each variant's allowed blocks ``[s, r, t]`` and second-leg products ``prod[B, v, m]``
        (column ``n`` reads 0) by its kind and its side's second-leg kind, certified in one
        pass per table: ``u_B S(u_v)`` in the kind's product read through the side's (on the
        left the other kind's, legs swapped: ``S(u_B) u_v``).  Block ``t`` is allowed when
        ``h(chi_s S(chi_r) chi_t^*)`` in that product is at least 1, rounded by
        ``_integer_counts``; ``prod``'s mass elsewhere must be at most ``PETER_WEYL_LEAK`` of
        its largest entry, else ``PeterWeylFailure``."""
        n, alg, count, b, s = self.n, self.algebra, len(self.dims), self.block, self.antipode
        chars, stars = _characters(self.table)
        # kernel[i, j, t] = h(a_i a_j chi_t^*), a product of a_i and a_j like mult
        kernel = (alg.mult.reshape(n * n, n) @ (self.table.haar.pair @ stars.T)).reshape(
            n, n, count)
        out = {}
        for kind, side in VARIANTS:
            second = _regular_side(alg, side)[2]
            mult, triple = (_kind_product(_kind_product(x, kind), second)
                            for x in (self.mult, kernel))
            prod = _kind_product(np.matmul(s, mult), second)
            allowed = _kind_product(_integer_counts(np.matmul(chars @ alg.antipode, (
                chars @ triple.reshape(n, -1)).reshape(count, n, count))) > 0, second)
            size = np.abs(prod)
            leak = float(size[~allowed[b[:, None, None], b[None, :, None], b]].max(initial=0.0))
            if not leak <= PETER_WEYL_LEAK * size.max():
                raise PeterWeylFailure(f"the {kind}-{side} second-leg product of {alg.label!r} "
                                       f"leaves mass {leak:.1e} outside the blocks its fusion "
                                       f"rules allow (largest entry {size.max():.1e})")
            out[kind, second] = allowed, np.concatenate([prod, np.zeros((n, n, 1))], axis=2)
        return out

    @cached_property
    def pairs(self) -> dict[str, list[_Pairs]]:
        """The block pairs, one :class:`_Pairs` per pair of dimensions, in each second-leg kind's
        labels: ``Delta^cop(u_ij) = sum_z u_zj (x) u_iz`` is ``Delta``'s pattern in ``u_ji``."""
        count = len(self.dims)
        s, r = np.divmod(np.arange(count * count), count)
        keys = self.dims[s] * (self.dims.max() + 1) + self.dims[r]
        labels = {second: _kind_product(self.cells.transpose(1, 2, 0), second).transpose(2, 0, 1)
                  for second in ("ordinary", "twisted")}          # cells[block, i, j], as read
        return {second: [_Pairs(self, cells, s[keys == key], r[keys == key]) for key in
                         dict.fromkeys(keys.tolist())] for second, cells in labels.items()}

    def plan(self, kind: str, side: str) -> tuple[np.ndarray, list[_Pairs]]:
        """One variant's allowed blocks and its pairs cut by them (:meth:`_Pairs.cut`), in its
        side's second-leg kind.  Not kept: a caller builds it once per certificate."""
        second = _regular_side(self.algebra, _variant_key(kind, side)[1])[2]
        allowed, prod = self.variants[kind, second]
        return allowed, [pairs.cut(prod, allowed, self.block) for pairs in self.pairs[second]]

    def coefficients(self, fams: list[TensorOperatorFamily]) -> np.ndarray:
        """The right side ``sum_j Q_j (x) pi_jk`` of a stack of families as ``c[m, j, k]``
        over the stack's operators: ``pi_jk`` here for ``m < n``, the unit vector
        ``u^p_jk`` itself for the table's irrep ``p``; 0 between families and at ``n``."""
        k, n, lo = sum(fam.corep.dim for fam in fams), self.n, 0
        out = np.zeros((n + 1, k, k), dtype=complex)
        for fam in fams:
            pi, d = fam.corep, fam.corep.dim
            if id(pi) in self.irreps:
                j = lo + np.arange(d)
                out[self.cells[self.irreps[id(pi)], :d, :d], j[:, None], j] = 1.0
            else:
                out[:n, lo:lo + d, lo:lo + d] = (pi.coeffs.reshape(-1, n) @ self.r
                                                 ).T.reshape(n, d, d)
            lo += d
        return out

    def gaps(self, plan: tuple[np.ndarray, list[_Pairs]], qp: np.ndarray,
             coeffs: np.ndarray) -> np.ndarray:
        """Per operator of a stack ``qp`` here, the largest entry of its components minus the
        right side (:meth:`coefficients`) over both routes: the difference on the blocks
        the fusion rules allow, the right side alone on the others."""
        k, n, b = len(qp), self.n, self.block
        qt, gaps = qp.transpose(1, 2, 0), np.zeros(k)                      # [A, t, k]
        for pairs in plan[1]:
            for at in pairs.chunks(k, 2):
                ms = pairs.ms[at]
                ends = qt[pairs.rows[at], pairs.cols[at]]       # [pair, b, y, z', 1, x, j]
                right = (ends.reshape(len(ms), -1, k)           # @ [pair, j, (m, k)]
                         @ coeffs[ms].transpose(0, 2, 1, 3).reshape(len(ms), k, -1))
                right = right.reshape(*ends.shape[:4], -1, ms.shape[1], k).swapaxes(4, 5)
                diff = (pairs.components(qt, at, slice(None)).reshape(2, len(ms), -1, k)
                        - right.reshape(len(ms), -1, k))
                gaps = np.maximum(gaps, np.abs(diff).reshape(-1, k).max(axis=0))
        support = np.flatnonzero(coeffs[:n].any(axis=(1, 2)))  # where no block reaches:
        side = coeffs[support].transpose(2, 0, 1).reshape(-1, k)  # the right side alone
        rows = max(1, _BUDGET_BYTES // (32 * n * k * max(support.size, 1)))
        for lo in range(0, n, rows):
            far = ~plan[0][b[lo:lo + rows, None], b, b[support, None, None]]  # [m, A, t]
            rest = np.abs(side @ qp[:, lo:lo + rows].reshape(k, -1)).reshape(k, *far.shape)
            gaps = np.maximum(gaps, (rest * far).reshape(k, -1).max(axis=1))
        return gaps

    def dense(self, plan: tuple[np.ndarray, list[_Pairs]], qp: np.ndarray,
              route: str) -> np.ndarray:
        """The components ``[k, A, t, m]`` here of a stack ``qp`` here, on one route."""
        if route not in ("constants", "maps"):
            raise ValueError(f"unknown route {route!r}")
        which = slice(0, 1) if route == "constants" else slice(1, 2)
        k, n = len(qp), self.n
        qt, out = qp.transpose(1, 2, 0), np.zeros((n, n, n + 1, k), dtype=complex)
        for pairs in plan[1]:
            for at in pairs.chunks(k, 1):
                out[pairs.rows[at], pairs.cols[at], pairs.ms[at][:, None, None, None, :, None]
                    ] = pairs.components(qt, at, which)[0]
        return out[..., :n, :].transpose(3, 0, 1, 2)

    def to_input(self, comps: np.ndarray) -> np.ndarray:
        """Components ``[k, A, t, m]`` here in the input basis, as ``[k, m, a, t]``."""
        k, n = len(comps), self.n
        out = np.matmul(self.r, comps @ self.p)                        # input t and m
        return (self.p.T @ out.reshape(k, n, -1)).reshape(k, n, n, n).transpose(0, 3, 1, 2)


def operator_coaction_report(table: IrrepTable, q_op: np.ndarray, kind: str, side: str,
                             tol: float = 1e-10) -> Report:
    """Operator-space coaction of one operator, certified as a right coaction.

    The constants and maps routes must agree; coacting again on every
    component must match tensoring the second leg with its coproduct; and
    contracting the second leg with the counit must give back the operator.
    Each residual is taken in P's basis and multiplied by the max-norm factor of
    its change back to the input basis (:meth:`_PeterWeyl.kappa`), so it bounds the
    input-basis residual from above up to the product mass the fusion cut drops.
    """
    alg, context = table.algebra, table._peter_weyl
    n, plan = alg.dim, context.plan(kind, side)                     # one plan, both routes
    qp = context.operators(np.asarray(q_op, dtype=complex)[None])
    comps = context.dense(plan, qp, "constants")[0]                       # [A, t, m]
    maps = context.dense(plan, qp, "maps")[0]
    report = Report(f"operator coaction [{kind}-{side}]", meta={"tol": tol})
    t = tol * alg.magnitude ** 2
    report.add("routes agree", context.kappa() * float(np.abs(comps - maps).max()), t)
    again = context.dense(plan, comps.transpose(2, 0, 1), "constants")   # [m, A, t, m2]
    rhs = (comps.reshape(n * n, n) @ context.coproduct().reshape(n, n * n)).reshape(n, n, n, n)
    report.add("coassociativity", context.kappa(3) * float(
        np.abs(again.transpose(1, 2, 3, 0) - rhs).max()), t)
    counit_side = comps @ (context.p @ alg.counit)
    report.add("counit", context.kappa(1) * float(np.abs(counit_side - qp[0]).max()), t)
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
    distinctness diagnostics rely on this).  On the whole algebra both routes'
    components are compared with ``sum_j Q_j (x) pi_jk`` in P's basis, blocks cut by
    the fusion rules (:class:`_PeterWeyl`), and the residual returned is ``kappa``
    times the P-basis one: at least the input-basis residual, up to the product mass
    the fusion cut drops (at most ``PETER_WEYL_LEAK`` of the largest entry each).  The
    stack runs in chunks of whole families sized from ``_BUDGET_BYTES``.  On a coideal
    the residual is the input-basis one.
    """
    kind, side = _variant_key(kind or fams[0].kind, side or fams[0].side)
    alg = _same_spec(fams[0], table)
    if all(fam.carrier is regular_carrier(alg, fam.side) for fam in fams):
        context, out = table._peter_weyl, []
        plan = context.plan(kind, side)
        # operators per chunk: what each adds (its n x n copies, the largest pair's arrays)
        # fits the budget, and so do the k x k right sides, 48 k^2 (n + 1) bytes
        size = 64 * alg.dim ** 2 + max(pairs.size(1, 2) for pairs in plan[1])
        limit = min(_BUDGET_BYTES // size, isqrt(_BUDGET_BYTES // (96 * alg.dim + 96)))
        for chunk in _family_chunks(fams, max(1, limit)):
            qp = context.operators(np.concatenate([fam.operators for fam in chunk]))
            out += _per_family(chunk, context.gaps(plan, qp, context.coefficients(chunk)))
        return [context.kappa() * gap for gap in out]
    if side != fams[0].side or any(fam.carrier is not fams[0].carrier for fam in fams):
        raise ValueError("families on a coideal are checked on their own carrier and side only")
    ops, rhs = _stacked(fams)
    comps = _pipeline(fams[0].carrier.coact, alg, ops, kind)
    return _per_family(fams, np.abs(comps.transpose(0, 2, 3, 1) - rhs).reshape(len(rhs), -1
                                                                                ).max(axis=1))


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


def multiplication_family(bset: BasisFunctionSet, kind: str) -> TensorOperatorFamily:
    """Multiplication by basis functions, from the side the variant dictates.

    ordinary-R and twisted-L multiply from the left; twisted-R and ordinary-L from the right
    (the kind's product read through the side's).  The set's carrier and side fix the family's.
    """
    second = _regular_side(bset.algebra, bset.side)[2]
    ops = _multiplication_operators(bset.functions, _kind_product(
        _kind_product(bset.carrier.product, kind), second))
    return TensorOperatorFamily(bset.corep, kind, bset.side, ops,
                                label=f"mult[{bset.label}]", carrier=bset.carrier)


def _multiplication_operators(coords: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Multiplication from the left by each row of ``coords`` under the product tensor
    ``mult``, as ``[j, A, t]``; a right multiplication is a left one in the reversed product."""
    n = len(mult)
    return (coords @ mult.reshape(n, n * n)).reshape(-1, n, n).swapaxes(1, 2)


def solve_family_space(pi: Corepresentation, kind: str, side: str
                       ) -> list[TensorOperatorFamily]:
    """Basis of the space of families belonging to ``pi`` for one variant.

    Every family is a combination of ``Q^(c,x)_k = M_(phi^c_k) o C_x`` (the
    Heisenberg double ``A # A* = End(A)``): the sets ``phi^c`` are a basis of
    ``Hom(pi, A)`` for the side's regular coaction, ``M`` multiplies as in
    :func:`multiplication_family`, and the ``C_x`` are the convolutions
    ``a -> x(a_(1)) a_(2)`` of the side's coproduct (left: ``a -> a_(1) x(a_(2))``), which
    commute with the coaction.  The pipeline applies ``Q`` to the first coaction leg, so a
    family composed on the right with a comodule map is again a family.  ``Hom(pi, A)`` of
    a corep ``pi`` needs no solve: by Frobenius reciprocity ``Phi -> eps o Phi`` maps it
    onto the dual of ``pi``'s carrier, so its ``d`` sets are the canonical sets of every row
    (``pi_ck``, left ``S(pi_ck)``: the paper's ``S^{-1}(pi_ck)`` under the Kac premise).  Those
    are basis functions only for a corep, so ``pi``'s comodule axioms are certified first, to
    ``verify_corep``'s default ``1e-9`` times the magnitude, else ``NotACorepresentation``.
    The commutation is certified to ``RANK_RCOND`` times the squared magnitude and the
    stack's rank ``d n`` against the ``RANK_RCOND`` cut, else ``DecompositionStall``.
    Returns one QR factor of the stack: orthonormal as flattened vectors, phase-fixed.
    """
    _variant_key(kind, side)
    alg = pi.algebra
    n, d = alg.dim, pi.dim
    worst = max(pi.residuals["coproduct splits"], pi.residuals["counit is identity"])
    if worst > 1e-9 * alg.magnitude:
        raise NotACorepresentation(f"{pi.label!r} fails the comodule axioms (residual "
                                   f"{worst:.1e} > {1e-9 * alg.magnitude:.1e})")
    coproduct, leg, second = _regular_side(alg, side)
    coords = leg(pi.coeffs.reshape(d * d, n))                         # every row's canonical set
    mults = _multiplication_operators(coords, _kind_product(_kind_product(alg.mult, kind), second))
    convs = coproduct.transpose(1, 2, 0)  # [x, t, s]: C_x sends a_s to sum_t convs[x, t, s] a_t
    carrier = regular_carrier(alg, side)
    if carrier.commutant is None:                                     # once per spec and side
        object.__setattr__(carrier, "commutant", _certify_commutant(
            convs, carrier.coact, RANK_RCOND * alg.magnitude ** 2))
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


def _certify_commutant(convs: np.ndarray, coact: np.ndarray, tol: float) -> float:
    """The largest residual of ``C_x`` as a comodule map of ``coact``, over every ``C_x``;
    ``DecompositionStall`` when it exceeds ``tol``.

    In chunks of ``C_x`` whose two ``[x, t, a, b]`` arrays fit ``_BUDGET_BYTES`` (at
    least one): all in one pass up to n = 12, four at a time at n = 24 (real)."""
    size = 2 * len(coact) ** 3 * np.result_type(convs, coact).itemsize
    gap, step = 0.0, max(1, _BUDGET_BYTES // size)
    for chunk in np.split(convs, range(step, len(convs), step)):
        diff = np.tensordot(chunk, coact, axes=(1, 0))       # coact(C_x a_t): [x, t, a, b]
        diff -= np.tensordot(chunk, coact, axes=(2, 1)).transpose(0, 2, 1, 3)  # (C_x (x) id) coact
        gap = max(gap, float(np.abs(diff).max()))
    if gap > tol:
        raise DecompositionStall(
            f"convolutions do not commute with the regular coaction (residual {gap:.1e} "
            f"> {tol:.1e})")
    return gap


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
    coactions.  Twisted: the second legs multiply in reversed order.  Taken in P's
    basis and multiplied by ``kappa`` (:meth:`_PeterWeyl.kappa`).
    """
    context = table._peter_weyl
    qp = context.operators(np.stack([q1, q2, np.asarray(q1) @ q2]))
    comp1, comp2, prod = context.dense(context.plan(kind, side), qp, "constants")  # [a, t, m]
    pairs = np.tensordot(comp1, comp2, axes=(1, 0))  # [a, u, c, v]
    expected = np.tensordot(pairs, _kind_product(context.mult, kind), axes=((1, 3), (0, 1)))
    return context.kappa() * float(np.abs(prod - expected).max())


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
