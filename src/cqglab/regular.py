"""Right and left regular comodules, basis functions, projection operators.

Both regular coactions are right coactions with carrier ``A``:

* right: ``a -> coproduct(a)``, legs ``a_(1) (x) a_(2)``;
* left:  ``a -> swap((S (x) id) coproduct(a))``, legs ``a_(2) (x) S(a_(1))``.

A :class:`Carrier` is a comodule algebra under one of them: the whole algebra
(:func:`regular_carrier`), or a coideal subalgebra ``B`` in its orthonormal
basis (:attr:`cqglab.homspace.CoidealSubalgebra.carrier`).  A set of basis
functions for a corepresentation ``pi`` of dimension ``d`` is a ``(d, c)``
array of elements ``psi_j`` of a carrier of dimension ``c`` with
``coaction(psi_j) = sum_k psi_k (x) pi_kj``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _legwise_product, build_dual
from .corep import Corepresentation, IrrepTable
from .errors import NotUnitary
from .haar import GramPair
from .report import Report

__all__ = [
    "Carrier",
    "regular_carrier",
    "regular_coaction_tensor",
    "regular_corep",
    "regular_invariance_report",
    "BasisFunctionSet",
    "check_basis_functions",
    "canonical_basis_functions",
    "basis_function_orthogonality",
    "projection_operator",
    "projection_completeness_residual",
    "verify_projection_identities",
    "product_coaction_check",
    "dual_action_crosscheck",
]


def regular_coaction_tensor(alg: HopfAlgebraSpec, side: str) -> np.ndarray:
    """Tensor ``T[t, a, b]``: the coaction of ``a_t`` is ``sum T[t,a,b] a_a (x) a_b``."""
    if side == "R":
        return alg.comult.copy()
    if side == "L":
        # legs a_(2) (x) S(a_(1)): first leg from the second coproduct slot
        return np.einsum("tka,kb->tab", alg.comult, alg.antipode)
    raise ValueError(f"side must be 'R' or 'L', got {side!r}")


@dataclass(frozen=True, eq=False)
class Carrier:
    """The comodule algebra that basis functions and operators live on: the coaction
    ``e_t -> sum coact[t, a, b] e_a (x) a_b`` (second leg in A) and the product
    ``e_i e_j = sum_k product[i, j, k] e_k``, in the carrier's basis ``e``."""

    algebra: HopfAlgebraSpec
    side: str
    coact: np.ndarray
    product: np.ndarray

    @property
    def dim(self) -> int:
        return self.coact.shape[0]


def regular_carrier(alg: HopfAlgebraSpec, side: str) -> Carrier:
    """The whole algebra under the side's regular coaction, built once per side."""
    carrier = alg._regular_carriers.get(side)
    if carrier is None:
        coact = regular_coaction_tensor(alg, side)
        coact.setflags(write=False)
        carrier = alg._regular_carriers[side] = Carrier(alg, side, coact, alg.mult)
    return carrier


def regular_corep(alg: HopfAlgebraSpec, side: str) -> Corepresentation:
    """The regular comodule in matrix-coefficient form (an ``n``-dim corep)."""
    tensor = regular_carrier(alg, side).coact
    # pi(a_j) = sum_k a_k (x) pi_kj, so pi_kj has coefficients tensor[j, k, :]
    coeffs = tensor.transpose(1, 0, 2).copy()
    return Corepresentation(alg, coeffs, label=f"regular-{side}[{alg.label}]")


def _haar_invariance(coact: np.ndarray, rows: np.ndarray,
                     h: LinearFunctional) -> tuple[float, float]:
    """Residuals of ``(h (x) id) coact(e) = h(e) 1`` and ``(id (x) h) coact(e) = h(e) 1``
    on each basis element ``e`` of a carrier, given by its ``rows`` in the algebra."""
    h_rows = rows @ h.covector
    expected = np.einsum("i,t->it", h_rows, h.algebra.unit)
    left = np.einsum("ikc,k->ic", coact, h_rows)
    right = np.einsum("ikc,c,kt->it", coact, h.covector, rows)
    return float(np.abs(left - expected).max()), float(np.abs(right - expected).max())


def regular_invariance_report(alg: HopfAlgebraSpec, h: LinearFunctional,
                              tol: float = 1e-10) -> Report:
    """Haar invariance of both regular coactions on all basis elements.

    ``(h (x) id) coact(a) = (id (x) h) coact(a) = h(a) 1`` for both sides.
    """
    report = Report(f"regular invariance [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    for side in ("R", "L"):
        first, second = _haar_invariance(regular_carrier(alg, side).coact, np.eye(alg.dim), h)
        report.add(f"first-leg invariance {side}", first, t)
        report.add(f"second-leg invariance {side}", second, t)
    return report


@dataclass
class BasisFunctionSet:
    """``d`` elements of a carrier (default: the regular one) transforming like ``pi``."""

    corep: Corepresentation
    side: str
    functions: np.ndarray  # (d, c): row j = carrier coordinates of psi_j
    label: str = ""
    carrier: Carrier | None = None

    def __post_init__(self) -> None:
        self.carrier = _carrier_of(self.corep, self.side, self.carrier)
        arr = np.asarray(self.functions, dtype=complex)
        if arr.shape != (self.corep.dim, self.carrier.dim):
            raise ValueError(
                f"basis-function array must be ({self.corep.dim}, {self.carrier.dim})")
        self.functions = arr

    @property
    def algebra(self) -> HopfAlgebraSpec:
        return self.corep.algebra


def _carrier_of(corep: Corepresentation, side: str, carrier: Carrier | None) -> Carrier:
    """``carrier`` (default: the regular one), checked against the corep and ``side``."""
    carrier = carrier or regular_carrier(corep.algebra, side)
    if carrier.algebra is not corep.algebra or carrier.side != side:
        raise ValueError(f"carrier ({carrier.side}) does not match the corep's algebra "
                         f"and side {side!r}")
    return carrier


def check_basis_functions(bset: BasisFunctionSet) -> float:
    """Max residual of the defining relation over the set."""
    lhs = np.einsum("jt,tab->jab", bset.functions, bset.carrier.coact)
    rhs = np.einsum("ka,kjb->jab", bset.functions, bset.corep.coeffs)
    return float(np.abs(lhs - rhs).max())


def canonical_basis_functions(pi: Corepresentation, side: str, row: int = 0,
                              label: str = "") -> BasisFunctionSet:
    """The canonical sets: row ``l`` of ``pi`` (right) or ``S^{-2}(pi^*_{j l})`` (left).

    The left construction needs ``pi`` unitary.
    """
    if side == "R":
        funcs = pi.coeffs[row, :, :].copy()
    elif side == "L":
        if pi.unitary is False:
            raise NotUnitary("left canonical basis functions need a unitary corep")
        s_inv = pi.algebra.antipode_inv
        s_minus2 = s_inv @ s_inv
        funcs = np.einsum("jm,mt->jt", np.conj(pi.coeffs[:, row, :]) @ pi.algebra.star, s_minus2)
    else:
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    return BasisFunctionSet(pi, side, funcs, label=label or f"{pi.label}:{side}{row}")


def basis_function_orthogonality(set_a: BasisFunctionSet, set_b: BasisFunctionSet,
                                 grams: GramPair, tol: float = 1e-10,
                                 canonical_rows: tuple[int, int] | None = None) -> Report:
    """Orthogonality of two basis-function sets in their carrier's inner product.

    ``(psi^q_k, phi^p_j)`` vanishes unless the coreps coincide and ``j = k``;
    the diagonal value is independent of ``j``.  When both sets are canonical
    with rows ``(s, t)`` the common value ``(F^{-1})_ts / tr(F^{-1})`` is ``delta_ts / d``.
    """
    carrier, side = set_a.carrier, set_a.side
    if set_b.carrier is not carrier:
        raise ValueError("sets live on different carriers")
    # the side's Gram on A, the identity in a coideal's orthonormal basis
    on_a = carrier is regular_carrier(carrier.algebra, side)
    gram = grams.gram(side) if on_a else np.eye(carrier.dim)
    alg = set_a.algebra
    t = tol * alg.magnitude
    inner = np.einsum("ka,ab,jb->kj", np.conj(set_a.functions), gram, set_b.functions)
    report = Report(
        f"basis-function orthogonality [{set_a.label} vs {set_b.label} side {side}]",
        meta={"tol": tol})
    same = np.array_equal(set_a.corep.coeffs, set_b.corep.coeffs)
    if not same:
        report.add("cross-irrep zero", float(np.abs(inner).max()), t)
        return report
    off = inner - np.diag(np.diag(inner))
    report.add("off-diagonal zero", float(np.abs(off).max()), t)
    diag = np.diag(inner)
    report.add("diagonal j-independent", float(np.abs(diag - diag[0]).max()), t)
    if canonical_rows is not None:
        if set_a.corep.F is None:
            raise ValueError("canonical-row comparison needs the F matrix")
        s, trow = canonical_rows
        expected = (s == trow) / set_a.corep.dim
        report.add("canonical value", float(np.abs(diag - expected).max()), t,
                   expected=complex(expected))
    return report


# ---------------------------------------------------------------------------
# projection operators
# ---------------------------------------------------------------------------

def _projection_stack(alg: HopfAlgebraSpec, rows: np.ndarray, dims: np.ndarray, side: str,
                      h: LinearFunctional, ordering: str) -> np.ndarray:
    """Constants-route projections ``ops[i, a, t]`` for rows ``rows[i]`` = ``pi_mn`` of
    dimension ``dims[i]``: one matrix product for the Haar weights ``h(pi^*_mn a_b)``
    (``h(a_b pi^*_mn)`` when swapped), one contraction with the coaction tensor."""
    pair = alg.mult @ h.covector                              # [u, b]: h(a_u a_b)
    if ordering == "swapped":
        pair = pair.T
    elif ordering != "standard":
        raise ValueError(f"unknown ordering {ordering!r}")
    weights = dims[:, None] * (np.conj(rows) @ alg.star @ pair)
    return np.tensordot(weights, regular_carrier(alg, side).coact,
                        axes=(1, 2)).transpose(0, 2, 1)


def _table_projections(table: IrrepTable, side: str, h: LinearFunctional,
                       ordering: str = "standard") -> np.ndarray:
    """The projections of every irrep of the table, rows ``(p, m, n)`` in table order."""
    dims = np.array(table.dims())
    rows = np.concatenate([pi.coeffs.reshape(-1, table.algebra.dim) for pi in table])
    return _projection_stack(table.algebra, rows, np.repeat(dims, dims ** 2), side, h, ordering)


def projection_operator(pi: Corepresentation, m: int, n: int, side: str,
                        h: LinearFunctional, route: str = "maps",
                        ordering: str = "standard") -> np.ndarray:
    """The projection ``a -> d_p sum a^X_[1] h(pi^*_mn a^X_[2])`` as a matrix.

    ``route="maps"`` composes the structure maps as matrices, one map at a time:
    the side's coaction, multiplication by ``w = pi^*_mn`` inside ``h``, then
    ``h``; ``route="constants"`` evaluates the same operator as one contraction
    with the Haar pair matrix ``h(a_u a_b)``.  ``ordering="swapped"`` builds the
    rejected variant with the product inside ``h`` reversed, kept as a
    diagnostic; the two orderings coincide whenever the Haar functional is
    tracial.
    """
    alg = pi.algebra
    d = pi.dim
    if route == "constants":
        return _projection_stack(alg, pi.coeffs[m, n][None], np.array([d]), side, h, ordering)[0]
    if route != "maps":
        raise ValueError(f"unknown route {route!r}")
    coact = regular_carrier(alg, side).coact              # [t, a, b]: a_t -> a_a (x) a_b
    w = np.conj(pi.coeffs[m, n]) @ alg.star
    if ordering == "standard":
        times_w = np.tensordot(w, alg.mult, axes=(0, 0))  # [b, l]: w a_b
    elif ordering == "swapped":
        times_w = np.tensordot(w, alg.mult, axes=(0, 1))  # [b, l]: a_b w
    else:
        raise ValueError(f"unknown ordering {ordering!r}")
    return d * (coact @ (times_w @ h.covector)).T          # h on the second leg


def projection_completeness_residual(table: IrrepTable, side: str,
                                     h: LinearFunctional) -> float:
    """Residual of the completeness sum over the full irrep table.

    ``sum_p (tr((F^p)^{-1}) / d_p) sum_{m,n} F^p_{nm} P^p_mn = id``; every
    ``F = I``, so this is the plain sum of the diagonal projections.
    """
    # row (p, m, n) of the stack carries the weight delta_mn
    weights = np.concatenate([np.eye(pi.dim).reshape(-1) for pi in table])
    total = np.tensordot(weights, _table_projections(table, side, h), axes=1)
    return float(np.abs(total - np.eye(table.algebra.dim)).max())


def verify_projection_identities(table: IrrepTable, side: str, h: LinearFunctional,
                                 tol: float = 1e-10,
                                 ordering: str = "standard") -> Report:
    """Composition rule and basis-function action of the projections.

    Composition: ``P^p_mn P^q_jk = d_p delta^pq ((F^p)^{-1})_nj / tr((F^p)^{-1})
    P^p_mk``.  Action: ``P^p_mn(psi^q_k) = d_p delta^pq delta_nk sum_l psi^q_l
    ((F^p)^{-1})_lm / tr((F^p)^{-1})`` on the canonical right/left sets; ``F^p = I``.

    Every product and every action comes from one contraction of the stacked
    projections; the expected values are nonzero only in the diagonal
    ``p = q`` blocks, and everything outside them must vanish.
    """
    alg = table.algebra
    report = Report(f"projection identities [{alg.label} side {side}]",
                    meta={"tol": tol, "ordering": ordering})
    t = tol * alg.magnitude
    ops = _table_projections(table, side, h, ordering)                   # [i, a, t]
    prods = np.tensordot(ops, ops, axes=(2, 1))                          # [i, a, j, t]
    funcs = np.concatenate([canonical_basis_functions(rho, side, row=0).functions
                            for rho in table])                           # [k, t]
    acted = np.tensordot(ops, funcs, axes=(2, 1))                        # [i, a, k]

    worst_same, n = 0.0, alg.dim
    row = col = 0
    for pi in table:
        d = pi.dim
        block = slice(row, row + d * d)
        want = np.einsum("nj,mkat->mnajkt", np.eye(d), ops[block].reshape(d, d, n, n))
        got = prods[block, :, block].reshape(d, d, n, d, d, n)
        worst_same = max(worst_same, float(np.abs(got - want).max()))
        prods[block, :, block] = 0.0  # what is left are the cross-irrep products
        # P_mn(psi_k) = delta_nk psi_m
        acted[block, :, col:col + d] -= np.einsum("ma,nk->mnak", funcs[col:col + d], np.eye(d)
                                                  ).reshape(d * d, n, d)
        row, col = row + d * d, col + d
    report.add("composition same-irrep", worst_same, t)
    report.add("composition cross-irrep", float(np.abs(prods).max()), t)
    report.add("action on basis functions", float(np.abs(acted).max()), t)
    return report


# ---------------------------------------------------------------------------
# product rules and the dual-action cross-check
# ---------------------------------------------------------------------------

def product_coaction_check(alg: HopfAlgebraSpec, side: str, tol: float = 1e-10,
                           twist: str | None = None) -> Report:
    """Residual of the coaction-of-a-product rule on all basis pairs.

    Right rule: ``pi(ab) = sum (a_[1] b_[1]) (x) (a_[2] b_[2])``.
    Left rule carries the extra twist: second legs multiply in reversed order.
    ``twist`` overrides the rule applied (for the negative diagnostic showing
    the untwisted rule fails for the left coaction on a noncommutative spec).
    """
    tensor = regular_carrier(alg, side).coact
    m = alg.mult
    applied = twist if twist is not None else ("plain" if side == "R" else "twisted")
    if applied not in ("plain", "twisted"):
        raise ValueError(f"unknown twist {applied!r}")
    n = alg.dim
    lhs = (m.reshape(n * n, n) @ tensor.reshape(n, n * n)).reshape(n, n, n, n)  # of a_i a_j
    rhs = _legwise_product(tensor, m, twisted=applied == "twisted")
    report = Report(f"product coaction [{alg.label} side {side} rule {applied}]",
                    meta={"tol": tol})
    report.add("product rule", float(np.abs(lhs - rhs).max()), tol * alg.magnitude ** 2)
    return report


def dual_action_crosscheck(alg: HopfAlgebraSpec, tol: float = 1e-12) -> Report:
    """The regular coactions make ``A`` a left module over the dual.

    The ``m``-th dual basis functional acts on ``A`` by evaluation against the
    second leg of the right or left regular coaction.  The dual algebra's
    product must compose these actions as a left action, and its unit must act
    as the identity.
    """
    dual = build_dual(alg)
    n = alg.dim
    report = Report(f"dual regular actions [{alg.label}]", meta={"tol": tol})
    t = tol * max(alg.magnitude, dual.magnitude) ** 2
    for side in ("R", "L"):
        tensor = regular_carrier(alg, side).coact
        # action of the m-th dual basis functional: ev against the second leg
        action_eval = tensor.transpose(2, 1, 0)  # act[m][:, t] = tensor[t, :, m]
        # left-action law: act(x) act(y) = act(x *dual* y), both as [m, k, a, t]; the
        # right side reads the tensor as its [(t, a), l] rows, a transposed view, not a copy
        composed = np.tensordot(action_eval, action_eval, axes=(2, 1)).transpose(0, 2, 1, 3)
        via_dual = (dual.mult.reshape(n * n, n) @ tensor.reshape(n * n, n).T
                    ).reshape(n, n, n, n).transpose(0, 1, 3, 2)
        report.add(f"action law {side}", float(np.abs(composed - via_dual).max()), t)
        # unit of the dual acts as the identity
        unit_act = (tensor @ dual.unit).T
        report.add(f"dual unit acts trivially {side}",
                   float(np.abs(unit_act - np.eye(n)).max()), t)
    return report
