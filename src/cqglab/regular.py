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

from .algebra import HopfAlgebraSpec, LinearFunctional, _freeze, _product_rule_gap, build_dual
from .corep import _CERTIFICATES, Corepresentation, IrrepTable
from .errors import NotUnitary
from .haar import _haar_invariance
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
        return alg.comult.transpose(0, 2, 1) @ alg.antipode
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
    return Corepresentation(alg, tensor.transpose(1, 0, 2), label=f"regular-{side}[{alg.label}]")


def regular_invariance_report(h: LinearFunctional, tol: float = 1e-10) -> Report:
    """Haar invariance of both regular coactions on all basis elements.

    ``(h (x) id) coact(a) = (id (x) h) coact(a) = h(a) 1`` for both sides.
    """
    alg = h.algebra
    report = Report(f"regular invariance [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    for side in ("R", "L"):
        first, second = _haar_invariance(regular_carrier(alg, side).coact, np.eye(alg.dim), h)
        report.add(f"first-leg invariance {side}", first, t)
        report.add(f"second-leg invariance {side}", second, t)
    return report


@dataclass(frozen=True, eq=False)
class BasisFunctionSet:
    """``d`` elements of a carrier (default: the regular one) transforming like ``pi``."""

    corep: Corepresentation
    side: str
    functions: np.ndarray  # (d, c), a read-only copy: row j = carrier coordinates of psi_j
    label: str = ""
    carrier: Carrier | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "carrier", _carrier_of(self.corep, self.side, self.carrier))
        _freeze(self, "functions")
        if self.functions.shape != (self.corep.dim, self.carrier.dim):
            raise ValueError(
                f"basis-function array must be ({self.corep.dim}, {self.carrier.dim})")

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


def canonical_basis_functions(pi: Corepresentation, side: str, row: int = 0) -> BasisFunctionSet:
    """The canonical sets: row ``l`` of ``pi`` (right) or ``S^{-2}(pi^*_{j l})`` (left).

    The left construction needs ``pi`` unitary: it raises ``NotUnitary`` when a
    unitarity residual of :func:`~cqglab.corep.check_unitary` exceeds ``1e-9``
    times the magnitude.
    """
    if side == "L":
        _require_unitary(pi, pi.residuals)
    return _canonical_set(pi, side, row)


def _table_canonical_sets(table: IrrepTable, side: str, labels) -> list[BasisFunctionSet]:
    """The row-0 canonical sets of the named irreps of the table, in order: the sets
    of :func:`canonical_basis_functions`, with the left sets' unitarity read off
    the table's one stacked residual pass (:attr:`IrrepTable.residuals`)."""
    out = []
    for label in labels:
        i = table.index_of(label)
        if side == "L":
            _require_unitary(table[i], table.residuals[i])
        out.append(_canonical_set(table[i], side, 0))
    return out


def _require_unitary(pi: Corepresentation, residuals) -> None:
    """``NotUnitary`` unless every unitarity residual of ``pi`` is within ``1e-9`` times
    the magnitude."""
    worst = max(residuals[name] for name in _CERTIFICATES["unitarity"][1])
    if worst > 1e-9 * pi.algebra.magnitude:
        raise NotUnitary(f"left canonical basis functions need a unitary corep; "
                         f"{pi.label!r} has unitarity residual {worst:.1e}")


def _canonical_set(pi: Corepresentation, side: str, row: int) -> BasisFunctionSet:
    """The arithmetic of :func:`canonical_basis_functions`, unitarity taken as certified."""
    if side == "R":
        funcs = pi.coeffs[row, :, :]
    elif side == "L":
        s_inv = pi.algebra.antipode_inv
        s_minus2 = s_inv @ s_inv
        funcs = np.einsum("jm,mt->jt", np.conj(pi.coeffs[:, row, :]) @ pi.algebra.star, s_minus2)
    else:
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")
    return BasisFunctionSet(pi, side, funcs, label=f"{pi.label}:{side}{row}")


def basis_function_orthogonality(set_a: BasisFunctionSet, set_b: BasisFunctionSet,
                                 gram: np.ndarray, tol: float = 1e-10,
                                 canonical_rows: tuple[int, int] | None = None) -> Report:
    """Orthogonality of two basis-function sets in their carrier's inner product.

    ``gram`` is the carrier's Gram matrix: the side's Gram on A, the identity in
    a coideal's orthonormal basis.  ``(psi^q_k, phi^p_j)`` vanishes unless the
    coreps coincide and ``j = k``; the diagonal value is independent of ``j``.
    When both sets are canonical with rows ``(s, t)`` the common value
    ``(F^{-1})_ts / tr(F^{-1})`` is ``delta_ts / d``.
    """
    if set_b.carrier is not set_a.carrier:
        raise ValueError("sets live on different carriers")
    t = tol * set_a.algebra.magnitude
    inner = np.conj(set_a.functions) @ gram @ set_b.functions.T
    report = Report(
        f"basis-function orthogonality [{set_a.label} vs {set_b.label} side {set_a.side}]",
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
        finv = np.linalg.inv(set_a.corep.F)
        s, trow = canonical_rows
        expected = finv[trow, s] / np.trace(finv)
        report.add("canonical value", float(np.abs(diag - expected).max()), t,
                   expected=complex(expected))
    return report


# ---------------------------------------------------------------------------
# projection operators
# ---------------------------------------------------------------------------

def _projection_stack(rows: np.ndarray, dims: np.ndarray, side: str, h: LinearFunctional,
                      ordering: str) -> np.ndarray:
    """Constants-route projections ``ops[i, a, t]`` for rows ``rows[i]`` = ``pi_mn`` of
    dimension ``dims[i]``: one matrix product for the Haar weights ``h(pi^*_mn a_b)``
    (``h(a_b pi^*_mn)`` when swapped), one contraction with the coaction tensor."""
    if ordering not in ("standard", "swapped"):
        raise ValueError(f"unknown ordering {ordering!r}")
    alg = h.algebra
    pair = h.pair.T if ordering == "swapped" else h.pair  # [u, b]: h(a_u a_b) when standard
    weights = dims[:, None] * (np.conj(rows) @ alg.star @ pair)
    return np.tensordot(weights, regular_carrier(alg, side).coact,
                        axes=(1, 2)).transpose(0, 2, 1)


def _table_projections(table: IrrepTable, side: str, ordering: str = "standard") -> np.ndarray:
    """The projections of every irrep of the table, rows ``(p, m, n)`` in table order."""
    dims = np.array(table.dims())
    rows = np.concatenate([pi.coeffs.reshape(-1, table.algebra.dim) for pi in table])
    return _projection_stack(rows, np.repeat(dims, dims ** 2), side, table.haar, ordering)


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
        return _projection_stack(pi.coeffs[m, n][None], np.array([d]), side, h, ordering)[0]
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


def projection_completeness_residual(table: IrrepTable, side: str) -> float:
    """Residual of the completeness sum over the full irrep table, under its Haar functional.

    ``sum_p (tr((F^p)^{-1}) / d_p) sum_{m,n} F^p_{nm} P^p_mn = id``; every
    ``F = I``, so this is the plain sum of the diagonal projections.
    """
    # row (p, m, n) of the stack carries the weight delta_mn
    weights = np.concatenate([np.eye(pi.dim).reshape(-1) for pi in table])
    total = np.tensordot(weights, _table_projections(table, side), axes=1)
    return float(np.abs(total - np.eye(table.algebra.dim)).max())


def verify_projection_identities(table: IrrepTable, side: str, tol: float = 1e-10,
                                 ordering: str = "standard") -> Report:
    """Composition rule and basis-function action of the projections of the table's
    irreps under its Haar functional.

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
    ops = _table_projections(table, side, ordering)                      # [i, a, t]
    prods = np.tensordot(ops, ops, axes=(2, 1))                          # [i, a, j, t]
    funcs = np.concatenate([bset.functions for bset in _table_canonical_sets(
        table, side, table.labels)])                                     # [k, t]
    acted = np.tensordot(ops, funcs, axes=(2, 1))                        # [i, a, k]

    worst_same, n = 0.0, alg.dim
    dims = np.array(table.dims())
    for d in dict.fromkeys(table.dims()):  # one pass per dimension, its irreps' blocks stacked
        rows = np.flatnonzero(np.repeat(dims, dims ** 2) == d).reshape(-1, d * d)  # [c, (m, n)]
        cols = np.flatnonzero(np.repeat(dims, dims) == d).reshape(-1, d)           # [c, k]
        block = (rows[:, :, None], slice(None), rows[:, None, :])       # [c, (m, n), (j, k), a, t]
        want = np.einsum("nj,cmkat->cmnjkat", np.eye(d), ops[rows].reshape(-1, d, d, n, n))
        got = prods[block].reshape(want.shape)
        worst_same = max(worst_same, float(np.abs(got - want).max()))
        prods[block] = 0.0  # what is left are the cross-irrep products
        # P_mn(psi_k) = delta_nk psi_m, as [c, (m, n), k, a]
        acted[rows[:, :, None], :, cols[:, None, :]] -= np.einsum(
            "cma,nk->cmnka", funcs[cols], np.eye(d)).reshape(len(rows), d * d, d, n)
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
    applied = twist if twist is not None else ("plain" if side == "R" else "twisted")
    if applied not in ("plain", "twisted"):
        raise ValueError(f"unknown twist {applied!r}")
    report = Report(f"product coaction [{alg.label} side {side} rule {applied}]",
                    meta={"tol": tol})
    report.add("product rule", _product_rule_gap(tensor, alg.mult, applied == "twisted"),
               tol * alg.magnitude ** 2)
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
