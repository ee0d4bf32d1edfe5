"""The Haar functional: the regular trace, certification, lemmas, and Gram matrices.

A finite-dimensional CQG algebra is semisimple with ``S^2 = id``, so its Haar
functional is the normalized trace of the left regular representation,
``h(a_j) = sum_k mult[j, k, k] / n`` (Larson-Radford; Van Daele).  That trace
is certified for normalization and two-sided invariance:

* ``sum_j comult[l, j, k] h_j = h_l unit[k]``  for all ``l, k``  (left),
* ``sum_k comult[l, j, k] h_k = h_l unit[j]``  for all ``l, j``  (right),
* ``sum_j unit[j] h_j = 1``.

These conditions have at most one solution: for two solutions ``h`` and
``h'``, ``(h (x) h') coproduct(a)`` is ``h(a)`` by the left invariance of
``h`` and ``h'(a)`` by the right invariance of ``h'``.  So a certified trace
is *the* Haar functional, and it must make the Gram matrix ``h(a_j^* a_k)``
positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _freeze
from .errors import NoHaar, PositivityFailure
from .report import Report

__all__ = ["HaarFunctional", "GramPair", "solve_haar", "verify_haar_lemmas",
           "gram_matrices", "certify_haar", "regular_unitarity_report"]

PD_RELATIVE_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class HaarFunctional(LinearFunctional):
    """The certified Haar functional ``h`` of a CQG-algebra spec."""

    def is_tracial(self) -> bool:
        return bool(np.abs(self.pair - self.pair.T).max() <= 1e-12 * self.algebra.magnitude)


@dataclass(frozen=True, eq=False)
class GramPair:
    """Invariant Gram matrices of the two regular inner products, as read-only copies.

    ``gram_right[j, k] = h(a_j^* a_k)`` and
    ``gram_left[j, k] = h(a_k (S^2(a_j))^*)``; both are Hermitian positive
    definite for a valid CQG spec.
    """

    algebra: HopfAlgebraSpec
    gram_right: np.ndarray
    gram_left: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "gram_right", "gram_left")

    def gram(self, side: str) -> np.ndarray:
        if side == "R":
            return self.gram_right
        if side == "L":
            return self.gram_left
        raise ValueError(f"side must be 'R' or 'L', got {side!r}")


def _positivity(matrix: np.ndarray) -> tuple[float, float, float]:
    """Hermiticity residual, smallest eigenvalue of the Hermitian part, and the
    positive-definiteness floor ``PD_RELATIVE_FLOOR * max |eig|``, from one
    ``eigvalsh`` call.  The matrix is positive definite when the smallest
    eigenvalue exceeds the floor."""
    herm_res = float(np.abs(matrix - matrix.conj().T).max())
    eigs = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)
    floor = PD_RELATIVE_FLOOR * max(float(np.abs(eigs).max()), 1e-30)
    return herm_res, float(eigs[0]), floor


def solve_haar(alg: HopfAlgebraSpec, tol: float = 1e-9) -> HaarFunctional:
    """The normalized regular trace ``h(a) = Tr(L_a) / n``, certified as the Haar functional.

    Raises ``NoHaar`` when the trace misses normalization or two-sided
    invariance by more than ``tol * magnitude`` (the spec is not a CQG algebra),
    and ``PositivityFailure`` when the right Gram matrix is not positive definite.
    """
    fun = HaarFunctional(alg, alg.mult.trace(axis1=1, axis2=2) / alg.dim)
    norm = abs(complex(alg.unit @ fun.covector) - 1.0)
    left, right = _haar_invariance(alg.comult, np.eye(alg.dim), fun)
    if max(norm, left, right) > tol * alg.magnitude:
        raise NoHaar(
            f"the regular trace of {alg.label!r} is not a Haar functional (normalization "
            f"{norm:.2e}, left invariance {left:.2e}, right invariance {right:.2e})")
    herm_res, min_eig, floor = _positivity(alg.star @ fun.pair)  # h(a_j^* a_k)
    if herm_res > tol * alg.magnitude or min_eig <= floor:
        raise PositivityFailure(
            f"right Gram matrix of {alg.label!r} is not positive definite "
            f"(hermiticity {herm_res:.2e}, min eig {min_eig:.2e})")
    return fun


def _haar_invariance(coact: np.ndarray, rows: np.ndarray,
                     h: LinearFunctional) -> tuple[float, float]:
    """Residuals of ``(h (x) id) coact(e) = h(e) 1`` and ``(id (x) h) coact(e) = h(e) 1``
    on each basis element ``e`` of a carrier, given by its ``rows`` in the algebra;
    matrix products only, so ``rows = I`` on A costs ``n^3``."""
    h_rows = rows @ h.covector
    expected = np.outer(h_rows, h.algebra.unit)
    left = np.tensordot(h_rows, coact, axes=(0, 1))
    right = (coact @ h.covector) @ rows
    return float(np.abs(left - expected).max()), float(np.abs(right - expected).max())


def certify_haar(h: HaarFunctional, tol: float = 1e-9) -> Report:
    """Residuals of normalization, two-sided invariance, star-reality,
    S-invariance, and Gram positivity for a given functional."""
    alg = h.algebra
    mu, u, cov = alg.comult, alg.unit, h.covector
    report = Report(f"haar certificates [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    report.add("normalization", abs(complex(u @ cov) - 1.0), t)
    left, right = _haar_invariance(mu, np.eye(alg.dim), h)
    report.add("left invariance", left, t)
    report.add("right invariance", right, t)
    # h(a^*) = conj(h(a)) on the basis
    report.add("star reality", float(np.abs(alg.star @ cov - np.conj(cov)).max()), t)
    # h(S(a)) = h(a)
    report.add("antipode invariance", float(np.abs(alg.antipode @ cov - cov).max()), t)
    herm_res, min_eig, floor = _positivity(alg.star @ h.pair)
    report.add("gram hermitian", herm_res, t)
    report.add("gram positive", 0.0 if min_eig > floor else 1.0, 0.5,
               min_eigenvalue=min_eig, floor=floor)
    return report


def verify_haar_lemmas(h: LinearFunctional, tol: float = 1e-10) -> Report:
    """Check the two averaging lemmas and the Haar factorization on all basis pairs.

    Lemma (right form): ``sum h(a b_(1)) S(b_(2)) = sum h(a_(1) b) a_(2)``.
    Lemma (left form):  ``sum h(b_(2) a) S(b_(1)) = sum h(b a_(2)) a_(1)``.
    Factorization: ``h(a) = sum h(a^X_[1]) h(a^X_[2])`` for ``X = R`` and ``L``.
    """
    alg = h.algebra
    mu, s = alg.comult, alg.antipode
    cov, H = h.covector, h.pair  # H[j, k] = h(a_j a_k)
    report = Report(f"haar lemmas [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    report.add("averaging right", _averaging_gap(H, mu @ s, mu), t)
    # [i, j, t]: sum_a (mu @ H)[j, a, i] s[a, t] against sum_b mu[i, t, b] H[j, b]
    left = np.tensordot(mu @ H, s, axes=(1, 0)).transpose(1, 0, 2)
    left -= (mu @ H.T).transpose(0, 2, 1)
    report.add("averaging left", float(np.abs(left).max()), t)

    second_h = mu @ cov  # [l, j] = sum_k comult[l, j, k] h_k
    fact_r = second_h @ cov - cov
    report.add("factorization right", float(np.abs(fact_r).max()), t)
    # left legs: a^L_[1] = a_(2), a^L_[2] = S(a_(1))
    sh = s @ cov  # (S applied before h) on basis elements: sum_k s[j,k] h_k
    fact_l = second_h @ sh - cov
    report.add("factorization left", float(np.abs(fact_l).max()), t)
    return report


def gram_matrices(alg: HopfAlgebraSpec, h: LinearFunctional, tol: float = 1e-9) -> GramPair:
    """Both invariant Gram matrices, with Hermiticity/positivity certificates."""
    star, s = alg.star, alg.antipode
    gram_r = star @ h.pair  # h(a_j^* a_k); a_j^* has the coefficients star[j]
    # (a_j, a_k)^L = h(a_k (S^2 a_j)^*); (S^2 a_j)^* has coefficients conj(s s)[j] @ star
    gram_l = np.conj(s @ s) @ star @ h.pair.T
    for side, gram in (("R", gram_r), ("L", gram_l)):
        herm_res, min_eig, floor = _positivity(gram)
        if herm_res > tol * alg.magnitude or min_eig <= floor:
            raise PositivityFailure(
                f"{side} Gram matrix of {alg.label!r} fails positivity "
                f"(hermiticity {herm_res:.2e}, min eig {min_eig:.2e})")
    return GramPair(alg, gram_r, gram_l)


def regular_unitarity_report(grams: GramPair, tol: float = 1e-10) -> Report:
    """Unitarity of the regular corepresentations w.r.t. their inner products.

    Checks ``sum <w, v_[1]> S(v_[2]) = sum <w_[1], v> w_[2]^*`` on all basis
    pairs, for the right regular coaction with the right Gram and the left
    regular coaction with the left Gram.
    """
    from .regular import regular_carrier  # local import: no cycle at module load

    alg = grams.algebra
    report = Report(f"regular unitarity [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    for side in ("R", "L"):
        ct = regular_carrier(alg, side).coact  # ct[t, a, b]: pi(a_t) = sum a_a (x) a_b coeffs
        report.add(f"unitarity {side}", _averaging_gap(
            grams.gram(side), ct @ alg.antipode, np.conj(ct) @ alg.star), t)
    return report


def _averaging_gap(m: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """``max |sum_a m[i, a] x[j, a, t] - sum_a y[i, a, t] m[a, j]|``, the shape of the
    right averaging lemma and of regular unitarity: two matrix products, never an
    ``n^4`` einsum loop."""
    gap = np.tensordot(m, x, axes=(1, 1))                      # [i, j, t]
    gap -= np.tensordot(y, m, axes=(1, 0)).transpose(0, 2, 1)  # [i, t, j] as [i, j, t]
    return float(np.abs(gap).max())
