"""The Haar functional: solving, certification, lemmas, and Gram matrices.

The two-sided invariance conditions and the normalization form an
overdetermined linear system in the covector ``h``:

* ``sum_j comult[l, j, k] h_j = h_l unit[k]``  for all ``l, k``  (left),
* ``sum_k comult[l, j, k] h_k = h_l unit[j]``  for all ``l, j``  (right),
* ``sum_j unit[j] h_j = 1``.

A CQG-algebra spec admits exactly one solution, and that solution must make
the Gram matrix ``h(a_j^* a_k)`` positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional
from .errors import NoHaar, NonUniqueHaar, PositivityFailure
from .report import Report

__all__ = ["HaarFunctional", "GramPair", "solve_haar", "verify_haar_lemmas",
           "gram_matrices", "certify_haar", "regular_unitarity_report"]

PD_RELATIVE_FLOOR = 1e-10


@dataclass(frozen=True, eq=False)
class HaarFunctional(LinearFunctional):
    """The certified Haar functional ``h`` of a CQG-algebra spec."""

    def is_tracial(self) -> bool:
        H = self.algebra.mult @ self.covector  # H[j, k] = h(a_j a_k)
        return bool(np.abs(H - H.T).max() <= 1e-12 * self.algebra.magnitude)


@dataclass(frozen=True)
class GramPair:
    """Invariant Gram matrices of the two regular inner products.

    ``gram_right[j, k] = h(a_j^* a_k)`` and
    ``gram_left[j, k] = h(a_k (S^2(a_j))^*)``; both are Hermitian positive
    definite for a valid CQG spec.
    """

    algebra: HopfAlgebraSpec
    gram_right: np.ndarray
    gram_left: np.ndarray

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


def _gram_right(alg: HopfAlgebraSpec, cov: np.ndarray) -> np.ndarray:
    """The right Gram matrix ``h(a_j^* a_k)`` of the covector ``cov``."""
    return np.einsum("ju,ukl,l->jk", np.conj(alg.star), alg.mult, cov)


def solve_haar(alg: HopfAlgebraSpec, tol: float = 1e-9) -> HaarFunctional:
    """Solve the invariance system for ``h`` and certify the result.

    The homogeneous part's nullity counts singular values at or below
    ``tol * sigma_max``.  Raises ``NoHaar`` when the system is inconsistent,
    ``NonUniqueHaar`` when that nullity is above one, and
    ``PositivityFailure`` when the right Gram matrix is not positive definite.
    """
    n = alg.dim
    mu, u = alg.comult, alg.unit
    # homogeneous invariance constraints, rows indexed by (l, k) then (l, j)
    delta = np.zeros((n, n, n), dtype=complex)               # delta[l, k, m] = delta_lm u_k
    delta[np.arange(n), :, np.arange(n)] = u
    delta = delta.reshape(n * n, n)
    hom = np.vstack([mu.transpose(0, 2, 1).reshape(n * n, n) - delta,  # coefficient of h_j
                     mu.reshape(n * n, n) - delta])                      # coefficient of h_k

    sigma = np.linalg.svd(hom, compute_uv=False)
    scale = sigma[0] if sigma[0] > 0 else 1.0
    null_dim = int(np.sum(sigma <= tol * scale)) + max(0, n - len(sigma))
    if null_dim == 0:
        raise NoHaar(f"invariance system of {alg.label!r} has no nonzero solution")
    if null_dim > 1:
        raise NonUniqueHaar(
            f"invariance system of {alg.label!r} has a {null_dim}-dimensional solution space")

    full = np.vstack([hom, u[None, :]])
    rhs = np.zeros(full.shape[0], dtype=complex)
    rhs[-1] = 1.0
    h, *_ = np.linalg.lstsq(full, rhs, rcond=None)
    residual = float(np.abs(full @ h - rhs).max())
    if residual > tol * alg.magnitude:
        raise NoHaar(
            f"invariance system of {alg.label!r} is inconsistent (residual {residual:.2e})")

    fun = HaarFunctional(alg, h)
    herm_res, min_eig, floor = _positivity(_gram_right(alg, h))
    if herm_res > tol * alg.magnitude or min_eig <= floor:
        raise PositivityFailure(
            f"right Gram matrix of {alg.label!r} is not positive definite "
            f"(hermiticity {herm_res:.2e}, min eig {min_eig:.2e})")
    return fun


def certify_haar(h: HaarFunctional, tol: float = 1e-9) -> Report:
    """Residuals of normalization, two-sided invariance, star-reality,
    S-invariance, and Gram positivity for a given functional."""
    alg = h.algebra
    mu, u, cov = alg.comult, alg.unit, h.covector
    report = Report(f"haar certificates [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    report.add("normalization", abs(complex(u @ cov) - 1.0), t)
    left = np.einsum("ljk,j->lk", mu, cov) - np.outer(cov, u)
    right = np.einsum("ljk,k->lj", mu, cov) - np.outer(cov, u)
    report.add("left invariance", float(np.abs(left).max()), t)
    report.add("right invariance", float(np.abs(right).max()), t)
    # h(a^*) = conj(h(a)) on the basis
    report.add("star reality", float(np.abs(alg.star @ cov - np.conj(cov)).max()), t)
    # h(S(a)) = h(a)
    report.add("antipode invariance", float(np.abs(alg.antipode @ cov - cov).max()), t)
    herm_res, min_eig, floor = _positivity(_gram_right(alg, cov))
    report.add("gram hermitian", herm_res, t)
    report.add("gram positive", 0.0 if min_eig > floor else 1.0, 0.5,
               min_eigenvalue=min_eig, floor=floor)
    return report


def verify_haar_lemmas(alg: HopfAlgebraSpec, h: LinearFunctional, tol: float = 1e-10) -> Report:
    """Check the two averaging lemmas and the Haar factorization on all basis pairs.

    Lemma (right form): ``sum h(a b_(1)) S(b_(2)) = sum h(a_(1) b) a_(2)``.
    Lemma (left form):  ``sum h(b_(2) a) S(b_(1)) = sum h(b a_(2)) a_(1)``.
    Factorization: ``h(a) = sum h(a^X_[1]) h(a^X_[2])`` for ``X = R`` and ``L``.
    """
    mu, s = alg.comult, alg.antipode
    cov = h.covector
    H = np.einsum("jkl,l->jk", alg.mult, cov)  # H[j, k] = h(a_j a_k)
    report = Report(f"haar lemmas [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude

    lhs = np.einsum("ia,jat->ijt", H, mu @ s)
    rhs = np.einsum("iat,aj->ijt", mu, H)
    report.add("averaging right", float(np.abs(lhs - rhs).max()), t)

    lhs = np.einsum("jai,at->ijt", mu @ H, s)
    rhs = np.einsum("itb,jb->ijt", mu, H)
    report.add("averaging left", float(np.abs(lhs - rhs).max()), t)

    fact_r = np.einsum("ljk,j,k->l", mu, cov, cov) - cov
    report.add("factorization right", float(np.abs(fact_r).max()), t)
    # left legs: a^L_[1] = a_(2), a^L_[2] = S(a_(1))
    sh = s @ cov  # (S applied before h) on basis elements: sum_k s[j,k] h_k
    fact_l = np.einsum("ljk,k,j->l", mu, cov, sh) - cov
    report.add("factorization left", float(np.abs(fact_l).max()), t)
    return report


def gram_matrices(alg: HopfAlgebraSpec, h: LinearFunctional, tol: float = 1e-9) -> GramPair:
    """Both invariant Gram matrices, with Hermiticity/positivity certificates."""
    cov = h.covector
    star, s, m = alg.star, alg.antipode, alg.mult
    gram_r = _gram_right(alg, cov)
    # (a_j, a_k)^L = h(a_k (S^2 a_j)^*); (S^2 a_j)^* has coefficients conj(s s)[j] @ star
    s2_star = np.conj(s @ s) @ star
    gram_l = np.einsum("ju,kul,l->jk", s2_star, m, cov)
    for side, gram in (("R", gram_r), ("L", gram_l)):
        herm_res, min_eig, floor = _positivity(gram)
        if herm_res > tol * alg.magnitude or min_eig <= floor:
            raise PositivityFailure(
                f"{side} Gram matrix of {alg.label!r} fails positivity "
                f"(hermiticity {herm_res:.2e}, min eig {min_eig:.2e})")
    return GramPair(alg, gram_r, gram_l)


def regular_unitarity_report(alg: HopfAlgebraSpec, grams: GramPair, tol: float = 1e-10) -> Report:
    """Unitarity of the regular corepresentations w.r.t. their inner products.

    Checks ``sum <w, v_[1]> S(v_[2]) = sum <w_[1], v> w_[2]^*`` on all basis
    pairs, for the right regular coaction with the right Gram and the left
    regular coaction with the left Gram.
    """
    from .regular import regular_carrier  # local import: no cycle at module load

    report = Report(f"regular unitarity [{alg.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    for side in ("R", "L"):
        gram = grams.gram(side)
        ct = regular_carrier(alg, side).coact  # ct[t, a, b]: pi(a_t) = sum a_a (x) a_b coeffs
        lhs = np.einsum("ia,jat->ijt", gram, ct @ alg.antipode)
        rhs = np.einsum("iat,aj->ijt", np.conj(ct) @ alg.star, gram)
        report.add(f"unitarity {side}", float(np.abs(lhs - rhs).max()), t)
    return report
