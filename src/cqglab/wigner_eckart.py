"""Wigner-Eckart factorizations for ordinary and twisted tensor operators.

The inner-product tensor ``T[l, k, j] = (psi^r_l, Q^q_k(phi^p_j))`` factorizes
through Clebsch-Gordan coefficients and reduced matrix elements:

* ordinary families use the ``(q, p)`` CG system:
  ``T[l, k, j] = sum_alpha Cinv_qp[(r, alpha, l), (k, j)] (r|Q|p)_alpha``;
* twisted families use the ``(p, q)`` system with pair index ``(j, k)``.

The reduced elements have the closed form
``(r|Q|p)_alpha = sum T[u, t, s] C[(t, s) or (s, t), (r, alpha, v)]
(F^r)^{-1}[v, u] / tr (F^r)^{-1}``; reconstruction through that formula is
exact, and a least-squares extraction is kept alongside as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cg import CGSystem
from .corep import Corepresentation
from .regular import BasisFunctionSet
from .tensor_ops import TensorOperatorFamily

__all__ = ["WEReport", "we_tensor", "reduced_elements", "factorize_tensor",
           "verify_wigner_eckart"]


@dataclass
class WEReport:
    """One Wigner-Eckart factorization: tensor, reduced elements, residual."""

    p_label: str
    q_label: str
    r_label: str
    side: str
    kind: str
    tensor: np.ndarray                 # (d_r, d_q, d_p)
    reduced: np.ndarray                # (multiplicity,)
    residual: float
    tol: float
    cg_order: tuple[str, str]
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol

    def to_dict(self) -> dict:
        return {
            "p": self.p_label, "q": self.q_label, "r": self.r_label,
            "side": self.side, "kind": self.kind,
            "cg_order": list(self.cg_order),
            "reduced": [[z.real, z.imag] for z in self.reduced],
            "residual": float(self.residual),
            "tol": float(self.tol),
            "passed": self.passed,
            **self.details,
        }


def _inner_product_tensor(psis: np.ndarray, ops: np.ndarray, phis: np.ndarray,
                          gram: np.ndarray) -> np.ndarray:
    """``T[l, k, j] = (psi_l, Q_k(phi_j))`` for coefficient rows and a Gram matrix."""
    acted = np.einsum("kab,jb->kja", ops, phis)
    return np.einsum("lb,kjb->lkj", np.conj(psis) @ gram, acted)


def we_tensor(psis: BasisFunctionSet, fam: TensorOperatorFamily,
              phis: BasisFunctionSet, gram: np.ndarray) -> np.ndarray:
    """All inner products ``(psi_l, Q_k(phi_j))`` in the side's inner product."""
    if not (psis.side == fam.side == phis.side):
        raise ValueError("basis sets and family must share one regular side")
    return _inner_product_tensor(psis.functions, fam.operators, phis.functions, gram)


def _pair_axes(kind: str) -> str:
    """einsum letters of a CG block's (first, second) factor axes, in tensor terms.

    The ordinary ``(q, p)`` system indexes pairs ``(k, j)``; the twisted
    ``(p, q)`` one ``(j, k)``.
    """
    return "kj" if kind == "ordinary" else "jk"


def reduced_elements(tensor: np.ndarray, system: CGSystem, r_label: str,
                     f_r: np.ndarray, kind: str) -> np.ndarray:
    """Closed-form reduced matrix elements from the inner-product tensor.

    For ordinary families ``system`` must be the ``(q, p)`` one; for twisted
    families the ``(p, q)`` one.  Returns one value per multiplicity index
    (empty when the fusion multiplicity vanishes).
    """
    finv = np.linalg.inv(f_r)
    fwd, _ = system.blocks(r_label, tensor.shape[0])
    reduced = np.einsum(f"ukj,a{_pair_axes(kind)}v,vu->a", tensor, fwd, finv)
    return np.asarray(reduced / np.trace(finv), dtype=complex)


def factorize_tensor(tensor: np.ndarray, system: CGSystem, r_label: str,
                     f_r: np.ndarray, kind: str, side: str, tol: float,
                     labels: tuple[str, str, str], scale: float = 1.0) -> WEReport:
    """Factorization engine shared by the full and restricted theorems."""
    reduced = reduced_elements(tensor, system, r_label, f_r, kind)
    _, inv = system.blocks(r_label, tensor.shape[0])
    # design[l, k, j, alpha]: the inverse CG columns in tensor order
    design = np.einsum(f"al{_pair_axes(kind)}->lkja", inv)
    residual = float(np.abs(tensor - design @ reduced).max())
    details: dict = {}
    if len(reduced):
        # independent extraction: least squares against the inverse CG columns
        lsq, *_ = np.linalg.lstsq(design.reshape(-1, len(reduced)), tensor.reshape(-1),
                                  rcond=None)
        details["reduced_lstsq_gap"] = float(np.abs(lsq - reduced).max())
    p_label, q_label, r_lab = labels
    return WEReport(
        p_label=p_label, q_label=q_label, r_label=r_lab, side=side, kind=kind,
        tensor=tensor, reduced=reduced, residual=residual, tol=tol * scale,
        cg_order=(system.p_label, system.q_label), details=details)


def verify_wigner_eckart(psis: BasisFunctionSet, fam: TensorOperatorFamily,
                         phis: BasisFunctionSet, system: CGSystem, f_r: np.ndarray,
                         gram: np.ndarray, tol: float = 1e-9) -> WEReport:
    """Factorize the inner-product tensor and report the reconstruction residual.

    ``system`` must match the family kind (``(q, p)`` for ordinary, ``(p, q)``
    for twisted); passing the other order is the standard negative control on
    a noncommutative spec.  A least-squares extraction of the reduced elements
    cross-checks the closed formula.
    """
    r_corep: Corepresentation = psis.corep
    tensor = we_tensor(psis, fam, phis, gram)
    return factorize_tensor(
        tensor, system, r_corep.label, f_r, fam.kind, fam.side, tol,
        labels=(phis.corep.label, fam.corep.label, r_corep.label),
        scale=fam.algebra.magnitude ** 2)
