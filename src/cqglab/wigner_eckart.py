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

One engine factorizes one (system, kind) against a stack of targets r, all
read off the same ``C`` and ``C^{-1}``; the per-triple functions call it with
a single target.
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


def _pair_matrix(tensor: np.ndarray, system: CGSystem, kind: str) -> np.ndarray:
    """``tensor[(r, l), k, j]`` as a matrix whose columns are the system's pair index.

    The ordinary ``(q, p)`` system indexes pairs ``(k, j)``; the twisted
    ``(p, q)`` one ``(j, k)``.
    """
    pairs = tensor if kind == "ordinary" else tensor.transpose(0, 2, 1)
    if pairs.shape[1:] != (system.d_p, system.d_q):
        raise ValueError(
            f"CG system ({system.p_label}, {system.q_label}) does not match a "
            f"{kind} tensor of factor dimensions {tensor.shape[1:]}")
    return pairs.reshape(len(pairs), -1)


def reduced_elements(tensor: np.ndarray, system: CGSystem, r_label: str,
                     f_r: np.ndarray, kind: str) -> np.ndarray:
    """Closed-form reduced matrix elements from the inner-product tensor.

    For ordinary families ``system`` must be the ``(q, p)`` one; for twisted
    families the ``(p, q)`` one.  Returns one value per multiplicity index
    (empty when the fusion multiplicity vanishes).
    """
    return _factorize_targets(tensor, system, [(r_label, f_r)], kind, "", 0.0,
                              ("", ""))[0].reduced


def factorize_tensor(tensor: np.ndarray, system: CGSystem, r_label: str,
                     f_r: np.ndarray, kind: str, side: str, tol: float,
                     labels: tuple[str, str, str], scale: float = 1.0) -> WEReport:
    """Factorization engine shared by the full and restricted theorems."""
    p_label, q_label, r_lab = labels
    report = _factorize_targets(tensor, system, [(r_label, f_r)], kind, side, tol,
                                (p_label, q_label), scale)[0]
    report.r_label = r_lab
    return report


def _factorize_targets(tensor: np.ndarray, system: CGSystem,
                       targets: list[tuple[str, np.ndarray]], kind: str, side: str,
                       tol: float, labels: tuple[str, str], scale: float = 1.0
                       ) -> list[WEReport]:
    """Factorize one (system, kind) against every target at once, one report each.

    ``tensor[(r, l), k, j]`` stacks the targets' inner-product tensors in the
    order of ``targets``, pairs ``(r_label, F^r)``.  Each target reads its
    reduced elements off its own rows and column block of ``X = T C``, and its
    residual off its row block of ``T - Z C^{-1}``, ``Z[(r, l), (r, alpha, l)]``
    holding the reduced elements; a target that does not occur has residual
    ``max |T_r|``.  A least-squares extraction against the inverse CG rows
    cross-checks the closed formula for every target that occurs.
    """
    tmat = _pair_matrix(tensor, system, kind)
    dims = [f_r.shape[0] for _, f_r in targets]
    if len(tmat) != sum(dims):
        raise ValueError("tensor rows do not match the targets' dimensions")
    x = tmat @ system.C
    firsts = np.cumsum([0] + dims[:-1])
    residuals = np.maximum.reduceat(np.abs(tmat).max(axis=1), firsts).tolist()
    p_label, q_label = labels
    reports = []
    for (r_label, f_r), d_r, row, residual in zip(targets, dims, firsts, residuals):
        rows, mult = slice(row, row + d_r), system.multiplicities.get(r_label, 0)
        reduced, details = np.zeros(0, dtype=complex), {}
        if mult:
            cols = slice(system.offsets[r_label], system.offsets[r_label] + mult * d_r)
            finv = np.linalg.inv(f_r)
            reduced = np.einsum("uav,vu->a", x[rows, cols].reshape(d_r, mult, d_r),
                                finv) / np.trace(finv)
            # the target's rows of Z C^{-1}: sum_alpha reduced[alpha] Cinv[(r, alpha, l), pair]
            design = system.Cinv[cols].reshape(mult, -1)
            block = tmat[rows].reshape(-1)
            residual = float(np.abs(block - reduced @ design).max())
            lsq, *_ = np.linalg.lstsq(design.T, block, rcond=None)
            details["reduced_lstsq_gap"] = float(np.abs(lsq - reduced).max())
        reports.append(WEReport(
            p_label=p_label, q_label=q_label, r_label=r_label, side=side, kind=kind,
            tensor=tensor[rows], reduced=reduced, residual=residual, tol=tol * scale,
            cg_order=(system.p_label, system.q_label), details=details))
    return reports


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
