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

One engine factorizes the pairs ``(p, q)`` of one kind against a stack of
targets r in batched contractions, each pair read off its own ``C`` and
``C^{-1}``; the per-triple functions call it with a single pair and target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cg import CGSystem, _padded_blocks
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
        reduced = np.ascontiguousarray(self.reduced, dtype=complex)
        return {
            "p": self.p_label, "q": self.q_label, "r": self.r_label,
            "side": self.side, "kind": self.kind,
            "cg_order": list(self.cg_order),
            "reduced": reduced.view(float).reshape(-1, 2).tolist(),
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
    return _factorize_targets([tensor], [system], [(r_label, f_r)], kind, "", 0.0,
                              [("", "")])[0][0].reduced


def factorize_tensor(tensor: np.ndarray, system: CGSystem, r_label: str,
                     f_r: np.ndarray, kind: str, side: str, tol: float,
                     labels: tuple[str, str, str], scale: float = 1.0) -> WEReport:
    """Factorization engine shared by the full and restricted theorems."""
    p_label, q_label, r_lab = labels
    report = _factorize_targets([tensor], [system], [(r_label, f_r)], kind, side, tol,
                                [(p_label, q_label)], scale)[0][0]
    report.r_label = r_lab
    return report


def _factorize_targets(tensors: list[np.ndarray], systems: list[CGSystem],
                       targets: list[tuple[str, np.ndarray]], kind: str, side: str,
                       tol: float, labels: list[tuple[str, str]], scale: float = 1.0
                       ) -> list[list[WEReport]]:
    """Factorize many ``(p, q)`` of one kind against every target at once.

    ``tensors[i][(r, l), k, j]`` stacks pair ``i``'s inner-product tensors in
    the order of ``targets``, pairs ``(r_label, F^r)``; ``systems[i]`` is its
    CG system and ``labels[i]`` its ``(p, q)``.  Returns one report per target
    for each pair.  The pairs of one system size are factorized together,
    their rows and CG blocks zero-padded to the largest target dimension and
    multiplicity: ``X = T C`` read at each target's columns gives the reduced
    elements, ``T - Z C^{-1}`` the residual, ``Z`` holding the reduced
    elements, and a batched pseudo-inverse of the inverse-CG designs the
    least-squares cross-check.  A target that does not occur has zero blocks,
    so its residual is ``max |T_r|`` and it carries no cross-check.
    """
    names = [r_label for r_label, _ in targets]
    dims = [f_r.shape[0] for _, f_r in targets]
    d_max = max(dims, default=0)
    firsts = np.cumsum(dims, dtype=int) - dims
    valid = np.arange(d_max) < np.array(dims)[:, None]                       # [r, l]
    rows = np.where(valid, firsts[:, None] + np.arange(d_max), 0)
    finvs = np.zeros((len(targets), d_max, d_max), dtype=complex)   # (F^r)^{-1} / tr
    for r, (_, f_r) in enumerate(targets):
        finv = np.linalg.inv(f_r)
        finvs[r, :len(f_r), :len(f_r)] = finv / np.trace(finv)
    tmats = [_pair_matrix(tensor, system, kind) for tensor, system in zip(tensors, systems)]
    if any(len(tmat) != sum(dims) for tmat in tmats):
        raise ValueError("tensor rows do not match the targets' dimensions")
    classes: dict[int, list[int]] = {}
    for i, tmat in enumerate(tmats):
        classes.setdefault(tmat.shape[1], []).append(i)
    reports: list[list[WEReport]] = [[] for _ in tensors]
    for members in classes.values():
        stacked = np.stack([tmats[i] for i in members])
        block = stacked[:, rows] * valid[..., None]                       # [w, r, l, pair]
        fwd, inv = _padded_blocks([systems[i] for i in members], names, dims)
        x = block[:, :, None] @ fwd                                        # [w, r, a, u, v]
        reduced = (x * finvs.swapaxes(1, 2)[:, None]).sum(axis=(3, 4))   # [w, r, a]
        design = inv.reshape(*inv.shape[:3], -1)                           # [w, r, a, (l, pair)]
        flat = block.reshape(*block.shape[:2], -1)
        residual = np.abs(flat - (reduced[:, :, None] @ design)[:, :, 0]).max(axis=2)
        lsq = (np.linalg.pinv(design.swapaxes(2, 3)) @ flat[..., None])[..., 0]
        gaps = np.abs(lsq - reduced)
        residual = residual.tolist()
        for w, i in enumerate(members):
            system, (p_label, q_label) = systems[i], labels[i]
            for r, (r_label, d_r, row) in enumerate(zip(names, dims, firsts.tolist())):
                mult = system.multiplicities.get(r_label, 0)
                details = ({"reduced_lstsq_gap": float(gaps[w, r, :mult].max())}
                           if mult else {})
                reports[i].append(WEReport(
                    p_label=p_label, q_label=q_label, r_label=r_label, side=side,
                    kind=kind, tensor=tensors[i][row:row + d_r],
                    reduced=reduced[w, r, :mult], residual=residual[w][r],
                    tol=tol * scale, cg_order=(system.p_label, system.q_label),
                    details=details))
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
