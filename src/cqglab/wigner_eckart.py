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
All inputs of one call live on one carrier, A or a coideal B, whose Gram
matrix is passed (the identity in B's orthonormal basis).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cg import CGSystem, _padded_blocks
from .regular import BasisFunctionSet
from .tensor_ops import TensorOperatorFamily

__all__ = ["WEReport", "we_tensor", "verify_wigner_eckart"]


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
    """All inner products ``(psi_l, Q_k(phi_j))`` in the carrier's inner product."""
    if not (psis.carrier is fam.carrier is phis.carrier):
        raise ValueError("basis sets and family must share one carrier")
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
    tensor = we_tensor(psis, fam, phis, gram)
    return _factorize_targets([tensor], [system], [(psis.corep.label, f_r)], fam.kind,
                              fam.side, tol, [(phis.corep.label, fam.corep.label)],
                              fam.algebra.magnitude ** 2)[0][0]


def _stacked_slices(dims: list[int]) -> list[slice]:
    """The rows of each block when blocks of these dimensions are stacked in order."""
    ends = np.cumsum(dims, dtype=int).tolist()
    return [slice(end - dim, end) for dim, end in zip(dims, ends)]


def _factorize_table(psis: list[BasisFunctionSet], fams: list[TensorOperatorFamily],
                     phis: list[BasisFunctionSet], systems: dict[tuple[str, str], CGSystem],
                     gram: np.ndarray, tol: float) -> list[list[WEReport]]:
    """:func:`verify_wigner_eckart` of every target ``psis[t]``, family ``fams[k]``
    and source ``phis[i]``, all on one carrier, the families of one kind.

    ``systems`` holds the CG systems keyed by label pair: ``(q, p)`` for
    ordinary families, ``(p, q)`` for twisted ones.  Returns, for each
    ``(i, k)`` in source-major order, one report per target.  The inner
    products of every target, operator and source come from one contraction.
    """
    kind, side = fams[0].kind, fams[0].side
    tensor = _inner_product_tensor(np.concatenate([bset.functions for bset in psis]),
                                   np.concatenate([fam.operators for fam in fams]),
                                   np.concatenate([bset.functions for bset in phis]), gram)
    src_rows = _stacked_slices([bset.corep.dim for bset in phis])
    fam_rows = _stacked_slices([fam.corep.dim for fam in fams])
    pairs = list(product(range(len(phis)), range(len(fams))))
    labels = [(phis[i].corep.label, fams[k].corep.label) for i, k in pairs]
    return _factorize_targets(
        [tensor[:, fam_rows[k], src_rows[i]] for i, k in pairs],
        [systems[ql, pl] if kind == "ordinary" else systems[pl, ql] for pl, ql in labels],
        [(bset.corep.label, bset.corep.F) for bset in psis], kind, side, tol, labels,
        fams[0].algebra.magnitude ** 2)
