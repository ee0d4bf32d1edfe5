"""Wigner-Eckart factorizations for ordinary and twisted tensor operators.

The inner-product tensor ``T[l, k, j] = (psi^r_l, Q^q_k(phi^p_j))`` factorizes
through Clebsch-Gordan coefficients and reduced matrix elements:

* ordinary families use the ``(q, p)`` CG system:
  ``T[l, k, j] = sum_alpha Cinv_qp[(r, alpha, l), (k, j)] (r|Q|p)_alpha``;
* twisted families use the ``(p, q)`` system with pair index ``(j, k)``.

The reduced elements have the closed form
``(r|Q|p)_alpha = sum T[u, t, s] C[(t, s) or (s, t), (r, alpha, v)]
(F^r)^{-1}[v, u] / tr (F^r)^{-1}``, with ``(F^r)^{-1} / tr = I / d_r``;
reconstruction through that formula is exact, and a least-squares extraction
is kept alongside as a diagnostic.

One engine factorizes pairs ``(p, q)``, each put in its CG system's order
(:func:`_cg_order`), against a stack of targets r in batched contractions,
each pair read off its own ``C`` and ``C^{-1}``, and returns numbers.
:func:`_factorize_table` sends several whole tables through the engine
together and renders each as one report with a check per triple;
:func:`verify_wigner_eckart` is its one-triple call.  The inputs of one table
live on one carrier, A or a coideal B, whose Gram matrix is passed (the
identity in B's orthonormal basis).
"""

from __future__ import annotations

from itertools import accumulate, product

import numpy as np

from .cg import CGSystem, _padded_blocks
from .regular import BasisFunctionSet
from .report import Report
from .tensor_ops import TensorOperatorFamily

__all__ = ["we_tensor", "verify_wigner_eckart"]


def _cg_order(kind: str, p, q) -> tuple:
    """The factor order of the CG system a family of this kind factorizes through:
    ``(q, p)`` for ordinary families, ``(p, q)`` for twisted ones.  ``p`` and ``q``
    may be labels, label lists or tensor axes."""
    return (q, p) if kind == "ordinary" else (p, q)


def _one_carrier(sets) -> None:
    """Raise unless the basis sets and families all live on one carrier."""
    if len({bset.carrier for bset in sets}) != 1:
        raise ValueError("basis sets and family must share one carrier")


def _inner_product_tensor(psis: np.ndarray, ops: np.ndarray, phis: np.ndarray,
                          gram: np.ndarray) -> np.ndarray:
    """``T[l, k, j] = (psi_l, Q_k(phi_j))`` for coefficient rows and a Gram matrix."""
    acted = np.einsum("kab,jb->kja", ops, phis)
    return np.einsum("lb,kjb->lkj", np.conj(psis) @ gram, acted)


def we_tensor(psis: BasisFunctionSet, fam: TensorOperatorFamily,
              phis: BasisFunctionSet, gram: np.ndarray) -> np.ndarray:
    """All inner products ``(psi_l, Q_k(phi_j))`` in the carrier's inner product."""
    _one_carrier([psis, fam, phis])
    return _inner_product_tensor(psis.functions, fam.operators, phis.functions, gram)


def _pair_matrix(tensor: np.ndarray, system: CGSystem, kind: str) -> np.ndarray:
    """``tensor[(r, l), k, j]`` as a matrix whose columns are the system's pair index:
    ``(k, j)`` for the ordinary ``(q, p)`` system, ``(j, k)`` for the twisted ``(p, q)`` one.
    """
    pairs = tensor.transpose(0, *_cg_order(kind, 2, 1))
    if pairs.shape[1:] != (system.d_p, system.d_q):
        raise ValueError(
            f"CG system ({system.p_label}, {system.q_label}) does not match a "
            f"{kind} tensor of factor dimensions {tensor.shape[1:]}")
    return pairs.reshape(len(pairs), -1)


def _factorize_targets(tmats: list[np.ndarray], systems: list[CGSystem],
                       targets: list[tuple[str, int]]
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factorize many pairs ``(p, q)`` against every target at once.

    ``tmats[i]`` is pair ``i``'s :func:`_pair_matrix` for its CG system
    ``systems[i]``: rows ``(r, l)`` stacked in the order of ``targets``, pairs
    ``(r_label, d_r)``, and columns in the system's pair order, so pairs of
    both kinds go in one call.  Returns arrays indexed ``[pair, target]``: the
    reconstruction residuals, the least-squares gaps (NaN where the target
    does not occur), the reduced elements zero-padded along a last axis to the
    largest multiplicity, and the multiplicities.  The pairs of one system size are
    factorized together, their rows and CG blocks zero-padded to the largest
    target dimension and multiplicity: ``X = T C`` at each target's columns,
    traced over ``(u, v)`` and divided by ``d_r``, gives the reduced elements
    ``Z``, ``T - Z C^{-1}`` the residual, and a batched pseudo-inverse of the
    inverse-CG designs the least-squares cross-check, taken only for the
    targets that occur, each gap the largest over the target's multiplicity.
    A target that does not occur has zero blocks, so its residual is ``max |T_r|``.
    """
    names = [r_label for r_label, _ in targets]
    dims = [d_r for _, d_r in targets]
    d_max = max(dims, default=0)
    firsts = np.cumsum(dims, dtype=int) - dims
    valid = np.arange(d_max) < np.array(dims)[:, None]                       # [r, l]
    rows = np.where(valid, firsts[:, None] + np.arange(d_max), 0)
    if any(len(tmat) != sum(dims) for tmat in tmats):
        raise ValueError("tensor rows do not match the targets' dimensions")
    classes: dict[int, list[int]] = {}
    for i, tmat in enumerate(tmats):
        classes.setdefault(tmat.shape[1], []).append(i)
    residuals = np.empty((len(tmats), len(targets)))
    gaps = np.full(residuals.shape, np.nan)
    mults = np.zeros(residuals.shape, dtype=int)
    width = max([1, *(m for system in systems for m in system.multiplicities.values())])
    reduced = np.zeros((*residuals.shape, width), dtype=complex)
    for members in classes.values():
        stacked = np.stack([tmats[i] for i in members])
        block = stacked[:, rows] * valid[..., None]                       # [w, r, l, pair]
        fwd, inv, mult = _padded_blocks([systems[i] for i in members], names, dims)
        x = block[:, :, None] @ fwd                                        # [w, r, a, u, v]
        red = np.trace(x, axis1=3, axis2=4) / np.array(dims)[:, None]      # [w, r, a]
        design = inv.reshape(*inv.shape[:3], -1)                           # [w, r, a, (l, pair)]
        flat = block.reshape(*block.shape[:2], -1)
        occurs = mult > 0
        lsq = (np.linalg.pinv(design[occurs].swapaxes(1, 2)) @ flat[occurs][..., None])[..., 0]
        gap = np.full(occurs.shape, np.nan)
        gap[occurs] = np.abs(lsq - red[occurs]).max(
            axis=1, initial=0.0, where=np.arange(lsq.shape[1]) < mult[occurs][:, None])
        residuals[members] = np.abs(flat - (red[:, :, None] @ design)[:, :, 0]).max(axis=2)
        gaps[members], mults[members] = gap, mult
        reduced[members, :, :red.shape[2]] = red
    return residuals, gaps, reduced, mults


def verify_wigner_eckart(psis: BasisFunctionSet, fam: TensorOperatorFamily,
                         phis: BasisFunctionSet, system: CGSystem, f_r: np.ndarray,
                         gram: np.ndarray, tol: float = 1e-9) -> Report:
    """Factorize the inner-product tensor of one triple: the :func:`_factorize_table`
    report of the one-triple table, titled ``wigner-eckart [side,kind]``.

    Its one check, ``p,q,r``, holds the reconstruction residual and the details
    ``reduced``, ``cg_order`` and, when r occurs, ``reduced_lstsq_gap``, the gap
    to a least-squares extraction that cross-checks the closed formula.
    ``system`` is used as the family kind's CG system (:func:`_cg_order`);
    passing the other order is the standard negative control on a
    noncommutative spec, and ``cg_order`` names the system used.  ``f_r`` is
    accepted and unused: the target's F is its corep's certified ``F``.
    """
    key = _cg_order(fam.kind, phis.corep.label, fam.corep.label)
    title = f"wigner-eckart [{fam.side},{fam.kind}]"
    return _factorize_table([([psis], [fam], [phis], gram, title)], {key: system}, tol)[0]


def _stacked_slices(dims: list[int]) -> list[slice]:
    """The rows of each block when blocks of these dimensions are stacked in order."""
    return [slice(end - dim, end) for dim, end in zip(dims, accumulate(dims))]


def _set_names(sets) -> list[str]:
    """Each set's irrep label, with its index among the sets of that irrep
    (``p2#1``) when the irrep has more than one."""
    labels = [bset.corep.label for bset in sets]
    return [label if labels.count(label) == 1 else f"{label}#{labels[:i].count(label)}"
            for i, label in enumerate(labels)]


def _reduced_pairs(reduced: np.ndarray) -> list[list[float]]:
    """Reduced elements as ``[re, im]`` pairs, signed zeros kept."""
    return np.ascontiguousarray(reduced, dtype=complex).view(float).reshape(-1, 2).tolist()


def _factorize_table(tables: list[tuple], systems: dict[tuple[str, str], CGSystem],
                     tol: float) -> list[Report]:
    """:func:`verify_wigner_eckart` of every triple of several tables, one report per
    table, from one :func:`_factorize_targets` call.

    A table is ``(psis, fams, phis, gram, title)``: targets ``psis[t]``,
    families ``fams[k]`` of one kind and sources ``phis[i]``, all on one
    carrier (else ``ValueError``) whose Gram matrix is ``gram``, and the
    report's title.  The tables
    share their targets' labels and dimensions.  ``systems`` holds the CG
    systems keyed by label pair in :func:`_cg_order`; each pair is put in its
    system's order before the call.
    A report has one check per triple, named ``p,q,r`` (see
    :func:`_set_names`), in source-major order, with details ``reduced``,
    ``cg_order`` and, when ``r`` occurs, ``reduced_lstsq_gap``; the targets of
    one pair that do not occur share one details dict.  The inner
    products of a table's targets, operators and sources come from one
    contraction.
    """
    # the closed form's (F^r)^{-1} / tr (F^r)^{-1} is I / tr F^r: F = I, certified on read
    targets = [(bset.corep.label, round(np.trace(bset.corep.F).real)) for bset in tables[0][0]]
    tmats, chosen, counts = [], [], []
    for psis, fams, phis, gram, _ in tables:
        if [(bset.corep.label, bset.corep.dim) for bset in psis] != targets:
            raise ValueError("tables factorized together must share their targets")
        _one_carrier([*psis, *fams, *phis])
        kind = fams[0].kind
        tensor = _inner_product_tensor(np.concatenate([bset.functions for bset in psis]),
                                       np.concatenate([fam.operators for fam in fams]),
                                       np.concatenate([bset.functions for bset in phis]), gram)
        src_rows = _stacked_slices([bset.corep.dim for bset in phis])
        fam_rows = _stacked_slices([fam.corep.dim for fam in fams])
        for i, k in product(range(len(phis)), range(len(fams))):
            p, q = phis[i].corep.label, fams[k].corep.label
            system = systems[_cg_order(kind, p, q)]
            tmats.append(_pair_matrix(tensor[:, fam_rows[k], src_rows[i]], system, kind))
            chosen.append(system)
        counts.append(len(phis) * len(fams))
    residuals, gaps, reduced, mults = _factorize_targets(tmats, chosen, targets)
    reports = []
    for (psis, fams, phis, _, title), rows in zip(tables, _stacked_slices(counts)):
        p_names, q_names, r_names = _set_names(phis), _set_names(fams), _set_names(psis)
        # one per pair, shared by every target of the pair that does not occur
        absents = [{"reduced": [], "cg_order": [system.p_label, system.q_label]}
                   for system in chosen[rows]]
        occurs = mults[rows].ravel().tolist()
        # the reduced elements of the targets that occur, in check order
        values = _reduced_pairs(reduced[rows][np.arange(reduced.shape[2]) < mults[rows, :, None]])
        details = [{"reduced": values[start:start + count], "cg_order": absent["cg_order"],
                    "reduced_lstsq_gap": gap} if count else absent
                   for absent, start, count, gap
                   in zip((absent for absent in absents for _ in psis),
                          accumulate(occurs, initial=0), occurs, gaps[rows].ravel().tolist())]
        report = Report(title)
        report.extend([f"{p},{q},{r}" for p, q in product(p_names, q_names) for r in r_names],
                      residuals[rows], tol * fams[0].algebra.magnitude ** 2, details)
        reports.append(report)
    return reports
