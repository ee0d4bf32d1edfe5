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
together and renders each as one report: a check per triple whose target
occurs in the pair's CG system, and one selection-rule check per pair for the
targets that do not; :func:`verify_wigner_eckart` is its one-triple call.
The inputs of one table live on one carrier, A or a coideal B, whose Gram
matrix is passed (the identity in B's orthonormal basis).
"""

from __future__ import annotations

from itertools import accumulate, islice, product

import numpy as np

from .cg import CGSystem, _padded_blocks, _rule_details, _selection_rules
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
    """``T[l, k, j] = (psi_l, Q_k(phi_j))`` for coefficient rows and a Gram matrix.

    Matrix-vector products ``Q_k phi_j``, then one dot product per entry: each entry
    is computed alone, so a table's entries equal a one-triple call's bit for bit.
    """
    acted = np.matmul(ops[:, None], phis[:, :, None])[..., 0]                # [k, j, a]
    left = np.matmul(np.conj(psis)[:, None], gram)                          # [l, 1, b]
    return np.matmul(left[:, None, None], acted[..., None])[..., 0, 0]


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
                       targets: list[tuple[str, int]]) -> tuple[np.ndarray, ...]:
    """Factorize many pairs ``(p, q)`` against every target at once.

    ``tmats[i]`` is pair ``i``'s :func:`_pair_matrix` for its CG system
    ``systems[i]``: rows ``(r, l)`` stacked in the order of ``targets``, pairs
    ``(r_label, d_r)``, and columns in the system's pair order, so pairs of
    both kinds go in one call.  Returns the reconstruction residual of every
    pair and target, ``[pair, target]``, then the targets that occur, read off
    the systems' certified multiplicities: the pair and target index of each,
    sorted, its multiplicity, its least-squares gap and its reduced elements,
    zero-padded to the largest multiplicity.  Only those targets are factorized,
    those of the pairs of one system size together, their rows and CG blocks
    zero-padded to the largest target dimension and multiplicity: ``X = T C``
    at the target's columns, traced over ``(u, v)`` and divided by ``d_r``,
    gives the reduced elements ``Z``, ``T - Z C^{-1}`` the residual, and a
    batched pseudo-inverse of the inverse-CG designs the least-squares
    cross-check, each gap the largest over the target's multiplicity.  A target
    that does not occur has no CG block, so its residual is ``max |T_r|``.
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
    width = max([1, *(m for system in systems for m in system.multiplicities.values())])
    found = []
    for members in classes.values():
        stacked = np.stack([tmats[i] for i in members])                      # [w, (r, l), pair]
        residuals[members] = np.maximum.reduceat(np.abs(stacked).max(axis=2), firsts, axis=1)
        fwd, inv, (w, r, mult) = _padded_blocks([systems[i] for i in members], names, dims)
        block = stacked[w[:, None], rows[r]] * valid[r, :, None]              # [e, l, pair]
        red = np.trace(block[:, None] @ fwd, axis1=2, axis2=3) / np.array(dims)[r, None]
        size = d_max * block.shape[2]
        design = inv.reshape(len(w), inv.shape[1], size)                      # [e, a, (l, pair)]
        flat = block.reshape(len(w), size)
        lsq = (np.linalg.pinv(design.swapaxes(1, 2)) @ flat[..., None])[..., 0]
        gap = np.abs(lsq - red).max(axis=1, initial=0.0,
                                    where=np.arange(lsq.shape[1]) < mult[:, None])
        at = np.asarray(members)[w]
        residuals[at, r] = np.abs(flat - (red[:, None] @ design)[:, 0]).max(axis=1)
        found.append((at, r, mult, gap, np.pad(red, ((0, 0), (0, width - red.shape[1])))))
    at, r, mult, gap, red = map(np.concatenate, zip(*found))
    order = np.lexsort((r, at))
    return residuals, at[order], r[order], mult[order], gap[order], red[order]


def verify_wigner_eckart(psis: BasisFunctionSet, fam: TensorOperatorFamily,
                         phis: BasisFunctionSet, system: CGSystem, f_r: np.ndarray,
                         gram: np.ndarray, tol: float = 1e-9) -> Report:
    """Factorize the inner-product tensor of one triple: the :func:`_factorize_table`
    report of the one-triple table, titled ``wigner-eckart [side,kind]``.

    Its one check holds the reconstruction residual.  When r occurs in the
    product, it is ``p,q,r`` with details ``reduced``, ``cg_order`` and
    ``reduced_lstsq_gap``, the gap to a least-squares extraction that
    cross-checks the closed formula.  When r does not, it is the selection rule
    ``p,q selection rule``: the residual is ``max |T|``, which the theorem makes
    zero, with details ``absent`` (1), ``cg_order`` and, when it fails, ``worst`` (r).
    ``system`` is used as the family kind's CG system (:func:`_cg_order`);
    passing the other order is the standard negative control on a
    noncommutative spec, and ``cg_order`` names the system used.  ``f_r`` is
    accepted and unused: the target's F is ``I`` (:func:`cqglab.haar.solve_haar`).
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
    A report's checks run over the pairs ``(p, q)`` in source-major order (names
    from :func:`_set_names`).  Each target r that occurs in the pair's CG system
    has its own check ``p,q,r``, in target order, with details ``reduced``,
    ``cg_order`` and ``reduced_lstsq_gap``.  The targets that do not occur follow
    as one check ``p,q selection rule``, emitted when there is one: its
    residual is the largest of their residuals ``max |T_r|``, bit for bit, and
    its details are ``absent`` (how many), ``cg_order`` and, only when the rule
    fails, ``worst`` (the first target of that residual; a passing rule's
    residuals are rounding).  The inner products of a table's targets,
    operators and sources come from one contraction.
    """
    # the closed form's (F^r)^{-1} / tr (F^r)^{-1} is I / d_r: F = I, the Kac premise
    targets = [(bset.corep.label, bset.corep.dim) for bset in tables[0][0]]
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
    residuals, at, found_r, mults, gaps, reduced = _factorize_targets(tmats, chosen, targets)
    reports = []
    for (psis, fams, phis, _, title), rows in zip(tables, _stacked_slices(counts)):
        r_names = _set_names(psis)
        pairs = [f"{p},{q}" for p, q in product(_set_names(phis), _set_names(fams))]
        orders = [[system.p_label, system.q_label] for system in chosen[rows]]
        # the table's occurring targets, in check order: multiplicities, gaps, reduced elements
        lo, hi = np.searchsorted(at, [rows.start, rows.stop])
        occurs = np.zeros((len(pairs), len(psis)), dtype=bool)
        occurs[at[lo:hi] - rows.start, found_r[lo:hi]] = True
        found = zip(mults[lo:hi].tolist(), gaps[lo:hi].tolist())
        values = iter(_reduced_pairs(reduced[lo:hi][np.arange(reduced.shape[1])
                                                    < mults[lo:hi, None]]))
        absent, worst, rule = _selection_rules(residuals[rows], occurs)
        t = tol * fams[0].algebra.magnitude ** 2
        # per pair, each target that occurs, then the selection rule when one does not
        w, r = np.nonzero(np.column_stack([occurs, absent > 0]))
        names, details = [], []
        for pair, target in zip(w.tolist(), r.tolist()):
            if target < len(psis):
                count, gap = next(found)
                names.append(f"{pairs[pair]},{r_names[target]}")
                details.append({"reduced": list(islice(values, count)),
                                "cg_order": orders[pair], "reduced_lstsq_gap": gap})
            else:
                names.append(f"{pairs[pair]} selection rule")
                details.append({**_rule_details(int(absent[pair]), r_names[worst[pair]],
                                                rule[pair], t), "cg_order": orders[pair]})
        report = Report(title)
        report.extend(names, np.column_stack([residuals[rows], rule])[w, r], t, details)
        reports.append(report)
    return reports
