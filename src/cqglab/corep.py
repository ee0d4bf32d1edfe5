"""Corepresentations by matrix coefficients.

A corepresentation of dimension ``d`` is stored as a ``(d, d, n)`` complex
array ``coeffs`` whose slice ``coeffs[j, k]`` is the coefficient vector of the
matrix coefficient ``pi_jk`` in the algebra.  The coaction it encodes is
``pi(v_j) = sum_k v_k (x) pi_kj``, so the same array doubles as the coaction
tensor of the comodule it carries.

The defining identities::

    coproduct(pi_jk) = sum_l pi_jl (x) pi_lk        (comodule axiom)
    eps(pi_jk) = delta_jk

and, for unitary corepresentations in an orthonormal basis::

    S(pi_jk) = pi_kj^*
    sum_l pi_lj^* pi_lk = delta_jk 1
    sum_l pi_jl pi_kl^* = delta_jk 1
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _freeze, _same_spec
from .errors import (DecompositionStall, DimensionMismatch, MultiplicityMismatch, NoF,
                     NonIntegerMultiplicity, PositivityFailure, SingularC)
from .haar import _positivity
from .report import Report

__all__ = [
    "Corepresentation",
    "identity_corep",
    "verify_corep",
    "check_unitary",
    "morphism_space",
    "are_equivalent",
    "is_irreducible",
    "doubly_contragredient",
    "conjugate_corep",
    "verify_orthogonality",
    "invariant_gram",
    "unitarize",
    "decompose_comodule",
    "IrrepTable",
    "irrep_table",
]

# relative singular-value cut for the rank of every intertwiner space and of the
# family space: below it lies roundoff
RANK_RCOND = 1e-9
CLUSTER_TOL = 1e-8  # relative eigenvalue gap and off-scalar bound of the eigensplit _split


@dataclass(frozen=True, eq=False)
class Corepresentation:
    """Matrix coefficients of a right coaction.  Its certificates are reports
    (:func:`verify_corep`, :func:`check_unitary`, :func:`is_irreducible`) and
    :attr:`F`, all read off the coefficients."""

    algebra: HopfAlgebraSpec
    coeffs: np.ndarray  # (d, d, n), a read-only copy
    label: str = ""

    def __post_init__(self) -> None:
        _freeze(self, "coeffs")
        shape = self.coeffs.shape
        if len(shape) != 3 or shape[0] != shape[1] or shape[2] != self.algebra.dim:
            raise DimensionMismatch(
                f"corep coefficients must be (d, d, {self.algebra.dim}), got {shape}")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    # cached: the coefficients are read-only, so the certificate cannot go stale
    @cached_property
    def F(self) -> np.ndarray:
        """The intertwiner ``F pi = pi'' F`` to the doubly contragredient partner
        (read-only).  A CQG spec has ``S^2 = id``, so ``pi'' = pi`` and ``F = I``:
        Hermitian positive definite with ``tr F = tr F^{-1}``.  The first read
        certifies ``|S^2(pi) - pi|`` against ``1e-9`` times the spec's magnitude
        and raises ``NoF`` above it, on every read."""
        residual = float(np.abs(doubly_contragredient(self).coeffs - self.coeffs).max())
        if residual > 1e-9 * self.algebra.magnitude:
            raise NoF(f"S^2 moves the matrix coefficients of {self.label!r} (residual "
                      f"{residual:.2e}); F is defined here only for S^2 = id")
        f = np.eye(self.dim, dtype=complex)
        f.setflags(write=False)
        return f

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """The comodule and unitarity certificate residuals by check name
        (:func:`_corep_residuals`), read-only."""
        return MappingProxyType(_corep_residuals([self])[0])

    def character(self) -> np.ndarray:
        """The character ``sum_j pi_jj`` as its ``(n,)`` coefficient vector."""
        return self.coeffs.trace()

    def star_coeffs(self) -> np.ndarray:
        """Entrywise star: coefficients of ``pi_jk^*``."""
        return np.conj(self.coeffs) @ self.algebra.star

    def antipode_coeffs(self) -> np.ndarray:
        """Entrywise antipode: coefficients of ``S(pi_jk)``."""
        return self.coeffs @ self.algebra.antipode


def identity_corep(alg: HopfAlgebraSpec) -> Corepresentation:
    """The one-dimensional corepresentation with sole coefficient ``1``."""
    return Corepresentation(alg, alg.unit.reshape(1, 1, -1), label="identity")


# report title and check names of the comodule and unitarity certificates
_CERTIFICATES = {
    "comodule": ("corep axioms", ("coproduct splits", "counit is identity")),
    "unitarity": ("unitarity",
                  ("antipode flips to star", "columns orthonormal", "rows orthonormal"))}


def verify_corep(pi: Corepresentation, tol: float = 1e-9) -> Report:
    """Residuals of the comodule identities."""
    return _certificate(pi, pi.residuals, "comodule", tol)


def check_unitary(pi: Corepresentation, tol: float = 1e-9) -> Report:
    """Residuals of the three unitarity identities."""
    return _certificate(pi, pi.residuals, "unitarity", tol)


def _certificate(pi: Corepresentation, residuals: Mapping[str, float], which: str,
                 tol: float) -> Report:
    """The ``which`` certificate of ``pi`` from its residuals."""
    title, names = _CERTIFICATES[which]
    report = Report(f"{title} [{pi.label}]", meta={"tol": tol})
    report.extend(names, [residuals[name] for name in names], tol * pi.algebra.magnitude)
    return report


def _corep_residuals(coreps: list[Corepresentation]) -> list[dict[str, float]]:
    """Each corep's certificate residuals by check name, in one stacked pass per
    dimension class.  ``legs(x, y)`` is ``sum_l x_jl (x) y_lk`` and
    ``star[c, j, l]`` is ``pi_lj^*``."""
    out: list[dict[str, float]] = [{} for _ in coreps]
    for d, (idx, coeffs) in _dim_classes(coreps).items():
        alg = coreps[idx[0]].algebra
        n, mult = alg.dim, alg.mult.reshape(-1, alg.dim)
        star = (np.conj(coeffs) @ alg.star).swapaxes(1, 2)
        one = np.eye(d)[:, :, None] * alg.unit

        def legs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
            return np.einsum("cjla,clkb->cjkab", x, y).reshape(len(idx), d, d, n * n)

        gaps = {"coproduct splits": coeffs @ alg.comult.reshape(n, -1) - legs(coeffs, coeffs),
                "counit is identity": coeffs @ alg.counit - np.eye(d),
                "antipode flips to star": coeffs @ alg.antipode - star,
                "columns orthonormal": legs(star, coeffs) @ mult - one,
                "rows orthonormal": legs(coeffs, star) @ mult - one}
        for name, gap in gaps.items():
            for i, value in zip(idx, np.abs(gap).reshape(len(idx), -1).max(axis=1).tolist()):
                out[i][name] = value
    return out


def _range_basis(mats: np.ndarray, rcond: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormal bases of the column spaces of a stack of square matrices.

    Returns the basis vectors as rows, matrix by matrix, and the rank of each:
    the left singular vectors of one batched SVD whose singular values are
    above ``rcond * max(sigma_max, 1)``.  The nonzero singular values of an
    idempotent are at least 1, so the cut lies far below its range.  The rows
    keep LAPACK's phases; :func:`_block_diagonalize` fixes those of what it returns.  A
    matrix whose Frobenius norm is at most ``rcond / 2`` has ``sigma_max`` below
    the cut, so rank 0, and skips the SVD; each other matrix's SVD does not
    depend on the rest of the stack, so the screen leaves every rank and vector
    bit-identical.
    """
    live = ~(np.linalg.norm(mats, axis=(1, 2)) <= rcond / 2)      # NaN goes to the SVD
    u, sigma, _ = np.linalg.svd(mats[live])
    keep = sigma > rcond * np.maximum(sigma[:, :1], 1.0)
    ranks = np.zeros(len(mats), dtype=int)
    ranks[live] = keep.sum(axis=1)
    return u.transpose(0, 2, 1)[keep], ranks.tolist()


def _phase_fixed(vecs: np.ndarray) -> np.ndarray:
    """Rows rotated so that the first entry above ``1e-12`` in modulus is real and positive."""
    lead = vecs[np.arange(len(vecs)), (np.abs(vecs) > 1e-12).argmax(axis=1)]
    return vecs * (np.abs(lead) / lead)[:, None]


def _block_diagonalize(bigs: np.ndarray, names: list[str], table: IrrepTable) -> list[tuple]:
    """Cut every comodule of a stack of one size into copies of the table's irreps.

    ``bigs[w]`` is the coaction tensor ``[c, c', m]`` of a comodule ``V_w``,
    named ``names[w]`` in errors.  The paper's projections ``P^r_lm = d_r (id (x)
    h)(V_w (pi^r_lm)^*)``, ``h`` the table's Haar functional, are the matrix units
    of every copy of ``pi^r`` in ``V_w``, so ``T -> T e_1`` maps ``Hom(pi^r, V_w)`` onto
    the range of ``P^r_11`` and ``T = [P^r_l1 v]_l`` lifts it back.  One
    product with :attr:`IrrepTable._projection_factor` gives every ``P^r_l1``;
    the idempotent ``P^r_11`` has rank ``tr P^r_11``, the count of ``pi^r`` in
    ``V_w``, and one :func:`_range_basis` call over the ``d_V x d_V`` maps
    ``P^r_11`` gives the ranges, whose ranks must be the counts.  Each range
    vector ``v`` is its own first column (``P^r_11 v = v``), so only ``l >= 1``
    is lifted.  The ``T_alpha / sqrt(tr F^r)``, in table order and phase-fixed
    once, are the columns ``(r, alpha, l)`` of ``C_w``: ``C_w^{-1} V_w C_w =
    sum_r (+) n^r pi^r``.  The ``C_w`` get one batched SVD for their
    conditioning, one batched inverse and one batched block residual.  Returns
    ``(C, C^{-1}, multiplicities, col_index, residual)`` per comodule.  Raises
    ``MultiplicityMismatch`` when a rank disagrees with its count, the spaces do
    not fill ``C`` or the residual exceeds ``1e-9`` times the magnitude, and
    ``SingularC`` for a singular ``C``.
    """
    alg = table.algebra
    count, size = bigs.shape[:2]
    factor, lifts, weights = table._projection_factor
    width = len(table)
    blocks = (bigs.reshape(-1, alg.dim) @ factor).reshape(count, size, size, -1)
    blocks = blocks.transpose(0, 3, 1, 2)                       # [w, column, c, c']
    firsts = blocks[:, lifts[:, 0]]                             # P^r_11: [w, r, c, c']
    counts = _integer_counts(np.trace(firsts, axis1=2, axis2=3))  # [w, r]
    vecs, ranks = _range_basis(firsts.reshape(-1, size, size), RANK_RCOND)
    ranks = np.reshape(ranks, (count, width))
    if (ranks != counts).any():
        w, r = np.argwhere(ranks != counts)[0]
        raise MultiplicityMismatch(f"{names[w]} -> {table.labels[r]}: intertwiner space has "
                                   f"dimension {ranks[w, r]}, characters give {counts[w, r]}")
    dims = table.dims()
    filled = counts @ dims
    if (filled != size).any():
        w = int((filled != size).argmax())
        raise MultiplicityMismatch(f"the table's irreps fill {filled[w]} of the "
                                   f"{size} columns of {names[w]}")
    # T_alpha[c, l] = (P^r_l1 v_alpha)[c] / sqrt(tr F^r), zero-padded to the largest d_r
    w_of, r_of = np.divmod(np.repeat(np.arange(count * width), ranks.ravel()), width)
    weight = weights[r_of]                                      # [vector, l]
    lifted = (blocks[w_of[:, None], lifts[r_of, 1:]] @ vecs[:, None, :, None])[..., 0]
    tmats = np.concatenate([vecs[:, None], lifted], axis=1) * weight[..., None]  # [vector, l, c]
    tmats = _phase_fixed(tmats.swapaxes(1, 2).reshape(len(r_of), -1)).reshape(
        len(r_of), size, -1)
    c_mats = tmats.swapaxes(1, 2)[weight > 0].reshape(count, size, size).swapaxes(1, 2)
    heads, occurring = [({}, []) for _ in range(count)], np.nonzero(counts)  # occurring only
    for w, r, mult in zip(*(idx.tolist() for idx in occurring), counts[occurring].tolist()):
        heads[w][0][table.labels[r]] = mult
        heads[w][1].extend((table.labels[r], alpha, ell)
                           for alpha in range(mult) for ell in range(dims[r]))
    sigma = np.linalg.svd(c_mats, compute_uv=False)
    singular = sigma[:, -1] <= 1e-10 * sigma[:, 0]
    if singular.any():
        raise SingularC(f"the assembled C of {names[singular.argmax()]} is numerically singular")
    c_invs = np.linalg.inv(c_mats)
    res = _block_residuals(c_mats, c_invs, bigs,
                           np.stack([_block_diagonal(mults, table) for mults, _ in heads]))
    if (res > 1e-9 * alg.magnitude).any():
        raise MultiplicityMismatch(f"block-diagonalization residual {res.max():.2e} of "
                                   f"{names[res.argmax()]} exceeds tolerance")
    return [(c_mat, c_inv, mults, col_index, residual) for (mults, col_index), c_mat, c_inv,
            residual in zip(heads, c_mats, c_invs, res.tolist())]


def _block_diagonal(multiplicities: dict[str, int], table: IrrepTable) -> np.ndarray:
    """``sum_r (+) n^r pi^r`` as coefficients ``[c, c', m]``, targets in the order given."""
    blocks = [table[label].coeffs for label, mult in multiplicities.items()
              for _ in range(mult)]
    size = sum(len(block) for block in blocks)
    out = np.zeros((size, size, table.algebra.dim), dtype=complex)
    start = 0
    for block in blocks:
        out[start:start + len(block), start:start + len(block)] = block
        start += len(block)
    return out


def _block_residuals(c_mats: np.ndarray, c_invs: np.ndarray, bigs: np.ndarray,
                     expected: np.ndarray) -> np.ndarray:
    """``max |C_w^{-1} big_w C_w - expected_w|`` for stacks of one size; ``bigs[w]`` and
    ``expected[w]`` are coefficient tensors ``[c, c', m]``."""
    conjugated = c_invs[:, None] @ bigs.transpose(0, 3, 1, 2) @ c_mats[:, None]
    return np.abs(conjugated - expected.transpose(0, 3, 1, 2)).max(axis=(1, 2, 3))


def morphism_space(pi_v: Corepresentation, pi_w: Corepresentation,
                   table: IrrepTable) -> list[np.ndarray]:
    """Basis of the intertwiner space ``{Phi : Phi pi_V = pi_W Phi}``.

    :func:`_block_diagonalize` cuts both, one call per size class:
    ``C_V^{-1} pi_V C_V = sum_r (+) m_r^V pi^r`` and likewise for ``W``.  By
    Schur the space is spanned by ``C_W[:, (r, alpha)] C_V^{-1}[(r, beta), :]``,
    one matrix per target ``r``, copy ``alpha`` in ``W`` and copy ``beta`` in
    ``V``; one QR orthonormalizes them.  Returns ``d_W x d_V`` matrices,
    orthonormal as vectors and phase-fixed as in :func:`_phase_fixed`.
    """
    _same_spec(pi_v, pi_w)  # equal specs of separate construction are allowed
    _same_spec(pi_v, table)
    pis, cuts = [pi_v, pi_w], {}
    for idx, coeffs in _dim_classes(pis).values():
        cuts.update(zip(idx, _block_diagonalize(coeffs, [pis[i].label for i in idx], table)))
    (_, c_v_inv, mults_v, index_v, _), (c_w, _, mults_w, index_w, _) = cuts[0], cuts[1]
    spans = []
    for label, mult in mults_w.items():
        dim = table[label].dim  # copy alpha of a target starts at column (label, alpha, 0)
        cols = [index_w.index((label, alpha, 0)) for alpha in range(mult)]
        rows = [index_v.index((label, beta, 0)) for beta in range(mults_v.get(label, 0))]
        spans += [c_w[:, a:a + dim] @ c_v_inv[b:b + dim] for a in cols for b in rows]
    if not spans:
        return []
    q_mat, _ = np.linalg.qr(np.reshape(spans, (len(spans), -1)).T)
    return list(_phase_fixed(q_mat.T).reshape(-1, pi_w.dim, pi_v.dim))


def are_equivalent(pi_v: Corepresentation, pi_w: Corepresentation, table: IrrepTable
                   ) -> np.ndarray | None:
    """An invertible intertwiner if the coreps are equivalent, else ``None``.

    Equivalent exactly when ``h((chi_V - chi_W)^* (chi_V - chi_W)) = sum_r (m_r^V -
    m_r^W)^2`` is 0, ``h`` the table's Haar functional.  Then
    :func:`_block_diagonalize` cuts both into the same table irreps in the same
    order, ``C_V^{-1} pi_V C_V = C_W^{-1} pi_W C_W``, and the witness
    ``Phi = C_W C_V^{-1}`` has ``Phi pi_V = pi_W Phi``.
    """
    _same_spec(pi_v, pi_w)
    _same_spec(pi_v, table)
    chi = pi_v.character() - pi_w.character()
    if _integer_counts(_character_grams(chi[None], table.haar)[0])[0, 0]:
        return None
    (_, c_v_inv, *_), (c_w, *_) = _block_diagonalize(
        np.stack([pi_v.coeffs, pi_w.coeffs]), [pi_v.label, pi_w.label], table)
    return c_w @ c_v_inv


def is_irreducible(pi: Corepresentation, h: LinearFunctional) -> bool:
    """Whether ``h(chi^* chi) = sum_r m_r^2`` is 1, the character certificate of
    :func:`irrep_table`."""
    return bool(_integer_counts(_character_grams(pi.character()[None], h)[0])[0, 0] == 1)


def doubly_contragredient(pi: Corepresentation) -> Corepresentation:
    """Entrywise ``S^2``; equals ``pi`` itself whenever ``S^2 = id``."""
    s2 = pi.algebra.antipode @ pi.algebra.antipode
    return Corepresentation(pi.algebra, pi.coeffs @ s2, label=f"{pi.label}++")


def conjugate_corep(pi: Corepresentation) -> Corepresentation:
    """Entrywise star."""
    return Corepresentation(pi.algebra, pi.star_coeffs(), label=f"{pi.label}bar")


def verify_orthogonality(pi_p: Corepresentation, pi_q: Corepresentation,
                         h: LinearFunctional, tol: float = 1e-10) -> Report:
    """Generalized Schur orthogonality of matrix coefficients: the one-pair call of
    :func:`_schur_report`."""
    same = pi_p is pi_q or (
        pi_p.dim == pi_q.dim and np.array_equal(pi_p.coeffs, pi_q.coeffs))
    return _schur_report([pi_p] if same else [pi_p, pi_q], [(0, 0 if same else 1)], h, tol,
                         f"schur orthogonality [{pi_p.label} vs {pi_q.label}]")


def _schur_report(coreps: list[Corepresentation], pairs: list[tuple[int, int]],
                  h: LinearFunctional, tol: float, title: str | None = None) -> Report:
    """Schur orthogonality of the listed pairs of positions ``(p, q)``, read off two Grams.

    With the matrix coefficients as the rows of ``U`` and ``H = h.pair``, the
    ``(p, q)`` blocks of ``G = U H S(U)^T`` and ``G' = S(U) H U^T`` vanish for
    ``p != q`` (two equivalent coreps raise ``ValueError``, read off the
    character Gram).  For ``p = q`` the paper's values are ``delta_jn F_mk / tr F``
    and ``delta_jn (F^{-1})_mk / tr(F^{-1})``; both read the certified ``F = I``.
    Without a ``title`` the report is the table's, each check named ``p vs q: <identity>``.
    """
    alg = h.algebra
    rows = np.concatenate([pi.coeffs.reshape(-1, alg.dim) for pi in coreps])
    antipodes = rows @ alg.antipode
    grams = (rows @ h.pair @ antipodes.T, antipodes @ h.pair @ rows.T)
    chars = _character_grams(np.array([pi.character() for pi in coreps]), h)[0]
    starts = np.cumsum([0] + [pi.dim ** 2 for pi in coreps]).tolist()
    checks, residuals = [], []
    for p, q in pairs:
        pi_p, pi_q, d = coreps[p], coreps[q], coreps[p].dim
        if p != q:
            if abs(chars[p, q]) > 0.5:
                raise ValueError("orthogonality formulas need identical representatives; "
                                 f"{pi_p.label!r} and {pi_q.label!r} are equivalent but not equal")
            names, expected = ("h(pi S(pi')) = 0", "h(S(pi) pi') = 0"), 0.0
        else:
            names = ("h(pi S(pi)) = d_jn F_mk/trF", "h(S(pi) pi) = d_jn Finv_mk/trFinv")
            # delta_jn F_mk / tr F at [(j, k), (m, n)]; F = I = F^{-1} serves both
            f = pi_p.F
            expected = np.multiply.outer(np.eye(d), f / np.trace(f)).transpose(
                0, 3, 2, 1).reshape(d * d, -1)
        for name, gram in zip(names, grams):
            block = gram[starts[p]:starts[p + 1], starts[q]:starts[q + 1]]
            checks.append(("" if title else f"{pi_p.label} vs {pi_q.label}: ") + name)
            residuals.append(np.abs(block - expected).max())
    report = Report(title or "schur orthogonality [table]", meta={"tol": tol})
    report.extend(checks, residuals, tol * alg.magnitude)
    return report


def _integer_counts(values) -> np.ndarray:
    """Round character pairings ``h(chi_V chi_p^*)`` to the multiplicities they count.

    Raises ``NonIntegerMultiplicity`` on the first value farther than ``1e-8``
    from a nonnegative integer.
    """
    values = np.asarray(values, dtype=complex)
    nearest = np.round(values.real)
    bad = (np.abs(values - nearest) > 1e-8) | (nearest < 0)
    if bad.any():
        value = values.flat[np.flatnonzero(bad)[0]]
        raise NonIntegerMultiplicity(
            f"h(chi_V chi_p^*) = {value} is not a nonnegative integer")
    return nearest.astype(int)


def _character_grams(chars: np.ndarray, h: LinearFunctional) -> tuple[np.ndarray, np.ndarray]:
    """``h(chi_p^* chi_q)`` and ``h(chi_q chi_p^*)`` as ``[p, q]``, for the rows of ``chars``."""
    stars = np.conj(chars) @ h.algebra.star
    return stars @ h.pair @ chars.T, stars @ h.pair.T @ chars.T


def _characters(table: IrrepTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's characters ``chi_r`` and their stars ``chi_r^*``, as rows ``[r, m]``."""
    chars = table.characters
    return chars, np.conj(chars) @ table.algebra.star


# ---------------------------------------------------------------------------
# invariant inner products, unitarization, decomposition
# ---------------------------------------------------------------------------

def invariant_gram(pi: Corepresentation, h: LinearFunctional) -> np.ndarray:
    """Haar-averaged inner product making ``pi`` unitary: ``G = h(pi^* pi)``.

    ``G[j, k] = sum_l h(pi_lj^* pi_lk)``; reduces to the identity when ``pi``
    is already unitary.
    """
    return np.tensordot(pi.star_coeffs() @ h.pair, pi.coeffs, axes=([0, 2], [0, 2]))


def unitarize(pi: Corepresentation, gram: np.ndarray) -> tuple[Corepresentation, np.ndarray]:
    """An equivalent unitary corepresentation plus the change of basis used.

    ``gram`` is an invariant inner product on the carrier, such as
    :func:`invariant_gram`.  The new basis is ``w = v @ T`` with ``T = L^{-H}``
    from the Cholesky factor ``gram = L L^H``, and the returned coefficients
    are ``T^{-1} pi T = T^H gram pi T``.
    """
    gram = (gram + gram.conj().T) / 2.0
    t_mat = _gram_basis(gram)
    return _restrict_corep(pi, t_mat, gram, label=f"{pi.label}~u"), t_mat


def _gram_basis(gram: np.ndarray) -> np.ndarray:
    """``T = L^{-H}`` from the Cholesky factor ``L L^H`` of the Hermitian part of
    ``gram``: its columns are orthonormal for ``<x, y> = x^H gram y``.  Raises
    ``PositivityFailure`` when that part is not positive definite."""
    try:
        chol = np.linalg.cholesky((gram + gram.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise PositivityFailure("carrier inner product is not positive definite") from exc
    return np.linalg.inv(chol.conj()).T


def _restrict(vecs: np.ndarray, basis: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """Coordinates ``vecs @ (basis^H gram)^T`` of carrier vectors ``(..., d)`` in the
    gram-orthonormal columns of ``basis``, as one matrix product, and how far
    ``vecs`` lie outside ``span(basis)`` (0 when inside)."""
    flat = vecs.reshape(-1, vecs.shape[-1])
    coords = flat @ (basis.conj().T @ gram).T
    escape = float(np.abs(coords @ basis.T - flat).max(initial=0.0))
    return coords.reshape(*vecs.shape[:-1], -1), escape


def _lift(pi: Corepresentation, basis: np.ndarray) -> np.ndarray:
    """``pi basis`` as ``[j, m, b]``: the coefficient at ``a_m`` of ``(pi basis)_bj``."""
    return (basis.T @ pi.coeffs).transpose(1, 2, 0)


def _restrict_corep(pi: Corepresentation, basis: np.ndarray, gram: np.ndarray,
                    label: str) -> Corepresentation:
    """Matrix coefficients of the coaction restricted to ``span(basis)``.

    ``basis`` columns must be gram-orthonormal and span an invariant subspace;
    the restricted coefficients ``rho = basis^H gram pi basis`` are the
    coordinates of :func:`_restrict`.
    """
    coords = _restrict(_lift(pi, basis), basis, gram)[0]
    return Corepresentation(pi.algebra, coords.transpose(2, 0, 1), label=label)


def _split(pi: Corepresentation, gram: np.ndarray, ops
           ) -> list[tuple[np.ndarray, Corepresentation]]:
    """Split the carrier into invariant subspaces, each with its restricted corep.

    The self-adjoint parts and then the skew parts ``P_0, P_1, ...`` of the
    commutant elements ``ops`` are combined with the fixed weights ``cos(1),
    cos(2), ...`` into one self-adjoint ``M = sum_f cos(f + 1) P_f``,
    compressed to the :func:`_gram_basis` of the whole carrier, and one
    ``eigh`` of ``M`` cuts the carrier at the gaps between its eigenvalue
    clusters.  A piece is certified when every part compresses to a scalar on
    it (``basis^H gram op basis`` for its gram-orthonormal ``basis``),
    entrywise within ``CLUSTER_TOL`` times the largest compressed entry, at
    least 1.  A piece that fails, because eigenvalues of ``M`` from different
    irreducibles collide, is cut again by the first part that is not scalar on
    it (``DecompositionStall`` if that part does not cut), and its pieces are
    certified in turn.  A certified piece is irreducible if the ``ops`` span
    the commutant.

    Returns ``(basis, rho)`` per piece, ``rho = basis^H gram pi basis`` the
    restricted corep.  Every ``rho`` is a diagonal block of one conjugation of
    ``pi`` into the concatenated piece basis, whose off-diagonal blocks are the
    invariance residual (``DecompositionStall`` above ``1e-7`` times the
    spec's magnitude).  ``gram`` must be Hermitian.
    """
    _, min_eig, floor = _positivity(gram)
    if min_eig <= floor:
        raise PositivityFailure(f"invariant inner product of {pi.label!r} is not "
                                f"positive definite (min eig {min_eig:.2e})")
    ops = np.asarray(ops)

    def cut(basis: np.ndarray, mixed: np.ndarray, refining: bool) -> list[np.ndarray]:
        eigvals, eigvecs = np.linalg.eigh(mixed)
        spread = eigvals[-1] - eigvals[0]
        ends = np.flatnonzero(np.diff(eigvals) > CLUSTER_TOL * max(1.0, spread)) + 1
        if refining and not ends.size:
            raise DecompositionStall("a commutant part that is not scalar on a piece "
                                     "does not cut it")
        out = []
        for vecs in np.split(basis @ eigvecs, ends, axis=1):
            if vecs.shape[1] == 1:  # every part is scalar on a line
                out.append(vecs)
                continue
            comps = (vecs.conj().T @ gram) @ ops @ vecs
            adj = comps.conj().swapaxes(1, 2)
            parts = np.concatenate([(comps + adj) / 2.0, (comps - adj) / 2j])
            scalars = np.trace(parts, axis1=1, axis2=2) / vecs.shape[1]
            off = np.abs(parts - scalars[:, None, None] * np.eye(vecs.shape[1])).max(axis=(1, 2))
            bad = off > CLUSTER_TOL * max(1.0, float(np.abs(comps).max()))
            out += cut(vecs, parts[bad.argmax()], True) if bad.any() else [vecs]
        return out

    # sum_f cos(f + 1) P_f = X + X^H with X = sum_j (cos(j + 1) - i cos(k + j + 1)) op_j / 2
    weights = np.cos(np.arange(1.0, 2 * len(ops) + 1)).reshape(2, -1)
    start = _gram_basis(gram)
    mixed = (start.conj().T @ gram) @ np.tensordot(
        (weights[0] - 1j * weights[1]) / 2.0, ops, axes=1) @ start
    pieces = cut(start, mixed + mixed.conj().T, False)
    basis = np.hstack(pieces)
    coords, escape = _restrict(_lift(pi, basis), basis, gram)
    rho = coords.transpose(2, 0, 1)
    sizes = [piece.shape[1] for piece in pieces]
    owner = np.repeat(np.arange(len(pieces)), sizes)
    worst = max(escape, float(np.abs(rho[owner[:, None] != owner]).max(initial=0.0)))
    bound = 1e-7 * pi.algebra.magnitude
    if worst > bound:
        raise DecompositionStall(f"a commutant eigenspace is not invariant "
                                 f"(residual {worst:.1e} > {bound:.1e})")
    ends = np.cumsum(sizes).tolist()
    return [(piece, Corepresentation(pi.algebra, rho[end - size:end, end - size:end],
                                     label=f"{pi.label}|{size}d"))
            for piece, size, end in zip(pieces, sizes, ends)]


def decompose_comodule(pi: Corepresentation, table: IrrepTable
                       ) -> list[tuple[np.ndarray, Corepresentation]]:
    """Cut a comodule, unitary or not, into copies of the table's irreps: the
    one-comodule call of :func:`_block_diagonalize`.  Returns ``(basis, rho)`` per
    piece in table order: ``basis`` is the piece's ``(d, d_r)`` columns of ``C``,
    so ``pi basis = basis rho`` entrywise, and ``rho`` is the table's own irrep."""
    _same_spec(pi, table)
    c_mat, _, mults, _, _ = _block_diagonalize(pi.coeffs[None], [pi.label], table)[0]
    reps = [table[label] for label, mult in mults.items() for _ in range(mult)]
    return list(zip(np.split(c_mat, np.cumsum([rho.dim for rho in reps])[:-1], axis=1), reps))


# ---------------------------------------------------------------------------
# canonical irreducible table
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IrrepTable:
    """Canonical unitary irreducibles of a spec with stable labels and the Haar functional
    they were certified under: frozen, so what is cached from them cannot go stale."""

    algebra: HopfAlgebraSpec
    haar: LinearFunctional
    irreps: tuple[Corepresentation, ...]
    multiplicities: tuple[int, ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _same_spec(self.haar, self)
        object.__setattr__(self, "irreps", tuple(self.irreps))
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        object.__setattr__(self, "labels", tuple(self.labels)
                           or tuple(f"p{i}" for i in range(len(self.irreps))))

    def __iter__(self):
        return iter(self.irreps)

    def __len__(self) -> int:
        return len(self.irreps)

    def __getitem__(self, key: int | str) -> Corepresentation:
        if isinstance(key, str):
            return self.irreps[self.index_of(key)]
        return self.irreps[key]

    def index_of(self, label: str) -> int:
        if label in self.labels:
            return self.labels.index(label)
        if label == "trivial":
            return self.trivial_index()
        try:
            idx = int(label)
        except ValueError:
            raise KeyError(f"unknown irrep label {label!r}; have {self.labels}") from None
        if 0 <= idx < len(self.irreps):
            return idx
        raise KeyError(f"irrep index {idx} out of range")

    def trivial_index(self) -> int:
        for i, pi in enumerate(self.irreps):
            if _is_trivial(pi):
                return i
        raise KeyError("no trivial irrep in table")

    def dims(self) -> list[int]:
        return [pi.dim for pi in self.irreps]

    # derived once per table, on first use

    @cached_property
    def characters(self) -> np.ndarray:
        """The characters ``chi_r`` as rows ``[r, m]``."""
        return np.array([pi.character() for pi in self.irreps])

    @cached_property
    def residuals(self) -> list[dict[str, float]]:
        """:func:`_corep_residuals` of the irreps: their comodule and unitarity residuals."""
        return _corep_residuals(self.irreps)

    @cached_property
    def _peter_weyl(self):
        """The irreps' matrix coefficients as a basis of the algebra, with the structure
        maps carried into it (:class:`cqglab.tensor_ops._PeterWeyl`), built on first use."""
        from .tensor_ops import _PeterWeyl
        return _PeterWeyl(self)

    @cached_property
    def _cg_systems(self) -> Mapping:
        """Read-only CG systems of every ordered pair of the irreps, keyed by label pair:
        one :func:`cqglab.cg.solve_cg_systems` call, solved on first use."""
        from .cg import solve_cg_systems
        return MappingProxyType(solve_cg_systems(self.irreps, self.irreps, self))

    @cached_property
    def _projection_factor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only covectors of the paper's projections: ``W @ factor`` holds
        ``P^r_l1 = d_r (id (x) h)(W (pi^r_l1)^*)`` at column ``lifts[r, l]``, ``h``
        the table's :attr:`haar`.  Padded to the largest ``d_r``, ``weights[r, l]``
        is ``1 / sqrt(tr F^r)`` (the certified ``F``) for ``l < d_r`` and 0 beyond."""
        dims = np.array(self.dims())
        rows = np.concatenate([pi.dim * pi.star_coeffs()[:, 0]
                               for pi in self.irreps])                  # [column, m]
        inside = np.arange(dims.max()) < dims[:, None]
        lifts = np.cumsum(dims)[:, None] - dims[:, None] + np.where(
            inside, np.arange(dims.max()), 0)
        traces = np.array([np.trace(pi.F).real for pi in self.irreps])
        arrays = (self.haar.pair @ rows.T, lifts, inside / np.sqrt(traces)[:, None])
        for arr in arrays:
            arr.setflags(write=False)
        return arrays


def _dim_classes(coreps: list[Corepresentation]) -> dict[int, tuple[list[int], np.ndarray]]:
    """The corepresentations of each dimension, in order of first appearance: their
    positions and their coefficients stacked ``[count, d, d, n]``."""
    classes: dict[int, list[int]] = {}
    for i, pi in enumerate(coreps):
        classes.setdefault(pi.dim, []).append(i)
    return {dim: (idx, np.array([coreps[i].coeffs for i in idx]))
            for dim, idx in classes.items()}


def _is_trivial(pi: Corepresentation) -> bool:
    """Whether ``pi`` is the one-dimensional corep with sole coefficient ``1``."""
    return pi.dim == 1 and np.abs(pi.coeffs[0, 0] - pi.algebra.unit).max() < 1e-9


def _character_fingerprint(pi: Corepresentation) -> tuple:
    rounded = np.round(pi.character(), 9) + 0.0  # normalize -0.0
    return tuple((float(z.real), float(z.imag)) for z in rounded)


def irrep_table(alg: HopfAlgebraSpec, h: LinearFunctional, gram_right: np.ndarray,
                seed: int = 0) -> IrrepTable:
    """Decompose the right regular comodule and canonicalize the blocks.

    Returns one unitary representative per equivalence class, labelled
    ``p0, p1, ...`` in order: trivial first, then by (dimension, character
    fingerprint).  The left convolutions span the commutant of the regular
    comodule, so one :func:`_split` by them cuts it into irreducible pieces:
    one ``eigh`` of one fixed combination of them, and more only where two of
    its eigenvalues collide.  The pieces' coefficients are the diagonal blocks
    of the split's one conjugation of the regular corep into the pieces'
    basis, whose other blocks certify the pieces invariant.  Every class,
    multiplicity and irreducibility verdict is read off the pieces' character
    Gram ``h(chi_p^* chi_q) = sum_r m_r^p m_r^q``: each diagonal entry must be
    1, the certificate of :func:`is_irreducible` (``DecompositionStall``
    otherwise), a piece's class is the first piece it overlaps, and that first
    piece is the representative.  The table carries ``h`` as its :attr:`~IrrepTable.haar`.
    Deterministic: ``seed`` is accepted and unused.
    """
    from .regular import regular_corep

    reg = regular_corep(alg, "R")
    gram = (gram_right + gram_right.conj().T) / 2.0
    pieces = [rho for _, rho in _split(reg, gram, alg.comult.transpose(1, 2, 0))]
    overlaps = _integer_counts(_character_grams(
        np.array([piece.character() for piece in pieces]), h)[0])
    if (np.diag(overlaps) != 1).any():
        raise DecompositionStall(f"the commutant split left a reducible piece: "
                                 f"h(chi^* chi) = {np.diag(overlaps).tolist()}")
    # a piece's class is the first piece it overlaps; count the pieces at that first one
    counts = np.bincount(overlaps.argmax(axis=1)).tolist()
    classes = [(pieces[i], count) for i, count in enumerate(counts) if count]

    classes.sort(key=lambda item: (not _is_trivial(item[0]), item[0].dim,
                                   _character_fingerprint(item[0])))
    return IrrepTable(alg, h, tuple(Corepresentation(alg, rep.coeffs, f"p{i}")
                                    for i, (rep, _) in enumerate(classes)),
                      tuple(count for _, count in classes))
