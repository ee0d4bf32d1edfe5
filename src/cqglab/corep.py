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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _same_spec
from .errors import (DecompositionStall, DimensionMismatch, NoF, NonIntegerMultiplicity,
                     NotIrreducible, PositivityFailure)
from .haar import _positivity, solve_haar
from .report import Report

__all__ = [
    "Corepresentation",
    "identity_corep",
    "verify_corep",
    "check_unitary",
    "intertwiners",
    "morphism_space",
    "are_equivalent",
    "is_irreducible",
    "doubly_contragredient",
    "conjugate_corep",
    "compute_F",
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


@dataclass
class Corepresentation:
    """Matrix coefficients of a right coaction, with verification flags."""

    algebra: HopfAlgebraSpec
    coeffs: np.ndarray  # (d, d, n)
    label: str = ""
    verified: bool | None = None
    unitary: bool | None = None
    irreducible: bool | None = None
    F: np.ndarray | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != self.algebra.dim:
            raise DimensionMismatch(
                f"corep coefficients must be (d, d, {self.algebra.dim}), got {arr.shape}")
        self.coeffs = arr

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    def character(self) -> np.ndarray:
        """The character ``sum_j pi_jj`` as its ``(n,)`` coefficient vector."""
        return self.coeffs.trace()

    def star_coeffs(self) -> np.ndarray:
        """Entrywise star: coefficients of ``pi_jk^*``."""
        return np.einsum("jkm,mt->jkt", np.conj(self.coeffs), self.algebra.star)

    def antipode_coeffs(self) -> np.ndarray:
        """Entrywise antipode: coefficients of ``S(pi_jk)``."""
        return np.einsum("jkm,mt->jkt", self.coeffs, self.algebra.antipode)


def identity_corep(alg: HopfAlgebraSpec, label: str = "identity") -> Corepresentation:
    """The one-dimensional corepresentation with sole coefficient ``1``."""
    return Corepresentation(alg, alg.unit.reshape(1, 1, -1).copy(), label=label,
                            verified=True, unitary=True, irreducible=True,
                            F=np.array([[1.0 + 0j]]))


# report title, flag and check names of the comodule and unitarity certificates
_CERTIFICATES = {
    "comodule": ("corep axioms", "verified", ("coproduct splits", "counit is identity")),
    "unitarity": ("unitarity", "unitary",
                  ("antipode flips to star", "columns orthonormal", "rows orthonormal"))}


def verify_corep(pi: Corepresentation, tol: float = 1e-9) -> Report:
    """Residuals of the comodule identities; sets the ``verified`` flag."""
    return _certificate(pi, _corep_residuals([pi])[0], "comodule", tol)


def check_unitary(pi: Corepresentation, tol: float = 1e-9) -> Report:
    """Residuals of the three unitarity identities; sets the ``unitary`` flag."""
    return _certificate(pi, _corep_residuals([pi])[0], "unitarity", tol)


def _certificate(pi: Corepresentation, residuals: dict, which: str, tol: float) -> Report:
    """The ``which`` certificate of ``pi`` from its residuals; sets the matching flag."""
    title, flag, names = _CERTIFICATES[which]
    report = Report(f"{title} [{pi.label}]", meta={"tol": tol})
    report.extend(names, [residuals[name] for name in names], tol * pi.algebra.magnitude)
    setattr(pi, flag, report.passed)
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


def intertwiners(coact_v: np.ndarray, coact_w: np.ndarray, h: LinearFunctional
                 ) -> list[np.ndarray]:
    """Basis of ``Hom(V, W) = {Phi : Phi V = W Phi}`` as the range of the Haar average.

    ``coact_v`` (``d_V x d_V x n``) and ``coact_w`` (``d_W x d_W x n``) are in
    matrix-coefficient form, ``coact[j, k]`` being the coefficient vector of
    the ``(j, k)`` entry, and ``h`` is the Haar functional.  The averaging map
    ``P(Phi)[j,k] = sum_{l,m} h(W_jl S(V_mk)) Phi[l,m]`` is idempotent with
    range ``Hom(V, W)``, so the basis is the range of ``P``: its left singular
    vectors above the relative cut ``RANK_RCOND * max(sigma_max, 1)``
    (:func:`_range_basis`).  The nonzero singular values of ``P`` are at
    least 1, so the cut separates the range from roundoff by orders of
    magnitude.  Every solution space of the package is one of these:
    intertwiners, CG blocks, basis functions (``W = A``, from which the
    tensor-operator families are built), restricted basis functions
    (``W = B``) and restricted families (``W = End(B)``).  Returns
    ``d_W x d_V`` matrices, orthonormal as vectors and phase-fixed as in
    :func:`_phase_fixed`.  This is the one-source, one-target case of
    :func:`_stacked_intertwiners`.
    """
    return _stacked_intertwiners(coact_v[None], coact_w, h)[0]


def _stacked_intertwiners(coact_vs: np.ndarray, coact_ws: np.ndarray, h: LinearFunctional
                          ) -> list:
    """:func:`intertwiners` for every pair of a stack of sources and a stack of targets.

    ``coact_vs`` is ``count_v x d_V x d_V x n`` and ``coact_ws`` is
    ``count_w x d_W x d_W x n``, or a single ``d_W x d_W x n`` comodule.  The
    ``count_w * count_v`` averaging maps come from two matrix products and
    their ranges from one :func:`_range_basis` call.  Returns
    ``bases[w][v]``, the basis of ``Hom(V_v, W_w)``, or ``bases[v]`` when a
    single ``W`` is given.
    """
    single = coact_ws.ndim == 3
    coact_ws = coact_ws[None] if single else coact_ws
    alg = h.algebra
    count_v, dv = coact_vs.shape[:2]
    count_w, dw = coact_ws.shape[:2]
    n, size = alg.dim, dw * dv
    if size == 0:
        bases = [[[] for _ in range(count_v)] for _ in range(count_w)]
        return bases[0] if single else bases
    s_v = coact_vs.reshape(-1, n) @ alg.antipode                   # [(t, m, k), b]: S(V^t_mk)
    avg = coact_ws.reshape(-1, n) @ ((alg.mult @ h.covector) @ s_v.T)  # [(w, j, l), (t, m, k)]
    avg = avg.reshape(count_w, dw, dw, count_v, dv, dv).transpose(0, 3, 1, 5, 2, 4)
    vecs, ranks = _range_basis(avg.reshape(-1, size, size), RANK_RCOND)
    blocks = iter(vecs.reshape(-1, dw, dv))
    bases = [[list(islice(blocks, ranks[w * count_v + v])) for v in range(count_v)]
             for w in range(count_w)]
    return bases[0] if single else bases


def _range_basis(mats: np.ndarray, rcond: float) -> tuple[np.ndarray, list[int]]:
    """Orthonormal bases of the column spaces of a stack of square matrices.

    Returns the basis vectors as rows, matrix by matrix, and the rank of each:
    the left singular vectors of one batched SVD whose singular values are
    above ``rcond * max(sigma_max, 1)``.  The nonzero singular values of an
    idempotent are at least 1, so the cut lies far below its range.  The rows
    are phase-fixed by :func:`_phase_fixed`.
    """
    u, sigma, _ = np.linalg.svd(mats)
    keep = sigma > rcond * np.maximum(sigma[:, :1], 1.0)
    return _phase_fixed(u.transpose(0, 2, 1)[keep]), keep.sum(axis=1).tolist()


def _phase_fixed(vecs: np.ndarray) -> np.ndarray:
    """Rows rotated so that the first entry above ``1e-12`` in modulus is real and positive."""
    lead = vecs[np.arange(len(vecs)), (np.abs(vecs) > 1e-12).argmax(axis=1)]
    return vecs * (np.abs(lead) / lead)[:, None]


def morphism_space(pi_v: Corepresentation, pi_w: Corepresentation) -> list[np.ndarray]:
    """Basis of the intertwiner space ``{Phi : Phi pi_V = pi_W Phi}``.

    Solved by :func:`intertwiners` with the spec's Haar functional, so a spec
    with no Haar functional raises ``NoHaar``.  Returns a list of
    ``d_W x d_V`` matrices (orthonormal as vectors).
    """
    alg = _same_spec(pi_v, pi_w)  # equal specs of separate construction are allowed
    return intertwiners(pi_v.coeffs, pi_w.coeffs, solve_haar(alg))


def are_equivalent(pi_v: Corepresentation, pi_w: Corepresentation) -> np.ndarray | None:
    """An invertible intertwiner if the coreps are equivalent, else ``None``.

    Equivalent exactly when ``h((chi_V - chi_W)^* (chi_V - chi_W)) = sum_r (m_r^V -
    m_r^W)^2`` is 0.  The witness is ``Phi = sum B_W T B_V^H G_V`` over the
    :func:`decompose_comodule` pieces ``B_V`` of ``V``, each paired with an unused
    piece ``B_W`` of ``W`` with a nonzero intertwiner ``T`` (unique up to scale, by
    Schur); a piece with no partner raises ``DecompositionStall``.
    """
    h = solve_haar(_same_spec(pi_v, pi_w))
    chi = pi_v.character() - pi_w.character()
    if _integer_counts(_character_grams(chi[None], h)[0])[0, 0]:
        return None
    gram_v = invariant_gram(pi_v, h)
    gram_v = (gram_v + gram_v.conj().T) / 2.0
    pieces_w = decompose_comodule(pi_w, invariant_gram(pi_w, h))
    phi = np.zeros((pi_w.dim, pi_v.dim), dtype=complex)
    for basis_v, rho_v in decompose_comodule(pi_v, gram_v):
        homs = [morphism_space(rho_v, rho_w) for _, rho_w in pieces_w]
        k = next((k for k, hom in enumerate(homs) if hom), None)
        if k is None:
            raise DecompositionStall(f"a piece of {pi_v.label!r} has no partner in {pi_w.label!r}")
        phi += pieces_w.pop(k)[0] @ homs[k][0] @ basis_v.conj().T @ gram_v
    return phi


def is_irreducible(pi: Corepresentation) -> bool:
    flag = len(morphism_space(pi, pi)) == 1
    pi.irreducible = flag
    return flag


def doubly_contragredient(pi: Corepresentation) -> Corepresentation:
    """Entrywise ``S^2``; equals ``pi`` itself whenever ``S^2 = id``."""
    s2 = pi.algebra.antipode @ pi.algebra.antipode
    coeffs = np.einsum("jkm,mt->jkt", pi.coeffs, s2)
    return Corepresentation(pi.algebra, coeffs, label=f"{pi.label}++")


def conjugate_corep(pi: Corepresentation) -> Corepresentation:
    """Entrywise star."""
    return Corepresentation(pi.algebra, pi.star_coeffs(), label=f"{pi.label}bar")


def compute_F(pi: Corepresentation, tol: float = 1e-9) -> np.ndarray:
    """The intertwiner ``F pi = pi'' F`` to the doubly contragredient partner.

    Requires ``pi`` irreducible (the flag, else :func:`is_irreducible`).  A CQG
    spec has ``S^2 = id``, so ``pi'' = pi`` and by Schur ``F = I``: Hermitian
    positive definite with ``tr F = tr F^{-1}``.  Raises ``NoF`` when
    ``|S^2(pi) - pi|`` exceeds ``tol`` times the spec's magnitude.
    """
    if not (pi.irreducible or is_irreducible(pi)):
        raise NotIrreducible(f"corep {pi.label!r} is reducible; F needs an irreducible")
    residual = float(np.abs(doubly_contragredient(pi).coeffs - pi.coeffs).max())
    if residual > tol * pi.algebra.magnitude:
        raise NoF(f"S^2 moves the matrix coefficients of {pi.label!r} (residual "
                  f"{residual:.2e}); F is defined here only for S^2 = id")
    pi.F = np.eye(pi.dim, dtype=complex)
    return pi.F


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

    With the matrix coefficients as the rows of ``U`` and ``H = mult @ h``, the
    ``(p, q)`` blocks of ``G = U H S(U)^T`` and ``G' = S(U) H U^T`` vanish for
    ``p != q`` (two equivalent coreps raise ``ValueError``, read off the
    character Gram).  For ``p = q`` the paper's values ``delta_jn F_mk / tr F``
    and ``delta_jn (F^{-1})_mk / tr(F^{-1})`` are both ``delta_jn delta_mk / d``, as
    :func:`compute_F` certifies ``F = I``.  Without a ``title`` the report is the
    table's, each check named ``p vs q: <identity>``.
    """
    alg = h.algebra
    rows = np.concatenate([pi.coeffs.reshape(-1, alg.dim) for pi in coreps])
    antipodes, haar_pair = rows @ alg.antipode, alg.mult @ h.covector
    grams = (rows @ haar_pair @ antipodes.T, antipodes @ haar_pair @ rows.T)
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
            if pi_p.F is None:
                compute_F(pi_p)
            names = ("h(pi S(pi)) = d_jn F_mk/trF", "h(S(pi) pi) = d_jn Finv_mk/trFinv")
            # delta_jn delta_mk / d at [(j, k), (m, n)]
            expected = np.eye(d * d).reshape(d, d, d, d).swapaxes(2, 3).reshape(d * d, -1) / d
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
    haar_pair = h.algebra.mult @ h.covector  # [a, b] = h(a_a a_b)
    stars = np.conj(chars) @ h.algebra.star
    return stars @ haar_pair @ chars.T, stars @ haar_pair.T @ chars.T


# ---------------------------------------------------------------------------
# invariant inner products, unitarization, decomposition
# ---------------------------------------------------------------------------

def invariant_gram(pi: Corepresentation, h: LinearFunctional) -> np.ndarray:
    """Haar-averaged inner product making ``pi`` unitary: ``G = h(pi^* pi)``.

    ``G[j, k] = sum_l h(pi_lj^* pi_lk)``; reduces to the identity when ``pi``
    is already unitary.
    """
    H = np.einsum("abl,l->ab", pi.algebra.mult, h.covector)
    return np.einsum("lja,lkb,ab->jk", pi.star_coeffs(), pi.coeffs, H)


def unitarize(pi: Corepresentation, gram: np.ndarray | None = None,
              h: LinearFunctional | None = None) -> tuple[Corepresentation, np.ndarray]:
    """An equivalent unitary corepresentation plus the change of basis used.

    ``gram`` is the invariant inner product on the carrier; if omitted it is
    computed by Haar averaging (``h`` required).  The new basis is
    ``w = v @ T`` with ``T = L^{-H}`` from the Cholesky factor ``gram = L L^H``,
    and the returned coefficients are ``T^{-1} pi T = T^H gram pi T``.
    """
    if gram is None:
        if h is None:
            raise ValueError("unitarize needs either gram or the Haar functional")
        gram = invariant_gram(pi, h)
    gram = (gram + gram.conj().T) / 2.0
    t_mat = _gram_basis(gram)
    out = _restrict_corep(pi, t_mat, gram, label=f"{pi.label}~u")
    out.verified, out.irreducible = pi.verified, pi.irreducible
    return out, t_mat


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


def _invariance_residual(pi: Corepresentation, basis: np.ndarray, gram: np.ndarray) -> float:
    """How far ``pi`` maps ``span(basis)`` outside itself (0 when invariant)."""
    return _restrict(_lift(pi, basis), basis, gram)[1]


def _split(pi: Corepresentation, gram: np.ndarray, ops, cluster_tol: float = 1e-8
           ) -> list[np.ndarray]:
    """Split the carrier into invariant subspaces (gram-orthonormal columns).

    Scan position ``f = 2 op + part`` is the self-adjoint (part 0) or skew
    (part 1) part of the compression ``basis^H gram op basis`` of a commutant
    element ``op``.  The scan starts on the :func:`_gram_basis` of the whole
    carrier.  A subspace is cut by the eigenvalue clusters of its first part
    with two clusters, and each piece resumes the scan at ``f + 1``: every
    earlier part was scalar on the subspace, so it is scalar on the piece.
    A piece compresses its remaining ``ops`` in batches of 1, 2, 4, ...
    operators, one product each, and looks for the first cutting part of a
    batch with one ``eigvalsh`` call, so no operator is compressed twice on
    one piece and none past the cut; ``eigh`` runs only on the part that
    cuts.  A piece with only scalar parts is irreducible if the ``ops`` span
    the commutant.  If the carrier was cut, each final piece is certified
    invariant once (``DecompositionStall`` otherwise); the pieces span the
    carrier, so this certifies every cut.  ``gram`` must be Hermitian.
    """
    _, min_eig, floor = _positivity(gram)
    if min_eig <= floor:
        raise PositivityFailure(f"invariant inner product of {pi.label!r} is not "
                                f"positive definite (min eig {min_eig:.2e})")
    ops = np.asarray(ops)
    bound = 1e-7 * pi.algebra.magnitude

    def gaps(eigvals: np.ndarray) -> np.ndarray:
        spread = eigvals[..., -1] - eigvals[..., 0]
        return np.diff(eigvals) > cluster_tol * np.maximum(1.0, spread)[..., None]

    def split(basis: np.ndarray, start: int) -> list[np.ndarray]:
        if basis.shape[1] == 1:
            return [basis]
        left = basis.conj().T @ gram
        lo, size = start // 2, 1
        while lo < len(ops):
            comps = left @ (ops[lo:lo + size] @ basis)
            adj = comps.conj().swapaxes(1, 2)
            parts = np.stack([(comps + adj) / 2.0, (comps - adj) / 2j], axis=1)
            parts = parts.reshape(-1, *comps.shape[1:])
            first = max(start - 2 * lo, 0)  # skips part 0 when resuming on a skew part
            hits = gaps(np.linalg.eigvalsh(parts[first:])).any(axis=1)
            for f in (first + np.flatnonzero(hits)).tolist():
                eigvals, eigvecs = np.linalg.eigh(parts[f])
                cuts = np.flatnonzero(gaps(eigvals)) + 1
                if cuts.size:
                    return [piece for vecs in np.split(eigvecs, cuts, axis=1)
                            for piece in split(basis @ vecs, 2 * lo + f + 1)]
            lo, size = lo + size, 2 * size
        return [basis]

    pieces = split(_gram_basis(gram), 0)
    if len(pieces) > 1:
        worst = max(_invariance_residual(pi, piece, gram) for piece in pieces)
        if worst > bound:
            raise DecompositionStall(f"a commutant eigenspace is not invariant "
                                     f"(residual {worst:.1e} > {bound:.1e})")
    return pieces


def decompose_comodule(pi: Corepresentation, gram: np.ndarray
                       ) -> list[tuple[np.ndarray, Corepresentation]]:
    """Split a comodule into irreducible blocks by commutant eigensplitting.

    ``pi`` is the coaction tensor of the comodule (matrix-coefficient form)
    and ``gram`` an invariant inner product making it unitary.  Returns pairs
    ``(subspace basis as (d, d_block) columns in the carrier, irreducible
    block corepresentation in a gram-orthonormal basis)``, sorted by block
    dimension.  Deterministic.  Raises ``PositivityFailure`` when ``gram`` is
    not positive definite.
    """
    gram = (gram + gram.conj().T) / 2.0
    blocks = [(basis, _restrict_corep(pi, basis, gram, label=f"{pi.label}|{basis.shape[1]}d"))
              for basis in _split(pi, gram, morphism_space(pi, pi))]
    blocks.sort(key=lambda pair: pair[1].dim)
    return blocks


# ---------------------------------------------------------------------------
# canonical irreducible table
# ---------------------------------------------------------------------------

@dataclass
class IrrepTable:
    """Canonical unitary irreducibles of a spec with stable labels."""

    algebra: HopfAlgebraSpec
    irreps: list[Corepresentation]
    multiplicities: list[int]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.labels:
            self.labels = [f"p{i}" for i in range(len(self.irreps))]

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

    # derived once per table, on first use: a table is not edited after it is built

    @cached_property
    def characters(self) -> np.ndarray:
        """The characters ``chi_r`` as rows ``[r, m]``."""
        return np.array([pi.character() for pi in self.irreps])

    @cached_property
    def residuals(self) -> list[dict[str, float]]:
        """:func:`_corep_residuals` of the irreps: their comodule and unitarity residuals."""
        return _corep_residuals(self.irreps)

    @cached_property
    def dim_classes(self) -> dict[int, tuple[list[int], np.ndarray]]:
        """:func:`_dim_classes` of the irreps."""
        return _dim_classes(self.irreps)


def _dim_classes(coreps: list[Corepresentation]) -> dict[int, tuple[list[int], np.ndarray]]:
    """The corepresentations of each dimension, in order of first appearance: their
    positions and their coefficients stacked ``[count, d, d, n]``."""
    classes: dict[int, list[int]] = {}
    for i, pi in enumerate(coreps):
        classes.setdefault(pi.dim, []).append(i)
    return {dim: (idx, np.stack([coreps[i].coeffs for i in idx]))
            for dim, idx in classes.items()}


def _is_trivial(pi: Corepresentation) -> bool:
    """Whether ``pi`` is the one-dimensional corep with sole coefficient ``1``."""
    return pi.dim == 1 and np.abs(pi.coeffs[0, 0] - pi.algebra.unit).max() < 1e-9


def _character_fingerprint(pi: Corepresentation) -> tuple:
    rounded = np.round(pi.character(), 9) + 0.0  # normalize -0.0
    return tuple((float(z.real), float(z.imag)) for z in rounded)


def irrep_table(alg: HopfAlgebraSpec, h: LinearFunctional, gram_right: np.ndarray,
                seed: int = 0, tol: float = 1e-9) -> IrrepTable:
    """Decompose the right regular comodule and canonicalize the blocks.

    Returns one unitary representative per equivalence class, with its
    F-matrix computed, sorted trivial-first then by (dimension, character
    fingerprint).  The left convolutions span the commutant of the regular
    comodule, so one :func:`_split` by them cuts it into irreducible pieces.
    Every class, multiplicity and irreducibility verdict is read off the
    pieces' character Gram ``h(chi_p^* chi_q) = sum_r m_r^p m_r^q``, as in
    :func:`are_equivalent`: each diagonal entry must be 1 (the piece is
    irreducible, ``DecompositionStall`` otherwise), a piece's class is the
    first piece it overlaps, and that first piece is the representative.
    Deterministic: ``seed`` is accepted and unused.
    """
    from .regular import regular_corep

    reg = regular_corep(alg, "R")
    gram = (gram_right + gram_right.conj().T) / 2.0
    pieces = [_restrict_corep(reg, basis, gram, label="block")
              for basis in _split(reg, gram, alg.comult.transpose(1, 2, 0))]
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
    table = IrrepTable(alg, [rep for rep, _ in classes], [count for _, count in classes])
    for i, (rep, residuals) in enumerate(zip(table, table.residuals)):
        rep.label = f"p{i}"
        for which in _CERTIFICATES:
            _certificate(rep, residuals, which, tol)
        rep.irreducible = True
        compute_F(rep, tol)
    return table
