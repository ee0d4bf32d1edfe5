"""Characters, tensor products, and Clebsch-Gordan systems.

Tensor products of corepresentations come in two flavours on the same
carrier: the ordinary one with coefficients ``M(pi^V_sj (x) pi^W_tk)`` and the
twisted one with the product reversed.  Row/column pairs ``(j, k)`` are
ordered row-major: ``(0,0), (0,1), ..., (0, d_W - 1), (1,0), ...``

A CG system for an ordered pair ``(p, q)`` is the square change of basis
``C`` (columns indexed by ``(r, alpha, l)``) with
``C^{-1} (pi^p x pi^q) C = sum_r (+) n_pq^r pi^r`` entrywise in the algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import Element, HopfAlgebraSpec, LinearFunctional, multiply
from .corep import Corepresentation, IrrepTable, _stacked_intertwiners
from .errors import (LinearDependenceWarning, MultiplicityMismatch,
                     NonIntegerMultiplicity, SingularC)
from .regular import BasisFunctionSet
from .report import Report

__all__ = [
    "Character",
    "character",
    "character_orthogonality",
    "multiplicity_in",
    "tensor_product",
    "conjugate_multiplicity_symmetries",
    "CGSystem",
    "solve_cg",
    "coupled_basis_functions",
    "verify_triple_haar",
]


@dataclass(frozen=True)
class Character:
    """The trace element of a corepresentation."""

    element: Element
    source: str = ""

    @property
    def algebra(self) -> HopfAlgebraSpec:
        return self.element.algebra


def character(pi: Corepresentation) -> Character:
    return Character(pi.character(), source=pi.label)


def _h_product(h: LinearFunctional, x: Element, y: Element) -> complex:
    return h(multiply(x, y))


def character_orthogonality(chi_p: Character, chi_q: Character, h: LinearFunctional,
                            tol: float = 1e-10) -> Report:
    """``h(chi_p^* chi_q) = delta_pq`` in both multiplication orders."""
    same = np.array_equal(chi_p.element.coeffs, chi_q.element.coeffs)
    expected = 1.0 if same else 0.0
    fwd = _h_product(h, chi_p.element.star(), chi_q.element)
    rev = _h_product(h, chi_q.element, chi_p.element.star())
    report = Report(f"character orthogonality [{chi_p.source} vs {chi_q.source}]")
    t = tol * chi_p.algebra.magnitude
    report.add("forward", abs(fwd - expected), t, value=[fwd.real, fwd.imag])
    report.add("reversed", abs(rev - expected), t, value=[rev.real, rev.imag])
    return report


def _integer_counts(values, tol: float = 1e-8) -> np.ndarray:
    """Round character pairings ``h(chi_V chi_p^*)`` to the multiplicities they count.

    Raises ``NonIntegerMultiplicity`` on the first value farther than ``tol``
    from a nonnegative integer.
    """
    values = np.asarray(values, dtype=complex)
    nearest = np.round(values.real)
    bad = (np.abs(values - nearest) > tol) | (nearest < 0)
    if bad.any():
        value = values.flat[np.flatnonzero(bad)[0]]
        raise NonIntegerMultiplicity(
            f"h(chi_V chi_p^*) = {value} is not a nonnegative integer")
    return nearest.astype(int)


def multiplicity_in(chi_v: Character, chi_p: Character, h: LinearFunctional,
                    tol: float = 1e-8) -> int:
    """Number of copies of the irreducible with character ``chi_p`` inside ``chi_v``."""
    return int(_integer_counts(_h_product(h, chi_v.element, chi_p.element.star()), tol))


def tensor_product(pi_v: Corepresentation, pi_w: Corepresentation,
                   kind: str = "ordinary") -> Corepresentation:
    """Ordinary or twisted tensor product corepresentation on ``V (x) W``."""
    alg = pi_v.algebra
    if kind == "ordinary":
        left = np.tensordot(pi_v.coeffs, alg.mult, axes=(2, 0))  # [s, j, b, m]
    elif kind == "twisted":
        left = np.tensordot(pi_v.coeffs, alg.mult, axes=(2, 1))  # [s, j, b, m]
    else:
        raise ValueError(f"kind must be 'ordinary' or 'twisted', got {kind!r}")
    coeffs = np.tensordot(left, pi_w.coeffs, axes=(2, 2)).transpose(0, 3, 1, 4, 2)
    d = pi_v.dim * pi_w.dim
    glyph = "x" if kind == "ordinary" else "x~"
    return Corepresentation(alg, coeffs.reshape(d, d, alg.dim),
                            label=f"{pi_v.label}{glyph}{pi_w.label}")


def conjugate_multiplicity_symmetries(table: IrrepTable, h: LinearFunctional,
                                      tol: float = 1e-8) -> Report:
    """Fusion-coefficient symmetries under conjugation.

    ``n_pq^r = n_{pbar r}^q`` and ``n_{r pbar}^q = n_qp^r`` for all triples,
    where ``pbar`` is the conjugate irreducible.  All are read off one fusion
    tensor ``h(x y chi_r^*)``, with ``x`` and ``y`` running over the
    characters and then their conjugates.
    """
    report = Report(f"conjugate multiplicity symmetries [{table.algebra.label}]")
    alg = table.algebra
    chars, conj_chars = _characters(table)
    count = len(chars)
    both = np.concatenate([chars, conj_chars])        # rows chi_p, then chi_p^*
    pair = alg.mult @ (alg.mult @ h.covector)        # pair[a, b, c] = h(a_a a_b a_c)
    fused = np.tensordot(both, np.tensordot(both, pair @ conj_chars.T, axes=(1, 1)),
                         axes=(1, 1))                 # [x, y, r] = h(x y chi_r^*)
    n_pq_r = _integer_counts(fused[:count, :count], tol)      # [p, q, r]
    n_pbar_r_q = _integer_counts(fused[count:, :count], tol)  # [p, r, q]
    n_r_pbar_q = _integer_counts(fused[:count, count:], tol)  # [r, p, q]
    worst = max(np.abs(n_pq_r - n_pbar_r_q.transpose(0, 2, 1)).max(),
                np.abs(n_r_pbar_q.transpose(1, 2, 0) - n_pq_r.transpose(1, 0, 2)).max())
    report.add("symmetries hold", float(worst), 0.5)
    return report


def _characters(table: IrrepTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's characters ``chi_r`` and their stars ``chi_r^*``, as rows ``[r, m]``."""
    chars = np.array([np.trace(pi.coeffs) for pi in table])
    return chars, np.conj(chars) @ table.algebra.star


# ---------------------------------------------------------------------------
# Clebsch-Gordan systems
# ---------------------------------------------------------------------------

@dataclass
class CGSystem:
    """Change of basis reducing an ordinary tensor product of two irreducibles."""

    p_label: str
    q_label: str
    d_p: int
    d_q: int
    C: np.ndarray
    Cinv: np.ndarray
    multiplicities: dict[str, int]
    col_index: list[tuple[str, int, int]] = field(default_factory=list)
    offsets: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # first column of each target; a target's columns are contiguous
        self.offsets = {}
        for col, (r_label, _, _) in enumerate(self.col_index):
            self.offsets.setdefault(r_label, col)

    def blocks(self, r_label: str, d_r: int) -> tuple[np.ndarray, np.ndarray]:
        """Forward and inverse CG blocks of one target irrep, stacked over multiplicity.

        ``fwd[alpha, j, k, l] = C[(j, k), (r, alpha, l)]`` and
        ``inv[alpha, l, j, k] = Cinv[(r, alpha, l), (j, k)]``, with ``(j, k)``
        the system's own (first, second) factor indices.  The alpha axis is
        empty when ``r`` does not occur in the product.  A target's columns are
        contiguous and ordered ``(alpha, l)``, as :func:`solve_cg` stacks them.
        """
        mult = self.multiplicities.get(r_label, 0)
        start = self.offsets.get(r_label, 0)
        cols = slice(start, start + mult * d_r)
        fwd = self.C[:, cols].reshape(self.d_p, self.d_q, mult, d_r).transpose(2, 0, 1, 3)
        inv = self.Cinv[cols, :].reshape(mult, d_r, self.d_p, self.d_q)
        return fwd, inv

    def couple(self, pieces: np.ndarray, table: IrrepTable
               ) -> dict[tuple[str, int], np.ndarray]:
        """CG-couple ``pieces[j, k, ...]``, indexed in the system's factor order.

        Returns ``{(r, alpha): out[l, ...]}`` with
        ``out = sum_jk fwd[alpha, j, k, l] pieces[j, k, ...]``.
        """
        out: dict[tuple[str, int], np.ndarray] = {}
        for r_lab in self.multiplicities:
            fwd, _ = self.blocks(r_lab, table[r_lab].dim)
            for alpha, block in enumerate(np.einsum("ajkl,jk...->al...", fwd, pieces)):
                out[r_lab, alpha] = block
        return out


def solve_cg(pi_p: Corepresentation, pi_q: Corepresentation, table: IrrepTable,
             h: LinearFunctional, tol: float = 1e-9) -> CGSystem:
    """Assemble the full CG matrix for ``pi_p (x) pi_q`` against a table.

    For each table irreducible ``r`` with nonzero fusion multiplicity the
    blocks are the basis of ``Hom(pi^r, pi_p (x) pi_q)`` that
    :func:`cqglab.corep.intertwiners` returns for ``h``; they are stacked into
    a square ``C`` whose inverse block-diagonalizes the product
    corepresentation.  Every target is solved and checked, the targets of one
    dimension in one batched SVD, and all character counts come from one
    contraction.  Raises ``MultiplicityMismatch`` when the solution-space
    dimension disagrees with the character count and ``SingularC`` when the
    assembled matrix is not invertible.
    """
    big = tensor_product(pi_p, pi_q, "ordinary")
    alg = big.algebra
    chi_big = np.trace(big.coeffs)
    haar_pair = alg.mult @ h.covector  # [a, b] = h(a_a a_b)
    _, conj_chars = _characters(table)
    counts = _integer_counts(conj_chars @ (haar_pair.T @ chi_big)).tolist()  # h(chi_big chi_r^*)
    bases: dict[int, list[np.ndarray]] = {}  # d_big x d_target blocks, orthonormal
    for dim in sorted(set(table.dims())):  # one batched solve per target dimension
        idx = [i for i, target in enumerate(table) if target.dim == dim]
        bases.update(zip(idx, _stacked_intertwiners(
            np.stack([table[i].coeffs for i in idx]), big.coeffs, h)))
    d_total = pi_p.dim * pi_q.dim
    col_blocks: list[np.ndarray] = []
    col_index: list[tuple[str, int, int]] = []
    mults: dict[str, int] = {}
    for i, (label, target, expected) in enumerate(zip(table.labels, table.irreps, counts)):
        blocks = bases[i]
        if len(blocks) != expected:
            raise MultiplicityMismatch(
                f"{pi_p.label} (x) {pi_q.label} -> {label}: intertwiner space has "
                f"dimension {len(blocks)}, characters give {expected}")
        if expected == 0:
            continue
        mults[label] = expected
        col_blocks.extend(blocks)
        col_index.extend((label, alpha, ell)
                         for alpha in range(expected) for ell in range(target.dim))
    if len(col_index) != d_total:
        raise MultiplicityMismatch(
            f"fusion of {pi_p.label} (x) {pi_q.label} fills {len(col_index)} of "
            f"{d_total} columns")
    c_mat = np.hstack(col_blocks)
    sigma = np.linalg.svd(c_mat, compute_uv=False)
    if sigma[-1] <= 1e-10 * sigma[0]:
        raise SingularC("assembled CG matrix is numerically singular")
    c_inv = np.linalg.inv(c_mat)
    system = CGSystem(pi_p.label, pi_q.label, pi_p.dim, pi_q.dim,
                      c_mat, c_inv, mults, col_index)
    res = _cg_block_residual(system, big.coeffs, table)
    if res > tol * pi_p.algebra.magnitude:
        raise MultiplicityMismatch(
            f"CG block-diagonalization residual {res:.2e} exceeds tolerance")
    return system


def cg_block_residual(system: CGSystem, pi_p: Corepresentation,
                      pi_q: Corepresentation, table: IrrepTable) -> float:
    """Max deviation of ``C^{-1} (pi^p x pi^q) C`` from the block-diagonal form."""
    return _cg_block_residual(system, tensor_product(pi_p, pi_q, "ordinary").coeffs, table)


def _cg_block_residual(system: CGSystem, big: np.ndarray, table: IrrepTable) -> float:
    """:func:`cg_block_residual` with the product's coefficients ``big`` already formed."""
    conjugated = np.einsum("rbm,bs->rsm", np.tensordot(system.Cinv, big, axes=(1, 0)),
                           system.C)
    expected = np.zeros_like(conjugated)
    start = 0
    for r_lab, mult in system.multiplicities.items():
        coeffs = table[r_lab].coeffs
        for _ in range(mult):
            stop = start + coeffs.shape[0]
            expected[start:stop, start:stop] = coeffs
            start = stop
    return float(np.abs(conjugated - expected).max())


def coupled_basis_functions(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                            side: str, system: CGSystem, table: IrrepTable,
                            dependence_tol: float = 1e-9,
                            ) -> dict[tuple[str, int], BasisFunctionSet]:
    """Couple two basis-function sets into sets for each fused irreducible.

    Side R uses the ``(p, q)`` CG system on products ``phi^p_j psi^q_k``;
    side L uses the ``(q, p)`` system with pair index ``(k, j)``.  Warns when
    the products are linearly dependent (the coupled sets may then vanish).
    """
    alg = phi_p.algebra
    if phi_p.side != side or psi_q.side != side:
        raise ValueError("basis-function sets do not match the requested side")
    d_p, d_q = phi_p.corep.dim, psi_q.corep.dim
    products = np.einsum("ja,kb,abm->jkm", phi_p.functions, psi_q.functions, alg.mult)
    rank = np.linalg.matrix_rank(products.reshape(d_p * d_q, alg.dim), tol=dependence_tol)
    if rank < d_p * d_q:
        warnings.warn(
            f"products of {phi_p.label} and {psi_q.label} span only {rank} of "
            f"{d_p * d_q} dimensions", LinearDependenceWarning, stacklevel=2)
    pieces = products if side == "R" else products.transpose(1, 0, 2)
    return {(r_lab, alpha): BasisFunctionSet(table[r_lab], side, funcs,
                                             label=f"theta[{r_lab},{alpha},{side}]")
            for (r_lab, alpha), funcs in system.couple(pieces, table).items()}


def coupled_inverse_residual(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                             side: str, system: CGSystem,
                             coupled: dict[tuple[str, int], BasisFunctionSet]) -> float:
    """Residual of the inverse expansion of products in coupled functions."""
    alg = phi_p.algebra
    products = np.einsum("ja,kb,abm->jkm", phi_p.functions, psi_q.functions, alg.mult)
    pieces = products if side == "R" else products.transpose(1, 0, 2)
    expansion = np.zeros_like(pieces)
    for (r_lab, alpha), bset in coupled.items():
        _, inv = system.blocks(r_lab, bset.corep.dim)
        expansion += np.einsum("ljk,lm->jkm", inv[alpha], bset.functions)
    return float(np.abs(expansion - pieces).max())


def verify_triple_haar(pi_p: Corepresentation, pi_q: Corepresentation,
                       pi_r: Corepresentation, system_pq: CGSystem,
                       system_qp: CGSystem, h: LinearFunctional,
                       tol: float = 1e-9) -> Report:
    """The triple-product Haar identity in both multiplication orders.

    ``h(pi^r*_ul pi^p_sj pi^q_tk)`` equals the double CG contraction with
    ``(F^r)^{-1} / tr`` for the ``(p, q)`` system, and the ``(q, p)``-ordered
    product uses the ``(q, p)`` system.
    """
    return _triple_haar_reports(pi_p, pi_q, [pi_r], system_pq, system_qp, h, tol)[0]


def _triple_haar_reports(pi_p: Corepresentation, pi_q: Corepresentation,
                         targets: list[Corepresentation], system_pq: CGSystem,
                         system_qp: CGSystem, h: LinearFunctional,
                         tol: float = 1e-9) -> list[Report]:
    """:func:`verify_triple_haar` for every target of one CG pair, one report each.

    The left-hand sides of all targets come from one weight tensor,
    ``weights[(r, u, l), b, c] = h(pi^r*_ul a_b a_c)``, and two ``tensordot``
    calls per multiplication order.
    """
    alg = pi_p.algebra
    n = alg.dim
    if any(pi_r.F is None for pi_r in targets):
        raise ValueError("verify_triple_haar needs the F matrix of the target irrep")
    pair = alg.mult @ (alg.mult @ h.covector)  # pair[a, b, c] = h(a_a a_b a_c)
    rows = np.concatenate([pi_r.star_coeffs().reshape(-1, n) for pi_r in targets])
    weights = (rows @ pair.reshape(n, n * n)).reshape(-1, n, n)
    # the two factors contract into the weights in turn
    lhs_pq = np.tensordot(np.tensordot(weights, pi_p.coeffs, axes=(1, 2)), pi_q.coeffs,
                          axes=(1, 2))  # [(r, u, l), s, j, t, k]
    lhs_qp = np.tensordot(np.tensordot(weights, pi_q.coeffs, axes=(1, 2)), pi_p.coeffs,
                          axes=(1, 2))  # [(r, u, l), t, k, s, j]
    t = tol * alg.magnitude
    reports, row = [], 0
    for pi_r in targets:
        d_r = pi_r.dim
        rows_r = slice(row, row + d_r * d_r)
        row += d_r * d_r
        fwd_pq, inv_pq = system_pq.blocks(pi_r.label, d_r)
        # the (q, p) system's first factor index is the q one
        fwd_qp, inv_qp = system_qp.blocks(pi_r.label, d_r)
        report = Report(
            f"triple haar [{pi_r.label}* {pi_p.label} {pi_q.label}]", meta={"tol": tol})
        report.add("(p,q) order", _haar_gap(lhs_pq[rows_r], "aljk,astv,vu->ulsjtk",
                                            inv_pq, fwd_pq, pi_r.F), t)
        report.add("(q,p) order", _haar_gap(lhs_qp[rows_r], "alkj,atsv,vu->ultksj",
                                            inv_qp, fwd_qp, pi_r.F), t)
        reports.append(report)
    return reports


def _haar_gap(lhs: np.ndarray, subscripts: str, inv: np.ndarray, fwd: np.ndarray,
              f_r: np.ndarray) -> float:
    """Max deviation of ``lhs[(u, l), ...]`` from the double CG contraction of one target.

    The contraction vanishes when the target does not occur (empty alpha axis).
    """
    if not len(inv):
        return float(np.abs(lhs).max())
    finv = np.linalg.inv(f_r)
    rhs = np.einsum(subscripts, inv, fwd, finv) / np.trace(finv)
    return float(np.abs(lhs - rhs.reshape(lhs.shape)).max())
