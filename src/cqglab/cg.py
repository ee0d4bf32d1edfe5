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
from .corep import Corepresentation, IrrepTable, morphism_space
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


def multiplicity_in(chi_v: Character, chi_p: Character, h: LinearFunctional,
                    tol: float = 1e-8) -> int:
    """Number of copies of the irreducible with character ``chi_p`` inside ``chi_v``."""
    value = _h_product(h, chi_v.element, chi_p.element.star())
    nearest = int(round(value.real))
    if abs(value - nearest) > tol or nearest < 0:
        raise NonIntegerMultiplicity(
            f"h(chi_V chi_p^*) = {value} is not a nonnegative integer")
    return nearest


def tensor_product(pi_v: Corepresentation, pi_w: Corepresentation,
                   kind: str = "ordinary") -> Corepresentation:
    """Ordinary or twisted tensor product corepresentation on ``V (x) W``."""
    alg = pi_v.algebra
    if kind == "ordinary":
        coeffs = np.einsum("sja,tkb,abm->stjkm", pi_v.coeffs, pi_w.coeffs, alg.mult)
    elif kind == "twisted":
        coeffs = np.einsum("sja,tkb,bam->stjkm", pi_v.coeffs, pi_w.coeffs, alg.mult)
    else:
        raise ValueError(f"kind must be 'ordinary' or 'twisted', got {kind!r}")
    d = pi_v.dim * pi_w.dim
    glyph = "x" if kind == "ordinary" else "x~"
    return Corepresentation(alg, coeffs.reshape(d, d, alg.dim),
                            label=f"{pi_v.label}{glyph}{pi_w.label}")


def conjugate_multiplicity_symmetries(table: IrrepTable, h: LinearFunctional,
                                      tol: float = 1e-8) -> Report:
    """Fusion-coefficient symmetries under conjugation.

    ``n_pq^r = n_{pbar r}^q`` and ``n_{r pbar}^q = n_qp^r`` for all triples,
    where ``pbar`` is the conjugate irreducible.
    """
    report = Report(f"conjugate multiplicity symmetries [{table.algebra.label}]")
    chars = [character(pi) for pi in table]
    conj_chars = [Character(c.element.star(), source=f"{c.source}bar") for c in chars]
    n = len(table.irreps)

    def fuse(a: Character, b: Character, c: Character) -> int:
        prod = Character(multiply(a.element, b.element), source="prod")
        return multiplicity_in(prod, c, h, tol)

    worst = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                n_pq_r = fuse(chars[i], chars[j], chars[k])
                n_pbar_r_q = fuse(conj_chars[i], chars[k], chars[j])
                n_r_pbar_q = fuse(chars[k], conj_chars[i], chars[j])
                n_qp_r = fuse(chars[j], chars[i], chars[k])
                worst = max(worst, abs(n_pq_r - n_pbar_r_q), abs(n_r_pbar_q - n_qp_r))
    report.add("symmetries hold", float(worst), 0.5)
    return report


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

    def row(self, j: int, k: int) -> int:
        return j * self.d_q + k

    def col(self, r_label: str, alpha: int, ell: int) -> int:
        return self.col_index.index((r_label, alpha, ell))

    def coef(self, j: int, k: int, r_label: str, alpha: int, ell: int) -> complex:
        """CG coefficient ``(p q; j k | r, alpha; ell)``."""
        return complex(self.C[self.row(j, k), self.col(r_label, alpha, ell)])

    def inv_coef(self, r_label: str, alpha: int, ell: int, j: int, k: int) -> complex:
        """Inverse coefficient ``(r, alpha; ell | p q; j k)``."""
        return complex(self.Cinv[self.col(r_label, alpha, ell), self.row(j, k)])


def solve_cg(pi_p: Corepresentation, pi_q: Corepresentation, table: IrrepTable,
             h: LinearFunctional, tol: float = 1e-9) -> CGSystem:
    """Assemble the full CG matrix for ``pi_p (x) pi_q`` against a table.

    For each table irreducible ``r`` with nonzero fusion multiplicity the
    blocks are the basis of ``Hom(pi^r, pi_p (x) pi_q)`` that
    :func:`cqglab.corep.morphism_space` returns (solved by
    :func:`cqglab.corep.intertwiners`); they are stacked into a square ``C``
    whose inverse block-diagonalizes the product corepresentation.  Raises ``MultiplicityMismatch`` when the solution-space
    dimension disagrees with the character count and ``SingularC`` when the
    assembled matrix is not invertible.
    """
    big = tensor_product(pi_p, pi_q, "ordinary")
    chi_big = character(big)
    d_total = pi_p.dim * pi_q.dim
    cols: list[np.ndarray] = []
    col_index: list[tuple[str, int, int]] = []
    mults: dict[str, int] = {}
    for label, target in zip(table.labels, table.irreps):
        expected = multiplicity_in(chi_big, character(target), h)
        blocks = morphism_space(target, big)  # d_big x d_target, orthonormal
        if len(blocks) != expected:
            raise MultiplicityMismatch(
                f"{pi_p.label} (x) {pi_q.label} -> {label}: intertwiner space has "
                f"dimension {len(blocks)}, characters give {expected}")
        if expected == 0:
            continue
        mults[label] = expected
        for alpha, block in enumerate(blocks):
            for ell in range(target.dim):
                cols.append(block[:, ell])
                col_index.append((label, alpha, ell))
    if len(cols) != d_total:
        raise MultiplicityMismatch(
            f"fusion of {pi_p.label} (x) {pi_q.label} fills {len(cols)} of "
            f"{d_total} columns")
    c_mat = np.array(cols).T
    sigma = np.linalg.svd(c_mat, compute_uv=False)
    if sigma[-1] <= 1e-10 * sigma[0]:
        raise SingularC("assembled CG matrix is numerically singular")
    c_inv = np.linalg.inv(c_mat)
    system = CGSystem(pi_p.label, pi_q.label, pi_p.dim, pi_q.dim,
                      c_mat, c_inv, mults, col_index)
    res = cg_block_residual(system, pi_p, pi_q, table)
    if res > tol * pi_p.algebra.magnitude:
        raise MultiplicityMismatch(
            f"CG block-diagonalization residual {res:.2e} exceeds tolerance")
    return system


def cg_block_residual(system: CGSystem, pi_p: Corepresentation,
                      pi_q: Corepresentation, table: IrrepTable) -> float:
    """Max deviation of ``C^{-1} (pi^p x pi^q) C`` from the block-diagonal form."""
    big = tensor_product(pi_p, pi_q, "ordinary")
    conjugated = np.einsum("ra,abm,bs->rsm", system.Cinv, big.coeffs, system.C)
    expected = np.zeros_like(conjugated)
    for i, (r_lab, alpha, ell) in enumerate(system.col_index):
        target = table[r_lab]
        for i2, (r2, a2, ell2) in enumerate(system.col_index):
            if r2 == r_lab and a2 == alpha:
                expected[i, i2] = target.coeffs[ell, ell2]
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
    out: dict[tuple[str, int], BasisFunctionSet] = {}
    for r_lab, mult in system.multiplicities.items():
        target = table[r_lab]
        for alpha in range(mult):
            funcs = np.zeros((target.dim, alg.dim), dtype=complex)
            for ell in range(target.dim):
                for j in range(d_p):
                    for k in range(d_q):
                        if side == "R":
                            coef = system.coef(j, k, r_lab, alpha, ell)
                        else:
                            coef = system.coef(k, j, r_lab, alpha, ell)
                        funcs[ell] += coef * products[j, k]
            out[r_lab, alpha] = BasisFunctionSet(
                target, side, funcs, label=f"theta[{r_lab},{alpha},{side}]")
    return out


def coupled_inverse_residual(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                             side: str, system: CGSystem,
                             coupled: dict[tuple[str, int], BasisFunctionSet]) -> float:
    """Residual of the inverse expansion of products in coupled functions."""
    alg = phi_p.algebra
    d_p, d_q = phi_p.corep.dim, psi_q.corep.dim
    products = np.einsum("ja,kb,abm->jkm", phi_p.functions, psi_q.functions, alg.mult)
    worst = 0.0
    for j in range(d_p):
        for k in range(d_q):
            acc = np.zeros(alg.dim, dtype=complex)
            for (r_lab, alpha), bset in coupled.items():
                for ell in range(bset.corep.dim):
                    if side == "R":
                        coef = system.inv_coef(r_lab, alpha, ell, j, k)
                    else:
                        coef = system.inv_coef(r_lab, alpha, ell, k, j)
                    acc += coef * bset.functions[ell]
            worst = max(worst, float(np.abs(acc - products[j, k]).max()))
    return worst


def _cg_blocks(system: CGSystem, r_label: str, d_r: int
               ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-multiplicity pairs (forward block, inverse block) of a CG system.

    Forward block ``fwd[x, y, v] = C[row(x, y), col(r, alpha, v)]`` and
    inverse block ``inv[l, x, y] = Cinv[col(r, alpha, l), row(x, y)]`` where
    ``(x, y)`` ranges over the system's own (first, second) factor indices.
    """
    d1 = system.d_p
    d2 = system.d_q
    out = []
    for alpha in range(system.multiplicities.get(r_label, 0)):
        cols = [i for i, (r, a, _) in enumerate(system.col_index)
                if r == r_label and a == alpha]
        fwd = system.C[:, cols].reshape(d1, d2, d_r)
        inv = system.Cinv[cols, :].reshape(d_r, d1, d2)
        out.append((fwd, inv))
    return out


def verify_triple_haar(pi_p: Corepresentation, pi_q: Corepresentation,
                       pi_r: Corepresentation, system_pq: CGSystem,
                       system_qp: CGSystem, h: LinearFunctional,
                       tol: float = 1e-9) -> Report:
    """The triple-product Haar identity in both multiplication orders.

    ``h(pi^r*_ul pi^p_sj pi^q_tk)`` equals the double CG contraction with
    ``(F^r)^{-1} / tr`` for the ``(p, q)`` system, and the ``(q, p)``-ordered
    product uses the ``(q, p)`` system.
    """
    alg = pi_p.algebra
    f_r = pi_r.F
    if f_r is None:
        raise ValueError("verify_triple_haar needs the F matrix of the target irrep")
    finv = np.linalg.inv(f_r)
    finv_tr = np.trace(finv)
    r_star = pi_r.star_coeffs()
    pair = np.einsum("abx,xcy,y->abc", alg.mult, alg.mult, h.covector)
    lhs_pq = np.einsum("ula,sjb,tkc,abc->ulsjtk", r_star, pi_p.coeffs, pi_q.coeffs, pair)
    lhs_qp = np.einsum("ula,tkb,sjc,abc->ultksj", r_star, pi_q.coeffs, pi_p.coeffs, pair)

    r_lab = pi_r.label
    d_p, d_q, d_r = pi_p.dim, pi_q.dim, pi_r.dim

    rhs_pq = np.zeros((d_r, d_r, d_p, d_p, d_q, d_q), dtype=complex)
    for fwd, inv in _cg_blocks(system_pq, r_lab, d_r):
        # inv[l, j, k] * fwd[s, t, v] * finv[v, u] -> [u, l, s, j, t, k]
        rhs_pq += np.einsum("ljk,stv,vu->ulsjtk", inv, fwd, finv) / finv_tr

    rhs_qp = np.zeros((d_r, d_r, d_q, d_q, d_p, d_p), dtype=complex)
    for fwd, inv in _cg_blocks(system_qp, r_lab, d_r):
        # (q, p) system: first factor index is the q one
        rhs_qp += np.einsum("lkj,tsv,vu->ultksj", inv, fwd, finv) / finv_tr

    report = Report(
        f"triple haar [{pi_r.label}* {pi_p.label} {pi_q.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    report.add("(p,q) order", float(np.abs(lhs_pq - rhs_pq).max()), t)
    report.add("(q,p) order", float(np.abs(lhs_qp - rhs_qp).max()), t)
    return report
