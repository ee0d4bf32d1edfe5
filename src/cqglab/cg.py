"""Characters, tensor products, and Clebsch-Gordan systems.

Tensor products of corepresentations come in two flavours on the same
carrier: the ordinary one with coefficients ``M(pi^V_sj (x) pi^W_tk)`` and the
twisted one with the product reversed.  Row/column pairs ``(j, k)`` are
ordered row-major: ``(0,0), (0,1), ..., (0, d_W - 1), (1,0), ...``

A CG system for an ordered pair ``(p, q)`` is the square change of basis
``C`` (columns indexed by ``(r, alpha, l)``) with
``C^{-1} (pi^p x pi^q) C = sum_r (+) n_pq^r pi^r`` entrywise in the algebra.
The unit of work is the irrep table: :func:`solve_cg_systems` solves every
pair of two label sets in one stacked pass per dimension class, and the
triple-product Haar certificates of all pairs and targets are read off one
gap array.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional
from .corep import (Corepresentation, IrrepTable, _character_grams, _dim_classes,
                    _integer_counts, _stacked_intertwiners)
from .errors import LinearDependenceWarning, MultiplicityMismatch, SingularC
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
    "solve_cg_systems",
    "cg_block_residual",
    "coupled_basis_functions",
    "coupled_inverse_residual",
    "verify_triple_haar",
]


@dataclass(frozen=True, eq=False)
class Character:
    """The trace of a corepresentation, as its ``(n,)`` coefficient vector."""

    coeffs: np.ndarray
    source: str = ""


def character(pi: Corepresentation) -> Character:
    return Character(pi.character(), source=pi.label)


def character_orthogonality(chi_p: Character, chi_q: Character, h: LinearFunctional,
                            tol: float = 1e-10) -> Report:
    """``h(chi_p^* chi_q) = delta_pq`` in both multiplication orders: the one-pair call
    of :func:`_character_report`."""
    return _character_report(np.array([chi_p.coeffs, chi_q.coeffs]),
                             [chi_p.source, chi_q.source], [(0, 1)], h, tol,
                             f"character orthogonality [{chi_p.source} vs {chi_q.source}]")


def _character_report(chars: np.ndarray, labels: list[str], pairs: list[tuple[int, int]],
                      h: LinearFunctional, tol: float, title: str | None = None) -> Report:
    """``h(chi_p^* chi_q) = delta_pq`` in both orders for each listed pair of rows of
    ``chars``, read off the two character Grams.  Without a ``title`` the report is
    the table's and every check name starts ``p vs q: ``."""
    fwd, rev = _character_grams(chars, h)
    p_idx, q_idx = np.array(pairs, dtype=int).reshape(-1, 2).T
    values = np.stack([fwd[p_idx, q_idx], rev[p_idx, q_idx]], axis=1)      # [pair, order]
    gaps = values - np.array([float(np.array_equal(chars[p], chars[q])) for p, q in pairs])[:, None]
    prefixes = ["" if title else f"{labels[p]} vs {labels[q]}: " for p, q in pairs]
    report = Report(title or "character orthogonality [table]")
    report.extend([prefix + name for prefix in prefixes for name in ("forward", "reversed")],
                  np.hypot(gaps.real, gaps.imag), tol * h.algebra.magnitude,  # abs(complex) exactly
                  [{"value": value} for value in values.view(float).reshape(-1, 2).tolist()])
    return report


def multiplicity_in(chi_v: Character, chi_p: Character, h: LinearFunctional) -> int:
    """Number of copies of the irreducible with character ``chi_p`` inside ``chi_v``."""
    alg = h.algebra
    pair = alg.mult @ h.covector  # [a, b] = h(a_a a_b)
    return int(_integer_counts(chi_v.coeffs @ pair @ (np.conj(chi_p.coeffs) @ alg.star)))


def tensor_product(pi_v: Corepresentation, pi_w: Corepresentation,
                   kind: str = "ordinary") -> Corepresentation:
    """Ordinary or twisted tensor product on ``V (x) W``: one pair of :func:`_tensor_products`."""
    alg = pi_v.algebra
    coeffs = _tensor_products(pi_v.coeffs[None], pi_w.coeffs[None], alg, kind)[0, 0]
    glyph = "x" if kind == "ordinary" else "x~"
    return Corepresentation(alg, coeffs, label=f"{pi_v.label}{glyph}{pi_w.label}")


def _tensor_products(vs: np.ndarray, ws: np.ndarray, alg: HopfAlgebraSpec,
                     kind: str) -> np.ndarray:
    """``M(V_sj (x) W_tk)`` as ``[v, w, (s, t), (j, k), m]`` for stacks ``vs[v, s, j, m]``
    and ``ws[w, t, k, m]``, with the product reversed when ``kind`` is twisted."""
    if kind not in ("ordinary", "twisted"):
        raise ValueError(f"kind must be 'ordinary' or 'twisted', got {kind!r}")
    left = np.tensordot(vs, alg.mult, axes=(3, 0 if kind == "ordinary" else 1))  # [v, s, j, b, m]
    prod = np.tensordot(left, ws, axes=(3, 3))                       # [v, s, j, m, w, t, k]
    size = vs.shape[1] * ws.shape[1]
    return prod.transpose(0, 4, 1, 5, 2, 6, 3).reshape(len(vs), len(ws), size, size, alg.dim)


def conjugate_multiplicity_symmetries(table: IrrepTable, h: LinearFunctional) -> Report:
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
    n_pq_r = _integer_counts(fused[:count, :count])      # [p, q, r]
    n_pbar_r_q = _integer_counts(fused[count:, :count])  # [p, r, q]
    n_r_pbar_q = _integer_counts(fused[:count, count:])  # [r, p, q]
    worst = max(np.abs(n_pq_r - n_pbar_r_q.transpose(0, 2, 1)).max(),
                np.abs(n_r_pbar_q.transpose(1, 2, 0) - n_pq_r.transpose(1, 0, 2)).max())
    report.add("symmetries hold", float(worst), 0.5)
    return report


def _characters(table: IrrepTable) -> tuple[np.ndarray, np.ndarray]:
    """The table's characters ``chi_r`` and their stars ``chi_r^*``, as rows ``[r, m]``."""
    chars = table.characters
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
    block_residual: float | None = None  # max |C^{-1} (pi^p x pi^q) C - blocks|, if certified
    offsets: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # first column of each target; a target's columns are contiguous
        self.offsets = {}
        for col, (r_label, _, _) in enumerate(self.col_index):
            self.offsets.setdefault(r_label, col)

    def blocks(self, r_label: str, d_r: int) -> tuple[np.ndarray, np.ndarray]:
        """One target's CG blocks, stacked over multiplicity: a slice of :func:`_padded_blocks`.

        ``fwd[alpha, j, k, l] = C[(j, k), (r, alpha, l)]`` and
        ``inv[alpha, l, j, k] = Cinv[(r, alpha, l), (j, k)]``, with ``(j, k)``
        the system's own (first, second) factor indices.  The alpha axis is
        empty when ``r`` does not occur in the product.  A target's columns are
        contiguous and ordered ``(alpha, l)``, as :func:`solve_cg` stacks them.
        """
        fwd, inv, mults = _padded_blocks([self], [r_label], [d_r])
        mult = int(mults[0, 0])
        return (fwd[0, 0, :mult].reshape(mult, self.d_p, self.d_q, d_r),
                inv[0, 0, :mult].reshape(mult, d_r, self.d_p, self.d_q))

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
             h: LinearFunctional) -> CGSystem:
    """Assemble the full CG matrix for ``pi_p (x) pi_q`` against a table.

    The one-pair call of :func:`solve_cg_systems`: for each table irreducible
    ``r`` with nonzero fusion multiplicity the blocks are the basis of
    ``Hom(pi^r, pi_p (x) pi_q)`` that :func:`cqglab.corep.intertwiners`
    returns for ``h``; they are stacked into a square ``C`` whose inverse
    block-diagonalizes the product corepresentation.  Raises
    ``MultiplicityMismatch`` when a solution-space dimension disagrees with
    the character count and ``SingularC`` when ``C`` is not invertible.
    """
    return solve_cg_systems([pi_p], [pi_q], table, h)[pi_p.label, pi_q.label]


def solve_cg_systems(ps, qs, table: IrrepTable, h: LinearFunctional
                     ) -> dict[tuple[str, str], CGSystem]:
    """The CG systems of every ordered pair ``(p, q)`` in ``ps x qs``, solved together.

    ``ps`` and ``qs`` are corepresentations (an :class:`IrrepTable` will do);
    the result is keyed ``(p.label, q.label)`` in ``ps``-major order.  The
    tensor products of one ``(d_p, d_q)`` class come from one contraction and
    the character counts of all pairs from another.  All
    ``Hom(pi^r, pi^p (x) pi^q)`` of one ``(d_p d_q, d_r)`` class are found by
    one :func:`cqglab.corep._stacked_intertwiners` call, i.e. one batched
    SVD; the ``C`` matrices of one size are checked for conditioning by one
    batched SVD, inverted by one batched call and certified block diagonal by
    one batched residual.  Raises as :func:`solve_cg` does, on the first
    failing pair.
    """
    ps, qs = list(ps), list(qs)
    if not ps or not qs:
        return {}
    alg = table.algebra
    n = alg.dim
    # product coefficients [w, (s, t), (j, k), m], one contraction per (d_p, d_q) class
    groups: dict[int, tuple[list[tuple[int, int]], list[np.ndarray]]] = {}
    q_classes = _dim_classes(qs)
    for d_p, (ip, p_coeffs) in _dim_classes(ps).items():
        for d_q, (iq, q_coeffs) in q_classes.items():
            size = d_p * d_q
            pairs, stacks = groups.setdefault(size, ([], []))
            pairs.extend(product(ip, iq))
            stacks.append(_tensor_products(p_coeffs, q_coeffs, alg, "ordinary").reshape(
                -1, size, size, n))
    bigs = {size: stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
            for size, (_, stacks) in groups.items()}
    # h(chi_big chi_r^*) for every pair and target
    _, conj_chars = _characters(table)
    chis = np.concatenate([big.trace(axis1=1, axis2=2) for big in bigs.values()])
    counts = _integer_counts(chis @ ((alg.mult @ h.covector) @ conj_chars.T)).tolist()
    solved: dict[tuple[int, int], CGSystem] = {}
    row = 0
    for size, (pairs, _) in groups.items():
        found: list = [None] * len(table)   # found[r][w]: basis of Hom(pi^r, big_w)
        for idx, coeffs in table.dim_classes.values():
            stacked = _stacked_intertwiners(coeffs, bigs[size], h)
            for pos, r in enumerate(idx):
                found[r] = [bases[pos] for bases in stacked]
        mats, heads = [], []
        for w, (i, k) in enumerate(pairs):
            pi_p, pi_q = ps[i], qs[k]
            blocks: list[np.ndarray] = []
            col_index: list[tuple[str, int, int]] = []
            mults: dict[str, int] = {}
            for r, (label, expected) in enumerate(zip(table.labels, counts[row + w])):
                basis = found[r][w]
                if len(basis) != expected:
                    raise MultiplicityMismatch(
                        f"{pi_p.label} (x) {pi_q.label} -> {label}: intertwiner space has "
                        f"dimension {len(basis)}, characters give {expected}")
                if expected:
                    mults[label] = expected
                    blocks.extend(basis)
                    col_index.extend((label, alpha, ell) for alpha in range(expected)
                                     for ell in range(table[r].dim))
            if len(col_index) != size:
                raise MultiplicityMismatch(
                    f"fusion of {pi_p.label} (x) {pi_q.label} fills {len(col_index)} of "
                    f"{size} columns")
            mats.append(np.hstack(blocks))
            heads.append((pi_p, pi_q, mults, col_index))
        row += len(pairs)
        c_mats = np.stack(mats)
        sigma = np.linalg.svd(c_mats, compute_uv=False)
        if (sigma[:, -1] <= 1e-10 * sigma[:, 0]).any():
            raise SingularC("assembled CG matrix is numerically singular")
        c_invs = np.linalg.inv(c_mats)
        expected = np.stack([_block_diagonal(mults, table) for _, _, mults, _ in heads])
        res = _block_residuals(c_mats, c_invs, bigs[size], expected)
        if (res > 1e-9 * alg.magnitude).any():
            raise MultiplicityMismatch(
                f"CG block-diagonalization residual {res.max():.2e} exceeds tolerance")
        solved.update(zip(pairs, (
            CGSystem(pi_p.label, pi_q.label, pi_p.dim, pi_q.dim, c_mat, c_inv, mults, col_index,
                     block_residual)
            for (pi_p, pi_q, mults, col_index), c_mat, c_inv, block_residual
            in zip(heads, c_mats, c_invs, res.tolist()))))
    return {(ps[i].label, qs[k].label): solved[i, k]
            for i, k in product(range(len(ps)), range(len(qs)))}


def cg_block_residual(system: CGSystem, pi_p: Corepresentation,
                      pi_q: Corepresentation, table: IrrepTable) -> float:
    """Max deviation of ``C^{-1} (pi^p x pi^q) C`` from the block-diagonal form."""
    big = tensor_product(pi_p, pi_q, "ordinary").coeffs
    return float(_block_residuals(system.C[None], system.Cinv[None], big[None],
                                  _block_diagonal(system.multiplicities, table)[None])[0])


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


def _padded_blocks(systems: list[CGSystem], labels: list[str], dims: list[int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward and inverse CG blocks of a stack of systems of one size, for every target.

    ``fwd[w, r, alpha, pair, v] = C_w[pair, (r, alpha, v)]`` and
    ``inv[w, r, alpha, l, pair] = Cinv_w[(r, alpha, l), pair]``, with the
    ``alpha`` axis padded to the largest multiplicity and ``v``, ``l`` to the
    largest target dimension, and the multiplicities ``mults[w, r]``.  Padding is
    zero, so a target that does not occur has all-zero blocks.
    """
    mults = np.array([[s.multiplicities.get(r, 0) for r in labels] for s in systems])
    starts = np.array([[s.offsets.get(r, 0) for r in labels] for s in systems])
    dims_arr = np.array(dims)
    alpha = np.arange(max(1, mults.max(initial=0)))[:, None]
    ell = np.arange(max(dims, default=0))
    cols = starts[:, :, None, None] + alpha * dims_arr[:, None, None] + ell   # [w, r, a, l]
    keep = (alpha < mults[:, :, None, None]) & (ell < dims_arr[:, None, None])
    cols = np.where(keep, cols, 0)
    which = np.arange(len(systems))[:, None, None, None]
    c_mats = np.stack([s.C for s in systems])
    c_invs = np.stack([s.Cinv for s in systems])
    fwd = c_mats[which, :, cols] * keep[..., None]           # [w, r, a, v, pair]
    inv = c_invs[which, cols] * keep[..., None]              # [w, r, a, l, pair]
    return fwd.swapaxes(-1, -2), inv, mults


def _set_products(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet, side: str) -> np.ndarray:
    """The products ``phi^p_j psi^q_k`` in the sets' common carrier, in the pair order of
    ``side``'s CG system: ``[j, k, m]`` for side R, ``[k, j, m]`` for side L."""
    if psi_q.carrier is not phi_p.carrier:
        raise ValueError("basis-function sets live on different carriers")
    return np.einsum(f"ja,kb,abm->{'jk' if side == 'R' else 'kj'}m", phi_p.functions,
                     psi_q.functions, phi_p.carrier.product)


def coupled_basis_functions(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                            side: str, system: CGSystem, table: IrrepTable
                            ) -> dict[tuple[str, int], BasisFunctionSet]:
    """Couple two basis-function sets of one carrier into sets for each fused irreducible.

    Side R uses the ``(p, q)`` CG system on products ``phi^p_j psi^q_k``;
    side L uses the ``(q, p)`` system with pair index ``(k, j)``.  Warns when
    the products are linearly dependent (the coupled sets may then vanish).
    """
    if phi_p.side != side or psi_q.side != side:
        raise ValueError("basis-function sets do not match the requested side")
    d_p, d_q = phi_p.corep.dim, psi_q.corep.dim
    pieces = _set_products(phi_p, psi_q, side)
    rank = np.linalg.matrix_rank(pieces.reshape(d_p * d_q, -1), tol=1e-9)
    if rank < d_p * d_q:
        warnings.warn(
            f"products of {phi_p.label} and {psi_q.label} span only {rank} of "
            f"{d_p * d_q} dimensions", LinearDependenceWarning, stacklevel=2)
    return {(r_lab, alpha): BasisFunctionSet(table[r_lab], side, funcs,
                                             label=f"theta[{r_lab},{alpha},{side}]",
                                             carrier=phi_p.carrier)
            for (r_lab, alpha), funcs in system.couple(pieces, table).items()}


def coupled_inverse_residual(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                             side: str, system: CGSystem,
                             coupled: dict[tuple[str, int], BasisFunctionSet]) -> float:
    """Residual of the inverse expansion of products in coupled functions."""
    pieces = _set_products(phi_p, psi_q, side)
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
    ``(F^r)^{-1} / tr = I / d_r`` for the ``(p, q)`` system, and the
    ``(q, p)``-ordered product uses the ``(q, p)`` system.
    """
    systems = {(pi_q.label, pi_p.label): system_qp, (pi_p.label, pi_q.label): system_pq}
    gaps = _triple_haar_gaps([pi_p], [pi_q], [pi_r], systems, h)
    report = Report(f"triple haar [{pi_r.label}* {pi_p.label} {pi_q.label}]",
                    meta={"tol": tol})
    t = tol * h.algebra.magnitude
    report.add("(p,q) order", gaps[pi_p.label, pi_q.label][0], t)
    report.add("(q,p) order", gaps[pi_q.label, pi_p.label][0], t)
    return report


def _triple_haar_gaps(ps: list[Corepresentation], qs: list[Corepresentation],
                      targets: list[Corepresentation],
                      systems: dict[tuple[str, str], CGSystem], h: LinearFunctional
                      ) -> dict[tuple[str, str], list[float]]:
    """``G[(a, b)][r]``: the ``(a, b)``-order triple Haar gap of every target, for
    ``(a, b)`` running over ``ps x qs`` and ``qs x ps``.

    ``systems`` holds those ordered pairs' systems, keyed by label pair.  The
    ``(q, p)``-order check of ``(p, q)`` is the ``(p, q)``-order check of
    ``(q, p)``, so one gap array over the ordered pairs serves both orders.
    The left sides ``h(pi^r*_ul pi^a_sj pi^b_tk)`` come from one weight tensor
    ``weights[r, u, l, b, c] = h(pi^r*_ul a_b a_c)``, zero-padded to the
    largest target dimension, and two ``tensordot`` calls per ``(d_a, d_b)``
    class.  The right sides are the double CG contractions of the padded
    blocks of :func:`_padded_blocks` with ``(F^r)^{-1} / tr = I / d_r``; a
    target that does not occur has zero blocks, so its gap is ``max |lhs|``.
    """
    if any(pi_r.F is None for pi_r in targets):
        raise ValueError("verify_triple_haar needs the F matrix of the target irrep")
    factors = {pi.label: pi for pi in [*qs, *ps]}
    ordered = list(dict.fromkeys(
        key for pi_p in ps for pi_q in qs
        for key in ((pi_p.label, pi_q.label), (pi_q.label, pi_p.label))))
    alg = h.algebra
    n = alg.dim
    dims = [pi_r.dim for pi_r in targets]
    d_max = max(dims, default=0)
    pair = alg.mult @ (alg.mult @ h.covector)  # pair[a, b, c] = h(a_a a_b a_c)
    rows = np.zeros((len(targets), d_max, d_max, n), dtype=complex)
    for r, pi_r in enumerate(targets):
        rows[r, :pi_r.dim, :pi_r.dim] = pi_r.star_coeffs()
    weights = (rows.reshape(-1, n) @ pair.reshape(n, n * n)).reshape(
        len(targets), d_max, d_max, n, n)
    labels = [pi_r.label for pi_r in targets]
    classes: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in ordered:
        classes.setdefault((factors[a].dim, factors[b].dim), []).append((a, b))
    gaps = {}
    for (d_a, d_b), keys in classes.items():
        firsts = list(dict.fromkeys(a for a, _ in keys))
        seconds = list(dict.fromkeys(b for _, b in keys))
        lhs = np.tensordot(np.tensordot(weights, np.stack([factors[a].coeffs for a in firsts]),
                                        axes=(3, 3)),
                           np.stack([factors[b].coeffs for b in seconds]),
                           axes=(3, 3))              # [r, u, l, a, s, j, b, t, k]
        lhs = lhs[:, :, :, [firsts.index(a) for a, _ in keys], :, :,
                  [seconds.index(b) for _, b in keys]]  # [w, r, u, l, s, j, t, k]
        fwd, inv, _ = _padded_blocks([systems[key] for key in keys], labels, dims)
        # fwd[w, r, alpha, (s, t), u] / d_r, against inv[w, r, alpha, l, (j, k)]
        left = (fwd / np.array(dims)[:, None, None, None]).reshape(
            len(keys), len(targets), fwd.shape[2], -1)
        rhs = (left.swapaxes(-1, -2) @ inv.reshape(*inv.shape[:3], -1)).reshape(
            len(keys), len(targets), d_a, d_b, d_max, d_max, d_a, d_b)
        gap = np.abs(lhs - rhs.transpose(0, 1, 4, 5, 2, 6, 3, 7)).max(axis=(2, 3, 4, 5, 6, 7))
        gaps.update(zip(keys, gap.tolist()))
    return gaps
