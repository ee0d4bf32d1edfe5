"""Characters, tensor products, and Clebsch-Gordan systems.

Tensor products of corepresentations come in two flavours on the same
carrier: the ordinary one with coefficients ``M(pi^V_sj (x) pi^W_tk)`` and the
twisted one with the product reversed.  Row/column pairs ``(j, k)`` are
ordered row-major: ``(0,0), (0,1), ..., (0, d_W - 1), (1,0), ...``

A CG system for an ordered pair ``(p, q)`` is the square change of basis
``C`` (columns indexed by ``(r, alpha, l)``) with
``C^{-1} (pi^p x pi^q) C = sum_r (+) n_pq^r pi^r`` entrywise in the algebra.
The unit of work is the irrep table: :func:`solve_cg_systems` solves every
pair of two label sets in one stacked pass per product size, and the
triple-product Haar certificates of all pairs and targets are read off one
gap array.  A table keeps the systems of all its own pairs
(``IrrepTable._cg_systems``, solved on first use), and :func:`solve_cg` reads
them, so walking a table pair by pair costs one table-wide solve.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from types import MappingProxyType

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _freeze
from .corep import (Corepresentation, IrrepTable, _block_diagonal, _block_diagonalize,
                    _block_residuals, _character_grams, _characters, _dim_classes,
                    _integer_counts)
from .errors import LinearDependenceWarning
from .regular import BasisFunctionSet
from .report import Report

__all__ = [
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


def character_orthogonality(pi_p: Corepresentation, pi_q: Corepresentation,
                            h: LinearFunctional, tol: float = 1e-10) -> Report:
    """``h(chi_p^* chi_q) = delta_pq`` in both multiplication orders for the characters
    of two coreps: the one-pair call of :func:`_character_report`."""
    return _character_report(np.array([pi_p.character(), pi_q.character()]),
                             [pi_p.label, pi_q.label], [(0, 1)], h, tol,
                             f"character orthogonality [{pi_p.label} vs {pi_q.label}]")


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


def multiplicity_in(chi_v: np.ndarray, chi_p: np.ndarray, h: LinearFunctional) -> int:
    """Number of copies of the irreducible with character ``chi_p`` inside ``chi_v``,
    both ``(n,)`` coefficient vectors."""
    return int(_integer_counts(chi_v @ h.pair @ (np.conj(chi_p) @ h.algebra.star)))


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
    n = alg.dim
    mult = alg.mult if kind == "ordinary" else alg.mult.swapaxes(0, 1)
    left = (vs.reshape(-1, n) @ mult.reshape(n, -1)).reshape(-1, n, n)  # [(v, s, j), b, m]
    prod = ws.reshape(-1, n) @ left                                     # [(v, s, j), (w, t, k), m]
    (count_v, d_v), (count_w, d_w) = vs.shape[:2], ws.shape[:2]
    size = d_v * d_w
    return prod.reshape(count_v, d_v, d_v, count_w, d_w, d_w, n).transpose(
        0, 3, 1, 4, 2, 5, 6).reshape(count_v, count_w, size, size, n)


def conjugate_multiplicity_symmetries(table: IrrepTable) -> Report:
    """Fusion-coefficient symmetries under conjugation.

    ``n_pq^r = n_{pbar r}^q`` and ``n_{r pbar}^q = n_qp^r`` for all triples,
    where ``pbar`` is the conjugate irreducible.  All are read off one fusion
    tensor ``h(x y chi_r^*)`` of the table's Haar functional, with ``x`` and
    ``y`` running over the characters and then their conjugates.
    """
    report = Report(f"conjugate multiplicity symmetries [{table.algebra.label}]")
    alg = table.algebra
    chars, conj_chars = _characters(table)
    count = len(chars)
    both = np.concatenate([chars, conj_chars])        # rows chi_p, then chi_p^*
    pair = alg.mult @ table.haar.pair                # pair[a, b, c] = h(a_a a_b a_c)
    fused = np.tensordot(both, np.tensordot(both, pair @ conj_chars.T, axes=(1, 1)),
                         axes=(1, 1))                 # [x, y, r] = h(x y chi_r^*)
    n_pq_r = _integer_counts(fused[:count, :count])      # [p, q, r]
    n_pbar_r_q = _integer_counts(fused[count:, :count])  # [p, r, q]
    n_r_pbar_q = _integer_counts(fused[:count, count:])  # [r, p, q]
    worst = max(np.abs(n_pq_r - n_pbar_r_q.transpose(0, 2, 1)).max(),
                np.abs(n_r_pbar_q.transpose(1, 2, 0) - n_pq_r.transpose(1, 0, 2)).max())
    report.add("symmetries hold", float(worst), 0.5)
    return report


# ---------------------------------------------------------------------------
# Clebsch-Gordan systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CGSystem:
    """Change of basis reducing an ordinary tensor product of two irreducibles: frozen,
    with read-only copies of ``C`` and ``Cinv`` and a read-only ``multiplicities``."""

    p_label: str
    q_label: str
    d_p: int
    d_q: int
    C: np.ndarray
    Cinv: np.ndarray
    multiplicities: Mapping[str, int]
    col_index: tuple[tuple[str, int, int], ...]
    block_residual: float  # max |C^{-1} (pi^p x pi^q) C - blocks|

    def __post_init__(self) -> None:
        _freeze(self, "C", "Cinv")
        object.__setattr__(self, "multiplicities", MappingProxyType(dict(self.multiplicities)))
        object.__setattr__(self, "col_index", tuple(self.col_index))

    @cached_property
    def offsets(self) -> dict[str, int]:
        """First column of each target; a target's columns are contiguous."""
        return {r_label: col for col, (r_label, _, _) in reversed(list(enumerate(self.col_index)))}

    @cached_property
    def target_rows(self) -> np.ndarray:
        """``[target, (multiplicity, first column)]``, in the order of ``multiplicities``."""
        return np.array([[mult, self.offsets.get(r_label, 0)]
                         for r_label, mult in self.multiplicities.items()],
                        dtype=int).reshape(-1, 2)

    def blocks(self, r_label: str, d_r: int) -> tuple[np.ndarray, np.ndarray]:
        """One target's CG blocks, stacked over multiplicity: a slice of :func:`_padded_blocks`.

        ``fwd[alpha, j, k, l] = C[(j, k), (r, alpha, l)]`` and
        ``inv[alpha, l, j, k] = Cinv[(r, alpha, l), (j, k)]``, with ``(j, k)``
        the system's own (first, second) factor indices.  The alpha axis is
        empty when ``r`` does not occur in the product.  A target's columns are
        contiguous and ordered ``(alpha, l)``, as :func:`solve_cg` stacks them.
        """
        fwd, inv, _ = _padded_blocks([self], [r_label], [d_r])
        mult = self.multiplicities.get(r_label, 0)
        return (fwd[:, :mult].reshape(mult, self.d_p, self.d_q, d_r),
                inv[:, :mult].reshape(mult, d_r, self.d_p, self.d_q))

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
    """The CG system of ``pi_p (x) pi_q`` against a table, for ``h`` the table's own
    ``haar`` only (``ValueError`` otherwise).

    When both coreps are the table's own irrep objects, the system is read from
    the table's memo: the first such call solves every ordered pair of the
    table with one :func:`solve_cg_systems` call, and later calls return the
    same objects.  Any other pair is the one-pair call of
    :func:`solve_cg_systems`.  Raises ``MultiplicityMismatch`` when a
    solution-space dimension disagrees with the character count and
    ``SingularC`` when ``C`` is not invertible, as
    :func:`cqglab.corep._block_diagonalize` does; a table whose table-wide
    solve raises does so for every pair of its own irreps.
    """
    if h is not table.haar:
        raise ValueError("solve_cg takes the Haar functional the table was built with")
    p, q = pi_p.label, pi_q.label
    # membership first: an unknown label must reach the engine, not raise KeyError
    if p in table.labels and q in table.labels and table[p] is pi_p and table[q] is pi_q:
        return table._cg_systems[p, q]
    return solve_cg_systems([pi_p], [pi_q], table)[p, q]


def solve_cg_systems(ps, qs, table: IrrepTable) -> dict[tuple[str, str], CGSystem]:
    """The CG systems of every ordered pair ``(p, q)`` in ``ps x qs``, solved together.

    ``ps`` and ``qs`` are corepresentations (an :class:`IrrepTable` will do);
    the result is keyed ``(p.label, q.label)`` in ``ps``-major order.  The
    tensor products of one ``(d_p, d_q)`` class come from one contraction, and
    the products of one size are cut by one
    :func:`cqglab.corep._block_diagonalize` call: one batched SVD of the
    ``d_p d_q x d_p d_q`` projections ``P^r_11`` of every pair and target for
    every ``Hom(pi^r, pi^p (x) pi^q)``, then one batched SVD, inverse and block
    residual for the ``C`` matrices.  Raises as :func:`solve_cg` does, on the
    first failing pair.
    """
    ps, qs = list(ps), list(qs)
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
    solved: dict[tuple[int, int], CGSystem] = {}
    for pairs, stacks in groups.values():
        big = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
        names = [f"{ps[i].label} (x) {qs[k].label}" for i, k in pairs]
        for (i, k), reduced in zip(pairs, _block_diagonalize(big, names, table)):
            solved[i, k] = CGSystem(ps[i].label, qs[k].label, ps[i].dim, qs[k].dim, *reduced)
    return {(ps[i].label, qs[k].label): solved[i, k]
            for i, k in product(range(len(ps)), range(len(qs)))}


def cg_block_residual(system: CGSystem, pi_p: Corepresentation,
                      pi_q: Corepresentation, table: IrrepTable) -> float:
    """Max deviation of ``C^{-1} (pi^p x pi^q) C`` from the block-diagonal form."""
    big = tensor_product(pi_p, pi_q, "ordinary").coeffs
    return float(_block_residuals(system.C[None], system.Cinv[None], big[None],
                                  _block_diagonal(system.multiplicities, table)[None])[0])


def _occurrences(systems: list[CGSystem], labels: list[str]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The targets that occur in a stack of systems: the system ``w`` and target
    ``r`` of each, sorted by ``(w, r)``, with its certified multiplicity and first
    column, read off the systems' target rows.  A label at two places of
    ``labels`` occurs at both."""
    column = {label: r for r, label in enumerate(dict.fromkeys(labels))}
    where = np.array([column.get(label, -1) for s in systems for label in s.multiplicities],
                     dtype=int)
    which = np.repeat(np.arange(len(systems)), [len(s.multiplicities) for s in systems])
    found = where >= 0
    rows = np.concatenate([s.target_rows for s in systems])[found]
    f, r = np.nonzero(where[found][:, None] == [column[label] for label in labels])
    w = which[found][f]
    order = np.lexsort((r, w))
    return w[order], r[order], rows[f[order], 0], rows[f[order], 1]


def _padded_blocks(systems: list[CGSystem], labels: list[str], dims: list[int]
                   ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Forward and inverse CG blocks of the targets that occur in a stack of systems of
    one size.

    The entries ``e`` are the occurring ``(w, r, multiplicity)`` of
    :func:`_occurrences`, returned last: ``fwd[e, alpha, pair, v] = C_w[pair,
    (r, alpha, v)]`` and ``inv[e, alpha, l, pair] = Cinv_w[(r, alpha, l), pair]``
    for target ``labels[r]``, with the ``alpha`` axis padded to the largest
    multiplicity and ``v``, ``l`` to the largest target dimension.  Padding is
    zero; a target that does not occur has no entry.
    """
    w, r, mults, starts = _occurrences(systems, labels)
    dims_arr = np.array(dims)[r, None, None]
    alpha = np.arange(max(1, mults.max(initial=0)))[:, None]
    ell = np.arange(max(dims, default=0))
    cols = starts[:, None, None] + alpha * dims_arr + ell                  # [e, a, l]
    keep = (alpha < mults[:, None, None]) & (ell < dims_arr)
    cols = np.where(keep, cols, 0)
    which = w[:, None, None]
    fwd = np.stack([s.C for s in systems])[which, :, cols] * keep[..., None]   # [e, a, v, pair]
    inv = np.stack([s.Cinv for s in systems])[which, cols] * keep[..., None]   # [e, a, l, pair]
    return fwd.swapaxes(-1, -2), inv, (w, r, mults)


def _selection_rules(residuals: np.ndarray, occurs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The selection rule of each row of ``residuals[..., r]`` over its targets that do
    not occur (``occurs`` false): how many there are, the first of them with the
    largest residual (a NaN counts as largest), and that residual, bit for bit.
    A row whose targets all occur reads count 0."""
    masked = np.where(occurs, -np.inf, residuals)
    worst = masked.argmax(axis=-1)
    return ((~occurs).sum(axis=-1), worst,
            np.take_along_axis(masked, worst[..., None], axis=-1)[..., 0])


def _rule_details(absent: int, worst: str, residual: float, tol: float) -> dict:
    """A selection rule's details: how many targets it covers (``absent``) and, only when
    it fails, the first target of its residual (``worst``).  A passing rule's
    residuals are rounding, so the largest of them would be named by noise."""
    return {"absent": absent} if residual <= tol else {"absent": absent, "worst": worst}


def _set_products(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet) -> np.ndarray:
    """The products ``phi^p_j psi^q_k`` in the sets' common carrier, in the pair order of
    its side's CG system: ``[j, k, m]`` for side R, ``[k, j, m]`` for side L.  A carrier
    has one side, so sets of two sides live on different carriers."""
    if psi_q.carrier is not phi_p.carrier:
        raise ValueError("basis-function sets live on different carriers")
    left = np.tensordot(phi_p.functions, phi_p.carrier.product, axes=(1, 0))  # [j, b, m]
    prods = np.tensordot(psi_q.functions, left, axes=(1, 1))                   # [k, j, m]
    return prods.swapaxes(0, 1) if phi_p.carrier.side == "R" else prods


def coupled_basis_functions(phi_p: BasisFunctionSet, psi_q: BasisFunctionSet,
                            system: CGSystem, table: IrrepTable
                            ) -> dict[tuple[str, int], BasisFunctionSet]:
    """Couple two basis-function sets of one carrier into sets for each fused irreducible.

    Side R uses the ``(p, q)`` CG system on products ``phi^p_j psi^q_k``;
    side L uses the ``(q, p)`` system with pair index ``(k, j)``.  Warns when
    the products are linearly dependent (the coupled sets may then vanish).
    """
    side, d_p, d_q = phi_p.carrier.side, phi_p.corep.dim, psi_q.corep.dim
    pieces = _set_products(phi_p, psi_q)
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
                             system: CGSystem,
                             coupled: dict[tuple[str, int], BasisFunctionSet]) -> float:
    """Residual of the inverse expansion of products in coupled functions."""
    pieces = _set_products(phi_p, psi_q)
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
                      ) -> dict[tuple[str, str], np.ndarray]:
    """``G[(a, b)][r]``: the ``(a, b)``-order triple Haar gap of every target, an array
    over the targets, for ``(a, b)`` running over ``ps x qs`` and ``qs x ps``.

    ``systems`` holds those ordered pairs' systems, keyed by label pair.  The
    ``(q, p)``-order check of ``(p, q)`` is the ``(p, q)``-order check of
    ``(q, p)``, so one gap array over the ordered pairs serves both orders.
    The left sides ``h(pi^r*_ul pi^a_sj pi^b_tk)`` come from one weight tensor
    ``weights[r, u, l, b, c] = h(pi^r*_ul a_b a_c)``, zero-padded to the
    largest target dimension.  Every matrix product takes one target's rows or
    one factor's, batched, so each entry is computed as a one-triple call
    computes it, whatever else is stacked.  The right sides are the double CG
    contractions of the blocks of :func:`_padded_blocks` with
    ``(F^r)^{-1} / tr = I / tr F^r``, each target's ``F = I`` certified as it is
    read, for the targets that occur; a target that does not occur has a zero
    right side, so its gap is ``max |lhs|``.
    """
    factors = {pi.label: pi for pi in [*qs, *ps]}
    ordered = list(dict.fromkeys(
        key for pi_p in ps for pi_q in qs
        for key in ((pi_p.label, pi_q.label), (pi_q.label, pi_p.label))))
    n = h.algebra.dim
    dims = [pi_r.dim for pi_r in targets]
    traces = np.array([np.trace(pi_r.F) for pi_r in targets])
    d_max = max(dims, default=0)
    pair = (h.algebra.mult @ h.pair).reshape(n, n * n)  # pair[a, (b, c)] = h(a_a a_b a_c)
    weights = np.zeros((len(targets), d_max, d_max, n, n), dtype=complex)
    for d in dict.fromkeys(dims):
        idx = [r for r, dim in enumerate(dims) if dim == d]
        rows = np.array([targets[r].star_coeffs() for r in idx]).reshape(len(idx), d * d, n)
        weights[idx, :d, :d] = np.matmul(rows, pair).reshape(len(idx), d, d, n, n)
    labels = [pi_r.label for pi_r in targets]
    classes: dict[tuple[int, int], list[tuple[str, str]]] = {}
    for a, b in ordered:
        classes.setdefault((factors[a].dim, factors[b].dim), []).append((a, b))
    gaps = {}
    for (d_a, d_b), keys in classes.items():
        firsts = list(dict.fromkeys(a for a, _ in keys))
        seconds = list(dict.fromkeys(b for _, b in keys))
        a_rows = np.array([factors[a].coeffs for a in firsts]).reshape(len(firsts), -1, n)
        b_rows = np.array([factors[b].coeffs for b in seconds]).reshape(len(seconds), -1, n)
        lhs = np.matmul(np.matmul(a_rows, weights[:, :, :, None])[:, :, :, :, None],
                        b_rows.swapaxes(1, 2))            # [r, u, l, a, b, (s, j), (t, k)]
        lhs = np.moveaxis(lhs[:, :, :, [firsts.index(a) for a, _ in keys],
                              [seconds.index(b) for _, b in keys]], 3, 0)  # [w, r, u, l, sj, tk]
        gap = np.abs(lhs).max(axis=(2, 3, 4, 5))
        fwd, inv, (w, r, _) = _padded_blocks([systems[key] for key in keys], labels, dims)
        # fwd[e, alpha, (s, t), u] / tr F^r, against inv[e, alpha, l, (j, k)]
        size = (len(w), fwd.shape[1], d_a * d_b * d_max)
        rhs = ((fwd / traces[r, None, None, None]).reshape(size).swapaxes(1, 2)
               @ inv.reshape(size)).reshape(len(w), d_a, d_b, d_max, d_max, d_a, d_b)
        rhs = rhs.transpose(0, 3, 4, 1, 5, 2, 6).reshape(len(w), *lhs.shape[2:])
        gap[w, r] = np.abs(lhs[w, r] - rhs).max(axis=(1, 2, 3, 4))
        gaps.update(zip(keys, gap))
    return gaps
