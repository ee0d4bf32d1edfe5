"""Quantum homogeneous spaces: coideal *-subalgebras and restricted machinery.

A homogeneous space is carried by a *-subalgebra ``B`` of the algebra that is
a right coideal (``coproduct(B)`` inside ``B (x) A``, used with the right
regular formalism) or a left coideal (``coproduct(B)`` inside ``A (x) B``,
used with the left formalism; additionally required to be ``S^2``-invariant).
:func:`state_coideal` builds them as ranges of ``(phi (x) id) Delta``, ``phi`` an idempotent
state (Franz and Skalski, J. Algebra 322, 2009): a subgroup's Haar state on ``C(G)`` gives cosets.

Everything downstream -- basis functions, tensor operators, Wigner-Eckart
factorizations, operator products -- is the full machinery on ``B``'s
:class:`cqglab.regular.Carrier`, in an orthonormal basis for the restricted
invariant inner product: its Gram matrix is the identity and its operators are
``b x b`` matrices.  This module keeps what is about ``B`` itself, and computes no
residual that its reports do not show (``B``'s comodule axioms read no unitarity).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .algebra import HopfAlgebraSpec, LinearFunctional, _freeze, _regular_side, _same_spec
from .corep import (RANK_RCOND, Corepresentation, IrrepTable, _comodule_gaps, _gram_basis,
                    _range_basis, _restrict, decompose_comodule)
from .errors import (CoidealMismatch, DimensionMismatch, NotAnIdempotentState, NotASubgroup,
                     PositivityFailure)
from .groups import GroupTable
from .haar import GramPair, HaarFunctional, _haar_invariance, _positivity
from .regular import BasisFunctionSet, Carrier, canonical_basis_functions, regular_carrier
from .report import Report
from .tensor_ops import TensorOperatorFamily, operator_comodule

__all__ = [
    "CoidealSubalgebra",
    "state_coideal",
    "build_coset_subalgebra",
    "subspace_coideal",
    "verify_coideal",
    "restricted_gram",
    "restricted_coaction_report",
    "solve_restricted_basis_functions",
    "canonical_restricted_candidates",
    "solve_restricted_family",
]


@dataclass(frozen=True, eq=False)
class CoidealSubalgebra:
    """A subspace of the algebra flagged as a coideal *-subalgebra.

    ``span_rows`` is the raw spanning basis: the rows given to :func:`subspace_coideal`, or
    :func:`state_coideal`'s orthonormal basis of a range.  ``side`` names the regular formalism:
    "R" for a right coideal, "L" for a left coideal; ``gram`` is that side's
    invariant Gram matrix of the whole algebra.  Both are stored as read-only
    copies.  The orthonormal basis :attr:`onb` and the :attr:`carrier` are
    derived from them once, on first use.
    """

    algebra: HopfAlgebraSpec
    span_rows: np.ndarray   # (b, n)
    side: str
    gram: np.ndarray        # (n, n)
    label: str = ""

    def __post_init__(self) -> None:
        # read-only copies: an in-place edit cannot change B under its cached onb and carrier
        _freeze(self, "span_rows", "gram")
        n = self.algebra.dim
        if self.span_rows.ndim != 2 or self.span_rows.shape[1] != n:
            raise DimensionMismatch(f"coefficient rows of shape {self.span_rows.shape} do not "
                                    f"fit {self.algebra.label!r} of dimension {n}")
        if self.gram.shape != (n, n):
            raise DimensionMismatch(f"gram of shape {self.gram.shape} does not fit the rows of "
                                    f"shape {self.span_rows.shape}: it must be ({n}, {n})")
        if self.side not in ("R", "L"):
            raise ValueError("side must be 'R' or 'L'")

    @property
    def dim(self) -> int:
        return self.span_rows.shape[0]

    @cached_property
    def onb(self) -> np.ndarray:
        """``(b, n)`` rows orthonormal for the restricted inner product."""
        return _gram_basis(restricted_gram(self)).T @ self.span_rows

    @cached_property
    def carrier(self) -> Carrier:
        """``B`` as a carrier in its ONB: the coaction with its first leg restricted to
        ``B`` and ``B``'s structure constants (``CoidealMismatch`` if either escapes)."""
        onb, alg = self.onb, self.algebra
        lifted = np.tensordot(onb, regular_carrier(alg, self.side).coact, axes=(1, 0))
        coact = self.restrict(lifted.transpose(0, 2, 1)).transpose(0, 2, 1)
        products = np.tensordot(onb, np.tensordot(onb, alg.mult, axes=(1, 1)), axes=(1, 1))
        return Carrier(alg, self.side, coact, self.restrict(products))

    def embed(self, coords: np.ndarray) -> np.ndarray:
        """B-coordinates (..., b) -> algebra coefficients (..., n)."""
        return np.asarray(coords, dtype=complex) @ self.onb

    def restrict(self, vecs: np.ndarray) -> np.ndarray:
        """Algebra coefficients ``(..., n)`` -> B-coordinates ``(..., b)`` by
        :func:`cqglab.corep._restrict`; errors if any lies outside the span."""
        vecs = np.asarray(vecs, dtype=complex)
        coords, escape = _restrict(vecs, self.onb.T, self.gram)
        if escape > 1e-9 * self.algebra.magnitude:
            raise CoidealMismatch(f"an element escapes the span of {self.label!r} by {escape:.2e}")
        return coords


def state_coideal(phi: LinearFunctional, side: str, grams: GramPair) -> CoidealSubalgebra:
    """The range of ``E_phi``, ``phi`` on the first leg of the side's coproduct, once ``phi``
    is certified an idempotent state: a coideal *-subalgebra, as ``E_phi E_phi = E_(phi*phi)``.
    ``NotAnIdempotentState`` names the first failed certificate: ``phi(1) = 1``, ``phi(a_i^* a_j)``
    Hermitian and positive semidefinite (a state's is usually singular), ``E_phi phi = phi``.
    ``DimensionMismatch`` if ``phi`` is on another algebra than ``grams``."""
    alg, cov = _same_spec(phi, grams), phi.covector
    e_phi = np.tensordot(_regular_side(alg, side)[0], cov, axes=(1, 0))  # [l, k]: E_phi(a_l)
    herm, min_eig, floor = _positivity(alg.star @ phi.pair)
    t = 1e-9 * alg.magnitude
    for name, gap, bound in (("normalization", abs(complex(alg.unit @ cov) - 1.0), t),
                             ("hermiticity", herm, t), ("positivity", -min_eig, floor),
                             ("idempotency", float(np.abs(e_phi @ cov - cov).max()), t)):
        if gap > bound:
            raise NotAnIdempotentState(f"no idempotent state of {alg.label!r}: {name} {gap:.2e}")
    return subspace_coideal(_range_basis(e_phi.T[None], RANK_RCOND)[0], side, grams)


def build_coset_subalgebra(group: GroupTable, subgroup: list[int], side: str,
                           grams: GramPair) -> CoidealSubalgebra:
    """:func:`state_coideal` of ``subgroup``'s indicator over its value on the unit.  On ``C(G)``,
    B is the functions constant on cosets ``gH`` (side "L") or ``Hg`` (side "R"); on ``C[G]``,
    B = ``C[H]``.  Raises ``NotASubgroup``, or ``DimensionMismatch`` unless ``|G| = dim A``."""
    alg, members = grams.algebra, group._members(subgroup)
    if members is None:
        raise NotASubgroup(f"{subgroup} is not a subgroup")
    indicator = LinearFunctional(alg, members).covector  # DimensionMismatch unless |G| = dim A
    phi = LinearFunctional(alg, indicator / (alg.unit @ indicator))
    return replace(state_coideal(phi, side, grams), label=f"{alg.label}/H{members.sum()}:{side}")


def subspace_coideal(rows: np.ndarray, side: str, grams: GramPair) -> CoidealSubalgebra:
    """Wrap an arbitrary spanning set of ``grams.algebra``; validity comes from verify_coideal."""
    return CoidealSubalgebra(grams.algebra, rows, side, grams.gram(side),
                             label=f"B<{grams.algebra.label}:{side}")


def verify_coideal(coideal: CoidealSubalgebra, tol: float = 1e-9) -> Report:
    """Closure and coideal residuals of a candidate subspace.

    Checks *-subalgebra closure (products, stars, unit), the side's coideal
    condition (the matching coproduct leg stays in the span), and
    ``S^2``-invariance: a check on side "L", and on side "R" only recorded, as
    the meta entry ``"S^2 invariance"``.
    """
    alg = coideal.algebra
    rows = coideal.span_rows
    q, _ = np.linalg.qr(rows.conj().T)
    comp = np.eye(alg.dim) - q @ q.conj().T   # projector off the span, standard inner product
    report = Report(f"coideal axioms [{coideal.label}]", meta={"tol": tol})
    t = tol * alg.magnitude * max(1.0, float(np.abs(rows).max()) ** 2)

    products = np.tensordot(rows, np.tensordot(rows, alg.mult, axes=(1, 1)), axes=(1, 1))
    report.add("product closure", float(np.abs(products @ comp.T).max()), t)
    stars = np.conj(rows) @ alg.star
    report.add("star closure", float(np.abs(stars @ comp.T).max()), t)
    report.add("unit membership", float(np.abs(comp @ alg.unit).max()), t)

    legs = np.einsum("it,tab->iab", rows, _regular_side(alg, coideal.side)[0])  # left: Delta^cop
    escape = np.einsum("iab,ac->icb", legs, comp)  # first leg outside the span
    report.add("coideal condition", float(np.abs(escape).max()), t)

    s2 = rows @ alg.antipode @ alg.antipode
    s2_res = float(np.abs(s2 @ comp.T).max())
    if coideal.side == "L":
        report.add("S^2 invariance", s2_res, t)
    else:
        report.meta["S^2 invariance"] = s2_res
    return report


def restricted_gram(coideal: CoidealSubalgebra) -> np.ndarray:
    """The coideal's side's invariant inner product on the raw spanning basis.

    Hermiticity is held to ``1e-9`` times the Gram's largest entry (at least 1),
    so a valid coideal spanned by large rows passes.
    """
    gram_b = np.conj(coideal.span_rows) @ coideal.gram @ coideal.span_rows.T
    herm, min_eig, floor = _positivity(gram_b)
    if herm > 1e-9 * max(1.0, float(np.abs(gram_b).max())) or min_eig <= floor:
        raise PositivityFailure(
            f"restricted {coideal.side} Gram of {coideal.label!r} fails positivity "
            f"(hermiticity {herm:.2e}, min eig {min_eig:.2e})")
    return gram_b


def restricted_coaction_report(coideal: CoidealSubalgebra, h: HaarFunctional,
                               tol: float = 1e-10) -> Report:
    """Comodule axioms (:func:`cqglab.corep._comodule_gaps` of ``B``'s comodule, the transposed
    coaction tensor: no unitarity) and two-sided Haar invariance of the restricted coaction."""
    alg = coideal.algebra
    coact = coideal.carrier.coact
    report = Report(f"restricted coaction [{coideal.label}]", meta={"tol": tol})
    t = tol * alg.magnitude
    # stacked in C order: from a transposed view, _legs would copy its b^2 n^2 product
    axioms = _comodule_gaps(alg, np.array([coact.transpose(1, 0, 2)], dtype=complex))
    report.extend(["coassociativity", "counit"], [np.abs(gap).max() for gap in axioms.values()], t)
    left, right = _haar_invariance(coact, coideal.onb, h)
    report.add("left invariance", left, t)
    report.add("right invariance", right, t)
    return report


# ---------------------------------------------------------------------------
# basis functions and tensor operators on B
# ---------------------------------------------------------------------------

def solve_restricted_basis_functions(coideal: CoidealSubalgebra, table: IrrepTable
                                     ) -> dict[str, list[BasisFunctionSet]]:
    """Bases of the spaces of basis-function tuples on ``B``'s carrier, by table label.

    The defining relation ``coaction(psi_j) = sum_k psi_k (x) pi_kj`` makes the
    tuples for ``pi`` the space ``Hom(pi, B)`` (:func:`_hom_bases`), of dimension
    the multiplicity of ``pi`` in ``B``: it may be empty, unlike the unrestricted case.
    """
    carrier = coideal.carrier
    bases = _hom_bases(Corepresentation(coideal.algebra, carrier.coact.transpose(1, 0, 2)), table)
    return {label: [BasisFunctionSet(table[label], coideal.side, phi.T,
                                     label=f"res{idx}[{label}|{coideal.label}]", carrier=carrier)
                    for idx, phi in enumerate(phis)] for label, phis in bases.items()}


def canonical_restricted_candidates(pi: Corepresentation,
                                    coideal: CoidealSubalgebra) -> list[BasisFunctionSet]:
    """Canonical row/column sets whose entries happen to lie in ``B``, on its carrier.

    Side "R": rows ``pi_l.`` with every entry in ``B``; side "L": rows ``S(pi_l.)``, a left
    set of every corep ``pi`` (the paper's ``S^{-2}(pi^*_{. l})`` exactly when ``pi`` is
    unitary), requiring the corep entries in ``B``."""
    out = []
    for ell in range(pi.dim):
        funcs = canonical_basis_functions(pi, coideal.side, ell).functions
        try:
            coords = coideal.restrict(funcs)
        except CoidealMismatch:
            continue
        out.append(BasisFunctionSet(
            pi, coideal.side, coords, label=f"canon{ell}[{pi.label}|{coideal.label}]",
            carrier=coideal.carrier))
    return out


def solve_restricted_family(coideal: CoidealSubalgebra, kind: str, table: IrrepTable
                            ) -> dict[str, list[TensorOperatorFamily]]:
    """Bases of the spaces of families on ``B``'s carrier for one variant, by table label:
    ``Hom(pi, End(B))`` (:func:`_hom_bases`) for the restricted operator comodule
    (:func:`cqglab.tensor_ops.operator_comodule`)."""
    carrier, b = coideal.carrier, coideal.dim
    ops = operator_comodule(carrier.coact, coideal.algebra, kind)
    bases = _hom_bases(Corepresentation(coideal.algebra, ops), table)
    return {label: [TensorOperatorFamily(table[label], kind, coideal.side,
                                         phi.T.reshape(-1, b, b), label=f"res-sol{idx}[{label}]",
                                         carrier=carrier)
                    for idx, phi in enumerate(phis)] for label, phis in bases.items()}


def _hom_bases(comodule: Corepresentation, table: IrrepTable) -> dict[str, list[np.ndarray]]:
    """``Hom(pi^r, W)`` for every table label, ``W`` a comodule on ``B``, from one
    :func:`cqglab.corep.decompose_comodule`.  ``B``'s ONB makes ``W`` unitary, so its
    pieces ``[P^r_l1 v]_l / sqrt(d_r)`` are already orthonormal as vectors and
    phase-fixed."""
    bases = {label: [] for label in table.labels}
    for phi, rho in decompose_comodule(comodule, table):
        bases[rho.label].append(phi)
    return bases
