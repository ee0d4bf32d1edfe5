"""Finite-dimensional Hopf *-algebras given by structure constants.

Conventions
-----------
An algebra of dimension ``n`` has basis elements ``a_1 .. a_n`` (0-indexed in
code).  The structure constants are stored as

* ``mult[j, k, l]``    : ``a_j a_k = sum_l mult[j, k, l] a_l``
* ``comult[l, j, k]``  : ``coproduct(a_l) = sum_{j,k} comult[l, j, k] a_j (x) a_k``
* ``antipode[j, k]``   : ``S(a_j) = sum_k antipode[j, k] a_k``
* ``counit[j]``        : ``eps(a_j)``
* ``unit[j]``          : ``1 = sum_j unit[j] a_j``
* ``star[j, k]``       : ``(sum_j x_j a_j)^* = sum_{j,k} conj(x_j) star[j, k] a_k``

The star map is antilinear: coefficients are conjugated first, then the
``star`` matrix is applied.  With this convention ``* o * = id`` becomes the
matrix identity ``conj(star) @ star = I``.

Elements are plain complex coefficient vectors wrapped in :class:`Element`;
tensors in ``A (x) A`` are ``n x n`` coefficient matrices wrapped in
:class:`TensorElement` (entry ``[j, k]`` multiplies ``a_j (x) a_k``).

Validation is advisory: constructors only check shapes and that every entry
is finite, and the axiom suites (:func:`verify_hopf_axioms`,
:func:`verify_star_axioms`) report residuals so a broken spec can be loaded
and diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidSpec
from .report import Report

__all__ = [
    "HopfAlgebraSpec",
    "Element",
    "TensorElement",
    "LinearFunctional",
    "multiply",
    "coproduct",
    "unary_map",
    "counit_of",
    "verify_hopf_axioms",
    "verify_star_axioms",
    "build_dual",
    "verify_dual_pairing",
    "opposite_algebra",
]


def _as_complex(a, shape: tuple[int, ...], what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.shape != shape:
        raise InvalidSpec(f"{what} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidSpec(f"{what} has non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HopfAlgebraSpec:
    """A Hopf *-algebra presented by its structure constants."""

    dim: int
    mult: np.ndarray
    comult: np.ndarray
    antipode: np.ndarray
    counit: np.ndarray
    unit: np.ndarray
    star: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        n = int(self.dim)
        if n <= 0:
            raise InvalidSpec("dim must be positive")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "mult", _as_complex(self.mult, (n, n, n), "mult"))
        object.__setattr__(self, "comult", _as_complex(self.comult, (n, n, n), "comult"))
        object.__setattr__(self, "antipode", _as_complex(self.antipode, (n, n), "antipode"))
        object.__setattr__(self, "counit", _as_complex(self.counit, (n,), "counit"))
        object.__setattr__(self, "unit", _as_complex(self.unit, (n,), "unit"))
        object.__setattr__(self, "star", _as_complex(self.star, (n, n), "star"))

    # -- scale used to normalize residual tolerances ------------------------
    # cached: the structure arrays are read-only, so neither value can go stale
    @cached_property
    def magnitude(self) -> float:
        """Largest structure-constant magnitude (at least 1)."""
        return max(
            1.0,
            *(float(np.abs(t).max()) for t in
              (self.mult, self.comult, self.antipode, self.counit, self.unit, self.star)),
        )

    @cached_property
    def antipode_inv(self) -> np.ndarray:
        """Inverse antipode matrix (read-only); the antipode of a Hopf *-algebra is
        invertible, and a singular one raises ``InvalidSpec`` on every access."""
        try:
            inv = np.linalg.inv(self.antipode)
        except np.linalg.LinAlgError as exc:
            raise InvalidSpec(f"antipode matrix of {self.label!r} is singular") from exc
        inv.setflags(write=False)
        return inv

    @cached_property
    def _regular_carriers(self) -> dict:
        """Filled by :func:`cqglab.regular.regular_carrier`, one carrier per side."""
        return {}

    # -- element constructors ------------------------------------------------
    def element(self, coeffs) -> "Element":
        return Element(self, np.asarray(coeffs, dtype=complex))

    def basis_element(self, j: int) -> "Element":
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[j] = 1.0
        return Element(self, coeffs)

    def one(self) -> "Element":
        return Element(self, self.unit.copy())

    def random_element(self, rng: np.random.Generator) -> "Element":
        re = rng.standard_normal(self.dim)
        im = rng.standard_normal(self.dim)
        return Element(self, re + 1j * im)

    def is_commutative(self) -> bool:
        return bool(np.abs(self.mult - self.mult.swapaxes(0, 1)).max() <= 1e-12 * self.magnitude)

    def __repr__(self) -> str:  # keep frozen-dataclass noise out of test output
        return f"HopfAlgebraSpec({self.label or 'unnamed'}, dim={self.dim})"


def _same_spec(x, y) -> HopfAlgebraSpec:
    a, b = x.algebra, y.algebra
    if a is b:
        return a
    if a.dim != b.dim or not all(
        np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("mult", "comult", "antipode", "counit", "unit", "star")
    ):
        raise DimensionMismatch("operands belong to different algebras")
    return a


@dataclass(frozen=True)
class Element:
    """An element of the algebra as a complex coefficient vector."""

    algebra: HopfAlgebraSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (self.algebra.dim,):
            raise DimensionMismatch(
                f"coefficient vector has shape {arr.shape}, expected ({self.algebra.dim},)")
        object.__setattr__(self, "coeffs", arr)

    def __add__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        _same_spec(self, other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return Element(self.algebra, self.coeffs * complex(other))

    def __rmul__(self, scalar) -> "Element":
        return Element(self.algebra, complex(scalar) * self.coeffs)

    def star(self) -> "Element":
        return unary_map("star", self)

    def antipode(self) -> "Element":
        return unary_map("S", self)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_close(self, other: "Element", tol: float = 1e-9) -> bool:
        _same_spec(self, other)
        return bool(np.abs(self.coeffs - other.coeffs).max() <= tol)


@dataclass(frozen=True)
class TensorElement:
    """An element of ``A (x) A`` as an ``n x n`` coefficient matrix."""

    algebra: HopfAlgebraSpec
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        n = self.algebra.dim
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.shape != (n, n):
            raise DimensionMismatch(f"tensor coefficients have shape {arr.shape}, expected ({n}, {n})")
        object.__setattr__(self, "coeffs", arr)

    def map_legs(self, first=None, second=None) -> "TensorElement":
        """Apply linear maps (given as Element -> Element) legwise.

        Maps are given by their matrix action on coefficient vectors: a map f
        with ``f(a_j) = sum_k m[j, k] a_k`` acts on the first leg as
        ``m.T @ coeffs`` and on the second as ``coeffs @ m``.
        """
        out = self.coeffs
        if first is not None:
            out = first.T @ out
        if second is not None:
            out = out @ second
        return TensorElement(self.algebra, out)

    def contract(self) -> Element:
        """Apply the multiplication map ``M`` to get back an element of ``A``."""
        alg = self.algebra
        return Element(alg, np.einsum("jk,jkl->l", self.coeffs, alg.mult))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        _same_spec(self, other)
        return TensorElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        _same_spec(self, other)
        return TensorElement(self.algebra, self.coeffs - other.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class LinearFunctional:
    """A covector on ``A``; ``phi(x) = sum_j covector[j] x_j``."""

    algebra: HopfAlgebraSpec
    covector: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.covector, dtype=complex)
        if arr.shape != (self.algebra.dim,):
            raise DimensionMismatch("covector length does not match the algebra dimension")
        object.__setattr__(self, "covector", arr)

    def __call__(self, x: Element) -> complex:
        _same_spec(self, x)
        return complex(self.covector @ x.coeffs)


# ---------------------------------------------------------------------------
# structure-map operations
# ---------------------------------------------------------------------------

def multiply(x: Element, y: Element) -> Element:
    """Product ``xy = M(x (x) y)``."""
    alg = _same_spec(x, y)
    return Element(alg, np.einsum("j,k,jkl->l", x.coeffs, y.coeffs, alg.mult))


def coproduct(x: Element) -> TensorElement:
    """Coproduct of ``x`` as a tensor in ``A (x) A``."""
    alg = x.algebra
    return TensorElement(alg, np.einsum("l,ljk->jk", x.coeffs, alg.comult))


def counit_of(x: Element) -> complex:
    return complex(x.algebra.counit @ x.coeffs)


def unary_map(kind: str, x: Element) -> Element:
    """Apply one of the unary structure maps.

    ``kind`` is one of ``"S"``, ``"S_inverse"``, ``"S_squared"``, ``"star"``.
    ``S_inverse`` is realized as ``* o S o *``, which inverts the antipode on
    any valid spec; :func:`antipode_inverse_via_star` and the matrix inverse
    can be compared as a diagnostic.
    """
    alg = x.algebra
    if kind == "S":
        return Element(alg, x.coeffs @ alg.antipode)
    if kind == "S_squared":
        return Element(alg, x.coeffs @ alg.antipode @ alg.antipode)
    if kind == "S_inverse":
        return Element(alg, x.coeffs @ antipode_inverse_via_star(alg))
    if kind == "star":
        return Element(alg, np.conj(x.coeffs) @ alg.star)
    raise ValueError(f"unknown unary map {kind!r}")


def antipode_inverse_via_star(alg: HopfAlgebraSpec) -> np.ndarray:
    """The matrix of ``* o S o *`` (right action on row vectors).

    Equals ``antipode^{-1}`` exactly when the star axioms hold; exposed so the
    two routes can be compared in diagnostics.
    """
    return np.conj(alg.star @ alg.antipode) @ alg.star


# ---------------------------------------------------------------------------
# axiom suites
# ---------------------------------------------------------------------------

def _tol_for(alg: HopfAlgebraSpec, tol: float) -> float:
    return tol * alg.magnitude


def _legwise_product(coact: np.ndarray, m: np.ndarray, twisted: bool = False) -> np.ndarray:
    """``out[i, j, r, u]``: coefficient of ``a_r (x) a_u`` in ``coact(a_i) coact(a_j)``, the
    second legs multiplied in reversed order when ``twisted``.  Two n^5 half-products
    and one (n^2 x n^2) matrix product, each one BLAS call, never one n^8 loop.  The
    last is n^6, the largest cost of the axiom suite and of the product rules at n = 60."""
    firsts = np.tensordot(coact, m, axes=(1, 0))    # [i, q, s, r]: first legs of a_i times a_s
    # [j, s, q, u]: a_q times the second legs of a_j (twisted: the reverse)
    seconds = np.tensordot(coact, m, axes=(2, 0 if twisted else 1))
    return np.tensordot(firsts, seconds, axes=((1, 2), (2, 1))).transpose(0, 2, 1, 3)


def verify_hopf_axioms(alg: HopfAlgebraSpec, tol: float = 1e-9) -> Report:
    """Residuals of the Hopf-algebra axioms in structure-constant form.

    Each entry is the max-abs residual of one axiom; the report passes iff all
    residuals are below ``tol`` scaled by the largest structure constant.
    Every contraction is a matrix product of reshaped structure constants, run
    by BLAS, never an ``einsum`` loop: the n^5 sides of associativity,
    coassociativity and the bialgebra axiom are each one (n^2 x n) times
    (n x n^2) product, and the n^6 legwise product of :func:`_legwise_product`
    is the one larger step.  On 0/1 structure constants every sum is exact, so
    the residuals do not depend on the summation order.
    """
    m, mu, s = alg.mult, alg.comult, alg.antipode
    eps, u = alg.counit, alg.unit
    n = alg.dim
    report = Report(f"hopf axioms [{alg.label}]", meta={"algebra": alg.label, "tol": tol})
    t = _tol_for(alg, tol)

    def add(name: str, diff: np.ndarray, minus: np.ndarray | None = None) -> None:
        if minus is not None:
            diff -= minus  # in place: an n^5 line holds two n^4 arrays, not three
        report.add(name, float(np.abs(diff).max()), t)

    m_rows, mu_rows = m.reshape(n * n, n), mu.reshape(n * n, n)  # [(j, k), l], [(l, j), k]
    m_cols, mu_cols = m.reshape(n, n * n), mu.reshape(n, n * n)  # [j, (k, l)], [l, (j, k)]
    quad = (n, n, n, n)
    # associativity: sum_s m[jks] m[slt] = sum_s m[jst] m[kls]; the right side as [k, l, j, t]
    add("associativity", (m_rows @ m_cols).reshape(quad),
        (m_rows @ m.transpose(1, 0, 2).reshape(n, n * n)).reshape(quad).transpose(2, 0, 1, 3))
    # coassociativity: sum_j mu[ljk] mu[jst] = sum_j mu[lsj] mu[jtk]; the left side as [l, k, s, t]
    add("coassociativity", (mu_rows @ mu_cols).reshape(quad),
        (mu.transpose(0, 2, 1).reshape(n * n, n) @ mu_cols).reshape(quad).transpose(0, 2, 3, 1))
    # compatibility of coproduct with product: Delta(a_j) Delta(a_k) = Delta(a_j a_k)
    add("bialgebra", _legwise_product(mu, m), (m_rows @ mu_cols).reshape(quad))
    # counit is an algebra homomorphism
    add("counit multiplicative", m @ eps - np.outer(eps, eps))
    # counit laws for the coproduct
    eye = np.eye(n)
    add("counit left", eps @ mu - eye)
    add("counit right", mu @ eps - eye)
    # unit relations
    add("unit vs antipode", u @ s - u)
    add("counit of unit", np.array(u @ eps - 1.0))
    add("unit left", u @ m - eye)
    add("unit right", (u @ m_cols).reshape(n, n) - eye)
    add("coproduct of unit", (u @ mu_cols).reshape(n, n) - np.outer(u, u))
    # antipode is an algebra/coalgebra antihomomorphism
    s_m = (s @ m).reshape(n, n * n)  # [r, (j, p)]: a_r S(a_j)
    add("antipode antimultiplicative",
        m @ s - (s @ s_m).reshape(n, n, n).transpose(1, 0, 2))
    mu_s = mu @ s
    add("antipode anticomultiplicative",
        (s @ mu_cols).reshape(n, n, n) - mu_s.transpose(0, 2, 1) @ s)
    # antipode law (both orders collapse to eps(x) 1)
    add("antipode law left",
        (mu.transpose(0, 2, 1) @ s).reshape(n, n * n) @ m.transpose(1, 0, 2).reshape(n * n, n)
        - np.outer(eps, u))
    add("antipode law right", mu_s.reshape(n, n * n) @ m_rows - np.outer(eps, u))
    add("counit of antipode", s @ eps - eps)
    return report


def verify_star_axioms(alg: HopfAlgebraSpec, tol: float = 1e-9) -> Report:
    """Residuals of the *-structure axioms (involutivity through unit reality)."""
    m, mu, s, st = alg.mult, alg.comult, alg.antipode, alg.star
    report = Report(f"star axioms [{alg.label}]", meta={"algebra": alg.label, "tol": tol})
    t = _tol_for(alg, tol)
    eye = np.eye(alg.dim)

    def add(name: str, diff: np.ndarray) -> None:
        report.add(name, float(np.abs(diff).max()), t)

    # * o * = id
    add("involution", np.conj(st) @ st - eye)
    # (a_j a_k)^* = a_k^* a_j^*
    right_star = np.einsum("jv,uvt->jut", st, m)  # a_u a_j^*
    add("antimultiplicative",
        np.einsum("jkl,lt->jkt", np.conj(m), st) - np.einsum("ku,jut->jkt", st, right_star))
    # coproduct commutes with * legwise
    add("comultiplicative",
        np.einsum("jl,lst->jst", st, mu) - np.einsum("jut,us->jst", np.conj(mu) @ st, st))
    # eps(a^*) = conj(eps(a))
    add("counit conjugation", st @ alg.counit - np.conj(alg.counit))
    # S o * o S o * = id  (equivalently S^{-1} = * o S o *)
    add("antipode star involution", np.conj(st @ s) @ (st @ s) - eye)
    # 1^* = 1
    add("unit real", np.conj(alg.unit) @ st - alg.unit)
    # antipode invertibility is forced; report the smallest singular value
    sigma = np.linalg.svd(s, compute_uv=False)
    report.add("antipode invertible", 0.0 if sigma[-1] > t else 1.0, 0.5,
               smallest_singular_value=float(sigma[-1]))
    return report


# ---------------------------------------------------------------------------
# dual algebra
# ---------------------------------------------------------------------------

def build_dual(alg: HopfAlgebraSpec) -> HopfAlgebraSpec:
    """The dual Hopf *-algebra on the dual basis ``a^1 .. a^n``.

    Multiplication of the dual is dual to the coproduct, comultiplication is
    dual to the product, the antipode is the transpose, the counit evaluates
    against the unit and vice versa.  The star is ``<x*, a> = conj(<x, S(a)*>)``.
    """
    star_dual = np.einsum("kt,tj->jk", alg.antipode, np.conj(alg.star))
    return HopfAlgebraSpec(
        dim=alg.dim,
        mult=alg.comult.transpose(1, 2, 0),
        comult=alg.mult.transpose(2, 0, 1),
        antipode=alg.antipode.T,
        counit=alg.unit.copy(),
        unit=alg.counit.copy(),
        star=star_dual,
        label=f"dual({alg.label})" if alg.label else "dual",
    )


def verify_dual_pairing(alg: HopfAlgebraSpec, dual: HopfAlgebraSpec, tol: float = 1e-12) -> Report:
    """Check the three defining pairing identities between ``alg`` and ``dual``.

    ``<M'(x,y), a> = <x (x) y, coproduct(a)>``, ``<coproduct'(x), a (x) b> =
    <x, M(a,b)>`` and ``<S'(x), a> = <x, S(a)>`` on all basis tuples.
    """
    report = Report(f"dual pairing [{alg.label}]", meta={"tol": tol})
    t = _tol_for(alg, tol)
    # <M'(a^j (x) a^k), a_l> = mult'[j,k,l]; <a^j (x) a^k, coproduct(a_l)> = comult[l,j,k]
    report.add("product vs coproduct",
               float(np.abs(dual.mult - alg.comult.transpose(1, 2, 0)).max()), t)
    report.add("coproduct vs product",
               float(np.abs(dual.comult - alg.mult.transpose(2, 0, 1)).max()), t)
    report.add("antipode transpose", float(np.abs(dual.antipode - alg.antipode.T).max()), t)
    report.add("counit vs unit", float(np.abs(dual.counit - alg.unit).max()), t)
    report.add("unit vs counit", float(np.abs(dual.unit - alg.counit).max()), t)
    return report


def opposite_algebra(alg: HopfAlgebraSpec) -> HopfAlgebraSpec:
    """The Hopf *-algebra with reversed product and inverse antipode.

    Diagnostic helper: twisted tensor operators of ``alg`` are ordinary tensor
    operators of the opposite algebra.
    """
    return HopfAlgebraSpec(
        dim=alg.dim,
        mult=alg.mult.transpose(1, 0, 2),
        comult=alg.comult.copy(),
        antipode=alg.antipode_inv,
        counit=alg.counit.copy(),
        unit=alg.unit.copy(),
        star=alg.star.copy(),
        label=f"op({alg.label})" if alg.label else "op",
    )


def random_elements(alg: HopfAlgebraSpec, count: int, seed: int = 0) -> list[Element]:
    rng = np.random.default_rng(seed)
    return [alg.random_element(rng) for _ in range(count)]
