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

An element is its ``(n,)`` complex coefficient vector and a tensor in
``A (x) A`` its ``(n, n)`` coefficient matrix (entry ``[j, k]`` multiplies
``a_j (x) a_k``); every structure map acts on them through the arrays above.

A spec stores its six arrays in one dtype, the narrowest that holds them
exactly: float64 when no entry has a nonzero imaginary part (every group
algebra and function algebra), complex128 otherwise.  What is computed from the
spec alone (the axiom suites, the regular coaction tensors, the dual) inherits
that dtype and runs real BLAS on real specs; every other value (functionals,
corepresentations and what is built from them) is stored complex, and a real
structure tensor meeting complex data is promoted by numpy.

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
    "LinearFunctional",
    "verify_hopf_axioms",
    "verify_star_axioms",
    "build_dual",
]


def _freeze(obj, *names: str) -> None:
    """Set each named field of the frozen dataclass ``obj`` to a read-only complex copy
    of its value: the caller's array is neither shared nor made read-only."""
    for name in names:
        arr = np.array(getattr(obj, name), dtype=complex)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


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
        shapes = {"mult": (n, n, n), "comult": (n, n, n), "antipode": (n, n),
                  "counit": (n,), "unit": (n,), "star": (n, n)}
        given = [np.asarray(getattr(self, name)) for name in shapes]
        given = [arr if arr.dtype.kind in "biufc" else arr.astype(complex) for arr in given]
        # one dtype per spec: real unless some entry has a nonzero imaginary part
        real = not any(arr.dtype.kind == "c" and arr.imag.any() for arr in given)
        for (name, shape), arr in zip(shapes.items(), given):
            # one read-only copy, so the caller's array stays theirs
            arr = np.array(arr.real, dtype=float) if real else np.array(arr, dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
            if arr.shape != shape:
                raise InvalidSpec(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise InvalidSpec(f"{name} has non-finite entries")

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


@dataclass(frozen=True, eq=False)
class LinearFunctional:
    """A covector on ``A``; ``phi(x) = sum_j covector[j] x_j``."""

    algebra: HopfAlgebraSpec
    covector: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, "covector")
        if self.covector.shape != (self.algebra.dim,):
            raise DimensionMismatch("covector length does not match the algebra dimension")

    # cached: the covector and the product are read-only, so the pairing cannot go stale
    @cached_property
    def pair(self) -> np.ndarray:
        """The pairing ``pair[a, b] = phi(a_a a_b)`` (read-only), the one place it is formed."""
        pair = self.algebra.mult @ self.covector
        pair.setflags(write=False)
        return pair


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


def _product_rule_gap(coact: np.ndarray, m: np.ndarray, twisted: bool) -> float:
    """``max |coact(a_i) coact(a_j) - coact(a_i a_j)|`` over all basis pairs, the
    second legs multiplied in reversed order when ``twisted``: the bialgebra axiom
    for ``coact = comult``.  The subtraction is in place, so the n^5 line holds two
    n^4 arrays, not three."""
    n = len(m)
    gap = _legwise_product(coact, m, twisted)
    gap -= (m.reshape(n * n, n) @ coact.reshape(n, n * n)).reshape(n, n, n, n)
    return float(np.abs(gap).max())


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
    report.add("bialgebra", _product_rule_gap(mu, m, twisted=False), t)
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
        counit=alg.unit,
        unit=alg.counit,
        star=star_dual,
        label=f"dual({alg.label})" if alg.label else "dual",
    )
