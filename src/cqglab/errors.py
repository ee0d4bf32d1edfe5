"""Exception and warning types shared across the package."""

from __future__ import annotations


class CqglabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CqglabError):
    """Operands do not live over the same algebra or have the wrong shape."""


class InvalidSpec(CqglabError):
    """A structure-constant spec is malformed (shapes, singular antipode, ...)."""


class InvalidGroupTable(CqglabError):
    """A multiplication table is not a group table."""


class NotASubgroup(CqglabError):
    """A set of element indices is not closed under multiplication/inverse."""


class NotAnIdempotentState(CqglabError):
    """A functional meant to give a coideal is not normalized, positive or idempotent."""


class NoHaar(CqglabError):
    """The normalized regular trace is not a Haar functional: not a CQG-algebra spec."""


class PositivityFailure(CqglabError):
    """A Gram matrix that must be positive definite is not."""


class NoF(CqglabError):
    """``S^2`` moves a corepresentation's matrix coefficients, so ``F = I`` fails:
    the spec is not a CQG algebra."""


class NotACorepresentation(CqglabError):
    """An operation requiring a corepresentation got one that fails the comodule axioms."""


class DecompositionStall(CqglabError):
    """The irrep table's split left a non-invariant or reducible piece or a part that
    does not cut, or a family space's convolutions or rank failed their certificate."""


class MultiplicityMismatch(CqglabError):
    """Intertwiner solution-space dimension disagrees with the character count."""


class PeterWeylFailure(CqglabError):
    """An irrep table's matrix coefficients are no usable basis of the algebra: they do
    not span it, span it too ill-conditioned, or a regular coaction is not
    block-diagonal in them."""


class SingularC(CqglabError):
    """The assembled Clebsch-Gordan matrix is not invertible."""


class NonIntegerMultiplicity(CqglabError):
    """A character inner product is not close to a nonnegative integer."""


class CoidealMismatch(CqglabError):
    """A coaction leg escapes the subalgebra that should carry it."""


class SchemaError(CqglabError):
    """A JSON file does not match the expected schema."""


class LinearDependenceWarning(UserWarning):
    """Products of basis functions are linearly dependent; coupled sets may vanish."""
