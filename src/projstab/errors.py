"""Exception types shared across the package.

Every error raised by the library is a subclass of ProjstabError, so callers
can catch the whole family with one clause.  The concrete names mirror the
failure they report; nothing here carries state beyond the message except
ParseError (input position).
"""

from __future__ import annotations


class ProjstabError(Exception):
    """Base class for all errors raised by projstab."""


class DegreeMismatch(ProjstabError):
    """A multi-index does not sum to the declared degree."""


class DimensionMismatch(ProjstabError):
    """A vector, point or exponent tuple has the wrong length."""


class ZeroMap(ProjstabError):
    """All components of a map are the zero polynomial."""


class SingularMatrix(ProjstabError):
    """A matrix required to be invertible has determinant zero."""


class WrongDimension(ProjstabError):
    """The operation is only defined for a specific projective dimension."""


class SizeLimit(ProjstabError):
    """A matrix construction exceeds the configured dimension bound."""


class BadPrime(ProjstabError):
    """The modulus is not a proven prime, or a denominator vanishes mod it."""


class NotASolution(ProjstabError):
    """A proposed weight vector violates some support constraint."""


class InvalidBlock(ProjstabError):
    """A block structure is inconsistent with the map it claims to describe."""


class NotAMorphism(ProjstabError):
    """The operation requires a morphism (nonvanishing resultant)."""


class InternalContradiction(ProjstabError):
    """A consequence guaranteed by theory failed; indicates a bug upstream."""


class ParseError(ProjstabError):
    """A map document failed to parse or validate."""

    def __init__(self, message: str, lineno: int | None = None,
                 colno: int | None = None, path: str | None = None):
        detail = message
        if path:
            detail = f"{detail} (at {path})"
        if lineno is not None:
            detail = f"{detail} (line {lineno}, column {colno})"
        super().__init__(detail)
        self.lineno = lineno
        self.colno = colno
        self.path = path


class BudgetExceeded(ProjstabError):
    """An enumeration box exceeds the configured candidate budget."""
