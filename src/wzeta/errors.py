"""Exception hierarchy shared across the package, and naming(), the one
way a re-raised error gains the name of its source."""

from contextlib import contextmanager
from typing import Iterator


class WZetaError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(WZetaError):
    """A term was evaluated outside its validity domain (negative factorial
    argument, vanishing denominator, or index below the series start)."""


class IncompatibleTerms(WZetaError):
    """Two terms whose quotient is not a rational function (factorial or
    sign structures cannot be aligned)."""


class ParseError(WZetaError):
    """Malformed expression text.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.position = position
        self.expected = tuple(expected)
        suffix = f" at offset {position}"
        if self.expected:
            suffix += " (expected: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(message + suffix)


class StructureError(WZetaError):
    """Expression parsed but is not a product/quotient of allowed factors
    (integer literals, (-1)^linear, linear-form factorials, polynomials)."""


class SingularGrid(WZetaError):
    """No zero-free evaluation grid found within the search window."""


class NonAlternating(WZetaError):
    """Consecutive series terms share a sign, so the alternating-series
    error bound does not apply."""


class MonotonicityViolation(WZetaError):
    """Term magnitudes stopped decreasing, so the alternating-series
    error bound does not apply."""


class TailBoundError(WZetaError):
    """No sound tail bound could be established for the series."""


class CatalogError(WZetaError):
    """Catalog file missing, unreadable, or naming an unknown entry."""


@contextmanager
def naming(source: str) -> Iterator[None]:
    """A WZetaError raised within, re-raised as the same object with its
    message prefixed "{source}: "; any other exception passes unchanged."""
    try:
        yield
    except WZetaError as exc:
        exc.args = (f"{source}: {exc}",)
        raise
