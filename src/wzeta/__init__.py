"""Exact verification of discrete telescoping pairs and certified
high-precision summation of the fast ζ(3) series they produce."""

from .algebra import LinearForm, Polynomial, RationalFunction
from .catalog import Catalog, load_catalog
from .dsl import parse_term, render_term
from .errors import (
    CatalogError,
    DomainError,
    IncompatibleTerms,
    MonotonicityViolation,
    NonAlternating,
    ParseError,
    SingularGrid,
    StructureError,
    TailBoundError,
    WZetaError,
)
from .precision import (
    EvalReport,
    compare_series,
    measure_rate,
    sum_to_digits,
    truncated_decimal,
)
from .series import ALTERNATING, POSITIVE, SeriesSpec
from .terms import Domain, HyperTerm, cross_ratio
from .wz import (
    VerifyReport,
    WZPair,
    accelerate,
    certificate,
    lhs_series,
    two_sided_gap,
    verify_grid,
    verify_symbolic,
)

__version__ = "0.1.0"

__all__ = [
    "ALTERNATING",
    "Catalog",
    "CatalogError",
    "Domain",
    "DomainError",
    "EvalReport",
    "HyperTerm",
    "IncompatibleTerms",
    "LinearForm",
    "MonotonicityViolation",
    "NonAlternating",
    "POSITIVE",
    "ParseError",
    "Polynomial",
    "RationalFunction",
    "SeriesSpec",
    "SingularGrid",
    "StructureError",
    "TailBoundError",
    "VerifyReport",
    "WZPair",
    "WZetaError",
    "accelerate",
    "certificate",
    "compare_series",
    "cross_ratio",
    "lhs_series",
    "load_catalog",
    "measure_rate",
    "parse_term",
    "render_term",
    "sum_to_digits",
    "two_sided_gap",
    "truncated_decimal",
    "verify_grid",
    "verify_symbolic",
]
