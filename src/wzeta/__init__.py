"""Exact verification of discrete telescoping pairs and certified
high-precision summation of the fast ζ(3) series they produce.

The public names resolve on first access (PEP 562), each from its own
module, so that `import wzeta` loads nothing and a command loads only the
modules it runs: `verify` never loads the summation engine."""

__version__ = "0.1.0"

_HOMES = {
    "algebra": ("LinearForm", "Polynomial", "RationalFunction"),
    "catalog": ("Catalog", "load_catalog"),
    "dsl": ("parse_term", "render_term"),
    "errors": ("CatalogError", "DomainError", "IncompatibleTerms", "MonotonicityViolation",
               "NonAlternating", "ParseError", "SingularGrid", "StructureError",
               "TailBoundError", "WZetaError"),
    "pair": ("WZPair",),
    "series": ("ALTERNATING", "EvalReport", "POSITIVE", "SeriesSpec", "measure_rate",
               "sum_to_digits", "truncated_decimal"),
    "terms": ("Domain", "HyperTerm", "cross_ratio"),
    "wz": ("VerifyReport", "accelerate", "certificate", "lhs_series", "two_sided_gap",
           "verify_grid", "verify_symbolic"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
