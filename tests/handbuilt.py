"""The bundled catalog built directly from the term model, with no parser
and no pair: handbuilt_terms is the oracle for the parsed entries,
handbuilt_series for the series that the catalog derives from its pairs."""

from fractions import Fraction

from wzeta.algebra import LinearForm, Polynomial
from wzeta.terms import HyperTerm

_N = LinearForm(1, 0, 0)
_K = LinearForm(0, 1, 0)


def _forms_product(*factors: tuple[LinearForm, int]) -> Polynomial:
    result = Polynomial.const(1)
    for form, power in factors:
        result = result * form.to_polynomial() ** power
    return result


def handbuilt_terms() -> dict[str, HyperTerm]:
    """The catalog entries built directly from the term model (no parser)."""
    k_plus_1 = LinearForm(0, 1, 1).to_polynomial()
    return {
        "f_s1": HyperTerm(
            _K,
            ((_K, 2), (LinearForm(1, -1, -1), 1), (LinearForm(1, 1, 1), -1)),
            poly_den=k_plus_1,
        ),
        "g_s1": HyperTerm(
            _K,
            ((_K, 2), (LinearForm(1, -1, 0), 1), (LinearForm(1, 1, 1), -1)),
            poly_den=_forms_product((LinearForm(1, 0, 1), 2)),
            constant=Fraction(2),
        ),
        "f_s2": HyperTerm(
            _K,
            ((_K, 2), (LinearForm(2, -1, -1), 1), (LinearForm(2, 1, 1), -1)),
            poly_den=k_plus_1,
        ),
        "g_s2": HyperTerm(
            _K,
            ((_K, 2), (LinearForm(2, -1, 0), 1), (LinearForm(2, 1, 2), -1)),
            poly_num=_forms_product((LinearForm(4, 0, 3), 1))
            * Polynomial({(2, 0): 4, (1, 0): 6, (0, 1): 1, (0, 0): 3}),
            poly_den=_forms_product((LinearForm(1, 0, 1), 2), (LinearForm(2, 0, 1), 2)),
            constant=Fraction(1, 2),
        ),
        "zeta3_s1": HyperTerm(constant=Fraction(2)),
        "zeta3_s2": HyperTerm(constant=Fraction(2)),
        "s3": HyperTerm(
            _N,
            ((_N, 2), (LinearForm(2, 0, 0), 1), (LinearForm(4, 0, 0), -1)),
            poly_num=Polynomial(
                {(4, 0): 5265, (3, 0): 13878, (2, 0): 13761, (1, 0): 6120, (0, 0): 1040}
            ),
            poly_den=_forms_product(
                (LinearForm(4, 0, 1), 1),
                (LinearForm(4, 0, 3), 1),
                (LinearForm(1, 0, 1), 1),
                (LinearForm(3, 0, 1), 2),
                (LinearForm(3, 0, 2), 2),
            ),
            constant=Fraction(1, 72),
        ),
    }


def handbuilt_series() -> dict[str, HyperTerm]:
    """The terms of the catalog series derived from the pairs: sN sums to
    ζ(3) and lhs_sN to 2ζ(3)."""
    return {
        "s1": HyperTerm(
            LinearForm(1, 0, 1),
            ((_N, 2), (LinearForm(2, 0, 0), -1)),
            poly_den=_forms_product((_N, 3)),
            constant=Fraction(5, 2),
        ),
        "s2": HyperTerm(
            LinearForm(1, 0, 1),
            ((_N, 3), (LinearForm(3, 0, 0), -1)),
            poly_num=Polynomial({(2, 0): 56, (1, 0): -32, (0, 0): 5}),
            poly_den=_forms_product((LinearForm(2, 0, -1), 2), (_N, 3)),
            constant=Fraction(1, 4),
        ),
        "lhs_s1": HyperTerm(
            poly_den=_forms_product((LinearForm(1, 0, 1), 3)),
            constant=Fraction(2),
        ),
        "lhs_s2": HyperTerm(
            poly_num=_forms_product((LinearForm(4, 0, 3), 1))
            * Polynomial({(2, 0): 4, (1, 0): 6, (0, 0): 3}),
            poly_den=_forms_product((LinearForm(1, 0, 1), 3), (LinearForm(2, 0, 1), 3)),
            constant=Fraction(1, 4),
        ),
    }
