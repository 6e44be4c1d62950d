import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wzeta.algebra import (
    LinearForm,
    Polynomial,
    RationalFunction,
    dense_divide,
    dense_gcd,
    horner,
    integer_root_bound,
)

N = Polynomial.variable("n")
K = Polynomial.variable("k")
ONE = Polynomial.const(1)


def test_linear_form_basics():
    f = LinearForm(2, -1, 3)
    assert f.value(5, 4) == 9
    shifted = f.substituted(LinearForm(1, 0, 1), LinearForm(0, 1, 2))  # n+1, k+2
    assert shifted == LinearForm(2, -1, 3)  # coefficients unchanged
    assert shifted.c == 3 + 2 - 2
    assert (f + LinearForm(0, 1, -3)) == LinearForm(2, 0, 0)
    assert f.scaled(2) == LinearForm(4, -2, 6)
    assert not f.is_constant
    assert LinearForm(0, 0, 7).is_constant
    assert f.direction() == (2, -1)


def test_linear_form_substituted():
    # n -> 2n - 1, k -> n - 1 turns a*n + b*k + c into a one-variable form
    f = LinearForm(1, 1, 1)
    g = f.substituted(LinearForm(2, 0, -1), LinearForm(1, 0, -1))
    assert g.b == 0
    for n in range(6):
        assert g.value(n, 0) == f.value(2 * n - 1, n - 1)
    # n -> k - n + 3, k -> 2n + k: two variables in, two out
    h = LinearForm(2, -3, 5).substituted(LinearForm(-1, 1, 3), LinearForm(2, 1, 0))
    for n in range(-3, 4):
        for k in range(-3, 4):
            assert h.value(n, k) == LinearForm(2, -3, 5).value(k - n + 3, 2 * n + k)


def test_linear_form_str():
    assert str(LinearForm(2, -1, 0)) == "2*n-k"
    assert str(LinearForm(0, 1, 1)) == "k+1"
    assert str(LinearForm(0, 0, 5)) == "5"
    assert str(LinearForm(1, 0, -3)) == "n-3"
    assert str(LinearForm()) == "0"
    assert str(LinearForm(-1, 3, -12)) == "-n+3*k-12"


def test_polynomial_construction_and_eval():
    p = Polynomial({(2, 0): 4, (1, 1): -2, (0, 0): 3})
    assert p.evaluate(2, 5) == 4 * 4 - 2 * 2 * 5 + 3
    assert p.degree("n") == 2 and p.degree("k") == 1
    assert Polynomial.const(0).is_zero
    assert Polynomial.const(0).degree("n") == -1
    assert (N - N).is_zero


def test_polynomial_as_linear_form():
    assert (N + K + ONE).as_linear_form() == LinearForm(1, 1, 1)
    assert (N * N).as_linear_form() is None
    assert Polynomial.const(-4).as_linear_form() == LinearForm(0, 0, -4)


def test_polynomial_content_and_division():
    p = Polynomial({(1, 0): 6, (0, 0): -9})
    assert p.content() == 3
    assert p.divided_by_int(3) == Polynomial({(1, 0): 2, (0, 0): -3})


def test_polynomial_shifted():
    p = N * N + K
    for n in range(-3, 4):
        for k in range(-3, 4):
            shifted = p.substituted(LinearForm(1, 0, 2), LinearForm(0, 1, -1))
            assert shifted.evaluate(n, k) == p.evaluate(n + 2, k - 1)


coeff = st.integers(min_value=-9, max_value=9)
monomial = st.tuples(st.integers(0, 3), st.integers(0, 3))
poly_dicts = st.dictionaries(monomial, coeff, max_size=5)


@st.composite
def polys(draw):
    return Polynomial(draw(poly_dicts))


@settings(max_examples=80, deadline=None)
@given(polys(), polys(), st.integers(-6, 6), st.integers(-6, 6))
def test_polynomial_ring_ops_agree_with_evaluation(p, q, n, k):
    assert (p + q).evaluate(n, k) == p.evaluate(n, k) + q.evaluate(n, k)
    assert (p - q).evaluate(n, k) == p.evaluate(n, k) - q.evaluate(n, k)
    assert (p * q).evaluate(n, k) == p.evaluate(n, k) * q.evaluate(n, k)
    assert (-p).evaluate(n, k) == -p.evaluate(n, k)


@settings(max_examples=40, deadline=None)
@given(polys(), st.integers(0, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_polynomial_pow(p, e, n, k):
    assert (p**e).evaluate(n, k) == p.evaluate(n, k) ** e


def test_polynomial_substituted():
    p = N * N - K
    # n -> n+k, k -> 2k
    q = p.substituted(LinearForm(1, 1, 0), LinearForm(0, 2, 0))
    for n in range(-3, 4):
        for k in range(-3, 4):
            assert q.evaluate(n, k) == p.evaluate(n + k, 2 * k)
    # random polynomials under random linear maps, checked at points
    rng = random.Random(11)
    for _ in range(60):
        p = Polynomial({(rng.randrange(5), rng.randrange(4)): rng.randrange(-9, 10)
                        for _ in range(rng.randrange(6))})
        n_to, k_to = (LinearForm(*(rng.randrange(-4, 5) for _ in range(3))) for _ in "nk")
        q = p.substituted(n_to, k_to)
        for _ in range(5):
            n, k = rng.randrange(-7, 8), rng.randrange(-7, 8)
            assert q.evaluate(n, k) == p.evaluate(n_to.value(n, k), k_to.value(n, k))
        if p.degree("k") < 1:
            assert q.degree("n") <= p.degree("n")


def test_polynomial_str_is_deterministic():
    p = Polynomial({(2, 0): 1, (0, 1): -1, (0, 0): 3})
    assert str(p) == str(Polynomial({(0, 0): 3, (2, 0): 1, (0, 1): -1}))


def test_rational_function_normalization():
    # integer content cancels; denominator leading coefficient made positive
    r = RationalFunction((N + ONE).scaled(4), (N + ONE + ONE).scaled(-2))
    s = RationalFunction((N + ONE).scaled(-2), N + ONE + ONE)
    assert r == s
    assert r.den.leading_coefficient() > 0


def test_rational_function_evaluate_and_mul():
    r = RationalFunction(N, N + ONE)
    assert r.evaluate(3, 0) == Fraction(3, 4)
    with pytest.raises(ZeroDivisionError):
        r.evaluate(-1, 0)
    rr = r * RationalFunction(N + ONE, N)
    assert rr == RationalFunction(ONE, ONE)


def test_rational_function_equality_cross_multiplied():
    a = RationalFunction(N * N - ONE, N - ONE)  # (n^2-1)/(n-1)
    b = RationalFunction(N + ONE, ONE)  # n+1, not reduced form of a
    assert a == b  # equality is by cross-multiplication, not normal form


def test_rational_function_shifted():
    r = RationalFunction(N, K + ONE)
    rs = r.substituted(LinearForm(1, 0, 1), LinearForm(0, 1, 2))
    for n in range(5):
        for k in range(5):
            assert rs.evaluate(n, k) == r.evaluate(n + 1, k + 2)


def test_random_rational_identity():
    # (p/q)*(q/p) == 1 for random nonzero p, q
    rng = random.Random(3)
    for _ in range(20):
        p = Polynomial({(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 9)})
        q = Polynomial({(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 9)})
        assert RationalFunction(p, q) * RationalFunction(q, p) == RationalFunction(ONE, ONE)


def times(a, b):
    """Product of two dense polynomials in n."""
    product = Polynomial.from_univariate(a) * Polynomial.from_univariate(b)
    return product.univariate()


def content(coeffs):
    return math.gcd(*coeffs)


dense_polys = st.lists(st.integers(-30, 30), max_size=5).map(
    lambda cs: Polynomial.from_univariate(cs).univariate()  # no leading zeros
)
nonzero_polys = dense_polys.filter(bool)


def test_univariate_round_trip_and_horner():
    p = N**3 - (N * N).scaled(2) + ONE.scaled(7)
    assert p.univariate() == (1, -2, 0, 7)
    assert Polynomial.from_univariate((1, -2, 0, 7)) == p
    assert Polynomial().univariate() == ()
    assert Polynomial.from_univariate(()) == Polynomial()
    for n in range(-5, 6):
        assert horner(p.univariate(), n) == p.evaluate(n)
    with pytest.raises(ValueError):
        (N + K).univariate()


@settings(max_examples=200, deadline=None)
@given(f=nonzero_polys, g=dense_polys, h=dense_polys)
def test_dense_gcd_properties(f, g, h):
    a, b = times(f, g), times(f, h)
    d = dense_gcd(a, b)
    if not a and not b:
        assert d == ()
        return
    assert d[0] > 0
    assert content(d) == math.gcd(content(a) if a else 0, content(b) if b else 0)
    # d divides both inputs, the common factor f divides d, and the
    # cofactors are coprime
    ca, cb = dense_divide(a, d), dense_divide(b, d)
    assert times(ca, d) == a and times(cb, d) == b
    dense_divide(d, f)
    assert dense_gcd(ca, cb) == (1,)
    assert dense_gcd(b, a) == d


@settings(max_examples=100, deadline=None)
@given(a=nonzero_polys, b=nonzero_polys)
def test_dense_gcd_of_primitive_inputs_is_primitive(a, b):
    a, b = dense_divide(a, (content(a),)), dense_divide(b, (content(b),))
    d = dense_gcd(a, b)
    assert d[0] > 0 and content(d) == 1


def test_dense_gcd_zero_and_constant_inputs():
    assert dense_gcd((), ()) == ()
    assert dense_gcd((), (-2, 4)) == (2, -4)
    assert dense_gcd((3, 1), ()) == (3, 1)
    assert dense_gcd((), (-5,)) == (5,)
    assert dense_gcd((6,), (4, 2)) == (2,)
    assert dense_gcd((6,), (-9,)) == (3,)
    assert dense_gcd((1, -3, 2), (7,)) == (1,)
    assert dense_gcd((2, -6, 4), (4, -4)) == (2, -2)  # 2(n-1)(n-2), 4(n-1)


def test_dense_divide_rejects_inexact_quotients():
    assert dense_divide((1, -3, 2), (1, -1)) == (1, -2)
    assert dense_divide((), (1, 5)) == ()
    with pytest.raises(ValueError):
        dense_divide((1, 0, 1), (1, 1))  # a remainder
    with pytest.raises(ValueError):
        dense_divide((1, 1), (2, 2))  # rational coefficients
    with pytest.raises(ZeroDivisionError):
        dense_divide((1,), ())


@settings(max_examples=100, deadline=None)
@given(roots=st.lists(st.integers(-40, 40), max_size=4), extra=nonzero_polys)
def test_integer_root_bound_covers_every_root(roots, extra):
    poly = extra
    for r in roots:
        poly = times(poly, (1, -r))
    bound = integer_root_bound(poly)
    assert all(abs(r) <= bound for r in range(-200, 201) if horner(poly, r) == 0)


def test_integer_root_bound_examples():
    assert integer_root_bound((7,)) == -1  # no roots
    assert integer_root_bound((2, -5, -3)) == 3  # (2n+1)(n-3): ceil(5/2)


def _value_args():
    """Constructor arguments of one value of each immutable class."""
    from wzeta.catalog import Catalog, load_catalog
    from wzeta.series import SeriesSpec
    from wzeta.terms import HyperTerm
    from wzeta.wz import WZPair

    cat = load_catalog()
    pair = cat.pair_by_name("s1")
    n = LinearForm(1, 0, 0)
    return {
        Polynomial: ({(1, 0): 2, (0, 1): -1},),
        RationalFunction: (N, N + ONE),
        HyperTerm: (n, ((n, 2), (n.scaled(2), -1)), N + ONE),
        SeriesSpec: ("t", cat.lone["s3"], 1, Fraction(2)),
        WZPair: ("p", pair.f, pair.g, Fraction(2)),
        Catalog: (cat.pairs, cat.lone),
    }


VALUE_ARGS = _value_args()


@pytest.mark.parametrize("cls", VALUE_ARGS, ids=lambda cls: cls.__name__)
def test_values_are_immutable_and_equal_within_their_class(cls):
    value, same = cls(*VALUE_ARGS[cls]), cls(*VALUE_ARGS[cls])
    assert value == same and value is not same
    names = list(vars(value)) if hasattr(value, "__dict__") else list(cls.__slots__)
    for name in names + ["unknown"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for other_cls, args in VALUE_ARGS.items():
        if other_cls is not cls:
            assert value != other_cls(*args)
    assert value != VALUE_ARGS[cls]
    if "__eq__" not in vars(cls):  # equal by _key, and only within the class
        assert value != type("Derived", (cls,), {})(*VALUE_ARGS[cls])
    if cls.__name__ in ("Catalog", "RationalFunction"):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same)


def test_series_and_pair_repr_show_their_fields():
    from wzeta.dsl import parse_term
    from wzeta.series import SeriesSpec
    from wzeta.wz import WZPair

    series = SeriesSpec("t", parse_term("n!^2 / (2*n)!"), 1, Fraction(2))
    assert repr(series) == "SeriesSpec('t', HyperTerm('n!^2 / (2*n)!'), 1, Fraction(2, 1))"
    pair = WZPair("p", parse_term("(-1)^k * k! / (n+k+1)!"), parse_term("(-1)^k * k! / (n+k)!"),
                  Fraction(2))
    assert repr(pair) == ("WZPair('p', HyperTerm('(-1)^k * k! / (n+k+1)!'), "
                          "HyperTerm('(-1)^k * k! / (n+k)!'), Fraction(2, 1))")
