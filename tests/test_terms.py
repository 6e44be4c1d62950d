import math
import random
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wzeta
from wzeta import terms
from wzeta.algebra import LinearForm, Polynomial
from wzeta.dsl import parse_term
from wzeta.errors import DomainError, IncompatibleTerms
from wzeta.terms import Domain, HyperTerm, cross_ratio

from conftest import valid_points

N = LinearForm(1, 0, 0)
K = LinearForm(0, 1, 0)


def f_term(s):
    """(-1)^k k!^2 (sn-k-1)! / ((sn+k+1)! (k+1)) built by hand."""
    return HyperTerm(
        K,
        ((K, 2), (LinearForm(s, -1, -1), 1), (LinearForm(s, 1, 1), -1)),
        poly_den=LinearForm(0, 1, 1).to_polynomial(),
    )


def f_oracle(s, n, k):
    return Fraction(
        (-1) ** k * math.factorial(k) ** 2 * math.factorial(s * n - k - 1),
        math.factorial(s * n + k + 1) * (k + 1),
    )


@pytest.mark.parametrize("s", [1, 2])
def test_term_matches_factorial_oracle(s):
    t = f_term(s)
    for n in range(1, 9):
        for k in range(0, s * n):
            assert t.value_at(n, k) == f_oracle(s, n, k)


def test_value_outside_domain_raises():
    t = f_term(1)
    with pytest.raises(DomainError):
        t.value_at(1, 1)  # (n-k-1)! argument negative
    with pytest.raises(DomainError):
        t.value_at(0, 0)
    # a domain that omits the factorial argument, of 4996 digits
    loose = HyperTerm(factorials=((LinearForm(1, 0, -10**4995), 1),), domain=Domain())
    with pytest.raises(DomainError, match=r"argument n-10{4995} = -10{4995} < 0 at \(n=0, k=0\)$"):
        loose.value_at(0)


def test_vanishing_poly_denominator_raises():
    t = HyperTerm(poly_den=LinearForm(1, 0, -3).to_polynomial())
    assert t.value_at(4, 0) == 1
    with pytest.raises(DomainError):
        t.value_at(3, 0)


def test_canonicalization_folds_constants():
    # (-1)^(k+2) == (-1)^k; 3! folds into the constant; content moves out
    a = HyperTerm(
        LinearForm(0, 1, 2),
        ((K, 1), (LinearForm(0, 0, 3), 1)),
        poly_num=Polynomial.const(4) * (N.to_polynomial()),
    )
    b = HyperTerm(K, ((K, 1),), poly_num=N.to_polynomial(), constant=Fraction(24))
    assert a == b
    assert a.constant == 24


def test_constant_sign_exponent_folds():
    t = HyperTerm(LinearForm(0, 0, 1), constant=Fraction(3))
    assert t.sign_exponent == LinearForm()
    assert t.constant == -3


def test_factorial_merge_and_cancel():
    t = HyperTerm(factorials=((N, 2), (N, -2)))
    assert t.factorials == ()
    assert t.value_at(7, 0) == 1


def test_negative_constant_factorial_rejected():
    with pytest.raises(DomainError):
        HyperTerm(factorials=((LinearForm(0, 0, -2), 1),))
    # 4996 digits, past the default int-to-str limit
    with pytest.raises(DomainError, match="constant -10{4995}$"):
        HyperTerm(factorials=((LinearForm(0, 0, -10**4995), 1),))


def test_shifted_matches_evaluation():
    t = f_term(2)
    for n, k in valid_points(t, 40, seed=1):
        try:
            expected = t.value_at(n + 1, k + 1)
        except DomainError:
            continue
        assert t.substituted(LinearForm(1, 0, 1), LinearForm(0, 1, 1)).value_at(n, k) == expected


def test_shift_ratio_matches_value_quotient():
    t = f_term(1)
    for dn, dk in ((1, 0), (0, 1), (1, 1), (2, 0)):
        ratio = t.shift_ratio(dn, dk)
        for n, k in valid_points(t, 25, seed=dn * 3 + dk):
            base = t.value_at(n, k)
            try:
                shifted = t.value_at(n + dn, k + dk)
            except DomainError:
                continue
            if base == 0:
                continue
            assert ratio.evaluate(n, k) == shifted / base


def test_shift_ratio_composition():
    t = f_term(1)
    two_up = t.shift_ratio(2, 0)
    one_up = t.shift_ratio(1, 0)
    composed = one_up.substituted(LinearForm(1, 0, 1), K) * one_up
    assert two_up == composed


def test_cross_ratio_is_quotient():
    f = f_term(1)
    g = HyperTerm(
        K,
        ((K, 2), (LinearForm(1, -1, 0), 1), (LinearForm(1, 1, 1), -1)),
        poly_den=LinearForm(1, 0, 1).to_polynomial() ** 2,
        constant=Fraction(2),
    )
    r = cross_ratio(g, f)
    for n, k in valid_points(f, 40, seed=5):
        fv = f.value_at(n, k)
        gv = g.value_at(n, k)
        if fv == 0:
            continue
        assert r.evaluate(n, k) == gv / fv


def test_cross_ratio_certificate_form():
    # G/F for the first bundled pair is 2(n-k)(k+1)/(n+1)^2
    f = f_term(1)
    g = HyperTerm(
        K,
        ((K, 2), (LinearForm(1, -1, 0), 1), (LinearForm(1, 1, 1), -1)),
        poly_den=LinearForm(1, 0, 1).to_polynomial() ** 2,
        constant=Fraction(2),
    )
    r = cross_ratio(g, f)
    expected_num = (
        Polynomial.const(2)
        * LinearForm(1, -1, 0).to_polynomial()
        * LinearForm(0, 1, 1).to_polynomial()
    )
    expected_den = LinearForm(1, 0, 1).to_polynomial() ** 2
    assert r.num * expected_den == expected_num * r.den


def test_cross_ratio_requires_aligned_factorials():
    plain = HyperTerm()
    with pytest.raises(IncompatibleTerms):
        cross_ratio(HyperTerm(factorials=((K, 1),)), plain)


@pytest.mark.parametrize("a,exp,degree", [
    pytest.param(1, 201, "201", id="k!^201"),
    pytest.param(30, 30, "900", id="(30*k)!^30"),
    # an offset loop of 10^4995 steps
    pytest.param(10**4995, 1, "10{4995}", id="(10^4995*k)!"),
])
def test_cross_ratio_refuses_a_high_degree_before_expanding(a, exp, degree):
    from wzeta.errors import WZetaError

    term = HyperTerm(factorials=((LinearForm(0, a, 0), exp),))
    with pytest.raises(WZetaError, match=f"has degree {degree}, over the limit of 200$"):
        term.shift_ratio(0, 1)
    at_limit = HyperTerm(factorials=((K, 200),)).shift_ratio(0, 1)
    assert at_limit.num == LinearForm(0, 1, 1).to_polynomial() ** 200


def test_cross_ratio_requires_even_sign_difference():
    with pytest.raises(IncompatibleTerms):
        cross_ratio(HyperTerm(sign_exponent=K), HyperTerm())


def test_as_rational_function():
    t = HyperTerm(
        poly_num=N.to_polynomial(),
        poly_den=LinearForm(1, 0, 2).to_polynomial(),
        constant=Fraction(3, 2),
    )
    r = cross_ratio(t, HyperTerm())
    for n in range(1, 8):
        assert r.evaluate(n, 0) == t.value_at(n, 0)


def test_specialized_diagonal():
    t = f_term(1)
    diag = t.substituted(N, LinearForm(1, 0, -1))  # F(n, n-1)
    for n in range(1, 12):
        assert diag.value_at(n, 0) == t.value_at(n, n - 1)
    with pytest.raises(DomainError, match=r"^\(n=0, k=0\) outside term domain$"):
        diag.value_at(0, 0)
    assert diag.domain.n_min == 1  # from k >= 0, now n - 1 >= 0


def test_domain_k_range():
    dom = Domain((LinearForm(1, 0, -1), LinearForm(0, 1, 0), LinearForm(2, -1, -1)))
    assert dom.n_min == 1
    # no row below n_min, and one row lo <= k <= hi per n up to n_max
    assert list(dom.rows(3)) == [(1, 0, 1), (2, 0, 3), (3, 0, 5)]
    assert list(dom.rows(0)) == []


def test_domain_k_range_unbounded():
    # the first row of n_span is the one named, whatever n_max is
    dom = Domain((LinearForm(1, 0, -3),))
    assert dom.n_min == 3
    with pytest.raises(DomainError, match=r"^the region does not bound k on both sides at n=3$"):
        next(dom.rows(10))
    with pytest.raises(DomainError, match=r"^the region does not bound k on both sides at n=0$"):
        next(Domain((LinearForm(1, 0, 0), LinearForm(0, 1, 0))).rows(3))  # k >= 0 alone
    # a region that the constraints in n alone leave without rows is
    # empty, bounded or not
    assert list(dom.rows(2)) == []
    assert list(Domain((LinearForm(-1, 0, -1),)).rows(5)) == []  # n <= -1


def test_domain_empty_range():
    # 0 <= k <= n - 1 is empty at n = 0: the first row is n = 1
    dom = Domain((LinearForm(1, 0, 0), LinearForm(0, 1, 0), LinearForm(1, -1, -1)))
    assert list(dom.rows(0)) == []
    assert list(dom.rows(2)) == [(1, 0, 0), (2, 0, 1)]


def test_domain_n_min_from_constraints_in_n_alone():
    assert Domain().n_min is None
    assert Domain((LinearForm(-1, 0, 5),)).n_min is None  # n <= 5 is no lower bound
    assert Domain((LinearForm(2, 0, -1),)).n_min == 1  # 2n - 1 >= 0
    assert Domain((LinearForm(3, 0, 7),)).n_min == -2  # 3n + 7 >= 0
    assert Domain((LinearForm(1, 0, -1), LinearForm(2, 0, -7), LinearForm(1, 0, 0))).n_min == 4


def test_domain_n_min_eliminates_k():
    # 0 <= k <= n - 1: n >= 1
    assert Domain((LinearForm(0, 1, 0), LinearForm(1, -1, -1))).n_min == 1
    # (n + 3)/2 <= k <= 2n/3: 3(2k - n - 3) + 2(2n - 3k) = n - 9 >= 0,
    # and k = 6 meets both bounds at n = 9
    dom = Domain((LinearForm(-1, 2, -3), LinearForm(2, -3, 0)))
    assert dom.n_min == 9
    assert list(dom.rows(9)) == [(9, 6, 6)]
    # a row with a real k but no integer one is left out: 6.5 <= k <= 6.67 at n = 10
    assert list(dom.rows(12)) == [(9, 6, 6), (11, 7, 7), (12, 8, 8)]
    # the larger of a bound in n alone (n >= 1) and one from k (3 <= k <= n - 1)
    assert Domain((LinearForm(1, 0, -1), LinearForm(0, 1, -3), LinearForm(1, -1, -1))).n_min == 4
    assert Domain((LinearForm(1, 0, -6), LinearForm(0, 1, -3), LinearForm(1, -1, -1))).n_min == 6
    # a real k, not an integer one: (n + 1)/4 <= k <= (n + 2)/4 holds for
    # every n, so n is not bounded below
    assert Domain((LinearForm(-1, 4, -1), LinearForm(1, -4, 2))).n_min is None


def test_domain_n_min_is_none_without_a_least_n():
    # only lower bounds on k (k >= 0, k >= -n - 5): every n has a k
    assert Domain((LinearForm(0, 1, 0), LinearForm(1, 1, 5))).n_min is None
    # 0 <= k <= 9 - n and n <= 3: n is bounded above only
    assert Domain((LinearForm(0, 1, 0), LinearForm(-1, 0, 3), LinearForm(-1, -1, 9))).n_min is None
    # empty: k >= 0 and k <= -1; n >= 5 and n - 3 <= k <= 0, so n <= 3
    assert Domain((LinearForm(0, 1, 0), LinearForm(0, -1, -1))).n_min is None
    assert Domain((LinearForm(1, 0, -5), LinearForm(-1, 1, 3), LinearForm(0, -1, 0))).n_min is None


def test_domain_rows():
    # n >= 1 and 3 <= k <= n - 1: rows start at n = 4
    dom = Domain((LinearForm(1, 0, -1), LinearForm(0, 1, -3), LinearForm(1, -1, -1)))
    assert list(dom.rows(6)) == [(4, 3, 3), (5, 3, 4), (6, 3, 5)]
    assert list(dom.rows(3)) == []
    # no constraint in n alone, but 0 <= k <= n + 2 starts at n = -2
    free = Domain((LinearForm(0, 1, 0), LinearForm(1, -1, 2)))
    assert list(free.rows(1)) == [(-2, 0, 0), (-1, 0, 1), (0, 0, 2), (1, 0, 3)]
    # no least n (0 <= k <= 2 for every n): rows start at 0
    band = Domain((LinearForm(0, 1, 0), LinearForm(0, -1, 2)))
    assert list(band.rows(1)) == [(0, 0, 2), (1, 0, 2)]
    # bounded below by a negative n
    low = Domain((LinearForm(1, 0, 2), LinearForm(0, 1, 0), LinearForm(1, -1, 2)))
    assert list(low.rows(0)) == [(-2, 0, 0), (-1, 0, 1), (0, 0, 2)]


def test_domain_rows_end_at_the_last_n():
    # 0 <= k <= n and n <= 10: the rows stop at n = 10 at any n_max
    dom = Domain((LinearForm(0, 1, 0), LinearForm(1, -1, 0), LinearForm(-1, 0, 10)))
    assert dom.n_bounds == (0, 10)
    assert dom.n_span(10**18) == range(0, 11)
    assert list(dom.rows(10**18)) == [(n, 0, n) for n in range(11)]
    assert list(dom.rows(4)) == [(n, 0, n) for n in range(5)]
    # bounded above through k alone, 0 <= k <= 9 - 2n: the last n is 4
    through_k = Domain((LinearForm(0, 1, 0), LinearForm(-2, -1, 9)))
    assert through_k.n_bounds == (None, 4)
    assert list(through_k.rows(10**18)) == [(n, 0, 9 - 2 * n) for n in range(5)]
    # no n has a real k: no rows at all
    empty = Domain((LinearForm(1, 0, -5), LinearForm(-1, 1, 3), LinearForm(0, -1, 0)))
    assert empty.n_bounds is None and empty.n_span(10**18) == range(0)
    assert list(empty.rows(10**18)) == []


def test_domain_substituted():
    dom = Domain((LinearForm(1, 0, -1), LinearForm(0, 1, 0), LinearForm(1, -1, -1)))
    n_to, k_to = LinearForm(1, 0, 2), LinearForm(1, -1, 0)  # n + 2, n - k
    moved = dom.substituted(n_to, k_to)
    for n in range(-4, 6):
        for k in range(-4, 6):
            inside = all(f.value(n_to.value(n, k), k_to.value(n, k)) >= 0 for f in dom.constraints)
            assert inside == all(f.value(n, k) >= 0 for f in moved.constraints)
    assert moved.n_min == -1


def test_degree_999_shift_ratio_is_prompt():
    # the DSL accepts this polynomial; its shift costs a power ladder
    code = ("from fractions import Fraction\n"
            "from wzeta.dsl import parse_term\n"
            "r = parse_term('(n+1)^999').shift_ratio(1, 0)\n"
            "assert r.evaluate(3) == Fraction(5**999, 4**999)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wzeta.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert done.returncode == 0, done.stderr


def test_term_equality_and_hash():
    a = f_term(1)
    b = f_term(1)
    assert a == b and hash(a) == hash(b)
    assert a != f_term(2)


@st.composite
def term_cases(draw, counts=st.integers(0, 3), n_coefficients=st.integers(0, 2),
               k_coefficients=st.integers(-2, 2), points=None):
    """(term inputs, point): random sign form, factorials with exponents
    of either sign, polynomials in n and k, a rational constant and a
    domain that may omit some factorial arguments. The number of
    factorials is drawn from counts, their arguments' coefficients of n
    and k from n_coefficients and k_coefficients, and the point from
    points (default: n and k from -2 to 9)."""
    small = st.integers(-2, 2)
    sign = LinearForm(draw(small), draw(small), draw(small))
    factorials = []
    for _ in range(draw(counts)):
        a, b = draw(n_coefficients), draw(k_coefficients)
        c = draw(st.integers(0 if a == b == 0 else -3, 3))
        factorials.append((LinearForm(a, b, c), draw(st.integers(-3, 3))))
    monomials = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-6, 6), max_size=3
    )
    num = draw(monomials)
    den = draw(monomials.filter(lambda coeffs: any(coeffs.values())))
    constant = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    kept = [form for form, _ in factorials if not form.is_constant and draw(st.booleans())]
    n_min = draw(st.none() | st.integers(-1, 3))
    if n_min is not None:
        kept.insert(0, LinearForm(1, 0, -n_min))
    if points is None:
        point = (draw(st.integers(-2, 9)), draw(st.integers(-2, 9)))
    else:
        point = draw(points)
    return sign, factorials, num, den, constant, Domain(tuple(kept)), point


def poly_at(coeffs, n, k):
    return sum(c * n**en * k**ek for (en, ek), c in coeffs.items())


def formula(sign, factorials, num, den, constant, domain, n, k):
    """The term's value straight from its definition, or the DomainError
    message value_at must raise: domain first, then the first negative
    factorial argument in sorted form order, then a zero denominator."""
    if any(form.value(n, k) < 0 for form in domain.constraints):
        return f"(n={n}, k={k}) outside term domain"
    merged = {}  # x!^0 is 1 even where x! is undefined
    for form, exp in factorials:
        merged[form] = merged.get(form, 0) + exp
    merged = {form: exp for form, exp in merged.items() if exp}
    for form in sorted(f for f in merged if not f.is_constant):
        if form.value(n, k) < 0:
            arg = form.value(n, k)
            return f"factorial argument {form} = {arg} < 0 at (n={n}, k={k})"
    if poly_at(den, n, k) == 0:
        return f"denominator polynomial vanishes at (n={n}, k={k})"
    value = constant * Fraction(poly_at(num, n, k), poly_at(den, n, k))
    for form, exp in merged.items():
        value *= Fraction(math.factorial(form.value(n, k))) ** exp
    return -value if sign.value(n, k) % 2 else value


def test_value_at_matches_the_formula():
    seen = set()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(term_cases())
    def check(case):
        sign, factorials, num, den, constant, domain, (n, k) = case
        term = HyperTerm(sign, tuple(factorials), Polynomial(num), Polynomial(den),
                         constant, domain)
        expected = formula(sign, factorials, num, den, constant, domain, n, k)
        if isinstance(expected, str):
            with pytest.raises(DomainError) as raised:
                term.value_at(n, k)
            assert str(raised.value) == expected
            seen.add(next(w for w in ("outside", "factorial", "vanishes") if w in expected))
            return
        value = term.value_at(n, k)
        assert type(value) is Fraction and value == expected
        seen.add("value")
        if value:
            seen.update(
                feature
                for feature, present in (
                    ("sign in k", sign.b % 2),
                    ("negative exponent", any(e < 0 and not f.is_constant
                                              for f, e in factorials)),
                    ("numerator in k", any(ek for (_, ek), c in num.items() if c)),
                    ("denominator in k", any(ek for (_, ek), c in den.items() if c)),
                    ("non-integer constant", constant.denominator > 1),
                )
                if present
            )

    check()
    assert seen == {
        "value", "sign in k", "negative exponent", "numerator in k",
        "denominator in k", "non-integer constant",
        "outside", "factorial", "vanishes",
    }


# points from n = 0 up to arguments past a thousand, with k near n, where
# a factorial of -n + k or -n + 2k has a small argument or n's
ROUTED_POINTS = st.integers(0, 1240).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n - 4, n + 4)))


def test_the_factored_route_matches_math_factorial(monkeypatch):
    # value_at against along_k's first value, read with math.factorial:
    # the same Fraction, or the same DomainError text, at small arguments
    # and large; the features are counted where value_at took the factored
    # route
    seen, routed = set(), []
    times_factorials = terms._times_factorials
    monkeypatch.setattr(terms, "_times_factorials",
                        lambda *args: routed.append(args) or times_factorials(*args))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(term_cases(st.integers(2, 3), st.integers(-2, 2), st.integers(0, 2), ROUTED_POINTS),
           st.none() | st.tuples(st.booleans(), st.integers(-4, 4)))
    def check(case, root):
        sign, factorials, num, den, constant, domain, (n, k) = case
        num, den = Polynomial(num), Polynomial(den)
        if root is not None:  # a factor k - n + c, which vanishes near k = n
            in_den, c = root
            factor = LinearForm(-1, 1, c).to_polynomial()
            num, den = (num, den * factor) if in_den else (num * factor, den)
        term = HyperTerm(sign, tuple(factorials), num, den, constant, domain)
        try:
            expected = Fraction(*next(term.along_k(n, k)))
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                term.value_at(n, k)
            assert str(raised.value) == str(exc)
            seen.add(next(w for w in ("outside", "factorial", "vanishes") if w in str(exc)))
            return
        routed.clear()
        value = term.value_at(n, k)
        assert type(value) is Fraction and value == expected
        assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0
        seen.update(
            feature
            for feature, present in (
                ("factored", True),
                ("zero", value == 0),
                ("negative sign form", min(sign) < 0 and (sign.a or sign.b) % 2),
                ("even sign form", sign.a % 2 == sign.b % 2 == 0 and (sign.a or sign.b)),
                ("factorial of -n or -2n", any(f.a < 0 for f, e in term.factorials)),
                ("factorial of ±2n", any(abs(f.a) == 2 for f, e in term.factorials)),
                ("root", root is not None),
                ("non-integer constant", constant.denominator > 1),
            )
            if present and routed
        )

    check()
    assert seen == {
        "factored", "zero", "negative sign form", "even sign form", "factorial of -n or -2n",
        "factorial of ±2n", "root", "non-integer constant", "outside", "factorial", "vanishes",
    }


@pytest.mark.parametrize("text,two_sided", [
    ("n!", False), ("(2*n)! * n!^2 / (n+1)", False), ("(-1)^n / ((2*n)! * (n-1)!)", False),
    ("(2*n)! / n!^2", True), ("(-1)^n * (n-1)!^2 / ((2*n)! * 3)", True),
])
def test_only_factorials_on_both_sides_take_the_factored_route(monkeypatch, text, two_sided):
    # the term's shape alone picks the route, at every size: a term whose
    # factorials all stand on one side needs no gcd of two long operands
    # and reads math.factorial; outside the domain both routes raise
    # along_k's error before any factorial
    calls = []
    times_factorials = terms._times_factorials
    monkeypatch.setattr(terms, "_times_factorials",
                        lambda *args: calls.append(args) or times_factorials(*args))
    term = parse_term(text)
    defined = 0
    for n in (0, 1, 100, 600, 1200, 3000):
        calls.clear()
        try:
            expected = Fraction(*next(term.along_k(n, 0)))
        except DomainError as exc:
            with pytest.raises(DomainError) as raised:
                term.value_at(n)
            assert (str(raised.value), calls) == (str(exc), []), n
            continue
        assert term.value_at(n) == expected
        assert len(calls) == two_sided, n
        defined += 1
    assert defined >= 5


def field_value(term, n, k):
    """The term's value read from its fields, with math.factorial and
    Polynomial.evaluate, or the DomainError message value_at raises:
    domain, then each factorial argument in order, then the denominator."""
    if any(form.value(n, k) < 0 for form in term.domain.constraints):
        return f"(n={n}, k={k}) outside term domain"
    for form, _ in term.factorials:
        if form.value(n, k) < 0:
            return f"factorial argument {form} = {form.value(n, k)} < 0 at (n={n}, k={k})"
    den = term.poly_den.evaluate(n, k)
    if den == 0:
        return f"denominator polynomial vanishes at (n={n}, k={k})"
    value = term.constant * Fraction(term.poly_num.evaluate(n, k), den)
    for form, exp in term.factorials:
        value *= Fraction(math.factorial(form.value(n, k))) ** exp
    return -value if term.sign_exponent.value(n, k) % 2 else value


def expected_at(term, n, k):
    """(field_value, the product of the two polynomials' values) at (n, k)."""
    return field_value(term, n, k), term.poly_num.evaluate(n, k) * term.poly_den.evaluate(n, k)


def check_walk(term, n, k_first, expected):
    """Walk row n from k_first against expected, the expected_at of each
    k from k_first on: exact pairs with a nonzero denominator, after the
    first with a common factor that divides the two polynomial values
    (the factorial part is kept in lowest terms), and past the last value
    the same DomainError text as value_at's, if expected ends in one. The
    walk reads factorials only before its first value, one per factorial
    of the term."""
    reads, first_reads = [], 0
    walk = term.along_k(n, k_first, lambda m: reads.append(m) or math.factorial(m))
    for k, (want, polys) in enumerate(expected, k_first):
        if isinstance(want, str):
            with pytest.raises(DomainError) as raised:
                next(walk)
            assert str(raised.value) == want, (term, n, k)
            with pytest.raises(DomainError) as direct:
                term.value_at(n, k)
            assert str(direct.value) == want
            break
        num, den = next(walk)
        if k == k_first:
            first_reads = len(reads)
            assert first_reads == len(term.factorials), (term, n, k)
        assert den != 0 and Fraction(num, den) == want, (term, n, k)
        assert k == k_first or num == 0 or polys % math.gcd(num, den) == 0, (term, n, k)
    assert len(reads) == first_reads, (term, n, k_first)


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_walks_along_k_match_the_fields_on_the_check_region(cat, name):
    # every row of F and G up to n = 61, which holds every value the
    # check region to n <= 60 reads, walked from each of its points to
    # one past its end
    pair = cat.pair_by_name(name)
    for term in (pair.f, pair.g):
        for n, lo, hi in term.domain.rows(61):
            expected = [expected_at(term, n, k) for k in range(lo, hi + 2)]
            assert isinstance(expected[-1][0], str)
            for k_first in range(lo, hi + 1):
                check_walk(term, n, k_first, expected[k_first - lo:])


def random_walk_term(rng):
    """A random two-variable term: factorials in the k-directions ±1, ±2
    and 30 with offsets and exponents up to 3, maybe a sign (-1)^(n+k),
    a numerator with integer roots inside the row, a denominator that is
    negative over part of it (or vanishes at one k), maybe a zero
    constant, and a domain that may omit factorial arguments and may
    add the bound k <= n + 4."""
    factorials = [(LinearForm(rng.randrange(3), b, rng.randrange(-3, 4)),
                   rng.choice([-3, -2, -1, 1, 2, 3]))
                  for b in rng.sample([1, -1, 2, -2, 30], rng.randrange(1, 4))]
    n, k = N.to_polynomial(), K.to_polynomial()
    num = Polynomial.const(rng.randrange(1, 4))
    for _ in range(rng.randrange(3)):
        num = num * (k - Polynomial.const(rng.randrange(1, 6)))
    if rng.random() < 0.5:
        num = num + n * k
    den = Polynomial.const(2) * k - Polynomial.const(2 * rng.randrange(0, 6) + rng.choice([1, 0]))
    if rng.random() < 0.5:
        den = den * (n + Polynomial.const(1))
    constant = Fraction(rng.randrange(-5, 6), rng.randrange(1, 5))
    sign = LinearForm(1, 1, 0) if rng.random() < 0.5 else LinearForm()
    bounds = [form for form, _ in factorials if rng.random() < 0.7]
    if rng.random() < 0.3:
        bounds.append(LinearForm(1, -1, 4))
    return HyperTerm(sign, tuple(factorials), num, den, constant, Domain(tuple(bounds)))


def test_walks_along_k_match_the_fields_on_random_terms():
    rng = random.Random(19)
    seen = set()
    for _ in range(200):
        term = random_walk_term(rng)
        if term.constant == 0:
            seen.add("zero constant")
        for n in rng.sample(range(8), 2):
            k_first = rng.randrange(-2, 5)
            expected = []
            for k in range(k_first, k_first + 16):
                expected.append(expected_at(term, n, k))
                want = expected[-1][0]
                if isinstance(want, str):
                    seen.add(next(w for w in ("outside", "factorial", "vanishes") if w in want))
                    break
            check_walk(term, n, k_first, expected)
            values = [v for v, _ in expected if not isinstance(v, str)]
            if any(a == 0 and b for a, b in zip(values, values[1:])):
                seen.add("zero, then nonzero")
            if any(term.poly_den.evaluate(n, k) < 0 < term.poly_den.evaluate(n, k + 1)
                   for k in range(k_first, k_first + len(values) - 1)):
                seen.add("denominator changes sign")
            if len(values) > 1:
                seen.add("steps")
    assert seen == {"zero constant", "outside", "factorial", "vanishes",
                    "zero, then nonzero", "denominator changes sign", "steps"}
