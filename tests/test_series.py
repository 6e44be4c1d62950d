import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import fraction_terms

from wzeta.algebra import LinearForm, Polynomial, RationalFunction, dense_gcd, horner
from wzeta.dsl import parse_term
from wzeta.errors import (
    DomainError,
    MonotonicityViolation,
    NonAlternating,
    TailBoundError,
)
from wzeta.series import ALTERNATING, POSITIVE, ProductTree, SeriesSpec
from wzeta import accelerate, precision


def alt_series(text, start=0):
    return SeriesSpec("t", parse_term(text), start_index=start)


def sequential_sum(series, count, first_index=None):
    """Reference: one exact Fraction addition per term."""
    first = series.start_index if first_index is None else first_index
    return sum((series.term_at(n) for n in range(first, first + count)), Fraction(0))


def walk_values(series, first, end):
    """(n, t(n)) rebuilt from series.walk: the entry's value at a restart,
    else the last value times the entry's step."""
    value = None
    for n, start, step in series.walk(first, end):
        value = start if step is None else value * Fraction(*step)
        yield n, value


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "lhs_s1", "lhs_s2"])
def test_terms_recurrence_matches_direct(cat, name):
    series = cat.series_by_name(name)
    start = series.start_index
    for n, value in walk_values(series, start, start + 100):
        assert value == series.term_at(n)


# t(5) = 0; t(3) = t(4) = 0, and the ratio is undefined at both
WALK_TEXTS = ["(-1)^n * (n-5) / n!", "(-1)^n * (n-3)*(n-4) / n!"]
WALK_SPANS = [(0, 40), (0, 1), (0, 6), (2, 9), (3, 5), (4, 12), (5, 6), (5, 40), (6, 30)]


@pytest.mark.parametrize("first,end", WALK_SPANS)
@pytest.mark.parametrize("text", WALK_TEXTS)
def test_walk_restarts_only_where_the_rule_says(text, first, end):
    series = alt_series(text)
    assert 0 in map(series.term_at, range(8))
    entries = list(series.walk(first, end))
    assert [n for n, _, _ in entries] == list(range(first, end))
    for n, value, step in entries:
        # a restart at first, after a zero term, and where the step is
        # undefined; nowhere else
        restart = n == first or series.term_at(n - 1) == 0 or series.ratio_step(n - 1) == (0, 0)
        assert (step is None) == restart, n
        if restart:
            assert value == series.term_at(n)
        else:
            assert value is None and step == series.ratio_step(n - 1)
    for n, value in walk_values(series, first, end):
        assert value == series.term_at(n)


@pytest.mark.parametrize("text", WALK_TEXTS)
def test_walk_streams_and_checks_its_first_index(text):
    series = alt_series(text, start=2)
    for n in (0, 2, 5, 10**30):
        assert list(series.walk(n, n)) == []
    assert [n for n, _, _ in itertools.islice(series.walk(2, 10**30), 10)] == list(range(2, 12))
    with pytest.raises(DomainError):
        next(series.walk(1, 10))  # below start


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "lhs_s1", "lhs_s2"])
def test_term_ratio_recurrence_identity(cat, name):
    series = cat.series_by_name(name)
    ratio = series.term_ratio()
    start = series.start_index
    for n in range(start, start + 60):
        assert series.term_at(n + 1) == ratio.evaluate(n, 0) * series.term_at(n)


def test_term_ratio_closed_forms(cat):
    n = Polynomial.variable("n")
    one = Polynomial.const(1)
    # slow series ratio: ((n+1)/(n+2))^3
    expected = RationalFunction((n + one) ** 3, (n + one + one) ** 3)
    assert cat.series_by_name("lhs_s1").term_ratio() == expected
    # fast series ratio: -n^3 / (2(2n+1)(n+1)^2)
    expected = RationalFunction(
        -n**3, Polynomial.const(2) * (n.scaled(2) + one) * (n + one) ** 2
    )
    assert cat.series_by_name("s1").term_ratio() == expected


REDUCED_DEGREES = {"s1": 3, "s2": 7, "s3": 11, "lhs_s1": 3, "lhs_s2": 9}


def unreduced_ratio(series):
    """The k = 0 shift ratio before the common factor is cancelled."""
    return series.term.substituted(LinearForm(1, 0, 0), LinearForm()).shift_ratio(1, 0)


@pytest.mark.parametrize(
    "name,accelerated",
    [(name, False) for name in REDUCED_DEGREES] + [("s1", True), ("s2", True)],
)
def test_term_ratio_is_reduced_once(cat, name, accelerated):
    if accelerated:
        series = accelerate(cat.pair_by_name(name))
    else:
        series = cat.series_by_name(name)
    ratio = series.term_ratio()
    assert ratio.num.degree("n") == ratio.den.degree("n") == REDUCED_DEGREES[name]
    assert ratio == unreduced_ratio(series)  # by cross-multiplication


def unreduced_step(series, n):
    """Reference ratio_step: the unreduced ratio at n, reduced as integers,
    or (0, 0) where its denominator vanishes."""
    ratio = unreduced_ratio(series)
    p, q = ratio.num.evaluate(n), ratio.den.evaluate(n)
    if q == 0:
        return 0, 0
    g = math.gcd(p, q)
    return (-p // g, -q // g) if q < 0 else (p // g, q // g)


@pytest.mark.parametrize("text", [
    "(-1)^n * (n-3)*(n-4) / n!",  # cancels n-3, a root after the start
    "(-1)^n * (n-30)*(n-31)*(n+2) / n!",  # cancels n-30, far past the start
    "(-1)^n * (n^2+1)*(n-7) / (2*n)!",  # nothing to cancel
])
def test_ratio_step_matches_the_unreduced_ratio(text):
    series = alt_series(text)
    _, _, h, _ = series._steps
    roots = [n for n in range(-40, 40) if horner(h, n) == 0]
    assert all(n in range(-5, 40) for n in roots)
    for n in range(-5, 40):
        assert series.ratio_step(n) == unreduced_step(series, n)


@pytest.mark.parametrize("start,error", [
    (0, "term at n=3 is zero"),  # t(3) = t(4) = 0, where n-3 cancels
    (4, "term at n=4 is zero"),
])
def test_cancelled_factor_keeps_the_errors(start, error):
    series = alt_series("(-1)^n * (n-3)*(n-4) / n!", start)
    assert series.term_ratio().den.degree("n") == 2  # (n+1)(n-4)
    with pytest.raises(NonAlternating) as raised:
        precision.sum_to_digits(series, 30)
    assert str(raised.value) == error


def test_cancelled_factor_past_the_zero_terms():
    # from n = 5 on the terms are nonzero and the reduced ratio is exact
    series = alt_series("(-1)^n * (n-3)*(n-4) / n!", 5)
    report = precision.sum_to_digits(series, 30)
    assert report.decimal_string == "-0.010290617742595889685048366932"
    assert series._certified_from == 5


def test_certificate_stops_short_of_a_cancelled_root():
    # the ratio reduces to -1/(n+1), but the term is undefined at n=50,
    # where the cancelled factor (n-49)(n-50) vanishes
    series = alt_series("(-1)^n * (n-50) / (n-50) / n!")
    n = Polynomial.variable("n")
    assert series.term_ratio() == RationalFunction(-Polynomial.const(1), n + Polynomial.const(1))
    assert series._certified_from == 51
    with pytest.raises(DomainError, match="n=50"):
        series.tail_bound(5)


def test_positive_tail_stops_short_of_a_cancelled_root():
    series = alt_series("(n-50) / (n-50) / n!")  # ratio 1/(n+1) once reduced
    assert series.sign_pattern == POSITIVE
    with pytest.raises(TailBoundError, match="not certifiably positive"):
        series.tail_bound(5)
    assert series.tail_bound(60) == series.term_at(60) * 13  # d = 6: (60+5)/5


def test_terms_from_index(cat):
    series = cat.series_by_name("s2")
    gen = series.walk(7, 10)
    assert next(gen) == (7, series.term_at(7), None)
    assert next(gen) == (8, None, series.ratio_step(7))
    with pytest.raises(DomainError):
        next(series.walk(0, 10))  # below start


def test_term_at_below_start(cat):
    with pytest.raises(DomainError):
        cat.series_by_name("s1").term_at(0)


def test_partial_sum(cat):
    series = cat.series_by_name("s1")
    assert series.partial_sum(2) == Fraction(5, 4) - Fraction(5, 96)
    assert series.partial_sum(0) == 0
    with pytest.raises(DomainError):
        series.partial_sum(-1)


def test_partial_sum_matches_sequential(cat):
    for name in ("s1", "s2", "s3", "lhs_s1", "lhs_s2"):
        series = cat.series_by_name(name)
        for count in (1, 2, 3, 17, 64, 129):
            assert series.partial_sum(count) == sequential_sum(series, count)
        first = series.start_index + 11
        assert series.partial_sum(40, first_index=first) == (
            sequential_sum(series, 40, first_index=first)
        )


def test_product_tree_matches_a_left_fold():
    rng = random.Random(7)
    leaves = [(rng.randrange(-50, 50), rng.randrange(1, 50), rng.randrange(-9, 10))
              for _ in range(45)]
    for size in range(len(leaves) + 1):
        total = Fraction(0)
        running = Fraction(1)
        tree = ProductTree()
        # the same merge one leaf at a time, on unreduced integers
        big_p = big_q = 1
        big_t = 0
        for p, q, weight in leaves[:size]:
            running *= Fraction(p, q)
            total += weight * running
            big_p, big_q, big_t = big_p * p, big_q * q, big_t * q + big_p * weight * p
            tree.add(p, q, weight * p)
        assert tree.result() == (big_q, big_t)
        assert big_p == math.prod(p for p, _, _ in leaves[:size])
        assert big_q == math.prod(q for _, q, _ in leaves[:size])
        assert Fraction(big_t, big_q) == total


def test_product_tree_holds_a_logarithmic_number_of_nodes():
    tree = ProductTree()
    for size in range(1, 1025):
        tree.add(1, 1, 1)
        assert len(tree._nodes) == bin(size).count("1")
    assert tree.result() == (1, 1024)


def dense_shifted(coeffs, shift):
    """The dense polynomial coeffs at n + shift, from Polynomial."""
    poly = Polynomial.from_univariate(coeffs)
    return poly.substituted(LinearForm(1, 0, shift), LinearForm(0, 1, 0)).univariate()


def dense_product(a, b):
    return (Polynomial.from_univariate(a) * Polynomial.from_univariate(b)).univariate()


# the weight c(n) split off each reduced ratio a/b = (c(n+1)/c(n))·(α/β)
SPLIT_WEIGHTS = [
    ("s1", (1,)),
    ("s2", (56, -32, 5)),
    ("s3", (5265, 13878, 13761, 6120, 1040)),
    ("(-1)^n * (n^2+1) * (n-7) / (2*n)!", (1, -7, 1, -7)),  # (n^2+1)(n-7)
    # a(n) = 2-n and b(n+2) = (n-2)(n+3) share n-2: shift 2 stays in α/β
    ("(-1)^n * (n-3)*(n-4) / n!", (1,)),
]


@pytest.mark.parametrize("name,weight", SPLIT_WEIGHTS)
def test_the_split_is_exact(cat, name, weight):
    series = cat.series_by_name(name) if name in cat.series_names else alt_series(name)
    a, b, _, _ = series._steps
    c, alpha, beta = series._split
    assert c == weight
    assert a == dense_product(dense_shifted(c, 1), alpha)
    assert b == dense_product(c, beta)
    # nothing is left to split at shift 1
    assert len(dense_gcd(alpha, dense_shifted(beta, 1))) == 1


def test_a_weight_with_an_integer_root_restarts_the_walk():
    # c(7) = 0 makes t(7) zero: the walk restarts at 8, where c(8) = 65
    text = "(-1)^n * (n^2+1) * (n-7) / (2*n)!"
    series = alt_series(text)
    assert series.term_at(7) == 0 and horner(series._split[0], 7) == 0
    for first in (0, 3, 8):
        terms = fraction_terms(series, first)
        values = [value for _, value in itertools.islice(terms, 40)]
        for count in range(1, 41):
            assert series.partial_sum(count, first) == sum(values[:count], Fraction(0))
    report = precision.sum_to_digits(alt_series(text, 8), 50)
    assert report.decimal_string.startswith("0.00000000000308116887624")
    assert report.terms_used == 15


@pytest.mark.parametrize("digits", [80, 40])
def test_a_cancelled_root_past_the_cut_is_still_refused(digits):
    # the ratio reduces to -1/(n+1), but the term is undefined at n=50;
    # at 80 digits the cut is near n=59, so only the step check at n=49
    # sees the root; at 40 digits the tail check does
    series = SeriesSpec("x", parse_term("(-1)^n * (n-50) / (n-50) / n!"), 2)
    with pytest.raises(DomainError) as raised:
        precision.sum_to_digits(series, digits)
    assert str(raised.value) == "denominator polynomial vanishes at (n=50, k=0)"


@pytest.mark.parametrize("name,most", [("s1", 169_081), ("s2", 110_000), ("s3", 120_000)])
def test_the_sum_denominator_stays_small(cat, name, most):
    # at 3000 digits, with no leaf for the cut N; unsplit, s2 and s3 came
    # to 153,319 and 190,070 bits, and with N's leaf s1 to 169,119
    _, denominator, _, _ = cat.series_by_name(name).sum_to_cut(Fraction(1, 10**3002))
    assert denominator > 0
    if name == "s1":  # c = 1: the leaves are the reduced steps themselves
        assert denominator.bit_length() == most
    else:
        assert denominator.bit_length() <= most


@pytest.mark.parametrize("digits", [1000, 3000])
@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_the_sum_to_the_cut_is_the_partial_sum(cat, name, digits):
    series = cat.series_by_name(name)
    numerator, denominator, _, count = series.sum_to_cut(Fraction(1, 10 ** (digits + 2)))
    assert Fraction(numerator, denominator) == series.partial_sum(count)


@pytest.mark.parametrize("at_slack", [False, True])
@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_the_cut_term_is_evaluated_once(cat, monkeypatch, name, at_slack):
    # term_at gives t(start) and t(N) only, each once; a threshold just
    # above |t(N)| has the cut decided exactly, and that value is reused
    series = cat.series_by_name(name)
    threshold = Fraction(1, 10**1002)
    count = series.sum_to_cut(threshold)[3]
    start, cut = series.start_index, series.start_index + count
    if at_slack:
        threshold = abs(series.term_at(cut)) * Fraction(1001, 1000)
    calls = []
    term_at = SeriesSpec.term_at
    monkeypatch.setattr(SeriesSpec, "term_at", lambda self, n: calls.append(n) or term_at(self, n))
    assert series.sum_to_cut(threshold)[3] == count
    assert calls == [start, cut]


def test_partial_sum_restarts_at_a_zero_term():
    # t(5) = 0, so the ratio is undefined at n=5 and the product chain
    # must restart from t(6)
    series = alt_series("(-1)^n * (n-5) / n!")
    assert series.term_at(5) == 0 and series.term_at(6) != 0
    assert series.ratio_step(5)[1] == 0
    for count in (5, 6, 7, 12, 30):
        assert series.partial_sum(count) == sequential_sum(series, count)
    assert series.partial_sum(4, first_index=5) == sequential_sum(series, 4, 5)


def test_accelerated_term_is_the_diagonal_sum(cat):
    for name in ("s1", "s2"):
        pair = cat.pair_by_name(name)
        f, g = pair.f, pair.g
        fast = accelerate(pair)
        for n in range(1, 201):
            assert fast.term_at(n) == f.value_at(n, n - 1) + g.value_at(n - 1, n - 1)
        ratio = fast.term_ratio()  # exists: the series is one term
        for n, value in walk_values(fast, 1, 41):
            assert value == fast.term_at(n)
            assert fast.term_at(n + 1) == ratio.evaluate(n, 0) * value


def test_alternating_tail_bound_is_first_omitted_term(cat):
    series = cat.series_by_name("s1")
    for count in (3, 10, 25):
        assert series.tail_bound(count) == abs(series.term_at(1 + count))


def test_alternating_tail_bound_soundness(cat):
    # |true tail| computed from a much longer partial sum
    for name in ("s1", "s2", "s3"):
        series = cat.series_by_name(name)
        far = series.partial_sum(300)
        for count in (5, 20, 60):
            tail = abs(far - series.partial_sum(count))
            assert tail <= series.tail_bound(count)


def test_positive_tail_bound_soundness(cat):
    for name in ("lhs_s1", "lhs_s2"):
        series = cat.series_by_name(name)
        far = series.partial_sum(6000)
        for count in (10, 50, 300):
            observed_tail = far - series.partial_sum(count)
            bound = series.tail_bound(count)
            assert observed_tail < bound
            # not absurdly loose either: within ~4x of the observed tail
            assert bound < 4 * observed_tail


@pytest.mark.parametrize("name", ["s1", "s2", "lhs_s1", "lhs_s2"])
def test_tail_bound_bounds_every_finite_run(cat, name):
    # accel(s1), accel(s2) alternate; lhs_s1, lhs_s2 are positive
    series = (accelerate(cat.pair_by_name(name)) if name in ("s1", "s2")
              else cat.series_by_name(name))
    sums = [series.partial_sum(count) for count in range(121)]
    for first in (1, 2, 5, 20, 64):
        bound = series.tail_bound(first)
        for last in range(first + 1, 121):
            assert abs(sums[last] - sums[first]) <= bound, (first, last)


def test_positive_tail_bound_rejects_negative_terms():
    series = alt_series("(-1)^(2*n+1) / (n+1)^3")  # positive ratio, negative terms
    assert series.sign_pattern == POSITIVE
    with pytest.raises(TailBoundError):
        series.tail_bound(1)


def test_tail_bound_requires_summed_terms(cat):
    with pytest.raises(DomainError):
        cat.series_by_name("s1").tail_bound(0)


def test_alternating_tail_checks_every_index_before_the_certificate():
    # terms alternate and decrease up to n=50, then t(50), t(51) are both
    # negative; the certificate holds only from n=51, far past the cut
    series = alt_series("(-1)^n * (2*n-101) / n!")
    with pytest.raises(NonAlternating, match="n=50 and n=51"):
        series.tail_bound(10)
    assert series.sign_pattern == ALTERNATING
    assert series._certified_from == 51


def test_alternating_tail_bound_rejects_a_divergent_series():
    # each step alternates and shrinks, but the ratio tends to -1 and the
    # partial sums swing between about 0.65 and 1.74 forever
    series = alt_series("(-1)^n * (n+2) / (n+1)")
    with pytest.raises(TailBoundError, match="modulus 1"):
        series.tail_bound(10)
    assert series.sign_pattern == ALTERNATING


def test_alternating_tail_bound_refuses_a_far_certificate():
    # the ratio alternates only from n = 10^30 on
    series = alt_series("(-1)^n * (n - 10^30) / n!")
    with pytest.raises(TailBoundError, match="certificate"):
        series.tail_bound(10)


@pytest.mark.parametrize(
    "name,accelerated",
    [("s1", False), ("s2", False), ("s3", False), ("s1", True), ("s2", True)],
)
def test_certificate_starts_at_the_first_index(cat, name, accelerated):
    if accelerated:
        series = accelerate(cat.pair_by_name(name))
    else:
        series = cat.series_by_name(name)
    assert series._certified_from == series.start_index
    # what the certificate claims, checked at concrete indices
    for n in range(series.start_index, series.start_index + 200):
        p, q = series.ratio_step(n)
        assert -q < p < 0


def test_alternating_spot_check_catches_growth():
    series = alt_series("(-1)^n * (n+1)")  # alternating but growing
    with pytest.raises(MonotonicityViolation):
        series.tail_bound(2)


def test_zero_multiplier_metadata(cat):
    assert cat.series_by_name("s1").zeta3_multiple == 1
    assert cat.series_by_name("lhs_s1").zeta3_multiple == 2
    assert cat.series_by_name("s3").sign_pattern == ALTERNATING
    assert cat.series_by_name("lhs_s2").sign_pattern == POSITIVE


def test_only_what_the_ratio_cannot_tell_is_a_field(cat):
    fields = ["name", "term", "start_index", "zeta3_multiple"]
    assert list(inspect.signature(SeriesSpec).parameters) == fields
    series = cat.series_by_name("s2")
    fresh = SeriesSpec(*(getattr(series, field) for field in fields))
    assert list(vars(fresh)) == fields  # nothing else is stored up front
    assert fresh == series and hash(fresh) == hash(series)
    assert fresh != SeriesSpec(series.name, series.term, 2, series.zeta3_multiple)
    for field in fields + ["sign_pattern", "rate_estimate"]:
        with pytest.raises(AttributeError):
            setattr(series, field, 1.0)


def test_a_ratio_over_the_degree_limit_is_refused_before_the_gcd():
    from wzeta.errors import WZetaError
    from wzeta.series import _MAX_RATIO_DEGREE

    at_limit = alt_series(f"(-1)^n / (n+1)^{_MAX_RATIO_DEGREE}")
    assert at_limit.sign_pattern == ALTERNATING
    over = SeriesSpec("big", parse_term(f"(-1)^n / (n+1)^{_MAX_RATIO_DEGREE + 1}"))
    message = f"series 'big' has degree {_MAX_RATIO_DEGREE + 1}, over the limit"
    with pytest.raises(WZetaError, match=message):
        over.term_ratio()


@pytest.mark.parametrize("text,degree", [
    ("(-1)^n / (n+1)^201", "201"),  # the sides are exactly of this degree
    # rising products add more: at least half of 1 + 2 here
    ("(-1)^n * n! * (n+1)^201 / (2*n)!", "at least 203"),
    # the factorial powers alone are over the limit: half of 999 + 2·999
    ("(-1)^n * n!^999 / (2*n)!^999", "at least 1499"),
])
def test_a_ratio_over_the_degree_limit_is_refused_before_it_is_built(monkeypatch, text, degree):
    from wzeta.errors import WZetaError
    from wzeta.terms import HyperTerm

    def not_built(*args):
        raise AssertionError("the ratio was built")

    series = SeriesSpec("big", parse_term(text))
    monkeypatch.setattr(HyperTerm, "shift_ratio", not_built)
    message = f"series 'big' has degree {degree}, over the limit of 200"
    with pytest.raises(WZetaError, match=message):
        series.term_ratio()


@pytest.mark.parametrize(
    "text,sign,rate",
    [
        ("(-1)^n * n!^3 / (3*n)!", ALTERNATING, math.log10(27)),  # ratio -> -1/27
        ("n!^2 / (2*n)!", POSITIVE, math.log10(4)),  # ratio -> 1/4
        ("(-1)^n / n!", ALTERNATING, None),  # ratio -> 0
        ("1 / (n+1)^2", POSITIVE, None),  # ratio -> 1
        ("(-1)^n * n!", ALTERNATING, None),  # ratio -> -infinity
    ],
)
def test_sign_and_rate_are_read_from_the_ratio(text, sign, rate):
    series = alt_series(text)
    assert series.sign_pattern == sign
    assert series.rate_estimate == rate


def random_term_text(rng):
    """A term built from factorials of ±n and ±2n with offsets, polynomial
    factors with integer roots and, sometimes, the removable (n-50)/(n-50);
    the offsets of -n and -2n run to 60, so their factorials are defined
    at the first indices."""
    num, den = ["(-1)^n" if rng.random() < 0.5 else "1"], []
    for _ in range(rng.randrange(1, 4)):
        a = rng.choice([1, -1, 2, -2])
        c = rng.randrange(-6, 13) if a > 0 else rng.randrange(0, 61)
        side = num if rng.random() < 0.5 else den
        side.append(f"({a}*n{c:+d})!^{rng.choice([1, 2])}")
    for _ in range(rng.randrange(0, 3)):
        side = num if rng.random() < 0.5 else den
        side.append(f"(n{rng.randrange(-20, 4):+d})^{rng.choice([1, 2])}")
    if rng.random() < 0.2:
        num.append("(n-50)")
        den.append("(n-50)")
    return " / ".join([" * ".join(num)] + den)


def term_or_none(series, n):
    try:
        return series.term_at(n)
    except DomainError:
        return None


def test_an_undefined_step_after_a_nonzero_term_leads_to_no_term():
    # where t(n) and t(n+1) are both defined and nonzero, every factor of
    # the unreduced ratio is nonzero, so a step whose unreduced
    # denominator vanishes after a nonzero t(n) meets a zero or undefined
    # t(n+1); the checked steps raise on that without evaluating t(n+1)/t(n)
    rng = random.Random(18)
    undefined = 0
    for _ in range(250):
        series = alt_series(random_term_text(rng))
        values = [term_or_none(series, n) for n in range(62)]
        for n in range(61):
            if not values[n]:  # zero or undefined
                continue
            step = series.ratio_step(n)
            if step == (0, 0):
                undefined += 1
                assert not values[n + 1], (series.term, n)
            elif values[n + 1] is not None:
                assert values[n + 1] == values[n] * Fraction(*step), (series.term, n)
    assert undefined > 150, undefined


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_the_checked_walk_evaluates_each_index_once(cat, monkeypatch, name):
    # one evaluation per index gives the checks and the leaf: α(n), β(n)
    # and c(n+1), with c(n) carried from the index before, and h only
    # within its root bound
    import wzeta.series

    calls = 0

    def counted(coeffs, x):
        nonlocal calls
        calls += 1
        return horner(coeffs, x)

    series = cat.series_by_name(name)
    monkeypatch.setattr(wzeta.series, "horner", counted)
    _, _, _, count = series.sum_to_cut(Fraction(1, 10**3002))
    assert count > 1000
    assert calls <= 4 * count, calls / count


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_partial_sum_evaluates_each_index_once(cat, monkeypatch, name):
    # the walk's step and the tree's leaf come from one evaluation, with
    # c(n) carried from the step before
    import wzeta.series

    calls = 0

    def counted(coeffs, x):
        nonlocal calls
        calls += 1
        return horner(coeffs, x)

    series = accelerate(cat.pair_by_name(name))
    monkeypatch.setattr(wzeta.series, "horner", counted)
    series.partial_sum(2000)
    assert calls <= 4 * 2000, calls / 2000
