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
    WZetaError,
)
from wzeta import series as series_module
from wzeta.series import ALTERNATING, POSITIVE, ProductTree, SeriesSpec
from wzeta.terms import ratio_limit
from wzeta import accelerate


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
    for n, start, evaluated in series.walk(first, end):
        value = start if evaluated is None else value * Fraction(*evaluated[0])
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
    for n, value, evaluated in entries:
        # a restart at first, after a zero term, and where the step is
        # undefined; nowhere else
        restart = n == first or series.term_at(n - 1) == 0 or series.ratio_step(n - 1) == (0, 0)
        assert (evaluated is None) == restart, n
        if restart:
            assert value == series.term_at(n)
        else:
            assert value is None and evaluated[0] == series.ratio_step(n - 1)
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
        series_module.sum_to_digits(series, 30)
    assert str(raised.value) == error


def test_cancelled_factor_past_the_zero_terms():
    # from n = 5 on the terms are nonzero and the reduced ratio is exact
    series = alt_series("(-1)^n * (n-3)*(n-4) / n!", 5)
    report = series_module.sum_to_digits(series, 30)
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
    n, value, evaluated = next(gen)
    assert (n, value, evaluated[0]) == (8, None, series.ratio_step(7))
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


def left_fold(leaves):
    """(T/Q, Q, T) after each prefix of leaves (p, q, weight): the Fraction
    sum of each weight times the running product, and the unreduced
    merge one leaf at a time."""
    total, running = Fraction(0), Fraction(1)
    big_p = big_q = 1
    big_t = 0
    yield total, big_q, big_t
    for p, q, weight in leaves:
        running *= Fraction(p, q)
        total += weight * running
        big_p, big_q, big_t = big_p * p, big_q * q, big_t * q + big_p * weight * p
        yield total, big_q, big_t


def test_product_tree_matches_a_left_fold():
    rng = random.Random(7)
    leaves = [(rng.randrange(-50, 50), rng.randrange(1, 50), rng.randrange(-9, 10))
              for _ in range(45)]
    for size, (total, big_q, big_t) in enumerate(left_fold(leaves)):
        tree = ProductTree()
        for p, q, weight in leaves[:size]:
            tree.add(p, q, weight * p)
        q, t = tree.result()
        assert Fraction(t, q) == total
        # the cancelled Q divides the unreduced one, and T is cancelled with it
        assert q > 0 and big_q % q == 0
        assert t * (big_q // q) == big_t
        assert big_q == math.prod(q for _, q, _ in leaves[:size])


class CountingMath:
    """series' math module, with the smaller operand of every gcd recorded,
    in bits, and that of every merge's cancellation."""

    def __init__(self, monkeypatch):
        self.gcd_bits, self.merge_bits = [], []
        cancelled = series_module._cancelled

        def counted(p, q):
            self.merge_bits.append(min(p.bit_length(), q.bit_length()))
            return cancelled(p, q)

        monkeypatch.setattr(series_module, "math", self)
        monkeypatch.setattr(series_module, "_cancelled", counted)

    def __getattr__(self, name):
        return getattr(math, name)

    def gcd(self, a, b):
        self.gcd_bits.append(min(a.bit_length(), b.bit_length()))
        return math.gcd(a, b)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_product_tree_past_the_gcd_cap(monkeypatch, seed):
    # leaves of small primes times up to 24 random bits: merges cancel
    # below a cap of 96 bits, and past it run no gcd
    monkeypatch.setattr(series_module, "_MAX_GCD_BITS", 96)
    counting = CountingMath(monkeypatch)
    rng = random.Random(seed)

    def leaf_factor():
        return rng.randrange(1, 2**24) * math.prod(rng.choice([2, 3, 5, 7, 11, 13])
                                                  for _ in range(rng.randrange(1, 6)))

    leaves = [(rng.choice([-1, 1]) * leaf_factor(), leaf_factor(), rng.randrange(-9, 10))
              for _ in range(150)]
    folds = list(left_fold(leaves))
    for size in (1, 2, 31, 64, 97, 150):
        tree = ProductTree()
        for p, q, weight in leaves[:size]:
            tree.add(p, q, weight * p)
        q, t = tree.result()
        total, big_q, big_t = folds[size]
        assert Fraction(t, q) == total
        assert q > 0 and big_q % q == 0 and t * (big_q // q) == big_t
    assert max(counting.merge_bits) > 96 * 8
    assert 48 < max(counting.gcd_bits) <= 96


def test_the_catalog_agrees_to_20000_digits_past_the_gcd_cap(cat, monkeypatch):
    # each tree's top merges run past the cap, where nothing is cancelled
    counting = CountingMath(monkeypatch)
    reports = [series_module.sum_to_digits(cat.series_by_name(name), 20000)
               for name in ("s1", "s2", "s3")]
    cap = series_module._MAX_GCD_BITS
    assert max(counting.merge_bits) > cap and max(counting.gcd_bits) <= cap
    assert {report.certified_digits for report in reports} == {20000}
    assert len({report.decimal_string for report in reports}) == 1


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
    report = series_module.sum_to_digits(alt_series(text, 8), 50)
    assert report.decimal_string.startswith("0.00000000000308116887624")
    assert report.terms_used == 15


@pytest.mark.parametrize("digits", [80, 40])
def test_a_cancelled_root_past_the_cut_is_still_refused(digits):
    # the ratio reduces to -1/(n+1), but the term is undefined at n=50;
    # at 80 digits the cut is near n=59, so only the step check at n=49
    # sees the root; at 40 digits the tail check does
    series = SeriesSpec("x", parse_term("(-1)^n * (n-50) / (n-50) / n!"), 2)
    with pytest.raises(DomainError) as raised:
        series_module.sum_to_digits(series, digits)
    assert str(raised.value) == "denominator polynomial vanishes at (n=50, k=0)"


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_the_sum_denominator_stays_small(cat, name):
    # at 3000 digits, the merges cancel the factorials' common factors:
    # the tree's denominator is within 64 bits of the reduced sum's
    series = cat.series_by_name(name)
    _, denominator, _, count = series.sum_to_cut(Fraction(1, 10**3002))
    reduced = series.partial_sum(count).denominator
    assert denominator > 0 and denominator % reduced == 0
    assert denominator.bit_length() - reduced.bit_length() <= 64


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
    from wzeta.terms import _MAX_RATIO_DEGREE

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


def reduced_limit(series):
    """(e, c) read from the reduced term ratio: the difference of its
    sides' degrees and the quotient of their leading coefficients."""
    ratio = series.term_ratio()
    return (ratio.num.degree("n") - ratio.den.degree("n"),
            Fraction(ratio.num.leading_coefficient(), ratio.den.leading_coefficient()))


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "lhs_s1", "lhs_s2"])
def test_the_structural_ratio_limit_is_the_reduced_ratios(cat, name):
    series = cat.series_by_name(name)
    assert ratio_limit(series.term, name) == reduced_limit(series)


def test_the_structural_ratio_limit_of_random_terms_is_the_reduced_ratios():
    # factorials of ±n and ±2n, to powers 1 and 2, with polynomial factors
    # and removable ones: e and c from the factorials' n-coefficients
    rng = random.Random(26)
    for _ in range(1000):
        series = alt_series(random_term_text(rng))
        assert ratio_limit(series.term, "t") == reduced_limit(series), series.term


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


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "lhs_s1", "lhs_s2", "accel(s1)", "accel(s2)"])
def test_the_stepping_iterator_matches_each_first_value(cat, name):
    # past its first value the iterator steps c, α and β by differences;
    # each value matches the first value of an iterator started at its n,
    # read by Horner's rule
    if name.startswith("accel"):
        series = accelerate(cat.pair_by_name(name[6:-1]))
    else:
        series = cat.series_by_name(name)
    start = series.start_index
    for n, evaluated in zip(range(start, start + 3000), series._stepping(start)):
        assert evaluated == next(series._stepping(n)), n


# c(5) = 0, so t(5) = 0; β(6) = 0, where t(7) is undefined; h(3) = 0,
# within its root bound, where t(3) = t(4) = 0; the step from n = 10 is
# +1/11; α(20) = 0, so a step gives t(21) = 0, and t(22) is undefined
STOPPING_TEXTS = ["(-1)^n * (n-5) / n!", "(-1)^n / (n-7) / n!",
                  "(-1)^n * (n-3)*(n-4) / n!", "(-1)^n * (2*n-21) / n!", "(-1)^n / (20-n)!"]


@pytest.mark.parametrize("text,stop,step", zip(STOPPING_TEXTS, (5, 6, 3, 10, 20),
                                               (None, None, None, (1, 11), (0, 1))))
def test_the_stepping_iterator_matches_through_stops(text, stop, step):
    series = alt_series(text)
    evaluated = next(series._stepping(stop))
    assert (evaluated and evaluated[0]) == step
    for first in range(0, 12):
        for n, evaluated in zip(range(first, first + 40), series._stepping(first)):
            assert evaluated == next(series._stepping(n)), (first, n)


@pytest.mark.parametrize("text,start,restarts,cut,tails", [
    (STOPPING_TEXTS[0], 0, [0, 6], "NonAlternating: term at n=5 is zero",
     ["NonAlternating: term at n=5 is zero"] * 2),
    (STOPPING_TEXTS[0], 6, [6], 24, [True, True]),
    (STOPPING_TEXTS[1], 0, [0, "denominator polynomial vanishes at (n=7, k=0)"],
     "MonotonicityViolation: |term| did not decrease from n=0 to n=1",
     ["DomainError: denominator polynomial vanishes at (n=7, k=0)"] * 2),
    (STOPPING_TEXTS[1], 6, [6, "denominator polynomial vanishes at (n=7, k=0)"],
     "DomainError: denominator polynomial vanishes at (n=7, k=0)",
     ["DomainError: denominator polynomial vanishes at (n=7, k=0)", True]),
    (STOPPING_TEXTS[1], 8, [8], 20, [True, True]),
    (STOPPING_TEXTS[2], 0, [0, 4, 5], "NonAlternating: term at n=3 is zero",
     ["NonAlternating: term at n=3 is zero"] * 2),
    (STOPPING_TEXTS[2], 6, [6], 25, [True, True]),
    (STOPPING_TEXTS[3], 0, [0], "NonAlternating: terms at n=10 and n=11 share a sign",
     ["NonAlternating: terms at n=10 and n=11 share a sign"] * 2),
    (STOPPING_TEXTS[3], 11, [11], 19, [True, True]),
    (STOPPING_TEXTS[4], 15, [15, "(n=22, k=0) outside term domain"],
     "MonotonicityViolation: |term| did not decrease from n=15 to n=16",
     ["TailBoundError: term ratio is not certifiably positive past the cut"] * 2),
])
def test_walks_stop_and_restart_where_the_steps_do(text, start, restarts, cut, tails):
    # the walk's restarts, then its error; sum_to_cut's count to 10^-30,
    # or its error; tail_bound(1) and tail_bound(3): the first omitted
    # term, or the error of a step checked before the certificate
    def outcome(f):
        try:
            return f()
        except WZetaError as exc:
            return f"{type(exc).__name__}: {exc}"

    series = alt_series(text, start)
    seen = []
    try:
        for n, value, evaluated in series.walk(start, start + 30):
            if evaluated is None:
                seen.append(n)
                assert value == series.term_at(n)
    except DomainError as exc:
        seen.append(str(exc))
    assert seen == restarts
    if isinstance(restarts[-1], int):
        assert series.partial_sum(30) == sequential_sum(series, 30)
        for n, value in walk_values(series, start, start + 30):
            assert value == series.term_at(n)
    else:
        assert outcome(lambda: series.partial_sum(30)) == f"DomainError: {restarts[-1]}"
    result = outcome(lambda: series.sum_to_cut(Fraction(1, 10**30)))
    if isinstance(cut, int):
        numerator, denominator, tail, count = result
        assert count == cut and Fraction(numerator, denominator) == series.partial_sum(count)
        assert tail == abs(series.term_at(start + count))
    else:
        assert result == cut
    assert [outcome(lambda: series.tail_bound(count) == abs(series.term_at(start + count)))
            for count in (1, 3)] == tails


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
