import functools
import hashlib
import itertools
import math
import statistics
import sys
from fractions import Fraction

import mpmath
import pytest
from conftest import fraction_terms
from hypothesis import given, settings, strategies as st

from wzeta import accelerate
from wzeta import series as series_module
from wzeta.dsl import parse_term
from wzeta.errors import (
    DomainError,
    MonotonicityViolation,
    NonAlternating,
    TailBoundError,
)
from wzeta.series import SeriesSpec


def reference_digits(count):
    """First `count` decimals of the limit, truncated, via mpmath."""
    with mpmath.workdps(count + 20):
        text = mpmath.nstr(mpmath.zeta(3), count + 10, strip_zeros=False)
    return text[: count + 2]  # "1." + count digits


def test_twenty_digit_anchor(cat):
    report = series_module.sum_to_digits(cat.series_by_name("s1"), 20)
    assert report.decimal_string == "1.20205690315959428539"
    assert report.certified_digits == 20
    assert report.rounding_bound == 0


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
@pytest.mark.parametrize("digits", [1, 30, 200])
def test_certified_digits_match_reference(cat, name, digits):
    report = series_module.sum_to_digits(cat.series_by_name(name), digits)
    assert report.certified_digits == digits
    assert report.decimal_string == reference_digits(digits)


@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_soundness_against_longer_run(cat, name):
    series = cat.series_by_name(name)
    report = series_module.sum_to_digits(series, 60)
    reference = series.partial_sum(report.terms_used + 400)
    partial = series.partial_sum(report.terms_used)
    assert abs(reference - partial) <= report.tail_bound + report.rounding_bound


def test_stopping_rule(cat):
    # the cut's |t(N)| and |t(N-1)| against direct evaluation in both modes
    digits = 40
    threshold = Fraction(1, 10 ** (digits + 2))
    for name in ("s1", "s2", "s3"):
        series = cat.series_by_name(name)
        for mode in ("exact", "scaled"):
            report = series_module.sum_to_digits(series, digits, mode=mode)
            first_omitted = series.term_at(series.start_index + report.terms_used)
            last_used = series.term_at(series.start_index + report.terms_used - 1)
            assert abs(first_omitted) < threshold <= abs(last_used)
            assert report.tail_bound == abs(first_omitted)


@pytest.mark.parametrize("mode", ["exact", "scaled"])
@pytest.mark.parametrize("digits", [1000, 3000])
@pytest.mark.parametrize("name", ["s1", "s2", "s3"])
def test_the_tail_bound_is_the_first_omitted_term(cat, name, digits, mode):
    series = cat.series_by_name(name)
    report = series_module.sum_to_digits(series, digits, mode=mode)
    assert report.tail_bound == abs(series.term_at(series.start_index + report.terms_used))


@pytest.mark.parametrize("mode", ["exact", "scaled"])
@pytest.mark.parametrize("digits", [1, 7, 40, 300])
def test_negative_sum(mode, digits):
    # sums to about -0.2093: truncation toward zero of a negative value
    series = SeriesSpec("neg", parse_term("(-1)^(n+1) * n!^2 / (2*n)! / 3"))
    report = series_module.sum_to_digits(series, digits, mode=mode)
    assert report.decimal_string.startswith("-0.")
    reference = series.partial_sum(report.terms_used + 400)
    assert report.decimal_string == series_module.truncated_decimal(
        reference, report.certified_digits
    )
    assert report.certified_digits == digits


@settings(max_examples=300, deadline=None)
@given(
    center=st.integers(-(10**60), 10**60),  # negative sums too
    spread=st.integers(0, 10**40),
    common=st.integers(1, 10**50),
    digits=st.integers(0, 30),
)
def test_error_floors_match_two_floors(center, spread, common, digits):
    scale = 10**digits
    assert series_module.error_floors(center, spread, common, scale) == (
        (center - spread) * scale // common,
        (center + spread) * scale // common,
    )


def test_scaled_mode_agrees_with_exact(cat):
    for name in ("s1", "s3"):
        exact = series_module.sum_to_digits(cat.series_by_name(name), 50, mode="exact")
        scaled = series_module.sum_to_digits(cat.series_by_name(name), 50, mode="scaled")
        common = min(exact.certified_digits, scaled.certified_digits)
        assert common >= 48
        assert exact.decimal_string[: 2 + common] == scaled.decimal_string[: 2 + common]
        assert scaled.rounding_bound > 0


def test_scaled_rounding_bound_is_one_over_scale(cat):
    for name in ("s1", "s2", "s3"):
        series = cat.series_by_name(name)
        report = series_module.sum_to_digits(series, 30, mode="scaled")
        scale = 1 / report.rounding_bound
        assert scale.denominator == 1
        assert scale.numerator >= 10 ** (30 + 10)
        assert str(scale.numerator).rstrip("0") == "1"  # a power of ten
        exact = series.partial_sum(report.terms_used)
        scaled = Fraction(math.floor(exact * scale), scale)
        assert scaled <= exact < scaled + report.rounding_bound
        assert report.decimal_string == series_module.truncated_decimal(
            scaled, report.certified_digits
        )


def test_monotone_refinement(cat):
    series = cat.series_by_name("s3")
    previous = None
    for digits in (5, 12, 40, 90):
        report = series_module.sum_to_digits(series, digits)
        if previous is not None:
            assert report.decimal_string.startswith(previous.decimal_string)
        previous = report


def test_accelerated_series_certifies_in_both_modes(cat):
    # the merged diagonal series has s1's ratio limit, so its rate
    from wzeta import accelerate

    fast = accelerate(cat.pair_by_name("s1"))
    assert fast.rate_estimate == cat.series_by_name("s1").rate_estimate
    with mpmath.workdps(80):
        twice = mpmath.nstr(2 * mpmath.zeta(3), 70, strip_zeros=False)
    for mode in ("exact", "scaled"):
        report = series_module.sum_to_digits(fast, 60, mode=mode)
        assert report.certified_digits == 60
        assert report.decimal_string == twice[:62]


def test_report_serialization(cat):
    report = series_module.sum_to_digits(cat.series_by_name("s1"), 1)
    assert report.serialize() == "\n".join(
        [
            "1.2",
            "terms=3",
            "tail_bound=1/1792",
            "rounding_bound=0",
            "certified_digits=1",
            "mode=exact",
            "series=s1",
        ]
    )


def test_rejects_bad_arguments(cat):
    series = cat.series_by_name("s1")
    with pytest.raises(DomainError):
        series_module.sum_to_digits(series, 0)
    with pytest.raises(DomainError):
        series_module.sum_to_digits(series, 10, mode="float")


def test_rejects_non_alternating_series(cat):
    with pytest.raises(NonAlternating):
        series_module.sum_to_digits(cat.series_by_name("lhs_s1"), 5)


def test_rejects_growing_terms():
    series = SeriesSpec("grow", parse_term("(-1)^n * (n+1)"))
    with pytest.raises(MonotonicityViolation):
        series_module.sum_to_digits(series, 5)


def test_rejects_non_geometric_series():
    # alternating and decreasing at every index, but the ratio tends to -1
    series = SeriesSpec("slow", parse_term("(-1)^(n+1) / n"), start_index=1)
    with pytest.raises(TailBoundError, match="modulus 1"):
        series_module.sum_to_digits(series, 30)


def test_checks_cover_every_index_before_the_cut():
    # terms alternate and decrease up to n=50, then t(50), t(51) are both
    # negative; the cut at 80 digits lies past n=60
    series = SeriesSpec("late", parse_term("(-1)^n * (2*n-101) / n!"))
    with pytest.raises(NonAlternating, match="n=50 and n=51"):
        series_module.sum_to_digits(series, 80)


def test_first_term_below_the_threshold():
    # |t(0)| < 10^-(D+2) already: at least one term is summed, so the
    # tail bound is the first omitted term's |t(1)|
    series = SeriesSpec("tiny", parse_term("(-1)^n / 10^40 / (n+1)!"))
    report = series_module.sum_to_digits(series, 5)
    assert report.terms_used == 1
    assert report.tail_bound == abs(series.term_at(1))
    assert report.decimal_string == "0.00000"
    assert report.certified_digits == 5


@pytest.mark.parametrize("mode", ["exact", "scaled"])
@pytest.mark.parametrize("digits", [5, 50])
def test_a_sum_on_a_digit_boundary_certifies_fewer_digits(mode, digits):
    # (n+2)/(n+1)! = 1/n! + 1/(n+1)!, so the terms sum to exactly 1/20:
    # however small the error bound, the sum's two bounds truncate to
    # 0.04... and 0.05..., and the report keeps the one digit they share
    series = SeriesSpec("twentieth", parse_term("(-1)^n * (n+2) / (20 * (n+1)!)"))
    report = series_module.sum_to_digits(series, digits, mode=mode)
    assert (report.decimal_string, report.certified_digits) == ("0.0", 1)
    assert report.tail_bound == abs(series.term_at(report.terms_used))


@pytest.mark.parametrize("mode", ["exact", "scaled"])
def test_a_sum_on_an_integer_certifies_no_digit(mode):
    # the same terms times 20 sum to exactly 1, which the bounds straddle
    series = SeriesSpec("one", parse_term("(-1)^n * (n+2) / (n+1)!"))
    with pytest.raises(TailBoundError, match="^error bounds certify no digits at all$"):
        series_module.sum_to_digits(series, 5, mode=mode)


def test_truncated_decimal():
    assert series_module.truncated_decimal(Fraction(1999, 1000), 3) == "1.999"
    assert series_module.truncated_decimal(Fraction(-1999, 1000), 2) == "-1.99"
    assert series_module.truncated_decimal(Fraction(19999, 10000), 3) == "1.999"
    assert series_module.truncated_decimal(Fraction(-1, 3), 4) == "-0.3333"
    assert series_module.truncated_decimal(Fraction(7), 0) == "7"
    assert series_module.truncated_decimal(Fraction(1, 8), 6) == "0.125000"


@pytest.mark.parametrize(
    "name,expected", [("s1", 0.602), ("s2", 1.431), ("s3", 1.806)]
)
def test_measure_rate(cat, name, expected):
    series = cat.series_by_name(name)
    rate = series_module.measure_rate(series, 100, 200)
    assert abs(rate - expected) <= 0.02
    assert abs(series.rate_estimate - rate) <= 0.02


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_measure_rate_of_accelerated_series(cat, name):
    from wzeta import accelerate

    fast = accelerate(cat.pair_by_name(name))
    rate = series_module.measure_rate(fast, 100, 200)
    assert abs(fast.rate_estimate - rate) <= 0.02


def test_measure_rate_bad_range(cat):
    series = cat.series_by_name("s1")
    with pytest.raises(DomainError):
        series_module.measure_rate(series, 0, 10)  # below start
    with pytest.raises(DomainError):
        series_module.measure_rate(series, 10, 10)


def reference_rate(series, n_lo, n_hi):
    """The slope from exact Fraction term values, one per index."""
    xs, ys = [], []
    for n, value in fraction_terms(series, n_lo):
        if n > n_hi:
            break
        if value == 0:
            raise DomainError(f"term at n={n} is zero")
        ys.append(math.log10(abs(value.numerator)) - math.log10(value.denominator))
        xs.append(n)
    return statistics.linear_regression(xs, [-y for y in ys]).slope


RATE_SERIES = ["s1", "s2", "s3", "lhs_s1", "lhs_s2", "accelerate s1", "accelerate s2"]


@pytest.mark.parametrize("span", ["first two", "100..200", "start..2000"])
@pytest.mark.parametrize("name", RATE_SERIES)
def test_measure_rate_matches_exact_terms(cat, name, span):
    from wzeta import accelerate

    if name.startswith("accelerate"):
        series = accelerate(cat.pair_by_name(name.split()[1]))
    else:
        series = cat.series_by_name(name)
    start = series.start_index
    n_lo, n_hi = {"first two": (start, start + 1), "100..200": (100, 200),
                  "start..2000": (start, 2000)}[span]
    rate = series_module.measure_rate(series, n_lo, n_hi)
    expected = reference_rate(series, n_lo, n_hi)
    assert abs(rate - expected) < 1e-9
    assert f"{rate:.3f}" == f"{expected:.3f}"


@pytest.mark.parametrize("n_lo", [0, 5])
def test_measure_rate_rejects_a_zero_term(n_lo):
    # t(5) = 0, inside the range or at its first index
    series = SeriesSpec("zero", parse_term("(-1)^n * (n-5) / n!"))
    with pytest.raises(DomainError, match="n=5 is zero"):
        series_module.measure_rate(series, n_lo, 10)


_INT_TEXT_CASES = [
    (0, "0"), (7, "7"), (-7, "-7"), (10**4299, "10^4299"), (10**4300 - 1, "10^4300-1"),
    (3**20000, "3^20000"), (-(7**9000), "-7^9000"), (10**12000, "10^12000"),
    (math.factorial(128767), "128767!"),
]


# str(128767!) takes CPython's quadratic int-to-str about 14 s on a 2-vCPU
# machine: its two texts, str(value) and str(value/3), were computed once by
# str() with the limit lifted, and are pinned here by length and SHA-256
_PINNED_TEXTS = {
    "128767!": ((602055, "5b9222438e5b44d2e3066cb29ea2a5b3f67f0885e50406492a4864fb7e2beec0"),
                (602054, "cdff32d1f771528cf0b7b0efdc65d13ef945eca9ec60431a8f968f9756d8e857")),
}


def text_digest(text):
    return len(text), hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def reference_texts(value):
    """str(value) and str(value/3), computed once per value; the caller
    lifts the int-to-str limit."""
    return str(value), str(Fraction(value, 3))


# each case at the interpreter's default limit, then at 640, the least
@pytest.mark.parametrize("value,name,limit", [
    pytest.param(value, name, limit, id=name if limit is None else f"{name} at 640")
    for limit in (None, 640) for value, name in _INT_TEXT_CASES
])
def test_int_text_matches_str_past_the_limit(int_str_limit, value, name, limit):
    int_str_limit(0)  # the reference only
    expected = _PINNED_TEXTS.get(name) or reference_texts(value)
    int_str_limit(limit or sys.int_info.default_max_str_digits)
    texts = series_module.int_text(value), series_module.fraction_text(Fraction(value, 3))
    if name in _PINNED_TEXTS:
        texts = tuple(map(text_digest, texts))
    assert texts == expected


@pytest.mark.parametrize("text,start,count", [
    ("(-1)^n * (n-5) / n!", 0, 40),  # t(5) = 0 from the step at n = 4
    ("(-1)^n * (n-5) / n!", 5, 40),  # starts at the zero term
    ("(-1)^n * (n-3)*(n-4) / n!", 0, 40),  # two zero terms, the ratio undefined at both
])
def test_term_texts_restart_as_terms_does(text, start, count):
    series = SeriesSpec("z", parse_term(text), start)
    expected = [(n, series_module.fraction_text(value))
                for n, value in itertools.islice(fraction_terms(series), count)]
    assert list(series_module.term_texts(series, count)) == expected
    assert "0" in dict(expected).values()


@pytest.mark.parametrize("pair", ["s1", "s2"])
def test_term_texts_match_the_fraction_walk(cat, int_str_limit, pair):
    # s2's denominators pass the default limit of 4300 digits from term 2996 on
    int_str_limit(4300)
    series = accelerate(cat.pair_by_name(pair))
    values = itertools.islice(fraction_terms(series), 3000)
    for (n, value), (m, text) in zip(values, series_module.term_texts(series, 3000), strict=True):
        assert (m, text) == (n, series_module.fraction_text(value))
