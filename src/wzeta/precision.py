"""Certified decimal evaluation of alternating series.

sum_to_digits sums a series, through the binary-splitting engine, up to
the first term negligible for the requested precision, checking that
every ratio up to the cut lies in (-1, 0), and reports a truncated
decimal string with exact rational error bounds: SeriesSpec.tail_bound,
the first omitted term, proved past the cut by the ratio's certificate,
and in scaled mode 1/scale for the one truncation to a fixed point. The
certified digit count drops while the bounds straddle a decimal boundary.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, NonAlternating, TailBoundError
from .series import SeriesSpec, split_ratios

EXACT = "exact"
SCALED = "scaled"

# one truncation loses under 1/scale whatever the term count; 20 guard
# digits keep that below terms/10^(D+10+log10(terms)) up to 10^10 terms
_SCALED_GUARD = 20
# an index whose float estimate of log10|term| is this close to the
# threshold is decided with the exact term
_LOG_SLACK = 1e-3
# under 4300 digits, CPython's default int-to-str limit
_STR_BITS = 14_000


@dataclass(frozen=True)
class EvalReport:
    series: str
    mode: str
    decimal_string: str
    terms_used: int
    tail_bound: Fraction
    rounding_bound: Fraction
    certified_digits: int

    def serialize(self) -> str:
        return "\n".join(
            [
                self.decimal_string,
                f"terms={self.terms_used}",
                f"tail_bound={fraction_text(self.tail_bound)}",
                f"rounding_bound={fraction_text(self.rounding_bound)}",
                f"certified_digits={self.certified_digits}",
                f"mode={self.mode}",
                f"series={self.series}",
            ]
        )


class _Unreduced(NamedTuple):
    """A partial sum left unreduced: a gcd that changes no digit."""

    numerator: int
    denominator: int


def sum_to_digits(series: SeriesSpec, digits: int, mode: str = EXACT) -> EvalReport:
    """Sum an alternating series to `digits` certified decimal places.

    Raises NonAlternating/MonotonicityViolation if a ratio up to the cut
    or before its certificate is not in (-1, 0), and TailBoundError if the
    term ratio does not tend to a modulus below 1 or has no certificate.
    """
    if mode not in (EXACT, SCALED):
        raise DomainError(f"unknown mode {mode!r}")
    if digits < 1:
        raise DomainError("digits must be at least 1")

    first, steps, tail = _walk_to_cut(series, digits)
    big_q, big_t = split_ratios([(1, 1)] + steps[:-1])
    partial = _Unreduced(first.numerator * big_t, first.denominator * big_q)
    rounding = Fraction(0)
    if mode == SCALED:
        scale = 10 ** (digits + _SCALED_GUARD)
        partial = _Unreduced(partial.numerator * scale // partial.denominator, scale)
        rounding = Fraction(1, scale)

    # partial ± error as (low or high) / common, to certify on integers
    error = tail + rounding
    common = partial.denominator * error.denominator
    low = partial.numerator * error.denominator - error.numerator * partial.denominator
    high = low + 2 * error.numerator * partial.denominator
    certified = digits
    while low * 10**certified // common != high * 10**certified // common:
        certified -= 1
        if certified < 0:
            raise TailBoundError("error bounds certify no digits at all")
    return EvalReport(
        series=series.name,
        mode=mode,
        decimal_string=truncated_decimal(partial, certified),
        terms_used=len(steps),
        tail_bound=tail,
        rounding_bound=rounding,
        certified_digits=certified,
    )


def _walk_to_cut(series: SeriesSpec, digits: int):
    """(t(start), steps, |t(N)|) for the first index N > start with
    |t(N)| < 10^-(D+2); steps are the checked ratios at start..N-1.
    log10|t(n)| is tracked in floating point, decided exactly near the
    threshold, and the cut is confirmed exactly at N-1 and N."""
    threshold = Fraction(1, 10 ** (digits + 2))
    n = series.start_index
    first = series.term_at(n)
    if first == 0:
        raise NonAlternating(f"term at n={n} is zero")
    log_term = math.log10(abs(first.numerator)) - math.log10(first.denominator)
    steps: list[tuple[int, int]] = []
    while True:
        p, q = series.alternating_step(n)
        if not steps:  # after the first step, so a concrete violation there wins
            series.require_geometric()
        steps.append((p, q))
        log_term += math.log10(-p) - math.log10(q)
        n += 1
        gap = log_term + digits + 2  # estimate of log10(|t(n)| / threshold)
        if (abs(series.term_at(n)) < threshold) if abs(gap) <= _LOG_SLACK else gap < 0:
            break
    tail = series.tail_bound(len(steps))
    if tail >= threshold or (len(steps) > 1 and abs(series.term_at(n - 1)) < threshold):
        raise TailBoundError(f"stopping index n={n} not confirmed by exact terms")
    return first, steps, tail


def truncated_decimal(value, places: int) -> str:
    """Decimal string of value truncated (toward zero) to `places`
    fractional digits; value is any rational with integer numerator and
    positive denominator, not necessarily in lowest terms."""
    sign = "-" if value.numerator < 0 else ""
    scaled = abs(value.numerator) * 10**places // value.denominator
    if places == 0:
        return sign + int_text(scaled)
    integer, fractional = divmod(scaled, 10**places)
    return f"{sign}{int_text(integer)}.{int_text(fractional).zfill(places)}"


def int_text(value: int) -> str:
    """str(value) at any length: an int past CPython's int-to-str limit
    is split by a power of ten instead of raising ValueError."""
    if value.bit_length() < _STR_BITS:
        return str(value)
    if value < 0:
        return "-" + int_text(-value)
    half = math.ceil(value.bit_length() * 0.30103 / 2)
    high, low = divmod(value, 10**half)
    return int_text(high) + int_text(low).zfill(half)


def fraction_text(value: Fraction) -> str:
    """str(value), "p/q" or "p", at any length; see int_text."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def measure_rate(series: SeriesSpec, n_lo: int, n_hi: int) -> float:
    """Least-squares slope of -log10|term(n)| over n in [n_lo, n_hi]:
    decimal digits gained per term."""
    if n_lo < series.start_index or n_hi <= n_lo:
        raise DomainError(
            f"need start_index <= n_lo < n_hi, got [{n_lo}, {n_hi}] "
            f"with start_index {series.start_index}"
        )
    xs, ys = [], []
    for n, value in series.terms(first_index=n_lo):
        if n > n_hi:
            break
        if value == 0:
            raise DomainError(f"term at n={n} is zero; rate undefined")
        ys.append(
            math.log10(abs(value.numerator)) - math.log10(value.denominator)
        )
        xs.append(n)
    slope = statistics.linear_regression(xs, [-y for y in ys]).slope
    return slope


def compare_series(a: SeriesSpec, b: SeriesSpec, digits: int) -> int:
    """Number of leading fractional digits on which certified sums of two
    series agree, capped at the smaller certified count."""
    if a.zeta3_multiple != b.zeta3_multiple:
        raise DomainError(
            "series claim different multiples of the limit "
            f"({a.zeta3_multiple} vs {b.zeta3_multiple})"
        )
    report_a = sum_to_digits(a, digits)
    report_b = sum_to_digits(b, digits)
    int_a, _, frac_a = report_a.decimal_string.partition(".")
    int_b, _, frac_b = report_b.decimal_string.partition(".")
    if int_a != int_b:
        return 0
    agree = 0
    for da, db in zip(frac_a, frac_b):
        if da != db:
            break
        agree += 1
    return min(agree, report_a.certified_digits, report_b.certified_digits)
