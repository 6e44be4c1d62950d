"""Certified decimal evaluation of alternating series.

sum_to_digits takes from SeriesSpec.sum_to_cut the sum up to the first
term negligible for the requested precision and that term t(N), which
bounds the tail. Both are read from one streaming product tree whose
leaves are the ratio's linear part α/β, with the series' nonlinear
factor c(n) as each term's weight; each step is evaluated once, from
that split. Scaled mode truncates the sum once to a fixed point,
adding 1/scale to the error. The digits come from
one pair of scaled floors of the sum minus and plus the error (one
full-width division; the upper floor comes from its remainder), divided
by 10 until they agree while the bounds straddle a decimal boundary.

Integers print through algebra.int_text; term_texts carries each term's
numerator and denominator as Decimals, each step linear in their length,
along SeriesSpec.walk, whose restart rule is the one rule.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Iterator, NamedTuple

from .algebra import EXACT, SCALED, _EXACT, _to_decimal, fraction_text, int_text, value_repr
from .errors import DomainError, TailBoundError
from .series import SeriesSpec

# one truncation loses under 1/scale whatever the term count; 20 guard
# digits keep that below terms/10^(D+10+log10(terms)) up to 10^10 terms
_SCALED_GUARD = 20


class EvalReport(NamedTuple):
    series: str
    mode: str
    decimal_string: str
    terms_used: int
    tail_bound: Fraction
    rounding_bound: Fraction
    certified_digits: int

    def __repr__(self) -> str:
        return value_repr(self)

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

    numerator, denominator, tail, count = series.sum_to_cut(Fraction(1, 10 ** (digits + 2)))
    rounding = Fraction(0)
    if mode == SCALED:
        scale = 10 ** (digits + _SCALED_GUARD)
        numerator, denominator = numerator * scale // denominator, scale
        rounding = Fraction(1, scale)

    # floor((x ∓ e)·10^c) for the sum x and error e, from c = digits down
    error = tail + rounding
    low, high = error_floors(numerator * error.denominator, error.numerator * denominator,
                             denominator * error.denominator, 10**digits)
    certified = digits
    while low != high:
        if certified == 0:
            raise TailBoundError("error bounds certify no digits at all")
        low, high, certified = low // 10, high // 10, certified - 1
    # e > 0 puts x·10^c strictly inside (low, low + 1): x truncates
    # toward zero to low, or to low + 1 when it is negative
    magnitude = -(low + 1) if numerator < 0 else low
    return EvalReport(
        series=series.name,
        mode=mode,
        decimal_string=_decimal_text(numerator < 0, magnitude, certified),
        terms_used=count,
        tail_bound=tail,
        rounding_bound=rounding,
        certified_digits=certified,
    )


def error_floors(center: int, spread: int, common: int, scale: int) -> tuple[int, int]:
    """(floor((center - spread)·scale/common), floor((center + spread)·scale/common))
    for common > 0, from one full-width division: the second floor is
    the first plus that of (its remainder + 2·spread·scale)/common."""
    low, rest = divmod((center - spread) * scale, common)
    return low, low + (rest + 2 * spread * scale) // common


def truncated_decimal(value: Fraction, places: int) -> str:
    """Decimal string of value truncated (toward zero) to `places`
    fractional digits."""
    scaled = abs(value.numerator) * 10**places // value.denominator
    return _decimal_text(value.numerator < 0, scaled, places)


def _decimal_text(negative: bool, scaled: int, places: int) -> str:
    """The decimal string of ±scaled/10^places, scaled ≥ 0."""
    sign = "-" if negative else ""
    if places == 0:
        return sign + int_text(scaled)
    digits = int_text(scaled).zfill(places + 1)
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def term_texts(series: SeriesSpec, count: int) -> Iterator[tuple[int, str]]:
    """(n, fraction_text(t(n))) for the first `count` terms, along
    series.walk, in time linear in each term's length.

    The reduced numerator P and denominator Q of t(n) are carried as
    Decimal integers and multiplied by each ratio step p/q as Fraction
    does: with g1 = gcd(P, q) and g2 = gcd(p, Q), P·p/(Q·q) is
    (P/g1)·(p/g2) / ((Q/g2)·(q/g1)) in lowest terms, and each gcd, division
    and product has one small operand. Where the walk restarts, P and Q
    come from the term it gives.
    """
    for n, value, step in series.walk(series.start_index, series.start_index + count):
        if not step:
            num, den = _to_decimal(value.numerator), _to_decimal(value.denominator)
        elif not step[0]:
            num, den = decimal.Decimal(0), decimal.Decimal(1)
        else:
            p, q = step
            g1 = math.gcd(int(_EXACT.remainder(num, q)), q)
            g2 = math.gcd(int(_EXACT.remainder(den, abs(p))), p)
            if g1 > 1:
                num = _EXACT.divide_int(num, g1)
            if g2 > 1:
                den = _EXACT.divide_int(den, g2)
            num, den = _EXACT.multiply(num, p // g2), _EXACT.multiply(den, q // g1)
        yield n, str(num) if den == 1 else f"{num}/{den}"


def measure_rate(series: SeriesSpec, n_lo: int, n_hi: int) -> float:
    """Least-squares slope of -log10|term(n)| over n in [n_lo, n_hi]:
    decimal digits gained per term. The logarithms are summed from the
    ratio steps, since the slope does not depend on t(n_lo)."""
    if n_lo < series.start_index or n_hi <= n_lo:
        raise DomainError(
            f"need start_index <= n_lo < n_hi, got [{int_text(n_lo)}, {int_text(n_hi)}] "
            f"with start_index {series.start_index}"
        )
    import statistics  # only here: it costs every other command's start-up

    ys = [-y for y in series.log_terms(n_lo, n_hi)]
    return statistics.linear_regression(list(range(n_lo, n_hi + 1)), ys).slope


def compare_series(a: SeriesSpec, b: SeriesSpec, digits: int) -> int:
    """Number of leading fractional digits on which certified sums of two
    series agree, capped at the smaller certified count."""
    if a.zeta3_multiple != b.zeta3_multiple:
        raise DomainError(
            "series claim different multiples of the limit "
            f"({fraction_text(a.zeta3_multiple)} vs {fraction_text(b.zeta3_multiple)})"
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
