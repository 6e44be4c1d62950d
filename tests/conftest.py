import random
import sys
from fractions import Fraction

import pytest

from wzeta import accelerate, lhs_series, load_catalog, truncated_decimal
from wzeta.algebra import LinearForm
from wzeta.errors import DomainError
from wzeta.terms import Domain


@pytest.fixture(scope="session")
def cat():
    return load_catalog()


@pytest.fixture
def int_str_limit():
    """A function that sets CPython's int-to-str limit (0: none) for the
    rest of the test; the limit in force before is restored after it. On
    an interpreter without the limit (before 3.10.7), calling it skips
    the test."""
    saved = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None

    def set_limit(digits: int) -> None:
        if saved is None:
            pytest.skip("this interpreter has no int-to-str limit")
        sys.set_int_max_str_digits(digits)

    yield set_limit
    if saved is not None:
        sys.set_int_max_str_digits(saved)


def valid_points(term, count, seed=0, n_max=14):
    """Random (n, k) points at which the term evaluates without error."""
    rng = random.Random(seed)
    try:
        rows = {n: (lo, hi) for n, lo, hi in term.domain.rows(n_max - 1)}
    except DomainError:  # k unconstrained (one-variable term): k = 0 in every row
        bounded = Domain(term.domain.constraints + (LinearForm(0, 1, 0), LinearForm(0, -1, 0)))
        rows = {n: (lo, hi) for n, lo, hi in bounded.rows(n_max - 1)}
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        assert attempts < 50 * count, "term is undefined almost everywhere"
        n = rng.randrange(0, n_max)
        if n not in rows:
            continue
        k = rng.randrange(rows[n][0], rows[n][1] + 1)
        try:
            term.value_at(n, k)
        except DomainError:
            continue
        points.append((n, k))
    return points


def exact_gap_line(pair, lhs_count, accel_count):
    """two_sided_gap's reference: the exact gap of the two partial sums
    and the sum of their tail bounds, truncated to 30 decimals, and
    whether the gap is within the bound."""
    slow, fast = lhs_series(pair), accelerate(pair)
    gap = abs(slow.partial_sum(lhs_count) - fast.partial_sum(accel_count))
    bound = slow.tail_bound(lhs_count) + fast.tail_bound(accel_count)
    return truncated_decimal(gap, 30), truncated_decimal(bound, 30), "ok" if gap <= bound else "fail"


def fraction_terms(series, first_index=None):
    """Reference walk, independent of SeriesSpec.walk: (n, t(n)) from
    first_index (default: the start) onward, forever, each value a
    Fraction product of the last and the ratio step; after a zero term or
    where the step is undefined, from term_at."""
    n = series.start_index if first_index is None else first_index
    value = series.term_at(n)
    while True:
        yield n, value
        p, q = series.ratio_step(n)
        n += 1
        value = value * Fraction(p, q) if value and q else series.term_at(n)
