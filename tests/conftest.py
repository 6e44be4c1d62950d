import random
import sys

import pytest

from wzeta import accelerate, lhs_series, load_catalog, truncated_decimal
from wzeta.errors import DomainError


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
    points = []
    attempts = 0
    while len(points) < count:
        attempts += 1
        assert attempts < 50 * count, "term is undefined almost everywhere"
        n = rng.randrange(0, n_max)
        try:
            k_range = term.domain.k_range(n)
        except DomainError:  # k unconstrained (one-variable term)
            k_range = (0, 0)
        if k_range is None:
            continue
        k = rng.randrange(k_range[0], k_range[1] + 1)
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
