import random

import pytest

from wzeta import load_catalog
from wzeta.errors import DomainError


@pytest.fixture(scope="session")
def cat():
    return load_catalog()


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
