"""Pair verification and telescoping-sum acceleration.

A pair (F, G) of hypergeometric terms satisfying

    F(n+1, k) - F(n, k) = G(n, k+1) - G(n, k)

can be verified either by exact evaluation over a finite grid or, once
the certificate R = G/F is known to be rational, symbolically up to a
degree bound. Summing the identity over the triangle k < n turns the
slowly convergent column sum Σ_n G(n, 0) into the diagonal series
Σ_n [F(n, n-1) + G(n-1, n-1)] with the same limit, which for the bundled
pairs converges geometrically.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .algebra import LinearForm, RationalFunction, fraction_text, value_repr
from .errors import DomainError, SingularGrid, WZetaError, naming
from .pair import WZPair
from .terms import cross_ratio

if TYPE_CHECKING:
    from .series import SeriesSpec

# decimals of two_sided_gap's texts
_GAP_PLACES = 30
# diagonal terms two_sided_gap first sums exactly; the tail bound of s1's
# diagonal there, the slower bundled one at 0.6 digits a term, is 2e-43
_FIRST_GAP_TERMS = 64
# failing points a report keeps, the first in sweep order; the rest are
# counted, so a pair that fails everywhere prints a bounded report
_MAX_FAILURES = 100


class FailurePoint(NamedTuple):
    n: int
    k: int
    lhs: Fraction
    rhs: Fraction

    def __repr__(self) -> str:
        return value_repr(self)


class VerifyReport(NamedTuple):
    mode: str  # "grid" or "symbolic"
    outcome: str  # "pass" or "fail"
    points_checked: int
    degree_bound: int | None = None
    failures: tuple[FailurePoint, ...] = ()  # the first _MAX_FAILURES
    more_failures: int = 0  # failing points past those

    @property
    def first_failure(self) -> FailurePoint | None:
        return self.failures[0] if self.failures else None

    def serialize(self) -> str:
        lines = [f"{p.n} {p.k} {fraction_text(p.lhs)} {fraction_text(p.rhs)} fail"
                 for p in self.failures]
        if self.more_failures:
            lines.append(f"more_failures={self.more_failures}")
        degree = f" degree_bound={self.degree_bound}" if self.mode == "symbolic" else ""
        lines.append(f"mode={self.mode}{degree} points_checked={self.points_checked} "
                     f"outcome={self.outcome}")
        return "\n".join(lines)


def verify_grid(pair: WZPair, n_max: int) -> VerifyReport:
    """Check the pair identity exactly at every point of check_domain
    with n ≤ n_max.

    The grid is swept row by row, and each row reads its values from
    walks along k (HyperTerm.along_k): each walk reads its factorials
    from math.factorial once, at its first k, and steps by exact factorial
    quotients. The only values kept from one row to the next are its
    F(n+1, k), in a list indexed by k − lo, as the next row's F(n, k); a walk
    of F(n, ·) supplies only the values they lack. Values are requested
    in the order F(n+1,k), F(n,k), G(n,k+1), G(n,k), the last only at
    the row's first k, lo, since G(n,k+1) at one point is G(n,k) at the
    next: so G's walk starts at lo+1 and G(n, lo) has a walk of its own,
    and a DomainError names the same point as a point-by-point check
    would. A point with values
    F(n+1,k) = a1/b1, F(n,k) = a0/b0, G(n,k+1) = c1/d1 and G(n,k) = c0/d0
    passes iff

        (a1·b0 − a0·b1)·(d1·d0) == (c1·d0 − c0·d1)·(b1·b0),

    which is the identity multiplied by the nonzero b1·b0·d1·d0 and is
    decided in integers; the two sides are formed as Fractions only at the
    failing points the report keeps.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    f, g = pair.f, pair.g
    checked = more = 0
    failures = []
    # F(n+1, known_lo + i) of the last row; a row after a gap shares no k
    # with it, since the region is convex
    f_known, known_lo = [], 0
    for n, lo, hi in pair.rows(n_max):
        f_up_row = f.along_k(n + 1, lo)
        g_up_row = g.along_k(n, lo + 1)
        f_row = None  # a walk of F(n, ·) through a run f_known lacks
        f_next = []
        for k in range(lo, hi + 1):
            a1, b1 = value = next(f_up_row)
            f_next.append(value)
            if 0 <= k - known_lo < len(f_known):
                a0, b0 = f_known[k - known_lo]
                f_row = None
            else:
                if f_row is None:
                    f_row = f.along_k(n, k)
                a0, b0 = next(f_row)
            c1, d1 = next(g_up_row)
            if k == lo:
                c0, d0 = next(g.along_k(n, lo))
            checked += 1
            if (a1 * b0 - a0 * b1) * (d1 * d0) != (c1 * d0 - c0 * d1) * (b1 * b0):
                if len(failures) == _MAX_FAILURES:
                    more += 1
                else:
                    failures.append(FailurePoint(n, k, Fraction(a1, b1) - Fraction(a0, b0),
                                                 Fraction(c1, d1) - Fraction(c0, d0)))
            c0, d0 = c1, d1
        f_known, known_lo = f_next, lo
    outcome = "pass" if not failures else "fail"
    return VerifyReport("grid", outcome, checked, failures=tuple(failures), more_failures=more)


def certificate(pair: WZPair) -> RationalFunction:
    """The rational function R(n, k) = G(n, k)/F(n, k); an error in
    forming it names the pair."""
    with naming(f"pair {pair.name}"):
        return cross_ratio(pair.g, pair.f)


def verify_symbolic(pair: WZPair) -> VerifyReport:
    """Prove or refute the pair identity up to a degree bound.

    Dividing the identity by F(n, k) gives

        r1(n,k) - 1 = R(n, k+1)·r2(n,k) - R(n,k)

    with r1 = F(n+1,k)/F(n,k), r2 = F(n,k+1)/F(n,k) and R = G/F, all
    rational. Cleared of denominators this is a polynomial identity
    P(n,k) ≡ 0 whose degrees are bounded by the factor degrees without
    expanding P; evaluating exactly on a zero-free integer grid of
    (deg_n+1)×(deg_k+1) points therefore decides it completely. An error
    in forming r1, r2 or R names the pair.
    """
    with naming(f"pair {pair.name}"):
        r1 = pair.f.shift_ratio(1, 0)
        r2 = pair.f.shift_ratio(0, 1)
    cert = certificate(pair)
    cert_up = cert.substituted(LinearForm(1, 0, 0), LinearForm(0, 1, 1))  # R(n, k+1)

    denominators = [r1.den, r2.den, cert.den, cert_up.den]

    def degree_bound(var: str) -> int:
        d = lambda poly: max(poly.degree(var), 0)
        term1 = max(d(r1.num), d(r1.den)) + d(r2.den) + d(cert.den) + d(cert_up.den)
        term2 = d(cert_up.num) + d(r2.num) + d(r1.den) + d(cert.den)
        term3 = d(cert.num) + d(r1.den) + d(r2.den) + d(cert_up.den)
        return max(term1, term2, term3)

    need_n = degree_bound("n") + 1
    need_k = degree_bound("k") + 1
    n_values, k_values = _zero_free_grid(denominators, need_n, need_k)

    checked = more = 0
    failures = []
    for n in n_values:
        for k in k_values:
            lhs = r1.evaluate(n, k) - 1
            rhs = cert_up.evaluate(n, k) * r2.evaluate(n, k) - cert.evaluate(n, k)
            checked += 1
            if lhs != rhs:
                if len(failures) == _MAX_FAILURES:
                    more += 1
                else:
                    failures.append(FailurePoint(n, k, lhs, rhs))
    outcome = "pass" if not failures else "fail"
    return VerifyReport(
        "symbolic",
        outcome,
        checked,
        degree_bound=max(need_n, need_k) - 1,
        failures=tuple(failures),
        more_failures=more,
    )


def _zero_free_grid(denominators, need_n: int, need_k: int):
    """Find integer values S_n × S_k with no denominator vanishing at
    any grid point. Each axis window slides independently within 10
    strides, so factors like (n-k-c) that vanish along diagonals are
    escaped by separating the windows."""
    for i in range(10):
        n_base = 1 + i * need_n
        n_values = range(n_base, n_base + need_n)
        for j in range(10):
            k_base = 1 + j * need_k
            k_values = range(k_base, k_base + need_k)
            if all(
                den.evaluate(n, k) != 0
                for den in denominators
                for n in n_values
                for k in k_values
            ):
                return n_values, k_values
    raise SingularGrid(
        f"no {need_n}x{need_k} zero-free evaluation grid within the search window"
    )


def accelerate(pair: WZPair) -> SeriesSpec:
    """The diagonal series Σ_{n≥1} F(n, n-1) + G(n-1, n-1). For a verified
    pair it has the same limit as Σ_{n≥0} G(n, 0), the pair's
    zeta3_multiple times ζ(3); verification is the caller's responsibility."""
    from .series import SeriesSpec  # the summation engine, which verification never loads

    return SeriesSpec(f"accel({pair.name})", pair.diagonal_term(), 1, pair.zeta3_multiple)


def lhs_series(pair: WZPair) -> SeriesSpec:
    """The column series Σ_{n≥0} G(n, 0), summing to the pair's zeta3_multiple
    times ζ(3), the slow side for the bundled pairs; an error in forming it
    names the pair."""
    from .series import SeriesSpec

    return SeriesSpec(f"lhs({pair.name})", pair.column_term(), 0, pair.zeta3_multiple)


def two_sided_gap(pair: WZPair, lhs_count: int, accel_count: int) -> tuple[str, str, str]:
    """(gap, bound, verdict) for the column's first lhs_count terms and
    the diagonal's first accel_count: gap is |the difference of the two
    partial sums| and bound the sum of their tail bounds, each truncated
    to _GAP_PLACES decimals, and verdict is "ok" if gap ≤ bound, "fail"
    otherwise; a true pair is "ok".

    The diagonal is summed exactly only to its first m terms, and s =
    tail_bound(m) bounds every finite run of terms after the cut, so the
    exact gap lies within s of |x|, x = column − diagonal to m, and the
    exact bound in [c, c + s], c the column's tail bound: the diagonal's
    at accel_count is at most s (alternating: each step past the cut is
    checked or certified to lie in (−1, 0); positive: the d certified at
    m certifies past it, where t(n)·(n+d−1)/(d−1) does not grow). Where
    both intervals' ends truncate alike and the gap's lie on one side of
    the bound's, they decide the line. Otherwise, or where tail_bound(m)
    raises or the step at the cut is zero or undefined, m doubles, up to
    accel_count, where s = 0. Each sum to m is a prefix of the exact sum,
    and a try decides only once the steps past its cut are checked to be
    nonzero ratios, so the exact sum would raise nothing; the one check
    of the exact bound left, the domain at the diagonal's cut, evaluates
    the term there once. So every input gives the exact line or raises its
    error."""
    from .series import truncated_decimal

    slow, fast = lhs_series(pair), accelerate(pair)
    slow_sum = slow.partial_sum(lhs_count)
    count = min(_FIRST_GAP_TERMS, accel_count)
    while True:
        spread = _run_bound(fast, count) if count < accel_count else Fraction(0)
        if spread is not None:
            x = abs(slow_sum - fast.partial_sum(count))
            least = slow.tail_bound(lhs_count)  # after the sums, so their errors come first
            if count == accel_count:
                least += fast.tail_bound(accel_count)
            low, high, most = x - spread, x + spread, least + spread
            gap, bound = truncated_decimal(high, _GAP_PLACES), truncated_decimal(most, _GAP_PLACES)
            if (truncated_decimal(low, _GAP_PLACES) == gap
                    and truncated_decimal(least, _GAP_PLACES) == bound
                    and (high <= least or low > most)):
                fast.term_at(fast.start_index + accel_count)
                return gap, bound, "ok" if high <= least else "fail"
        count = min(2 * count, accel_count)


def _run_bound(series: SeriesSpec, count: int) -> Fraction | None:
    """tail_bound(count), or None where it raises or where the step at
    the cut is zero or undefined, so that SeriesSpec.walk, by its one
    restart rule, restarts past the cut. Past a positive series' certified
    cut, only that step can be zero; partial_sum would then evaluate each
    later term on its own, and those may raise."""
    try:
        bound = series.tail_bound(count)
    except WZetaError:
        return None
    return bound if series.ratio_step(series.start_index + count)[0] else None
