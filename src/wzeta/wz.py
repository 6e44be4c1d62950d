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
from functools import cached_property
from typing import Iterator, NamedTuple

from .algebra import Frozen, LinearForm, RationalFunction, fraction_text, value_repr
from .errors import DomainError, SingularGrid, WZetaError
from .precision import truncated_decimal
from .series import SeriesSpec
from .terms import Domain, HyperTerm, cross_ratio, factorial_ladder

# decimals of two_sided_gap's texts
_GAP_PLACES = 30
# diagonal terms two_sided_gap first sums exactly; the tail bound of s1's
# diagonal there, the slower bundled one at 0.6 digits a term, is 2e-43
_FIRST_GAP_TERMS = 64


class WZPair(Frozen):
    """A candidate pair for the discrete telescoping identity; immutable,
    equal and hashed by its fields.

    zeta3_multiple is the multiple of ζ(3) that Σ_{n≥0} G(n, 0) sums to,
    the one fact the terms cannot tell.
    """

    def __init__(self, name: str, f: HyperTerm, g: HyperTerm, zeta3_multiple: Fraction):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "zeta3_multiple", zeta3_multiple)

    @property
    def _key(self) -> tuple:
        return self.name, self.f, self.g, self.zeta3_multiple

    @cached_property
    def check_domain(self) -> Domain:
        """The (n, k) region on which all four values in the identity are
        defined: the constraints of F(n+1, k), F(n, k), G(n, k+1) and
        G(n, k)."""
        n, k = LinearForm(1, 0, 0), LinearForm(0, 1, 0)
        f_up = self.f.domain.substituted(LinearForm(1, 0, 1), k)
        g_up = self.g.domain.substituted(n, LinearForm(0, 1, 1))
        return Domain(tuple(dict.fromkeys(
            f_up.constraints + self.f.domain.constraints
            + g_up.constraints + self.g.domain.constraints)))

    def rows(self, n_max: int) -> Iterator[tuple[int, int, int]]:
        """check_domain.rows(n_max); the DomainError of a region that
        does not bound k names the pair."""
        try:
            yield from self.check_domain.rows(n_max)
        except DomainError as exc:
            raise DomainError(f"pair {self.name}: {exc}") from None


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
    failures: tuple[FailurePoint, ...] = ()

    @property
    def first_failure(self) -> FailurePoint | None:
        return self.failures[0] if self.failures else None

    def serialize(self) -> str:
        lines = [f"{p.n} {p.k} {fraction_text(p.lhs)} {fraction_text(p.rhs)} fail"
                 for p in self.failures]
        degree = f" degree_bound={self.degree_bound}" if self.mode == "symbolic" else ""
        lines.append(f"mode={self.mode}{degree} points_checked={self.points_checked} "
                     f"outcome={self.outcome}")
        return "\n".join(lines)


def verify_grid(pair: WZPair, n_max: int) -> VerifyReport:
    """Check the pair identity exactly at every point of check_domain
    with n ≤ n_max.

    The grid is swept row by row, and each F and G value is computed
    once: the F(n+1, k) of row n are row n+1's F(n, k), and G(n, k+1) at
    one point is G(n, k) at the next. Values are requested in the order
    F(n+1,k), F(n,k), G(n,k+1), G(n,k), skipping those already known, so
    a DomainError names the same point as a point-by-point check would.

    Every value is a direct evaluation of F or G by value_at, which reads
    its factorials from one factorial_ladder built for this call. A point
    with values F(n+1,k) = a1/b1, F(n,k) = a0/b0, G(n,k+1) = c1/d1 and
    G(n,k) = c0/d0 passes iff

        (a1·b0 − a0·b1)·(d1·d0) == (c1·d0 − c0·d1)·(b1·b0),

    which is the identity multiplied by the nonzero b1·b0·d1·d0 and is
    decided in integers; the two sides are formed as Fractions only at a
    failing point.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    f, g = pair.f, pair.g
    factorial = factorial_ladder()
    checked = 0
    failures = []
    f_known: dict[tuple[int, int], Fraction] = {}  # F(n, k) of this row, from the last
    for n, lo, hi in pair.rows(n_max):
        f_next = {}
        for k in range(lo, hi + 1):
            f_up = f_next[n + 1, k] = f.value_at(n + 1, k, factorial)
            f_here = f_known.pop((n, k), None)
            if f_here is None:
                f_here = f.value_at(n, k, factorial)
            g_up = g.value_at(n, k + 1, factorial)
            if k == lo:
                g_here = g.value_at(n, k, factorial)
            a1, b1 = f_up.numerator, f_up.denominator
            a0, b0 = f_here.numerator, f_here.denominator
            c1, d1 = g_up.numerator, g_up.denominator
            c0, d0 = g_here.numerator, g_here.denominator
            checked += 1
            if (a1 * b0 - a0 * b1) * (d1 * d0) != (c1 * d0 - c0 * d1) * (b1 * b0):
                failures.append(FailurePoint(n, k, f_up - f_here, g_up - g_here))
            g_here = g_up
        f_known = f_next
    outcome = "pass" if not failures else "fail"
    return VerifyReport("grid", outcome, checked, failures=tuple(failures))


def grid_points(pair: WZPair, n_max: int, stop_above: int) -> int:
    """How many points verify_grid(pair, n_max) checks, counted over
    the same check_domain rows without evaluating a term. Counting ends as
    soon as the count passes stop_above, so a huge n_max returns promptly."""
    count = 0
    for _, lo, hi in pair.rows(n_max):
        count += hi - lo + 1
        if count > stop_above:
            break
    return count


def certificate(pair: WZPair) -> RationalFunction:
    """The rational function R(n, k) = G(n, k)/F(n, k)."""
    return cross_ratio(pair.g, pair.f)


def verify_symbolic(pair: WZPair) -> VerifyReport:
    """Prove or refute the pair identity up to a degree bound.

    Dividing the identity by F(n, k) gives

        r1(n,k) - 1 = R(n, k+1)·r2(n,k) - R(n,k)

    with r1 = F(n+1,k)/F(n,k), r2 = F(n,k+1)/F(n,k) and R = G/F, all
    rational. Cleared of denominators this is a polynomial identity
    P(n,k) ≡ 0 whose degrees are bounded by the factor degrees without
    expanding P; evaluating exactly on a zero-free integer grid of
    (deg_n+1)×(deg_k+1) points therefore decides it completely.
    """
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

    checked = 0
    failures = []
    for n in n_values:
        for k in k_values:
            lhs = r1.evaluate(n, k) - 1
            rhs = cert_up.evaluate(n, k) * r2.evaluate(n, k) - cert.evaluate(n, k)
            checked += 1
            if lhs != rhs:
                failures.append(FailurePoint(n, k, lhs, rhs))
    outcome = "pass" if not failures else "fail"
    return VerifyReport(
        "symbolic",
        outcome,
        checked,
        degree_bound=max(need_n, need_k) - 1,
        failures=tuple(failures),
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
    """The diagonal series Σ_{n≥1} b_n, b_n = F(n, n-1) + G(n-1, n-1).

    b_n is built as one hypergeometric term, F(n, n-1)·(1 + R) with the
    rational R = G(n-1, n-1)/F(n, n-1) (IncompatibleTerms otherwise).
    For a verified pair the series has the same limit as Σ_{n≥0} G(n, 0),
    the pair's zeta3_multiple times ζ(3). Verification is the caller's
    responsibility.
    """
    n, n_less_1 = LinearForm(1, 0, 0), LinearForm(1, 0, -1)
    f_diag = pair.f.substituted(n, n_less_1)  # F(n, n-1)
    g_diag = pair.g.substituted(n_less_1, n_less_1)  # G(n-1, n-1)
    r = cross_ratio(g_diag, f_diag)
    return SeriesSpec(
        name=f"accel({pair.name})",
        term=HyperTerm(
            f_diag.sign_exponent,
            f_diag.factorials,
            f_diag.poly_num * (r.den + r.num),
            f_diag.poly_den * r.den,
            f_diag.constant,
            Domain((n_less_1,) + f_diag.domain.constraints + g_diag.domain.constraints),
        ),
        start_index=1,
        zeta3_multiple=pair.zeta3_multiple,
    )


def lhs_series(pair: WZPair) -> SeriesSpec:
    """The column series Σ_{n≥0} G(n, 0), summing to the pair's
    zeta3_multiple times ζ(3) (the slow side for the bundled pairs, with
    positive terms and polynomial-rate decay)."""
    g_column = pair.g.substituted(LinearForm(1, 0, 0), LinearForm())  # G(n, 0)
    return SeriesSpec(f"lhs({pair.name})", g_column, 0, pair.zeta3_multiple)


def two_sided_gap(pair: WZPair, lhs_count: int, accel_count: int) -> tuple[str, str, str]:
    """(gap, bound, verdict) for the column's first lhs_count terms and
    the diagonal's first accel_count: gap is |the difference of the two
    partial sums| and bound the sum of their tail bounds, each truncated
    to _GAP_PLACES decimals, and verdict is "ok" if gap ≤ bound, "fail"
    otherwise; a true pair is "ok".

    The diagonal is summed exactly only to its first m terms. Its printed
    terms after those sum to r with |r| ≤ s = tail_bound(m), which bounds
    every finite run of terms after the cut, so the exact gap |x − r|,
    x = column − diagonal to m, lies in [|x| − s, |x| + s]. Where both
    ends truncate to the same text and lie on the same side of the bound,
    that text and side are the line's. Otherwise, or where tail_bound(m)
    raises or the step at the cut is zero or undefined, m doubles, up to
    m = accel_count, where s = 0 and the gap is the exact one. Each sum
    to m is a prefix of the exact sum, so it raises only the exact sum's
    error, and a try decides only once the steps past its cut are checked
    to be nonzero ratios, so that the exact sum would raise nothing: every
    input gives the exact sums' line or raises their error.
    """
    slow, fast = lhs_series(pair), accelerate(pair)
    slow_sum = slow.partial_sum(lhs_count)
    bound = None
    count = min(_FIRST_GAP_TERMS, accel_count)
    while True:
        spread = _run_bound(fast, count) if count < accel_count else Fraction(0)
        if spread is not None:
            x = abs(slow_sum - fast.partial_sum(count))
            low, high = x - spread, x + spread
            gap = truncated_decimal(high, _GAP_PLACES)
            if truncated_decimal(low, _GAP_PLACES) == gap:
                if bound is None:  # after the sums, so their errors come first
                    bound =slow.tail_bound(lhs_count) + fast.tail_bound(accel_count)
                if high <= bound or low > bound:
                    verdict = "ok" if high <= bound else "fail"
                    return gap, truncated_decimal(bound, _GAP_PLACES), verdict
        count = min(2 * count, accel_count)


def _run_bound(series: SeriesSpec, count: int) -> Fraction | None:
    """tail_bound(count), or None where it raises or where the step at
    the cut is zero or undefined. Past a positive series' certified cut,
    only the step at the cut itself can be zero; partial_sum would then
    evaluate each later term on its own, and those may raise."""
    try:
        bound = series.tail_bound(count)
    except WZetaError:
        return None
    return bound if series.ratio_step(series.start_index + count)[0] else None
