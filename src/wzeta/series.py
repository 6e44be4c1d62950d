"""Single-variable series of one hypergeometric term t(n), whose ratio
t(n+1)/t(n) is a rational function of n, and the binary-splitting engine
(Haible & Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", 1998) that sums them to certified decimal digits.

Each series reduces its ratio once, by the gcd of its two sides over
Z[n], to a/b, and splits that once as (c(n+1)/c(n))·(α(n)/β(n)) by
Gosper's first step at shift 1, so t(n) = c(n)·u(n) with u(n+1)/u(n) =
α(n)/β(n). A run of terms from t(m) sums to t(m) plus u(m) times one
streaming ProductTree whose leaves are α/β at each later step, with
c(n) as the weight of each term; partial_sum and sum_to_cut both sum
their runs this way. Each merge of the tree cancels the gcd of its left
part's numerator and its right part's denominator, where that gcd is
small enough to pay for itself (ProductTree). Each step is evaluated
once, from the split, for both its value and its leaf, and every walk
pulls its steps from one iterator per run, which steps the split's
polynomials by differences.
The first omitted term of sum_to_cut comes from term_at, not from the
tree. SeriesSpec.walk holds the one rule for restarting from term_at;
the checked walks never do, and share one checked step.

sum_to_digits certifies decimal digits from sum_to_cut, which sums up
to the first term t(N) negligible for the requested precision and bounds
the rest as tail_bound does. Scaled mode truncates the sum once to a
fixed point, adding 1/scale to the error. The digits come from one pair
of scaled floors of the sum minus and plus the error (one full-width
division; the upper floor comes from its remainder), divided by 10 until
they agree while the bounds straddle a decimal boundary.

Integers print through algebra.int_text; term_texts carries each term's
numerator and denominator as Decimals along walk, each step linear in
their length.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple

from .algebra import (
    EXACT,
    SCALED,
    Frozen,
    LinearForm,
    Polynomial,
    RationalFunction,
    _EXACT,
    _to_decimal,
    _values_from,
    dense_divide,
    dense_gcd,
    fraction_text,
    horner,
    int_text,
    integer_root_bound,
    limit_rate,
    value_repr,
)
from .errors import (
    DomainError,
    MonotonicityViolation,
    NonAlternating,
    TailBoundError,
)
from .terms import HyperTerm, ratio_limit

ALTERNATING = "alternating"
POSITIVE = "positive"

# most indices past the cut checked one by one before the certificate
_MAX_UNCERTIFIED = 10_000
# one truncation loses under 1/scale whatever the term count; 20 guard
# digits keep that below terms/10^(D+10+log10(terms)) up to 10^10 terms
_SCALED_GUARD = 20
# an index whose float estimate of log10|term| is this close to the
# threshold is decided with the exact term
_LOG_SLACK = 1e-3
# largest operand, in bits, whose gcd a ProductTree merge takes, for the
# smaller of the two. CPython's math.gcd is quadratic: on random operands
# 5.7 ms at 2^16 bits and 1.6 s at 2^20, against 1.4 ms and 117 ms for
# their product. A series whose leaves carry irreducible polynomials,
# (-1)^n n!^3 (n^4+7n+3) / ((3n)! (n^3+n+1)^4 (2n^2+3)^2), took at 30,000
# digits 7.1 s unreduced, 4.5 s with this cap, 5.0 s at 2^18 and 11.0 s
# uncapped; s1 at 60,000 digits took 2.3 s, 2.2 s and 2.0 s (in-process,
# Python 3.11 on a 2-vCPU machine; table in CHANGES.md)
_MAX_GCD_BITS = 2**16


class ProductTree:
    """Binary splitting fed one leaf at a time. For leaves (p_i, q_i, t_i),
    P/Q = Π_i p_i/q_i and T/Q = Σ_i (t_i/q_i)·Π_{m<i} p_m/q_m: with t_i =
    w_i·p_i, the sum of the weights w_i times the running products.
    Neighbours of equal size merge as leaves arrive, so only O(log N)
    nodes are held. A merge cancels g = gcd(P1, Q2) (Cheng, Hanrot,
    Thomé, Zima & Zimmermann, ISSAC 2007), then P = P1/g·P2, Q = Q1·Q2/g,
    T = T1·Q2/g + P1/g·T2; for a quotient of factorials most factors
    cancel. Past _MAX_GCD_BITS the quadratic math.gcd costs more than it
    saves, and is skipped. So T/Q, not (Q, T), is independent of where
    the tree splits. Each merge needs P only of its left part, so the
    final fold, from the right, never forms the whole tree's P."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []  # (leaf count, P, Q, T), counts falling powers of two

    def add(self, p: int, q: int, t: int) -> None:
        nodes, size = self._nodes, 1
        while nodes and nodes[-1][0] == size:
            _, p1, q1, t1 = nodes.pop()
            p1, q = _cancelled(p1, q)
            p, q, t = p1 * p, q1 * q, t1 * q + p1 * t
            size *= 2
        nodes.append((size, p, q, t))

    def result(self) -> tuple[int, int]:
        """(Q, T) over every leaf added; (1, 0) for none."""
        q, t = 1, 0
        for _, p1, q1, t1 in reversed(self._nodes):
            p1, q = _cancelled(p1, q)
            q, t = q1 * q, t1 * q + p1 * t
        return q, t


def _cancelled(p: int, q: int) -> tuple[int, int]:
    """(p/g, q/g) for g = gcd(p, q), or (p, q) unchanged when the smaller
    of the two is over _MAX_GCD_BITS."""
    if min(p.bit_length(), q.bit_length()) > _MAX_GCD_BITS:
        return p, q
    g = math.gcd(p, q)
    return (p // g, q // g) if g > 1 else (p, q)


class SeriesSpec(Frozen):
    """A concrete series Σ_{n≥start_index} term(n); immutable, equal and
    hashed by its four fields.

    zeta3_multiple records what multiple of the common limit the series
    converges to, so differently normalized series can be compared.
    The rest is derived from the term: sign_pattern, rate_estimate and
    geometric convergence from its factorials (terms.ratio_limit), and the
    certificate behind tail_bound from its reduced ratio.
    """

    def __init__(self, name: str, term: HyperTerm, start_index: int = 0,
                 zeta3_multiple: Fraction = Fraction(1)):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "term", term)
        object.__setattr__(self, "start_index", start_index)
        object.__setattr__(self, "zeta3_multiple", zeta3_multiple)

    @property
    def _key(self) -> tuple:
        return self.name, self.term, self.start_index, self.zeta3_multiple

    def term_at(self, n: int) -> Fraction:
        if n < self.start_index:
            raise DomainError(
                f"series {self.name!r} starts at index {self.start_index}, got {n}"
            )
        return self.term.value_at(n, 0)

    @cached_property
    def _steps(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
        """(a, b, h, bound) in dense form: the shift ratio t(n+1)/t(n)
        is h·a/(h·b), h the gcd of its two sides, so a/b is in lowest
        terms over Z[n]; b and h have positive leading coefficients, and
        every integer root of h is at most bound in modulus."""
        self._lead  # ratio_limit's checks, before the ratio is expanded
        ratio = self.term.substituted(LinearForm(1, 0, 0), LinearForm()).shift_ratio(1, 0)
        num, den = ratio.num.univariate(), ratio.den.univariate()
        h = dense_gcd(num, den)
        return dense_divide(num, h), dense_divide(den, h), h, integer_root_bound(h)

    @cached_property
    def _split(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """(c, α, β) in dense form with a(n) = c(n+1)·α(n) and b(n) =
        c(n)·β(n) for the reduced ratio a/b: Gosper's first step at shift
        1, c(n) = g(n-1) for g = gcd(a(n), b(n+1)), and c = (1,) when g is
        constant. Factors shared at larger shifts stay in α/β."""
        a, b, _, _ = self._steps
        g = dense_gcd(a, _shifted(b, 1))
        if len(g) == 1:
            return (1,), a, b
        c = _shifted(g, -1)
        return c, dense_divide(a, g), dense_divide(b, c)

    def _stepping(self, n: int) -> Iterator[tuple | None]:
        """(step, leaf) at n, n+1, ...: step = (p, q), q > 0, is t(n+1)/t(n)
        = c(n+1)·α/(c(n)·β); leaf = (α, β, c(n+1)·α) is index n+1's
        ProductTree leaf; both in lowest terms. None where the unreduced
        denominator h(n)·c(n)·β(n) is 0. The one evaluation of a step's
        polynomials: the first value is read by Horner's rule; after it,
        c, α and β step by differences (algebra._values_from), and h is
        evaluated only within its root bound."""
        c, alpha, beta = self._split
        _, _, h, bound = self._steps
        weight = horner(c, n)
        rows = itertools.chain([(n, horner(c, n + 1), horner(alpha, n), horner(beta, n))],
                               _rows_after(n, c, alpha, beta))
        for m, after, num, den in rows:
            if not weight or not den or (-bound <= m <= bound and horner(h, m) == 0):
                yield None
            else:
                g = math.gcd(num, den)
                num, den = num // g, den // g
                p, q = after * num, weight * den
                g = math.gcd(p, q)
                step = (-p // g, -q // g) if q < 0 else (p // g, q // g)
                yield step, (num, den, after * num)
            weight = after

    @cached_property
    def _ratio(self) -> RationalFunction:
        a, b, _, _ = self._steps
        return RationalFunction(Polynomial.from_univariate(a), Polynomial.from_univariate(b))

    @cached_property
    def _cancelled(self) -> Polynomial:
        """The factor h cancelled from the ratio's two sides."""
        return Polynomial.from_univariate(self._steps[2])

    def term_ratio(self) -> RationalFunction:
        """term_at(n+1)/term_at(n) as a rational function of n, in
        lowest terms."""
        return self._ratio

    @cached_property
    def _lead(self) -> tuple[int, Fraction]:
        """(e, c) with term ratio ~ c·n^e for large n (terms.ratio_limit)."""
        return ratio_limit(self.term, self.name)

    @property
    def sign_pattern(self) -> str:
        """ALTERNATING if the term ratio is negative for large n."""
        return ALTERNATING if self._lead[1] < 0 else POSITIVE

    @property
    def rate_estimate(self) -> float | None:
        """Digits gained per term, log10(1/|limit|), if the term ratio
        tends to a nonzero modulus below 1; None otherwise."""
        return limit_rate(self._lead)

    def require_geometric(self) -> None:
        """TailBoundError unless the term ratio tends to a modulus below 1."""
        excess, lead = self._lead
        if excess > 0 or (excess == 0 and abs(lead) >= 1):
            raise TailBoundError(f"term ratio of series {self.name!r} tends to modulus "
                                 f"{'infinity' if excess else fraction_text(abs(lead))}, "
                                 "not below 1: the series does not converge geometrically")

    @cached_property
    def _certified_from(self) -> int | None:
        """Smallest c ≥ start_index (None past 2^64) such that, for ratio
        -A/B, A, B, B-A and the cancelled factor h are positive past c:
        then h ≠ 0, so -A/B is the term ratio, and 0 < A(n) < B(n),
        -1 < ratio < 0, for all n ≥ c. Holding at c, this holds at every
        larger c."""
        a, b = -self._ratio.num, self._ratio.den

        def holds(c):
            return all(_positive_past(p, c) for p in (a, b, b - a, self._cancelled))

        lo, hi = self.start_index - 1, self.start_index  # holds(lo) is false
        while not holds(hi):
            if hi - lo > 2**64:
                return None
            lo, hi = hi, hi + 2 * (hi - lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
        return hi

    def ratio_step(self, n: int) -> tuple[int, int]:
        """The term ratio at n as integers (p, q) in lowest terms with
        q > 0, or (0, 0) where the unreduced ratio h·a/(h·b) has a zero
        denominator (a zero term at n, or a removable singularity)."""
        evaluated = next(self._stepping(n))
        return evaluated[0] if evaluated else (0, 0)

    def _checked_step(self, n: int, evaluated: tuple | None) -> tuple:
        """evaluated, a walk's _stepping value at n, once its step p/q is
        checked to satisfy -q < p < 0 (alternation and strict decrease); needs
        t(n) != 0. Where the step is undefined, t(n+1) is zero or
        undefined: every factor of the unreduced ratio is nonzero where
        t(n) and t(n+1) are both defined and nonzero (each rising-product
        factor is at least 1 there). So term_at(n+1) is called only for
        its DomainError."""
        if evaluated is None:
            self.term_at(n + 1)
        p, q = evaluated[0] if evaluated else (0, 0)
        if p == 0:
            raise NonAlternating(f"term at n={n + 1} is zero")
        if p > 0:
            raise NonAlternating(f"terms at n={n} and n={n + 1} share a sign")
        if -p >= q:
            raise MonotonicityViolation(
                f"|term| did not decrease from n={n} to n={n + 1}"
            )
        return evaluated

    def walk(self, first: int, end: int) -> Iterator[tuple[int, Fraction | None, tuple | None]]:
        """One entry per index n in [first, end), streamed: (n, t(n), None)
        from term_at at first and at each restart, else (n, None,
        evaluated), evaluated = ((p, q), leaf) the _stepping value at n-1,
        so t(n) = t(n-1)·p/q, pulled from one _stepping per run. The walk
        restarts after a zero term and where ratio_step is (0, 0)."""
        steps = None  # _stepping from the run's first index, while t(n-1) is nonzero
        for n in range(first, end):
            evaluated = next(steps) if steps else None
            if evaluated:
                yield n, None, evaluated
                if not evaluated[0][0]:
                    steps = None
            else:
                value = self.term_at(n)
                yield n, value, None
                steps = self._stepping(n) if value else None

    def partial_sum(self, count: int, first_index: int | None = None) -> Fraction:
        """Exact sum of `count` terms from first_index (default: the
        start), run by run along walk: each restart starts a run, summed
        by _run_sum from its term and a ProductTree over its steps."""
        if count < 0:
            raise DomainError("count must be nonnegative")
        n = self.start_index if first_index is None else first_index
        runs = []  # (m, t(m), tree) per run, m its first index
        for n, value, evaluated in self.walk(n, n + count):
            if evaluated is None:
                runs.append((n, value, ProductTree()))
            else:
                runs[-1][2].add(*evaluated[1])
        return sum((Fraction(*self._run_sum(*run)) for run in runs), Fraction(0))

    def _run_sum(self, m: int, value: Fraction, tree: ProductTree) -> tuple[int, int]:
        """(a, b), b > 0 and unreduced: a/b sums a run of terms from m,
        t(m) = value, whose steps after m are the tree's leaves α/β with
        weights c(n). That is t(m) + u(m)·T/Q, u(m) = t(m)/c(m); a run
        with T ≠ 0 has a step from m, so b(m) = c(m)·β(m) ≠ 0 and c(m) ≠ 0."""
        big_q, big_t = tree.result()
        if not big_t:
            return value.numerator, value.denominator
        weighted = horner(self._split[0], m) * big_q
        numerator, denominator = value.numerator * (weighted + big_t), value.denominator * weighted
        return (-numerator, -denominator) if denominator < 0 else (numerator, denominator)

    def sum_to_cut(self, threshold: Fraction) -> tuple[int, int, Fraction, int]:
        """(a, b, tail, count) at the first index N > start with |t(N)| <
        threshold: a/b (b > 0, unreduced) sums the count = N - start terms
        before N, and tail bounds the rest as tail_bound(count) does.

        Each index is evaluated once, by one _stepping, and checked by
        _checked_step; log10|t(n)| is summed in floats, decided exactly
        only within _LOG_SLACK of the threshold. The steps before N feed one ProductTree, summed as a
        run of partial_sum is. t(N) is term_at(N), evaluated once; with
        the last step, t(N-1) = t(N)·q/p. Both must confirm the cut, so
        the term checks the walk's steps.
        """
        n = self.start_index
        first = self.term_at(n)
        if first == 0:
            raise NonAlternating(f"term at n={n} is zero")
        log_threshold = math.log10(threshold.numerator) - math.log10(threshold.denominator)
        # estimate of log10(|t(n)| / threshold)
        gap = math.log10(abs(first.numerator)) - math.log10(first.denominator) - log_threshold
        steps = self._stepping(n)
        (p, q), leaf = self._checked_step(n, next(steps))
        self.require_geometric()  # after the first step, so a concrete violation there wins
        tree = ProductTree()
        while True:
            n += 1
            gap += math.log10(-p) - math.log10(q)
            last = self.term_at(n) if abs(gap) <= _LOG_SLACK else None
            if (abs(last) < threshold) if last is not None else gap < 0:
                break
            tree.add(*leaf)
            (p, q), leaf = self._checked_step(n, next(steps))
        if last is None:
            last = self.term_at(n)
        tail = self._tail_past(n, last)
        count = n - self.start_index
        if tail >= threshold or (count > 1 and abs(last * q / p) < threshold):
            raise TailBoundError(f"stopping index n={n} not confirmed by exact terms")
        return (*self._run_sum(self.start_index, first, tree), tail, count)

    def tail_bound(self, count: int) -> Fraction:
        """Exact rational upper bound on |sum of all terms after the
        first `count`|, and on |sum of any finite run of them from the
        first on|: |partial_sum(c2) - partial_sum(count)| for every c2 >
        count.

        Alternating series: the first omitted term, with each ratio from
        the cut up to _certified_from checked to lie in (-1, 0), the
        certificate for the rest, and geometric convergence; the terms
        alternate and shrink, so every run from the cut on sums to at
        most the first (Leibniz). Positive series: a telescoping
        comparison certified by coefficient checks; the terms are
        nonnegative, so every run sums to at most the whole tail.
        """
        if count < 1:
            raise DomainError("tail_bound requires at least one summed term")
        cut = self.start_index + count
        return self._tail_past(cut, self.term_at(cut))

    def _tail_past(self, cut: int, first: Fraction) -> Fraction:
        """tail_bound for the terms from cut on, given first = t(cut)."""
        if self.sign_pattern == POSITIVE:
            return self._positive_tail_bound(cut, first)
        if first == 0:
            raise NonAlternating(f"term at n={cut} is zero")
        steps = self._stepping(cut)
        self._checked_step(cut, next(steps))  # a concrete violation at the cut wins
        self.require_geometric()
        certified = self._certified_from
        if certified is None or certified - cut > _MAX_UNCERTIFIED:
            raise TailBoundError(f"no alternation certificate for series {self.name!r} "
                                 f"within {_MAX_UNCERTIFIED} indices past n={cut}")
        for n in range(cut + 1, certified):
            self._checked_step(n, next(steps))
        return abs(first)

    def _positive_tail_bound(self, cut: int, first: Fraction) -> Fraction:
        """Compare against C/(n(n+1)...(n+d-1)) for the largest d whose
        ratio inequality certifies, then telescope.

        If t(n+1)/t(n) = P(n)/Q(n) ≤ n/(n+d) for all n ≥ cut (certified
        by nonnegativity of the coefficients of n·Q(n+cut) − (n+d)·P(n+cut)),
        then by induction t(n) ≤ C/(n···(n+d−1)) with equality at n=cut,
        and the tail telescopes to t(cut)·(cut+d−1)/(d−1). The factor
        cancelled from P/Q must be positive past the cut, where P/Q is
        then the term ratio.
        """
        if first <= 0:
            raise TailBoundError(f"term at n={cut} is {'zero' if first == 0 else 'negative'}")
        if cut < 1:
            raise TailBoundError("comparison bound needs a positive cut index")
        p, q = self._ratio.num, self._ratio.den
        if not (_shifted_coeffs_nonneg(p, cut) and _shifted_coeffs_nonneg(q, cut)
                and _positive_past(self._cancelled, cut)):
            raise TailBoundError(
                "term ratio is not certifiably positive past the cut"
            )
        x = Polynomial.variable("n")
        for d in range(6, 1, -1):
            margin = x * q - (x + Polynomial.const(d)) * p
            if _shifted_coeffs_nonneg(margin, cut):
                return first * Fraction(cut + d - 1, d - 1)
        raise TailBoundError(
            f"no telescoping comparison certificate found at n={cut} "
            f"for series {self.name!r}"
        )


def _rows_after(n: int, c, alpha, beta) -> Iterator[tuple[int, int, int, int]]:
    """(m, c(m+1), α(m), β(m)) for m = n+1, n+2, ..., each polynomial
    stepped by differences from the first row pulled on."""
    yield from zip(itertools.count(n + 1), _values_from(c, n + 2),
                   _values_from(alpha, n + 1), _values_from(beta, n + 1))


def _positive_past(poly: Polynomial, c: int) -> bool:
    """True if poly(n + c) has nonnegative coefficients and a positive
    constant term, so poly > 0 for all n ≥ c."""
    return poly.evaluate(c) > 0 and _shifted_coeffs_nonneg(poly, c)


def _shifted_coeffs_nonneg(poly: Polynomial, shift: int) -> bool:
    """True if poly(n + shift) has only nonnegative coefficients — a
    sufficient certificate that poly ≥ 0 for all n ≥ shift."""
    shifted = poly.substituted(LinearForm(1, 0, shift), LinearForm(0, 1, 0))
    return all(c >= 0 for c in shifted.coeffs.values())


def _shifted(coeffs: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """The dense polynomial coeffs at n + shift."""
    poly = Polynomial.from_univariate(coeffs)
    return poly.substituted(LinearForm(1, 0, shift), LinearForm(0, 1, 0)).univariate()


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
    for n, value, evaluated in series.walk(series.start_index, series.start_index + count):
        if not evaluated:
            num, den = _to_decimal(value.numerator), _to_decimal(value.denominator)
        elif not evaluated[0][0]:
            num, den = decimal.Decimal(0), decimal.Decimal(1)
        else:
            p, q = evaluated[0]
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
    decimal digits gained per term. log10|t(n)/t(n_lo)| is summed from
    the ratio steps in floats, since the slope does not depend on
    t(n_lo); DomainError at a zero term."""
    if n_lo < series.start_index or n_hi <= n_lo:
        raise DomainError(
            f"need start_index <= n_lo < n_hi, got [{int_text(n_lo)}, {int_text(n_hi)}] "
            f"with start_index {series.start_index}"
        )
    import statistics  # only here: it costs every other command's start-up

    # with every factorial taken as 1, t(n_lo) keeps its zeros and domain errors
    if not next(series.term.along_k(n_lo, 0, lambda m: 1))[0]:
        raise DomainError(f"term at n={n_lo} is zero; rate undefined")
    log_term, ys = 0.0, [-0.0]
    for n, evaluated in zip(range(n_lo, n_hi), series._stepping(n_lo)):
        p, q = evaluated[0] if evaluated else (0, 0)
        if p == 0:
            if q == 0:  # t(n+1) is zero or undefined, as in _checked_step
                series.term_at(n + 1)
            raise DomainError(f"term at n={n + 1} is zero; rate undefined")
        log_term += math.log10(abs(p)) - math.log10(q)
        ys.append(-log_term)
    return statistics.linear_regression(list(range(n_lo, n_hi + 1)), ys).slope
