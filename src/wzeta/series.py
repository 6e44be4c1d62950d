"""Single-variable series of one hypergeometric term t(n), whose ratio
t(n+1)/t(n) is a rational function of n, and the binary-splitting engine
(Haible & Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", 1998) that sums them: for the steps (1, 1), then the
ratio at a, ..., b-1 as integers p/q, split_ratios gives P/Q = t(b)/t(a)
and T/Q = (t(a) + ... + t(b))/t(a): the sum up to a cut and the term there.

Each series reduces its ratio once, by the gcd of its two sides over
Z[n]; every step evaluates the reduced sides by Horner.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .algebra import (
    Frozen,
    LinearForm,
    Polynomial,
    RationalFunction,
    dense_divide,
    dense_gcd,
    fraction_text,
    horner,
    int_text,
    integer_root_bound,
)
from .errors import (
    DomainError,
    MonotonicityViolation,
    NonAlternating,
    TailBoundError,
    WZetaError,
)
from .terms import _MAX_RATIO_DEGREE, HyperTerm

ALTERNATING = "alternating"
POSITIVE = "positive"

# most indices past the cut checked one by one before the certificate
_MAX_UNCERTIFIED = 10_000
# an index whose float estimate of log10|term| is this close to the
# threshold is decided with the exact term
_LOG_SLACK = 1e-3


def split_ratios(steps: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(P, Q, T) for ratio steps (p_i, q_i), q_i > 0: P and Q are the
    products of all p_i and all q_i, and T/Q = Σ_i Π_{m≤i} p_m/q_m.
    Halves combine as P = P1·P2, Q = Q1·Q2, T = T1·Q2 + P1·T2. Nothing
    is reduced, so the result does not depend on where the tree splits."""
    if not steps:
        return 1, 1, 0
    if len(steps) == 1:
        p, q = steps[0]
        return p, q, p
    mid = len(steps) // 2
    p1, q1, t1 = split_ratios(steps[:mid])
    p2, q2, t2 = split_ratios(steps[mid:])
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


class SeriesSpec(Frozen):
    """A concrete series Σ_{n≥start_index} term(n); immutable, equal and
    hashed by its four fields.

    zeta3_multiple records what multiple of the common limit the series
    converges to, so differently normalized series can be compared.
    The rest is derived from the term ratio: sign_pattern, rate_estimate,
    geometric convergence and the certificate behind tail_bound.
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
        term = self.term.substituted(LinearForm(1, 0, 0), LinearForm())  # k = 0
        # the sides p(n+1)·q(n) and q(n+1)·p(n), each times rising
        # products, have at least this degree, and without factorials
        # exactly this; it is checked before they are expanded. Each
        # (a·n + c)!^e adds rising products of degree at least |a·e| to the
        # two sides together, so to the larger side at least half of that
        rising = sum(abs(form.a * exp) for form, exp in term.factorials)
        degree = term.poly_num.degree("n") + term.poly_den.degree("n") + (rising + 1) // 2
        at_least = "at least " if term.factorials else ""
        if degree <= _MAX_RATIO_DEGREE:
            ratio = term.shift_ratio(1, 0)
            num, den = ratio.num.univariate(), ratio.den.univariate()
            degree, at_least = max(len(num), len(den)) - 1, ""
        if degree > _MAX_RATIO_DEGREE:
            raise WZetaError(f"term ratio of series {self.name!r} has degree "
                             f"{at_least}{int_text(degree)}, over the limit of {_MAX_RATIO_DEGREE}")
        h = dense_gcd(num, den)
        return dense_divide(num, h), dense_divide(den, h), h, integer_root_bound(h)

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
        """(e, c) with term ratio ~ c·n^e for large n: the one reading of
        its leading coefficients."""
        num, den = self._ratio.num, self._ratio.den
        lead = Fraction(num.leading_coefficient(), den.leading_coefficient())
        return num.degree("n") - den.degree("n"), lead

    @property
    def sign_pattern(self) -> str:
        """ALTERNATING if the term ratio is negative for large n."""
        return ALTERNATING if self._lead[1] < 0 else POSITIVE

    @property
    def rate_estimate(self) -> float | None:
        """Digits gained per term, log10(1/|limit|), if the term ratio
        tends to a nonzero modulus below 1; None otherwise."""
        excess, lead = self._lead
        if excess or not 0 < abs(lead) < 1:
            return None
        return math.log10(lead.denominator) - math.log10(abs(lead.numerator))

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
        denominator (a zero term at n, or a removable singularity).

        a and b are evaluated by Horner, and h only within its root bound."""
        a, b, h, bound = self._steps
        p, q = horner(a, n), horner(b, n)
        if q == 0 or (-bound <= n <= bound and horner(h, n) == 0):
            return 0, 0
        g = math.gcd(p, q)
        return (-p // g, -q // g) if q < 0 else (p // g, q // g)

    def alternating_step(self, n: int) -> tuple[int, int]:
        """The term ratio at n as (p, q), checked to satisfy -q < p < 0
        (alternation and strict decrease); needs t(n) != 0."""
        p, q = self._defined_step(n)
        if p == 0:
            raise NonAlternating(f"term at n={n + 1} is zero")
        if p > 0:
            raise NonAlternating(f"terms at n={n} and n={n + 1} share a sign")
        if -p >= q:
            raise MonotonicityViolation(
                f"|term| did not decrease from n={n} to n={n + 1}"
            )
        return p, q

    def _defined_step(self, n: int) -> tuple[int, int]:
        """ratio_step(n), or, where its denominator vanishes, the exact
        t(n+1)/t(n) in lowest terms; needs t(n) != 0."""
        p, q = self.ratio_step(n)
        if q == 0:
            p, q = (self.term_at(n + 1) / self.term_at(n)).as_integer_ratio()
        return p, q

    def terms(self, first_index: int | None = None) -> Iterator[tuple[int, Fraction]]:
        """Yield (index, term value) from first_index (default: the start
        of the series) onward, forever, via the term ratio; after a zero
        term or where the ratio is undefined, from term_at."""
        n = self.start_index if first_index is None else first_index
        value = self.term_at(n)
        while True:
            yield n, value
            p, q = self.ratio_step(n)
            n += 1
            value = value * Fraction(p, q) if value and q else self.term_at(n)

    def log_terms(self, first: int, last: int) -> Iterator[float]:
        """Yield log10|t(n)/t(first)| for n = first..last, first ≥ start_index,
        summed from the ratio steps in floats; DomainError at a zero term."""
        # with every factorial taken as 1, t(first) keeps its zeros and domain errors
        if self.term.value_at(first, 0, factorial=lambda m: 1) == 0:
            raise DomainError(f"term at n={first} is zero; rate undefined")
        log_term = 0.0
        yield log_term
        for n in range(first, last):
            p, q = self._defined_step(n)
            if p == 0:
                raise DomainError(f"term at n={n + 1} is zero; rate undefined")
            log_term += math.log10(abs(p)) - math.log10(q)
            yield log_term

    def partial_sum(self, count: int, first_index: int | None = None) -> Fraction:
        """Exact sum of `count` terms from first_index (default: the
        start) by split_ratios; a zero term or an undefined ratio ends a
        run of steps, and the next run starts from term_at."""
        if count < 0:
            raise DomainError("count must be nonnegative")
        n = self.start_index if first_index is None else first_index
        end = n + count
        total = Fraction(0)
        while n < end:
            first, steps = self.term_at(n), [(1, 1)]
            while first and n + 1 < end:
                p, q = self.ratio_step(n)
                if q == 0:
                    break
                steps.append((p, q))
                n += 1
                if p == 0:
                    break
            _, big_q, big_t = split_ratios(steps)
            total += Fraction(first.numerator * big_t, first.denominator * big_q)
            n += 1
        return total

    def sum_to_cut(self, threshold: Fraction) -> tuple[int, int, Fraction, int]:
        """(a, b, tail, count) at the first index N > start with |t(N)| <
        threshold: a/b (b > 0, unreduced) sums the count = N - start terms
        before N, and tail bounds the rest as tail_bound(count) does.

        Each step is checked by alternating_step and log10|t(n)| is summed
        in floats, decided exactly only within _LOG_SLACK of the threshold.
        One tree over the steps gives the sum and t(N) = t(start)·P/Q; with
        the last step, t(N-1) = t(N)·q/p. Both must confirm the cut.
        """
        n = self.start_index
        first = self.term_at(n)
        if first == 0:
            raise NonAlternating(f"term at n={n} is zero")
        log_threshold = math.log10(threshold.numerator) - math.log10(threshold.denominator)
        # estimate of log10(|t(n)| / threshold)
        gap = math.log10(abs(first.numerator)) - math.log10(first.denominator) - log_threshold
        steps = [(1, 1)]
        while True:
            p, q = self.alternating_step(n)
            if len(steps) == 1:  # after the first step, so a concrete violation there wins
                self.require_geometric()
            steps.append((p, q))
            gap += math.log10(-p) - math.log10(q)
            n += 1
            if (abs(self.term_at(n)) < threshold) if abs(gap) <= _LOG_SLACK else gap < 0:
                break
        big_p, big_q, big_t = split_ratios(steps)
        last = Fraction(first.numerator * big_p, first.denominator * big_q)
        tail = self._tail_past(n, last)
        count = len(steps) - 1
        if tail >= threshold or (count > 1 and abs(last * q / p) < threshold):
            raise TailBoundError(f"stopping index n={n} not confirmed by exact terms")
        return first.numerator * (big_t - big_p), first.denominator * big_q, tail, count

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
        self.alternating_step(cut)  # a concrete violation at the cut wins
        self.require_geometric()
        certified = self._certified_from
        if certified is None or certified - cut > _MAX_UNCERTIFIED:
            raise TailBoundError(f"no alternation certificate for series {self.name!r} "
                                 f"within {_MAX_UNCERTIFIED} indices past n={cut}")
        for n in range(cut + 1, certified):
            self.alternating_step(n)
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


def _positive_past(poly: Polynomial, c: int) -> bool:
    """True if poly(n + c) has nonnegative coefficients and a positive
    constant term, so poly > 0 for all n ≥ c."""
    return poly.evaluate(c) > 0 and _shifted_coeffs_nonneg(poly, c)


def _shifted_coeffs_nonneg(poly: Polynomial, shift: int) -> bool:
    """True if poly(n + shift) has only nonnegative coefficients — a
    sufficient certificate that poly ≥ 0 for all n ≥ shift."""
    shifted = poly.substituted(LinearForm(1, 0, shift), LinearForm(0, 1, 0))
    return all(c >= 0 for c in shifted.coeffs.values())
