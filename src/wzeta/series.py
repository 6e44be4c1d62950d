"""Single-variable series of one hypergeometric term t(n), whose ratio
t(n+1)/t(n) is a rational function of n, and the binary-splitting engine
(Haible & Papanikolaou, "Fast multiprecision evaluation of series of
rational numbers", 1998) that sums them.

Each series reduces its ratio once, by the gcd of its two sides over
Z[n], to a/b, and splits that once as (c(n+1)/c(n))·(α(n)/β(n)) by
Gosper's first step at shift 1, so t(n) = c(n)·u(n) with u(n+1)/u(n) =
α(n)/β(n). A sum is one streaming ProductTree whose leaves are α/β at
each step, with c(n) as the weight of each term. Each step is evaluated
once, from the split, for both its value and its leaf. SeriesSpec.walk
holds the one rule for restarting from term_at; the checked walks never
do, and share one checked step.
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


class ProductTree:
    """Binary splitting fed one leaf at a time. For leaves (p_i, q_i, t_i),
    P and Q are the products of all p_i and all q_i, and T/Q =
    Σ_i (t_i/q_i)·Π_{m<i} p_m/q_m: with t_i = w_i·p_i, the sum of the
    weights w_i times the running products. Neighbours of equal size
    merge as leaves arrive, P = P1·P2, Q = Q1·Q2, T = T1·Q2 + P1·T2, so
    only O(log N) nodes are held. Nothing is reduced, so (P, Q, T) does
    not depend on where the tree splits."""

    __slots__ = ("_nodes",)

    def __init__(self):
        self._nodes = []  # (leaf count, P, Q, T), counts falling powers of two

    def add(self, p: int, q: int, t: int) -> None:
        nodes, size = self._nodes, 1
        while nodes and nodes[-1][0] == size:
            _, p1, q1, t1 = nodes.pop()
            p, q, t = p1 * p, q1 * q, t1 * q + p1 * t
            size *= 2
        nodes.append((size, p, q, t))

    def result(self) -> tuple[int, int, int]:
        """(P, Q, T) over every leaf added; (1, 1, 0) for none."""
        p, q, t = 1, 1, 0
        for _, p1, q1, t1 in reversed(self._nodes):
            p, q, t = p1 * p, q1 * q, t1 * q + p1 * t
        return p, q, t


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
            try:
                ratio = term.shift_ratio(1, 0)
            except WZetaError as exc:  # the same error, naming the series
                exc.args = (f"term ratio of series {self.name!r}: {exc}",)
                raise
            num, den = ratio.num.univariate(), ratio.den.univariate()
            degree, at_least = max(len(num), len(den)) - 1, ""
        if degree > _MAX_RATIO_DEGREE:
            raise WZetaError(f"term ratio of series {self.name!r} has degree "
                             f"{at_least}{int_text(degree)}, over the limit of {_MAX_RATIO_DEGREE}")
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

    def _evaluated(self, n: int, weight: int | None = None) -> tuple | None:
        """(step, leaf, c(n), c(n+1)), the one evaluation of a step's
        polynomials (h only within its root bound), or None where the
        unreduced denominator h(n)·c(n)·β(n) is 0. step = (p, q), q > 0, is
        t(n+1)/t(n) = c(n+1)·α/(c(n)·β); leaf = (α, β, c(n+1)·α) is index
        n+1's ProductTree leaf; both in lowest terms. weight: c(n), if known."""
        c, alpha, beta = self._split
        _, _, h, bound = self._steps
        weight = horner(c, n) if weight is None else weight
        den = horner(beta, n)
        if not weight or not den or (-bound <= n <= bound and horner(h, n) == 0):
            return None
        num, after = horner(alpha, n), horner(c, n + 1)
        g = math.gcd(num, den)
        num, den = num // g, den // g
        p, q = after * num, weight * den
        g = math.gcd(p, q)
        step = (-p // g, -q // g) if q < 0 else (p // g, q // g)
        return step, (num, den, after * num), weight, after

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
        denominator (a zero term at n, or a removable singularity)."""
        evaluated = self._evaluated(n)
        return evaluated[0] if evaluated else (0, 0)

    def _checked_step(self, n: int, weight: int | None = None) -> tuple:
        """_evaluated(n, weight), its step p/q checked to satisfy -q < p < 0
        (alternation and strict decrease); needs t(n) != 0. Where the step
        is undefined, t(n+1) is zero or undefined: every factor of the
        unreduced ratio is nonzero where t(n) and t(n+1) are both defined
        and nonzero (each rising-product factor is at least 1 there). So
        term_at(n+1) is called only for its DomainError."""
        evaluated = self._evaluated(n, weight)
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
        from term_at at first and at each restart, else (n, None, (p, q)),
        (p, q) = ratio_step(n-1), so t(n) = t(n-1)·p/q. The walk restarts
        after a zero term and where ratio_step is (0, 0)."""
        for n, value, evaluated in self._walk(first, end):
            yield n, value, evaluated and evaluated[0]

    def _walk(self, first: int, end: int) -> Iterator[tuple[int, Fraction | None, tuple | None]]:
        """walk with each step's whole _evaluated(n-1), leaf included, in
        place of its (p, q); c(n-1) is carried from the step before."""
        live = False  # t(n-1) is known and nonzero
        evaluated = None  # the step to n-1, if the walk made one
        for n in range(first, end):
            evaluated = self._evaluated(n - 1, evaluated and evaluated[3]) if live else None
            if evaluated:
                yield n, None, evaluated
                live = evaluated[0][0] != 0
            else:
                value = self.term_at(n)
                yield n, value, None
                live = value != 0

    def log_terms(self, first: int, last: int) -> Iterator[float]:
        """Yield log10|t(n)/t(first)| for n = first..last, first ≥ start_index,
        summed from the ratio steps in floats; DomainError at a zero term."""
        # with every factorial taken as 1, t(first) keeps its zeros and domain errors
        if self.term.value_at(first, 0, factorial=lambda m: 1) == 0:
            raise DomainError(f"term at n={first} is zero; rate undefined")
        log_term = 0.0
        yield log_term
        for n in range(first, last):
            p, q = self.ratio_step(n)
            if p == 0:
                if q == 0:  # t(n+1) is zero or undefined, as in _checked_step
                    self.term_at(n + 1)
                raise DomainError(f"term at n={n + 1} is zero; rate undefined")
            log_term += math.log10(abs(p)) - math.log10(q)
            yield log_term

    def partial_sum(self, count: int, first_index: int | None = None) -> Fraction:
        """Exact sum of `count` terms from first_index (default: the
        start), along walk: each restart adds its term t(m), and the
        steps after it are one ProductTree over α/β with c(n) as weights,
        which adds u(m)·T/Q, u(m) = t(m)/c(m)."""
        if count < 0:
            raise DomainError("count must be nonnegative")
        n = self.start_index if first_index is None else first_index
        total = Fraction(0)
        anchor, tree = None, ProductTree()  # the run's (m, t(m)) and its steps
        for n, value, evaluated in self._walk(n, n + count):
            if evaluated is None:  # the last run ends; t(n) starts the next
                total += self._run_sum(anchor, tree) + value
                anchor, tree = (n, value), ProductTree()
            else:
                tree.add(*evaluated[1])
        return total + self._run_sum(anchor, tree)

    def _run_sum(self, anchor: tuple[int, Fraction] | None, tree: ProductTree) -> Fraction:
        """u(m)·T/Q for the steps of a run from (m, t(m)): 0 where T is 0,
        as for a run without steps; else the run has a step from m, so
        b(m) = c(m)·β(m) ≠ 0 and c(m) ≠ 0."""
        _, big_q, big_t = tree.result()
        if not big_t:
            return Fraction(0)
        m, value = anchor
        return Fraction(value.numerator * big_t,
                        value.denominator * horner(self._split[0], m) * big_q)

    def sum_to_cut(self, threshold: Fraction) -> tuple[int, int, Fraction, int]:
        """(a, b, tail, count) at the first index N > start with |t(N)| <
        threshold: a/b (b > 0, unreduced) sums the count = N - start terms
        before N, and tail bounds the rest as tail_bound(count) does.

        Each index is evaluated once, by _checked_step, and log10|t(n)| is
        summed in floats, decided exactly only within _LOG_SLACK of the
        threshold. One ProductTree, fed as the steps are checked, has
        leaves α/β and weights c(n): with u(start) = t(start)/c(start),
        the sum is u(start)·(T - c(N)·P)/Q and t(N) = c(N)·u(start)·P/Q;
        with the last step, t(N-1) = t(N)·q/p. Both must confirm the cut.
        """
        n = self.start_index
        first = self.term_at(n)
        if first == 0:
            raise NonAlternating(f"term at n={n} is zero")
        log_threshold = math.log10(threshold.numerator) - math.log10(threshold.denominator)
        # estimate of log10(|t(n)| / threshold)
        gap = math.log10(abs(first.numerator)) - math.log10(first.denominator) - log_threshold
        (p, q), leaf, anchor, weight = self._checked_step(n)  # c(start), c(start+1)
        self.require_geometric()  # after the first step, so a concrete violation there wins
        tree = ProductTree()
        tree.add(1, 1, anchor)  # c(start) ≠ 0, as b(start) = c(start)·β(start) ≠ 0
        while True:
            n += 1
            tree.add(*leaf)
            gap += math.log10(-p) - math.log10(q)
            if (abs(self.term_at(n)) < threshold) if abs(gap) <= _LOG_SLACK else gap < 0:
                break
            (p, q), leaf, _, weight = self._checked_step(n, weight)
        big_p, big_q, big_t = tree.result()
        last = Fraction(first.numerator * weight * big_p, first.denominator * anchor * big_q)
        tail = self._tail_past(n, last)
        count = n - self.start_index
        if tail >= threshold or (count > 1 and abs(last * q / p) < threshold):
            raise TailBoundError(f"stopping index n={n} not confirmed by exact terms")
        numerator = first.numerator * (big_t - weight * big_p)
        denominator = first.denominator * anchor * big_q
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        return numerator, denominator, tail, count

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
        weight = self._checked_step(cut)[3]  # a concrete violation at the cut wins
        self.require_geometric()
        certified = self._certified_from
        if certified is None or certified - cut > _MAX_UNCERTIFIED:
            raise TailBoundError(f"no alternation certificate for series {self.name!r} "
                                 f"within {_MAX_UNCERTIFIED} indices past n={cut}")
        for n in range(cut + 1, certified):
            weight = self._checked_step(n, weight)[3]
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


def _shifted(coeffs: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """The dense polynomial coeffs at n + shift."""
    poly = Polynomial.from_univariate(coeffs)
    return poly.substituted(LinearForm(1, 0, shift), LinearForm(0, 1, 0)).univariate()
