"""Exact two-variable hypergeometric terms.

A term is a product

    constant * (-1)^(linear form) * prod (linear form)!^e * p(n,k) / q(n,k)

with integer-linear factorial arguments, integer-coefficient polynomials
p, q and an exact rational constant. Terms evaluate exactly at integer
points inside their validity domain, and quotients of structurally
compatible terms reduce to rational functions of n and k. The one change
of variables is affine, n := n_to and k := k_to for linear forms n_to and
k_to, and reaches every part of a term, its domain included: a shift,
F(n+1, k), and a restriction to a line, F(n, n-1), are both this.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, NamedTuple

from .algebra import (Frozen, LinearForm, Polynomial, RationalFunction, _values_from, horner,
                      int_text)
from .errors import DomainError, IncompatibleTerms, WZetaError, naming

_ONE = Polynomial.const(1)
# largest degree of a side of a ratio: cross_ratio counts the linear
# factors of the factorials before it forms any product, and ratio_limit
# checks a series' ratio before it is expanded. For (-1)^n/(n+1)^d the gcd
# takes about 0.07 s at d = 200 on a 2-vCPU machine (building the ratio as
# long again), and the time grows about as d^3, to 18 s at d = 999; the
# catalog's largest is 15
_MAX_RATIO_DEGREE = 200


class Domain(NamedTuple):
    """Validity region: the points where every constraint, a linear form,
    is >= 0. A lower bound n >= m is the constraint n - m.

    The constraints are expected to imply nonnegativity of every factorial
    argument of the owning term; evaluation re-checks the factorial
    arguments anyway, so a too-loose domain fails loudly instead of
    corrupting results.
    """

    constraints: tuple[LinearForm, ...] = ()

    @property
    def n_bounds(self) -> tuple[int | None, int | None] | None:
        """(least, most) n with a real k meeting every constraint, None
        where unbounded; None if there is no such n. Adding each lower
        bound on k, scaled, to each upper bound eliminates k (Fourier–
        Motzkin) and leaves, with those without k, a·n + c >= 0."""
        in_n = [f for f in self.constraints if f.b == 0]
        in_n += [lo.scaled(-up.b) + up.scaled(lo.b)
                 for lo in self.constraints if lo.b > 0
                 for up in self.constraints if up.b < 0]
        least = max((-(f.c // f.a) for f in in_n if f.a > 0), default=None)
        most = min((f.c // -f.a for f in in_n if f.a < 0), default=None)
        empty = any(f.a == 0 and f.c < 0 for f in in_n) or (
            least is not None and most is not None and least > most)
        return None if empty else (least, most)

    @property
    def n_min(self) -> int | None:
        """n_bounds' least n; None if there is none."""
        return (self.n_bounds or (None, None))[0]

    def n_span(self, n_max: int) -> range:
        """The n of rows(n_max): n_bounds up to n_max, from 0 if there is
        no least n; empty if no n has a real k."""
        least, most = self.n_bounds or (0, -1)
        return range(least or 0, (n_max if most is None else min(most, n_max)) + 1)

    def rows(self, n_max: int) -> Iterator[tuple[int, int, int]]:
        """(n, lo, hi) for every nonempty row lo <= k <= hi, n in
        n_span(n_max), from the constraints split once into lower and upper
        bounds on k; those in n alone hold across n_span, as n_bounds counts
        them. DomainError if a row's k is not bounded on both sides: such a
        region cannot be swept by a grid check."""
        lower = [(f.a, f.b, f.c) for f in self.constraints if f.b > 0]
        upper = [(f.a, -f.b, f.c) for f in self.constraints if f.b < 0]
        span = self.n_span(n_max)
        if span and not (lower and upper):
            raise DomainError(f"the region does not bound k on both sides at n={span.start}")
        for n in span:
            lo = max([-((a * n + c) // b) for a, b, c in lower])
            hi = min([(a * n + c) // b for a, b, c in upper])
            if lo <= hi:
                yield n, lo, hi

    def substituted(self, n_to: LinearForm, k_to: LinearForm) -> "Domain":
        return Domain(tuple(f.substituted(n_to, k_to) for f in self.constraints))


class HyperTerm(Frozen):
    """Immutable hypergeometric term; see the module docstring.

    Construction canonicalizes: factorial factors with equal arguments are
    merged, constant-argument factorials and the parity of the sign
    exponent are folded into the rational constant, integer content of the
    polynomials moves into the constant, and the constant is kept in
    lowest terms (Fraction guarantees that).
    """

    __slots__ = ("sign_exponent", "factorials", "poly_num", "poly_den",
                 "constant", "domain", "_key", "_plan")

    def __init__(
        self,
        sign_exponent: LinearForm = LinearForm(),
        factorials: tuple[tuple[LinearForm, int], ...] = (),
        poly_num: Polynomial = _ONE,
        poly_den: Polynomial = _ONE,
        constant: Fraction = Fraction(1),
        domain: Domain | None = None,
    ):
        constant = Fraction(constant)

        sign = LinearForm(sign_exponent.a % 2, sign_exponent.b % 2, sign_exponent.c % 2)
        if sign.is_constant and sign.c:
            constant = -constant
            sign = LinearForm()

        merged: dict[LinearForm, int] = defaultdict(int)
        for form, exp in factorials:
            merged[form] += exp
        kept = []
        for form in sorted(merged):
            exp = merged[form]
            if exp == 0:
                continue
            if form.is_constant:
                if form.c < 0:
                    raise DomainError(f"factorial of negative constant {int_text(form.c)}")
                constant *= Fraction(math.factorial(form.c)) ** exp
            else:
                kept.append((form, exp))

        if poly_den.is_zero:
            raise DomainError("zero denominator polynomial")
        num_content = poly_num.content()
        if num_content:
            if poly_num.leading_coefficient() < 0:
                num_content = -num_content
            poly_num = poly_num.divided_by_int(num_content)
            constant *= num_content
        den_content = poly_den.content()
        if poly_den.leading_coefficient() < 0:
            den_content = -den_content
        poly_den = poly_den.divided_by_int(den_content)
        constant /= den_content

        object.__setattr__(self, "sign_exponent", sign)
        object.__setattr__(self, "factorials", tuple(kept))
        object.__setattr__(self, "poly_num", poly_num)
        object.__setattr__(self, "poly_den", poly_den)
        object.__setattr__(self, "constant", constant)
        if domain is None:
            domain = Domain(tuple(form for form, _ in kept))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self, "_key", (sign, tuple(kept), poly_num, poly_den, constant)
        )
        # along_k's inputs as plain integers: domain bounds, factorial
        # forms with exponents, sign form, polynomial terms, constant
        object.__setattr__(self, "_plan", (
            tuple((f.a, f.b, f.c) for f in domain.constraints),
            tuple((f, f.a, f.b, f.c, e) for f, e in kept),
            (sign.a, sign.b, sign.c),
            _poly_terms(poly_num),
            _poly_terms(poly_den),
            constant.numerator,
            constant.denominator,
        ))

    def value_at(self, n: int, k: int = 0) -> Fraction:
        """Exact value at an integer point, the first value of along_k(n, k);
        DomainError outside the domain. Where factorials stand on both
        sides of the fraction, along_k takes every factorial as 1, for its
        checks and the small rest, and _times_factorials multiplies in the
        factorials from their prime exponents."""
        args = [(a * n + b * k + c, e) for _, a, b, c, e in self._plan[1]]
        if factored_route(args):
            return _times_factorials(*next(self.along_k(n, k, lambda m: 1)), args)
        return Fraction(*next(self.along_k(n, k)))

    def along_k(self, n: int, k_first: int,
                factorial=math.factorial) -> Iterator[tuple[int, int]]:
        """The exact values at k = k_first, k_first + 1, ... of row n, each
        as integers (num, den) with den ≠ 0, not always in lowest terms.

        At every point the walk makes value_at's checks, in its order and
        with its messages: each domain bound, each factorial argument
        (≥ 0), then the denominator polynomial (≠ 0); it raises DomainError
        at the first point that fails. The bounds and the arguments are
        linear in k, so the walk finds at its start the first k at which
        one of them is negative, and there checks them one by one.

        factorial(m) supplies m! for the arguments at k_first only; its
        one use besides math.factorial is factorial=lambda m: 1, with which
        measure_rate checks a point's domain and zero without its factorials
        and value_at forms all but them. The first value's factorial part, the
        constant times the factorials and the sign, is reduced once after
        it is yielded (value_at takes only the first value) and kept in
        lowest terms from then on. From k-1 to k each factorial whose
        argument m moves by b is multiplied by the exact quotient, a
        product of the |b| integers after the smaller of its two
        arguments, each linear in k. Where k-1 and k both lie in the
        domain those integers are at least 1: the factorial part never
        vanishes, and the walk never restarts. Only after the first value
        does the walk build its steppers: the linear factors, with the
        sign's flip, multiplied into two polynomials in k, one per side of
        the fraction (_step_quotients), and the term's polynomials,
        collapsed to k at this n (_values_from). Each is an iterator along
        k, so a step runs no Python code per factor and, up to degree
        _MAX_DIFFERENCE_DEGREE, none per coefficient.
        """
        bounds, factorials, sign, num_terms, den_terms, top, bottom = self._plan
        bounds = [(a * n + c, b) for a, b, c in bounds]
        factorials = [(form, a * n + c, b, e) for form, a, b, c, e in factorials]
        num_poly, den_poly = _in_k(num_terms, n), _in_k(den_terms, n)
        # k_first if a bound or an argument is negative there, else the
        # first k past the last one at which a falling one is nonnegative
        first_bad = min((k_first if base + b * k_first < 0 else base // -b + 1
                         for base, b in bounds + [f[1:3] for f in factorials]
                         if b < 0 or base + b * k_first < 0), default=math.inf)

        def check(k: int, den_val: int) -> None:
            """value_at's checks at (n, k), den_val the denominator polynomial there."""
            if k >= first_bad:
                for base, b in bounds:
                    if base + b * k < 0:
                        raise DomainError(f"(n={int_text(n)}, k={int_text(k)}) outside term domain")
                for form, base, b, _ in factorials:
                    if base + b * k < 0:
                        raise DomainError(f"factorial argument {form} = {int_text(base + b * k)} "
                                          f"< 0 at (n={int_text(n)}, k={int_text(k)})")
            if den_val == 0:
                raise DomainError(f"denominator polynomial vanishes "
                                  f"at (n={int_text(n)}, k={int_text(k)})")

        den_val = horner(den_poly, k_first)
        check(k_first, den_val)
        for _, base, b, exp in factorials:
            if exp > 0:
                top *= factorial(base + b * k_first) ** exp
            else:
                bottom *= factorial(base + b * k_first) ** -exp
        if (sign[0] * n + sign[1] * k_first + sign[2]) % 2:
            top = -top
        yield top * horner(num_poly, k_first), bottom * den_val
        g = math.gcd(top, bottom)
        top, bottom = top // g, bottom // g
        k = k_first + 1
        ups, downs = _step_quotients(factorials, sign[1], k)
        steps = zip(itertools.count(k), ups, downs, _values_from(num_poly, k),
                    _values_from(den_poly, k))
        for k, up, down, num_val, den_val in steps:
            if k >= first_bad or den_val == 0:
                check(k, den_val)
            # bottom and up lose their common factor, then top·up, which
            # shares none with what is left of bottom, loses its common
            # factor with down: two gcds keep the fraction in lowest terms
            g = math.gcd(bottom, up)
            if g > 1:
                bottom, up = bottom // g, up // g
            top *= up
            g = math.gcd(top, down)
            if g > 1:
                top, down = top // g, down // g
            bottom *= down
            yield top * num_val, bottom * den_val

    def substituted(self, n_to: LinearForm, k_to: LinearForm) -> "HyperTerm":
        """The term with n := n_to and k := k_to, domain included."""
        return HyperTerm(
            self.sign_exponent.substituted(n_to, k_to),
            tuple((f.substituted(n_to, k_to), e) for f, e in self.factorials),
            self.poly_num.substituted(n_to, k_to),
            self.poly_den.substituted(n_to, k_to),
            self.constant,
            self.domain.substituted(n_to, k_to),
        )

    def shift_ratio(self, dn: int, dk: int) -> RationalFunction:
        """R(n,k) with term(n+dn, k+dk) = R(n,k) * term(n,k) where defined."""
        return cross_ratio(self.substituted(LinearForm(1, 0, dn), LinearForm(0, 1, dk)), self)

    def __repr__(self) -> str:
        from .dsl import render_term

        return f"HyperTerm({render_term(self)!r})"


def factorial_bits(m: int) -> float:
    """Stirling's estimate of log2 m!, m·log2(m/e) + log2(2πm)/2; 0 for
    m < 2 and infinity past the float range."""
    if m < 2:
        return 0.0
    if m.bit_length() > 1000:
        return math.inf
    return m * math.log2(m / math.e) + math.log2(2 * math.pi * m) / 2


def factored_route(args: list[tuple[int, int]]) -> bool:
    """Whether value_at factors m!^e, args (m, e): e of both signs."""
    return any(e < 0 for _, e in args) and any(e > 0 for _, e in args)


def _times_factorials(num: int, den: int, args: list[tuple[int, int]]) -> Fraction:
    """num/den times the product of m!^e over args (m, e), every m ≥ 0,
    in lowest terms and with no gcd of two long operands: each prime is on
    one side by its exponent (prime_exponents), so the two sides' products
    share no prime; num/den, small, is reduced against each side alone."""
    if not num:
        return Fraction(0)
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    num, den = num // g, den // g
    sides = ([], [])
    for p, exp in prime_exponents(args):
        sides[exp < 0].append(p ** abs(exp))
    top, bottom = (_balanced(side, operator.mul, 1) for side in sides)
    g1, g2 = math.gcd(num, bottom), math.gcd(den, top)
    value = Fraction(num // g1 * (top // g2))
    # already in lowest terms: Fraction(num, den) would spend a gcd to see that
    value._denominator = den // g2 * (bottom // g1)
    return value


def prime_exponents(args: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """(p, x) per prime p, x ≠ 0 its exponent in Π m!^e, args (m, e) (Legendre);
    a negative m adds nothing, and the sieve runs to at least 1."""
    for p in _primes_to(max(1, *(m for m, _ in args))):
        exp = 0
        for m, e in args:
            while m >= p:
                m //= p
                exp += e * m
        if exp:
            yield p, exp


def _primes_to(m: int) -> Iterator[int]:
    """The primes up to m ≥ 1, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (m + 1)
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, m + 1, p)))
    return itertools.compress(range(m + 1), sieve)


def _step_quotients(factorials, sign_k: int, k: int) -> tuple[Iterator[int], Iterator[int]]:
    """along_k's quotients from k-1 to k, for k, k+1, ...: two polynomials
    in k, for the numerator and the denominator side, kept as products of
    their linear factors and stepped as iterators. A factorial
    (form, base, b, e) has the argument base + b·k; its quotient is the
    product of low + b·k + j for j = 1..|b|, low = base − max(b, 0), to
    the power |e|, on the numerator side where it grows a numerator
    factorial ((b > 0) == (e > 0)). Each linear factor steps as an
    itertools.count and the products as a balanced tree of maps, so the
    build takes one object per factor, as one step's products did, and
    not the degree squared that expanding them would; an odd sign_k adds
    −1 to the numerator side."""
    sides = ([itertools.repeat(-1)] if sign_k % 2 else [], [])
    for _, base, b, e in factorials:
        low = base - max(b, 0)
        for j in range(low + 1, low + abs(b) + 1):
            factor = itertools.count(b * k + j, b)
            if abs(e) > 1:
                factor = map(pow, factor, itertools.repeat(abs(e)))
            sides[(b > 0) != (e > 0)].append(factor)
    along = functools.partial(map, operator.mul)  # two iterators' elementwise product
    return tuple(_balanced(side, along, itertools.repeat(1)) for side in sides)


def _balanced(factors: list, mul, one):
    """The factors multiplied by mul, paired off level by level, so that
    each product's operands are of about one size and one elementwise
    step nests only log2 of their number deep; one for none."""
    while len(factors) > 1:
        factors = list(map(mul, factors[::2], factors[1::2])) + factors[len(factors) & ~1:]
    return factors[0] if factors else one


def _poly_terms(poly: Polynomial) -> tuple[tuple[int, int, int], ...]:
    """(coefficient, deg_n, deg_k) per monomial."""
    return tuple((c, en, ek) for (en, ek), c in poly.coeffs.items())


def _in_k(terms: tuple[tuple[int, int, int], ...], n: int) -> tuple[int, ...]:
    """The polynomial of _poly_terms at this n, as dense coefficients in k."""
    coeffs = [0] * (max((ek for _, _, ek in terms), default=-1) + 1)
    for c, en, ek in terms:
        coeffs[ek] += c * n**en
    return tuple(reversed(coeffs))


def cross_ratio(g: HyperTerm, f: HyperTerm) -> RationalFunction:
    """R(n,k) with g(n,k) = R(n,k) * f(n,k) on the common domain.

    Requires the two terms' factorial structures to align (every factorial
    argument of g parallel to one of f, with matching total exponents) and
    their sign exponents to agree up to parity; IncompatibleTerms otherwise.
    Per direction (a, b) of argument the factorials cancel to the finite
    rising products between their offsets. A HyperTerm folds every
    constant-argument factorial into its constant, so (0, 0) never occurs.
    WZetaError if a side would have more than _MAX_RATIO_DEGREE linear
    factors; they are counted before any product is formed.
    """
    groups, _ = _aligned(g, f)
    num = _ONE
    den = _ONE
    for (a, b), entries in groups.items():
        anchor = min(c for c, _ in entries)
        for c, exp in entries:
            for i in range(anchor + 1, c + 1):
                factor = LinearForm(a, b, i).to_polynomial()
                if exp > 0:
                    num = num * factor**exp
                else:
                    den = den * factor ** (-exp)

    constant = g.constant / f.constant
    if (g.sign_exponent.c - f.sign_exponent.c) % 2:
        constant = -constant
    num = num * g.poly_num * f.poly_den
    den = den * g.poly_den * f.poly_num
    num = num.scaled(constant.numerator)
    den = den.scaled(constant.denominator)
    return RationalFunction(num, den)


def _aligned(g: HyperTerm, f: HyperTerm) -> tuple[dict, int]:
    """cross_ratio's checks, then its factorials by direction, (offset, ±exponent)
    each, and the larger side's count of linear factors; nothing is expanded."""
    diff = g.sign_exponent - f.sign_exponent
    if diff.a % 2 or diff.b % 2:
        raise IncompatibleTerms("sign exponents differ in n or k")
    if f.constant == 0 or f.poly_num.is_zero:
        raise IncompatibleTerms("cannot divide by an identically zero term")

    groups: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for form, exp in g.factorials:
        groups[form.direction()].append((form.c, exp))
    for form, exp in f.factorials:
        groups[form.direction()].append((form.c, -exp))
    sides = [0, 0]  # linear factors of the numerator and the denominator
    for (a, b), entries in groups.items():
        if sum(exp for _, exp in entries) != 0:
            raise IncompatibleTerms(
                f"factorials in direction {LinearForm(a, b, 0)} do not cancel"
            )
        anchor = min(c for c, _ in entries)
        for c, exp in entries:
            sides[exp < 0] += abs(exp) * (c - anchor)
    if max(sides) > _MAX_RATIO_DEGREE:
        raise WZetaError(f"a ratio of factorials has degree {int_text(max(sides))}, "
                         f"over the limit of {_MAX_RATIO_DEGREE}")
    return groups, max(sides)


def ratio_limit(term: HyperTerm, name: str) -> tuple[int, Fraction]:
    """(e, c) with t(n+1)/t(n) ~ c·n^e, t(n) = term(n, 0) the terms of the
    series name: each (a·n + c)!^x steps by |a| linear factors of about
    a·n, so e = Σ a·x and c = (−1)^(the sign's n-coefficient)·Π a^(a·x).
    Before any power, the checks that expanding the ratio needs, naming the
    series: the degree from the factorials ("at least" where there are
    any), cross_ratio's checks, the exact degree; WZetaError past the limit."""
    term = term.substituted(LinearForm(1, 0, 0), LinearForm())  # k = 0
    polys = term.poly_num.degree("n") + term.poly_den.degree("n")
    # each (a·n + c)!^x adds at least |a·x| to the two sides, half to the larger
    rising = sum(abs(form.a * exp) for form, exp in term.factorials)
    degree, at_least = polys + (rising + 1) // 2, "at least " if term.factorials else ""
    if degree <= _MAX_RATIO_DEGREE:
        with naming(f"term ratio of series {name!r}"):
            _, sides = _aligned(term.substituted(LinearForm(1, 0, 1), LinearForm()), term)
        degree, at_least = sides + polys, ""
    if degree > _MAX_RATIO_DEGREE:
        raise WZetaError(f"term ratio of series {name!r} has degree "
                         f"{at_least}{int_text(degree)}, over the limit of {_MAX_RATIO_DEGREE}")
    lead = math.prod((Fraction(form.a) ** (form.a * exp) for form, exp in term.factorials),
                     start=Fraction(-1 if term.sign_exponent.a else 1))
    return sum(form.a * exp for form, exp in term.factorials), lead
