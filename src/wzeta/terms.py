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

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterator, NamedTuple

from .algebra import Frozen, LinearForm, Polynomial, RationalFunction, horner, int_text
from .errors import DomainError, IncompatibleTerms, WZetaError

_ONE = Polynomial.const(1)
# largest degree of a side of a ratio: cross_ratio counts the linear
# factors of the factorials before it forms any product, and a series
# checks its term ratio again before the gcd. For (-1)^n/(n+1)^d the gcd
# takes about 0.07 s at d = 200 on a 2-vCPU machine (building the ratio
# as long again), and the time grows about as d^3, to 18 s at d = 999;
# the catalog's largest is 15
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

    def k_range(self, n: int) -> tuple[int, int] | None:
        """Inclusive k interval at fixed n, or None if empty.

        Raises DomainError when the constraints do not bound k above and
        below (such a domain cannot be swept by a grid check).
        """
        lo = None
        hi = None
        for form in self.constraints:
            if form.b == 0:
                if form.value(n, 0) < 0:
                    return None
            elif form.b > 0:
                # k >= ceil(-(a*n + c) / b)
                bound = -((form.a * n + form.c) // form.b)
                lo = bound if lo is None else max(lo, bound)
            else:
                # k <= floor((a*n + c) / (-b))
                bound = (form.a * n + form.c) // (-form.b)
                hi = bound if hi is None else min(hi, bound)
        if lo is None or hi is None:
            raise DomainError(f"the region does not bound k on both sides at n={n}")
        if lo > hi:
            return None
        return lo, hi

    def n_span(self, n_max: int) -> range:
        """The n of rows(n_max): n_bounds up to n_max, from 0 if there is
        no least n; empty if no n has a real k."""
        least, most = self.n_bounds or (0, -1)
        return range(least or 0, (n_max if most is None else min(most, n_max)) + 1)

    def rows(self, n_max: int) -> Iterator[tuple[int, int, int]]:
        """(n, lo, hi) for every nonempty row lo <= k <= hi, n in n_span(n_max)."""
        for n in self.n_span(n_max):
            k_range = self.k_range(n)
            if k_range is not None:
                yield n, *k_range

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

    def value_at(self, n: int, k: int = 0, factorial=math.factorial) -> Fraction:
        """Exact value at an integer point, the first value of
        along_k(n, k, factorial); DomainError outside the domain."""
        return Fraction(*next(self.along_k(n, k, factorial)))

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

        factorial(m) supplies m! for the arguments at k_first only; a
        caller that starts many walks can pass a factorial_ladder()
        instead of math.factorial. The first value's factorial part, the
        constant times the factorials, is reduced once after it is
        yielded (value_at takes only the first value) and kept in lowest
        terms from then on. From k to k+1 each factorial whose argument m
        moves by b is multiplied by the exact quotient (m+b)!/m!, a
        product of the |b| integers between m and m+b. Where k and k+1
        both lie in the domain, m and m+b are nonnegative, so each of
        those integers is at least 1: the factorial part never vanishes,
        and the walk never restarts. The polynomials are collapsed to
        polynomials in k at this n and evaluated at each k.
        """
        bounds, factorials, sign, num_terms, den_terms, top, bottom = self._plan
        bounds = [(a * n + c, b) for a, b, c in bounds]
        factorials = [(form, a * n + c, b, e) for form, a, b, c, e in factorials]
        # per moving factorial (low, b, |e|, whether it multiplies the
        # numerator): from k-1 to k its quotient is the product of the |b|
        # integers after low + b·k, the smaller of its two arguments
        moving = [(base - max(b, 0), b, abs(e), (b > 0) == (e > 0))
                  for _, base, b, e in factorials if b]
        num_poly, den_poly = _in_k(num_terms, n), _in_k(den_terms, n)
        sign_base = sign[0] * n + sign[2]
        # k_first if a bound or an argument is negative there, else the
        # first k past the last one at which a falling one is nonnegative
        first_bad = min((k_first if base + b * k_first < 0 else base // -b + 1
                         for base, b in bounds + [f[1:3] for f in factorials]
                         if b < 0 or base + b * k_first < 0), default=math.inf)

        def checked(k: int) -> int:
            """The denominator polynomial at k, after every check at (n, k)."""
            if k >= first_bad:
                for base, b in bounds:
                    if base + b * k < 0:
                        raise DomainError(f"(n={int_text(n)}, k={int_text(k)}) outside term domain")
                for form, base, b, _ in factorials:
                    if base + b * k < 0:
                        raise DomainError(f"factorial argument {form} = {int_text(base + b * k)} "
                                          f"< 0 at (n={int_text(n)}, k={int_text(k)})")
            den_val = horner(den_poly, k)
            if den_val == 0:
                raise DomainError(f"denominator polynomial vanishes "
                                  f"at (n={int_text(n)}, k={int_text(k)})")
            return den_val

        k = k_first
        den_val = checked(k)
        for _, base, b, exp in factorials:
            if exp > 0:
                top *= factorial(base + b * k) ** exp
            else:
                bottom *= factorial(base + b * k) ** -exp
        while True:
            num_val = horner(num_poly, k)
            if (sign_base + sign[1] * k) % 2:
                num_val = -num_val
            yield top * num_val, bottom * den_val
            if k == k_first:
                g = math.gcd(top, bottom)
                top, bottom = top // g, bottom // g
            k += 1
            den_val = checked(k)
            up = down = 1
            for low, b, power, to_top in moving:
                low += b * k
                if b == 1 or b == -1:
                    quotient = low + 1
                else:
                    quotient = math.prod(range(low + 1, low + abs(b) + 1))
                if to_top:
                    up *= quotient**power
                else:
                    down *= quotient**power
            g = math.gcd(up, down)
            if g > 1:
                up, down = up // g, down // g
            g = math.gcd(top, down)
            if g > 1:
                top, down = top // g, down // g
            g = math.gcd(bottom, up)
            if g > 1:
                bottom, up = bottom // g, up // g
            top, bottom = top * up, bottom * down

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


def factorial_ladder():
    """A function m ↦ m! for m ≥ 0, to pass to HyperTerm.along_k. It
    keeps every factorial it has reached in one list, so a new entry
    costs one multiplication and a repeated one a lookup; the list lives
    as long as the function."""
    ladder = [1]

    def factorial(m: int) -> int:
        if m >= len(ladder):
            value = ladder[-1]
            for i in range(len(ladder), m + 1):
                value *= i
                ladder.append(value)
        return ladder[m]

    return factorial


def factorial_bits(m: int) -> float:
    """Stirling's estimate of log2 m!, m·log2(m/e) + log2(2πm)/2; 0 for
    m < 2 and infinity past the float range."""
    if m < 2:
        return 0.0
    if m.bit_length() > 1000:
        return math.inf
    return m * math.log2(m / math.e) + math.log2(2 * math.pi * m) / 2


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
    if diff.c % 2:
        constant = -constant
    num = num * g.poly_num * f.poly_den
    den = den * g.poly_den * f.poly_num
    num = num.scaled(constant.numerator)
    den = den.scaled(constant.denominator)
    return RationalFunction(num, den)
