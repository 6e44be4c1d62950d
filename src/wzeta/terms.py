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

from .algebra import Frozen, LinearForm, Polynomial, RationalFunction, int_text
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
    def n_min(self) -> int | None:
        """The least n at which some real k meets every constraint; None
        if there is no least such n. Adding each lower bound on k, scaled,
        to each upper bound eliminates k (Fourier–Motzkin) and leaves,
        with the constraints that have no k, constraints a·n + c >= 0."""
        in_n = [f for f in self.constraints if f.b == 0]
        in_n += [lo.scaled(-up.b) + up.scaled(lo.b)
                 for lo in self.constraints if lo.b > 0
                 for up in self.constraints if up.b < 0]
        least = max((-(f.c // f.a) for f in in_n if f.a > 0), default=None)
        most = min((f.c // -f.a for f in in_n if f.a < 0), default=None)
        empty = any(f.a == 0 and f.c < 0 for f in in_n) or (
            least is not None and most is not None and least > most)
        return None if empty else least

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

    def rows(self, n_max: int) -> Iterator[tuple[int, int, int]]:
        """(n, lo, hi) for every nonempty row lo <= k <= hi, n from n_min
        (0 if there is no least n) up to n_max."""
        n_min = self.n_min
        for n in range(0 if n_min is None else n_min, n_max + 1):
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
        # value_at's inputs as plain integers: domain bounds, factorial
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
        """Exact value at an integer point; DomainError outside the domain.

        factorial(m) supplies m! for every factorial argument m, which is
        checked to be nonnegative first; a caller that evaluates many
        points can pass a factorial_ladder() instead of math.factorial.
        """
        bounds, factorials, sign, num_terms, den_terms, c_num, c_den = self._plan
        for a, b, c in bounds:
            if a * n + b * k + c < 0:
                raise DomainError(f"(n={int_text(n)}, k={int_text(k)}) outside term domain")
        numerator = c_num
        denominator = c_den
        for form, a, b, c, exp in factorials:
            arg = a * n + b * k + c
            if arg < 0:
                raise DomainError(f"factorial argument {form} = {int_text(arg)} < 0 "
                                  f"at (n={int_text(n)}, k={int_text(k)})")
            if exp > 0:
                numerator *= factorial(arg) ** exp
            else:
                denominator *= factorial(arg) ** (-exp)
        den_val = 0
        for coef, en, ek in den_terms:
            den_val += coef * n**en * k**ek
        if den_val == 0:
            raise DomainError(f"denominator polynomial vanishes "
                              f"at (n={int_text(n)}, k={int_text(k)})")
        num_val = 0
        for coef, en, ek in num_terms:
            num_val += coef * n**en * k**ek
        if (sign[0] * n + sign[1] * k + sign[2]) % 2:
            num_val = -num_val
        return Fraction(numerator * num_val, denominator * den_val)

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
    """A function m ↦ m! for m ≥ 0, to pass to HyperTerm.value_at. It
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
