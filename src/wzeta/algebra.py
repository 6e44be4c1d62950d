"""Exact polynomial arithmetic in the two integer variables n and k.

Everything here is immutable and uses arbitrary-precision integers, so all
operations are exact. Rational functions are stored as a pair of
integer-coefficient polynomials reduced by integer content; equality is
decided by cross-multiplication, not by polynomial gcd.

Polynomials in n alone also have a dense form, a tuple of integer
coefficients from the leading one down (the zero polynomial is ()), with
a gcd over Z[n] (content plus a primitive pseudo-remainder sequence),
exact division, Horner evaluation and a bound on integer roots.

int_text and fraction_text are the one way an exact number becomes text,
in output and diagnostics: through decimal.Decimal, which ignores
CPython's int-to-str limit, splitting an int in halves by its bits.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import NamedTuple

# Decimal(int) is quadratic, but faster than splitting below this
_DECIMAL_BITS = 4_096
# exact integer arithmetic: a result that would need rounding raises
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.InvalidOperation, decimal.DivisionByZero,
                                decimal.Overflow, decimal.Inexact, decimal.Rounded])


class LinearForm(NamedTuple):
    """Integer-linear expression a*n + b*k + c, ordered as the tuple
    (a, b, c)."""

    a: int = 0
    b: int = 0
    c: int = 0

    def value(self, n: int, k: int = 0) -> int:
        return self.a * n + self.b * k + self.c

    def substituted(self, n_to: "LinearForm", k_to: "LinearForm") -> "LinearForm":
        """The same form with n := n_to and k := k_to."""
        return n_to.scaled(self.a) + k_to.scaled(self.b) + LinearForm(0, 0, self.c)

    def __add__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.a + other.a, self.b + other.b, self.c + other.c)

    def __sub__(self, other: "LinearForm") -> "LinearForm":
        return LinearForm(self.a - other.a, self.b - other.b, self.c - other.c)

    def scaled(self, m: int) -> "LinearForm":
        return LinearForm(self.a * m, self.b * m, self.c * m)

    @property
    def is_constant(self) -> bool:
        return self.a == 0 and self.b == 0

    def direction(self) -> tuple[int, int]:
        return (self.a, self.b)

    def to_polynomial(self) -> "Polynomial":
        coeffs = {}
        if self.a:
            coeffs[(1, 0)] = self.a
        if self.b:
            coeffs[(0, 1)] = self.b
        if self.c:
            coeffs[(0, 0)] = self.c
        return Polynomial(coeffs)

    def __str__(self) -> str:
        return str(self.to_polynomial())

    def __repr__(self) -> str:
        return value_repr(self)


class Frozen:
    """Base of the immutable values. Attributes are set once, in the
    constructor, by object.__setattr__; a value is equal to one of the
    same class with an equal _key, and is hashed and shown by _key,
    through value_repr."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__name__}{value_repr(self._key)}"


class Polynomial(Frozen):
    """Polynomial in n and k with exact integer coefficients.

    Coefficients are keyed by exponent pair (deg_n, deg_k); zero
    coefficients are never stored, and the zero polynomial has an empty
    coefficient map.
    """

    __slots__ = ("_coeffs", "_hash")

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        clean = {key: c for key, c in (coeffs or {}).items() if c != 0}
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def const(value: int) -> "Polynomial":
        return Polynomial({(0, 0): value})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        if name == "n":
            return Polynomial({(1, 0): 1})
        if name == "k":
            return Polynomial({(0, 1): 1})
        raise ValueError(f"unknown variable {name!r}")

    @property
    def coeffs(self) -> dict[tuple[int, int], int]:
        return dict(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def as_linear_form(self) -> LinearForm | None:
        """This polynomial as a linear form, or None if degree > 1."""
        if any(en + ek > 1 for en, ek in self._coeffs):
            return None
        return LinearForm(
            self._coeffs.get((1, 0), 0),
            self._coeffs.get((0, 1), 0),
            self._coeffs.get((0, 0), 0),
        )

    def degree(self, var: str) -> int:
        """Degree in one variable; the zero polynomial reports -1."""
        if not self._coeffs:
            return -1
        idx = 0 if var == "n" else 1
        return max(key[idx] for key in self._coeffs)

    def univariate(self) -> tuple[int, ...]:
        """Dense coefficients in n, leading first; ValueError if k occurs."""
        if any(ek for _, ek in self._coeffs):
            raise ValueError(f"polynomial {self} depends on k")
        dense = [0] * (self.degree("n") + 1)
        for (en, _), coef in self._coeffs.items():
            dense[-1 - en] = coef
        return tuple(dense)

    @staticmethod
    def from_univariate(coeffs: tuple[int, ...]) -> "Polynomial":
        """The polynomial in n with dense coefficients, leading first."""
        top = len(coeffs) - 1
        return Polynomial({(top - i, 0): c for i, c in enumerate(coeffs)})

    def evaluate(self, n, k=0):
        total = 0
        for (en, ek), coef in self._coeffs.items():
            total += coef * n**en * k**ek
        return total

    def content(self) -> int:
        """Gcd of all coefficients (0 for the zero polynomial)."""
        return math.gcd(*self._coeffs.values()) if self._coeffs else 0

    def divided_by_int(self, d: int) -> "Polynomial":
        return Polynomial({key: c // d for key, c in self._coeffs.items()})

    def leading_coefficient(self) -> int:
        """Coefficient of the lexicographically largest monomial (0 if zero)."""
        if not self._coeffs:
            return 0
        return self._coeffs[max(self._coeffs)]

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0) + c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            out[key] = out.get(key, 0) - c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial({key: -c for key, c in self._coeffs.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[tuple[int, int], int] = {}
        for (en1, ek1), c1 in self._coeffs.items():
            for (en2, ek2), c2 in other._coeffs.items():
                key = (en1 + en2, ek1 + ek2)
                out[key] = out.get(key, 0) + c1 * c2
        return Polynomial(out)

    def scaled(self, m: int) -> "Polynomial":
        return Polynomial({key: c * m for key, c in self._coeffs.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.const(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def substituted(self, n_to: LinearForm, k_to: LinearForm) -> "Polynomial":
        """The polynomial with n := n_to and k := k_to. Each power of n_to
        and of k_to is formed once, from the one below it."""
        n_powers = _powers(n_to.to_polynomial(), self.degree("n"))
        k_powers = _powers(k_to.to_polynomial(), self.degree("k"))
        out: dict[tuple[int, int], int] = {}
        for (en, ek), coef in self._coeffs.items():
            for key, c in (n_powers[en] * k_powers[ek])._coeffs.items():
                out[key] = out.get(key, 0) + coef * c
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._coeffs.items())))
        return self._hash

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for (en, ek) in sorted(self._coeffs, reverse=True):
            coef = self._coeffs[(en, ek)]
            factors = []
            if en:
                factors.append("n" if en == 1 else f"n^{en}")
            if ek:
                factors.append("k" if ek == 1 else f"k^{ek}")
            if not factors or abs(coef) != 1:
                factors.insert(0, int_text(abs(coef)))
            text = "*".join(factors)
            if not parts:
                parts.append(("-" if coef < 0 else "") + text)
            else:
                parts.append(("-" if coef < 0 else "+") + text)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _powers(base: Polynomial, top: int) -> list[Polynomial]:
    """[base^0, ..., base^top], one multiplication per step."""
    powers = [Polynomial.const(1)]
    for _ in range(top):
        powers.append(powers[-1] * base)
    return powers


def _primitive(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """coeffs divided by its content, with a positive leading coefficient."""
    content = math.gcd(*coeffs)
    if coeffs[0] < 0:
        content = -content
    return tuple(c // content for c in coeffs)


def _pseudo_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The remainder of lc(b)^e·a divided by b, for some e ≥ 0: integer
    steps only, so it equals a mod b up to a nonzero integer factor."""
    rem = list(a)
    while len(rem) >= len(b):
        top = rem.pop(0)
        rem = [b[0] * c for c in rem]
        for i in range(1, len(b)):
            rem[i - 1] -= top * b[i]
        while rem and rem[0] == 0:
            rem.pop(0)
    return tuple(rem)


def dense_gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """gcd over Z[n] of two dense polynomials, with a positive leading
    coefficient: the gcd of their contents times the last nonzero member
    of their primitive pseudo-remainder sequence. gcd(0, 0) is ()."""
    if not a or not b:
        rest = a or b
        return tuple(-c for c in rest) if rest and rest[0] < 0 else rest
    content = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:  # a primitive constant is (1,): coprime
        rem = _pseudo_remainder(a, b)
        if not rem:
            break
        a, b = b, _primitive(rem)
    return tuple(content * c for c in b)


def dense_divide(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The quotient a/b of dense polynomials over Z[n], b nonzero;
    ValueError unless b divides a exactly."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    rem, quotient = list(a), []
    while len(rem) >= len(b):
        top, r = divmod(rem.pop(0), b[0])
        if r:
            raise ValueError("inexact polynomial division")
        quotient.append(top)
        for i in range(1, len(b)):
            rem[i - 1] -= top * b[i]
    if any(rem):
        raise ValueError("inexact polynomial division")
    return tuple(quotient)


def horner(coeffs: tuple[int, ...], x: int) -> int:
    """The dense polynomial coeffs at x."""
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def integer_root_bound(coeffs: tuple[int, ...]) -> int:
    """A bound B with |r| ≤ B for every integer root r of a nonzero
    dense polynomial (Cauchy: |z| < 1 + max|a_i|/|a_lead|); -1 for a
    nonzero constant, which has no roots."""
    if len(coeffs) < 2:
        return -1
    return -(-max(abs(c) for c in coeffs[1:]) // abs(coeffs[0]))


class RationalFunction(Frozen):
    """Ratio of two integer-coefficient polynomials.

    The representation is reduced by integer content and the denominator's
    leading coefficient is kept positive; a common polynomial factor is
    kept (dense_gcd removes it for ratios in n alone, where the caller
    asks for it). Equality is decided by cross-multiplication, and there
    is no hash.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        content = math.gcd(num.content(), den.content())
        if content > 1:
            num = num.divided_by_int(content)
            den = den.divided_by_int(content)
        if den.leading_coefficient() < 0:
            num = -num
            den = -den
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def evaluate(self, n, k=0) -> Fraction:
        den = self.den.evaluate(n, k)
        if den == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n={n}, k={k})")
        return Fraction(self.num.evaluate(n, k), den)

    def substituted(self, n_to: LinearForm, k_to: LinearForm) -> "RationalFunction":
        return RationalFunction(self.num.substituted(n_to, k_to), self.den.substituted(n_to, k_to))

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RationalFunction({self})"


def int_text(value: int) -> str:
    """str(value) under any int-to-str limit, in subquadratic time: the
    text of value's exact Decimal."""
    return str(_to_decimal(value))


def fraction_text(value: Fraction) -> str:
    """str(value), "p/q" or "p", at any length; see int_text."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def value_repr(value) -> str:
    """repr(value) with the ints and Fractions in it, inside tuples and
    named tuples at any depth, shown through int_text; other values by
    their own repr."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, tuple)):
        return repr(value)
    if isinstance(value, int):
        return int_text(value)
    if isinstance(value, Fraction):
        return f"Fraction({int_text(value.numerator)}, {int_text(value.denominator)})"
    items = [value_repr(item) for item in value]
    if hasattr(value, "_fields"):
        fields = ", ".join(f"{name}={item}" for name, item in zip(value._fields, items))
        return f"{type(value).__name__}({fields})"
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _to_decimal(value: int) -> decimal.Decimal:
    """value as an exact Decimal: high·2^w + low for w = half its bits,
    each half converted the same way, with each 2^w computed once."""
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = _EXACT.power(2, w)
        return powers[w]

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits < _DECIMAL_BITS:
            return decimal.Decimal(value)
        w = bits // 2
        high, low = value >> w, value & ((1 << w) - 1)
        return _EXACT.add(_EXACT.multiply(convert(high, bits - w), power(w)), convert(low, w))

    magnitude = convert(abs(value), abs(value).bit_length())
    return _EXACT.minus(magnitude) if value < 0 else magnitude
