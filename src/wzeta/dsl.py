"""Plain-text expression language for hypergeometric terms.

An expression is a product/quotient of factors::

    5/2 * (-1)^(n+1) * n!^2 / (2*n)! / (n^3)

Allowed factors are unsigned integer literals, the variables n and k,
``(-1)`` raised to a variable or a parenthesized integer-linear form,
factorials of linear forms, and parenthesized integer polynomials in n and
k; every factor may carry an integer power written with ``^``. ``*`` and
``/`` associate left and ``^`` binds tighter. Whitespace never matters.
Integer exponents are at most 999 in size, and a product or power whose
polynomial part could have more than 1000 coefficients, counted as
(degree in n + 1)·(degree in k + 1), is refused before it is expanded.
Sizes are bounded too, before anything is formed: integer literals have
at most 4300 digits; a product or power may not give a polynomial of
more than 2,000,000 bits, counted as its coefficient slots times log2 of
the sum of its coefficients' magnitudes; and the factorials of integers,
which the term folds into its constant, may not come to more than
2,000,000 bits (Stirling's estimate, net of exponents). Parentheses
nest at most 100 deep.

Inside parentheses the conventional algebraic notation is accepted, so
polynomials can be pasted verbatim ("56n^2-32n+5"); outside parentheses
multiplication must be explicit ("2*n", never "2n"). A factorial ``!``
applies to a bare variable or literal at top level, or to a parenthesized
group anywhere; within a polynomial group a stray ``!`` is a parse error.

``parse_term`` turns expression text into a HyperTerm and ``render_term``
does the reverse; the pair round-trips up to canonical form (values agree
at every point, factor order and polynomial expansion may differ).
"""

from __future__ import annotations

import decimal
import math
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from .algebra import LinearForm, Polynomial, int_text
from .errors import ParseError, StructureError
from .terms import HyperTerm, factorial_bits

_MAX_EXPONENT = 999
# most coefficients, (deg_n + 1)·(deg_k + 1), that a polynomial factor may
# expand to; checked from the operands' degrees before any product or
# power is formed. (n+1)^999 fits and takes about 0.5 s to parse;
# (n+k+1)^250 would take minutes.
_MAX_COEFFICIENTS = _MAX_EXPONENT + 1
# most bits, estimated from the operands, of a polynomial formed by a
# product or power and of the factorials of integers that a term folds
# into its constant. (n+1)^999 counts 999,000 bits and (3*n+1)^999
# 1,998,000, which takes about 0.7 s to parse; (1000*n+1)^999 took 2.7 s,
# and (10^999)^999 or (200000)! took seconds to parse and print.
_MAX_BITS = 2_000_000
# longest integer literal: the program's own cap, read through Decimal
# under any int-from-str limit of the interpreter
_MAX_LITERAL_DIGITS = 4300
# deepest nesting of parentheses; each level takes five interpreter
# frames, so this stays well inside the default recursion limit of 1000
_MAX_DEPTH = 100

_ATOM_STARTS = ("integer", "n", "k", "(")


class _Token(NamedTuple):
    kind: str  # "int" | "var" | one of "+-*/^()!" | "end"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < length and text[j].isdecimal():
                j += 1
            if j - i > _MAX_LITERAL_DIGITS:
                raise StructureError(
                    f"integer literal at offset {i} has over {_MAX_LITERAL_DIGITS} digits")
            tokens.append(_Token("int", text[i:j], i))
            i = j
        elif ch in ("n", "k"):
            tokens.append(_Token("var", ch, i))
            i += 1
        elif ch in "+-*/^()!":
            tokens.append(_Token(ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i, _ATOM_STARTS)
    tokens.append(_Token("end", "", length))
    return tokens


class _Product:
    """Accumulated product of allowed factors (mutable parser scratch)."""

    __slots__ = ("sign", "factorials", "num", "den")

    def __init__(self, sign=LinearForm(), factorials=(), num=None, den=None):
        self.sign = sign
        self.factorials = list(factorials)
        self.num = num if num is not None else Polynomial.const(1)
        self.den = den if den is not None else Polynomial.const(1)

    @staticmethod
    def from_poly(poly: Polynomial) -> "_Product":
        return _Product(num=poly)

    @property
    def is_polynomial(self) -> bool:
        return (
            self.sign == LinearForm()
            and not self.factorials
            and self.den == Polynomial.const(1)
        )

    def times(self, other: "_Product") -> "_Product":
        return _Product(
            self.sign + other.sign,
            self.factorials + other.factorials,
            _times(self.num, other.num),
            _times(self.den, other.den),
        )

    def over(self, other: "_Product") -> "_Product":
        if other.num.is_zero:
            raise StructureError("division by an identically zero factor")
        return _Product(
            self.sign - other.sign,
            self.factorials + [(f, -e) for f, e in other.factorials],
            _times(self.num, other.den),
            _times(self.den, other.num),
        )

    def negated(self) -> "_Product":
        return _Product(self.sign, self.factorials, -self.num, self.den)

    def powered(self, exponent: int) -> "_Product":
        if abs(exponent) > _MAX_EXPONENT:
            raise StructureError(f"exponent {int_text(exponent)} out of range")
        base = self if exponent >= 0 else _Product().over(self)
        e = abs(exponent)
        return _Product(
            base.sign.scaled(e),
            [(f, x * e) for f, x in base.factorials],
            _power(base.num, e),
            _power(base.den, e),
        )

    def to_term(self) -> HyperTerm:
        net: dict[int, int] = defaultdict(int)
        for form, exp in self.factorials:
            if form.is_constant:
                net[form.c] += exp
        bits = sum(abs(exp) * factorial_bits(c) for c, exp in net.items() if exp)
        _require_bits(bits, "factorials of integers")
        return HyperTerm(self.sign, tuple(self.factorials), self.num, self.den)


def _degrees(poly: Polynomial) -> tuple[int, int]:
    return max(poly.degree("n"), 0), max(poly.degree("k"), 0)


def _norm_bits(poly: Polynomial) -> float:
    """log2 of the sum of |coefficients|: it bounds every coefficient, and
    it is at most the operands' sum for a product, e times for a power."""
    return math.log2(max(sum(abs(c) for c in poly.coeffs.values()), 1))


def _require_size(deg_n: int, deg_k: int, norm_bits: float) -> None:
    slots = (deg_n + 1) * (deg_k + 1)
    if slots > _MAX_COEFFICIENTS:
        raise StructureError(
            f"polynomial of degree {deg_n} in n and {deg_k} in k is too large "
            f"(over {_MAX_COEFFICIENTS} coefficients)"
        )
    _require_bits(slots * norm_bits, "polynomial")


def _require_bits(bits: float, what: str) -> None:
    if bits > _MAX_BITS:
        raise StructureError(f"{what} of about {bits:.3g} bits, over {_MAX_BITS} bits")


def _times(a: Polynomial, b: Polynomial) -> Polynomial:
    (an, ak), (bn, bk) = _degrees(a), _degrees(b)
    _require_size(an + bn, ak + bk, _norm_bits(a) + _norm_bits(b))
    return a * b


def _power(a: Polynomial, e: int) -> Polynomial:
    an, ak = _degrees(a)
    _require_size(an * e, ak * e, _norm_bits(a) * e)
    return a**e


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
                token.offset,
                (kind,),
            )
        return self.advance()

    def parse(self) -> HyperTerm:
        value = self.expr(depth=0)
        trailing = self.peek()
        if trailing.kind != "end":
            raise ParseError(
                f"unexpected trailing input {trailing.text!r}",
                trailing.offset,
                ("*", "/", "end"),
            )
        return value.to_term()

    # expr := ["-"]? term { ("+"|"-") term }   (sums must stay polynomial)
    def expr(self, depth: int) -> _Product:
        negate = False
        if depth > 0 and self.peek().kind == "-":
            self.advance()
            negate = True
        value = self.term(depth)
        if negate:
            value = value.negated()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term(depth)
            if not (value.is_polynomial and rhs.is_polynomial):
                raise StructureError(
                    "'+' and '-' may only combine polynomial parts "
                    f"(near offset {op.offset})"
                )
            combined = value.num + rhs.num if op.kind == "+" else value.num - rhs.num
            value = _Product.from_poly(combined)
        return value

    # term := factor { ("*"|"/") factor | factor-if-adjacent (depth>0 only) }
    def term(self, depth: int) -> _Product:
        value = self.factor(depth)
        while True:
            token = self.peek()
            if token.kind in ("*", "/"):
                self.advance()
                rhs = self.factor(depth)
                value = value.times(rhs) if token.kind == "*" else value.over(rhs)
            elif token.kind in ("int", "var", "("):
                if depth == 0:
                    raise ParseError(
                        "implicit multiplication is only allowed inside parentheses",
                        token.offset,
                        ("*", "/", "end"),
                    )
                value = value.times(self.factor(depth))
            else:
                return value

    # factor := atom [ "!" ] [ "^" exponent ]
    def factor(self, depth: int) -> _Product:
        value, parenthesized = self.atom(depth)
        if self.peek().kind == "!":
            bang = self.advance()
            if depth > 0 and not parenthesized:
                raise ParseError(
                    "'!' inside a polynomial group must follow a parenthesized linear form",
                    bang.offset,
                    ("+", "-", "*", "/", ")"),
                )
            value = self.apply_factorial(value)
        if self.peek().kind == "^":
            self.advance()
            value = self.apply_power(value, depth)
        return value

    def atom(self, depth: int) -> tuple[_Product, bool]:
        token = self.peek()
        if token.kind == "int":
            literal = read_integer(self.advance().text)
            return _Product.from_poly(Polynomial.const(literal)), False
        if token.kind == "var":
            self.advance()
            return _Product.from_poly(Polynomial.variable(token.text)), False
        if token.kind == "(":
            return self.group(depth), True
        raise ParseError(
            f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
            token.offset,
            _ATOM_STARTS,
        )

    def group(self, depth: int) -> _Product:
        """The parenthesized expression that the next token opens."""
        opening = self.advance()
        if depth >= _MAX_DEPTH:
            raise ParseError(f"parentheses nested over {_MAX_DEPTH} deep", opening.offset,
                             ("integer", "n", "k"))
        inner = self.expr(depth + 1)
        self.expect(")")
        return inner

    @staticmethod
    def apply_factorial(value: _Product) -> _Product:
        if not value.is_polynomial:
            raise StructureError("'!' requires a polynomial argument")
        form = value.num.as_linear_form()
        if form is None:
            raise StructureError("'!' requires an integer-linear argument")
        if form.is_constant and form.c < 0:
            raise StructureError(f"factorial of negative constant {int_text(form.c)}")
        return _Product(factorials=((form, 1),))

    def apply_power(self, base: _Product, depth: int) -> _Product:
        token = self.peek()
        # integer exponent, possibly negative
        if token.kind in ("int", "-"):
            negative = token.kind == "-"
            if negative:
                self.advance()
            literal = read_integer(self.expect("int").text)
            return base.powered(-literal if negative else literal)
        # symbolic exponent: only (-1)^var or (-1)^(linear form)
        if token.kind == "var":
            self.advance()
            exponent_form = LinearForm(1, 0, 0) if token.text == "n" else LinearForm(0, 1, 0)
        elif token.kind == "(":
            inner = self.group(depth)
            if not inner.is_polynomial:
                raise StructureError("exponent must be an integer or a linear form")
            form = inner.num.as_linear_form()
            if form is None:
                raise StructureError("exponent must be an integer or a linear form")
            if form.is_constant:
                return base.powered(form.c)
            exponent_form = form
        else:
            raise ParseError(
                f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
                token.offset,
                ("integer", "n", "k", "("),
            )
        if not (base.is_polynomial and base.num == Polynomial.const(-1)):
            raise StructureError("only (-1) may carry a symbolic exponent")
        return _Product(sign=exponent_form)


def read_integer(text: str) -> int:
    """text as an integer, read as the DSL reads its literals: an optional
    sign, then at most _MAX_LITERAL_DIGITS decimal digits, converted
    through Decimal, so under any int-to-str limit. ValueError otherwise."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        raise ValueError(f"not an integer: {text!r}")
    if len(digits) > _MAX_LITERAL_DIGITS:
        raise ValueError(f"an integer of over {_MAX_LITERAL_DIGITS} digits")
    return int(decimal.Decimal(text))


def parse_term(text: str) -> HyperTerm:
    """Parse expression text into a HyperTerm.

    Raises ParseError (with byte offset and expected-token set) for
    malformed input and StructureError when the expression is well-formed
    but not a product/quotient of allowed factors.
    """
    return _Parser(text).parse()


def _render_linear(form: LinearForm) -> str:
    text = str(form)
    return text if text in ("n", "k") else f"({text})"


def render_term(term: HyperTerm) -> str:
    """Canonical expression text for a term; parse_term(render_term(t))
    evaluates identically to t at every valid point."""
    num_parts: list[str] = []
    den_parts: list[str] = []

    p, q = term.constant.numerator, term.constant.denominator
    if p < 0:
        num_parts.append(f"({int_text(p)})")
    elif p != 1:
        num_parts.append(int_text(p))
    if q != 1:
        den_parts.append(int_text(q))

    if term.sign_exponent != LinearForm():
        num_parts.append(f"(-1)^{_render_linear(term.sign_exponent)}")

    for form, exp in term.factorials:
        text = f"{_render_linear(form)}!"
        if abs(exp) != 1:
            text += f"^{int_text(abs(exp))}"
        (num_parts if exp > 0 else den_parts).append(text)

    one = Polynomial.const(1)
    if term.poly_num != one:
        num_parts.append(f"({term.poly_num})")
    if term.poly_den != one:
        den_parts.append(f"({term.poly_den})")

    text = " * ".join(num_parts) if num_parts else "1"
    for part in den_parts:
        text += f" / {part}"
    return text
