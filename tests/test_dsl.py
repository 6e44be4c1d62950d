import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wzeta.algebra import LinearForm, Polynomial
from wzeta.dsl import parse_term, render_term
from wzeta.errors import DomainError, ParseError, StructureError
from wzeta.terms import HyperTerm

from conftest import valid_points


def test_parse_full_pair_term():
    t = parse_term("(-1)^k * k!^2 * (n-k-1)! / ((n+k+1)! * (k+1))")
    assert t.value_at(1, 0) == Fraction(1, 2)
    assert t.value_at(3, 1) == Fraction(
        -math.factorial(1) ** 2 * math.factorial(1), math.factorial(5) * 2
    )


def test_parse_constant_prefactor():
    t = parse_term("5/2 * (-1)^(n+1) * n!^2 / ((2*n)! * n^3)")
    assert t.value_at(1, 0) == Fraction(5, 4)
    assert t.value_at(2, 0) == Fraction(-5, 96)


def test_implicit_multiplication_inside_parens():
    t = parse_term("(56n^2-32n+5)")
    assert t.value_at(2, 0) == 56 * 4 - 64 + 5


def test_whitespace_is_insignificant():
    a = parse_term("2*(-1)^k*k!^2*(n-k)!/((n+k+1)!*(n+1)^2)")
    b = parse_term("  2 * (-1)^k   * k!^2 * (n-k)! / ( (n+k+1)! * (n+1)^2 )  ")
    assert a == b


def test_factorial_power():
    t = parse_term("k!^3 / n!^2")
    assert t.value_at(3, 4) == Fraction(24**3, 36)


def test_negative_exponent():
    assert parse_term("(n+1)^-2").value_at(2, 0) == Fraction(1, 9)


def test_sign_power_forms():
    assert parse_term("(-1)^n").value_at(3, 0) == -1
    assert parse_term("(-1)^k").value_at(0, 2) == 1
    assert parse_term("(-1)^(n+k+1)").value_at(1, 1) == -1
    assert parse_term("(-1)^(2)").value_at(0, 0) == 1


def test_parenthesized_factorial_of_compound_argument():
    t = parse_term("(2*(n+1))!")
    assert t.value_at(2, 0) == math.factorial(6)


@pytest.mark.parametrize(
    "text,offset",
    [
        ("(n-k!", 4),  # '!' inside a polynomial group
        ("2n", 1),  # implicit multiplication at top level
        ("(-1)^n^2", 6),  # chained exponent
        ("k! ** 2", 4),  # '**' is not an operator
        ("x+1", 0),  # unknown character
        ("n*\u00b2", 2),  # a digit, but not a decimal one: int() refuses it
        ("(n+1", 4),  # unclosed group
        ("", 0),  # empty input
        ("n!!", 2),  # double factorial
        ("^2", 0),  # missing base
        ("* n", 0),  # missing left operand
        ("n +", 3),  # dangling operator at end of input
    ],
)
def test_parse_errors_carry_position(text, offset):
    with pytest.raises(ParseError) as info:
        parse_term(text)
    assert info.value.position == offset
    assert 0 <= info.value.position <= len(text)
    assert info.value.expected  # non-empty expected set


@pytest.mark.parametrize("prefix", ["", "(-1)^", "n*"])
def test_parentheses_nest_up_to_the_cap(prefix):
    from wzeta.dsl import _MAX_DEPTH

    def nested(depth):
        return prefix + "(" * depth + "n+1" + ")" * depth

    assert parse_term(nested(_MAX_DEPTH)) == parse_term(nested(1))
    with pytest.raises(ParseError, match=f"nested over {_MAX_DEPTH} deep") as info:
        parse_term(nested(_MAX_DEPTH + 1))
    assert info.value.position == len(prefix) + _MAX_DEPTH  # the opening parenthesis


@pytest.mark.parametrize(
    "text",
    [
        "2^n",  # symbolic exponent on a base other than -1
        "(n^2+1)!",  # factorial of a nonlinear polynomial
        "1/(n-n)",  # division by the zero polynomial
        "n + k!",  # sum of polynomial and factorial parts
        "(-2)^k",
        "(0-3)!",  # factorial of a negative constant
        "n^(k)",  # exponent must be integer or a linear form on -1
        "(n+1)^999999",  # exponent out of range
        # the same two with 4996 digits, past the default int-to-str limit
        "(0-(10^999)^5)!",
        "n^((10^999)^5)",
        pytest.param("n^" + "1" * 4301, id="n^(4301 digits)"),  # over the literal cap
    ],
)
def test_structure_errors(text):
    with pytest.raises(StructureError):
        parse_term(text)


@pytest.mark.parametrize(
    "text",
    [
        "((n+1)^999)^2",  # degree 1998 in n
        "(n+1)^999*(n+1)^999",
        "(n+1)^999/(n+1)^-999",
        "n^999*k",  # 1000 * 2 coefficients
        "(n+k+1)^250",  # degree 250 in n and in k
    ],
)
def test_polynomials_past_the_coefficient_cap_are_refused(text):
    with pytest.raises(StructureError, match="over 1000 coefficients"):
        parse_term(text)


def test_polynomials_at_the_coefficient_cap_are_accepted():
    assert parse_term("(n+1)^999").value_at(1) == 2**999
    assert parse_term("n^500*n^499/k^0").value_at(2) == 2**999
    assert parse_term("(n+k+1)^15*(n+k+1)^15").value_at(1, 1) == 3**30


@pytest.mark.parametrize(
    "text",
    [
        "(200000)!",
        "(3000000)!",
        "((3)!^999)^999",
        "(1000)!^300 * n",
        "(1000)!^200/(999)!^200",
        "(10^999)!",
        "((10^999)^999)^3",
        "(10^999)^999",
        "(4^999)^999 * (2^999)^999",
        "(4*n+1)^999",
        "(2^999*n+1)^999",
        "(n+1)^999 * 4^999",
        "1" * 4301,
    ],
)
def test_sizes_past_the_bit_cap_are_refused(text):
    with pytest.raises(StructureError, match="(over 2000000 bits|over 4300 digits)$"):
        parse_term(text)


def test_render_past_the_int_str_limit(int_str_limit):
    int_str_limit(0)  # the reference only
    expected = str(int("7" * 4300) ** 2)
    int_str_limit(640)
    term = parse_term("7" * 4300 + "*" + "7" * 4300)
    assert render_term(term) == expected
    assert repr(term) == f"HyperTerm({expected!r})"
    assert str(Polynomial.const(-7 * (10**4300 - 1) // 9)) == "-" + "7" * 4300


def test_sizes_at_the_bit_cap_are_accepted():
    from wzeta.dsl import _MAX_BITS
    from wzeta.terms import factorial_bits

    m = 2
    while factorial_bits(m + 1) <= _MAX_BITS:
        m += 1
    assert parse_term(f"({m})!").constant == math.factorial(m)
    with pytest.raises(StructureError):
        parse_term(f"({m + 1})!")
    assert parse_term(f"({m + 1})!^2 * k / ({m + 1})!^2") == parse_term("k")
    assert parse_term("(4^999)^999 * 2^999").constant == 2**1997001
    assert parse_term("(3*n+1)^999").value_at(1) == 4**999
    assert parse_term("1" * 4300).constant == int("1" * 4300)


def test_top_level_factorial_only_on_atoms():
    # fine at top level on variables and after ')' anywhere
    parse_term("n! * k!")
    parse_term("((n+k+1))!")
    with pytest.raises(ParseError):
        parse_term("(n + k!)")


CATALOG_TEXTS = [
    "(-1)^k * k!^2 * (n-k-1)! / ((n+k+1)! * (k+1))",
    "2 * (-1)^k * k!^2 * (n-k)! / ((n+k+1)! * (n+1)^2)",
    "(-1)^k * k!^2 * (2*n-k-1)! / ((2*n+k+1)! * (k+1))",
    "(-1)^k * k!^2 * (2*n-k)! * (3+4*n) * (4*n^2+6*n+k+3)"
    " / (2 * (2*n+k+2)! * (n+1)^2 * (2*n+1)^2)",
    "5/2 * (-1)^(n+1) * n!^2 / ((2*n)! * n^3)",
    "1/4 * (-1)^(n+1) * (56*n^2-32*n+5) * n!^3 / ((2*n-1)^2 * (3*n)! * n^3)",
    "2 / (n+1)^3",
    "(4*n+3) * (4*n^2+6*n+3) / (4 * (n+1)^3 * (2*n+1)^3)",
]


@pytest.mark.parametrize("text", CATALOG_TEXTS)
def test_render_parse_round_trip(text):
    term = parse_term(text)
    rendered = render_term(term)
    again = parse_term(rendered)
    for n, k in valid_points(term, 100, seed=11):
        try:
            expected = term.value_at(n, k)
        except DomainError:
            continue
        assert again.value_at(n, k) == expected


def test_render_examples():
    assert render_term(parse_term("7")) == "7"
    assert render_term(parse_term("1")) == "1"
    assert "(2*n-k)!" in render_term(
        parse_term("(2*n-k)! / ((2*n+k+2)! * (n+1)^2)")
    )
    # renders re-parse to the structurally identical term
    t = parse_term("5/2 * (-1)^(n+1) * n!^2 / ((2*n)! * n^3)")
    assert parse_term(render_term(t)) == t


safe_forms = st.sampled_from(
    [
        LinearForm(1, 0, 0),
        LinearForm(0, 1, 0),
        LinearForm(1, 1, 1),
        LinearForm(2, 1, 1),
        LinearForm(1, 0, 2),
        LinearForm(2, 0, 0),
    ]
)
factorial_lists = st.lists(
    st.tuples(safe_forms, st.integers(-2, 2)), max_size=3
)
small_polys = st.sampled_from(
    [
        Polynomial.const(1),
        Polynomial.variable("n") + Polynomial.const(1),
        Polynomial({(2, 0): 4, (1, 0): 6, (0, 1): 1, (0, 0): 3}),
        Polynomial({(0, 1): 1, (0, 0): 2}),
        Polynomial({(3, 0): 1, (0, 0): 1}),
    ]
)
sign_forms = st.sampled_from(
    [LinearForm(), LinearForm(1, 0, 0), LinearForm(0, 1, 0), LinearForm(1, 1, 1)]
)
constants = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=9
).filter(lambda q: q != 0)


@settings(max_examples=60, deadline=None)
@given(sign_forms, factorial_lists, small_polys, small_polys, constants)
def test_round_trip_on_generated_terms(sign, facts, num, den, const):
    term = HyperTerm(sign, tuple(facts), num, den, const)
    again = parse_term(render_term(term))
    assert again == term  # canonical forms coincide, not just values


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="nk0123456789+-*/^()! ", max_size=24))
def test_parse_error_positions_lie_in_input(text):
    try:
        parse_term(text)
    except ParseError as exc:
        assert 0 <= exc.position <= len(text)
    except (StructureError, DomainError):
        pass
