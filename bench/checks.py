"""Output checkers for the benchmark's `wzeta` commands.

Every expected value comes from outside wzeta: the digits of zeta(3)
from reference/zeta3.txt (made with mpmath), the grid sizes from the
domain 0 <= k <= s*n - 1, and the accelerated terms from the closed
forms of acceptance criteria 04 and 05, built with math.comb. Nothing is
compared with an earlier output of the program.

A checker takes the command's stdout and returns None when it is right,
or a one-line description of what is wrong. The harness parses integers
of several thousand digits here, so it lifts the int-str limit for its
own checks (see run.py).
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference" / "zeta3.txt"

Checker = Callable[[str], "str | None"]


def load_reference() -> str:
    return REFERENCE.read_text().strip()


def _fields(lines: list[str]) -> dict[str, str]:
    return dict(line.split("=", 1) for line in lines if "=" in line)


def digits_checker(reference: str, series: str, digits: int, mode: str) -> Checker:
    """`wzeta digits`: the decimal must be zeta(3) truncated at the
    requested number of places, all of them certified."""
    if digits > len(reference) - 2:
        raise ValueError(f"reference holds fewer than {digits} digits")
    expected = reference[: 2 + digits]
    unit = Fraction(1, 10**digits)

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines:
            return "no output"
        if lines[0] != expected:
            where = next(
                (i for i, (a, b) in enumerate(zip(lines[0], expected)) if a != b),
                min(len(lines[0]), len(expected)),
            )
            return f"decimal differs from the reference at character {where}"
        fields = _fields(lines[1:])
        wanted = {"certified_digits": str(digits), "mode": mode, "series": series}
        for key, value in wanted.items():
            if fields.get(key) != value:
                return f"{key}={fields.get(key)!r}, expected {value!r}"
        try:
            error = Fraction(fields["tail_bound"]) + Fraction(fields["rounding_bound"])
            terms = int(fields["terms"])
        except (KeyError, ValueError) as exc:
            return f"bad bound or term-count field: {exc}"
        if terms < 1 or not 0 <= error < unit:
            return "the stated bounds do not certify the requested digits"
        return None

    return check


def verify_checker(points: int) -> Checker:
    """`wzeta verify`: PASS, with exactly the expected number of points."""

    def check(stdout: str) -> str | None:
        lines = stdout.splitlines()
        if not lines or lines[-1] != "PASS":
            return "verdict is not PASS"
        fields = _fields(lines[-2].split() if len(lines) >= 2 else [])
        if fields.get("outcome") != "pass":
            return "report outcome is not pass"
        if fields.get("points_checked") != str(points):
            return f"points_checked={fields.get('points_checked')}, expected {points}"
        return None

    return check


def grid_points(s: int, n_max: int) -> int:
    """Points (n, k) with 1 <= n <= n_max and 0 <= k <= s*n - 1."""
    return s * n_max * (n_max + 1) // 2


def accelerated_term(pair: str, n: int) -> Fraction:
    """b_n of the diagonal series of pair s1 or s2, in closed form."""
    return _closed_form(pair, n, math.comb(2 * n, n), math.comb(3 * n, n))


def _closed_form(pair: str, n: int, c2: int, c3: int) -> Fraction:
    """b_n from C(2n, n) = c2 and C(3n, n) = c3."""
    sign = (-1) ** (n - 1)
    if pair == "s1":
        return Fraction(5 * sign, c2 * n**3)
    if pair == "s2":
        return Fraction(sign * (56 * n * n - 32 * n + 5), 2 * (2 * n - 1) ** 2 * c3 * c2 * n**3)
    raise ValueError(f"no closed form for pair {pair!r}")


def accelerated_terms(pair: str, count: int) -> list[Fraction]:
    """b_1 .. b_count. The binomials advance by their exact recurrences,
    since one math.comb per term costs seconds at these sizes; the last
    ones are checked against math.comb."""
    terms = []
    c2 = c3 = 1
    for n in range(1, count + 1):
        c2 = c2 * 2 * (2 * n - 1) // n
        c3 = c3 * 3 * (3 * n - 1) * (3 * n - 2) // (2 * n * (2 * n - 1))
        terms.append(_closed_form(pair, n, c2, c3))
    if count and (c2, c3) != (math.comb(2 * count, count), math.comb(3 * count, count)):
        raise AssertionError("binomial recurrence drifted from math.comb")
    return terms


def accelerate_checker(pair: str, terms: int) -> Checker:
    """`wzeta accelerate`: every printed term equals the closed form and
    the two-sided comparison ends in status=ok."""
    expected = None

    def check(stdout: str) -> str | None:
        nonlocal expected
        if expected is None:
            expected = [f"{n} {b}" for n, b in enumerate(accelerated_terms(pair, terms), start=1)]
        lines = stdout.splitlines()
        if len(lines) != terms + 1:
            return f"{len(lines)} lines, expected {terms + 1}"
        for n, (line, want) in enumerate(zip(lines, expected), start=1):
            if line != want:
                return f"term {n} differs from the closed form"
        fields = _fields(lines[-1].split())
        if fields.get("status") != "ok" or fields.get("lhs_terms") != "300":
            return "comparison line does not end in lhs_terms=300 ... status=ok"
        return None

    return check


# name, kind, start index, digits per term (None prints as "-")
_LISTING = (
    ("s1", "series", 1, math.log10(4)),
    ("s2", "series", 1, math.log10(27)),
    ("s3", "series", 0, math.log10(64)),
    ("lhs_s1", "series", 0, None),
    ("lhs_s2", "series", 0, None),
    ("s1", "pair", 1, None),
    ("s2", "pair", 1, None),
)


def check_listing(stdout: str) -> str | None:
    """`wzeta list`: the bundled entries, with rates within 0.01 of the
    asymptotic log10 of each series' term-ratio limit."""
    lines = stdout.splitlines()
    if len(lines) != len(_LISTING):
        return f"{len(lines)} entries, expected {len(_LISTING)}"
    for line, (name, kind, start, rate) in zip(lines, _LISTING):
        parts = line.split()
        if parts[:3] != [name, kind, str(start)] or len(parts) != 4:
            return f"unexpected entry {line!r}"
        if rate is None:
            if parts[3] != "-":
                return f"unexpected rate in {line!r}"
        else:
            try:
                if abs(float(parts[3]) - rate) > 0.01:
                    return f"rate of {name} is off in {line!r}"
            except ValueError:
                return f"unreadable rate in {line!r}"
    return None
