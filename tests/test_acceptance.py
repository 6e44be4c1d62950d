"""Acceptance gate: one test per release criterion, each printing a
single pass/fail line (run with `pytest -s tests/test_acceptance.py` to
see the lines on success; on failure pytest shows them regardless)."""

import math
import time
import zlib
from fractions import Fraction

import pytest
from conftest import exact_gap_line, valid_points
from handbuilt import handbuilt_series, handbuilt_terms

from wzeta import (
    accelerate,
    certificate,
    lhs_series,
    load_catalog,
    measure_rate,
    parse_term,
    sum_to_digits,
    two_sided_gap,
    verify_grid,
    verify_symbolic,
)
from wzeta.algebra import LinearForm, Polynomial, RationalFunction
from wzeta.catalog import bundled_text, parse_entries
from wzeta.errors import ParseError

CAT = load_catalog()


def report(number, ok, detail):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def pair_sides(pair, n, k):
    lhs = pair.f.value_at(n + 1, k) - pair.f.value_at(n, k)
    rhs = pair.g.value_at(n, k + 1) - pair.g.value_at(n, k)
    return lhs, rhs


def test_criterion_01_grid_identity_s1():
    started = time.monotonic()
    result = verify_grid(CAT.pair_by_name("s1"), 60)
    elapsed = time.monotonic() - started
    lhs, rhs = pair_sides(CAT.pair_by_name("s1"), 1, 0)
    ok = (
        result.outcome == "pass"
        and result.points_checked == 60 * 61 // 2
        and lhs == rhs == Fraction(-1, 3)
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"pair s1 grid n<=60: {result.points_checked} points, "
        f"sides at (1,0) = {lhs}, {elapsed:.2f}s",
    )


def test_criterion_02_grid_identity_s2():
    result = verify_grid(CAT.pair_by_name("s2"), 60)
    lhs, rhs = pair_sides(CAT.pair_by_name("s2"), 1, 0)
    ok = (
        result.outcome == "pass"
        and result.points_checked == 60 * 61  # k ranges over 0..2n-1
        and lhs == rhs == Fraction(-7, 60)
    )
    report(
        2,
        ok,
        f"pair s2 grid n<=60: {result.points_checked} points, "
        f"sides at (1,0) = {lhs}",
    )


def test_criterion_03_symbolic_certification():
    outcomes = [
        verify_symbolic(CAT.pair_by_name(name)).outcome for name in ("s1", "s2")
    ]
    expected = RationalFunction(
        Polynomial.const(2)
        * LinearForm(1, -1, 0).to_polynomial()  # n - k
        * LinearForm(0, 1, 1).to_polynomial(),  # k + 1
        LinearForm(1, 0, 1).to_polynomial() ** 2,  # (n + 1)^2
    )
    cert = certificate(CAT.pair_by_name("s1"))
    ok = outcomes == ["pass", "pass"] and cert == expected
    report(
        3,
        ok,
        f"symbolic outcomes {outcomes}, s1 certificate "
        "= 2(n-k)(k+1)/(n+1)^2",
    )


def test_criterion_04_diagonal_series_s1():
    fast = accelerate(CAT.pair_by_name("s1"))
    ok = all(
        fast.term_at(n) * (-1) ** (n - 1) * math.comb(2 * n, n) * n**3 == 5
        for n in range(1, 51)
    )
    report(4, ok, "b_n * (-1)^(n-1) * C(2n,n) * n^3 == 5 for n=1..50")


def test_criterion_05_diagonal_series_s2():
    fast = accelerate(CAT.pair_by_name("s2"))
    ok = all(
        fast.term_at(n)
        == Fraction((-1) ** (n - 1) * (56 * n * n - 32 * n + 5), 2)
        / ((2 * n - 1) ** 2 * math.comb(3 * n, n) * math.comb(2 * n, n) * n**3)
        for n in range(1, 51)
    )
    report(5, ok, "b_n closed form with numerator 56n^2-32n+5 for n=1..50")


def test_criterion_06_two_sided_limit_agreement():
    details = []
    ok = True
    for name in ("s1", "s2"):
        pair = CAT.pair_by_name(name)
        line = two_sided_gap(pair, lhs_count=300, accel_count=50)
        gap, bound, verdict = line
        ok = ok and verdict == "ok" and line == exact_gap_line(pair, 300, 50)
        details.append(f"{name}: gap {float(gap):.3e} <= bound {float(bound):.3e}, "
                       "as from the exact sums")
    report(6, ok, "; ".join(details))


def test_criterion_07_cross_series_digit_agreement():
    started = time.monotonic()
    reports = {
        name: sum_to_digits(CAT.series_by_name(name), 100)
        for name in ("s1", "s2", "s3")
    }
    elapsed = time.monotonic() - started
    strings = {r.decimal_string for r in reports.values()}
    certified = {r.certified_digits for r in reports.values()}
    one = reports["s1"].decimal_string
    ok = (
        len(strings) == 1
        and certified == {100}
        and one.startswith("1.20205690315959428539")
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"s1,s2,s3 @100 digits agree, prefix {one[:22]}, {elapsed:.2f}s",
    )


def test_criterion_08_tail_bound_soundness():
    ok = True
    checks = 0
    for name in ("s1", "s2", "s3"):  # the alternating catalog series
        series = CAT.series_by_name(name)
        for n_last in (10, 50, 100, 200):
            count = n_last - series.start_index + 1
            partial = series.partial_sum(count)
            reference = series.partial_sum(count + 400)
            ok = ok and abs(reference - partial) <= abs(series.term_at(n_last + 1))
            checks += 1
    report(8, ok, f"|S_ref - S_N| <= |term(N+1)| at {checks} series/N combinations")


def test_criterion_09_convergence_rates():
    targets = {"s1": 0.602, "s2": 1.431, "s3": 1.806}
    measured = {
        name: measure_rate(CAT.series_by_name(name), 100, 200) for name in targets
    }
    ok = all(abs(measured[name] - targets[name]) <= 0.02 for name in targets)
    report(
        9,
        ok,
        "digits/term over [100,200]: "
        + ", ".join(f"{name}={measured[name]:.4f}" for name in sorted(measured)),
    )


def test_criterion_10_parser_fidelity():
    entries = parse_entries(bundled_text())
    built = handbuilt_terms()
    ok = set(entries) == set(built)
    points = 0
    for name, term in built.items():
        parsed = parse_term(entries[name])
        for n, k in valid_points(term, 100, seed=zlib.crc32(name.encode())):
            ok = ok and parsed.value_at(n, k) == term.value_at(n, k)
            points += 1
    positioned = 0
    for bad in ("(n+1", "n!!", "2n", "* n", "n +", "^2"):
        try:
            parse_term(bad)
        except ParseError as exc:
            positioned += 1 if exc.position is not None else 0
    ok = ok and positioned == 6
    report(
        10,
        ok,
        f"{len(built)} entries x 100 random points ({points} checks) exact; "
        f"{positioned}/6 malformed inputs raised positioned errors",
    )


def test_criterion_11_deterministic_block_summation():
    series = CAT.series_by_name("s1")
    count = sum_to_digits(series, 200).terms_used
    start = series.start_index
    sequential = [Fraction(0)]  # sequential[i]: one Fraction addition per term
    for n in range(start, start + count):
        sequential.append(sequential[-1] + series.term_at(n))
    counts = (0, 1, 2, 37, 100, count - 1, count)
    ok = all(series.partial_sum(c) == sequential[c] for c in counts)
    splits = ((0, count), (1, count), (37, 101, 250), (5, 6, 7, 200, count - 1))
    for cuts in splits:
        edges = (0, *cuts, count)
        combined = sum(
            (
                series.partial_sum(hi - lo, first_index=start + lo)
                for lo, hi in zip(edges, edges[1:])
            ),
            Fraction(0),
        )
        ok = ok and combined == sequential[count]
    report(
        11,
        ok,
        f"binary-splitting sums at {len(counts)} counts and sub-range sums "
        f"combined at {len(splits)} split sets over {count} terms == "
        "sequential Fraction sums, exact equality",
    )


def test_criterion_12_series_derived_from_pairs():
    built = handbuilt_series() | {"s3": handbuilt_terms()["s3"]}
    sources = {"s3": (None, 0, Fraction(1))}  # name -> (source, start, multiple)
    for name in ("s1", "s2"):
        pair = CAT.pair_by_name(name)
        sources[name] = (accelerate(pair), 1, Fraction(1))
        sources[f"lhs_{name}"] = (lhs_series(pair), 0, pair.zeta3_multiple)
    ok = set(CAT.series) == set(built) == set(sources)
    checks = 0
    for name, series in CAT.series.items():
        source, start, multiple = sources[name]
        ok = ok and (series.start_index, series.zeta3_multiple) == (start, multiple)
        for n in range(start, 201):
            value = series.term_at(n)
            ok = ok and value == built[name].value_at(n)
            if source is not None:
                scale = source.zeta3_multiple / multiple
                ok = ok and source.start_index == start and value * scale == source.term_at(n)
            checks += 1
    report(
        12,
        ok,
        f"{len(built)} catalog series == hand-built terms at {checks} indices "
        "n <= 200; s1, s2 == accelerate(pair)/2, lhs_s1, lhs_s2 == lhs_series(pair)",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
