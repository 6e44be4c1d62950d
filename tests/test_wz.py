import math
import sys
from fractions import Fraction

import pytest
from conftest import exact_gap_line

from wzeta.algebra import LinearForm, Polynomial, RationalFunction
from wzeta.cli import _grid_seconds
from wzeta.dsl import parse_term
from wzeta.errors import DomainError, TailBoundError
from wzeta.precision import EvalReport
from wzeta.series import SeriesSpec
from wzeta.terms import Domain, HyperTerm
from wzeta import wz


@pytest.fixture
def broken_pair(cat):
    """First pair with G's constant 2 replaced by 3 — identity fails."""
    good = cat.pair_by_name("s1")
    bad_g = parse_term("3 * (-1)^k * k!^2 * (n-k)! / ((n+k+1)! * (n+1)^2)")
    return wz.WZPair("broken", good.f, bad_g, good.zeta3_multiple)


def test_identity_anchor_values(cat):
    p1 = cat.pair_by_name("s1")
    lhs = p1.f.value_at(2, 0) - p1.f.value_at(1, 0)
    rhs = p1.g.value_at(1, 1) - p1.g.value_at(1, 0)
    assert lhs == rhs == Fraction(-1, 3)

    p2 = cat.pair_by_name("s2")
    lhs = p2.f.value_at(2, 0) - p2.f.value_at(1, 0)
    rhs = p2.g.value_at(1, 1) - p2.g.value_at(1, 0)
    assert lhs == rhs == Fraction(-7, 60)


@pytest.mark.parametrize("name,points", [("s1", 325), ("s2", 650)])
def test_verify_grid_passes(cat, name, points):
    report = wz.verify_grid(cat.pair_by_name(name), 25)
    assert report.outcome == "pass"
    assert report.mode == "grid"
    assert report.points_checked == points  # sum over n<=25 of s*n points
    assert report.first_failure is None


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_accelerated_term_is_undefined_at_zero(cat, name):
    term = wz.accelerate(cat.pair_by_name(name)).term
    assert term.domain.n_min == 1
    with pytest.raises(DomainError) as raised:
        term.value_at(0)
    assert str(raised.value) == "(n=0, k=0) outside term domain"


def test_verify_grid_rejects_bad_nmax(cat):
    with pytest.raises(DomainError):
        wz.verify_grid(cat.pair_by_name("s1"), 0)


def test_verify_grid_failure(broken_pair):
    report = wz.verify_grid(broken_pair, 5)
    assert report.outcome == "fail"
    assert report.first_failure[:2] == (1, 0)
    n, k, lhs, rhs = report.first_failure
    assert lhs == Fraction(-1, 3) and rhs == Fraction(-1, 2)


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_verify_symbolic_passes(cat, name):
    report = wz.verify_symbolic(cat.pair_by_name(name))
    assert report.outcome == "pass"
    assert report.mode == "symbolic"
    assert report.degree_bound >= 1
    assert report.points_checked >= (report.degree_bound + 1)


def test_verify_symbolic_failure(broken_pair):
    report = wz.verify_symbolic(broken_pair)
    assert report.outcome == "fail"
    assert report.first_failure is not None


def test_grid_and_symbolic_agree(cat, broken_pair):
    for pair in (cat.pair_by_name("s1"), cat.pair_by_name("s2"), broken_pair):
        grid = wz.verify_grid(pair, 12).outcome
        symbolic = wz.verify_symbolic(pair).outcome
        assert grid == symbolic


def test_certificate_closed_form(cat):
    r = wz.certificate(cat.pair_by_name("s1"))
    num = (
        Polynomial.const(2)
        * LinearForm(1, -1, 0).to_polynomial()
        * LinearForm(0, 1, 1).to_polynomial()
    )
    den = LinearForm(1, 0, 1).to_polynomial() ** 2
    assert r == RationalFunction(num, den)


def test_accelerate_first_terms(cat):
    fast = wz.accelerate(cat.pair_by_name("s1"))
    assert fast.start_index == 1
    assert fast.term_at(1) == Fraction(5, 2)
    assert fast.term_at(2) == Fraction(-5, 48)
    with pytest.raises(DomainError):
        fast.term_at(0)

    fast2 = wz.accelerate(cat.pair_by_name("s2"))
    assert fast2.term_at(1) == Fraction(29, 12)


def test_accelerate_matches_apery_series(cat):
    fast = wz.accelerate(cat.pair_by_name("s1"))
    for n in range(1, 51):
        assert fast.term_at(n) * (-1) ** (n - 1) * math.comb(2 * n, n) * n**3 == 5


def test_accelerate_is_twice_catalog_series(cat):
    fast = wz.accelerate(cat.pair_by_name("s1"))
    s1 = cat.series_by_name("s1")
    for n in range(1, 51):
        assert fast.term_at(n) == 2 * s1.term_at(n)
    assert fast.zeta3_multiple == 2 * s1.zeta3_multiple


def test_lhs_series_values(cat):
    slow = wz.lhs_series(cat.pair_by_name("s1"))
    assert [slow.term_at(n) for n in range(4)] == [
        Fraction(2),
        Fraction(1, 4),
        Fraction(2, 27),
        Fraction(1, 32),
    ]
    for n in range(20):
        assert slow.term_at(n) == Fraction(2, (n + 1) ** 3)

    slow2 = wz.lhs_series(cat.pair_by_name("s2"))
    assert slow2.term_at(0) == Fraction(9, 4)


def test_lhs_matches_catalog_entries(cat):
    for pair_name, series_name in (("s1", "lhs_s1"), ("s2", "lhs_s2")):
        derived = wz.lhs_series(cat.pair_by_name(pair_name))
        bundled = cat.series_by_name(series_name)
        for n in range(80):
            assert derived.term_at(n) == bundled.term_at(n)


@pytest.mark.parametrize("name", ["s1", "s2"])
def test_two_sided_gap_within_bounds(cat, name):
    # the exact sums' line: below 64 terms, where the first try is the
    # exact sum, and at the benchmark's counts and the CLI's cap, where
    # the first 64 terms decide it
    pair = cat.pair_by_name(name)
    line = wz.two_sided_gap(pair, lhs_count=200, accel_count=30)
    assert line == exact_gap_line(pair, 200, 30)
    assert line[2] == "ok"
    for count in [*range(1, 61), 64, 65, 2500, 4000, 10_000]:
        assert wz.two_sided_gap(pair, 300, count) == exact_gap_line(pair, 300, count), count


def test_two_sided_gap_of_a_false_pair_fails(broken_pair):
    for count in (30, 100):
        line = wz.two_sided_gap(broken_pair, 300, count)
        assert line == exact_gap_line(broken_pair, 300, count)
        assert line[2] == "fail"


@pytest.mark.parametrize("count", [3, 64, 65, 200, 1000])
def test_two_sided_gap_falls_through_to_the_exact_sum(cat, monkeypatch, count):
    # with no tail bound short of count, only the exact step can decide
    pair = cat.pair_by_name("s2")
    expected = exact_gap_line(pair, 300, count)
    tail_bound, partial_sum = SeriesSpec.tail_bound, SeriesSpec.partial_sum
    summed = []

    def no_short_bound(self, summed_count):
        if self.name.startswith("accel(") and summed_count < count:
            raise TailBoundError("refused")
        return tail_bound(self, summed_count)

    def recorded(self, summed_count, first_index=None):
        if self.name.startswith("accel("):
            summed.append(summed_count)
        return partial_sum(self, summed_count, first_index)

    monkeypatch.setattr(SeriesSpec, "tail_bound", no_short_bound)
    monkeypatch.setattr(SeriesSpec, "partial_sum", recorded)
    assert wz.two_sided_gap(pair, 300, count) == expected
    assert summed == [count]


def test_two_sided_gap_decides_from_a_short_sum(cat, monkeypatch):
    # at the terms cap, s2's diagonal is stepped a few dozen times, not
    # 10,000: the first try, 64 terms, decides the line
    ratio_step = SeriesSpec.ratio_step
    steps = []

    def counted(self, n):
        if self.name == "accel(s2)":
            steps.append(n)
        return ratio_step(self, n)

    monkeypatch.setattr(SeriesSpec, "ratio_step", counted)
    assert wz.two_sided_gap(cat.pair_by_name("s2"), 300, 10_000)[2] == "ok"
    assert 0 < len(steps) <= 300, len(steps)


@pytest.mark.parametrize("name,counts", [("s1", (4000, 10_000)), ("s2", (2500, 10_000))])
def test_two_sided_gap_evaluates_no_factorial_at_the_cut(cat, monkeypatch, name, counts):
    # decided from the first try, the diagonal's tail bound at accel_count
    # is not evaluated: value_at is called as often at each count, and at
    # the diagonal's cut only without factorials, for its domain check
    value_at = HyperTerm.value_at
    calls = []

    def counted(self, n, k=0, factorial=math.factorial):
        calls.append((n, factorial is math.factorial))
        return value_at(self, n, k, factorial)

    monkeypatch.setattr(HyperTerm, "value_at", counted)
    pair = cat.pair_by_name(name)
    made = []
    for count in counts:
        calls.clear()
        assert wz.two_sided_gap(pair, 300, count)[2] == "ok"
        assert (1 + count, False) in calls and (1 + count, True) not in calls
        made.append(len(calls))
    assert made[0] == made[1], made


def test_a_zero_step_at_the_cut_leaves_the_run_to_the_exact_sum(cat):
    # a positive tail certified at n = 5, where the ratio (n-5)^2/(n+1)^3
    # is zero: the terms after it are not evaluated by the ratio, and
    # term_at(7) is outside the domain
    series = SeriesSpec("t", parse_term("1/(5-n)!^2/n!^3"))
    assert series.tail_bound(5) == Fraction(1, 864000)
    with pytest.raises(DomainError):
        series.partial_sum(8)
    assert wz._run_bound(series, 5) is None
    slow = cat.series_by_name("lhs_s1")
    assert wz._run_bound(slow, 300) == slow.tail_bound(300)


def test_report_serialization(cat, broken_pair):
    good = wz.verify_grid(cat.pair_by_name("s1"), 5).serialize()
    assert good == "mode=grid points_checked=15 outcome=pass"

    bad = wz.verify_grid(broken_pair, 2).serialize().splitlines()
    assert bad[0] == "1 0 -1/3 -1/2 fail"
    assert bad[-1].endswith("outcome=fail")

    symbolic = wz.verify_symbolic(cat.pair_by_name("s1")).serialize()
    assert symbolic.startswith("mode=symbolic degree_bound=")


def test_report_serialization_past_the_int_str_limit(int_str_limit):
    lhs, rhs = Fraction(7**5916, 3), Fraction(-1, 7**5916)  # 7^5916 has 5000 digits
    int_str_limit(0)  # the reference only
    expected = f"3 1 {lhs} {rhs} fail\nmode=grid points_checked=9 outcome=fail"
    int_str_limit(sys.int_info.default_max_str_digits)
    failure = wz.FailurePoint(3, 1, lhs, rhs)
    assert wz.VerifyReport("grid", "fail", 9, failures=(failure,)).serialize() == expected


def test_reprs_past_the_int_str_limit(int_str_limit):
    big = 7**6000  # 5071 digits
    int_str_limit(0)  # the references only
    expected = {
        "failure": f"FailurePoint(n=1, k=0, lhs=Fraction({big}, 1), rhs=Fraction(1, 1))",
        "form": f"LinearForm(a={big}, b=0, c=-{big})",
        "series": f"SeriesSpec('t', HyperTerm('(n)'), 0, Fraction(1, {big}))",
        "report": f"VerifyReport(mode='grid', outcome='fail', points_checked=1, degree_bound=None, "
                  f"failures=(FailurePoint(n=1, k=0, lhs=Fraction({big}, 1), rhs=Fraction(1, 1)),), "
                  "more_failures=0)",
        "digits": f"EvalReport(series='s3', mode='exact', decimal_string='1.2', terms_used=1, "
                  f"tail_bound=Fraction(1, {big}), rounding_bound=Fraction(0, 1), certified_digits=1)",
    }
    int_str_limit(sys.int_info.default_max_str_digits)
    failure = wz.FailurePoint(1, 0, Fraction(big), Fraction(1))
    assert repr(failure) == expected["failure"]
    assert repr(LinearForm(big, 0, -big)) == expected["form"]
    assert repr(SeriesSpec("t", parse_term("n"), 0, Fraction(1, big))) == expected["series"]
    assert repr(wz.VerifyReport("grid", "fail", 1, failures=(failure,))) == expected["report"]
    digits = EvalReport("s3", "exact", "1.2", 1, Fraction(1, big), Fraction(0), 1)
    assert repr(digits) == expected["digits"]


def narrowed(term, bound):
    """The term with one more domain constraint, bound >= 0."""
    return HyperTerm(term.sign_exponent, term.factorials, term.poly_num, term.poly_den,
                     term.constant, Domain(term.domain.constraints + (bound,)))


def test_domain_respected_by_grid(cat):
    # F defined only for k >= 1: the region is 1 <= k <= n - 1, and the
    # check, which would raise on an F value at k = 0, still passes
    pair = cat.pair_by_name("s1")
    thin = wz.WZPair("thin", narrowed(pair.f, LinearForm(0, 1, -1)), pair.g,
                     pair.zeta3_multiple)
    assert list(thin.check_domain.rows(10)) == [(n, 1, n - 1) for n in range(2, 11)]
    report = wz.verify_grid(thin, 10)
    assert report.outcome == "pass"
    assert report.points_checked == sum(n - 1 for n in range(2, 11))
    with pytest.raises(DomainError):
        thin.f.value_at(3, 0)


def test_an_unbounded_region_names_its_pair():
    # no factorial bounds k: the grid has no rows to sweep, and both the
    # grid check and verify's estimate of it say which pair is at fault
    pair = wz.WZPair("loose", parse_term("(-1)^k / (k+1)"), parse_term("(-1)^k / (n+1)"),
                     Fraction(1))
    message = "^pair loose: the region does not bound k on both sides at n=0$"
    with pytest.raises(DomainError, match=message):
        wz.verify_grid(pair, 4)
    with pytest.raises(DomainError, match=message):
        _grid_seconds(pair, 4)


def test_check_domain_is_the_four_values_region(cat):
    # every point of the region has all four values defined, and every
    # point just outside a row has one of them undefined
    for name in ("s1", "s2"):
        pair = cat.pair_by_name(name)
        f, g = pair.f, pair.g
        values = lambda n, k: (f.value_at(n + 1, k), f.value_at(n, k),
                               g.value_at(n, k + 1), g.value_at(n, k))
        for n, lo, hi in pair.check_domain.rows(12):
            for k in range(lo, hi + 1):
                values(n, k)
            for k in (lo - 1, hi + 1):
                with pytest.raises(DomainError):
                    values(n, k)


def reference_grid(pair, n_max):
    """Point-by-point grid check: four value_at calls at every point."""
    checked = 0
    failures = []
    domain = pair.check_domain
    for n in range(domain.n_min, n_max + 1):
        k_range = domain.k_range(n)
        if k_range is None:
            continue
        for k in range(k_range[0], k_range[1] + 1):
            lhs = pair.f.value_at(n + 1, k) - pair.f.value_at(n, k)
            rhs = pair.g.value_at(n, k + 1) - pair.g.value_at(n, k)
            checked += 1
            if lhs != rhs:
                failures.append(wz.FailurePoint(n, k, lhs, rhs))
    outcome = "pass" if not failures else "fail"
    return wz.VerifyReport("grid", outcome, checked, failures=tuple(failures))


# a pair whose factorials step by 2 in k: F = H(n, k+1) − H(n, k) and
# G = H(n+1, k) − H(n, k), halved, for H = (2k)!·(2n−2k)!/(2n+1)!, so
# that F(n+1, k) − F(n, k) = G(n, k+1) − G(n, k) wherever H is defined
STEP_2_G = parse_term("(2*k)! * (2*n-2*k)! * (2*k^2-4*n*k-2*n-3*k-2) / (2*n+3)!")
STEP_2 = wz.WZPair("step2", parse_term(
    "(2*k)! * (2*n-2*k-2)! * (4*n*k-2*n^2+n+2*k+1) / (2*n+1)!"), STEP_2_G, Fraction(1))
# ... and with k(k−1)(k−2) added to F's polynomial: wrong wherever k ≥ 3
STEP_2_BROKEN = wz.WZPair("step2-broken", parse_term(
    "(2*k)! * (2*n-2*k-2)! * (k^3-3*k^2+4*n*k-2*n^2+n+4*k+1) / (2*n+1)!"), STEP_2_G, Fraction(1))


@pytest.mark.parametrize("name", ["s1", "s2", "step2"])
def test_row_sweep_matches_reference_grid(cat, name):
    pair = STEP_2 if name == "step2" else cat.pair_by_name(name)
    swept = wz.verify_grid(pair, 40)
    assert swept.serialize() == reference_grid(pair, 40).serialize()
    assert swept.outcome == "pass"


def test_row_sweep_matches_reference_failures(broken_pair):
    # the broken s1 pair fails at every point, the step-2 one where k >= 3
    for pair, failing in [(broken_pair, [(n, k) for n in range(1, 13) for k in range(n)]),
                          (STEP_2_BROKEN, [(n, k) for n in range(4, 13) for k in range(3, n)])]:
        swept = wz.verify_grid(pair, 12)
        reference = reference_grid(pair, 12)
        assert swept.serialize() == reference.serialize()
        assert swept.failures == reference.failures
        assert swept.points_checked == 78
        assert [(p.n, p.k) for p in swept.failures] == failing


@pytest.mark.parametrize("symbolic", [False, True])
def test_a_report_keeps_the_first_failing_points(broken_pair, monkeypatch, symbolic):
    # the broken s1 pair fails at all 210 grid points with n <= 20, and F
    # = G at all 306 symbolic points: a report keeps the first
    # _MAX_FAILURES in sweep order, counts the rest, and points_checked
    # still counts every point
    if symbolic:
        same = parse_term("(100*k)! * (n-k)! * k!")
        check = lambda: wz.verify_symbolic(wz.WZPair("same", same, same, Fraction(1)))
    else:
        check = lambda: wz.verify_grid(broken_pair, 20)
    report = check()
    monkeypatch.setattr(wz, "_MAX_FAILURES", 10**9)
    every = check()
    assert len(every.failures) == every.points_checked == report.points_checked
    assert every.points_checked == (306 if symbolic else 210)
    assert report.failures == every.failures[:100]
    assert report.more_failures == every.points_checked - 100 and every.more_failures == 0
    lines = report.serialize().splitlines()
    assert len(lines) == 102
    assert lines[100] == f"more_failures={report.more_failures}"
    assert lines[101].startswith(f"mode={report.mode} ")
    if not symbolic:
        assert report.failures == reference_grid(broken_pair, 20).failures[:100]


def vanishing_at(n, k):
    """(n' − n)² + (k' − k)²: zero at the point (n, k) alone."""
    return LinearForm(1, 0, -n).to_polynomial() ** 2 + LinearForm(0, 1, -k).to_polynomial() ** 2


@pytest.mark.parametrize(
    "f_zero,g_zero,f_bound,point",
    [
        # F's denominator vanishes on n + k = 7: F(n+1, k) at (n=4, k=2), mid-row
        (LinearForm(1, 1, -7).to_polynomial(), None, None, (5, 2)),
        # ... on n = 6: F(n+1, k) at the start of row n=5
        (LinearForm(1, 0, -6).to_polynomial(), None, None, (6, 0)),
        # F carries k >= 3, so rows n < 4 are empty; then F(n+1, k) meets
        # n + k = 10 at (n=5, k=4)
        (LinearForm(1, 1, -10).to_polynomial(), None, LinearForm(0, 1, -3), (6, 4)),
        # F(4, 3) is first needed as F(n, k) at the top of row 4, which row
        # 3 (k <= 2) did not reach as F(n+1, k)
        (vanishing_at(4, 3), None, None, (4, 3)),
        # G(5, 1) is first needed as G(n, k+1) at (5, 0), before G(n, k)
        (None, vanishing_at(5, 1), None, (5, 1)),
        # G(5, 0) is needed only as G(n, k) at (5, 0)
        (None, vanishing_at(5, 0), None, (5, 0)),
        # G(5, 0) and G(5, 1) both vanish: G(n, k+1) is requested first
        (None, vanishing_at(5, 0) * vanishing_at(5, 1), None, (5, 1)),
        # F(6, 2) and F(6, 3) both vanish: row 5 reaches k = 2 first
        (vanishing_at(6, 2) * vanishing_at(6, 3), None, None, (6, 2)),
    ],
    ids=["f-up-mid-row", "f-up-row-start", "f-up-after-empty-rows", "f-here", "g-up",
         "g-here", "g-both", "f-up-both"],
)
def test_row_sweep_raises_the_reference_domain_error(cat, f_zero, g_zero, f_bound, point):
    # in a region derived from the terms only a vanishing denominator
    # polynomial can stop the sweep; it must stop at the same value as
    # the point-by-point check
    good = cat.pair_by_name("s1")
    f, g = good.f, good.g
    if f_bound is not None:
        f = narrowed(f, f_bound)
    if f_zero is not None:
        f = with_factor(f, f_zero, f_zero)
    if g_zero is not None:
        g = with_factor(g, g_zero, g_zero)
    pair = wz.WZPair("leaky", f, g, good.zeta3_multiple)
    with pytest.raises(DomainError) as expected:
        reference_grid(pair, 10)
    with pytest.raises(DomainError) as swept:
        wz.verify_grid(pair, 10)
    assert str(swept.value) == str(expected.value)
    n, k = point
    assert str(swept.value) == f"denominator polynomial vanishes at (n={n}, k={k})"


def with_factor(term, num, den=Polynomial.const(1)):
    """term · num/den, the polynomials kept unreduced."""
    return HyperTerm(term.sign_exponent, term.factorials, term.poly_num * num,
                     term.poly_den * den, term.constant, term.domain)


def one_except_at_zero(form, count):
    """1 + (form−1)(form−2)…(form−count): 1 wherever form is one of
    1..count, and 1 ± count! where form is 0."""
    poly = Polynomial.const(1)
    for j in range(1, count + 1):
        poly = poly * LinearForm(form.a, form.b, form.c - j).to_polynomial()
    return poly + Polynomial.const(1)


def test_failures_in_the_last_row_and_at_the_top_k(cat):
    # F changes only at n = 13, which row 12 reads as F(n+1, k); G only
    # at k = n, which the point k = n-1 (the top of s1's row) reads as
    # G(n, k+1)
    good = cat.pair_by_name("s1")
    f = with_factor(good.f, one_except_at_zero(LinearForm(-1, 0, 13), 12))
    g = with_factor(good.g, one_except_at_zero(LinearForm(1, -1, 0), 12))
    pair = wz.WZPair("deep", f, g, good.zeta3_multiple)
    swept = wz.verify_grid(pair, 12)
    reference = reference_grid(pair, 12)
    assert swept.serialize() == reference.serialize()
    assert swept.failures == reference.failures
    assert [(p.n, p.k) for p in swept.failures] == (
        [(n, n - 1) for n in range(1, 12)] + [(12, k) for k in range(12)]
    )


@pytest.mark.parametrize("name", ["s1", "s2", "broken"])
def test_negative_polynomial_denominators(cat, broken_pair, name):
    # F and G times (4k-2n-1)/(4k-2n-1): the same values, from a
    # denominator polynomial that is negative wherever 4k < 2n+1
    pair = broken_pair if name == "broken" else cat.pair_by_name(name)
    q = LinearForm(-2, 4, -1).to_polynomial()
    f, g = with_factor(pair.f, q, q), with_factor(pair.g, q, q)
    signs = {g.poly_den.evaluate(n, k) > 0 for n in range(1, 13) for k in range(n)}
    assert signs == {True, False}
    scaled = wz.WZPair("scaled", f, g, pair.zeta3_multiple)
    swept = wz.verify_grid(scaled, 12)
    reference = reference_grid(scaled, 12)
    assert swept.serialize() == reference.serialize()
    assert swept.failures == reference.failures
    assert swept.serialize() == wz.verify_grid(pair, 12).serialize()
    assert swept.outcome == ("fail" if name == "broken" else "pass")


@pytest.mark.parametrize("name,n_max,rows", [("s1", 200, 200), ("s2", 120, 120)])
def test_the_grid_reads_factorials_only_where_a_walk_starts(cat, monkeypatch, name, n_max, rows):
    # a walk reads its factorials once, at its first k, and steps by
    # quotients after that: per row, the walks of F(n+1, ·) and G(n, ·),
    # the single value G(n, lo), and F(n, ·) where the last row lacks it
    reads = 0
    along_k = HyperTerm.along_k

    def counting(m):
        nonlocal reads
        reads += 1
        return math.factorial(m)

    def counted(self, n, k_first, factorial=math.factorial):
        assert factorial is math.factorial  # the sweep passes no factorial
        return along_k(self, n, k_first, counting)

    monkeypatch.setattr(HyperTerm, "along_k", counted)
    pair = cat.pair_by_name(name)
    assert len(list(pair.rows(n_max))) == rows
    assert wz.verify_grid(pair, n_max).outcome == "pass"
    assert reads <= 12 * rows, reads
