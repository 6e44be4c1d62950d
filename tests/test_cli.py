import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from conftest import fraction_terms
from hypothesis import given, settings, strategies as st

import wzeta
from wzeta import catalog
from wzeta.algebra import LinearForm
from wzeta.catalog import bundled_text
from wzeta.cli import main
from wzeta.terms import Domain, HyperTerm
from wzeta.wz import WZPair

LIST_OUTPUT = """\
s1 series 1 0.602
s2 series 1 1.431
s3 series 0 1.806
lhs_s1 series 0 -
lhs_s2 series 0 -
s1 pair 1 -
s2 pair 1 -
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_subprocess(*argv, timeout=5, stdout=subprocess.PIPE, max_str_digits=None):
    """The CLI in a child process of this checkout, killed after timeout s;
    stdout is captured unless a file is given. max_str_digits sets the
    child's int-to-str limit."""
    env = dict(os.environ, PYTHONPATH=str(Path(wzeta.__file__).parents[1]))
    if max_str_digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = str(max_str_digits)
    return subprocess.run([sys.executable, "-m", "wzeta.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=timeout)


def assert_refused(done, *fragments):
    """Exit 2 with nothing on stdout and one error line naming fragments."""
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert all(fragment in done.stderr for fragment in fragments)


def test_list(capsys):
    code, out, err = run(capsys, "list")
    assert code == 0
    assert out == LIST_OUTPUT
    assert err == ""


def test_digits_exact(capsys):
    code, out, err = run(capsys, "digits", "--series", "s3", "--digits", "50")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("1.2020569031595942853")
    assert len(lines[0]) == 52
    assert lines[1] == "terms=27"
    assert lines[3] == "rounding_bound=0"
    assert lines[4] == "certified_digits=50"
    assert lines[5] == "mode=exact"
    assert lines[6] == "series=s3"


def test_digits_scaled_mode(capsys):
    code_e, out_e, _ = run(capsys, "digits", "--series", "s2", "--digits", "40")
    code_s, out_s, _ = run(
        capsys, "digits", "--series", "s2", "--digits", "40", "--mode", "scaled"
    )
    assert code_e == code_s == 0
    assert out_s.splitlines()[0] == out_e.splitlines()[0]
    assert out_s.splitlines()[5] == "mode=scaled"


def test_digits_output_is_reproducible(capsys):
    first = run(capsys, "digits", "--series", "s1", "--digits", "120")
    second = run(capsys, "digits", "--series", "s1", "--digits", "120")
    assert first == second


def test_verify_grid_pass(capsys):
    code, out, err = run(capsys, "verify", "--pair", "s1", "--nmax", "24")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "mode=grid points_checked=300 outcome=pass"
    assert lines[1] == "PASS"


def test_verify_symbolic_pass(capsys):
    code, out, err = run(capsys, "verify", "--pair", "s2", "--symbolic")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("mode=symbolic degree_bound=")
    assert lines[0].endswith("outcome=pass")
    assert lines[1] == "PASS"


def catalog_with(tmp_path, **lines):
    """A replacement catalog file: the bundled text with the named
    entries' expressions replaced."""
    text = bundled_text()
    for name, expr in lines.items():
        start = text.index(f"\n{name} = ") + 1
        end = text.index("\n", start)
        text = text[:start] + f"{name} = {expr}" + text[end:]
    path = tmp_path / "replaced.txt"
    path.write_text(text)
    return str(path)


@pytest.fixture
def broken_catalog(tmp_path):
    """Replacement catalog whose g_s1 carries a wrong constant factor."""
    good = "g_s1 = 2 * (-1)^k"
    text = bundled_text()
    assert good in text
    path = tmp_path / "broken.txt"
    path.write_text(text.replace(good, "g_s1 = 3 * (-1)^k"))
    return str(path)


def test_verify_failure_reports_points_and_exits_1(capsys, broken_catalog):
    code, out, err = run(
        capsys, "--catalog", broken_catalog, "verify", "--pair", "s1", "--nmax", "4"
    )
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert lines[-1] == "FAIL"
    assert lines[-2] == "mode=grid points_checked=10 outcome=fail"
    first_bad = lines[0].split()
    assert first_bad[:2] == ["1", "0"] and first_bad[-1] == "fail"


def last_admitted(pair, n_max=1):
    """The largest --nmax from n_max on whose grid estimate is within
    the cap, by bisection; every grid estimate grows with --nmax."""
    from wzeta.cli import _MAX_GRID_S, _grid_seconds

    high = 2 * n_max
    while _grid_seconds(pair, high) <= _MAX_GRID_S:
        n_max, high = high, 2 * high
    while high - n_max > 1:
        mid = (n_max + high) // 2
        n_max, high = (mid, high) if _grid_seconds(pair, mid) <= _MAX_GRID_S else (n_max, mid)
    return n_max


def test_verify_grid_over_the_cap_exits_2_promptly(cat):
    # for each pair, the smallest --nmax whose estimate passes the cap,
    # past the largest grid the point cap it replaced admitted
    from wzeta.cli import _MAX_GRID_S, _grid_seconds

    for name, admitted in (("s1", 547), ("s2", 386)):
        pair = cat.pair_by_name(name)
        n_max = last_admitted(pair) + 1
        assert n_max > admitted
        assert _grid_seconds(pair, n_max - 1) <= _MAX_GRID_S < _grid_seconds(pair, n_max)
        done = run_subprocess("verify", "--pair", name, "--nmax", str(n_max), timeout=2)
        assert_refused(done, f"pair {name} at --nmax {n_max} ", f"over {_MAX_GRID_S} s")


# a pair in 30*n: factorials to about 3000! make each point costly, and
# 148,600 points at n <= 99 took 8.7-11.1 s in-process
PAIR_30N = {"f_s1": "(-1)^k * k! * (30*n-k)! / (30*n+1)!",
            "g_s1": "(-1)^k * k! * (30*n-k+1)! / (30*n+1)!"}


def test_verify_past_the_work_limit_exits_2_promptly(tmp_path):
    from wzeta.cli import _MAX_GRID_S

    path = catalog_with(tmp_path, **PAIR_30N)
    done = run_subprocess("--catalog", path, "verify", "--pair", "s1", "--nmax", "99",
                          timeout=2)
    assert_refused(done, "pair s1 at --nmax 99 ", f"over {_MAX_GRID_S} s")


def test_the_work_estimate_admits_the_catalog_at_the_point_cap(cat, tmp_path):
    # the largest grids the two caps it replaced admitted in tests and
    # benchmark are admitted, and the cap is the slowest one's estimate
    from wzeta.cli import _GRID_POINT_S, _MAX_GRID_S, _grid_seconds

    slow = catalog.load_catalog(catalog_with(tmp_path, **PAIR_30N)).pair_by_name("s1")
    estimates = [_grid_seconds(cat.pair_by_name("s1"), 547),
                 _grid_seconds(cat.pair_by_name("s2"), 386), _grid_seconds(slow, 60)]
    assert max(estimates) <= _MAX_GRID_S < 1.01 * max(estimates)
    assert 60 <= last_admitted(slow) < 99
    # each point is charged at least _GRID_POINT_S, so a row of values
    # of a few bits is refused once its points pass _MAX_GRID_S/_GRID_POINT_S
    points = math.ceil(_MAX_GRID_S / _GRID_POINT_S)
    one = HyperTerm(domain=Domain((LinearForm(0, 1, 0), LinearForm(0, -1, points))))
    band = WZPair("band", one, one, Fraction(1))
    assert list(band.rows(0)) == [(0, 0, points - 1)]
    assert _grid_seconds(band, 0) > _MAX_GRID_S


def test_verify_grid_with_a_huge_nmax_exits_2():
    # the rows of the span are counted before any is visited, as an
    # integer: a span past the float range is refused, not an overflow
    for n_max in (10**18, 10**309, 10**400):
        for name in ("s1", "s2"):
            done = run_subprocess("verify", "--pair", name, "--nmax", str(n_max), timeout=2)
            assert_refused(done, f"pair {name} at --nmax {n_max} ")


def test_a_region_from_a_very_negative_n_exits_2(tmp_path):
    # k runs over -n-10^400 <= k <= -1, so the rows start at n = 1-10^400
    term = f"(k+n+{10**400})! * (-k)!"
    path = catalog_with(tmp_path, f_s1=term, g_s1=term)
    done = run_subprocess("--catalog", path, "verify", "--pair", "s1", "--nmax", "10",
                          timeout=2)
    assert_refused(done, "pair s1 at --nmax 10 ")


def test_verify_stops_where_the_region_ends(tmp_path):
    # (10-n)! in F and G: the region ends at n = 9, so a huge --nmax
    # checks s1's rows n = 1..9 (the identity no longer holds)
    path = catalog_with(tmp_path,
                        f_s1="(-1)^k * k!^2 * (n-k-1)! * (10-n)! / ((n+k+1)! * (k+1))",
                        g_s1="2 * (-1)^k * k!^2 * (n-k)! * (10-n)! / ((n+k+1)! * (n+1)^2)")
    done = run_subprocess("--catalog", path, "verify", "--pair", "s1", "--nmax", str(10**12),
                          timeout=2)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines()[-2:] == ["mode=grid points_checked=45 outcome=fail", "FAIL"]


def test_a_pair_failing_everywhere_prints_a_bounded_report(tmp_path):
    # every one of the 11,325 points fails, with values of up to 190,000
    # bits: the report prints the first 100 in sweep order and the number
    # of the rest, and forms no value for those
    term = "(100*k)! * (n-k)! * k!"
    path = catalog_with(tmp_path, f_s1=term, g_s1=term)
    done = run_subprocess("--catalog", path, "verify", "--pair", "s1", "--nmax", "150",
                          timeout=30)
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    first = [(n, k) for n in range(1, 15) for k in range(n)][:100]  # k < n
    assert [tuple(map(int, line.split()[:2])) for line in lines[:100]] == first
    assert all(line.endswith(" fail") for line in lines[:100])
    assert lines[100:] == ["more_failures=11225",
                           "mode=grid points_checked=11325 outcome=fail", "FAIL"]


def run_with_peak(tmp_path, *argv, timeout):
    """The CLI in a child process, as run_subprocess, and the child's peak
    resident set (VmHWM) in kB, which it reads at exit; skips the test
    where the system has no /proc/self/status."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the peak resident set from")
    script = ("import pathlib, sys\n"
              "from wzeta.cli import main\n"
              "code = main(sys.argv[2:])\n"
              "status = pathlib.Path('/proc/self/status').read_text()\n"
              "pathlib.Path(sys.argv[1]).write_text(status.split('VmHWM:')[1].split()[0])\n"
              "sys.exit(code)\n")
    peak = tmp_path / "peak.txt"
    env = dict(os.environ, PYTHONPATH=str(Path(wzeta.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, str(peak), *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)
    return done, int(peak.read_text())


def test_a_failing_grid_holds_one_row_of_values(tmp_path):
    # the walks reach (1000·30)! = 30,000!, 121,000 digits; the sweep keeps
    # no factorial past the walk it starts, so the peak stays that of a
    # row, where a cache of every m! up to 30,000 held about 700 MB
    term = "(1000*k)! * (n-k)! * k!"
    path = catalog_with(tmp_path, f_s1=term, g_s1=term)
    done, peak_kb = run_with_peak(tmp_path, "--catalog", path, "verify", "--pair", "s1",
                                  "--nmax", "30", timeout=60)
    assert (done.returncode, done.stderr) == (1, "")
    lines = done.stdout.splitlines()
    first = [(n, k) for n in range(1, 15) for k in range(n)][:100]  # k < n
    assert [tuple(map(int, line.split()[:2])) for line in lines[:100]] == first
    assert lines[100:] == ["more_failures=365",
                           "mode=grid points_checked=465 outcome=fail", "FAIL"]
    assert peak_kb <= 64 * 1024, peak_kb


@pytest.mark.parametrize("f,g,refused", [
    # no real point: 5n+6 <= 5k <= 5n-1 from F(n+1, k) and G(n, k+1)
    ("(5*k-5*n-1)! * (5*n+4-5*k)!", "(5*k-5*n-1)! * (5*n+4-5*k)!", False),
    # a real point in every row, an integer one in 3 rows of 50: the
    # span is charged before any row is walked
    ("(50*k-n-1)! * (n+4-50*k)!", "(50*k-n+48)! * (n+54-50*k)!", True),
    # the real point k = n+3/2 in every row and no integer one: the
    # span alone is refused, so no row is walked to find a first point
    ("(2*k-2*n-1)! * (2*n+3-2*k)!", "(2*k-2*n-3)! * (2*n+5-2*k)!", True),
])
def test_rows_without_integer_points_end_promptly(tmp_path, f, g, refused):
    path = catalog_with(tmp_path, f_s1=f, g_s1=g)
    done = run_subprocess("--catalog", path, "verify", "--pair", "s1", "--nmax", str(10**12),
                          timeout=2)
    if refused:
        assert_refused(done, f"pair s1 at --nmax {10**12} ")
    else:
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "mode=grid points_checked=0 outcome=pass\nPASS\n"


def test_verify_symbolic_failure_exits_1(capsys, broken_catalog):
    code, out, _ = run(
        capsys, "--catalog", broken_catalog, "verify", "--pair", "s1", "--symbolic"
    )
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


def test_accelerate(capsys):
    code, out, err = run(capsys, "accelerate", "--pair", "s1", "--terms", "3")
    assert code == 0
    assert err == ""
    assert out == (
        "1 5/2\n"
        "2 -5/48\n"
        "3 1/108\n"
        "lhs_terms=300 gap=0.000989860409206262307773537264 "
        "bound=0.001138146240107725080297126963 status=ok\n"
    )


def test_accelerate_term_values_match_library(capsys):
    from wzeta import accelerate, load_catalog

    code, out, _ = run(capsys, "accelerate", "--pair", "s2", "--terms", "5")
    assert code == 0
    series = accelerate(load_catalog().pair_by_name("s2"))
    lines = out.splitlines()
    assert len(lines) == 6
    for line, (n, value) in zip(lines[:5], fraction_terms(series)):
        assert line == f"{n} {value}"
    assert lines[0] == "1 29/12"
    assert lines[-1].endswith("status=ok")


def test_accelerate_refuses_a_refuted_pair(capsys, broken_catalog):
    code, out, err = run(
        capsys, "--catalog", broken_catalog, "accelerate", "--pair", "s1", "--terms", "3"
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: pair s1 is refuted")


def test_accelerate_rejects_zero_terms(capsys):
    code, out, err = run(capsys, "accelerate", "--pair", "s1", "--terms", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_rate(capsys):
    code, out, err = run(capsys, "rate", "--series", "s2", "--lo", "100", "--hi", "200")
    assert code == 0
    assert out == "1.437\n"
    assert err == ""


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "(n+1)!", "--n", "3")
    assert code == 0
    assert out == "24\n"
    code, out, _ = run(
        capsys, "eval", "--expr", "(-1)^k * k!^2 / (n+k+1)!", "--n", "2", "--k", "2"
    )
    assert code == 0
    assert out == "1/30\n"


def test_eval_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--expr", "(n+1", "--n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "offset" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--expr", "1/n", "--n", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_eval_of_a_huge_value_exits_2_promptly():
    # 10^8! has about 2.5e9 bits; refused before any factorial is formed
    from wzeta.cli import _MAX_EVAL_BITS

    done = run_subprocess("eval", "--expr", "n!", "--n", "100000000")
    assert_refused(done, str(_MAX_EVAL_BITS))


def test_eval_of_deep_nesting_exits_2():
    # 250 levels ended in a RecursionError traceback
    done = run_subprocess("eval", "--expr", "(" * 300 + "n" + ")" * 300, "--n", "1")
    assert_refused(done, "nested over 100 deep at offset 100")


_TOKENS = st.sampled_from(["n", "k", "0", "1", "2", "10", "(", ")", "+", "-", "*", "/",
                           "^", "!", "(-1)^", " ", "(10^999)^5"])
_EXPRESSIONS = st.one_of(
    st.lists(_TOKENS, max_size=30).map("".join),
    st.builds(lambda depth, inner: "(" * depth + inner + ")" * depth,
              st.integers(0, 300), st.lists(_TOKENS, max_size=8).map("".join)),
)


@settings(max_examples=200, deadline=None)
@given(_EXPRESSIONS, st.integers(-3, 30), st.integers(-3, 30))
def test_eval_ends_in_a_value_or_one_error_line(text, n, k):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", f"--expr={text}", f"--n={n}", f"--k={k}"])
    assert code in (0, 2)
    assert err.getvalue().count("\n") == (code == 2)
    assert out.getvalue().count("\n") == (code == 0)


@pytest.mark.parametrize("expr", ["((n+1)^999)^2", "(n+1)^999*(n+1)^999"])
def test_eval_of_a_huge_polynomial_exits_2_promptly(expr):
    # degree 1998 in n, refused from the operand degrees before expanding
    assert_refused(run_subprocess("eval", "--expr", expr, "--n", "1"), "coefficients")


def test_huge_digits_exits_2_promptly():
    from wzeta.cli import _MAX_DIGITS

    done = run_subprocess("digits", "--series", "s1", "--digits", "1000000000")
    assert_refused(done, str(_MAX_DIGITS))


# a replacement s3 of rate 0.044: 1000 digits take 16 s and 23,034 terms
SLOW_S3 = "(-1)^n * (10*n)!^2 / ((11*n)! * (9*n)!)"


def test_digits_of_a_slow_series_exits_2_promptly(tmp_path):
    path = catalog_with(tmp_path, s3=SLOW_S3)
    done = run_subprocess("--catalog", path, "digits", "--series", "s3", "--digits", "4000",
                          timeout=2)
    assert_refused(done, "series 's3'", "--digits 4000", "16000000")


def test_the_tree_estimate_admits_the_catalog_at_the_digit_limit(cat, tmp_path):
    from wzeta.cli import _MAX_DIGITS, _MAX_TREE_BITS, _tree_bits

    for name in ("s1", "s2", "s3"):
        assert 9e6 < _tree_bits(cat.series_by_name(name), _MAX_DIGITS) < _MAX_TREE_BITS
    slow = catalog.load_catalog(catalog_with(tmp_path, s3=SLOW_S3)).series_by_name("s3")
    assert _tree_bits(slow, 1000) < _MAX_TREE_BITS < _tree_bits(slow, 4000)
    assert _tree_bits(cat.series_by_name("lhs_s1"), _MAX_DIGITS) == 0  # no geometric rate


def test_huge_terms_exits_2_promptly():
    from wzeta.cli import _MAX_TERMS

    done = run_subprocess("accelerate", "--pair", "s2", "--terms", "100000000")
    assert_refused(done, str(_MAX_TERMS))


@pytest.mark.parametrize("bounds", [("1", "1000000000"), ("100000", "100001")])
def test_huge_rate_index_exits_2_promptly(bounds):
    from wzeta.cli import _MAX_RATE_INDEX

    lo, hi = bounds
    done = run_subprocess("rate", "--series", "s3", "--lo", lo, "--hi", hi)
    assert_refused(done, hi, str(_MAX_RATE_INDEX))


def test_rate_index_cap(capsys):
    from wzeta.cli import _MAX_RATE_INDEX

    for lo, hi in ((1, _MAX_RATE_INDEX + 1), (_MAX_RATE_INDEX + 1, _MAX_RATE_INDEX + 2)):
        code, out, err = run(capsys, "rate", "--series", "s1", "--lo", str(lo), "--hi", str(hi))
        assert (code, out) == (2, "") and str(_MAX_RATE_INDEX) in err
    code, out, err = run(capsys, "rate", "--series", "s1", "--lo", str(_MAX_RATE_INDEX - 1),
                         "--hi", str(_MAX_RATE_INDEX))
    assert (code, out, err) == (0, "0.602\n", "")


@pytest.mark.parametrize(
    "expr", ["(200000)!", "((3)!^999)^999", "(3000000)!", "((10^999)^999)^3"]
)
def test_eval_of_a_huge_constant_exits_2_promptly(expr):
    # each was over 12 s, or still running after 10 s, before constants
    # were bounded at parse time
    assert_refused(run_subprocess("eval", "--expr", expr, "--n", "1"), "bits")


def test_eval_counts_the_constant(capsys):
    # constant factorials that cancel are never formed
    code, out, err = run(capsys, "eval", "--expr", "(1000)!^300/(1000)!^300", "--n", "1")
    assert (code, out, err) == (0, "1\n", "")
    # 2^998001 is under the parse-time bound but, with n!^2 at
    # n = 68000 (about 1.9e6 bits), over the eval cap
    code, out, err = run(capsys, "eval", "--expr", "(2^999)^999 * n!^2", "--n", "68000")
    assert (code, out) == (2, "") and err.startswith("error: eval needs about 2.99e+06 bits")
    code, out, err = run(capsys, "eval", "--expr", "n!", "--n", str(10**400))
    assert (code, out) == (2, "") and err.startswith("error: ")


def test_digits_and_terms_caps(capsys):
    from wzeta.cli import _MAX_DIGITS, _MAX_TERMS

    # the largest requests of the tests and of bench/run.py fit
    assert _MAX_DIGITS >= 4500 and _MAX_TERMS >= 4000
    code, out, err = run(capsys, "digits", "--series", "s3",
                         "--digits", str(_MAX_DIGITS + 1))
    assert (code, out) == (2, "") and str(_MAX_DIGITS) in err
    code, out, err = run(capsys, "accelerate", "--pair", "s1",
                         "--terms", str(_MAX_TERMS + 1))
    assert (code, out) == (2, "") and str(_MAX_TERMS) in err


def test_eval_just_under_the_cap_prints(capsys):
    # n!/(n-1)! is formed unreduced: about 1,999,982 bits at n = 68403,
    # 2,000,014 at n = 68404, against a cap of 2,000,000
    from wzeta.cli import _MAX_EVAL_BITS

    assert _MAX_EVAL_BITS == 2_000_000
    code, out, err = run(capsys, "eval", "--expr", "n!/(n-1)!", "--n", "68403")
    assert (code, out, err) == (0, "68403\n", "")
    code, out, err = run(capsys, "eval", "--expr", "n!/(n-1)!", "--n", "68404")
    assert code == 2 and out == "" and err.startswith("error: ")


def test_unknown_series_exits_2(capsys):
    code, out, err = run(capsys, "digits", "--series", "s9", "--digits", "5")
    assert code == 2
    assert out == ""
    assert "s9" in err


def test_unknown_pair_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--pair", "lhs_s1")
    assert code == 2
    assert "lhs_s1" in err


def test_bad_digits_value_exits_2(capsys):
    code, _, err = run(capsys, "digits", "--series", "s1", "--digits", "0")
    assert code == 2
    assert err.startswith("error: ")


def test_missing_catalog_file_exits_2(capsys):
    code, _, err = run(capsys, "--catalog", "/nonexistent/cat.txt", "list")
    assert code == 2
    assert err.startswith("error: ")


def test_malformed_catalog_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("s1 = (n+1\n")
    code, _, err = run(capsys, "--catalog", str(path), "list")
    assert code == 2
    assert err.startswith("error: catalog is missing entries: f_s1")


def test_catalog_parse_error_names_the_line_and_the_entry(capsys, tmp_path):
    path = catalog_with(tmp_path, g_s2="(n+1")
    code, out, err = run(capsys, "--catalog", path, "list")
    assert (code, out) == (2, "")
    assert err == ("error: line 11: entry 'g_s2': unexpected end of input "
                   "at offset 4 (expected: ))\n")


def test_bundled_catalog_parse_error_exits_2(capsys, monkeypatch):
    good = "g_s1 = 2 * (-1)^k"
    assert good in bundled_text()
    broken = bundled_text().replace(good, "g_s1 = 2n * (-1)^k")
    monkeypatch.setattr(catalog, "bundled_text", lambda: broken)
    code, out, err = run(capsys, "list")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: line 9: entry 'g_s1': ") and "at offset 1 " in err


def test_replacement_catalog_is_used(capsys, tmp_path):
    path = tmp_path / "same.txt"
    path.write_text(bundled_text())
    code, out, _ = run(capsys, "--catalog", str(path), "list")
    assert code == 0
    assert out == LIST_OUTPUT


def test_argparse_errors_use_exit_code_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["digits", "--series", "s1"])  # --digits missing
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_case_insensitive_names(capsys):
    code, out, _ = run(capsys, "rate", "--series", "S2", "--lo", "100", "--hi", "200")
    assert code == 0
    assert out == "1.437\n"
    code, _, _ = run(capsys, "verify", "--pair", "S1", "--nmax", "3")
    assert code == 0


# sha256 of stdout, recorded from the term-by-term Fraction summation
# that binary splitting replaced, from the point-by-point grid check
# that the row sweep replaced and, for n <= 200 and n <= 120, from the
# Fraction-subtracting row sweep that the integer cross-multiplication
# replaced; the output must not change. {broken} is the broken_catalog
# file, and its grid check exits 1.
GOLDEN = {
    "list": "2dcba1224c2f2ba447862d67e3f4f99784e546802b833f007b0367c6c1c4a2bf",
    "digits --series s1 --digits 1": "b404add3d53c96e15deadfa3913fbf24a52d24f2c6c2cec626206509118c5848",
    "digits --series s1 --digits 30": "d2800454de7bd51ee070292bfbb529b0ade5a8e77c966652b3be05fcaa2f67c0",
    "digits --series s1 --digits 200": "f984439c67e4e30bb66501c3891438fc510c2e8268bb696a1af276a26ac28de0",
    "digits --series s1 --digits 1000": "65b7418a131ba1fa6678babef2cd51ad61b0e2d0b3ea055f1dd68f2f18f26080",
    "digits --series s2 --digits 1": "02b5ca34be6203e86ee9d156e4cb330ef50d250f952f1a4aba4ac8935a1ebe69",
    "digits --series s2 --digits 30": "0419ac4001732b2b25e826b47bc2fee53685f62924b6d837b90e445b1d751613",
    "digits --series s2 --digits 200": "34c053bd5e6dc98048e804bf3d41bfcb95f829dfb1454e64e3f88e88495f0a5e",
    "digits --series s2 --digits 1000": "b4eb3b27ac644eacfcee9d7caa5a0b2772f6b028613a0ef2c48e20519fd5e6f7",
    "digits --series s3 --digits 1": "a483ff81b89fef121c706203b51f6a293ee953f8208ccbf13106d49320921719",
    "digits --series s3 --digits 30": "fc9dcaa89d9a7550b4cf609a7509c17ce865188978f523774a8355eb39e29ed4",
    "digits --series s3 --digits 200": "9d8fe4e1e46c9386921c742ed687a97dbdc5ade9dd55590054c0f0b7ca20cc83",
    "digits --series s3 --digits 1000": "ac89a42a9ee40dd2c45f7b5b1a0faaef073529dca6d47c11fd466c56fd7a0e5f",
    "accelerate --pair s1 --terms 50": "7f04c7c538dc3d3fe154bd970b17a8532f377e4b537b306ee5ece27ee0d83df6",
    "verify --pair s2 --symbolic": "a80921ef25a2ef70988a0fe9aa2142db89ef3c17f7375c2b47fae652607161b5",
    "verify --pair s1 --nmax 60": "42ca185fd8d69911d0939fb8e15af09e05e49641ae19c6d64e940f9ddec53b7f",
    "verify --pair s2 --nmax 40": "2f4322ee31d4fb077c0cf1556cd53031629e811737e495f2e0c1bc6e7dcf4a58",
    "verify --pair s1 --nmax 200": "c12084b117761761bcdbaffce4d5646fa57df200dfa7c47677c19d1722073521",
    "verify --pair s2 --nmax 120": "764d3e0746fc60a0011c6a15b4e60364284945be589c78b58e1279d29171115f",
    "--catalog {broken} verify --pair s1 --nmax 12": "846d07a59499459204e1d43e8570d6ded4a744713fa05fbee16941325f871dd3",
    "accelerate --pair s2 --terms 50": "5177644c9bb329e2f02fec31c8bfa0d11925e481472e7cbd6750a98659d097aa",
    "digits --series s1 --digits 1000 --mode scaled": "ffaa4d78846fc3bc9398ab05b287e8846ba7141307b0755b79009312fe27ae67",
    "digits --series s2 --digits 1000 --mode scaled": "63fda00cf583faa9960fba9f187f138c33adb62af881f110d6d18c6ec0369321",
    "digits --series s3 --digits 1000 --mode scaled": "0bfc5d1cc91213e6d19b16ba73a92bceca46fac6ed8c929e2922ba20c4e52698",
    "rate --series lhs_s2 --lo 0 --hi 2000": "ee8eef6273e51ddf6aacc8fb3f6199c865f5bfef5936afbbcc4b737a2ac28fb6",
    # a term with no constraint on n is defined at negative n
    "eval --expr n --n -3": "0f90e0b3538d04df294950dcec75952d7e07f1bb044e73e795c410d677b3c268",
    "eval --expr (-1)^k*k!^2/(n+k+1)! --n 2 --k 2": "00fe5739f758f7fbf983ae0150cb9d645c3730a33e97285dd4a6dc52fc71ce05",
    # the benchmark's two accelerate commands
    "accelerate --pair s1 --terms 4000": "0386230b31c9b20e0eadb9b7c508817d896b89414dea43f58893c28fba24ac39",
    "accelerate --pair s2 --terms 2500": "518cca4e1bd3c9c828447eccfa7990bdf845eff1918fd8a92c98433cdb797f35",
    # the benchmark's digits commands past 1000 digits, and a rate that
    # walks the steps of a series split with c ≠ 1; recorded from the
    # walk that evaluated each checked step twice (the reduced ratio for
    # its checks, then the split for the tree) before it was replaced
    "digits --series s1 --digits 3000": "925e1e13c079ff8fc374c048fe6acf123ccc6a123e7cffc3ee4aa1359e7f2b29",
    "digits --series s2 --digits 3000": "e0cbd843f5da367608633efe4ce34304bf93013345b7ccf1e4733a6556dc679c",
    "digits --series s3 --digits 3000": "001878604d94bbe403fed1df5ebc0bde4c01f083e75b5afc6b01258e927a1277",
    "digits --series s1 --digits 3000 --mode scaled": "4c19269a08c79aebcfb48dbe70971a2c191df9ea19b3010bc7cf01c55e425257",
    "digits --series s2 --digits 3000 --mode scaled": "57987dc8a6c545faa4a12c8e3a6e052f50bf2ac2e34ad430d84ca76f91eaeebe",
    "digits --series s3 --digits 3000 --mode scaled": "f41cffb465909b3108271a962e7eb9b4b3f04355c3b7e1ce7096d4c4a8e9a34c",
    "digits --series s3 --digits 4500": "344733e67b9726222ece4972fbc110d46c0f83e62b707e96cffba4bbe00cc14d",
    "rate --series s3 --lo 0 --hi 2000": "e6aec5e49a9c55aa5133f8ca8c75552e3664691dbaa4b0009018cf8628099a23",
}


# each command at the interpreter's default int-to-str limit, then at
# 640, the least: the output does not depend on the limit
@pytest.mark.parametrize("command,limit", [
    pytest.param(command, limit, id=command if limit is None else f"{command} at 640")
    for limit in (None, 640) for command in sorted(GOLDEN)
])
def test_golden_stdout(capsys, broken_catalog, int_str_limit, command, limit):
    if limit:
        int_str_limit(limit)
    code, out, err = run(capsys, *command.format(broken=broken_catalog).split())
    assert code == (1 if "{broken}" in command else 0)
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]


def test_digits_past_the_int_str_limit(capsys, int_str_limit):
    # the decimal string and tail_bound= both have more digits than
    # CPython's default int-to-str limit of 4300
    int_str_limit(4300)
    code, out, err = run(capsys, "digits", "--series", "s3", "--digits", "4400")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    with mpmath.workdps(4420):
        reference = mpmath.nstr(mpmath.zeta(3), 4410, strip_zeros=False)
    assert lines[0] == reference[:4402]
    assert lines[4] == "certified_digits=4400"


def test_accelerate_past_the_int_str_limit(capsys):
    # from term 2996 on, the denominators have more than 4300 digits
    from wzeta import accelerate, load_catalog

    code, out, err = run(capsys, "accelerate", "--pair", "s2", "--terms", "3000")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 3001
    value = accelerate(load_catalog().pair_by_name("s2")).term_at(3000)
    n, text = lines[2999].split()
    num, den = text.split("/")
    assert n == "3000" and int(num) == value.numerator and len(den) > 4300
    head, low = divmod(value.denominator, 10 ** (len(den) - 100))
    assert den[:100] == str(head)
    assert den[-100:] == str(low % 10**100).zfill(100)
    assert lines[-1].endswith("status=ok")


def test_accelerate_at_the_terms_cap_is_prompt(tmp_path):
    # 72 MB of p/q text; printing through int-to-str and Fraction products
    # took 14.2 s on a 2-vCPU machine, the exact decimal walk about 3 s
    from wzeta.cli import _MAX_TERMS

    path = tmp_path / "out.txt"
    with path.open("wb") as file:
        done = run_subprocess("accelerate", "--pair", "s2", "--terms", str(_MAX_TERMS),
                              stdout=file, timeout=8)
    assert (done.returncode, done.stderr) == (0, "")
    digest = hashlib.sha256()
    with path.open("rb") as file:
        for chunk in iter(lambda: file.read(1 << 20), b""):
            digest.update(chunk)
    assert digest.hexdigest() == "af18971e305ea50cacddf8dcfed8c628a6d9b8c502bd0199966e90db68bee3d1"


def test_integer_options_past_the_int_str_limit():
    # option values are read as the DSL reads its literals, not by int()
    sevens = "7" * 700
    done = run_subprocess("eval", "--expr", "n", "--n", sevens, max_str_digits=640)
    assert (done.returncode, done.stdout, done.stderr) == (0, sevens + "\n", "")


@pytest.mark.parametrize("value,message", [
    pytest.param("abc", "not an integer: 'abc'", id="letters"),
    pytest.param("1_000", "not an integer: '1_000'", id="underscore"),
    pytest.param(" 5", "not an integer: ' 5'", id="space"),
    pytest.param("--5", "not an integer: '--5'", id="two signs"),
    pytest.param("7" * 4301, "an integer of over 4300 digits", id="4301 digits"),
])
def test_malformed_integer_options_exit_2(capsys, value, message):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--expr", "n", f"--n={value}"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"argument --n: {message}")


def test_eval_at_the_bits_cap_is_prompt():
    # n! at n = 128,767, 602,055 digits, is just under _MAX_EVAL_BITS;
    # its text took 4.96 s through splitting by powers of ten
    done = run_subprocess("eval", "--expr", "n!", "--n", "128767", timeout=3)
    assert (done.returncode, done.stderr) == (0, "")
    assert len(done.stdout) == 602_056
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "539d311c27d2d9bc12be3aa5ddcd73efe3027dcf0c7938ae9e5e8dc177e6d231"


def test_non_geometric_series_exits_2_promptly(tmp_path):
    # terms alternate and decrease, but only like 1/n: no geometric rate
    path = catalog_with(tmp_path, s3="(-1)^n / (n+1)")
    done = run_subprocess("--catalog", path, "digits", "--series", "s3",
                          "--digits", "30", timeout=10)
    assert_refused(done, "modulus 1")


def test_broken_catalog_series_follow_its_pair(broken_catalog):
    # the replaced g_s1 reaches s1 and lhs_s1: the series are the pair's
    from wzeta import accelerate, lhs_series, load_catalog

    broken = load_catalog(broken_catalog)
    pair = broken.pair_by_name("s1")
    fast, slow = accelerate(pair), lhs_series(pair)
    s1, lhs_s1 = broken.series_by_name("s1"), broken.series_by_name("lhs_s1")
    for n in range(1, 60):
        assert s1.term_at(n) == fast.term_at(n) / 2
        assert lhs_s1.term_at(n) == slow.term_at(n)
    assert s1.term_at(1) != load_catalog().series_by_name("s1").term_at(1)


def test_eval_outside_the_domain_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--expr", "n!", "--n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: (n=-1, k=0) outside term domain\n"


def test_non_utf8_catalog_exits_2(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"s3 = (-1)^n / (n+1)\n\xff\xfe\x80 = n\n")
    done = run_subprocess("--catalog", str(path), "list")
    assert_refused(done, str(path), "not UTF-8")


def test_swapped_pairs_are_checked_on_their_own_regions(capsys, tmp_path):
    # s1 and s2 exchange terms: each grid is the region of its new terms
    entries = catalog.parse_entries(bundled_text())
    path = catalog_with(tmp_path, **{f"{side}_s1": entries[f"{side}_s2"] for side in "fg"},
                        **{f"{side}_s2": entries[f"{side}_s1"] for side in "fg"})
    for name, points in (("s1", 110), ("s2", 55)):
        code, out, err = run(capsys, "--catalog", path, "verify", "--pair", name, "--nmax", "10")
        assert (code, err) == (0, "")
        assert out == f"mode=grid points_checked={points} outcome=pass\nPASS\n"


def test_a_pair_without_factorials_exits_2(capsys, tmp_path):
    # no factorial bounds k, so there is no grid to sweep; list still
    # prints, with "-" for the pair's least n
    path = catalog_with(tmp_path, f_s1="(-1)^k / (k+1)", g_s1="(-1)^k / (n+1)")
    code, out, err = run(capsys, "--catalog", path, "verify", "--pair", "s1")
    assert (code, out) == (2, "")
    assert err == "error: pair s1: the region does not bound k on both sides at n=0\n"
    code, out, err = run(capsys, "--catalog", path, "list")
    assert (code, err) == (0, "")
    assert "s1 pair - -\n" in out and "None" not in out


def test_verify_does_not_need_the_series(capsys, tmp_path):
    # without (-1)^k, G(n-1, n-1) and F(n, n-1) have no rational ratio,
    # so s1's diagonal cannot be formed; verify still reports the pair
    path = catalog_with(tmp_path, g_s1="2 * k!^2 * (n-k)! / ((n+k+1)! * (n+1)^2)")
    code, out, err = run(capsys, "--catalog", path, "verify", "--pair", "s1", "--nmax", "4")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0] == "1 0 -1/3 -1/6 fail"
    assert lines[-2:] == ["mode=grid points_checked=10 outcome=fail", "FAIL"]
    code, out, err = run(capsys, "--catalog", path, "verify", "--pair", "s2", "--nmax", "4")
    assert (code, out, err) == (0, "mode=grid points_checked=20 outcome=pass\nPASS\n", "")


def test_a_broken_pair_fails_only_its_own_series(capsys, tmp_path):
    # the same s1 pair: s1 cannot be formed, and every other series is
    # derived without it; list, which shows every series, exits 2. Its
    # certificate cannot be formed either, and each error names the pair
    path = catalog_with(tmp_path, g_s1="2 * k!^2 * (n-k)! / ((n+k+1)! * (n+1)^2)")
    refused = (2, "", "error: pair s1: sign exponents differ in n or k\n")
    for argv in (("digits", "--series", "s1", "--digits", "10"), ("list",),
                 ("verify", "--pair", "s1", "--symbolic"),
                 ("accelerate", "--pair", "s1", "--terms", "5")):
        assert run(capsys, "--catalog", path, *argv) == refused
    for argv in (("digits", "--series", "s3", "--digits", "10"),
                 ("digits", "--series", "s2", "--digits", "10"),
                 ("rate", "--series", "lhs_s2", "--lo", "0", "--hi", "20")):
        bundled = run(capsys, *argv)
        assert bundled[0] == 0
        assert run(capsys, "--catalog", path, *argv) == bundled


@pytest.mark.parametrize("digits", ["5", "50"])
def test_a_sum_on_a_digit_boundary_keeps_the_digits_it_certifies(capsys, tmp_path, digits):
    # the terms sum to exactly 1/20 = 0.05: the error bounds straddle the
    # second decimal, 0.04... against 0.05..., so one digit is certified
    path = catalog_with(tmp_path, s3="(-1)^n * (n+2) / (20 * (n+1)!)")
    code, out, err = run(capsys, "--catalog", path, "digits", "--series", "s3",
                         "--digits", digits)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "0.0"
    assert lines[4:] == ["certified_digits=1", "mode=exact", "series=s3"]


def test_a_sum_on_an_integer_certifies_no_digit(capsys, tmp_path):
    # the terms sum to exactly 1: the error bounds straddle it even with
    # no decimal place
    path = catalog_with(tmp_path, s3="(-1)^n * (n+2) / (n+1)!")
    code, out, err = run(capsys, "--catalog", path, "digits", "--series", "s3", "--digits", "5")
    assert (code, out, err) == (2, "", "error: error bounds certify no digits at all\n")


def test_a_series_ratio_over_the_degree_limit_exits_2_promptly(tmp_path):
    # reducing this ratio took 18 s; it is refused before the gcd, by name
    from wzeta.series import _MAX_RATIO_DEGREE

    path = catalog_with(tmp_path, s3="(-1)^n / (n+1)^999")
    done = run_subprocess("--catalog", path, "list", timeout=15)
    assert_refused(done, "series 's3'", "degree 999", str(_MAX_RATIO_DEGREE))


@pytest.mark.parametrize("expr,degree", [
    # expanding the rising products took 7 s before the degree was known;
    # the factorials alone give the ratio degree at least 1499
    ("(-1)^n * n!^999 / (2*n)!^999", "degree at least 1499"),
    # the estimate from the factorials, 200, passes; the ratio's own count
    # refuses it, and named no series
    ("(-1)^n * n!^133 / (2*n)!^133", "degree 266"),
], ids=["n!^999", "n!^133"])
@pytest.mark.parametrize("command", [("digits", "--series", "s3", "--digits", "10"),
                                     ("list",)], ids=["digits", "list"])
def test_factorial_powers_over_the_degree_limit_exit_2_promptly(tmp_path, expr, degree,
                                                                command):
    path = catalog_with(tmp_path, s3=expr)
    done = run_subprocess("--catalog", path, *command, timeout=2)
    assert_refused(done, "series 's3'", degree, "limit of 200")


@pytest.mark.parametrize("f_s1,g_s1,degree", [
    # (30*(k+1))!^30 / (30*k)!^30: still running after 30 s
    pytest.param("(30*k)!^30 * (n-k)!", "k * (30*k)!^30 * (n-k)!", "900", id="(30*k)!^30"),
    # an offset loop of 10^4995 steps, which never ended
    pytest.param("(((10^999)^5)*k)! * (n-k)!", None, "1" + "0" * 4995, id="10^4995*k"),
])
@pytest.mark.parametrize("command", [("verify", "--pair", "s1", "--symbolic"),
                                     ("accelerate", "--pair", "s1", "--terms", "3")],
                         ids=["verify", "accelerate"])
def test_a_pair_ratio_over_the_degree_limit_exits_2_promptly(tmp_path, f_s1, g_s1, degree,
                                                             command):
    path = catalog_with(tmp_path, f_s1=f_s1, **({"g_s1": g_s1} if g_s1 else {}))
    done = run_subprocess("--catalog", path, *command, timeout=2)
    assert_refused(done, f"degree {degree}, over the limit of 200")


# each ended in a ValueError traceback, its message holding a number of
# 4996 digits, past the default int-to-str limit
@pytest.mark.parametrize("expr,fragment", [
    ("(0-(10^999)^5)!", "factorial of negative constant -1" + "0" * 4995 + "\n"),
    ("n^((10^999)^5)", "exponent 1" + "0" * 4995 + " out of range"),
], ids=["(0-(10^999)^5)!", "n^((10^999)^5)"])
def test_eval_of_a_huge_number_in_a_diagnostic_exits_2(expr, fragment):
    assert_refused(run_subprocess("eval", "--expr", expr, "--n", "1"), fragment)


def test_a_series_of_a_huge_degree_exits_2(tmp_path):
    path = catalog_with(tmp_path, s3="(-1)^n / (((10^999)^5)*n)!")
    done = run_subprocess("--catalog", path, "digits", "--series", "s3", "--digits", "10")
    assert_refused(done, "series 's3' has degree at least 5" + "0" * 4994 + ", over")


@pytest.mark.parametrize("expr,n", [("n!^3", 500), ("7" * 700, 1)], ids=["n!^3", "700 digits"])
def test_eval_prints_under_a_low_int_str_limit(int_str_limit, expr, n):
    from wzeta.dsl import parse_term

    int_str_limit(0)  # the reference only
    expected = str(parse_term(expr).value_at(n)) + "\n"
    done = run_subprocess("eval", "--expr", expr, "--n", str(n), max_str_digits=640)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_verify_failures_print_under_a_low_int_str_limit(tmp_path):
    # the failures' values pass 640 digits from n = 44 on; the pair is not
    # a WZ pair, so every point fails
    path = catalog_with(tmp_path, f_s1="n!^12 * k! * (n-k)!", g_s1="k! * (n-k+1)!")
    argv = ("--catalog", path, "verify", "--pair", "s1", "--nmax", "50")
    done = run_subprocess(*argv, max_str_digits=640)
    assert (done.returncode, done.stderr) == (1, "")
    assert done.stdout.splitlines()[-1] == "FAIL"
    assert done.stdout == run_subprocess(*argv).stdout


def test_catalog_size_limit(capsys, tmp_path):
    # a valid catalog padded with a comment to the limit loads; one byte
    # more is refused by name
    limit = catalog._MAX_CATALOG_BYTES
    text = bundled_text().encode()
    path = tmp_path / "padded.txt"
    path.write_bytes(text + b"#" * (limit - len(text)))
    code, out, _ = run(capsys, "--catalog", str(path), "list")
    assert (code, out) == (0, LIST_OUTPUT)
    path.write_bytes(text + b"#" * (limit + 1 - len(text)))
    code, out, err = run(capsys, "--catalog", str(path), "list")
    assert (code, out) == (2, "")
    assert err == f"error: catalog {path} is over the limit of {limit} bytes\n"


def test_endless_catalog_exits_2_promptly():
    # /dev/zero never ends; the child may use 512 MB of address space, so
    # reading it whole fails with a MemoryError instead of filling memory
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from wzeta.cli import main\n"
            "sys.exit(main(['--catalog', '/dev/zero', 'list']))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wzeta.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=5)
    assert_refused(done, "/dev/zero", "over the limit")
