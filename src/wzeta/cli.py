"""Command-line interface.

Subcommands: list, digits, verify, accelerate, rate, eval. Output is
deterministic: exact rationals print as "p/q", decimals are truncated
strings, and nothing timing-dependent goes to standard output. Exit
codes: 0 success, 1 a verification ran and failed, 2 bad input
(parse/option/domain errors, one-line diagnostic on standard error).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable

from . import catalog as catalog_mod
from . import dsl, wz
from .algebra import EXACT, SCALED, fraction_text, int_text
from .errors import WZetaError
from .terms import factorial_bits

_COMPARE_LHS_TERMS = 300
# `verify`'s grid estimate, in seconds: _GRID_ROW_S per n of the row
# span, and per point _GRID_POINT_S plus _GRID_BIT_S per bit of B, B the
# bits of F(n+1, k) plus those of G(n, k) at the larger end of the row,
# fitted to grids timed in-process on a 2-vCPU machine before the walks
# stepped by iterators; the bundled grids now take 0.52-0.61 of their
# estimate and the 30n test pair, which fails everywhere, 0.37-0.41
# (in-process, best of 10; table in CHANGES.md).
# The cap is the estimate of s2 at n <= 386 (3.18 s; measured 1.87 s),
# the slowest bundled grid the tests run; it admits at most 1.6M points
# and a span of at most 355,000 rows
_GRID_ROW_S = 9e-6
_GRID_POINT_S = 2e-6
_GRID_BIT_S = 5.7e-10
_MAX_GRID_S = 3.2
# largest `digits --digits`; s1, the slowest catalog series at this size,
# takes 9.4 s in-process and 11.9 s through the CLI on a 2-vCPU machine
# (best of 3; s2 5.3 and 6.0 s, s3 6.0 and 6.5 s)
_MAX_DIGITS = 60_000
# largest product tree `digits` builds, in bits, estimated as N·(bits of
# a(N) + bits of b(N)) for the reduced term ratio a/b at the cut N =
# start + ⌈D/rate⌉: s1, s2 and s3 at 60,000 digits come to 10.2M, 9.9M
# and 12.4M; a series of rate 0.044 to 15.1M at 1000 digits, a 16 s run.
# The estimate counts the unsplit ratio a/b, while the tree's leaves are
# α/β with c(n) split off, so it over-counts s2 and s3: s3 at 3000 digits
# comes to 465,080 bits against a 116,332-bit denominator of the sum
_MAX_TREE_BITS = 16_000_000
# largest `accelerate --terms`; s2, the slower pair, takes 1.6-2.0 s
# through the CLI at this size on a 2-vCPU machine and prints 72 MB
_MAX_TERMS = 10_000
# largest `rate --lo`/`--hi`; s3, the slowest catalog series, takes about
# 0.66 s through the CLI from lo = 0 to this index on a 2-vCPU machine and
# 0.23 s, nearly all start-up, for its last two terms (s2 0.29 s in-process)
_MAX_RATE_INDEX = 20_000
# largest `eval` value, in estimated bits of unreduced numerator plus
# denominator; n! at n = 128,767 takes about 1.1 s through the CLI on a
# 2-vCPU machine, 0.3 s of it printing its 602,055 digits
_MAX_EVAL_BITS = 2_000_000


def _integer(text: str) -> int:
    """An integer option's value, read by dsl.read_integer."""
    try:
        return dsl.read_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wzeta",
        description="Exact verification and certified high-precision "
        "summation of fast zeta(3) series.",
    )
    parser.add_argument(
        "--catalog",
        metavar="PATH",
        help="use a replacement catalog definition file",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list catalog entries")

    p_digits = sub.add_parser("digits", help="sum a series to certified digits")
    p_digits.add_argument("--series", required=True, help="series name (e.g. s2)")
    p_digits.add_argument("--digits", required=True, type=_integer, metavar="D",
                          help=f"certified decimal places, at most {_MAX_DIGITS}")
    p_digits.add_argument("--mode", choices=(EXACT, SCALED), default=EXACT)

    p_verify = sub.add_parser("verify", help="check the pair identity")
    p_verify.add_argument("--pair", required=True, help="pair name (s1 or s2)")
    p_verify.add_argument(
        "--nmax",
        type=_integer,
        default=30,
        metavar="N",
        help=f"check every point with n <= N (default 30); grids estimated "
        f"to take over {_MAX_GRID_S} s on a 2-vCPU machine are refused",
    )
    p_verify.add_argument(
        "--symbolic",
        action="store_true",
        help="prove via degree-bounded identity testing instead of a grid",
    )

    p_accel = sub.add_parser(
        "accelerate",
        help="prove a pair symbolically, then print its diagonal series",
    )
    p_accel.add_argument("--pair", required=True)
    p_accel.add_argument("--terms", required=True, type=_integer, metavar="T",
                         help=f"terms to print, 1 to {_MAX_TERMS}")

    p_rate = sub.add_parser("rate", help="measure decimal digits gained per term")
    p_rate.add_argument("--series", required=True)
    p_rate.add_argument("--lo", required=True, type=_integer)
    p_rate.add_argument("--hi", required=True, type=_integer,
                        help=f"last index; --lo and --hi are at most {_MAX_RATE_INDEX}")

    p_eval = sub.add_parser("eval", help="evaluate a term expression exactly")
    p_eval.add_argument("--expr", required=True, metavar="TEXT")
    p_eval.add_argument("--n", required=True, type=_integer, help="values over "
                        f"{_MAX_EVAL_BITS} bits (Stirling estimate) are refused")
    p_eval.add_argument("--k", type=_integer, default=0)

    return parser


def _cmd_list(cat, args) -> int:
    for name, kind, start, rate in cat.listing():
        start_text = "-" if start is None else start
        rate_text = "-" if rate is None else f"{rate:.3f}"
        print(f"{name} {kind} {start_text} {rate_text}")
    return 0


def _cmd_digits(cat, args) -> int:
    from . import precision  # the summation engine loads only for the commands that sum

    if args.digits > _MAX_DIGITS:
        raise WZetaError(f"--digits {int_text(args.digits)} is over the limit of {_MAX_DIGITS}")
    series = cat.series_by_name(args.series)
    bits = _tree_bits(series, args.digits)
    if bits > _MAX_TREE_BITS:
        raise WZetaError(f"series {series.name!r} converges too slowly for --digits "
                         f"{args.digits}: about {bits:.3g} bits, over the limit of {_MAX_TREE_BITS}")
    report = precision.sum_to_digits(series, args.digits, mode=args.mode)
    print(report.serialize())
    return 0


def _tree_bits(series, digits: int) -> int:
    """_MAX_TREE_BITS's estimate; 0 without a geometric rate, for which
    the sum refuses the series itself."""
    rate = series.rate_estimate
    if rate is None:
        return 0
    cut = series.start_index + math.ceil(digits / rate)
    ratio = series.term_ratio()
    return cut * (abs(ratio.num.evaluate(cut)).bit_length()
                  + abs(ratio.den.evaluate(cut)).bit_length())


def _cmd_verify(cat, args) -> int:
    pair = cat.pair_by_name(args.pair)
    if args.symbolic:
        report = wz.verify_symbolic(pair)
    else:
        if _grid_seconds(pair, args.nmax) > _MAX_GRID_S:
            raise WZetaError(f"pair {pair.name} at --nmax {int_text(args.nmax)} is estimated "
                             f"to take over {_MAX_GRID_S} s of grid checks (the limit)")
        report = wz.verify_grid(pair, args.nmax)
    print(report.serialize())
    print("PASS" if report.outcome == "pass" else "FAIL")
    return 0 if report.outcome == "pass" else 1


def _grid_seconds(pair, n_max: int) -> float:
    """verify_grid(pair, n_max)'s estimate, in one pass over its rows
    that stops once past _MAX_GRID_S; infinity, before any row is
    visited, when the span alone passes it, so a run of empty rows is
    refused without being walked."""
    span = pair.check_domain.n_span(n_max)
    if span.stop - span.start > _MAX_GRID_S / _GRID_ROW_S:
        return math.inf
    seconds = _GRID_ROW_S * max(span.stop - span.start, 0)
    f_bits, g_bits = _value_bits(pair.f), _value_bits(pair.g)
    for n, lo, hi in pair.rows(n_max):
        bits = max(f_bits(n + 1, lo) + g_bits(n, lo), f_bits(n + 1, hi) + g_bits(n, hi))
        seconds += (hi - lo + 1) * (_GRID_POINT_S + _GRID_BIT_S * bits)
        if seconds > _MAX_GRID_S:
            break
    return seconds


def _cmd_accelerate(cat, args) -> int:
    from . import precision

    if args.terms < 1:
        raise WZetaError("--terms must be at least 1")
    if args.terms > _MAX_TERMS:
        raise WZetaError(f"--terms {int_text(args.terms)} is over the limit of {_MAX_TERMS}")
    pair = cat.pair_by_name(args.pair)
    proof = wz.verify_symbolic(pair)
    if proof.outcome != "pass":
        bad = proof.first_failure
        print(
            f"error: pair {pair.name} is refuted: the symbolic check fails "
            f"at (n={bad.n}, k={bad.k}), so it is not accelerated",
            file=sys.stderr,
        )
        return 1
    for n, text in precision.term_texts(wz.accelerate(pair), args.terms):
        print(f"{n} {text}")
    gap, bound, status = wz.two_sided_gap(
        pair, lhs_count=_COMPARE_LHS_TERMS, accel_count=args.terms
    )
    print(f"lhs_terms={_COMPARE_LHS_TERMS} gap={gap} bound={bound} status={status}")
    return 0 if status == "ok" else 1


def _cmd_rate(cat, args) -> int:
    from . import precision

    index = max(args.lo, args.hi)
    if index > _MAX_RATE_INDEX:
        raise WZetaError(f"--lo/--hi {int_text(index)} is over the limit of {_MAX_RATE_INDEX}")
    series = cat.series_by_name(args.series)
    rate = precision.measure_rate(series, args.lo, args.hi)
    print(f"{rate:.3f}")
    return 0


def _cmd_eval(args) -> int:
    term = dsl.parse_term(args.expr)
    bits = _value_bits(term)(args.n, args.k)
    if bits > _MAX_EVAL_BITS:
        raise WZetaError(f"eval needs about {bits:.3g} bits, over the limit of {_MAX_EVAL_BITS}")
    print(fraction_text(term.value_at(args.n, args.k)))
    return 0


def _value_bits(term) -> Callable[[int, int], float]:
    """(n, k) ↦ bits of term.value_at(n, k)'s unreduced numerator plus
    denominator: the folded constant's, Stirling's log2 m! per factorial
    (negative m is left to value_at), and per polynomial the bits of its
    coefficient sum plus its degrees times the bits of n and k. What does
    not depend on (n, k) is read from the term once."""
    constant = float(term.constant.numerator.bit_length() + term.constant.denominator.bit_length())
    factorials = [(form, abs(exp)) for form, exp in term.factorials]
    polys = [(sum(abs(c) for c in poly.coeffs.values()).bit_length(),
              poly.degree("n"), poly.degree("k")) for poly in (term.poly_num, term.poly_den)]

    def bits(n: int, k: int) -> float:
        total = constant
        for form, exp in factorials:
            total += exp * factorial_bits(form.value(n, k))
        for norm, deg_n, deg_k in polys:
            total += norm + deg_n * n.bit_length() + deg_k * k.bit_length()
        return total

    return bits


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_eval(args)
        cat = catalog_mod.load_catalog(args.catalog)
        commands = dict(list=_cmd_list, digits=_cmd_digits, verify=_cmd_verify,
                        accelerate=_cmd_accelerate, rate=_cmd_rate)
        return commands[args.command](cat, args)
    except (WZetaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
