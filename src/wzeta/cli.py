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

from . import catalog as catalog_mod
from . import dsl, precision, wz
from .algebra import fraction_text, int_text
from .errors import WZetaError
from .terms import factorial_bits

_COMPARE_LHS_TERMS = 300
# largest grid `verify` checks; s2, the slower pair, takes about 19 s
# in-process and 21 s through the CLI at this size (n <= 386) on a 2-vCPU
# machine, s1 about 10 s (n <= 547)
_MAX_GRID_POINTS = 150_000
# largest grid work `verify` takes on, estimated as the sum over the rows
# of (row length)·B^1.5, B the bits of F(n+1, k) and G(n, k) at the
# worse end of the row; a unit took 1.9-2.6e-11 s in-process on a 2-vCPU
# machine: s2 at n <= 200, 8.3e10, 2.1 s; s2 at the point cap, n <= 386,
# 9.9e11, about 19 s (s1 there, n <= 547, 5.4e11); a pair in 30*n,
# 1.2e11 at n <= 40 in 3.1 s, 5.3e11 at n <= 60 in 12.9 s and 3.4e12 at
# n <= 99 in 85 s
_MAX_GRID_WORK = 1.1e12
# largest `digits --digits`; s3, the slowest catalog series at this size,
# takes 14-19 s in-process on a 2-vCPU machine (s1 11-16 s, s2 10-14 s)
_MAX_DIGITS = 60_000
# largest product tree `digits` builds, in bits, estimated as N·(bits of
# a(N) + bits of b(N)) for the reduced term ratio a/b at the cut N =
# start + ⌈D/rate⌉: s1, s2 and s3 at 60,000 digits come to 10.2M, 9.9M
# and 12.4M; a series of rate 0.044 to 15.1M at 1000 digits, a 16 s run
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
    p_digits.add_argument(
        "--mode", choices=(precision.EXACT, precision.SCALED), default=precision.EXACT
    )

    p_verify = sub.add_parser("verify", help="check the pair identity")
    p_verify.add_argument("--pair", required=True, help="pair name (s1 or s2)")
    p_verify.add_argument(
        "--nmax",
        type=_integer,
        default=30,
        metavar="N",
        help=f"check every point with n <= N (default 30); grids of more "
        f"than {_MAX_GRID_POINTS} points, or of more estimated work than "
        f"{_MAX_GRID_WORK:.3g}, are refused",
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
        points = wz.grid_points(pair, args.nmax, stop_above=_MAX_GRID_POINTS)
        if points > _MAX_GRID_POINTS:
            raise WZetaError(
                f"--nmax {int_text(args.nmax)} gives a grid of more than "
                f"{_MAX_GRID_POINTS} points (the limit)"
            )
        work = _grid_work(pair, args.nmax)
        if work > _MAX_GRID_WORK:
            raise WZetaError(f"pair {pair.name} at --nmax {int_text(args.nmax)} needs about "
                             f"{work:.3g} units of grid work, over the limit of {_MAX_GRID_WORK:.3g}")
        report = wz.verify_grid(pair, args.nmax)
    print(report.serialize())
    print("PASS" if report.outcome == "pass" else "FAIL")
    return 0 if report.outcome == "pass" else 1


def _grid_work(pair, n_max: int) -> float:
    """_MAX_GRID_WORK's estimate: Σ over the rows of (hi - lo + 1)·B^1.5,
    B = _value_bits(F, n+1, k) + _value_bits(G, n, k) at the larger of
    k = lo and k = hi."""
    work = 0.0
    for n, lo, hi in pair.rows(n_max):
        bits = max(_value_bits(pair.f, n + 1, k) + _value_bits(pair.g, n, k) for k in (lo, hi))
        work += (hi - lo + 1) * bits**1.5
    return work


def _cmd_accelerate(cat, args) -> int:
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
    index = max(args.lo, args.hi)
    if index > _MAX_RATE_INDEX:
        raise WZetaError(f"--lo/--hi {int_text(index)} is over the limit of {_MAX_RATE_INDEX}")
    series = cat.series_by_name(args.series)
    rate = precision.measure_rate(series, args.lo, args.hi)
    print(f"{rate:.3f}")
    return 0


def _cmd_eval(args) -> int:
    term = dsl.parse_term(args.expr)
    bits = _value_bits(term, args.n, args.k)
    if bits > _MAX_EVAL_BITS:
        raise WZetaError(f"eval needs about {bits:.3g} bits, over the limit of {_MAX_EVAL_BITS}")
    print(fraction_text(term.value_at(args.n, args.k)))
    return 0


def _value_bits(term, n: int, k: int) -> float:
    """Bits of value_at(n, k)'s unreduced numerator plus denominator: the
    folded constant's, Stirling's log2 m! per factorial (negative m is
    left to value_at), and per polynomial the bits of its coefficient sum
    plus its degrees times the bits of n and k."""
    bits = float(term.constant.numerator.bit_length() + term.constant.denominator.bit_length())
    for form, exp in term.factorials:
        bits += abs(exp) * factorial_bits(form.value(n, k))
    for poly in (term.poly_num, term.poly_den):
        norm = sum(abs(c) for c in poly.coeffs.values())
        bits += norm.bit_length() + poly.degree("n") * n.bit_length() + poly.degree("k") * k.bit_length()
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
