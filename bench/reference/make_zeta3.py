"""Write zeta3.txt: zeta(3) truncated to 5000 fractional digits.

The benchmark checks every `wzeta digits` result against this file, so
it comes from a source independent of wzeta: mpmath, evaluated twice by
different routes (its zeta function and its Apery constant) at 5100
significant digits. Needs mpmath; run once with

    python3 bench/reference/make_zeta3.py
"""

from pathlib import Path

import mpmath

FRACTION_DIGITS = 5000
WORKING_DIGITS = 5100


def main() -> None:
    mpmath.mp.dps = WORKING_DIGITS
    shown = WORKING_DIGITS - 10
    via_zeta = mpmath.nstr(mpmath.zeta(3), shown, strip_zeros=False)
    via_constant = mpmath.nstr(+mpmath.apery, shown, strip_zeros=False)
    if via_zeta != via_constant:
        raise SystemExit("mpmath routes disagree")
    kept = 2 + FRACTION_DIGITS  # "1." and the fractional digits
    # nstr rounds at its last digit; a run of nines from there back to the
    # cut would carry into the kept digits, so the digits dropped must not
    # all be nines for the cut to be a truncation.
    if set(via_zeta[kept:]) == {"9"}:
        raise SystemExit("rounding may reach the kept digits; raise WORKING_DIGITS")
    out = Path(__file__).with_name("zeta3.txt")
    out.write_text(via_zeta[:kept] + "\n")
    print(f"wrote {out} ({FRACTION_DIGITS} fractional digits)")


if __name__ == "__main__":
    main()
