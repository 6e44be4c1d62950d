"""Named, ready-to-use series and pairs, read from catalog text alone.

The entries of data/catalog.txt, or of a replacement, are parsed at load
time, and a parse failure is raised. The entries f_X, g_X and zeta3_X make
the pair X; zeta3_X, which the terms cannot tell, is the multiple of ζ(3)
that its column Σ G(n, 0) sums to. Its series are X, the diagonal divided
by that multiple, which sums to ζ(3), and lhs_X, the column; every other
entry is a lone series, summing to ζ(3) from n = 0. The listing reads each
rate from a term's factorials (terms.ratio_limit), without the summation
engine or the verifier.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import Frozen, limit_rate
from .errors import CatalogError, naming
from .pair import WZPair
from .terms import HyperTerm, ratio_limit
from . import dsl

if TYPE_CHECKING:
    from .series import SeriesSpec

# the prefixes of a pair's entries: f_X, g_X and zeta3_X make the pair X
_SIDES = ("f", "g", "zeta3")
# largest replacement catalog file read, in bytes; the bundled one is
# under 1 KB, and this leaves room for literals of the DSL's 4300 digits
_MAX_CATALOG_BYTES = 1 << 20


class Catalog(Frozen):
    """The pairs and the lone series' terms; immutable, equal by those two
    fields, unhashable for their dicts. Each series is derived by name on
    first use: a pair whose diagonal cannot be formed fails the commands that
    need its own series, not its verification or any other series."""

    def __init__(self, pairs: dict[str, WZPair], lone: dict[str, HyperTerm]):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "lone", lone)
        object.__setattr__(self, "_derived", {})

    @property
    def _key(self) -> tuple:
        return self.pairs, self.lone

    @property
    def series_names(self) -> tuple[str, ...]:
        return (*self.pairs, *self.lone, *(f"lhs_{name}" for name in self.pairs))

    def series_by_name(self, name: str) -> SeriesSpec:
        key = name.strip().lower()
        if key not in self.series_names:
            raise CatalogError(
                f"unknown series {name!r} (available: {', '.join(self.series_names)})"
            )
        if key not in self._derived:
            from .series import SeriesSpec  # only here: `verify` and `list` never load it

            self._derived[key] = SeriesSpec(key, *self._term(key))
        return self._derived[key]

    def _term(self, key: str) -> tuple[HyperTerm, int, Fraction]:
        """(term, start index, zeta3_multiple) of the series named key."""
        if key in self.lone:
            return self.lone[key], 0, Fraction(1)
        pair = self.pairs.get(key) or self.pairs[key.removeprefix("lhs_")]  # X or lhs_X
        if pair.name != key:
            return pair.column_term(), 0, pair.zeta3_multiple
        t = pair.diagonal_term()  # divided by the limit multiple: it sums to ζ(3)
        return HyperTerm(t.sign_exponent, t.factorials, t.poly_num, t.poly_den,
                         t.constant / pair.zeta3_multiple, t.domain), 1, Fraction(1)

    def pair_by_name(self, name: str) -> WZPair:
        key = name.strip().lower()
        if key not in self.pairs:
            raise CatalogError(f"unknown pair {name!r} (available: {', '.join(self.pairs)})")
        return self.pairs[key]

    def listing(self) -> list[tuple[str, str, int | None, float | None]]:
        """(name, kind, start index, rate estimate) per entry, series
        first; a pair starts at its region's least n, None if it has none.
        Every series' term is formed before any rate is read."""
        terms = [(name, *self._term(name)) for name in self.series_names]
        rows = [(name, "series", start, limit_rate(ratio_limit(term, name)))
                for name, term, start, _ in terms]
        rows += [(pair.name, "pair", pair.check_domain.n_min, None)
                 for pair in self.pairs.values()]
        return rows


def parse_entries(text: str) -> dict[str, str]:
    """Split catalog text into a name -> expression-text mapping."""
    return {name: expr for name, (_, expr) in _numbered_entries(text).items()}


def _numbered_entries(text: str) -> dict[str, tuple[int, str]]:
    """name -> (line number, expression text) per catalog entry."""
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, expr = line.partition("=")
        name = name.strip().lower()
        expr = expr.strip()
        if not sep or not name or not expr:
            raise CatalogError(f"line {lineno}: expected 'name = expression'")
        if not name.replace("_", "").isalnum():
            raise CatalogError(f"line {lineno}: bad entry name {name!r}")
        if name in entries:
            raise CatalogError(f"line {lineno}: duplicate entry {name!r}")
        entries[name] = lineno, expr
    return entries


def bundled_text() -> str:
    """data/catalog.txt, read through the package's loader as
    pkgutil.get_data does: importlib.resources would add about 20 ms to
    every start, and from Python 3.12 on it imports inspect."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")
    return __spec__.loader.get_data(path).decode("utf-8")


def load_catalog(path: str | None = None) -> Catalog:
    """Build the catalog from the bundled data file or a replacement, UTF-8
    text of at most _MAX_CATALOG_BYTES bytes. Raised, each naming the entry
    and its line: a parse failure; a pair entry without both of the other
    two; a zeta3_X that is not a positive constant; a series name derived
    twice (a lone series X or lhs_X for a pair X, or pairs lhs_X and X)."""
    text = bundled_text() if path is None else _read_replacement(path)
    entries = _numbered_entries(text)
    terms = {}
    for name, (lineno, expr) in entries.items():
        # a ParseError's offset counts from the start of the expression
        with naming(f"line {lineno}: entry {name!r}"):
            terms[name] = dsl.parse_term(expr)
    pairs, lone = {}, {}
    for name, term in terms.items():
        side, _, x = name.partition("_")
        if side not in _SIDES or not x:
            lone[name] = term
        elif missing := [entry for entry in (f"{s}_{x}" for s in _SIDES) if entry not in terms]:
            raise CatalogError(f"line {entries[name][0]}: entry {name!r} has no {missing[0]}")
        elif side == "zeta3" and (term.constant <= 0 or term != HyperTerm(constant=term.constant)):
            raise CatalogError(f"line {entries[name][0]}: entry {name!r} "
                               "is not a positive constant")
        elif side == "f":
            pairs[x] = WZPair(x, term, terms[f"g_{x}"], terms[f"zeta3_{x}"].constant)
    owner = {}  # series name -> the entry it comes from; an f_X entry where two clash
    derived = [(f"f_{x}", series) for x in pairs for series in (x, f"lhs_{x}")]
    for entry, series in derived + [(name, name) for name in lone]:
        if owner.setdefault(series, entry) != entry:
            raise CatalogError(f"line {entries[entry][0]}: entry {entry!r} clashes "
                               f"with pair {owner[series][2:]}'s series {series!r}")
    return Catalog(pairs, lone)


def _read_replacement(path: str) -> str:
    """The file's text; a CatalogError past the size limit or if it is
    not UTF-8. Only the limit and one byte more are read, so a file with
    no end, such as /dev/zero, is refused too."""
    with open(path, "rb") as file:
        data = file.read(_MAX_CATALOG_BYTES + 1)
    if len(data) > _MAX_CATALOG_BYTES:
        raise CatalogError(f"catalog {path} is over the limit of {_MAX_CATALOG_BYTES} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog {path} is not UTF-8 text: {exc.reason} "
                           f"at byte {exc.start}") from None

