"""Named, ready-to-use series and pairs.

The pairs' terms and s3 live as expression text in data/catalog.txt and
are parsed at load time; a parse failure is raised, for the bundled file
as for a replacement. Every other series is derived from a pair when it
is first asked for: sN is its accelerated diagonal divided by the pair's
limit multiple, so that it sums to ζ(3), and lhs_sN is its column
Σ G(n, 0). What the terms cannot tell is code: each pair's limit
multiple.
"""

from __future__ import annotations

import os
from fractions import Fraction

from .algebra import Frozen
from .errors import CatalogError
from .series import SeriesSpec
from .terms import HyperTerm
from .wz import WZPair, accelerate, lhs_series
from . import dsl

# pair name -> multiple of ζ(3) that Σ G(n, 0) sums to
_PAIRS = {"s1": Fraction(2), "s2": Fraction(2)}
_REQUIRED = tuple(f"{side}_{name}" for name in _PAIRS for side in "fg") + ("s3",)
# largest replacement catalog file read, in bytes; the bundled one is
# under 1 KB, and this leaves room for literals of the DSL's 4300 digits
_MAX_CATALOG_BYTES = 1 << 20


class Catalog(Frozen):
    """The pairs and s3; immutable, equal by those two fields, and
    unhashable for its dict of pairs. Each series is derived by name on
    first use: a pair whose diagonal cannot be formed fails the commands
    that need its own series, not its verification or any other series."""

    def __init__(self, pairs: dict[str, WZPair], s3: HyperTerm):
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "s3", s3)
        object.__setattr__(self, "_derived", {})

    @property
    def _key(self) -> tuple:
        return self.pairs, self.s3

    @property
    def series_names(self) -> tuple[str, ...]:
        return (*self.pairs, "s3", *(f"lhs_{name}" for name in self.pairs))

    @property
    def series(self) -> dict[str, SeriesSpec]:
        """Every named series."""
        return {name: self.series_by_name(name) for name in self.series_names}

    def series_by_name(self, name: str) -> SeriesSpec:
        key = name.strip().lower()
        if key not in self.series_names:
            raise CatalogError(
                f"unknown series {name!r} (available: {', '.join(self.series_names)})"
            )
        if key not in self._derived:
            self._derived[key] = self._derive(key)
        return self._derived[key]

    def _derive(self, key: str) -> SeriesSpec:
        if key == "s3":
            return SeriesSpec("s3", self.s3)
        if key in self.pairs:
            return _per_zeta3(accelerate(self.pairs[key]), key)
        column = lhs_series(self.pairs[key.removeprefix("lhs_")])
        return SeriesSpec(key, column.term, column.start_index, column.zeta3_multiple)

    def pair_by_name(self, name: str) -> WZPair:
        key = name.strip().lower()
        if key not in self.pairs:
            raise CatalogError(
                f"unknown pair {name!r} (available: {', '.join(self.pairs)})"
            )
        return self.pairs[key]

    def listing(self) -> list[tuple[str, str, int | None, float | None]]:
        """(name, kind, start index, rate estimate) per entry, series
        first; a pair starts at its region's least n, None if it has none."""
        rows = [
            (spec.name, "series", spec.start_index, spec.rate_estimate)
            for spec in self.series.values()
        ]
        rows += [
            (pair.name, "pair", pair.check_domain.n_min, None)
            for pair in self.pairs.values()
        ]
        return rows


def parse_entries(text: str) -> dict[str, str]:
    """Split catalog text into a name -> expression-text mapping."""
    entries: dict[str, str] = {}
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
        entries[name] = expr
    return entries


def bundled_text() -> str:
    """data/catalog.txt, read through the package's loader as
    pkgutil.get_data does: importlib.resources would add about 20 ms to
    every start, and from Python 3.12 on it imports inspect."""
    path = os.path.join(os.path.dirname(__file__), "data", "catalog.txt")
    return __spec__.loader.get_data(path).decode("utf-8")


def load_catalog(path: str | None = None) -> Catalog:
    """Build the catalog from the bundled data file or a replacement.

    A replacement file must define exactly the bundled entry names and
    be UTF-8 text of at most _MAX_CATALOG_BYTES bytes; the series come
    from its pairs and s3. Parse failures are raised.
    """
    text = bundled_text() if path is None else _read_replacement(path)
    entries = parse_entries(text)

    missing = [name for name in _REQUIRED if name not in entries]
    if missing:
        raise CatalogError(f"catalog is missing entries: {', '.join(missing)}")
    unknown = [name for name in entries if name not in _REQUIRED]
    if unknown:
        raise CatalogError(f"catalog has unknown entries: {', '.join(unknown)}")

    terms = {name: dsl.parse_term(expr) for name, expr in entries.items()}
    pairs = {
        name: WZPair(name, terms[f"f_{name}"], terms[f"g_{name}"], multiple)
        for name, multiple in _PAIRS.items()
    }
    return Catalog(pairs=pairs, s3=terms["s3"])


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


def _per_zeta3(series: SeriesSpec, name: str) -> SeriesSpec:
    """The series renamed and divided by its limit multiple: it sums to ζ(3)."""
    t = series.term
    term = HyperTerm(t.sign_exponent, t.factorials, t.poly_num, t.poly_den,
                     t.constant / series.zeta3_multiple, t.domain)
    return SeriesSpec(name, term, series.start_index)
