"""Named, ready-to-use series and pairs.

The definitions live as expression text in data/catalog.txt and are
parsed at load time; a parse failure is raised, for the bundled file as
for a replacement. Series metadata is code, not data: only the start
index and the limit multiple, which the term ratio cannot tell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .algebra import LinearForm
from .errors import CatalogError
from .series import SeriesSpec
from .terms import Domain
from .wz import WZPair
from . import dsl

_PAIR_NAMES = ("s1", "s2")
_SERIES_NAMES = ("s1", "s2", "s3", "lhs_s1", "lhs_s2")
_REQUIRED = ("f_s1", "g_s1", "f_s2", "g_s2") + _SERIES_NAMES

# name -> (start index, limit multiple), in SeriesSpec field order
_SERIES_META = {
    "s1": (1, Fraction(1)),
    "s2": (1, Fraction(1)),
    "s3": (0, Fraction(1)),
    "lhs_s1": (0, Fraction(2)),
    "lhs_s2": (0, Fraction(2)),
}
_PAIR_S = {"s1": 1, "s2": 2}


def pair_domain(s: int) -> Domain:
    """Verification region for a family-s pair: n ≥ 1, 0 ≤ k ≤ s·n − 1."""
    return Domain(n_min=1, constraints=(LinearForm(0, 1, 0), LinearForm(s, -1, -1)))


@dataclass(frozen=True)
class Catalog:
    series: dict[str, SeriesSpec]
    pairs: dict[str, WZPair]

    def series_by_name(self, name: str) -> SeriesSpec:
        key = name.strip().lower()
        if key not in self.series:
            raise CatalogError(
                f"unknown series {name!r} (available: {', '.join(self.series)})"
            )
        return self.series[key]

    def pair_by_name(self, name: str) -> WZPair:
        key = name.strip().lower()
        if key not in self.pairs:
            raise CatalogError(
                f"unknown pair {name!r} (available: {', '.join(self.pairs)})"
            )
        return self.pairs[key]

    def listing(self) -> list[tuple[str, str, int, float | None]]:
        """(name, kind, start index, rate estimate) per entry, series first."""
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
    return resources.files("wzeta").joinpath("data/catalog.txt").read_text()


def load_catalog(path: str | None = None) -> Catalog:
    """Build the catalog from the bundled data file or a replacement.

    A replacement file must define exactly the bundled entry names (the
    metadata attached to each name is fixed). Parse failures are raised.
    """
    text = bundled_text() if path is None else Path(path).read_text()
    entries = parse_entries(text)

    missing = [name for name in _REQUIRED if name not in entries]
    if missing:
        raise CatalogError(f"catalog is missing entries: {', '.join(missing)}")
    unknown = [name for name in entries if name not in _REQUIRED]
    if unknown:
        raise CatalogError(f"catalog has unknown entries: {', '.join(unknown)}")

    terms = {name: dsl.parse_term(expr) for name, expr in entries.items()}

    series = {
        name: SeriesSpec(name, terms[name], *_SERIES_META[name])
        for name in _SERIES_NAMES
    }
    pairs = {
        name: WZPair(
            name=name,
            f=terms[f"f_{name}"],
            g=terms[f"g_{name}"],
            s=_PAIR_S[name],
            check_domain=pair_domain(_PAIR_S[name]),
        )
        for name in _PAIR_NAMES
    }
    return Catalog(series=series, pairs=pairs)
