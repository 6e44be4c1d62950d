"""Named, ready-to-use series and pairs.

The pairs' terms and s3 live as expression text in data/catalog.txt and
are parsed at load time; a parse failure is raised, for the bundled file
as for a replacement. Every other series is derived from a pair: sN is
its accelerated diagonal divided by the pair's limit multiple, so that
it sums to ζ(3), and lhs_sN is its column Σ G(n, 0). What the terms
cannot tell is code: each pair's family s and limit multiple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .algebra import LinearForm
from .errors import CatalogError
from .series import SeriesSpec
from .terms import Domain, HyperTerm
from .wz import WZPair, accelerate, lhs_series
from . import dsl

# pair name -> (family s, multiple of ζ(3) that Σ G(n, 0) sums to)
_PAIRS = {"s1": (1, Fraction(2)), "s2": (2, Fraction(2))}
_REQUIRED = tuple(f"{side}_{name}" for name in _PAIRS for side in "fg") + ("s3",)


def pair_domain(s: int) -> Domain:
    """Verification region for a family-s pair: n ≥ 1, 0 ≤ k ≤ s·n − 1."""
    return Domain((LinearForm(1, 0, -1), LinearForm(0, 1, 0), LinearForm(s, -1, -1)))


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

    A replacement file must define exactly the bundled entry names; the
    series come from its pairs and s3. Parse failures are raised.
    """
    try:
        text = bundled_text() if path is None else Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"catalog {path} is not UTF-8 text: {exc.reason} "
                           f"at byte {exc.start}") from None
    entries = parse_entries(text)

    missing = [name for name in _REQUIRED if name not in entries]
    if missing:
        raise CatalogError(f"catalog is missing entries: {', '.join(missing)}")
    unknown = [name for name in entries if name not in _REQUIRED]
    if unknown:
        raise CatalogError(f"catalog has unknown entries: {', '.join(unknown)}")

    terms = {name: dsl.parse_term(expr) for name, expr in entries.items()}

    pairs = {
        name: WZPair(name, terms[f"f_{name}"], terms[f"g_{name}"], multiple, pair_domain(s))
        for name, (s, multiple) in _PAIRS.items()
    }
    series = {name: _per_zeta3(accelerate(pair), name) for name, pair in pairs.items()}
    series["s3"] = SeriesSpec("s3", terms["s3"])
    for name, pair in pairs.items():
        series[f"lhs_{name}"] = replace(lhs_series(pair), name=f"lhs_{name}")
    return Catalog(series=series, pairs=pairs)


def _per_zeta3(series: SeriesSpec, name: str) -> SeriesSpec:
    """The series renamed and divided by its limit multiple: it sums to ζ(3)."""
    t = series.term
    term = HyperTerm(t.sign_exponent, t.factorials, t.poly_num, t.poly_den,
                     t.constant / series.zeta3_multiple, t.domain)
    return SeriesSpec(name, term, series.start_index)
