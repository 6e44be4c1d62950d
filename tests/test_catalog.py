import math
import zlib
from fractions import Fraction

import pytest

from wzeta import catalog
from wzeta.dsl import parse_term
from wzeta.errors import CatalogError, ParseError

from conftest import valid_points
from handbuilt import handbuilt_terms


def test_bundled_entries_parse_to_handbuilt_terms():
    built = handbuilt_terms()
    entries = catalog.parse_entries(catalog.bundled_text())
    assert set(entries) == set(built)
    for name, text in entries.items():
        assert parse_term(text) == built[name], name


def test_bundled_entries_agree_pointwise():
    built = handbuilt_terms()
    for name, text in catalog.parse_entries(catalog.bundled_text()).items():
        parsed = parse_term(text)
        for n, k in valid_points(parsed, 100, seed=zlib.crc32(name.encode())):
            assert parsed.value_at(n, k) == built[name].value_at(n, k)


def test_series_anchor_values(cat):
    assert cat.series_by_name("s1").term_at(1) == Fraction(5, 4)
    assert cat.series_by_name("s1").term_at(2) == Fraction(-5, 96)
    assert cat.series_by_name("s2").term_at(1) == Fraction(29, 24)
    assert cat.series_by_name("s3").term_at(0) == Fraction(65, 54)
    assert cat.series_by_name("lhs_s2").term_at(0) == Fraction(9, 4)


def test_lookup_is_case_insensitive(cat):
    assert cat.series_by_name("S3") is cat.series_by_name("s3")
    assert cat.pair_by_name(" S2 ") is cat.pair_by_name("s2")


def test_unknown_names_raise(cat):
    with pytest.raises(CatalogError):
        cat.series_by_name("s4")
    with pytest.raises(CatalogError):
        cat.pair_by_name("s3")  # only s1 and s2 ship as pairs


def test_listing_shape(cat):
    rows = cat.listing()
    assert ("s1", "series", 1, math.log10(4)) in rows
    assert ("s3", "series", 0, math.log10(64)) in rows
    assert ("lhs_s1", "series", 0, None) in rows
    assert ("s2", "pair", 1, None) in rows
    assert len(rows) == 7


def test_parse_entries_rejects_bad_lines():
    with pytest.raises(CatalogError):
        catalog.parse_entries("s1\n")
    with pytest.raises(CatalogError):
        catalog.parse_entries("s1 = 1\ns1 = 2\n")
    with pytest.raises(CatalogError):
        catalog.parse_entries("bad name = 1\n")
    assert catalog.parse_entries("# only a comment\n\n") == {}


def test_replacement_catalog_file(tmp_path):
    # same entries, g_s1 written differently; the pair and the series
    # derived from it must be unchanged
    good = "g_s1 = 2 * (-1)^k * k!^2 * (n-k)! / ((n+k+1)! * (n+1)^2)"
    text = catalog.bundled_text()
    assert good in text
    path = tmp_path / "alt.txt"
    path.write_text(text.replace(
        good, "g_s1 = 4 * (-1)^k * k!^2 * (n-k)! / (2 * (n+k+1)! * (n+1)^2)"
    ))
    alt = catalog.load_catalog(str(path))
    bundled = catalog.load_catalog()
    assert alt.pair_by_name("s1").g == bundled.pair_by_name("s1").g
    for name in ("s1", "lhs_s1"):
        for n in range(1, 30):
            assert alt.series_by_name(name).term_at(n) == bundled.series_by_name(
                name
            ).term_at(n)


def test_replacement_catalog_missing_entry(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("s1 = 1/(n+1)\n")
    with pytest.raises(CatalogError, match="missing"):
        catalog.load_catalog(str(path))


def test_replacement_catalog_unknown_entry(tmp_path):
    path = tmp_path / "extra.txt"
    path.write_text(catalog.bundled_text() + "\nmystery = 1/(n+1)\n")
    with pytest.raises(CatalogError, match="unknown"):
        catalog.load_catalog(str(path))


def test_replacement_catalog_parse_error_is_loud(tmp_path):
    good = "g_s1 = 2 * (-1)^k"
    assert good in catalog.bundled_text()
    path = tmp_path / "bad.txt"
    path.write_text(catalog.bundled_text().replace(good, "g_s1 = 2n * (-1)^k"))
    with pytest.raises(ParseError):
        catalog.load_catalog(str(path))


def test_pair_domains(cat):
    assert cat.pair_by_name("s1").check_domain.k_range(4) == (0, 3)
    assert cat.pair_by_name("s2").check_domain.k_range(4) == (0, 7)
    assert cat.pair_by_name("s2").zeta3_multiple == 2


@pytest.mark.parametrize("name,s,n_cap", [("s1", 1, 547), ("s2", 2, 386)])
def test_pair_domains_are_the_family_regions(cat, name, s, n_cap):
    # the region derived from F and G is n >= 1, 0 <= k <= s·n - 1 for a
    # family-s pair, up to the largest n the grid cap lets verify reach
    domain = cat.pair_by_name(name).check_domain
    assert domain.n_min == 1
    assert list(domain.rows(n_cap)) == [(n, 0, s * n - 1) for n in range(1, n_cap + 1)]


def test_bundled_catalog_parse_error_is_loud(monkeypatch):
    # no fallback: a parse failure in the bundled file is raised too
    good = "g_s1 = 2 * (-1)^k"
    assert good in catalog.bundled_text()
    broken = catalog.bundled_text().replace(good, "g_s1 = 2n * (-1)^k")
    monkeypatch.setattr(catalog, "bundled_text", lambda: broken)
    with pytest.raises(ParseError):
        catalog.load_catalog()
