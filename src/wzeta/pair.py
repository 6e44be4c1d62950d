"""A candidate WZ pair (F, G) and its series' terms, the diagonal and the column."""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .algebra import Frozen, LinearForm
from .errors import naming
from .terms import Domain, HyperTerm, cross_ratio


class WZPair(Frozen):
    """A candidate pair for the discrete telescoping identity; immutable,
    equal and hashed by its fields.

    zeta3_multiple is the multiple of ζ(3) that Σ_{n≥0} G(n, 0) sums to,
    the one fact the terms cannot tell.
    """

    def __init__(self, name: str, f: HyperTerm, g: HyperTerm, zeta3_multiple: Fraction):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "zeta3_multiple", zeta3_multiple)

    @property
    def _key(self) -> tuple:
        return self.name, self.f, self.g, self.zeta3_multiple

    @cached_property
    def check_domain(self) -> Domain:
        """The (n, k) region on which all four values in the identity are
        defined: the constraints of F(n+1, k), F(n, k), G(n, k+1) and
        G(n, k)."""
        n, k = LinearForm(1, 0, 0), LinearForm(0, 1, 0)
        f_up = self.f.domain.substituted(LinearForm(1, 0, 1), k)
        g_up = self.g.domain.substituted(n, LinearForm(0, 1, 1))
        return Domain(tuple(dict.fromkeys(
            f_up.constraints + self.f.domain.constraints
            + g_up.constraints + self.g.domain.constraints)))

    def rows(self, n_max: int) -> Iterator[tuple[int, int, int]]:
        """check_domain.rows(n_max), each row's interval lo <= k <= hi; the
        DomainError of a region that does not bound k names the pair."""
        with naming(f"pair {self.name}"):
            yield from self.check_domain.rows(n_max)

    def diagonal_term(self) -> HyperTerm:
        """F(n, n-1) + G(n-1, n-1) as one term, F(n, n-1)·(1 + R) with R = G(n-1, n-1)/F(n, n-1)
        rational (IncompatibleTerms otherwise); an error in forming it names the pair."""
        n, n_less_1 = LinearForm(1, 0, 0), LinearForm(1, 0, -1)
        with naming(f"pair {self.name}"):
            f_diag = self.f.substituted(n, n_less_1)  # F(n, n-1)
            g_diag = self.g.substituted(n_less_1, n_less_1)  # G(n-1, n-1)
            r = cross_ratio(g_diag, f_diag)
            domain = (n_less_1,) + f_diag.domain.constraints + g_diag.domain.constraints
            return HyperTerm(f_diag.sign_exponent, f_diag.factorials,
                             f_diag.poly_num * (r.den + r.num), f_diag.poly_den * r.den,
                             f_diag.constant, Domain(domain))

    def column_term(self) -> HyperTerm:
        """G(n, 0); an error in forming it names the pair."""
        with naming(f"pair {self.name}"):
            return self.g.substituted(LinearForm(1, 0, 0), LinearForm())
