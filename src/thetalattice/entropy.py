"""Closed-form lattice quantities: the order-6 coefficient of the
monomer-dimer free-energy expansion around the Bethe-lattice value, and
degree targeting for a requested 4-cycle/theta ratio.

All arithmetic is exact rational; the sign of the order-6 coefficient is the
headline output and must never depend on rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .census import CensusReport, _frac_str

RationalLike = Fraction | int | str


def d6_coefficient(
    c4_bar: RationalLike, c6_bar: RationalLike, theta_bar: RationalLike, d: int
) -> Fraction:
    """5*c4_bar/d^6 + c6_bar/(2 d^6) - 2*theta_bar/d^6, exactly, of the
    per-vertex averages: half the p^6 term, the first with 6-cycles and
    thetas, of the monomer-dimer entropy at covered fraction p minus its
    Bethe value [p ln d - p ln p - 2(1-p) ln(1-p) + (d-p) ln(1-p/d)] / 2."""
    if d < 1:
        raise ValueError("d must be >= 1")
    p = Fraction(d) ** 6
    c4b, c6b, tb = map(Fraction, (c4_bar, c6_bar, theta_bar))
    return 5 * c4b / p + c6b / (2 * p) - 2 * tb / p


def min_degree_for_kappa(kappa: RationalLike) -> int:
    """Smallest d >= 5 with (d - 2)/3 > kappa."""
    # smallest integer strictly above 3k + 2, floored at the construction minimum
    return max(5, math.floor(3 * Fraction(kappa) + 2) + 1)


class LatticeSummary(NamedTuple):
    """The summary of a certified degree-d lattice with s stages: its
    per-cube voltage census, which has 4-cycles as every certified
    lattice's does, and, if asked, the target ratio kappa.  The
    theta/4-cycle ratio and the order-6 coefficient are derived from the
    census averages."""

    d: int
    s: int
    census: CensusReport
    kappa: Fraction | None = None

    @property
    def ratio(self) -> Fraction:
        return self.census.theta_bar / self.census.c4_bar

    @property
    def d6(self) -> Fraction:
        c = self.census
        return d6_coefficient(c.c4_bar, c.c6_bar, c.theta_bar, self.d)

    @property
    def sign(self) -> str:
        d6 = self.d6
        return "negative" if d6 < 0 else ("zero" if d6 == 0 else "positive")

    def to_json_dict(self) -> dict:
        c = self.census
        out = {
            "d": self.d,
            "s": self.s,
            "c4_bar": _frac_str(c.c4_bar),
            "c6_bar": _frac_str(c.c6_bar),
            "theta_bar": _frac_str(c.theta_bar),
            "ratio": _frac_str(self.ratio),
            "d6": _frac_str(self.d6),
            "sign": self.sign,
        }
        if self.kappa is not None:
            out["kappa"] = _frac_str(self.kappa)
            out["ratio_exceeds_kappa"] = self.ratio > self.kappa
        return out


def summary_table(summary: LatticeSummary) -> str:
    """Plain-text report table: a header over the one summary's d, s,
    averages, ratio, d6 and its sign, each column right-aligned."""
    c = summary.census
    header = ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]
    cells = (summary.d, summary.s, c.c4_bar, c.c6_bar, c.theta_bar, summary.ratio, summary.d6, summary.sign)
    row = list(map(str, cells))
    widths = [max(len(h), len(r)) for h, r in zip(header, row)]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in (header, row))
