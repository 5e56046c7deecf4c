"""Closed-form lattice quantities: the order-6 coefficient of the
monomer-dimer free-energy expansion around the Bethe-lattice value, and
degree targeting for a requested 4-cycle/theta ratio.

All arithmetic is exact rational; the sign of the order-6 coefficient is the
headline output and must never depend on rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .census import CensusReport, _frac_str
from .errors import InvalidCertificate
from .graphs import _Value

RationalLike = Fraction | int | str


def _as_fraction(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def d6_coefficient(
    c4_bar: RationalLike, c6_bar: RationalLike, theta_bar: RationalLike, d: int
) -> Fraction:
    """5*c4_bar/d^6 + c6_bar/(2 d^6) - 2*theta_bar/d^6, exactly."""
    if d < 1:
        raise ValueError("d must be >= 1")
    p = Fraction(d) ** 6
    c4b, c6b, tb = map(_as_fraction, (c4_bar, c6_bar, theta_bar))
    return 5 * c4b / p + c6b / (2 * p) - 2 * tb / p


def min_degree_for_kappa(kappa: RationalLike) -> int:
    """Smallest d >= 5 with (d - 2)/3 > kappa."""
    k = _as_fraction(kappa)
    # smallest integer strictly above 3k + 2, floored at the construction minimum
    return max(5, math.floor(3 * k + 2) + 1)


class LatticeSummary(_Value):
    """The summary of a certified degree-d lattice with s stages: its
    per-cube voltage census and, if asked, the target ratio kappa.  The
    averages, their theta/4-cycle ratio and the order-6 coefficient are
    derived from the census.  InvalidCertificate if the census has no
    4-cycles, as no certified lattice lacks them.  Immutable, equal and
    hashed by its four stored values."""

    __slots__ = _fields = ("d", "s", "census", "kappa")

    def __init__(self, d: int, s: int, census: CensusReport, kappa: Fraction | None = None):
        if census.c4_bar == 0:
            raise InvalidCertificate("certified lattice has no 4-cycles")
        self._store(d, s, census, kappa)

    @property
    def c4_bar(self) -> Fraction:
        return self.census.c4_bar

    @property
    def c6_bar(self) -> Fraction:
        return self.census.c6_bar

    @property
    def theta_bar(self) -> Fraction:
        return self.census.theta_bar

    @property
    def ratio(self) -> Fraction:
        return self.theta_bar / self.c4_bar

    @property
    def d6(self) -> Fraction:
        return d6_coefficient(self.c4_bar, self.c6_bar, self.theta_bar, self.d)

    @property
    def d6_negative(self) -> bool:
        return self.d6 < 0

    @property
    def sign(self) -> str:
        return "negative" if self.d6_negative else ("zero" if self.d6 == 0 else "positive")

    def to_json_dict(self) -> dict:
        out = {
            "d": self.d,
            "s": self.s,
            "c4_bar": _frac_str(self.c4_bar),
            "c6_bar": _frac_str(self.c6_bar),
            "theta_bar": _frac_str(self.theta_bar),
            "ratio": _frac_str(self.ratio),
            "d6": _frac_str(self.d6),
            "sign": self.sign,
        }
        if self.kappa is not None:
            out["kappa"] = _frac_str(self.kappa)
            out["ratio_exceeds_kappa"] = self.ratio > self.kappa
        return out


def summary_table(summaries: list[LatticeSummary]) -> str:
    """Plain-text report table: d, s, averages, ratio, d6 and its sign."""
    header = ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]
    rows = [header]
    for m in summaries:
        rows.append(
            [
                str(m.d),
                str(m.s),
                str(m.c4_bar),
                str(m.c6_bar),
                str(m.theta_bar),
                str(m.ratio),
                str(m.d6),
                m.sign,
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)
