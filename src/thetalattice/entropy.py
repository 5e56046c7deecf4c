"""Closed-form lattice quantities: the order-6 coefficient of the
monomer-dimer free-energy expansion around the Bethe-lattice value, and
degree targeting for a requested 4-cycle/theta ratio.

All arithmetic is exact rational; the sign of the order-6 coefficient is the
headline output and must never depend on rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .census import CensusReport, _frac_str, voltage_census
from .errors import InvalidCertificate
from .voltage import BaseGraph, LiftCertificate

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


@dataclass(frozen=True)
class LatticeSummary:
    d: int
    s: int
    c4_bar: Fraction
    c6_bar: Fraction
    theta_bar: Fraction
    ratio: Fraction
    d6: Fraction
    d6_negative: bool
    kappa: Fraction | None = None

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"


def lattice_report(cert: LiftCertificate, kappa: RationalLike | None = None) -> LatticeSummary:
    """Per-vertex averages, theta/4-cycle ratio and order-6 coefficient of a
    certified lattice, recomputed from the voltage census (never assumed)."""
    if not cert.flags.all_true:
        raise InvalidCertificate(f"certificate flags not all true: {cert.flags.to_dict()}")
    return _summary_of_census(cert, voltage_census(BaseGraph(cert.d), cert.volt), kappa)


def _summary_of_census(
    cert: LiftCertificate, report: CensusReport, kappa: RationalLike | None = None
) -> LatticeSummary:
    """The lattice summary of a certificate whose voltage census the caller
    has already computed."""
    if report.c4_bar == 0:
        raise InvalidCertificate("certified lattice has no 4-cycles")
    d6 = d6_coefficient(report.c4_bar, report.c6_bar, report.theta_bar, cert.d)
    return LatticeSummary(
        d=cert.d,
        s=cert.s,
        c4_bar=report.c4_bar,
        c6_bar=report.c6_bar,
        theta_bar=report.theta_bar,
        ratio=report.theta_bar / report.c4_bar,
        d6=d6,
        d6_negative=d6 < 0,
        kappa=_as_fraction(kappa) if kappa is not None else None,
    )


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
