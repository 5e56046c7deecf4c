from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_counts
from thetalattice.census import CensusReport, voltage_census
from thetalattice.entropy import (
    LatticeSummary,
    d6_coefficient,
    min_degree_for_kappa,
    summary_table,
)
from thetalattice.errors import InvalidCertificate


def test_d6_zero():
    assert d6_coefficient(0, 0, 0, 7) == 0


def test_d6_counterexample_value():
    assert d6_coefficient(Fraction(9, 4), 0, 6, 10) == Fraction(-3, 4_000_000)


def test_d6_positive_at_9():
    assert d6_coefficient(2, 0, Fraction(14, 3), 9) == Fraction(2, 1_594_323)


def test_d6_accepts_strings_and_ints():
    assert d6_coefficient("9/4", "0", "6", 10) == Fraction(-3, 4_000_000)


@given(st.integers(min_value=5, max_value=40))
def test_d6_closed_form_on_stray_free_bars(d):
    """With c6 = 0 and the central-copy bars, the coefficient collapses to
    (d-1)(19-2d)/(12 d^6)."""
    c4b = Fraction(d - 1, 4)
    tb = Fraction((d - 1) * (d - 2), 12)
    assert d6_coefficient(c4b, 0, tb, d) == Fraction((d - 1) * (19 - 2 * d), 12 * d**6)


def test_central_counts():
    assert central_counts(5) == (10, 10)
    assert central_counts(10) == (45, 120)
    assert central_counts(2) == (1, 0)
    with pytest.raises(ValueError):
        central_counts(1)


@pytest.mark.parametrize(
    "kappa,expected",
    [("9/10", 5), ("1", 6), ("5/2", 10), ("10", 33), ("0.9", 5), ("-3", 5)],
)
def test_min_degree_for_kappa(kappa, expected):
    assert min_degree_for_kappa(kappa) == expected


@settings(max_examples=60)
@given(st.fractions(min_value=Fraction(0), max_value=Fraction(50)))
def test_min_degree_postcondition(kappa):
    d = min_degree_for_kappa(kappa)
    assert d >= 5
    assert Fraction(d - 2, 3) > kappa
    assert d == 5 or Fraction(d - 3, 3) <= kappa


def _summary(certified, d, kappa=None):
    """The summary that report prints for the certified degree-d lattice:
    its voltage census, with kappa if given."""
    cert, base, volt, _ = certified(d)
    return LatticeSummary(d, cert.s, voltage_census(base, volt), kappa)


def test_lattice_report_d5(certified):
    summary = _summary(certified, 5)
    assert summary.ratio == 1
    assert summary.d6 == Fraction(3, 15625)
    assert not summary.d6_negative


def test_lattice_report_d10(certified):
    summary = _summary(certified, 10, Fraction(5, 2))
    assert summary.c4_bar == Fraction(9, 4)
    assert summary.theta_bar == 6
    assert summary.ratio == Fraction(8, 3)
    assert summary.d6 == Fraction(-3, 4_000_000)
    assert summary.d6_negative
    data = summary.to_json_dict()
    assert data["sign"] == "negative"
    assert data["ratio_exceeds_kappa"] is True


def test_lattice_summary_stores_its_census_and_refuses_no_4_cycles():
    """A summary stores d, s, its census and kappa, and derives the rest; a
    census with no 4-cycles is no certified lattice's."""
    assert list(LatticeSummary.__slots__) == ["d", "s", "census", "kappa"]
    census = CensusReport(45 << 8, 45 << 8, 0, 120 << 8, 20 << 8, "per-cube")
    summary = LatticeSummary(10, 8, census, Fraction(5, 2))
    assert (summary.c4_bar, summary.c6_bar, summary.theta_bar) == (Fraction(9, 4), 0, 6)
    assert (summary.ratio, summary.d6, summary.sign) == (Fraction(8, 3), Fraction(-3, 4_000_000), "negative")
    with pytest.raises(InvalidCertificate, match="certified lattice has no 4-cycles"):
        LatticeSummary(10, 8, CensusReport(0, 0, 0, 0, 20 << 8, "per-cube"))


def test_ratio_equals_degree_formula_for_certified(certified):
    """The report of the certified lattice of every degree 5..40, verified
    on both routes (census+dfs up to d = 20, census-only above), has the
    central-copy closed forms, and its order-6 coefficient is negative
    exactly from d = 10 on."""
    for d in range(5, 41):
        summary = _summary(certified, d)
        assert summary.c4_bar == Fraction(d - 1, 4)
        assert summary.theta_bar == Fraction((d - 1) * (d - 2), 12)
        assert summary.c6_bar == 0
        assert summary.ratio == Fraction(d - 2, 3)
        assert summary.d6 == -Fraction((d - 1) * (2 * d - 19), 12 * d**6)
        assert summary.d6_negative == (d >= 10)


def test_summary_table_layout(certified):
    text = summary_table([_summary(certified, 5)])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]
    assert "positive" in lines[1]
