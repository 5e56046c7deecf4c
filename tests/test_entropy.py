import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_counts
from thetalattice.entropy import (
    d6_coefficient,
    lattice_report,
    min_degree_for_kappa,
    summary_table,
)
from thetalattice.errors import InvalidCertificate
from thetalattice.voltage import CertificateFlags


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


def test_lattice_report_d5(certified):
    cert, _, _, _ = certified(5)
    summary = lattice_report(cert)
    assert summary.ratio == 1
    assert summary.d6 == Fraction(3, 15625)
    assert not summary.d6_negative


def test_lattice_report_d10(certified):
    cert, _, _, _ = certified(10)
    summary = lattice_report(cert, kappa="5/2")
    assert summary.c4_bar == Fraction(9, 4)
    assert summary.theta_bar == 6
    assert summary.ratio == Fraction(8, 3)
    assert summary.d6 == Fraction(-3, 4_000_000)
    assert summary.d6_negative
    data = summary.to_json_dict()
    assert data["sign"] == "negative"
    assert data["ratio_exceeds_kappa"] is True


def test_lattice_report_rejects_bad_flags(certified):
    cert, _, _, _ = certified(5)
    bad = dataclasses.replace(cert, flags=CertificateFlags(True, False, True))
    with pytest.raises(InvalidCertificate):
        lattice_report(bad)


def test_lattice_report_detects_tampered_bits(certified):
    """A certificate whose signings were zeroed out re-verifies as invalid."""
    from thetalattice.certify import verify_certificate

    cert, base, volt, _ = certified(5)
    zeroed = dataclasses.replace(cert, volt=volt.with_bits(cert.s, {}))  # its flags claim validity
    fresh = verify_certificate(base, zeroed.volt, seed=cert.seed)
    assert not fresh.flags.all_true


def test_ratio_equals_degree_formula_for_certified(certified):
    for d in (5, 6):
        cert, _, _, _ = certified(d)
        summary = lattice_report(cert)
        assert summary.ratio == Fraction(d - 2, 3)
        assert summary.d6 == Fraction((d - 1) * (19 - 2 * d), 12 * d**6)


def test_summary_table_layout(certified):
    cert, _, _, _ = certified(5)
    text = summary_table([lattice_report(cert)])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]
    assert "positive" in lines[1]
