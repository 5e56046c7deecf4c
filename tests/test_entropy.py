from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    central_counts,
    complete_bipartite,
    matching_counts,
    plain_graph,
    series_compose,
    series_log,
    series_mul,
    series_reversion,
)
from thetalattice.census import CensusReport, census, voltage_census
from thetalattice.entropy import (
    LatticeSummary,
    d6_coefficient,
    min_degree_for_kappa,
    summary_table,
)


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


def _entropy_over_bethe(n, edges, d, terms):
    """The first terms coefficients of Delta(p) = lambda(p) - lambda_B(p) for
    the graph on n vertices, from its matching counts m_k.  With
    F(x) = ln(sum m_k x^k) / n, p = 2 x F'(x) and lambda = F - (p/2) ln x,
    and the Bethe value lambda_B(p) = [p ln d - p ln p - 2(1-p) ln(1-p)
    + (d-p) ln(1-p/d)] / 2, the logarithms of p and d cancel through
    ln x = ln p - ln d + ln(d x/p), leaving
    Delta = F(x(p)) - (p/2) ln(d x/p) + (1-p) ln(1-p) - (d-p) ln(1-p/d) / 2."""
    f = [c / n for c in series_log(matching_counts(n, edges, terms), terms + 1)]
    x = series_reversion([2 * k * c for k, c in enumerate(f)], terms + 1)
    fx = series_compose(f, x, terms)
    half_p_log = series_mul([0, Fraction(1, 2)], series_log([d * c for c in x[1:]], terms), terms)
    bethe_p = series_mul([1, -1], series_log([1, -1], terms), terms)
    bethe_d = series_mul([d, -1], series_log([1, Fraction(-1, d)], terms), terms)
    return [fx[k] - half_p_log[k] + bethe_p[k] - bethe_d[k] / 2 for k in range(terms)]


def _circulant(m, shifts):
    """White i meets black m + (i + s) mod m for each s in shifts."""
    return plain_graph(2 * m, [(i, m + (i + s) % m) for i in range(m) for s in shifts])


@pytest.mark.parametrize(
    "g, d",
    [
        (complete_bipartite(5, 5), 5),
        (_circulant(8, {0, 1, 2, 4}), 4),
        (_circulant(9, {0, 1, 3, 7}), 4),
        (_circulant(8, {0, 1, 2, 3, 5}), 5),
    ],
    ids=["K55", "C8-0124", "C9-0137", "C8-01235"],
)
def test_d6_is_half_the_p6_term_of_the_entropy_over_bethe(g, d):
    """The oracle for d6_coefficient: on a d-regular bipartite graph, the
    monomer-dimer entropy minus its Bethe value, as a series in the
    covered fraction p, starts at p^4, and with the averages of the
    package's census its p^4, p^5 and p^6 terms are c4_bar/d^4,
    4 c4_bar/d^5 and 2 d6."""
    report = census(g)
    c4_bar = report.c4_bar
    delta = _entropy_over_bethe(g.vertex_count, g.edge_array.tolist(), d, 7)
    assert delta[:4] == [0] * 4
    assert delta[4] == c4_bar / d**4
    assert delta[5] == 4 * c4_bar / d**5
    assert delta[6] == 2 * d6_coefficient(c4_bar, report.c6_bar, report.theta_bar, d)


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
    assert summary.d6 > 0


def test_lattice_report_d10(certified):
    summary = _summary(certified, 10, Fraction(5, 2))
    assert summary.census.c4_bar == Fraction(9, 4)
    assert summary.census.theta_bar == 6
    assert summary.ratio == Fraction(8, 3)
    assert summary.d6 == Fraction(-3, 4_000_000)
    assert summary.d6 < 0
    data = summary.to_json_dict()
    assert data["sign"] == "negative"
    assert data["ratio_exceeds_kappa"] is True


def test_lattice_summary_stores_its_census():
    """A summary stores d, s, its census and kappa, and derives the rest."""
    assert LatticeSummary._fields == ("d", "s", "census", "kappa")
    census = CensusReport(45 << 8, 45 << 8, 0, 120 << 8, 20 << 8, "per-cube")
    summary = LatticeSummary(10, 8, census, Fraction(5, 2))
    assert (summary.census.c4_bar, summary.census.c6_bar, summary.census.theta_bar) == (Fraction(9, 4), 0, 6)
    assert (summary.ratio, summary.d6, summary.sign) == (Fraction(8, 3), Fraction(-3, 4_000_000), "negative")


def test_ratio_equals_degree_formula_for_certified(certified):
    """The report of the certified lattice of every degree 5..40, verified
    on both routes (census+dfs up to d = 20, census-only above), has the
    central-copy closed forms, and its order-6 coefficient is negative
    exactly from d = 10 on."""
    for d in range(5, 41):
        summary = _summary(certified, d)
        assert summary.census.c4_bar == Fraction(d - 1, 4)
        assert summary.census.theta_bar == Fraction((d - 1) * (d - 2), 12)
        assert summary.census.c6_bar == 0
        assert summary.ratio == Fraction(d - 2, 3)
        assert summary.d6 == -Fraction((d - 1) * (2 * d - 19), 12 * d**6)
        assert (summary.d6 < 0) == (d >= 10)


def test_summary_table_layout(certified):
    text = summary_table(_summary(certified, 5))
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["d", "s", "c4_bar", "c6_bar", "theta_bar", "ratio", "d6", "sign"]
    assert "positive" in lines[1]


_GOLDEN = {
    (5, None): (
        "d  s  c4_bar  c6_bar  theta_bar  ratio       d6      sign\n"
        "5  6       1       0          1      1  3/15625  positive",
        {"d": 5, "s": 6, "c4_bar": "1/1", "c6_bar": "0/1", "theta_bar": "1/1", "ratio": "1/1",
         "d6": "3/15625", "sign": "positive"},
    ),
    (10, None): (
        " d  s  c4_bar  c6_bar  theta_bar  ratio          d6      sign\n"
        "10  8     9/4       0          6    8/3  -3/4000000  negative",
        {"d": 10, "s": 8, "c4_bar": "9/4", "c6_bar": "0/1", "theta_bar": "6/1", "ratio": "8/3",
         "d6": "-3/4000000", "sign": "negative"},
    ),
    (10, Fraction(5, 2)): (
        " d  s  c4_bar  c6_bar  theta_bar  ratio          d6      sign\n"
        "10  8     9/4       0          6    8/3  -3/4000000  negative",
        {"d": 10, "s": 8, "c4_bar": "9/4", "c6_bar": "0/1", "theta_bar": "6/1", "ratio": "8/3",
         "d6": "-3/4000000", "sign": "negative", "kappa": "5/2", "ratio_exceeds_kappa": True},
    ),
}


@pytest.mark.parametrize("d, kappa", list(_GOLDEN), ids=["d5", "d10", "d10-kappa"])
def test_summary_table_and_json_are_pinned(certified, d, kappa):
    """The exact table text and JSON record of the certified d = 5 and
    d = 10 summaries, with and without a kappa target."""
    summary = _summary(certified, d, kappa)
    table, record = _GOLDEN[d, kappa]
    assert summary_table(summary) == table
    assert summary.to_json_dict() == record
    assert list(summary.to_json_dict()) == list(record)
