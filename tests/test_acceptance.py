"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every assertion is an exact identity (integers or rationals) or a structural
property; the only tolerances are wall-clock budgets, asserted as stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import json
import random
import time
from fractions import Fraction

from conftest import brute_force_census, labeled_k2d, random_bipartite_graph, random_bits_voltage, validate
from thetalattice.census import census, voltage_census
from thetalattice.certify import verification_route, verify_certificate, wenger_voltage
from thetalattice.embed import check_embedding_properties, find_good_try, is_good_try
from thetalattice.cli import main
from thetalattice.entropy import min_degree_for_kappa
from thetalattice.voltage import (
    build_base_graph,
    derived_cover,
    voltage_group_generated,
)


def report(number, title, ok, detail=""):
    line = f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print("\n" + line)
    assert ok, line


def test_criterion_1_central_count_formulas():
    t0 = time.perf_counter()
    ok = True
    for d in range(5, 10):
        rep = brute_force_census(labeled_k2d(d))
        ok = ok and rep.c4_total == d * (d - 1) // 2
        ok = ok and rep.theta222 == d * (d - 1) * (d - 2) // 6
        ok = ok and rep.c6 == 0
    elapsed = time.perf_counter() - t0
    report(1, "central-count formulas", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_2_census_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    ok = True
    for i in range(100):
        n = rng.randint(4, 12)
        g = random_bipartite_graph(rng, n, rng.choice([0.4, 0.6, 0.8, 1.0]))
        rep, want = census(g), brute_force_census(g)
        ok = ok and rep.c4_total == want.c4_total
        ok = ok and rep.c6 == want.c6
        ok = ok and rep.theta222 == want.theta222
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(2, "census oracle equivalence", ok and elapsed < 30.0, f"100 graphs, {elapsed:.1f}s")


def test_criterion_3_voltage_census_soundness():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for d in (5, 6):
        for s in (1, 2, 3):
            for trial in range(10):
                base, volt0 = build_base_graph(d)
                volt = random_bits_voltage(base, volt0, s, seed=100 * d + 10 * s + trial)
                vc = voltage_census(base, volt)
                for n in (2, 3):
                    torus = derived_cover(base, volt, n)
                    ec = census(torus)
                    n3 = n**3
                    ok = ok and ec.c4_total == n3 * vc.c4_total
                    ok = ok and ec.c4_central == n3 * vc.c4_central
                    ok = ok and ec.c4_stray == n3 * vc.c4_stray
                    ok = ok and ec.c6 == n3 * vc.c6
                    ok = ok and ec.theta222 == n3 * vc.theta222
                    checked += 1
                if not ok:
                    break
    elapsed = time.perf_counter() - t0
    report(
        3,
        "voltage census equals torus census",
        ok and elapsed < 120.0,
        f"{checked} comparisons, {elapsed:.1f}s",
    )


def test_criterion_4_certification(certified):
    ok = True
    details = []
    for d in (5, 10):
        cert, base, volt, elapsed = certified(d)
        ok = ok and cert.flags.all_true and cert.s <= 40 and elapsed < 300.0
        # independent re-verification (DFS constraint re-enumeration + census)
        ok = ok and verification_route(d) == "census+dfs"
        fresh = verify_certificate(base, volt, seed=cert.seed)
        ok = ok and fresh.flags.all_true and fresh == cert
        details.append(f"d={d}: s={cert.s}, {elapsed:.1f}s")
    report(4, "certification d=5 and d=10", ok, "; ".join(details))


def _report_json(cert, tmp_path, kappa=None):
    """The JSON that `report -o` writes for a certificate, with --kappa if
    kappa is given; report must exit 0."""
    path, out = tmp_path / f"cert_d{cert.d}.json", tmp_path / f"report_d{cert.d}.json"
    path.write_text(cert.to_json())
    argv = ["report", str(path), "-o", str(out)]
    if kappa is not None:
        argv += ["--kappa", str(kappa)]
    assert main(argv) == 0
    return {key: Fraction(value) if key in ("ratio", "d6", "c6_bar") else value
            for key, value in json.loads(out.read_text()).items()}


def test_criterion_5_counterexample_reproduction(certified, tmp_path):
    ok = True
    details = []
    for d in range(5, 11):
        cert, _, _, _ = certified(d)
        summary = _report_json(cert, tmp_path)
        expected = Fraction((d - 1) * (19 - 2 * d), 12 * d**6)
        ok = ok and summary["d6"] == expected
        ok = ok and (summary["d6"] < 0) == (d >= 10)
        if d == 10:
            ok = ok and summary["ratio"] == Fraction(8, 3) > Fraction(5, 2)
            ok = ok and summary["d6"] == Fraction(-3, 4_000_000)
            details.append(f"d=10: ratio={summary['ratio']}, d6={summary['d6']}")
    report(5, "order-6 coefficient sign flip at d=10", ok, "; ".join(details))


def test_criterion_6_kappa_targeting(certified, tmp_path):
    targets = {"9/10": 5, "1": 6, "5/2": 10, "10": 33}
    ok = True
    details = []
    for kappa_text, expected_d in targets.items():
        kappa = Fraction(kappa_text)
        d = min_degree_for_kappa(kappa)
        ok = ok and d == expected_d
        cert, base, volt, elapsed = certified(d)
        if d == 33 and elapsed > 900.0:
            report(6, "kappa targeting", False, f"kappa=10 case exceeded 15 min ({elapsed:.0f}s)")
            return
        summary = _report_json(cert, tmp_path, kappa)
        ok = ok and summary["ratio"] > kappa
        ok = ok and summary["c6_bar"] == 0
        ok = ok and summary["ratio_exceeds_kappa"] is True
        details.append(f"k={kappa}: d={d}, ratio={summary['ratio']}, {elapsed:.1f}s")
    report(6, "kappa targeting", ok, "; ".join(details))


def test_criterion_7_embedding(certified):
    t0 = time.perf_counter()
    cert, base, volt, _ = certified(5)
    truncated = volt.truncate(4)
    fug = derived_cover(base, truncated)
    t, attempts = find_good_try(fug, seed=3, max_attempts=1000)
    ok = attempts <= 1000
    ok = ok and is_good_try(t, fug)
    props = check_embedding_properties(t, fug)
    ok = ok and all(props.values())
    elapsed = time.perf_counter() - t0
    report(
        7,
        "embedding with exact verification",
        ok and elapsed < 120.0,
        f"s={truncated.s}, {fug.vertex_count} vertices, attempt {attempts}, {elapsed:.1f}s",
    )


def test_criterion_8_structural_invariants(certified):
    ok = True
    for d in (5, 6):
        for s in (0, 2):
            for n in (2, 3):
                base, volt0 = build_base_graph(d)
                volt = random_bits_voltage(base, volt0, s, seed=d + s + n) if s else volt0
                torus = derived_cover(base, volt, n)
                rep = validate(torus, expect_regular=d)
                ok = ok and rep.passed and rep.bipartite and rep.simple
    for d in (5, 6, 10):
        cert, base, volt, _ = certified(d)
        ok = ok and cert.flags.voltage_group_generated
        ok = ok and voltage_group_generated(base, volt)
    report(8, "structural invariants", ok)


def test_criterion_9_full_s_explicit_census(time_limit):
    """The explicit census of the n = 2 torus of the whole Wenger voltage
    (s = 6 up to d = 8, s = 8 at d = 9 and 10, up to 40,960 vertices) equals
    8 x the voltage census on every count, within a 10 s budget."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for d in range(5, 11):
        base, _ = build_base_graph(d)
        volt = wenger_voltage(base)
        per_cube = voltage_census(base, volt)
        torus = derived_cover(base, volt, 2)
        explicit = census(torus)
        for key in ("c4_total", "c4_central", "c4_stray", "c6", "theta222"):
            ok = ok and getattr(explicit, key) == 8 * getattr(per_cube, key)
        details.append(f"d={d}: s={volt.s}, {torus.vertex_count} vertices")
    elapsed = time.perf_counter() - t0
    report(
        9,
        "full-s torus census equals 8 x voltage census",
        ok and elapsed < 10.0,
        f"{'; '.join(details)}; {elapsed:.1f}s",
    )
