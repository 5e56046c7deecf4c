import dataclasses
import importlib
import itertools
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _constraint_cycles_reference,
    _cycle_mask,
    _recheck_constraints_dfs_reference,
    _search_signings_reference,
    constraint_set,
    mask_ints,
    random_bits_voltage,
)
from thetalattice.census import voltage_census
from thetalattice.certify import (
    EXPLICIT_LIMIT,
    _bch_columns,
    bits_from_stages,
    certify,
    constraint_count_formula,
    constraint_cycles,
    recheck_constraints_dfs,
    search_signings,
    verification_route,
    verify_certificate,
)
from thetalattice.errors import BudgetExhausted
from thetalattice.graphs import Role
from thetalattice.voltage import (
    LiftCertificate,
    VoltageAssignment,
    build_base_graph,
    derived_cover,
    make_bits,
    max_connected_stages,
)

census_module = importlib.import_module("thetalattice.census")
certify_module = importlib.import_module("thetalattice.certify")
PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned"


def _ids(base):
    return base.graph.label_index()


# ---------------------------------------------------------------------------
# constraint enumeration

@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_constraint_count_matches_formula(d):
    base, volt = build_base_graph(d)
    cons = constraint_cycles(base, volt)
    assert len(cons) == constraint_count_formula(d)


def test_constraint_count_values():
    # frozen from the closed form, cross-checked by enumeration above
    assert constraint_count_formula(5) == 330
    assert constraint_count_formula(10) == 74340
    assert constraint_count_formula(33) == 176022960


def test_constraints_d5_membership():
    """Checked by mask multiplicity.  Central edges are zero in a mask, so
    the mask of the stray 4-cycle vx-c2-t-c3 is also that of vx-c2-b-c3 and
    of the six 6-cycles vx-c2-h-ck-h'-c3 through both hubs (k in 1, 4, 5, two
    hub orders).  The displacement cycle c1-vx-c2-t is out, and no mask is
    zero, so no central cycle is in."""
    base, volt = build_base_graph(5)
    ids = _ids(base)
    vx, c1, c2, c3, t = (
        ids[(Role(*role), "", (0, 0, 0))] for role in (("vx",), ("c", 1), ("c", 2), ("c", 3), ("t",))
    )
    nc_index = {e: j for j, e in enumerate(base.noncentral_edges)}
    masks = Counter(mask_ints(constraint_cycles(base, volt)))
    assert masks[_cycle_mask((vx, c2, t, c3), nc_index)] == 8
    assert masks[_cycle_mask((c1, vx, c2, t), nc_index)] == 0
    assert masks[0] == 0


def _mask_rows(cons):
    """The mask rows of a ConstraintSet, sorted, with multiplicity."""
    return sorted(map(tuple, cons.masks.tolist()))


def _assert_matches_reference(base, volt):
    cons = constraint_cycles(base, volt)
    reference = _constraint_cycles_reference(base, volt)
    assert cons.masks.any(axis=1).all()
    assert _mask_rows(cons) == _mask_rows(
        constraint_set([c.mask for c in reference], base.noncentral_edges)
    )


@pytest.mark.parametrize("d", [5, 6, 7, 8, 9, 10])
def test_constraint_cycles_match_reference(d):
    """The array enumeration finds the masks the one-cycle-at-a-time loops
    find, each as often; d = 10 has 80 non-central edges, two mask words."""
    _assert_matches_reference(*build_base_graph(d))


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=5, max_value=9), st.integers(min_value=0, max_value=10**6))
def test_constraint_cycles_match_reference_unit_displacements(d, seed):
    """Every non-central edge a random unit step in {-1,0,1}^3, so 6-cycle
    sums reach the +-6 the displacement codes must keep apart."""
    rng = random.Random(seed)
    base, volt0 = build_base_graph(d)
    steps = {e: tuple(rng.choice((-1, 0, 1)) for _ in range(3)) for e in base.noncentral_edges}
    _assert_matches_reference(base, VoltageAssignment(0, steps, {}))


# ---------------------------------------------------------------------------
# signing search

def test_search_empty_constraints():
    cons = constraint_set([], build_base_graph(5)[0].noncentral_edges)
    assert search_signings(cons, seed=1) == []


def test_search_single_constraint():
    base, _ = build_base_graph(5)
    cons = constraint_set([0b101], base.noncentral_edges)
    stages = search_signings(cons, seed=1)
    assert len(stages) == 1
    assert (stages[0] & 0b101).bit_count() & 1


def test_search_d5_greedy_certifies(certified):
    cert, base, volt, _ = certified(5)
    assert cert.s <= 40
    assert cert.flags.all_true


def test_search_budget_exhausted():
    base, volt = build_base_graph(5)
    cons = constraint_cycles(base, volt)
    with pytest.raises(BudgetExhausted) as exc:
        search_signings(cons, max_s=3, seed=1)
    assert exc.value.uncovered > 0


def test_search_deterministic():
    base, volt = build_base_graph(5)
    cons = constraint_cycles(base, volt)
    a = search_signings(cons, policy="greedy", seed=9)
    b = search_signings(cons, policy="greedy", seed=9)
    assert a == b
    c = search_signings(cons, policy="random", seed=9)
    d_ = search_signings(cons, policy="random", seed=9)
    assert c == d_


def test_random_policy_covers():
    base, volt = build_base_graph(5)
    cons = constraint_cycles(base, volt)
    stages = search_signings(cons, policy="random", max_s=40, seed=4)
    for mask in mask_ints(cons):
        assert any((s & mask).bit_count() & 1 for s in stages)


def test_search_rejects_bad_args():
    cons = constraint_set([], build_base_graph(5)[0].noncentral_edges)
    with pytest.raises(ValueError):
        search_signings(cons, max_s=0)
    with pytest.raises(ValueError):
        search_signings(cons, policy="exhaustive")
    for pool_size in (0, -1):
        with pytest.raises(ValueError, match="pool_size must be >= 1"):
            search_signings(cons, pool_size=pool_size)


def _search_outcome(search, cons, **kwargs):
    try:
        return search(cons, **kwargs)
    except BudgetExhausted as exc:
        return ("budget exhausted", str(exc), exc.uncovered)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=5, max_value=7),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 64]),
    st.sampled_from(["greedy", "random"]),
    st.integers(min_value=1, max_value=12),
)
def test_search_signings_match_reference(d, seed, pool_size, policy, max_s):
    """Same stages from the same seeded stream as the one-mask-at-a-time
    scorer, or the same BudgetExhausted with the same uncovered count."""
    base, volt = build_base_graph(d)
    cons = constraint_cycles(base, volt)
    kwargs = dict(policy=policy, max_s=max_s, seed=seed, pool_size=pool_size)
    assert _search_outcome(search_signings, cons, **kwargs) == _search_outcome(
        _search_signings_reference, cons, **kwargs
    )


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 63, 64, 65, 80, 150]),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1, 2, 64]),
)
@example(width=150, n=4500, seed=1, pool_size=64)  # three words, three scoring blocks
def test_search_signings_match_reference_across_words(width, n, seed, pool_size):
    """Random nonzero masks at widths on both sides of the 64-bit word
    boundaries, up to more rows than one scoring block."""
    rng = random.Random(seed)
    masks = [rng.getrandbits(width) or 1 for _ in range(n)]
    edges = tuple((0, j) for j in range(width))
    cons = constraint_set(masks, edges)
    assert mask_ints(cons) == masks
    kwargs = dict(max_s=40, seed=seed, pool_size=pool_size)
    assert _search_outcome(search_signings, cons, **kwargs) == _search_outcome(
        _search_signings_reference, cons, **kwargs
    )


# ---------------------------------------------------------------------------
# verification

def test_verify_all_zero_bits_fails():
    base, volt0 = build_base_graph(5)
    cert = verify_certificate(base, volt0.with_bits(1, {}), seed=0)
    assert not cert.flags.no_zero_voltage_hexes
    assert not cert.flags.no_zero_voltage_stray4s
    assert not cert.flags.voltage_group_generated


def test_verify_certified_d5_passes(certified):
    cert, base, volt, _ = certified(5)
    fresh = verify_certificate(base, volt, seed=cert.seed)
    assert fresh.flags.all_true
    assert fresh == cert


def test_verify_tampered_stage_fails(certified):
    cert, base, volt, _ = certified(5)
    stages = []
    for i in range(volt.s):
        mask = 0
        for j, e in enumerate(base.noncentral_edges):
            if (volt.level_bits.get(e, 0) >> i) & 1:
                mask |= 1 << j
        stages.append(mask)
    stages[0] = 0  # zero one signing
    tampered = bits_from_stages(base, stages)
    fresh = verify_certificate(base, tampered, seed=cert.seed)
    assert not fresh.flags.all_true


def test_verify_detects_formula_mismatch_via_stray(certified):
    """Stray-free lattices must show exactly the central copy counts."""
    cert, base, volt, _ = certified(6)
    report = voltage_census(base, volt)
    assert report.c4_central == (1 << cert.s) * 15
    assert report.theta222 == (1 << cert.s) * 20


def test_recheck_dfs_matches_formula():
    base, volt0 = build_base_graph(5)
    volt = random_bits_voltage(base, volt0, 2, seed=3)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert n_cons == 330
    vc = voltage_census(base, volt)
    assert vc.c4_stray == (1 << 2) * bad4
    assert vc.c6 == (1 << 2) * bad6


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=5, max_value=8),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_recheck_dfs_matches_enumeration_unit_displacements(d, s, seed):
    """With a random unit step on every non-central edge (the canonical
    voltages never use one axis twice in a cycle, so they cannot tell a
    step's sign), the DFS finds the constraints the enumeration finds, and
    the uncovered ones the census counts."""
    rng = random.Random(seed)
    base, volt0 = build_base_graph(d)
    bits = random_bits_voltage(base, volt0, s, seed).level_bits
    steps = {e: tuple(rng.choice((-1, 0, 1)) for _ in range(3)) for e in base.noncentral_edges}
    volt = VoltageAssignment(s, steps, bits)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert n_cons == len(constraint_cycles(base, volt))
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> s, vc.c6 >> s) == (bad4, bad6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_recheck_dfs_matches_cycle_list_reference(data):
    """The voltage-carrying DFS counts what walking every cycle of the
    _short_cycles list finds, on random level bits carried by a random share
    of the non-central edges, half the time with a random unit step on every
    non-central edge."""
    d = data.draw(st.integers(min_value=5, max_value=10), label="d")
    s = data.draw(st.integers(min_value=0, max_value=max_connected_stages(d)), label="s")
    share = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="share")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6), label="seed"))
    base, volt0 = build_base_graph(d)
    bits = {e: rng.getrandbits(s) for e in base.noncentral_edges if rng.random() < share}
    volt = volt0.with_bits(s, make_bits(base, s, bits))
    if data.draw(st.booleans(), label="unit steps"):
        steps = {e: tuple(rng.choice((-1, 0, 1)) for _ in range(3)) for e in base.noncentral_edges}
        volt = VoltageAssignment(s, steps, volt.level_bits)
    assert recheck_constraints_dfs(base, volt) == _recheck_constraints_dfs_reference(base, volt)


@pytest.mark.parametrize("d", [5, 10])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_recheck_dfs_truncated_pinned_certificates(d, stages):
    """The pinned certificates cut to their first stages leave uncovered 4-
    and 6-cycles, and the DFS, the cycle-list reference and the census count
    the same ones."""
    cert = LiftCertificate.from_json((PINNED / f"cert_d{d}_seed1.json").read_text())
    base, _ = build_base_graph(d)
    volt = cert.to_voltage(base).truncate(stages)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert (n_cons, bad4, bad6) == _recheck_constraints_dfs_reference(base, volt)
    assert n_cons == constraint_count_formula(d)
    assert bad4 > 0 and bad6 > 0
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> stages, vc.c6 >> stages) == (bad4, bad6)


def test_recheck_dfs_builds_no_cycle_list(monkeypatch):
    """The DFS counts as it goes and never asks for the list of cycles."""

    def no_list(g):
        raise AssertionError("recheck_constraints_dfs called census._short_cycles")

    monkeypatch.setattr(census_module, "_short_cycles", no_list)
    base, volt0 = build_base_graph(6)
    volt = random_bits_voltage(base, volt0, 2, seed=5)
    assert recheck_constraints_dfs(base, volt)[0] == constraint_count_formula(6)


def test_recheck_dfs_rejects_non_unit_displacement():
    base, volt0 = build_base_graph(5)
    e = base.noncentral_edges[0]
    volt = VoltageAssignment(0, {**volt0.displacement, e: (2, 0, 0)}, {})
    with pytest.raises(ValueError, match="non-unit displacement"):
        recheck_constraints_dfs(base, volt)


def test_coverage_semantics_cycle_by_cycle():
    """A constraint cycle survives into the explicit torus at the same length
    iff its bit total is zero (all stage overlaps even)."""
    d, s, n = 5, 2, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=17)
    torus = derived_cover(base, volt, n)
    tor_ids = torus.label_index()
    base_labels = base.graph.labels

    def lift_closes(seq):
        # walk the cycle from (v0, cell 0, level 0), accumulating voltage
        cell = (0, 0, 0)
        level = 0
        for i, u in enumerate(seq):
            v = seq[(i + 1) % len(seq)]
            t = volt.disp(u, v)
            cell = tuple((cell[k] + t[k]) % n for k in range(3))
            level ^= volt.bits(u, v)
        return cell == (0, 0, 0) and level == 0

    def torus_has_lift(seq):
        cell = (0, 0, 0)
        level = 0
        ids_on_walk = []
        for i, u in enumerate(seq):
            lab = base_labels[u]
            lvl = format(level, f"0{s}b")[::-1]
            ids_on_walk.append(tor_ids[(lab.role, lvl, cell)])
            v = seq[(i + 1) % len(seq)]
            t = volt.disp(u, v)
            cell = tuple((cell[k] + t[k]) % n for k in range(3))
            level ^= volt.bits(u, v)
        closed = cell == (0, 0, 0) and level == 0
        if not closed:
            return False
        k = len(seq)
        return all(
            torus.has_edge(ids_on_walk[i], ids_on_walk[(i + 1) % k]) for i in range(k)
        ) and len(set(ids_on_walk)) == k

    for c in _constraint_cycles_reference(base, volt0):
        total = 0
        for i, u in enumerate(c.vertices):
            total ^= volt.bits(u, c.vertices[(i + 1) % len(c.vertices)])
        survives = total == 0
        assert lift_closes(c.vertices) == survives
        assert torus_has_lift(c.vertices) == survives


def test_central_cycles_always_survive():
    d, s, n = 5, 2, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=29)
    torus = derived_cover(base, volt, n)
    from thetalattice.census import classify_c4

    central, _ = classify_c4(torus)
    assert central == n**3 * (1 << s) * d * (d - 1) // 2


# ---------------------------------------------------------------------------
# end-to-end certify

def test_certify_deterministic():
    a, _, _ = certify(5, seed=42)
    b, _, _ = certify(5, seed=42)
    assert a == b
    assert a.to_json() == b.to_json()


def test_certify_reports_constraint_count(certified):
    cert, _, _, _ = certified(10)
    assert cert.constraint_count == 74340


def test_certify_budget_exhausted():
    with pytest.raises(BudgetExhausted):
        certify(5, max_s=3, seed=1)


def test_bch_route_budget_reports_uncovered_cycles(monkeypatch):
    """When the BCH route's 3m stages exceed max_s or the connectivity
    ceiling, BudgetExhausted comes before the base graph is built, and no
    constraint is covered: uncovered is the closed-form count."""

    def no_build(d):
        raise AssertionError("certify built the base graph")

    monkeypatch.setattr(certify_module, "build_base_graph", no_build)
    # 3m = 18 > max_s = 17; 12 > max_connected_stages(5) = 9; 51 > 40
    for d, max_s in [(8, 17), (5, 40), (303, 40)]:
        with pytest.raises(BudgetExhausted, match=f"d={d} needs s=") as exc:
            certify(d, max_s=max_s, explicit_limit=0)
        assert exc.value.uncovered == constraint_count_formula(d)


def test_verification_route():
    assert verification_route(12) == "census+dfs"
    assert verification_route(13) == "census-only"


def test_certify_bch_route_small_limit():
    """Force the census-verified BCH route on a small degree."""
    cert, base, volt = certify(6, seed=2, explicit_limit=100)
    assert cert.flags.all_true
    assert cert.s == 15
    assert cert.constraint_count == constraint_count_formula(6)
    # independent explicit recheck of the BCH-route result
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert (n_cons, bad4, bad6) == (constraint_count_formula(6), 0, 0)


def test_certified_s_matches_stage_count(certified):
    for d in (5, 6):
        cert, base, volt, _ = certified(d)
        assert cert.s == volt.s == len(cert.stage_bits)


@pytest.mark.parametrize("d, s", [(13, 24), (14, 24), (16, 24), (17, 24), (20, 27), (33, 30)])
def test_certify_routes_bch_above_limit(d, s):
    """Past the explicit-constraint limit certify takes the BCH route: s = 3m
    with 2^m - 1 >= d^2 - 2d, verified by the census alone."""
    cert, base, volt = certify(d)
    assert cert.flags.all_true
    assert cert.constraint_count == constraint_count_formula(d) > EXPLICIT_LIMIT
    assert cert.s == s == 3 * (d * d - 2 * d).bit_length() <= max_connected_stages(d)


@pytest.mark.parametrize("d", [13, 33])
def test_bch_certificate_ignores_seed(d):
    a, _, _ = certify(d, seed=1)
    b, _, _ = certify(d, seed=2)
    assert a.seed == 1 and b.seed == 2
    assert dataclasses.replace(a, seed=2) == b


@pytest.mark.parametrize("m", [4, 5])
def test_bch_columns_have_distance_7(m):
    """Brute force over all 2^m - 1 columns: every set of 1 to 6 distinct
    columns XORs to nonzero."""
    n = (1 << m) - 1
    columns = np.array(_bch_columns(m, n), dtype=np.int64)
    assert len(set(columns.tolist())) == n and columns.max() < 1 << 3 * m
    for k in range(1, 7):
        subsets = np.fromiter(itertools.combinations(range(n), k), dtype=np.dtype((np.int8, k)))
        assert np.bitwise_xor.reduce(columns[subsets], axis=1).all(), k


@pytest.mark.parametrize("d", range(6, 17))
def test_bch_voltage_passes_dfs_recheck(d):
    """The DFS finds every constraint covered by the BCH stages; for d >= 13
    it is a second route beside the census that certify ran."""
    cert, base, volt = certify(d, explicit_limit=0 if d <= 12 else EXPLICIT_LIMIT)
    assert cert.s == 3 * (d * d - 2 * d).bit_length()
    assert recheck_constraints_dfs(base, volt) == (constraint_count_formula(d), 0, 0)


def test_three_verification_routes_agree():
    """Per-cycle DFS violations, the aggregated census, and the explicit
    torus tell one story for uncovered constraints at small s."""
    d, s, n = 5, 3, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=41)
    _, bad4, bad6 = recheck_constraints_dfs(base, volt)
    vc = voltage_census(base, volt)
    assert vc.c4_stray == (1 << s) * bad4
    assert vc.c6 == (1 << s) * bad6
    torus = derived_cover(base, volt, n)
    from thetalattice.census import census

    ec = census(torus)
    assert ec.c4_stray == n**3 * (1 << s) * bad4
    assert ec.c6 == n**3 * (1 << s) * bad6
