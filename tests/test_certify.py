import dataclasses
import importlib
import inspect
import itertools
import json
import random
import tracemalloc
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
    base_blacks,
    base_hubs,
    base_roles,
    base_whites,
    bch_columns,
    bch_voltage,
    edge_bits,
    edge_disp,
    label_index,
    noncentral_edges,
    random_bits_voltage,
    vertex_labels,
)
from thetalattice.census import census, voltage_census
from thetalattice.certify import (
    DFS_LIMIT,
    certify,
    constraint_count_formula,
    recheck_constraints_dfs,
    verification_route,
    verify_certificate,
    wenger_voltage,
)
from thetalattice.graphs import Role
from thetalattice.voltage import (
    LiftCertificate,
    build_base_graph,
    derived_cover,
    max_connected_stages,
)

census_module = importlib.import_module("thetalattice.census")
certify_module = importlib.import_module("thetalattice.certify")
PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned"


def _ids(base):
    return label_index(base.graph)


# ---------------------------------------------------------------------------
# constraint enumeration

@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_constraint_count_matches_formula(d):
    """The one-cycle-at-a-time enumeration finds as many constraints as the
    closed form counts."""
    base, volt = build_base_graph(d)
    assert len(_constraint_cycles_reference(base, volt)) == constraint_count_formula(d)


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
    nc_index = {e: j for j, e in enumerate(noncentral_edges(base))}
    masks = Counter(c.mask for c in _constraint_cycles_reference(base, volt))
    assert masks[_cycle_mask((vx, c2, t, c3), nc_index)] == 8
    assert masks[_cycle_mask((c1, vx, c2, t), nc_index)] == 0
    assert masks[0] == 0


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
    # zero one signing: clear stage 0 on every edge
    cleared = {e: m & ~1 for e, m in volt.level_bits.items()}
    tampered = volt.with_bits(volt.s, cleared)
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
def test_recheck_dfs_matches_enumeration(d, s, seed):
    """The DFS finds the constraints the enumeration finds, and the
    uncovered ones the census counts."""
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert n_cons == len(_constraint_cycles_reference(base, volt))
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> s, vc.c6 >> s) == (bad4, bad6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_recheck_dfs_matches_cycle_list_reference(data):
    """The voltage-carrying DFS counts what walking every cycle of the
    _short_cycles list finds, on random level bits carried by a random share
    of the non-central edges."""
    d = data.draw(st.integers(min_value=5, max_value=10), label="d")
    s = data.draw(st.integers(min_value=0, max_value=max_connected_stages(d)), label="s")
    share = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="share")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6), label="seed"))
    base, volt0 = build_base_graph(d)
    bits = {e: rng.getrandbits(s) for e in noncentral_edges(base) if rng.random() < share}
    volt = volt0.with_bits(s, bits)
    assert recheck_constraints_dfs(base, volt) == _recheck_constraints_dfs_reference(base, volt)


@pytest.mark.parametrize("d", [5, 10])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_recheck_dfs_truncated_pinned_certificates(d, stages):
    """The pinned certificates cut to their first stages leave uncovered 4-
    and 6-cycles, and the DFS, the cycle-list reference and the census count
    the same ones."""
    cert = LiftCertificate.from_json((PINNED / f"cert_d{d}_seed1.json").read_text())
    base, _ = build_base_graph(d)
    volt = cert.volt.truncate(stages)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert (n_cons, bad4, bad6) == _recheck_constraints_dfs_reference(base, volt)
    assert n_cons == constraint_count_formula(d)
    assert bad4 > 0 and bad6 > 0
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> stages, vc.c6 >> stages) == (bad4, bad6)


@pytest.mark.parametrize("d", [16, 20])
@pytest.mark.parametrize("stages", [1, 2, 3])
def test_recheck_dfs_truncated_wenger_voltage_at_large_d(d, stages):
    """Beyond the reach of the cycle-list reference, the Wenger voltage cut
    to its first stages leaves uncovered cycles, and the re-check counts as
    many as the census, with the closed-form constraint count."""
    base, _ = build_base_graph(d)
    volt = wenger_voltage(base).truncate(stages)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert n_cons == constraint_count_formula(d)
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> stages, vc.c6 >> stages) == (bad4, bad6)
    assert bad4 > 0 or bad6 > 0


def test_recheck_dfs_builds_no_cycle_list(monkeypatch):
    """The DFS counts as it goes and never calls any function of the census
    module: it stays an independent route."""

    helpers = [
        name
        for name, f in vars(census_module).items()
        if inspect.isfunction(f) and f.__module__ == census_module.__name__
    ]
    assert {"census", "voltage_census", "_edge_keys", "_run_totals"} <= set(helpers)
    for name in helpers:

        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"recheck_constraints_dfs called census.{name}")

        monkeypatch.setattr(census_module, name, refuse)
    base, volt0 = build_base_graph(6)
    volt = random_bits_voltage(base, volt0, 2, seed=5)
    assert recheck_constraints_dfs(base, volt)[0] == constraint_count_formula(6)


@pytest.mark.parametrize("s", [63, 64, 65, 69])
def test_recheck_dfs_exact_beyond_64_bits(s):
    """Bits stay exact at every width, up to max_connected_stages(10) = 69.
    A fifth of the edges carry random s-bit masks, another fifth only the
    top bit s - 1, the rest only bit 0: cycles whose low word cancels but
    whose top bit does not are covered, and a DFS that kept 64 bits would
    count them uncovered."""
    d = 10
    rng = random.Random(s)
    base, volt0 = build_base_graph(d)
    assert s <= max_connected_stages(d)
    bits = {}
    for e in noncentral_edges(base):
        kind = rng.random()
        if kind < 0.2:
            bits[e] = rng.getrandbits(s)
        else:
            bits[e] = 1 << s - 1 if kind < 0.4 else rng.getrandbits(1)
    volt = volt0.with_bits(s, bits)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    assert (n_cons, bad4, bad6) == _recheck_constraints_dfs_reference(base, volt)
    assert n_cons == constraint_count_formula(d)
    assert bad4 > 0 and bad6 > 0
    vc = voltage_census(base, volt)
    assert (vc.c4_stray >> s, vc.c6 >> s) == (bad4, bad6)


@pytest.fixture(scope="module")
def block_cases():
    """(base, voltage, reference counts): random bits of 1 to 3 stages at
    d = 5..8, and at d = 10 one bit of s = 65, in the low word or the high
    one."""
    cases = []
    for d in range(5, 9):
        base, volt0 = build_base_graph(d)
        rng = random.Random(10 * d)
        cases.append((base, random_bits_voltage(base, volt0, rng.randint(1, 3), seed=rng.randrange(10**6))))
    base, volt0 = build_base_graph(10)
    assert max_connected_stages(10) >= 65
    rng = random.Random(65)
    cases.append((base, volt0.with_bits(65, {e: 1 << 64 * rng.getrandbits(1) for e in noncentral_edges(base)})))
    cases = [(base, volt, _recheck_constraints_dfs_reference(base, volt)) for base, volt in cases]
    assert all(bad4 > 0 and bad6 > 0 for _, _, (_, bad4, bad6) in cases[-3:])
    return cases


@pytest.mark.parametrize("block", [1, 7, 64, 2**30])
def test_recheck_dfs_block_size_changes_no_count(block_cases, block, monkeypatch):
    """The counts do not depend on how the black pairs and triples are cut
    into blocks: one per block, a few, many, or all in one block."""
    defaults = [recheck_constraints_dfs(base, volt) for base, volt, _ in block_cases]
    monkeypatch.setattr(certify_module, "_PAIR_BLOCK", block)
    for (base, volt, reference), default in zip(block_cases, defaults):
        assert recheck_constraints_dfs(base, volt) == default == reference


def test_recheck_dfs_memory_stays_flat():
    """The compared path pairs are taken in blocks of about _PAIR_BLOCK,
    and no path or cycle is stored, so one call's traced peak stays
    under 4 MiB and barely moves from d = 16 to d = 20, while the
    constraint count grows fourfold."""
    peaks = []
    for d in (16, 20):
        base, _ = build_base_graph(d)
        volt = wenger_voltage(base)
        tracemalloc.start()
        try:
            assert recheck_constraints_dfs(base, volt) == (constraint_count_formula(d), 0, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 4 << 20
    assert peaks[1] < 1.25 * peaks[0]


def test_coverage_semantics_cycle_by_cycle():
    """A constraint cycle survives into the explicit torus at the same length
    iff its bit total is zero (all stage overlaps even)."""
    d, s, n = 5, 2, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=17)
    torus = derived_cover(base, volt, n)
    tor_ids = label_index(torus)
    tor_edges = set(torus.edges)
    base_labels = vertex_labels(base.graph)

    def lift_closes(seq):
        # walk the cycle from (v0, cell 0, level 0), accumulating voltage
        cell = (0, 0, 0)
        level = 0
        for i, u in enumerate(seq):
            v = seq[(i + 1) % len(seq)]
            t = edge_disp(base, u, v)
            cell = tuple((cell[k] + t[k]) % n for k in range(3))
            level ^= edge_bits(volt, u, v)
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
            t = edge_disp(base, u, v)
            cell = tuple((cell[k] + t[k]) % n for k in range(3))
            level ^= edge_bits(volt, u, v)
        closed = cell == (0, 0, 0) and level == 0
        if not closed:
            return False
        k = len(seq)
        return all(
            tuple(sorted((ids_on_walk[i], ids_on_walk[(i + 1) % k]))) in tor_edges for i in range(k)
        ) and len(set(ids_on_walk)) == k

    for c in _constraint_cycles_reference(base, volt0):
        total = 0
        for i, u in enumerate(c.vertices):
            total ^= edge_bits(volt, u, c.vertices[(i + 1) % len(c.vertices)])
        survives = total == 0
        assert lift_closes(c.vertices) == survives
        assert torus_has_lift(c.vertices) == survives


def test_central_cycles_always_survive():
    d, s, n = 5, 2, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=29)
    torus = derived_cover(base, volt, n)
    central = census(torus).c4_central
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


def test_verification_route():
    """The DFS re-check runs up to d = 20, 7,500,060 constraints."""
    assert DFS_LIMIT == constraint_count_formula(20) == 7_500_060
    assert verification_route(20) == "census+dfs"
    assert verification_route(21) == "census-only"


def test_certified_s_matches_stage_count(certified):
    for d in (5, 6):
        cert, base, volt, _ = certified(d)
        assert cert.s == volt.s == len(json.loads(cert.to_json())["level_bits"])


@pytest.mark.parametrize("d", [5, 8, 9, 10, 12, 13, 16, 17, 20, 32, 33])
def test_certify_wenger_stages(d):
    """One route at every degree: s = 2 ceil(log2 d) stages and every flag
    true, decided by census and DFS up to d = 20 and by the census alone
    above.  s steps up after d = 8, 16 and 32."""
    cert, base, volt = certify(d)
    r = (d - 1).bit_length()
    assert 2 ** (r - 1) < d <= 2**r
    assert cert.s == volt.s == 2 * r <= max_connected_stages(d)
    assert cert.flags.all_true
    assert cert.constraint_count == constraint_count_formula(d)
    assert verification_route(d) == ("census+dfs" if d <= 20 else "census-only")


@pytest.mark.parametrize("d", [5, 13, 33])
def test_certify_ignores_seed(d):
    a, _, _ = certify(d, seed=1)
    b, _, _ = certify(d, seed=2)
    assert a.seed == 1 and b.seed == 2
    assert dataclasses.replace(a, seed=2) == b


def _gf_mul(a, b, poly, r):
    """a * b in GF(2^r) = GF(2)[x] / poly: a carry-less product, reduced as
    it grows."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> r:
            a ^= poly
    return out


def _wenger_label(x, y, poly, r):
    return _gf_mul(x, y, poly, r) | _gf_mul(_gf_mul(x, x, poly, r), y, poly, r) << r


# the first primitive polynomials of degrees 3 to 6: x^3 + x + 1,
# x^4 + x + 1, x^5 + x^2 + 1 and x^6 + x + 1
_PRIMITIVE = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


@pytest.mark.parametrize("r", [3, 4])
def test_wenger_labels_cover_every_short_cycle(r):
    """The proof in wenger_voltage's docstring by brute force, with a field
    multiply of its own.  Rows x = 0, 0, 1, ..., q - 1 and columns
    y = 0, ..., q - 1 (q = 2^r), edge (x, y) labelled (x y, x^2 y): this
    K_{q+1,q} holds every base graph that r serves.  Every 4-cycle and every
    6-cycle has a nonzero label sum, except the 4-cycles on the two x = 0
    rows."""
    poly, q = _PRIMITIVE[r], 1 << r
    assert all(any(_gf_mul(x, y, poly, r) == 1 for y in range(1, q)) for x in range(1, q))
    xs = [0, 0, *range(1, q)]
    label = np.array([[_wenger_label(x, y, poly, r) for y in range(q)] for x in xs])
    # path[i, j, a]: the label sum of row i -> column a -> row j
    path = label[:, None, :] ^ label[None, :, :]
    i, j = np.triu_indices(len(xs), 1)
    a, b = np.triu_indices(q, 1)
    four = path[i, j][:, a] ^ path[i, j][:, b]
    hub = (i == 0) & (j == 1)
    assert (four[hub] == 0).all() and four[~hub].all()
    ti, tj, tk = np.array(list(itertools.combinations(range(len(xs)), 3))).T
    six = path[ti, tj][:, :, None, None] ^ path[tj, tk][:, None, :, None] ^ path[tk, ti][:, None, None, :]
    ca, cb, cc = np.indices((q, q, q))
    assert six[:, (ca != cb) & (cb != cc) & (ca != cc)].all()


@pytest.mark.parametrize("d", [5, 8, 9, 16, 17, 33])
def test_wenger_voltage_follows_the_rule(d):
    """The builder's bits are the labels of the rule: x = 0 on the hubs,
    alpha^0, alpha^1, ... on the other whites in order, y = 0, alpha^0, ...
    on the blacks in order, alpha = x a root of the primitive polynomial."""
    base, _ = build_base_graph(d)
    volt = wenger_voltage(base)
    r = (d - 1).bit_length()
    poly = _PRIMITIVE[r]
    powers = [1]
    for _ in range(2**r):
        powers.append(_gf_mul(powers[-1], 2, poly, r))
    whites, blacks = base_whites(base), base_blacks(base)
    others = [w for w in whites if w not in base_hubs(base)]
    x = {w: powers[k] for k, w in enumerate(others)}
    y = {c: 0 if k == 0 else powers[k - 1] for k, c in enumerate(blacks)}
    assert volt.s == 2 * r
    for w in whites:
        for c in blacks:
            assert edge_bits(volt, w, c) == _wenger_label(x.get(w, 0), y[c], poly, r), (w, c)


@pytest.mark.parametrize("d", range(6, 17))
def test_wenger_voltage_passes_dfs_recheck(d):
    """The DFS finds every constraint covered by the Wenger stages; for
    d >= 13 it is a second route beside the census that certify ran."""
    cert, base, volt = certify(d)
    assert cert.s == 2 * (d - 1).bit_length()
    assert recheck_constraints_dfs(base, volt) == (constraint_count_formula(d), 0, 0)


def _stage_lower_bound(d):
    """A Moore-type lower bound on the stage count s of any certificate.

    In the base graph without hub b and without the three displacement
    edges every 4- and 6-cycle is a constraint, so its 2^s-fold cover has
    girth at least 8, and the non-backtracking walks of length at most 3
    from one vertex end at distinct vertices: those of length 0 and 2 in
    its own colour class, those of length 1 and 3 in the other, each of
    side << s vertices for a class of side base vertices.  The walk counts
    come from W_2 = A^2 - D and W_3 = A W_2 - (D - I) A, all in integers."""
    base, _ = build_base_graph(d)
    adj = np.zeros((2 * d, 2 * d), dtype=np.int64)
    c, j = np.nonzero(~base.shifts.any(axis=2))
    adj[c, d + j] = adj[d + j, c] = 1
    roles = base_roles(base)
    keep = np.array([r.tag != "b" for r in roles])
    adj = adj[np.ix_(keep, keep)]
    deg = adj.sum(axis=1)
    w2 = adj @ adj - np.diag(deg)
    w3 = adj @ w2 - (deg - 1)[:, None] * adj
    black = np.array([r.black for r in roles])[keep].tolist()
    side = {True: black.count(True), False: black.count(False)}
    s = 0
    for b, even, odd in zip(black, (1 + w2.sum(axis=1)).tolist(), (deg + w3.sum(axis=1)).tolist()):
        for count, size in ((even, side[b]), (odd, side[not b])):
            s = max(s, (-(-count // size) - 1).bit_length())
    return s


# the lower bound at each degree, as first computed for the ROADMAP table
_S_LOWER_BOUND = {5: 4, 6: 5, 7: 5, 8: 6, 9: 6, 10: 7, 11: 7, 12: 7, 16: 8, 17: 8, 20: 9, 32: 10, 33: 10, 64: 12}


@pytest.mark.parametrize("d", list(_S_LOWER_BOUND))
def test_wenger_stages_within_two_of_the_lower_bound(d):
    """Wenger's s = 2 ceil(log2 d) is at most 2 stages above the bound, and
    meets it at every power of two from 8."""
    bound = _stage_lower_bound(d)
    assert bound == _S_LOWER_BOUND[d]
    gap = wenger_voltage(build_base_graph(d)[0]).s - bound
    assert gap in {0, 1, 2}
    assert (gap == 0) == (d in {8, 16, 32, 64}), gap


@pytest.mark.parametrize("m", [4, 5])
def test_bch_columns_have_distance_7(m):
    """Brute force over all 2^m - 1 columns: every set of 1 to 6 distinct
    columns XORs to nonzero."""
    n = (1 << m) - 1
    columns = np.array(bch_columns(m, n), dtype=np.int64)
    assert len(set(columns.tolist())) == n and columns.max() < 1 << 3 * m
    for k in range(1, 7):
        subsets = np.fromiter(itertools.combinations(range(n), k), dtype=np.dtype((np.int8, k)))
        assert np.bitwise_xor.reduce(columns[subsets], axis=1).all(), k


@pytest.mark.parametrize("d", range(6, 17))
def test_bch_voltage_passes_dfs_recheck(d):
    """A covering voltage that is not a Wenger voltage: the census and the
    DFS both find every constraint covered by the 3m BCH stages."""
    base, volt0 = build_base_graph(d)
    volt = bch_voltage(base, volt0)
    assert volt.s == 3 * (d * d - 2 * d).bit_length()
    assert verify_certificate(base, volt, seed=0).flags.all_true
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
