import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    PERFBENCH,
    Signing,
    VertexLabel,
    _voltage_group_generated_reference,
    base_blacks,
    base_hubs,
    base_roles,
    base_whites,
    canonical_edge_order_reference,
    certificate_to_json_dict,
    central_copies,
    central_edges,
    connected_components,
    degree_histogram,
    derived_cover_reference,
    edge_bits,
    edge_disp,
    from_labeled_vertices,
    label_index,
    name_order,
    name_tag,
    noncentral_edges,
    perfbench_module,
    random_bits_voltage,
    root_unit_graph_reference,
    two_lift,
    validate,
    vertex_labels,
)
from thetalattice.certify import wenger_voltage
from thetalattice.errors import DegreeTooSmall, MalformedGraph, TooLarge, TorusTooSmall
from thetalattice import voltage as voltage_module
from thetalattice.voltage import (
    MAX_STAGES,
    BaseGraph,
    LiftCertificate,
    VoltageAssignment,
    build_base_graph,
    canonical_edge_order,
    CertificateFlags,
    derived_cover,
    make_bits,
    max_connected_stages,
    voltage_group_generated,
)


def test_base_graph_d5_counts():
    base, volt = build_base_graph(5)
    assert base.graph.vertex_count == 10
    assert len(base.graph.edges) == 25
    assert degree_histogram(base.graph) == {5: 10}
    assert validate(base.graph, expect_regular=5).passed


def test_base_graph_d10_counts():
    base, _ = build_base_graph(10)
    assert base.graph.vertex_count == 20
    assert len(base.graph.edges) == 100
    assert degree_histogram(base.graph) == {10: 20}


def test_base_graph_rejects_small_degree():
    with pytest.raises(DegreeTooSmall):
        build_base_graph(4)


def test_base_graph_is_its_degree():
    """BaseGraph(d) alone is the base graph: it refuses d below 5 itself,
    and build_base_graph gives an equal one."""
    with pytest.raises(DegreeTooSmall, match="construction requires d >= 5, got 4"):
        BaseGraph(4)
    for d in (5, 10):
        base = build_base_graph(d)[0]
        assert base == BaseGraph(d) and hash(base) == hash(BaseGraph(d))
        assert base.graph == BaseGraph(d).graph


@pytest.mark.parametrize("d", range(5, 13))
def test_base_graph_layout(d):
    """The layout that the package reads by position, read here from the
    roles: the blacks 0..d-1 are the c roles, the whites d and d + 1 are t
    and b, and the last three whites vx, vy, vz are the only white ends of
    edges with a nonzero shift."""
    base = BaseGraph(d)
    roles = base_roles(base)
    assert base_blacks(base) == tuple(range(d))
    assert {name_tag(r) for r in roles[:d]} == {"c"}
    assert base_whites(base) == tuple(range(d, 2 * d))
    assert base_hubs(base) == (d, d + 1)
    assert roles[-3:] == ("vx", "vy", "vz")
    moved = np.argwhere(base.shifts.any(axis=2))
    assert sorted(moved[:, 1] + d) == [2 * d - 3, 2 * d - 2, 2 * d - 1]


def test_base_graph_displacements():
    base, _ = build_base_graph(5)
    ids = label_index(base.graph)
    vx = ids[("vx", "", (0, 0, 0))]
    for i in range(1, 6):
        ci = ids[(f"c{i}", "", (0, 0, 0))]
        expected = (1, 0, 0) if i == 1 else (0, 0, 0)
        assert edge_disp(base, vx, ci) == expected
        assert edge_disp(base, ci, vx) == tuple(-x for x in expected)
    vy = ids[("vy", "", (0, 0, 0))]
    c1 = ids[("c1", "", (0, 0, 0))]
    assert edge_disp(base, vy, c1) == (0, 1, 0)
    assert base.shifts is base.shifts and not base.shifts.flags.writeable


def test_base_edge_count_is_d_noncentral_plus_central():
    for d in (5, 6, 8):
        base, _ = build_base_graph(d)
        assert len(central_edges(base)) == 2 * d
        assert len(noncentral_edges(base)) == d * d - 2 * d


# ---------------------------------------------------------------------------
# derived torus

def test_derived_torus_d5_counts():
    base, volt = build_base_graph(5)
    torus = derived_cover(base, volt, 2)
    assert torus.vertex_count == 80
    assert len(torus.edges) == 200
    assert validate(torus, expect_regular=5).passed


def test_derived_torus_rejects_n1():
    base, volt = build_base_graph(5)
    with pytest.raises(TorusTooSmall):
        derived_cover(base, volt, 1)


@pytest.mark.parametrize("n, s", [(None, 2), (2, 1), (3, 0)])
def test_derived_cover_limit_is_exact(monkeypatch, n, s):
    """The bound (n^3 or 1) * 2^s * (2d + 3) may reach the limit but not pass
    it; the torus's own vertex count is 2d per cell and level."""
    base, volt0 = build_base_graph(5)
    volt = volt0.with_bits(s, {})
    bound = (1 if n is None else n**3) * (1 << s) * 13
    monkeypatch.setattr(voltage_module, "COVER_LIMIT", bound)
    expected = bound if n is None else bound // 13 * 10
    assert derived_cover(base, volt, n).vertex_count == expected
    monkeypatch.setattr(voltage_module, "COVER_LIMIT", bound - 1)
    with pytest.raises(TooLarge, match=f"up to {bound} vertices, above the limit of {bound - 1}"):
        derived_cover(base, volt, n)


@pytest.mark.parametrize("n, s", [(None, 2), (2, 1), (3, 0)])
def test_derived_cover_edge_limit_is_exact(monkeypatch, n, s):
    """The edge count (n^3 or 1) * 2^s * d^2 may reach COVER_EDGE_LIMIT but
    not pass it."""
    base, volt0 = build_base_graph(5)
    volt = volt0.with_bits(s, {})
    edges = (1 if n is None else n**3) * (1 << s) * 25
    monkeypatch.setattr(voltage_module, "COVER_EDGE_LIMIT", edges)
    assert len(derived_cover(base, volt, n).edge_array) == edges
    monkeypatch.setattr(voltage_module, "COVER_EDGE_LIMIT", edges - 1)
    with pytest.raises(TooLarge, match=f"has {edges} edges, above the limit of {edges - 1}"):
        derived_cover(base, volt, n)


def test_edge_limit_refuses_no_small_degree_cover_within_the_vertex_limit():
    """A cover of d <= 11 within COVER_LIMIT vertices has (n^3 or 1) * 2^s
    at most COVER_LIMIT // (2d + 3), and so is within COVER_EDGE_LIMIT
    edges; at d = 12 the n = 21, s = 2 torus passes the one limit but not
    the other."""
    for d in range(5, 12):
        assert voltage_module.COVER_LIMIT // (2 * d + 3) * d * d <= voltage_module.COVER_EDGE_LIMIT
    assert 21**3 * 4 * 27 <= voltage_module.COVER_LIMIT
    with pytest.raises(TooLarge, match=f"has {21**3 * 4 * 144} edges"):
        voltage_module.check_cover_size(12, 2, 21)


@pytest.mark.parametrize("n", [None, 2, 3])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [5, 6, 7])
def test_derived_cover_matches_label_object_builder(d, s, n):
    """The array-built cover has the labels, edges and arrays of the cover
    built one VertexLabel at a time, for random bits."""
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=100 * d + 10 * s + (n or 0))
    cover = derived_cover(base, volt, n)
    reference = derived_cover_reference(base, volt, n)
    assert vertex_labels(cover) == vertex_labels(reference)
    assert cover.edges == reference.edges
    assert cover == reference
    assert cover.d == reference.d == d
    assert cover.level_length == s


def test_derived_torus_zero_bits_two_components():
    base, volt0 = build_base_graph(5)
    volt = volt0.with_bits(1, {})
    torus = derived_cover(base, volt, 2)
    assert torus.vertex_count == 160
    comps = connected_components(torus)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [80, 80]
    # the two level slices are isomorphic: dropping the level bit yields the
    # same labeled edge set for both
    labels = vertex_labels(torus)

    def strip(comp):
        edges = set()
        for u, v in torus.edges:
            if u in comp and v in comp:
                lu, lv = labels[u], labels[v]
                a = (name_order(lu.role), lu.cell)
                b = (name_order(lv.role), lv.cell)
                edges.add((min(a, b), max(a, b)))
        return edges

    assert strip(set(comps[0])) == strip(set(comps[1]))


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=5, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)
def test_torus_count_conservation(d, s, n, seed):
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed) if s else volt0
    torus = derived_cover(base, volt, n)
    assert torus.vertex_count == n**3 * 2**s * 2 * d
    assert len(torus.edges) == n**3 * 2**s * d * d
    report = validate(torus, expect_regular=d)
    assert report.passed


# ---------------------------------------------------------------------------
# full unit graph

def test_full_unit_graph_s0_is_root():
    for d in (5, 6, 10):
        root = root_unit_graph_reference(d)
        base, volt = build_base_graph(d)
        fug = derived_cover(base, volt)
        assert vertex_labels(fug) == vertex_labels(root)
        assert fug.edges == root.edges
        assert fug.d == root.d == d


def test_full_unit_graph_zero_bits_two_copies():
    root = root_unit_graph_reference(5)
    base, volt0 = build_base_graph(5)
    fug = derived_cover(base, volt0.with_bits(1, {}))
    assert fug.vertex_count == 2 * root.vertex_count
    assert len(connected_components(fug)) == 2


def test_full_unit_graph_d5_s3_counts():
    base, volt0 = build_base_graph(5)
    volt = random_bits_voltage(base, volt0, 3, seed=11)
    fug = derived_cover(base, volt)
    assert fug.vertex_count == 104
    assert len(fug.edges) == 200
    assert len(central_copies(fug)) == 8


def test_full_unit_graph_equals_iterated_two_lift():
    """Lifting the root unit graph stage by stage, each root edge crossed
    when its base edge (connectors l*/r* merged back into v*) carries that
    stage's bit, gives the full unit graph."""
    d, s = 5, 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=23)
    fug = derived_cover(base, volt)

    merged = {"lx": "vx", "ly": "vy", "lz": "vz", "rx": "vx", "ry": "vy", "rz": "vz"}
    base_ids = label_index(base.graph)

    def base_vertex(lab):
        return base_ids[(merged.get(lab.role, lab.role), "", (0, 0, 0))]

    g = root_unit_graph_reference(d)
    for stage in range(s):
        labels = vertex_labels(g)
        crossed = [
            (u, v)
            for u, v in g.edges
            if edge_bits(volt, base_vertex(labels[u]), base_vertex(labels[v])) >> stage & 1
        ]
        g = two_lift(g, Signing.from_crossed(g, crossed))
    assert vertex_labels(g) == vertex_labels(fug)
    assert g.edges == fug.edges


@pytest.mark.parametrize("d,s", [(5, 1), (5, 2), (5, 3), (6, 2), (6, 3)])
def test_derived_torus_equals_glued_full_unit_graphs(d, s):
    """Cover consistency: gluing n^3 copies of the full unit graph along
    identified connector vertices, level-preservingly, reproduces the torus."""
    n = 2
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=37)
    fug = derived_cover(base, volt)
    torus = derived_cover(base, volt, n)

    merge = {"rx": "vx", "ry": "vy", "rz": "vz", "lx": "vx", "ly": "vy", "lz": "vz"}
    shifts = {"lx": (1, 0, 0), "ly": (0, 1, 0), "lz": (0, 0, 1)}

    def place(lab, cell):
        tag = lab.tag
        if tag in ("rx", "ry", "rz"):
            return VertexLabel(merge[tag], lab.level, cell)
        if tag in ("lx", "ly", "lz"):
            sh = shifts[tag]
            return VertexLabel(
                merge[tag],
                lab.level,
                tuple((cell[i] - sh[i]) % n for i in range(3)),
            )
        return VertexLabel(lab.role, lab.level, cell)

    cells = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    fug_labels = vertex_labels(fug)
    labels = {place(lab, cell) for cell in cells for lab in fug_labels}
    edges = [
        (place(fug_labels[u], cell), place(fug_labels[v], cell))
        for cell in cells
        for u, v in fug.edges
    ]
    glued = from_labeled_vertices(labels, edges, d)
    assert vertex_labels(glued) == vertex_labels(torus)
    assert glued.edges == torus.edges


# ---------------------------------------------------------------------------
# voltage group generation

def test_voltage_group_generated_s0():
    base, volt = build_base_graph(5)
    assert voltage_group_generated(base, volt)


def test_voltage_group_not_generated_zero_bits():
    base, volt0 = build_base_graph(5)
    assert not voltage_group_generated(base, volt0.with_bits(1, {}))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_voltage_group_generated_matches_dense_fold(data):
    """The closed form equals the fold over every kernel vector of every
    fundamental cycle, on random level bits carried by a random share of
    the non-central edges."""
    d = data.draw(st.integers(min_value=5, max_value=8), label="d")
    s = data.draw(st.integers(min_value=0, max_value=max_connected_stages(d)), label="s")
    share = data.draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]), label="share")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6), label="seed"))
    base, volt0 = build_base_graph(d)
    bits = {e: rng.getrandbits(s) for e in noncentral_edges(base) if rng.random() < share}
    volt = volt0.with_bits(s, bits)
    assert voltage_group_generated(base, volt) == _voltage_group_generated_reference(base, volt)


@pytest.mark.parametrize("d", [5, 8])
def test_voltage_group_generated_matches_dense_fold_known_cases(d):
    base, volt0 = build_base_graph(d)
    for volt, generated in (
        (volt0, True),
        (volt0.with_bits(1, {}), False),
        (random_bits_voltage(base, volt0, max_connected_stages(d) + 1, seed=d), False),
    ):
        assert voltage_group_generated(base, volt) is generated
        assert _voltage_group_generated_reference(base, volt) is generated


@pytest.mark.parametrize("d", range(5, 13))
def test_voltage_group_generated_closed_form_sweep(d):
    """The closed form agrees with the BFS-walked oracle on 40 voltages per
    degree: s = 0, 1, 2, 3, 5, 8, 12, 20, max_connected_stages(d) and one
    more, each capped at MAX_STAGES = 61, which only d >= 10 reaches, and
    each with random bits on a share 0, 0.05, 0.3 or 1 of the non-central
    edges.  Taking the connector differences against row 0,
    dropping the connector rows or counting the connector columns as
    standing each changes some of these verdicts."""
    top = max_connected_stages(d)
    assert (top + 1 <= MAX_STAGES) == (d <= 9)
    rng = random.Random(d)
    base, volt0 = build_base_graph(d)
    verdicts = []
    for s in (0, 1, 2, 3, 5, 8, 12, 20, min(top, MAX_STAGES), min(top + 1, MAX_STAGES)):
        for share in (0.0, 0.05, 0.3, 1.0):
            bits = {e: rng.getrandbits(s) for e in noncentral_edges(base) if rng.random() < share}
            volt = volt0.with_bits(s, bits)
            verdicts.append(voltage_group_generated(base, volt))
            assert verdicts[-1] == _voltage_group_generated_reference(base, volt), (s, share)
    assert len(verdicts) == 40 and any(verdicts) and not all(verdicts)


def test_voltage_group_generated_certified(certified):
    cert, base, volt, _ = certified(5)
    assert voltage_group_generated(base, volt)
    assert cert.flags.voltage_group_generated


# ---------------------------------------------------------------------------
# certificate serialization

def test_certificate_roundtrip(certified):
    cert, base, volt, _ = certified(5)
    text = cert.to_json()
    back = LiftCertificate.from_json(text)
    assert back == cert
    assert back.to_json() == text
    data = json.loads(text)
    assert set(data) == {
        "d",
        "s",
        "level_bits",
        "edge_order",
        "flags",
        "constraint_count",
        "seed",
    }
    assert len(data["level_bits"]) == cert.s
    assert all(len(row) == 25 for row in data["level_bits"])


def _dumped(cert):
    return json.dumps(certificate_to_json_dict(cert), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("d", [*range(5, 21), 33])
def test_certificate_writer_matches_json_dumps(certified, d):
    """The format-string writer gives the bytes of json.dumps(indent=2,
    sort_keys=True) for the Wenger certificates, also cut to s = 0, and
    they read back to the same certificate."""
    cert = certified(d)[0]
    for c in (cert, cert._replace(volt=cert.volt.truncate(0))):
        text = c.to_json()
        assert text == _dumped(c)
        assert LiftCertificate.from_json(text) == c


@st.composite
def _certificates(draw):
    """A certificate of d = 5..12 with any number of stages up to
    max_connected_stages(d) and MAX_STAGES, random bits on the non-central
    edges, any flags and any integer count and seed."""
    d = draw(st.integers(5, 12))
    s = draw(st.integers(0, min(max_connected_stages(d), MAX_STAGES)))
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, draw(st.integers(0, 2**32)))
    flags = CertificateFlags(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans())))
    return LiftCertificate(volt, flags, draw(st.integers()), draw(st.integers()))


@settings(max_examples=60, deadline=None)
@given(cert=_certificates())
def test_certificate_writer_matches_json_dumps_on_any_voltage(cert):
    text = cert.to_json()
    assert text == _dumped(cert)
    assert LiftCertificate.from_json(text) == cert


@pytest.mark.parametrize("name", ["cert_d5_seed1.json", "cert_d10_seed1.json"])
def test_pinned_certificates_write_back_byte_for_byte(name):
    pinned = (PERFBENCH / "pinned" / name).read_text()
    assert LiftCertificate.from_json(pinned).to_json() == pinned


@pytest.mark.parametrize("d", range(5, 41))
def test_canonical_edge_order_matches_role_lookup(d):
    base, _ = build_base_graph(d)
    assert canonical_edge_order(base) == [name for pair in canonical_edge_order_reference(base) for name in pair]


_NOT_PAIRS = "certificate edge_order must be a list of role pairs"
_D5_ORDER = [list(pair) for pair in canonical_edge_order_reference(BaseGraph(5))]
_BAD_EDGE_ORDERS = {
    "not a list": ({"c1": "t"}, _NOT_PAIRS),
    "entry is a string": (["c1 t"], _NOT_PAIRS),
    "entry is a dict": ([{"c1": "t"}], _NOT_PAIRS),
    "entry is null": ([None], _NOT_PAIRS),
    "entry is a tuple": ([("c1", "t")], _NOT_PAIRS),
    "pair of 1 name": ([["c1"]], _NOT_PAIRS),
    "pair of 3 names": ([["c1", "t", "b"]], _NOT_PAIRS),
    "name is an int": ([[1, "t"]], _NOT_PAIRS),
    "name is true": ([["c1", True]], _NOT_PAIRS),
    "name is null": ([[None, "t"]], _NOT_PAIRS),
    "name is a list": ([["c1", ["t"]]], _NOT_PAIRS),
    "bad pair last": ([["c1", "t"]] * 24 + [["c5", 3]], _NOT_PAIRS),
    "short pair last": ([["c1", "t"]] * 24 + [["c5"]], _NOT_PAIRS),
    "empty": ([], "certificate edge_order has 0 entries, but the d=5 base graph K_{d,d} has 25 edges"),
    "one short": ([["c1", "t"]] * 24, "certificate edge_order has 24 entries, but the d=5 base graph K_{d,d} has 25 edges"),
    "permuted": (
        [*_D5_ORDER[:2], _D5_ORDER[3], _D5_ORDER[2], *_D5_ORDER[4:]],
        "certificate edge_order entry 2 is (c1, vy), not the canonical (c1, vx)",
    ),
    "flipped pair": (
        [["t", "c1"], *_D5_ORDER[1:]],
        "certificate edge_order entry 0 is (t, c1), not the canonical (c1, t)",
    ),
    "unknown role": (
        [*_D5_ORDER[:3], ["c1", "f9"], *_D5_ORDER[4:]],
        "certificate edge_order entry 3 is (c1, f9), not the canonical (c1, vy)",
    ),
}


@pytest.mark.parametrize("case", list(_BAD_EDGE_ORDERS))
def test_certificate_reader_edge_order_messages(certified, case):
    """Each malformed d = 5 edge_order is refused with its exact message,
    the entry checks before the count, and any order but the canonical one
    at its first wrong entry."""
    order, message = _BAD_EDGE_ORDERS[case]
    data = json.loads(certified(5)[0].to_json())
    data["edge_order"] = order
    with pytest.raises(MalformedGraph) as refused:
        LiftCertificate.from_json_dict(data)
    assert str(refused.value) == message


@pytest.mark.parametrize("bad", ["2", " ", "\x00", "\u0130", "\u0660", "\ud800", "\U0001f600", "\uff10"])
@pytest.mark.parametrize("at", [0, 12, 24])
def test_certificate_reader_stage_messages(certified, bad, at):
    """A stage with one character other than 0 and 1 (a space, a control
    character, a digit of another script, a lone surrogate, one above the
    BMP) anywhere in it is refused with its exact message."""
    data = json.loads(certified(5)[0].to_json())
    stage = data["level_bits"][1]
    data["level_bits"][1] = stage[:at] + bad + stage[at + 1 :]
    with pytest.raises(MalformedGraph) as refused:
        LiftCertificate.from_json_dict(data)
    assert str(refused.value) == "certificate stage 1 holds a character other than 0 and 1"


def test_certificate_voltage_roundtrip(certified):
    cert, base, volt, _ = certified(5)
    rebuilt = LiftCertificate.from_json(cert.to_json()).volt
    assert rebuilt == volt
    assert rebuilt.s == volt.s
    assert dict(rebuilt.level_bits) == dict(volt.level_bits)
    assert cert.to_voltage(base) is cert.volt is volt


def test_canonical_edge_order_sorted_by_roles():
    base, _ = build_base_graph(5)
    names = canonical_edge_order(base)
    order = tuple(zip(names[::2], names[1::2]))
    assert order[0] == ("c1", "t")
    assert len(names) == 50 and len(order) == 25
    assert order == tuple(sorted(order, key=lambda p: (name_order(p[0]), name_order(p[1]))))


def test_make_bits_rejects_central_and_wide_masks():
    """make_bits refuses wide masks, unknown edges and a stage count out of
    range; bits on a central edge are refused by VoltageAssignment, so by
    with_bits."""
    base, volt0 = build_base_graph(5)
    central = next(iter(central_edges(base)))
    with pytest.raises(ValueError, match="must carry zero bits"):
        volt0.with_bits(2, {central: 1})
    noncentral = noncentral_edges(base)[0]
    for s, bits, message in (
        (2, {noncentral: 4}, "wider than s=2"),
        (61, {noncentral: 1 << 61}, "wider than s=61"),
        (62, {}, "0 to 61 lift stages, not s=62"),
        (-1, {}, "0 to 61 lift stages, not s=-1"),
        (2, {base_blacks(base)[:2]: 1}, "unknown edge"),
        (2, {noncentral[::-1]: 1}, "unknown edge"),
    ):
        with pytest.raises(ValueError, match=message):
            make_bits(base.d, s, bits)


def test_voltage_assignment_refuses_wide_and_central_masks():
    """The constructor checks the masks whatever built them: bit 2 on every
    non-central edge at s = 2 (which the census key would mix into the
    displacement parity bits), a negative mask, or a bit on a hub edge is a
    ValueError, not a voltage on which the census and the DFS disagree."""
    wide = np.zeros((5, 5), dtype=np.int64)
    wide[:, 2:] = 1 << 2
    hub = np.zeros((5, 5), dtype=np.int64)
    hub[3, 1] = 1
    for masks, message in (
        (wide, "mask 0x4 wider than s=2"),
        (-wide, "mask -0x4 wider than s=2"),
        (hub, r"central edge \(3, 6\) must carry zero bits"),
    ):
        with pytest.raises(ValueError, match=message):
            VoltageAssignment(2, masks)


def test_truncate_keeps_first_stages():
    base, volt0 = build_base_graph(5)
    volt = random_bits_voltage(base, volt0, 4, seed=3)
    two = volt.truncate(2)
    assert two.s == 2
    assert two.level_bits == {e: m & 3 for e, m in volt.level_bits.items() if m & 3}
    assert volt.truncate(4) is volt and volt.truncate(9) is volt
    with pytest.raises(ValueError, match="negative"):
        volt.truncate(-1)


def _top_bits(base, s):
    """Bit s - 1 alone on every non-central edge: the widest s-stage masks."""
    return dict.fromkeys(noncentral_edges(base), 1 << s - 1)


def _top_bit_certificate(s):
    """The JSON of a d = 10 certificate of s stages whose last stage alone
    crosses the non-central edges, written without building a voltage."""
    data = certificate_to_json_dict(LiftCertificate(build_base_graph(10)[1], CertificateFlags(True, True, True), 0, 0))
    top = "".join("0" if k % 10 < 2 else "1" for k in range(100))  # hubs at white positions 0, 1
    data["s"], data["level_bits"] = s, ["0" * 100] * (s - 1) + [top]
    return json.dumps(data)


def _stage_routes():
    """Per route that builds a voltage: a voltage it gives within the limit,
    at s = MAX_STAGES where it can reach it, and the same route asked for
    one stage more (None for truncate, which never adds a stage)."""
    base, volt0 = build_base_graph(10)
    widest = volt0.with_bits(MAX_STAGES, _top_bits(base, MAX_STAGES))
    return {
        "with_bits": (widest, lambda: volt0.with_bits(MAX_STAGES + 1, _top_bits(base, MAX_STAGES + 1))),
        "from_json": (
            LiftCertificate.from_json(_top_bit_certificate(MAX_STAGES)).volt,
            lambda: LiftCertificate.from_json(_top_bit_certificate(MAX_STAGES + 1)),
        ),
        "truncate": (widest.truncate(MAX_STAGES), None),
        # s = 2 ceil(log2 d) reaches 62 first at d = 2^30 + 1, refused before
        # its 8 EiB of masks are built; d = 303 (s = 18) is construct --kappa 100
        "wenger_voltage": (wenger_voltage(BaseGraph(303)), lambda: wenger_voltage(BaseGraph(2**30 + 1))),
    }


@pytest.mark.parametrize("route", ["with_bits", "from_json", "truncate", "wenger_voltage"])
def test_every_route_keeps_int64_masks_within_61_stages(route, time_limit):
    """One mask width: every route gives int64 masks with at most
    MAX_STAGES = 61 stages, keeps the top bit at s = 61, and refuses
    s = 62 at once with one line that names the limit."""
    volt, wider = _stage_routes()[route]
    assert volt.masks.dtype == np.int64 and volt.s <= MAX_STAGES == 61
    if volt.s == MAX_STAGES:
        assert set(volt.level_bits.values()) == {1 << 60}
    if route == "truncate":
        assert volt.truncate(MAX_STAGES + 1) is volt
        assert volt.truncate(MAX_STAGES - 1).masks.dtype == np.int64
        return
    with pytest.raises(ValueError) as refused:
        wider()
    message = str(refused.value)
    assert "61" in message and "\n" not in message and "62" in message


@pytest.mark.parametrize("s", [0, 1, 21, 22, 60, 61])
def test_voltage_array_round_trips(s):
    """A random d = 10 voltage survives every conversion: to stage strings
    and back through a certificate, back from its level_bits view, and cut
    by truncate as the benchmark's truncated() cuts it; bits return what the
    map gave, in both orientations.  The certificate with its edge order
    and stage columns shuffled alike is refused at its first moved entry."""
    d = 10
    rng = random.Random(s)
    base, volt0 = build_base_graph(d)
    bits = {e: rng.getrandbits(s) for e in noncentral_edges(base) if rng.random() < 0.7}
    volt = volt0.with_bits(s, bits)
    assert volt.masks.dtype == np.int64

    data = json.loads(LiftCertificate(volt, CertificateFlags(True, True, True), 0, 0).to_json())
    assert LiftCertificate.from_json_dict(data).volt == volt
    order = data["edge_order"]
    perm = list(range(d * d))
    rng.shuffle(perm)
    data["level_bits"] = ["".join(row[k] for k in perm) for row in data["level_bits"]]
    data["edge_order"] = [order[k] for k in perm]
    k = next(k for k in range(d * d) if perm[k] != k)
    with pytest.raises(MalformedGraph) as refused:
        LiftCertificate.from_json_dict(data)
    assert str(refused.value) == (
        f"certificate edge_order entry {k} is ({', '.join(order[perm[k]])}), "
        f"not the canonical ({', '.join(order[k])})"
    )

    assert volt.with_bits(s, volt.level_bits) == volt
    assert dict(volt.level_bits) == {e: m for e, m in bits.items() if m}
    truncated = perfbench_module("workloads").truncated
    for k in sorted({k for k in (0, 1, s // 2, s - 1, s) if 0 <= k <= s}):
        assert volt.truncate(k) == truncated(volt, k)

    for u, v in base.graph.edges:
        assert edge_bits(volt, u, v) == edge_bits(volt, v, u) == bits.get((u, v), 0)
