import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CentralEdgeCrossed,
    Signing,
    VertexLabel,
    _components,
    _short_cycles,
    brute_force_census,
    central_copies,
    central_subgraph_reference,
    components_reference,
    connected_components,
    degree,
    degree_histogram,
    drops_last_bit_covering,
    from_labeled_vertices,
    graph_to_dot_reference,
    graph_to_json_dict,
    label_index,
    labeled_cycle4,
    labeled_k2d,
    name_order,
    plain_graph,
    random_bits_voltage,
    random_graph,
    root_unit_graph_reference,
    two_coloring,
    two_coloring_reference,
    two_lift,
    validate,
    vertex_labels,
)
from thetalattice.census import census
from thetalattice.errors import DegreeTooSmall
from thetalattice.graphs import (
    build_root_unit_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    role_rank,
)
from thetalattice.voltage import BaseGraph, build_base_graph, derived_cover


def role_id(g, name, level=""):
    return label_index(g)[(name, level, (0, 0, 0))]


@pytest.mark.parametrize("d", range(5, 41))
def test_role_tables_are_in_canonical_order(d):
    """The role names of the base graph, the central K_{2,d}, the full unit
    graph and the n = 2 torus are sorted as name_order orders them (tag
    position in ROLE_TAGS, then the integer index, so c2 comes before c10),
    and role_rank gives that order."""
    base, volt0 = build_base_graph(d)
    for g in (base.graph, base.central, derived_cover(base, volt0), derived_cover(base, volt0, 2)):
        assert list(g.roles) == sorted(set(g.roles), key=name_order)
        assert [role_rank(name) for name in g.roles] == [name_order(name) for name in g.roles]
    assert base.graph.roles[: d + 2] == base.central.roles == (*(f"c{i}" for i in range(1, d + 1)), "t", "b")


# ---------------------------------------------------------------------------
# root unit graph

def test_root_unit_graph_d5_counts():
    g = build_root_unit_graph(5)
    assert g.vertex_count == 13
    assert len(g.edges) == 25
    assert degree(g, role_id(g, "lx")) == 1
    assert degree(g, role_id(g, "rx")) == 4
    assert degree(g, role_id(g, "c1")) == 5


def test_root_unit_graph_d10_counts():
    g = build_root_unit_graph(10)
    assert g.vertex_count == 23
    assert len(g.edges) == 100
    for j in range(1, 6):
        assert degree(g, role_id(g, f"f{j}")) == 10


def test_root_unit_graph_rejects_small_degree():
    with pytest.raises(DegreeTooSmall, match="construction requires d >= 5, got 4"):
        build_root_unit_graph(4)


@pytest.mark.parametrize("d", range(5, 13))
def test_root_unit_graph_matches_reference(d):
    """derived_cover at s = 0 gives the root unit graph written out role by
    role from its description: the same ids, roles, levels, cells and d."""
    assert build_root_unit_graph(d) == root_unit_graph_reference(d)


@pytest.mark.parametrize("d", [5, 6, 7, 10])
def test_root_unit_graph_structure(d):
    g = build_root_unit_graph(d)
    assert g.vertex_count == 2 * d + 3
    assert len(g.edges) == d * d
    report = validate(g)
    assert report.bipartite and report.roles_bipartition_ok
    # exact degree profile: c/t/b/f at d, l* at 1, r* at d-1
    assert degree_histogram(g) == {d: 2 * d - 3, 1: 3, d - 1: 3}


# ---------------------------------------------------------------------------
# central subgraph

def test_central_subgraph_d5():
    g = BaseGraph(5).central
    assert g.vertex_count == 7
    assert len(g.edges) == 10
    rep = census(g)
    assert rep.c4_total == 10
    assert rep.theta222 == 10


@pytest.mark.parametrize("d", range(5, 41))
def test_base_central_is_the_root_central_subgraph(d):
    """BaseGraph.central, built without the base graph, is the central
    subgraph of the root unit graph gathered label by label, and writes
    the same file."""
    got, want = BaseGraph(d).central, central_subgraph_reference(build_root_unit_graph(d))
    assert got == want
    assert graph_to_json(got) == graph_to_json(want)


@pytest.mark.parametrize("d", [5, 6, 10])
@pytest.mark.parametrize("s", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [None, 2], ids=["full-unit", "torus"])
def test_central_subgraph_matches_reference(d, s, n):
    """The central subgraph of a lifted full unit graph or n = 2 torus,
    gathered label by label, is one copy of BaseGraph.central per (cell,
    level): the same roles, ids and edges."""
    base, volt0 = build_base_graph(d)
    g = derived_cover(base, random_bits_voltage(base, volt0, s, seed=d + s), n)
    copies = central_copies(g)
    assert len(copies) == (1 if n is None else n**3) << s
    for copy in copies:
        assert copy.roles == base.central.roles
        assert copy.role_codes.tolist() == base.central.role_codes.tolist()
        assert copy.edges == base.central.edges


def test_central_copies_after_lifts():
    g = build_root_unit_graph(5)
    # two lifts with arbitrary non-central crossings
    for stage in range(2):
        crossed = [e for i, e in enumerate(g.edges) if i % (stage + 2) == 0]
        labels = vertex_labels(g)
        crossed = [
            (u, v)
            for u, v in crossed
            if {labels[u].tag, labels[v].tag} not in ({"t", "c"}, {"b", "c"})
        ]
        g = two_lift(g, Signing.from_crossed(g, crossed))
    copies = central_copies(g)
    assert len(copies) == 4
    for copy in copies:
        assert copy.vertex_count == 7
        assert len(copy.edges) == 10
        assert degree_histogram(copy) == {5: 2, 2: 5}
    # copies are vertex disjoint by construction (grouped by level)
    levels = {vertex_labels(copy)[0].level for copy in copies}
    assert len(levels) == 4


# ---------------------------------------------------------------------------
# two-lift

def test_two_lift_all_parallel_gives_two_copies():
    g = build_root_unit_graph(5)
    lift = two_lift(g, Signing.from_crossed(g, []))
    assert lift.vertex_count == 2 * g.vertex_count
    assert len(lift.edges) == 2 * len(g.edges)
    comps = connected_components(lift)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [13, 13]


def test_two_lift_single_crossed_edge_gives_8_cycle():
    g = labeled_cycle4()
    lift = two_lift(g, Signing.from_crossed(g, [g.edges[0]]))
    assert lift.vertex_count == 8
    assert degree_histogram(lift) == {2: 8}
    assert len(connected_components(lift)) == 1  # one 8-cycle
    assert census(lift).c4_total == 0


def test_two_lift_all_crossed_gives_two_4_cycles():
    g = labeled_cycle4()
    lift = two_lift(g, Signing.from_crossed(g, list(g.edges)))
    assert lift.vertex_count == 8
    assert len(connected_components(lift)) == 2
    assert census(lift).c4_total == 2


def test_two_lift_rejects_crossed_central_edge():
    g = labeled_k2d(5)
    with pytest.raises(CentralEdgeCrossed):
        two_lift(g, Signing.from_crossed(g, [g.edges[0]]))


def test_two_lift_requires_total_signing():
    g = labeled_cycle4()
    with pytest.raises(ValueError):
        two_lift(g, Signing({g.edges[0]: "parallel"}))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**25 - 1))
def test_two_lift_preserves_degrees_and_bipartiteness(mask):
    g = build_root_unit_graph(5)
    labels = vertex_labels(g)
    crossed = [
        e
        for i, e in enumerate(g.edges)
        if (mask >> i) & 1
        and {labels[e[0]].tag, labels[e[1]].tag}
        not in ({"t", "c"}, {"b", "c"})
    ]
    lift = two_lift(g, Signing.from_crossed(g, crossed))
    assert degree_histogram(lift) == {k: 2 * v for k, v in degree_histogram(g).items()}
    assert two_coloring(lift) is not None
    assert drops_last_bit_covering(lift, g)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**25 - 1))
def test_lift_cycle_monotonicity(mask):
    g = build_root_unit_graph(5)
    labels = vertex_labels(g)
    crossed = [
        e
        for i, e in enumerate(g.edges)
        if (mask >> i) & 1
        and {labels[e[0]].tag, labels[e[1]].tag}
        not in ({"t", "c"}, {"b", "c"})
    ]
    lift = two_lift(g, Signing.from_crossed(g, crossed))
    lifted, rep = census(lift), census(g)
    assert lifted.c4_total <= 2 * rep.c4_total
    assert lifted.c6 <= 2 * rep.c6


def test_lift_short_cycles_project_to_base_cycles():
    """4-/6-cycles of a lift project to same-length cycles of the base."""
    g = build_root_unit_graph(5)
    labels = vertex_labels(g)
    crossed = [
        e
        for e in g.edges
        if {labels[e[0]].tag, labels[e[1]].tag}
        not in ({"t", "c"}, {"b", "c"})
    ][::3]
    lift = two_lift(g, Signing.from_crossed(g, crossed))
    base_ids = label_index(g)
    proj = [base_ids[(lab.role, lab.level[:-1], lab.cell)] for lab in vertex_labels(lift)]
    base_cycles = {
        (len(seq), tuple(sorted(seq))) for seq in _short_cycles(g)
    }
    for seq in _short_cycles(lift):
        image = [proj[v] for v in seq]
        assert len(set(image)) == len(seq), "projection must stay a simple cycle"
        assert (len(seq), tuple(sorted(image))) in base_cycles


# ---------------------------------------------------------------------------
# validate

@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=14),
    st.sampled_from([0.0, 0.1, 0.2, 0.4]),
)
def test_breadth_first_coloring_matches_stack_search(seed, n, p):
    """two_coloring and _components on random graphs, with isolated
    vertices, several components and odd cycles, equal the stack-search
    references."""
    g = random_graph(random.Random(seed), n, p)
    assert two_coloring(g) == two_coloring_reference(g)
    assert _components(g) == components_reference(g)


def test_validate_root_not_regular():
    g = build_root_unit_graph(5)
    report = validate(g, expect_regular=5)
    assert not report.passed
    assert report.regular_ok is False
    assert report.bipartite


def test_validate_torus_regular():
    from thetalattice.voltage import BaseGraph, build_base_graph, derived_cover

    base, volt = build_base_graph(5)
    torus = derived_cover(base, volt, 2)
    report = validate(torus, expect_regular=5)
    assert report.passed


def test_validate_single_edge_bipartite():
    c1, t = VertexLabel("c1"), VertexLabel("t")
    report = validate(from_labeled_vertices([c1, t], [(c1, t)]))
    assert report.bipartite and report.roles_bipartition_ok and report.passed


def test_validate_odd_cycle_not_bipartite():
    report = validate(plain_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert not report.bipartite and not report.passed


def test_validate_roles_must_match_coloring():
    c1, c2 = VertexLabel("c1"), VertexLabel("c2")
    g = from_labeled_vertices([c1, c2], [(c1, c2)])  # two adjacent blacks
    report = validate(g)
    assert report.bipartite
    assert report.roles_bipartition_ok is False
    assert not report.passed


# ---------------------------------------------------------------------------
# construction hygiene and serialization

def test_labeled_graph_rejects_loops_and_duplicates():
    """The edge-pair check of the test graph builders is _edge_array's."""
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        plain_graph(2, ((0, 0),))
    with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
        plain_graph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match=r"edge \(0,2\) out of range"):
        plain_graph(2, ((0, 2),))


def test_level_bit_order_first_lift_is_position_zero():
    g = labeled_cycle4()
    lift1 = two_lift(g, Signing.from_crossed(g, []))
    lift2 = two_lift(lift1, Signing.from_crossed(lift1, []))
    levels = {lab.level for lab in vertex_labels(lift2)}
    assert levels == {"00", "01", "10", "11"}
    # vertex at level "10" chose upper at the first lift, lower at the second
    assert all(len(lab.level) == 2 for lab in vertex_labels(lift2))


def test_graph_json_roundtrip():
    g = build_root_unit_graph(6)
    text = graph_to_json(g)
    back = graph_from_json(text)
    assert back.edges == g.edges
    assert vertex_labels(back) == vertex_labels(g)
    assert back.d == g.d
    assert graph_to_json(back) == text


def _writer_graphs():
    """Labeled graphs for the writer checks: the root, base and central
    graphs, a torus, a full unit graph, one with negative cells, and one
    with no edges."""
    root = build_root_unit_graph(6)
    base, volt0 = build_base_graph(5)
    torus = derived_cover(base, random_bits_voltage(base, volt0, 2, seed=5), 2)
    base6, volt6 = build_base_graph(6)
    full_unit = derived_cover(base6, random_bits_voltage(base6, volt6, 3, seed=6))
    c1, t = VertexLabel("c1", "01", (-1, 2, -3)), VertexLabel("t", "10", (0, 0, 5))
    return {
        "root": root,
        "base": base.graph,
        "central": BaseGraph(6).central,
        "torus": torus,
        "full-unit": full_unit,
        "negative-cells": from_labeled_vertices([c1, t], [(c1, t)], 7),
        "no-edges": from_labeled_vertices([c1, t], []),
    }


@pytest.mark.parametrize("name", list(_writer_graphs()))
def test_graph_writers_match_dict_writers(name):
    """graph_to_json writes the bytes json.dumps writes for the dict record,
    graph_to_dot those of the line-by-line writer, and the JSON reads back
    as the same graph."""
    g = _writer_graphs()[name]
    text = graph_to_json(g)
    assert text == json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"
    assert graph_to_dot(g) == graph_to_dot_reference(g)
    assert graph_from_json(text) == g


def test_graph_json_vertices_in_any_order():
    """The reader places each vertex record by its id, whatever the order
    of the records in the file."""
    g = _writer_graphs()["torus"]
    data = json.loads(graph_to_json(g))
    random.Random(3).shuffle(data["vertices"])
    assert graph_from_json(json.dumps(data)) == g


def test_labeled_graph_arrays_are_read_only():
    g = build_root_unit_graph(5)
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 1
    with pytest.raises(ValueError):
        g.levels[0] = 1
    with pytest.raises(AttributeError):
        g.vertex_count = 3


def test_graph_dot_export():
    g = labeled_k2d(5)
    dot = graph_to_dot(g)
    assert dot.startswith("graph")
    assert dot.count("--") == 10


def test_brute_force_matches_on_root_graph():
    g = build_root_unit_graph(5)
    rep = brute_force_census(g)
    assert rep.c4_total == census(g).c4_total == 64
    assert rep.c4_central == 10
    assert rep.c4_stray == 54
