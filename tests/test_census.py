import importlib
import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    VertexLabel,
    _c4_theta_reference,
    _central_c4_reference,
    _constraint_cycles_reference,
    _cycle_displacement,
    _cycle_mask,
    _short_cycles,
    _voltage_c6_triples,
    _voltage_census_reference,
    base_blacks,
    base_whites,
    brute_force_census,
    codegree_triangles_reference,
    complete_bipartite,
    cycle_graph,
    dfs_c6,
    edge_disp,
    from_labeled_vertices,
    label_index,
    labeled_graph,
    labeled_k2d,
    noncentral_edges,
    plain_graph,
    random_bipartite_graph,
    random_bits_voltage,
    random_graph,
    torus_with_same_colour_edge,
    two_coloring_reference,
    vertex_labels,
)
from thetalattice.census import CensusReport, census, voltage_census
from thetalattice.certify import recheck_constraints_dfs
from thetalattice.errors import MalformedGraph, TooLarge
from thetalattice.graphs import CENTRAL_TAGS, _bfs, _csr, build_root_unit_graph, graph_from_json_dict
from thetalattice.voltage import MAX_STAGES, build_base_graph, derived_cover

# the package re-exports a function named like this module
census_module = importlib.import_module("thetalattice.census")


# ---------------------------------------------------------------------------
# census counts on small knowns

def test_count_c4_examples():
    assert census(cycle_graph(4)).c4_total == 1
    assert census(complete_bipartite(2, 3)).c4_total == 3
    assert census(labeled_k2d(6)).c4_total == 15


def test_count_c6_examples():
    path = plain_graph(6, [(i, i + 1) for i in range(5)])  # a tree
    assert census(path).c6 == 0
    for d in (3, 5, 8):
        assert census(complete_bipartite(2, d)).c6 == 0
    assert census(complete_bipartite(3, 3)).c6 == 6
    assert census(cycle_graph(6)).c6 == 1


def test_count_theta_examples():
    assert census(complete_bipartite(2, 3)).theta222 == 1
    assert census(cycle_graph(6)).theta222 == 0
    assert census(labeled_k2d(10)).theta222 == 120


@pytest.mark.parametrize("d", range(5, 13))
def test_central_copy_formulas(d):
    rep = census(labeled_k2d(d))
    assert rep.c4_total == d * (d - 1) // 2
    assert rep.theta222 == d * (d - 1) * (d - 2) // 6


# ---------------------------------------------------------------------------
# non-bipartite graphs are refused


def _refused_edge(g):
    """The edge census() names when it refuses g."""
    with pytest.raises(MalformedGraph, match="census counts bipartite graphs only") as info:
        census(g)
    u, v = map(int, re.search(r"edge \((\d+),(\d+)\)", str(info.value)).groups())
    return u, v


def test_census_refuses_non_bipartite_graphs():
    """A triangle, K_{3,3} with an edge inside one side, and the d = 10,
    s = 3, n = 2 torus with one edge between two vertices of one colour
    are refused, each naming its first edge, in edge_array order, with
    both ends of one breadth-first colour.  An edge (0, 1) added to K_{3,3}
    is a tree edge of the search from 0, which puts 1 beside 3, 4 and 5."""
    assert _refused_edge(cycle_graph(3)) == (1, 2)
    k33 = [(i, j) for i in range(3) for j in range(3, 6)]
    assert _refused_edge(plain_graph(6, [*k33, (0, 1)])) == (1, 3)
    assert _refused_edge(plain_graph(6, [*k33, (3, 5)])) == (3, 5)
    data, edge = torus_with_same_colour_edge()
    assert _refused_edge(graph_from_json_dict(data)) == edge


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=0, max_value=14),
    st.sampled_from([0.0, 0.1, 0.2, 0.4, 0.7]),
)
def test_census_refuses_exactly_the_non_bipartite_graphs(seed, n, p):
    """census() counts a random graph, with isolated vertices, several
    components and odd cycles among the draws, exactly when the stack
    search of two_coloring_reference two-colours it, and the edge it names
    when it refuses lies in the graph."""
    g = random_graph(random.Random(seed), n, p)
    if two_coloring_reference(g) is None:
        assert _refused_edge(g) in g.edges
    else:
        census(g)


# ---------------------------------------------------------------------------
# brute force oracle

def test_brute_force_k25():
    rep = brute_force_census(labeled_k2d(5))
    assert (rep.c4_total, rep.theta222, rep.c6) == (10, 10, 0)
    assert rep.c4_central == 10 and rep.c4_stray == 0


def test_brute_force_empty_graph():
    rep = brute_force_census(plain_graph(6, []))
    assert (rep.c4_total, rep.c6, rep.theta222) == (0, 0, 0)


def test_brute_force_guard():
    with pytest.raises(TooLarge):
        brute_force_census(plain_graph(17, []))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=4, max_value=10))
def test_fast_counters_match_brute_force(seed, n):
    g = random_bipartite_graph(random.Random(seed), n, 0.7)
    rep, want = census(g), brute_force_census(g)
    assert rep.c4_total == want.c4_total
    assert rep.c6 == want.c6
    assert rep.theta222 == want.theta222


def _matches_references(g):
    """census agrees with the Counter codegree reference and the DFS
    6-cycles; its central count with the central subgraph built as a graph
    of its own, and its stray count is the rest."""
    rep = census(g)
    c4, theta = _c4_theta_reference(g)
    c6 = dfs_c6(g)
    assert (rep.c4_total, rep.theta222, rep.c6) == (c4, theta, c6)
    assert rep.c4_central == _central_c4_reference(g)
    assert rep.c4_stray == c4 - rep.c4_central
    return rep


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**9),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        ),
        min_size=1,
        max_size=3,
    ),
    st.sampled_from([1, 2, 3, 1 << 16]),
)
def test_sparse_census_matches_references_on_bipartite(seed, parts, block):
    """Random bipartite graphs of one to three components, with isolated and
    degree-1 vertices and the empty graph among them, ids shuffled so that
    the sides interleave; triangle blocks down to one candidate row."""
    rng = random.Random(seed)
    edges, n = [], 0
    for m, k, p in parts:
        edges += [(n + i, n + m + j) for i in range(m) for j in range(k) if rng.random() < p]
        n += m + k
    ids = list(range(n))
    rng.shuffle(ids)
    g = plain_graph(n, [(ids[u], ids[v]) for u, v in edges])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_module, "_TRIANGLE_BLOCK", block)
        _matches_references(g)


@pytest.mark.parametrize("n", [2, None])
@settings(max_examples=5, deadline=None)
@given(
    st.integers(min_value=5, max_value=6),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10**6),
)
def test_sparse_census_matches_references_on_covers(n, d, s, seed):
    """Derived covers: the 2-torus and the full unit graph, random level
    bits, so some covers keep stray 4-cycles and 6-cycles."""
    base, volt0 = build_base_graph(d)
    cover = derived_cover(base, random_bits_voltage(base, volt0, s, seed), n)
    rep = _matches_references(cover)
    assert rep.c4_central == (8 if n else 1) * 2**s * comb(d, 2)


@st.composite
def _codegree_graphs(draw, max_codegree=10**4):
    """(n, {(a, b): c_ab}): a codegree graph on up to 12 vertex ids spread
    over 0..n-1, so that ids in pairs interleave with ids in none."""
    n = draw(st.integers(min_value=2, max_value=60))
    ids = sorted(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=12)))
    pairs = draw(st.sets(st.sampled_from(list(itertools.combinations(ids, 2)))))
    return n, {p: draw(st.integers(1, max_codegree)) for p in sorted(pairs)}


def _pair_arrays(n, pairs):
    keys = np.array(sorted(a * n + b for a, b in pairs), dtype=np.int64)
    return keys, np.array([pairs[divmod(int(k), n)] for k in keys], dtype=np.int64), n


def _triangle_sum(pairs):
    """The sum over triangles a < b < c of c_ab * c_bc * c_ac in Python ints."""
    return sum(
        c_ab * pairs[b, c] * pairs[a, c]
        for (a, b), c_ab in pairs.items()
        for c in range(b + 1, max(max(p) for p in pairs) + 1)
        if (b, c) in pairs and (a, c) in pairs
    )


_LONG_RUN = {(0, b): 1 + b % 3 for b in range(1, 40)} | {(b, b + 1): 2 for b in range(1, 39)}


@pytest.mark.parametrize("block", [1, 2, 3, 1 << 16])
@settings(max_examples=50, deadline=None)
@given(_codegree_graphs())
@example((5, {}))
@example((5, {(1, 3): 2}))
@example((40, _LONG_RUN))
@example((30, {p: 1 + sum(p) % 5 for p in itertools.combinations((2, 5, 6, 11, 17, 23, 29), 2)}))
def test_codegree_triangles_match_searchsorted_reference(block, graph):
    """The slot-table kernel equals the searchsorted kernel it replaced, for
    every table size down to one slot: the empty set, a single pair, one
    first vertex with a forward run of 39 pairs, and interleaved ids among
    the examples."""
    keys, codegree, n = _pair_arrays(*graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(census_module, "_TRIANGLE_BLOCK", block)
        got = census_module._codegree_triangles(keys, codegree, n)
    assert got == codegree_triangles_reference(keys, codegree, n, block) == _triangle_sum(graph[1])


@settings(max_examples=20, deadline=None)
@given(_codegree_graphs(max_codegree=2**21 - 1))
@example((9, dict.fromkeys(itertools.combinations(range(9), 2), 2**21 - 1)))
def test_codegree_triangles_exact_beyond_int64_sums(graph):
    """Codegrees up to 2^21 - 1 make terms up to 2^63 - 2^23; the complete
    graph on 9 vertices sums 84 of them, far above int64.  The kernel sums
    few enough terms at a time to stay exact."""
    assert census_module._codegree_triangles(*_pair_arrays(*graph)) == _triangle_sum(graph[1])


def test_short_cycles_frees_its_result():
    """Only the caller holds the returned cycle list: nothing left behind by
    _short_cycles (such as a closure that calls itself) keeps it alive until
    a cyclic garbage collection."""
    import gc
    import sys

    g = build_base_graph(6)[0].graph
    gc.disable()
    try:
        cycles = _short_cycles(g)
        # one reference from this frame, one from getrefcount's argument
        assert sys.getrefcount(cycles) == 2
    finally:
        gc.enable()
    assert len(cycles) == len(set(cycles))


# ---------------------------------------------------------------------------
# classification

def test_classify_root_unit_graph():
    rep = census(build_root_unit_graph(5))
    assert rep.c4_central == 10
    assert rep.c4_stray == rep.c4_total - 10 == 54


def test_classify_central_alone():
    rep = census(labeled_k2d(7))
    assert rep.c4_stray == 0
    assert rep.c4_central == 21


def test_classify_central_needs_one_cell_and_level():
    """A 4-cycle on hub/spoke roles is central only when all four vertices
    share one (cell, level)."""
    roles = ["t", "b", "c1", "c2"]
    for moved in range(4):  # one vertex at another level, or in another cell
        for level, cell in (("1", (0, 0, 0)), ("0", (1, 0, 0))):
            t, b, c1, c2 = (
                VertexLabel(r, level, cell) if i == moved else VertexLabel(r, "0")
                for i, r in enumerate(roles)
            )
            g = from_labeled_vertices([t, b, c1, c2], [(t, c1), (c1, b), (b, c2), (c2, t)])
            rep = census(g)
            assert (rep.c4_central, rep.c4_stray) == (0, 1)


def test_central_count_reads_no_unrelated_vertex():
    """A 4-cycle on the roles t, t, c1, c2 at one (level, cell) is central
    though no vertex has the role b, and an isolated b vertex added beside
    it changes nothing."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    cycle = [VertexLabel(r) for r in ("t", "t", "c1", "c2")]
    for labels in (cycle, [*cycle, VertexLabel("b")]):
        g = labeled_graph(labels, edges)
        rep = census(g)
        assert (rep.c4_central, rep.c4_stray) == (1, 0)
        assert rep.c4_central == _central_c4_reference(g)


def test_census_makes_one_codegree_pass(monkeypatch):
    """census() enumerates wedges three times per call: first those centred
    in the smaller class X, then those centred in the other, so the first
    two middle masks split the vertices, and last those of the central
    subgraph alone, the edges whose ends have hub/spoke roles at one
    (level, cell)."""
    base, volt0 = build_base_graph(5)
    torus = derived_cover(base, random_bits_voltage(base, volt0, 2, seed=5), 2)
    k2d = labeled_k2d(5)
    original = census_module._wedge_keys
    calls = []

    def counted(start, nbr, middle):
        calls.append((start.copy(), nbr.copy(), middle.copy()))
        return original(start, nbr, middle)

    monkeypatch.setattr(census_module, "_wedge_keys", counted)
    report = census(torus)
    census(k2d)
    assert len(calls) == 6
    for g, (x_call, y_call, central_call) in zip((torus, k2d), (calls[:3], calls[3:])):
        in_x, in_y = x_call[2], y_call[2]
        assert len(in_x) == g.vertex_count
        assert (in_x ^ in_y).all()
        assert 2 * in_x.sum() <= g.vertex_count
        copy = [(lab.cell, lab.level) if lab.tag in CENTRAL_TAGS else None for lab in vertex_labels(g)]
        inside = [copy[u] is not None and copy[u] == copy[v] for u, v in g.edges]
        want = _csr(g.vertex_count, g.edge_array[np.array(inside, dtype=bool)])
        assert all(np.array_equal(got, expect) for got, expect in zip(central_call, want))
        assert (central_call[2] == in_y).all()
    copies = 2**3 * 2**2  # n^3 * 2^s central copies of K_{2,5}
    assert report.c4_central == copies * 10


def test_census_central_from_either_side():
    """Two K_{2,d} hub graphs in one graph, the first numbered hubs first and
    the second spokes first, so the breadth-first colouring puts the hubs of
    one and the spokes of the other in colour 0: the X-pair table meets one
    copy's central 4-cycles through its hub pair and the other's through its
    spoke pairs, and counts both."""
    d = 5
    t, b = "t", "b"
    spokes = [f"c{i}" for i in range(1, d + 1)]
    first = [VertexLabel(r) for r in (t, b, *spokes)]
    second = [VertexLabel(r, cell=(1, 0, 0)) for r in (*spokes, t, b)]
    edges = [(hub, 2 + i) for hub in (0, 1) for i in range(d)]
    edges += [(d + 2 + i, 2 * d + 2 + hub) for hub in (0, 1) for i in range(d)]
    g = labeled_graph(first + second, edges, d)
    _, parity = _bfs(*_csr(g.vertex_count, g.edge_array))
    assert parity[[0, 1, d + 2]].tolist() == [0, 0, 0]
    rep = census(g)
    assert rep.c4_central == rep.c4_total == 2 * comb(d, 2)
    assert rep == brute_force_census(g)


@pytest.mark.parametrize(
    "n, edges, sizes",
    [
        # colour 0 (vertex 0's side) has 6 vertices, colour 1 only 4
        (10, [(u, v) for u in range(6) for v in range(6, 10) if (u + v) % 5], (6, 4)),
        # a 3-cube and two 6-cycles through its vertices: 6 and 6
        (
            12,
            [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 6), (3, 7), (4, 5), (4, 6), (5, 7), (6, 7),
             (0, 9), (9, 8), (8, 10), (10, 11), (11, 2), (7, 8), (3, 4), (1, 6)],
            (6, 6),
        ),
    ],
    ids=["colour-1-smaller", "tie"],
)
def test_census_one_sided_matches_brute_force(n, edges, sizes):
    g = plain_graph(n, edges)
    _, parity = _bfs(*_csr(g.vertex_count, g.edge_array))
    assert (int((parity == 0).sum()), int(parity.sum())) == sizes
    rep = census(g)
    assert rep == brute_force_census(g)
    assert rep.c4_total and rep.c6 and rep.theta222


def test_census_memory_is_one_class_table(certified):
    """The two classes' wedge keys are never held at once, and neither
    mixes the pairs of both classes: the census of the d = 10, s = 8 full
    unit graph (5,888 vertices) stays under 16 MiB of traced memory."""
    _, base, volt, _ = certified(10)
    fug = derived_cover(base, volt)
    assert volt.s == 8 and fug.vertex_count == 5888
    tracemalloc.start()
    try:
        rep = census(fug)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.c4_central == rep.c4_total == 256 * 45
    assert peak < 16 << 20


def test_census_memory_of_the_n2_torus(certified):
    """No per-wedge table is held: the census of the d = 10, n = 2 torus
    (40,960 vertices, 921,600 X-pair wedges) stays under 60 MiB of traced
    memory."""
    _, base, volt, _ = certified(10)
    torus = derived_cover(base, volt, 2)
    assert torus.vertex_count == 40960
    tracemalloc.start()
    try:
        rep = census(torus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.c4_central == rep.c4_total == 8 * 256 * 45
    assert peak < 60 << 20


def test_classify_certified_full_unit_graph(certified):
    cert, base, volt, _ = certified(5)
    rep = census(derived_cover(base, volt))
    assert rep.c4_stray == 0
    assert rep.c4_central == (1 << cert.s) * 10
    assert rep.c6 == 0


# ---------------------------------------------------------------------------
# voltage census

def test_base_cycle_with_displacement_excluded():
    """The 4-cycle c1-vx-c2-t closes only after a translation, so it neither
    appears as a constraint nor contributes to the per-cube count."""
    base, volt = build_base_graph(5)
    ids = label_index(base.graph)
    c1 = ids[("c1", "", (0, 0, 0))]
    c2 = ids[("c2", "", (0, 0, 0))]
    vx = ids[("vx", "", (0, 0, 0))]
    t = ids[("t", "", (0, 0, 0))]
    seq = (c1, vx, c2, t)
    assert _cycle_displacement(base, seq) == (-1, 0, 0)
    mask = _cycle_mask(seq, {e: j for j, e in enumerate(noncentral_edges(base))})
    assert mask not in {c.mask for c in _constraint_cycles_reference(base, volt)}


def test_voltage_census_zero_bits_matches_torus():
    base, volt = build_base_graph(5)
    vc = voltage_census(base, volt)
    torus = derived_cover(base, volt, 2)
    ec = census(torus)
    assert ec.c4_total == 8 * vc.c4_total
    assert ec.c4_central == 8 * vc.c4_central
    assert ec.c6 == 8 * vc.c6
    assert ec.theta222 == 8 * vc.theta222


@settings(max_examples=6, deadline=None)
@given(
    st.integers(min_value=5, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_voltage_census_matches_torus_random_bits(d, s, seed):
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed)
    vc = voltage_census(base, volt)
    torus = derived_cover(base, volt, 2)
    ec = census(torus)
    for name in ("c4_total", "c4_central", "c4_stray", "c6", "theta222"):
        assert getattr(ec, name) == 8 * getattr(vc, name), name


def test_voltage_census_certified_d10(certified):
    cert, base, volt, _ = certified(10)
    vc = voltage_census(base, volt)
    scale = 1 << cert.s
    assert vc.c4_total == scale * 45
    assert vc.c4_stray == 0
    assert vc.c6 == 0
    assert vc.theta222 == scale * 120
    assert vc.c4_bar == Fraction(9, 4)
    assert vc.theta_bar == Fraction(6)


def test_census_report_rationals_and_json():
    rep = census(labeled_k2d(5))
    assert rep.c4_bar == Fraction(10, 7)
    data = rep.to_json_dict()
    assert data["per_vertex"]["c4_bar"] == "10/7"
    assert data["scope"] == "explicit-graph"


def test_census_report_stores_only_its_counts():
    """A report stores the four counts, the vertex count its averages
    divide by and its scope; the stray 4-cycles and the averages follow from
    them, and a graph with no vertices averages to 0."""
    assert list(CensusReport._fields) == [
        "c4_total", "c4_central", "c6", "theta222", "vertices", "scope",
    ]
    rep = CensusReport(12, 10, 4, 9, 8, "explicit-graph")
    assert (rep.c4_stray, rep.c4_bar, rep.c6_bar, rep.theta_bar) == (2, Fraction(3, 2), Fraction(1, 2), Fraction(9, 8))
    empty = census(plain_graph(0, []))
    assert empty == CensusReport(0, 0, 0, 0, 0, "explicit-graph")
    assert empty.to_json_dict()["per_vertex"] == {"c4_bar": "0/1", "c6_bar": "0/1", "theta_bar": "0/1"}


def test_per_cube_bars_divide_by_owned_vertices(certified):
    cert, base, volt, _ = certified(5)
    vc = voltage_census(base, volt)
    owned = (1 << cert.s) * 10
    assert vc.c4_bar == Fraction(vc.c4_total, owned)
    assert vc.theta_bar == Fraction(vc.theta222, owned)


# ---------------------------------------------------------------------------
# voltage census against the loop oracle and the DFS re-check

@pytest.mark.parametrize("d", range(5, 11))
def test_voltage_census_matches_reference_zero_bits(d):
    base, volt = build_base_graph(d)
    assert voltage_census(base, volt) == _voltage_census_reference(base, volt)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=5, max_value=10),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10**6),
)
def test_voltage_census_matches_reference_random_bits(d, s, seed):
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed)
    assert voltage_census(base, volt) == _voltage_census_reference(base, volt)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
# n^3 passes 2^63, but max(m)^2 * n does not, so the sums stay in int64
@example(n_rows=1, n=(1 << 21) + 1, values=4, seed=0)
# one run of 4 * 2^20 equal keys: C(m, 3) passes 2^63 and is summed in
# Python ints
@example(n_rows=1, n=4 << 20, values=1, seed=0)
def test_run_totals_matches_value_counts(n_rows, n, values, seed):
    """On row-sorted keys, _pairs and _triples of _runs are sum C(m,2) and
    sum C(m,3) over the multiplicities m of each row's keys: a run never
    joins the equal keys that end the row before it.  Each run starts at
    its first key, and the sums are taken in int64 exactly when
    max(m)^2 times the number of keys is below 2^63."""
    rows = np.random.default_rng(seed).integers(0, values, (n_rows, n)).astype(np.uint16)
    rows.sort(axis=1)
    counts = [m for row in rows.tolist() for m in Counter(row).values()]
    expect = sum(comb(m, 2) for m in counts), sum(comb(m, 3) for m in counts)
    first, runs = census_module._runs(rows)
    assert (census_module._pairs(runs), census_module._triples(runs)) == expect
    flat = rows.reshape(-1)
    assert (flat[first] == flat[first + 1]).all()
    assert (runs.dtype == object) == (max(counts) ** 2 * rows.size >= 1 << 63)


@pytest.mark.parametrize(
    "d, s", [(d, s) for d in (5, 8) for s in (48, 49, 60, 61)] + [(13, 49), (13, 60)]
)
def test_voltage_census_matches_reference_wide_bits(d, s):
    """Wide level masks: uint64 keys up to the limit of s = 61.  Two
    low-bit-sharing variants make some wide voltages coincide, so the
    counts are not trivially those of distinct random masks."""
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed=d * 100 + s)
    high = {e: (m & 1) << (s - 1) for e, m in volt.level_bits.items() if m & 1}
    for v in (volt, volt0.with_bits(s, high)):
        assert voltage_census(base, v) == _voltage_census_reference(base, v)
    assert voltage_census(base, volt0.with_bits(s, high)).c6 > 0


@pytest.mark.parametrize("stages", [1, 2, None])
@pytest.mark.parametrize("d", [13, 20, 33])
def test_voltage_census_matches_c6_triples(certified, d, stages):
    """The 6-cycles of the walk identity equal the white-triple count on the
    Wenger certificates, truncated to 1 and 2 stages (c6 large) and in full
    (c6 zero)."""
    cert, base, volt, _ = certified(d)
    volt = volt if stages is None else volt.truncate(stages)
    c6 = voltage_census(base, volt).c6
    assert c6 == _voltage_c6_triples(base, volt)
    assert (c6 > 0) == (stages is not None)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=11, max_value=24),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=10**6),
)
def test_voltage_census_c6_matches_triples(d, s, seed):
    """Above the reach of the loop oracle, random bits give the white-triple
    count's c6."""
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed)
    assert voltage_census(base, volt).c6 == _voltage_c6_triples(base, volt)


_KEY_TYPES = {13: np.uint16, 14: np.uint32, 29: np.uint32, 30: np.uint64, 61: np.uint64}


@pytest.mark.parametrize("s", [13, 14, 21, 22, 29, 30, 61, 62])
@pytest.mark.parametrize("d", [5, 6])
def test_voltage_census_matches_reference_key_width_boundary(d, s):
    """A key holds s level bits and 3 parity bits: s = 13, 29 and 61 are the
    widest uint16, uint32 and uint64 keys, and the next s the first of the
    wider type, but for s = 62, which no voltage has (MAX_STAGES).  At each
    other s, and at s = 21 and 22, the census agrees with the reference on
    random bits and on a high-bits-only variant that puts only bit s - 1 on
    the edges, so wide keys coincide and the top level bit sits just below
    the parity bits."""
    base, volt0 = build_base_graph(d)
    if s > MAX_STAGES:
        with pytest.raises(ValueError, match=f"0 to {MAX_STAGES} lift stages, not s={s}"):
            random_bits_voltage(base, volt0, s, seed=d * 100 + s)
        return
    volt = random_bits_voltage(base, volt0, s, seed=d * 100 + s)
    high = {e: (m & 1) << (s - 1) for e, m in volt.level_bits.items() if m & 1}
    for v in (volt, volt0.with_bits(s, high)):
        if s in _KEY_TYPES:
            assert census_module._edge_keys(base, v).dtype == np.dtype(_KEY_TYPES[s])
        assert voltage_census(base, v) == _voltage_census_reference(base, v)


def _census_rows(base):
    """Every row of walks voltage_census compares, as lists of vertex
    walks: the 2-paths of each white pair, the 2-paths of each black pair,
    and the 3-walks i -> a -> j -> b (j > i) of each (i, b)."""
    whites, blacks = base_whites(base), base_blacks(base)
    for i, j in itertools.combinations(whites, 2):
        yield [(i, c, j) for c in blacks]
    for c, c2 in itertools.combinations(blacks, 2):
        yield [(c, w, c2) for w in whites]
    for i in whites[:-1]:
        for b in blacks:
            yield [(i, a, j, b) for a in blacks for j in whites if j > i]


def _walk_disp(base, walk):
    steps = [edge_disp(base, u, v) for u, v in itertools.pairwise(walk)]
    return tuple(map(sum, zip(*steps)))


def _parity_fixes_disp(disps):
    return len({tuple(x % 2 for x in t) for t in disps}) == len(set(disps))


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_parity_fixes_displacement_within_census_rows(d):
    """The lemma behind the parity keys, by brute force: within every row
    the census compares, two walks with equal displacement parities have
    equal Z^3 displacements.  Across rows it fails: the 3-walks of all rows
    together reach displacements of both signs with one parity."""
    base, _ = build_base_graph(d)
    all_walks = set()
    for row in _census_rows(base):
        disps = [_walk_disp(base, w) for w in row]
        assert _parity_fixes_disp(disps), row
        if len(row[0]) == 4:
            all_walks.update(disps)
    assert not _parity_fixes_disp(all_walks)


def test_voltage_census_refuses_shifts_parity_cannot_key():
    """Parity keys are exact only while each axis moves at most one base
    edge, by a unit step.  A second edge moved on one axis, or a move by 2,
    is refused; another one-edge-per-axis placement is counted and agrees
    with the reference."""
    d, s = 6, 3
    cube_base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(cube_base, volt0, s, seed=7)
    cube = cube_base.shifts
    two_edges, by_two, moved = cube.copy(), cube.copy(), np.zeros_like(cube)
    two_edges[1, d - 3] = (-1, 0, 0)
    by_two[0, d - 3] = (-2, 0, 0)
    moved[2, 2], moved[3, 3], moved[4, 2] = (1, 0, 0), (0, -1, 0), (0, 0, 1)
    for shifts in (two_edges, by_two):
        base = build_base_graph(d)[0]
        vars(base)["shifts"] = shifts
        with pytest.raises(ValueError, match="one moved base edge per axis"):
            voltage_census(base, volt)
    base = build_base_graph(d)[0]
    vars(base)["shifts"] = moved
    assert voltage_census(base, volt) == _voltage_census_reference(base, volt)


@pytest.mark.parametrize(
    "d, s, seed", [(7, 1, 3), (8, 2, 5), (9, 1, 8), (10, 3, 13), (13, 2, 21), (16, 1, 34), (20, 2, 55)]
)
def test_voltage_census_matches_dfs_recheck(d, s, seed):
    """Per-cube zero-voltage cycles are 2^s times the uncovered constraint
    cycles the DFS finds one by one."""
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed)
    _, bad4, bad6 = recheck_constraints_dfs(base, volt)
    vc = voltage_census(base, volt)
    assert bad4 > 0 and bad6 > 0
    assert vc.c4_stray >> s == bad4 and vc.c4_stray == bad4 << s
    assert vc.c6 >> s == bad6 and vc.c6 == bad6 << s
