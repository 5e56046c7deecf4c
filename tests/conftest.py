import functools
import importlib.util
import itertools
import json
import math
import random
import re
import signal
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from thetalattice import linalg
from thetalattice.graphs import (
    CENTRAL_TAGS,
    ROLE_TAGS,
    LabeledGraph,
    _bfs,
    _csr,
    _edge_array,
    _level_string,
    graph_to_json,
    level_uint,
)
from thetalattice.census import CensusReport
from thetalattice.embed import Try
from thetalattice.errors import GridTooCoarse, MalformedGraph, TooLarge
from thetalattice.voltage import UNIT, BaseGraph, LiftCertificate, build_base_graph, derived_cover

ZERO3 = (0, 0, 0)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name):
    """The benchmark's module perfbench/<name>.py, loaded from its file (the
    benchmark is read, never edited), once per session."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


# ---------------------------------------------------------------------------
# label objects and small-graph views: the second graph model the oracles
# use.  The package holds graphs as arrays alone; these convert label
# objects to those arrays and back.


def _name_parts(name):
    """(tag, index digits) of a role name such as c12, t or vx, read with a
    pattern of its own rather than the package's role_rank."""
    return re.fullmatch(r"([a-z]+)([0-9]*)", name).groups()


def name_tag(name):
    return _name_parts(name)[0]


def name_order(name):
    """(position of its tag in ROLE_TAGS, integer index) of a role name: the
    oracle of the order of every role table."""
    tag, index = _name_parts(name)
    return ROLE_TAGS.index(tag), int(index or 0)


@dataclass(frozen=True)
class VertexLabel:
    role: str
    level: str = ""
    cell: tuple = ZERO3

    @property
    def tag(self):
        return name_tag(self.role)

    @property
    def sort_key(self):
        return (*name_order(self.role), level_uint(self.level), self.cell)

    def __str__(self) -> str:
        name = self.role
        if self.level:
            name += f"@{self.level}"
        if self.cell != ZERO3:
            name += f"{self.cell}"
        return name


def labeled_graph(labels, edges, d=None):
    """The graph whose vertex v has the VertexLabel labels[v], with its
    role, level and cell arrays built one label at a time and the edge
    pairs, in any orientation and order, checked by the package's
    _edge_array: a loop, an end out of range or a repeated edge raises
    ValueError."""
    labs = list(labels)
    lengths = {len(lab.level) for lab in labs}
    assert len(lengths) <= 1, "levels of different lengths"
    roles = tuple(sorted({lab.role for lab in labs}, key=name_order))
    code = {r: i for i, r in enumerate(roles)}
    return LabeledGraph(
        len(labs),
        _edge_array(len(labs), np.array(list(edges), dtype=np.int64).reshape(-1, 2)),
        d,
        roles,
        np.array([code[lab.role] for lab in labs], dtype=np.int64),
        np.array([level_uint(lab.level) for lab in labs], dtype=np.int64),
        lengths.pop() if lengths else 0,
        np.array([lab.cell for lab in labs], dtype=np.int64).reshape(-1, 3),
    )


def vertex_labels(g):
    """One VertexLabel per vertex of g, read from its arrays."""
    levels = {lev: _level_string(lev, g.level_length) for lev in set(g.levels.tolist())}
    return tuple(
        VertexLabel(g.roles[code], levels[lev], tuple(cell))
        for code, lev, cell in zip(g.role_codes.tolist(), g.levels.tolist(), g.cells.tolist())
    )


def adjacency_lists(g):
    """The neighbours of every vertex, ascending, as tuples."""
    start, nbr = _csr(g.vertex_count, g.edge_array)
    start, nbr = start.tolist(), nbr.tolist()
    return tuple(tuple(nbr[start[v]:start[v + 1]]) for v in range(g.vertex_count))


def degree(g, v):
    return int(np.count_nonzero(g.edge_array == v))


def degree_histogram(g):
    """degree -> number of vertices of that degree."""
    degrees = np.bincount(g.edge_array.ravel(), minlength=g.vertex_count)
    values, counts = np.unique(degrees, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def _proper_coloring(g, parity):
    """Whether the BFS parities color every edge's ends differently."""
    return not np.any(parity[g.edge_array[:, 0]] == parity[g.edge_array[:, 1]])


# ---------------------------------------------------------------------------
# label-object graph builders: oracles for derived_cover and BaseGraph.central


def from_labeled_vertices(labels, edges_by_label, d=None):
    """Build a graph from labels, assigning ids in canonical label order."""
    labs = sorted(set(labels), key=lambda lab: lab.sort_key)
    ids = {lab: i for i, lab in enumerate(labs)}
    edges = tuple((ids[a], ids[b]) for a, b in edges_by_label)
    return labeled_graph(labs, edges, d)


def label_index(g):
    """Map (role, level, cell) -> vertex id."""
    out = {}
    for v, lab in enumerate(vertex_labels(g)):
        key = (lab.role, lab.level, lab.cell)
        if key in out:
            raise MalformedGraph(f"duplicate label {lab}")
        out[key] = v
    return out


def root_unit_graph_reference(d):
    """The (2d+3)-vertex root unit graph written out from its description:
    black spokes c_1..c_d; white hubs t, b joined to every spoke; white
    fillers f_1..f_{d-5} joined to every spoke; one-sided connectors
    lx, ly, lz (degree 1, attached to c_1) and rx, ry, rz (degree d-1,
    attached to c_2..c_d).  The oracle for build_root_unit_graph."""
    c = [VertexLabel(f"c{i}") for i in range(1, d + 1)]
    t, b = VertexLabel("t"), VertexLabel("b")
    f = [VertexLabel(f"f{j}") for j in range(1, d - 4)]
    lx, ly, lz = map(VertexLabel, ("lx", "ly", "lz"))
    rx, ry, rz = map(VertexLabel, ("rx", "ry", "rz"))
    edges = []
    for ci in c:
        edges.append((t, ci))
        edges.append((b, ci))
        for fj in f:
            edges.append((ci, fj))
    edges += [(lx, c[0]), (ly, c[0]), (lz, c[0])]
    for ci in c[1:]:
        edges += [(rx, ci), (ry, ci), (rz, ci)]
    return from_labeled_vertices([*c, t, b, *f, lx, ly, lz, rx, ry, rz], edges, d)


def central_subgraph_reference(g):
    """The hub/spoke vertices of g and its (t,c_i), (b,c_i) edges, gathered
    one VertexLabel at a time and numbered by from_labeled_vertices: the
    disjoint union of the central copies of a cover, and the oracle for
    BaseGraph.central."""
    labels = vertex_labels(g)
    keep = [v for v, lab in enumerate(labels) if lab.tag in CENTRAL_TAGS]
    edges = []
    for u, v in g.edges:
        tags = {labels[u].tag, labels[v].tag}
        if tags in ({"t", "c"}, {"b", "c"}):
            edges.append((labels[u], labels[v]))
    return from_labeled_vertices((labels[v] for v in keep), edges, g.d)


def plain_graph(n, edges):
    """A simple graph for counting tests whose labels carry nothing: every
    vertex is the filler f1 at level "" in cell 0, so no 4-cycle is
    central."""
    return labeled_graph([VertexLabel("f1")] * n, edges)


def cycle_graph(k):
    return plain_graph(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(m, n):
    return plain_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def labeled_k2d(d):
    """K_{2,d} with hub/spoke roles (a standalone central copy)."""
    t, b = VertexLabel("t"), VertexLabel("b")
    c = [VertexLabel(f"c{i}") for i in range(1, d + 1)]
    edges = [(t, ci) for ci in c] + [(b, ci) for ci in c]
    return from_labeled_vertices([t, b, *c], edges, d)


def labeled_cycle4():
    """A lone labeled 4-cycle with no central edges (c-f alternation)."""
    c1, c2 = VertexLabel("c1"), VertexLabel("c2")
    f1, f2 = VertexLabel("f1"), VertexLabel("f2")
    return from_labeled_vertices([c1, f1, c2, f2], [(c1, f1), (f1, c2), (c2, f2), (f2, c1)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return plain_graph(n, edges)


def random_bipartite_graph(rng, n, p):
    """A graph on n vertices split at random into two sides, interleaved in
    id order, with each pair across the split an edge with probability p."""
    side = [rng.random() < 0.5 for _ in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if side[i] != side[j] and rng.random() < p]
    return plain_graph(n, edges)


def torus_with_same_colour_edge():
    """(graph JSON record, (u, v)): the n = 2 torus of the pinned d = 10
    certificate cut to 3 stages (1,280 vertices), plus the edge (u, v)
    between the first two neighbours of vertex 0.  Both lie at depth 1 of
    the breadth-first search from vertex 0, which the new edge does not
    change, so (u, v) is its one edge with both ends of one colour."""
    cert = LiftCertificate.from_json((PERFBENCH / "pinned" / "cert_d10_seed1.json").read_text())
    base, _ = build_base_graph(cert.d)
    torus = derived_cover(base, cert.volt.truncate(3), 2)
    u, v = adjacency_lists(torus)[0][:2]
    data = json.loads(graph_to_json(torus))
    data["edges"].append([u, v])
    return data, (u, v)


def _edge_slot(d, u, v):
    """[c, j] of the base edge between u and v in the degree-d arrays."""
    c, w = (u, v) if u < v else (v, u)
    if not 0 <= c < d <= w < 2 * d:
        raise ValueError(f"({u}, {v}) is not a base edge")
    return c, w - d


def edge_disp(base, u, v):
    """The displacement of the base edge u -> v, in either orientation."""
    t = base.shifts[_edge_slot(base.d, u, v)]
    return tuple((t if u < v else -t).tolist())


def edge_bits(volt, u, v):
    """The level mask of the base edge between u and v."""
    return int(volt.masks[_edge_slot(len(volt.masks), u, v)])


def base_roles(base):
    """The role name of every base vertex, read from the base graph's labels."""
    g = base.graph
    return tuple(g.roles[code] for code in g.role_codes.tolist())


def base_whites(base):
    return tuple(v for v, r in enumerate(base_roles(base)) if name_tag(r) != "c")


def base_blacks(base):
    return tuple(v for v, r in enumerate(base_roles(base)) if name_tag(r) == "c")


def base_hubs(base):
    """The ids (t, b) of the hubs, read from the roles."""
    roles = base_roles(base)
    return roles.index("t"), roles.index("b")


def central_edges(base):
    """The base edges joining a hub t or b to a spoke, read from the roles."""
    hub_spoke = ({"t", "c"}, {"b", "c"})
    tags = [name_tag(r) for r in base_roles(base)]
    return frozenset((u, v) for u, v in base.graph.edges if {tags[u], tags[v]} in hub_spoke)


def noncentral_edges(base):
    """The other base edges, in base edge order."""
    central = central_edges(base)
    return tuple(e for e in base.graph.edges if e not in central)


def random_bits_voltage(base, volt0, s, seed):
    rng = random.Random(seed)
    bits = {e: rng.getrandbits(s) for e in noncentral_edges(base)}
    return volt0.with_bits(s, bits)


def bch_columns(m, width):
    """The 3m-bit level masks of width < 2^m non-central edges.  Edge j gets
    the column (alpha^j, alpha^3j, alpha^5j) of the parity-check matrix of
    the binary BCH code of length n = 2^m - 1 and designed distance 7, alpha
    a root of the first primitive polynomial of degree m; bit i of the
    column is edge j's bit in stage i.  Any 1 to 6 distinct columns sum to
    nonzero (Bose-Ray-Chaudhuri 1960, Hocquenghem 1959), and a constraint
    cycle has 1 to 6 non-central edges, so every constraint is covered."""
    n = (1 << m) - 1
    for poly in range(1 << m | 1, 2 << m, 2):
        power = [1]  # power[k] = x^k mod poly
        for _ in range(n - 1):
            x = power[-1] << 1
            power.append(x ^ poly if x >> m else x)
        if 1 not in power[1:]:  # x has order n: poly is primitive
            break
    return [power[j] | power[3 * j % n] << m | power[5 * j % n] << 2 * m for j in range(width)]


def bch_voltage(base, volt0):
    """A covering voltage that is not a Wenger voltage: the 3m stages of
    bch_columns, m the smallest degree with 2^m - 1 >= d^2 - 2d (the
    non-central edge count)."""
    edges = noncentral_edges(base)
    m = len(edges).bit_length()
    return volt0.with_bits(3 * m, dict(zip(edges, bch_columns(m, len(edges)))))


TIME_LIMIT_S = 30


@pytest.fixture
def time_limit():
    """Fail the test once it has run TIME_LIMIT_S seconds of wall time, so a
    check that should stop a huge input early fails instead of hanging.  The
    SIGALRM handler calls pytest.fail, whose exception is a BaseException:
    the `except` clauses of cli.main cannot swallow it.  The previous
    handler and timer are restored afterwards."""

    def expire(signum, frame):
        pytest.fail(f"still running after the {TIME_LIMIT_S} s time limit", pytrace=False)

    old_handler = signal.signal(signal.SIGALRM, expire)
    old_timer = signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, *old_timer)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture(scope="session")
def certified():
    """Lazily certified lattices shared across tests, with elapsed times."""
    import time

    from thetalattice.certify import certify

    cache = {}

    def get(d, seed=1):
        if d not in cache:
            t0 = time.perf_counter()
            cert = certify(d, seed=seed)
            cache[d] = (cert, BaseGraph(cert.d), cert.volt, time.perf_counter() - t0)
        return cache[d]

    return get


def _c4_theta_reference(g):
    """(4-cycles, K_{2,3} subgraphs) from pair codegrees counted one wedge at
    a time in a Counter: the reference oracle for the codegrees of
    `census`."""
    cod = Counter()
    for nbrs in adjacency_lists(g):
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                cod[(nbrs[i], nbrs[j])] += 1
    total = sum(comb(c, 2) for c in cod.values())
    assert total % 2 == 0
    return total // 2, sum(comb(c, 3) for c in cod.values())


def codegree_triangles_reference(keys, codegree, n, block=1 << 16):
    """census._codegree_triangles as it was before the slot table: each
    pair (a, b) looks up a * n + c for every forward neighbour c of b with
    one searchsorted over all pair keys, in blocks of about `block`
    candidate rows.  The oracle for the slot-table kernel."""
    first, second = np.divmod(keys, n)
    run_start = np.searchsorted(first, second, side="left")
    run_len = np.searchsorted(first, second, side="right") - run_start
    row_end = np.cumsum(run_len)
    row_start = row_end - run_len
    total = 0
    i = 0
    while i < len(keys):
        j = max(int(np.searchsorted(row_end, row_start[i] + block, side="right")), i + 1)
        ab = np.repeat(np.arange(i, j), run_len[i:j])
        bc = np.arange(row_start[i], row_end[j - 1]) + np.repeat(
            run_start[i:j] - row_start[i:j], run_len[i:j]
        )
        need = first[ab] * n + second[bc]
        ac = np.searchsorted(keys, need).clip(max=len(keys) - 1)
        hit = keys[ac] == need
        total += int((codegree[ab] * codegree[bc] * codegree[ac])[hit].sum())
        i = j
    return total


def _central_c4_reference(g):
    """4-cycles of the subgraph of edges whose endpoints both have hub/spoke
    roles at one (cell, level), built as a graph of its own."""
    copy = [(lab.cell, lab.level) if lab.tag in CENTRAL_TAGS else None for lab in vertex_labels(g)]
    edges = [(u, v) for u, v in g.edges if copy[u] is not None and copy[u] == copy[v]]
    return _c4_theta_reference(plain_graph(g.vertex_count, edges))[0]


def _voltage_census_reference(base, volt):
    """The per-cube census by direct loops over white pairs and triples and
    black pairs, with voltages as (dx, dy, dz, bits) tuples: the reference
    oracle for `voltage_census`."""

    def path(w1, c, w2):
        d1, d2 = edge_disp(base, w1, c), edge_disp(base, c, w2)
        return (d1[0] + d2[0], d1[1] + d2[1], d1[2] + d2[2], edge_bits(volt, w1, c) ^ edge_bits(volt, c, w2))

    def add(a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] ^ b[3])

    def neg(a):
        return (-a[0], -a[1], -a[2], a[3])

    d, s = base.d, volt.s
    whites, blacks = base_whites(base), base_blacks(base)
    t_id, b_id = base_hubs(base)

    paths = {}
    for w1, w2 in itertools.combinations(whites, 2):
        paths[(w1, w2)] = [(c, path(w1, c, w2)) for c in blacks]

    zero4 = central4 = theta = 0
    for pair, plist in paths.items():
        counts = Counter(v for _, v in plist)
        pair_c4 = sum(comb(m, 2) for m in counts.values())
        zero4 += pair_c4
        theta += sum(comb(m, 3) for m in counts.values())
        if pair in ((t_id, b_id), (b_id, t_id)):
            central4 += pair_c4
            assert counts[(0, 0, 0, 0)] == d

    for c1, c2 in itertools.combinations(blacks, 2):
        counts = Counter(path(c1, w, c2) for w in whites)
        theta += sum(comb(m, 3) for m in counts.values())

    zero6 = 0
    for w1, w2, w3 in itertools.combinations(whites, 3):
        pa = paths[(w1, w2)]
        pb = paths[(w2, w3)]
        pc = [(c, neg(v)) for c, v in paths[(w1, w3)]]  # oriented w3 -> w1
        cnt_c = Counter(v for _, v in pc)
        val_c = dict(pc)
        for ca, ga in pa:
            for cb, gb in pb:
                if ca == cb:
                    continue
                need = neg(add(ga, gb))
                hits = cnt_c.get(need, 0)
                if hits:
                    if val_c[ca] == need:
                        hits -= 1
                    if val_c[cb] == need:
                        hits -= 1
                    zero6 += hits

    scale = 1 << s
    return CensusReport(scale * zero4, scale * central4, scale * zero6, scale * theta, scale * 2 * d, "per-cube")


def _voltage_c6_triples(base, volt):
    """Per-cube c6 by white triples, the 6-cycle count of the earlier numpy
    voltage census: a second oracle for `voltage_census`, fast enough for
    large d where `_voltage_census_reference` is not.

    For white triples i < j < k, N counts black triples (ca, cb, cc), repeats
    allowed, with P_ij(ca) + P_jk(cb) = P_ik(cc), one searchsorted per white
    pair (i, k) into the distinct keys of P_ik.  A repeated black turns the
    condition into a 4-cycle condition on one white pair, with sum m^2
    solutions over its runs of m equal path keys, and all three equal always
    closes, so by inclusion-exclusion zero6 = sum N - (whites - 2) *
    sum_pairs sum m^2 + 2 * blacks * C(whites, 3).
    """
    # keys of its own, from disp and bits: code x + 64 y + 4096 z, which
    # stays below 4 * 4161 < 2^15 on the 4-edge sums below, so code * 2^s +
    # bits fits int64 up to s = 40
    dtype = np.int64 if volt.s <= 40 else object
    whites, blacks = base_whites(base), base_blacks(base)
    codes = np.array(
        [[x + 64 * y + 4096 * z for x, y, z in (edge_disp(base, w, c) for c in blacks)] for w in whites],
        dtype=dtype,
    )
    bits = np.array([[edge_bits(volt, w, c) for c in blacks] for w in whites], dtype=dtype)
    nw, nb = codes.shape
    scale = 1 << volt.s
    path_code = codes[:, None, :] - codes[None, :, :]
    path_bits = bits[:, None, :] ^ bits[None, :, :]
    path_keys = path_code * scale + path_bits
    n_all = pair_squares = 0
    for i in range(nw):
        for k in range(i + 1, nw):
            closing, counts = np.unique(path_keys[i, k], return_counts=True)
            pair_squares += int((counts * counts).sum())
            if k == i + 1:
                continue
            first_code, first_bits = path_code[i, i + 1 : k], path_bits[i, i + 1 : k]
            second_code, second_bits = path_code[i + 1 : k, k], path_bits[i + 1 : k, k]
            need = (first_code[:, :, None] + second_code[:, None, :]) * scale + (
                first_bits[:, :, None] ^ second_bits[:, None, :]
            )
            at = np.searchsorted(closing, need).clip(max=len(closing) - 1)
            n_all += int(counts[at][closing[at] == need].sum())
    return scale * (n_all - (nw - 2) * pair_squares + 2 * nb * comb(nw, 3))


# ---------------------------------------------------------------------------
# integer row lattices: the algebra of the group-check oracle.  Integer
# matrices are lists of lists of python ints, so everything stays exact.


def _echelon(a, u):
    """In-place integer row echelon via gcd elimination; returns the rank.

    Row operations (swap, add integer multiple, negate) are unimodular, so if a
    transform accumulator ``u`` is supplied it stays unimodular and satisfies
    u @ original == a throughout.
    """
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    for c in range(n):
        if r >= m:
            break
        while True:
            piv = None
            for i in range(r, m):
                if a[i][c] != 0 and (piv is None or abs(a[i][c]) < abs(a[piv][c])):
                    piv = i
            if piv is None:
                break
            others = False
            for i in range(r, m):
                if i != piv and a[i][c] != 0:
                    q = a[i][c] // a[piv][c]
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[piv])]
                        if u is not None:
                            u[i] = [x - q * y for x, y in zip(u[i], u[piv])]
                    if a[i][c] != 0:
                        others = True
            if not others:
                a[r], a[piv] = a[piv], a[r]
                if u is not None:
                    u[r], u[piv] = u[piv], u[r]
                r += 1
                break
    return r


def spans_full_lattice(rows, ncols):
    """True iff the integer row span of rows is all of Z^ncols.

    The rows generate Z^ncols exactly when the echelon form has full rank and
    every pivot is a unit (the product of pivot magnitudes is the index of the
    generated sublattice).
    """
    a = [list(map(int, row)) for row in rows]
    if not a:
        return ncols == 0
    rank = _echelon(a, None)
    if rank < ncols:
        return False
    index = 1
    for i in range(rank):
        piv = next((x for x in a[i] if x != 0), 0)
        index *= abs(piv)
    return index == 1


def kernel_basis(rows):
    """Basis of the integer kernel lattice {a in Z^m : a @ rows == 0}.

    Tracks a unimodular transform U with U @ rows in echelon form; the rows of
    U whose image is zero form a basis of the (saturated) kernel lattice.
    """
    m = len(rows)
    if m == 0:
        return []
    a = [list(map(int, row)) for row in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    rank = _echelon(a, u)
    return [u[i] for i in range(rank, m)]


def gf2_in_span(vec, rows):
    """True iff vec lies in the GF(2) span of bitset rows."""
    return linalg.gf2_rank(list(rows) + [vec]) == linalg.gf2_rank(rows)


def kernel_basis_sparse(rows):
    """Integer kernel basis of rows as length-m vectors: a standard basis
    vector for each zero row, and kernel_basis of the nonzero rows
    scattered back to their indices."""
    m = len(rows)
    nonzero = [i for i, row in enumerate(rows) if any(x != 0 for x in row)]
    basis = []
    for i in sorted(set(range(m)) - set(nonzero)):
        e = [0] * m
        e[i] = 1
        basis.append(e)
    for small in kernel_basis([rows[i] for i in nonzero]):
        e = [0] * m
        for pos, coeff in zip(nonzero, small):
            e[pos] = coeff
        basis.append(e)
    return basis


def fundamental_cycle_voltages_reference(base, volt):
    """Net (displacement, bits) voltages of the fundamental cycles of a BFS
    spanning tree rooted at vertex 0, walked one edge at a time over the
    base graph's displacements and the voltage's bits."""
    g = base.graph
    adjacency = adjacency_lists(g)
    tree_volt = [(ZERO3, 0)] * g.vertex_count
    seen = [False] * g.vertex_count
    seen[0] = True
    order = [0]
    head = 0
    tree_edges = set()
    while head < len(order):
        v = order[head]
        head += 1
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = True
                tree_volt[w] = (vadd(tree_volt[v][0], edge_disp(base, v, w)), tree_volt[v][1] ^ edge_bits(volt, v, w))
                tree_edges.add((min(v, w), max(v, w)))
                order.append(w)
    assert all(seen), "base graph is disconnected"
    out = []
    for u, v in g.edges:
        if (u, v) in tree_edges:
            continue
        back = tuple(-x for x in tree_volt[v][0])
        disp = vadd(vadd(tree_volt[u][0], edge_disp(base, u, v)), back)
        out.append((disp, tree_volt[u][1] ^ edge_bits(volt, u, v) ^ tree_volt[v][1]))
    return out


def _voltage_group_generated_reference(base, volt):
    """The group check over every fundamental cycle: the displacement rows
    must span Z^3, and the level bits folded over each dense vector of
    kernel_basis_sparse, one coefficient at a time, must span GF(2)^s.  The
    general reference oracle for the closed form of
    `voltage_group_generated`, on the cycles of
    fundamental_cycle_voltages_reference: it assumes nothing about which
    edges move."""
    cyc = fundamental_cycle_voltages_reference(base, volt)
    disp_rows = [list(t) for t, _ in cyc]
    if not spans_full_lattice(disp_rows, 3):
        return False
    if volt.s == 0:
        return True
    masks = []
    for combo in kernel_basis_sparse(disp_rows):
        m = 0
        for coeff, (_, bits) in zip(combo, cyc):
            if coeff & 1:
                m ^= bits
        masks.append(m)
    return linalg.gf2_rank(masks) == volt.s


def _cycle_displacement(base, seq):
    """Net displacement of a closed walk, one edge at a time."""
    total = ZERO3
    for i, u in enumerate(seq):
        total = vadd(total, edge_disp(base, u, seq[(i + 1) % len(seq)]))
    return total


def _cycle_mask(seq, nc_index):
    mask = 0
    for i, u in enumerate(seq):
        v = seq[(i + 1) % len(seq)]
        j = nc_index.get((u, v) if u < v else (v, u))
        if j is not None:
            mask ^= 1 << j
    return mask


@dataclass(frozen=True)
class ReferenceCycle:
    vertices: tuple  # the closed walk, white first
    mask: int  # incidence over non-central base edges


def _constraint_cycles_reference(base, volt):
    """The constraint cycles by direct loops over white pairs x black pairs and
    white triples x black 3-permutations, one cycle at a time: the reference
    oracle for the constraint counts of `recheck_constraints_dfs` and
    `constraint_count_formula`."""
    whites, blacks = base_whites(base), base_blacks(base)
    t_id, b_id = base_hubs(base)
    nc_index = {e: j for j, e in enumerate(noncentral_edges(base))}
    walks = []
    for w1, w2 in itertools.combinations(whites, 2):
        if {w1, w2} == {t_id, b_id}:
            continue  # every 4-cycle on the hub pair is central
        walks.extend((w1, c1, w2, c2) for c1, c2 in itertools.combinations(blacks, 2))
    for w1, w2, w3 in itertools.combinations(whites, 3):
        walks.extend(
            (w1, ca, w2, cb, w3, cc) for ca, cb, cc in itertools.permutations(blacks, 3)
        )
    return tuple(
        ReferenceCycle(seq, _cycle_mask(seq, nc_index))
        for seq in walks
        if _cycle_displacement(base, seq) == ZERO3
    )


# ---------------------------------------------------------------------------
# short-cycle DFS: the 6-cycle oracle for census() and the cycle list of the
# re-check oracle


def _short_cycles(g):
    """All simple cycles of length <= 6 by min-rooted DFS.

    Structurally independent of the codegree counters of census and of the
    certificate re-check in certify, which has a counting DFS of its own:
    generic path extension with vertex-order pruning, direction fixed by
    requiring the second vertex below the last.
    """
    cycles = []
    adjacency = adjacency_lists(g)
    for root in range(g.vertex_count):
        _extend_path(adjacency, root, [root], {root}, cycles)
    return cycles


def _extend_path(adj, root, path, on_path, cycles):
    """Record the cycles that close path back to root, then extend it by
    every vertex above root not on it, while it has fewer than 6 vertices.

    A module-level function rather than a closure: a nested function that
    calls itself sits in a reference cycle with its cells, which would keep
    the cycle list alive after the caller drops it, until a cyclic GC.
    """
    v = path[-1]
    if len(path) == 6:  # only closing back to root is left
        if path[1] < v and root in adj[v]:
            cycles.append(tuple(path))
        return
    for w in adj[v]:
        if w == root:
            if len(path) >= 3 and path[1] < v:
                cycles.append(tuple(path))
        elif w > root and w not in on_path:
            path.append(w)
            on_path.add(w)
            _extend_path(adj, root, path, on_path, cycles)
            on_path.remove(w)
            path.pop()


def dfs_c6(g):
    """6-cycles of the min-rooted short-cycle enumeration."""
    return sum(1 for seq in _short_cycles(g) if len(seq) == 6)


def _recheck_constraints_dfs_reference(base, volt):
    """(constraint count, uncovered 4-cycles, uncovered 6-cycles) from the
    full cycle list of _short_cycles, each cycle walked again for its
    (dx, dy, dz) sum and bit XOR: the reference oracle for
    `recheck_constraints_dfs`."""
    t_id, b_id = base_hubs(base)
    step = {}
    for u, v in base.graph.edges:
        (dx, dy, dz), m = edge_disp(base, u, v), edge_bits(volt, u, v)
        step[u, v] = (dx, dy, dz, m)
        step[v, u] = (-dx, -dy, -dz, m)
    n_constraints = bad4 = bad6 = 0
    for seq in _short_cycles(base.graph):
        x = y = z = total = 0
        u = seq[-1]
        for v in seq:
            dx, dy, dz, m = step[u, v]
            x += dx
            y += dy
            z += dz
            total ^= m
            u = v
        if x or y or z:
            continue
        if len(seq) == 4 and t_id in seq and b_id in seq:
            continue  # central
        n_constraints += 1
        if total == 0:
            if len(seq) == 4:
                bad4 += 1
            else:
                bad6 += 1
    return n_constraints, bad4, bad6


# ---------------------------------------------------------------------------
# explicit 2-lifts and component checks: oracles for derived_cover

def central_copies(g: LabeledGraph) -> tuple[LabeledGraph, ...]:
    """The vertex-disjoint central copies of a (lifted) graph, grouped by
    (cell, level) and returned in canonical order: the per-level split of
    `central_subgraph_reference`."""
    whole = central_subgraph_reference(g)
    labels = vertex_labels(whole)
    groups: dict[tuple, list[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault((lab.cell, level_uint(lab.level)), []).append(v)
    copies = []
    for key in sorted(groups):
        members = set(groups[key])
        edges = [(labels[u], labels[v]) for u, v in whole.edges if u in members and v in members]
        copies.append(from_labeled_vertices((labels[v] for v in members), edges, whole.d))
    return tuple(copies)


class CentralEdgeCrossed(ValueError):
    """A 2-lift signing marked a central (hub) edge as crossed."""


@dataclass(frozen=True)
class Signing:
    """Total assignment of parallel/crossed to the edges of one graph."""

    assignment: dict  # edge -> "parallel" or "crossed"

    def sign(self, u: int, v: int) -> str:
        return self.assignment[(min(u, v), max(u, v))]

    @classmethod
    def from_crossed(cls, g: LabeledGraph, crossed) -> "Signing":
        crossed_set = {(min(u, v), max(u, v)) for u, v in crossed}
        unknown = crossed_set - set(g.edges)
        if unknown:
            raise ValueError(f"crossed edges not in graph: {sorted(unknown)}")
        return cls({e: ("crossed" if e in crossed_set else "parallel") for e in g.edges})


def two_lift(g: LabeledGraph, sgn: Signing) -> LabeledGraph:
    """Double cover determined by the signing: the iterated 2-lift oracle that
    `derived_cover` must equal.

    Each vertex splits into bit-0 and bit-1 copies (the new bit is appended to
    the level).  A parallel edge (u,v) lifts to (u0,v0),(u1,v1); a crossed edge
    to (u0,v1),(u1,v0).  Edges projecting onto central edges must be parallel.
    """
    labels = vertex_labels(g)
    missing = set(g.edges) - set(sgn.assignment)
    if missing:
        raise ValueError(f"signing not total, missing {sorted(missing)}")
    extra = set(sgn.assignment) - set(g.edges)
    if extra:
        raise ValueError(f"signing mentions non-edges {sorted(extra)}")
    for u, v in g.edges:
        tags = {labels[u].tag, labels[v].tag}
        if tags in ({"t", "c"}, {"b", "c"}) and sgn.sign(u, v) == "crossed":
            raise CentralEdgeCrossed(f"central edge ({u},{v}) marked crossed")

    def lifted(v: int, bit: int) -> VertexLabel:
        lab = labels[v]
        return VertexLabel(lab.role, lab.level + str(bit), lab.cell)

    lifted_labels = [lifted(v, bit) for v in range(g.vertex_count) for bit in (0, 1)]
    edges = []
    for u, v in g.edges:
        if sgn.sign(u, v) == "parallel":
            edges.append((lifted(u, 0), lifted(v, 0)))
            edges.append((lifted(u, 1), lifted(v, 1)))
        else:
            edges.append((lifted(u, 0), lifted(v, 1)))
            edges.append((lifted(u, 1), lifted(v, 0)))
    return from_labeled_vertices(lifted_labels, edges, g.d)


def two_coloring(g: LabeledGraph) -> list[int] | None:
    """A proper 2-coloring, or None if the graph is not bipartite: the parity
    of each vertex's breadth-first depth from the smallest vertex of its
    component, from the package's _bfs and _proper_coloring."""
    _, parity = _bfs(*_csr(g.vertex_count, g.edge_array))
    return parity.tolist() if _proper_coloring(g, parity) else None


def _components(g: LabeledGraph) -> list[int]:
    """Component numbers per vertex, numbered in order of their smallest
    vertex, from the package's _bfs."""
    root, _ = _bfs(*_csr(g.vertex_count, g.edge_array))
    return np.unique(root, return_inverse=True)[1].tolist()


def two_coloring_reference(g: LabeledGraph) -> list[int] | None:
    """A proper 2-coloring by a stack search over the adjacency view, each
    component started at its smallest vertex with color 0, or None if the
    graph is not bipartite: the reference for two_coloring."""
    adjacency = adjacency_lists(g)
    color = [-1] * g.vertex_count
    for start in range(g.vertex_count):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def components_reference(g: LabeledGraph) -> list[int]:
    """Component numbers per vertex by a stack search, numbered in order of
    their smallest vertex: the reference for _components."""
    adjacency = adjacency_lists(g)
    comp = [-1] * g.vertex_count
    c = 0
    for start in range(g.vertex_count):
        if comp[start] != -1:
            continue
        comp[start] = c
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if comp[w] == -1:
                    comp[w] = c
                    stack.append(w)
        c += 1
    return comp


def connected_components(g: LabeledGraph) -> list[list[int]]:
    """Vertex lists of the components, in order of their smallest vertex."""
    comp = _components(g)
    out: dict[int, list[int]] = {}
    for v, c in enumerate(comp):
        out.setdefault(c, []).append(v)
    return [out[c] for c in sorted(out)]


def drops_last_bit_covering(lift: LabeledGraph, base: LabeledGraph) -> bool:
    """Check that forgetting the last level bit maps each lift vertex's
    neighborhood bijectively onto its image's neighborhood."""
    lift_labels = vertex_labels(lift)
    base_ids = label_index(base)
    try:
        img = [base_ids[(lab.role, lab.level[:-1], lab.cell)] for lab in lift_labels]
    except KeyError:
        return False
    lift_adj, base_adj = adjacency_lists(lift), adjacency_lists(base)
    for v in range(lift.vertex_count):
        images = sorted(img[w] for w in lift_adj[v])
        if images != sorted(set(images)):
            return False
        if images != list(base_adj[img[v]]):
            return False
    return True


# ---------------------------------------------------------------------------
# structural validator and central copy counts: oracles for the covers


@dataclass(frozen=True)
class ValidationReport:
    simple: bool
    bipartite: bool
    roles_bipartition_ok: bool
    degree_histogram: dict[int, int]
    regular_ok: bool | None
    passed: bool = field(init=False)

    def __post_init__(self):
        ok = self.simple and self.bipartite and self.roles_bipartition_ok
        if self.regular_ok is not None:
            ok = ok and self.regular_ok
        object.__setattr__(self, "passed", ok)

    def to_dict(self) -> dict:
        return {
            "simple": self.simple,
            "bipartite": self.bipartite,
            "roles_bipartition_ok": self.roles_bipartition_ok,
            "degree_histogram": {str(k): v for k, v in sorted(self.degree_histogram.items())},
            "regular_ok": self.regular_ok,
            "passed": self.passed,
        }


def validate(g: LabeledGraph, expect_regular: int | None = None) -> ValidationReport:
    """Report simplicity, bipartiteness (black = c-roles), the degree
    histogram, and optional d-regularity.  Never raises."""
    root, parity = _bfs(*_csr(g.vertex_count, g.edge_array))
    bipartite = _proper_coloring(g, parity)
    # every component must color all c-roles one class and the rest the
    # other: a black vertex's parity, a white one's flipped, is the same
    # over the component as at its root
    black = np.array([name_tag(r) == "c" for r in g.roles])[g.role_codes]
    side = parity ^ ~black
    roles_ok = bipartite and bool(np.array_equal(side, side[root]))
    histogram = degree_histogram(g)
    regular_ok = None
    if expect_regular is not None:
        regular_ok = set(histogram) <= {expect_regular}
    return ValidationReport(True, bipartite, roles_ok, histogram, regular_ok)


def central_counts(d: int) -> tuple[int, int]:
    """(4-cycles, theta graphs) of one central copy K_{2,d}."""
    if d < 2:
        raise ValueError("d must be >= 2")
    return d * (d - 1) // 2, d * (d - 1) * (d - 2) // 6


# ---------------------------------------------------------------------------
# exact power series, as lists of Fractions truncated after n terms, and a
# matching counter: the oracle for entropy.d6_coefficient


def _padded(a, n):
    return [Fraction(c) for c in a[:n]] + [Fraction(0)] * (n - len(a))


def series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a[:n]):
        for j, y in enumerate(b[: n - i]):
            out[i + j] += x * y
    return out


def series_log(a, n):
    """ln a, a[0] == 1: the integral of q = a'/a, solved from a q = a'."""
    a = _padded(a, n)
    assert a[0] == 1
    q = []
    for k in range(n - 1):
        q.append((k + 1) * a[k + 1] - sum(q[j] * a[k - j] for j in range(k)))
    return [Fraction(0)] + [q[k] / (k + 1) for k in range(n - 1)]


def series_compose(f, g, n):
    """f(g(p)), g[0] == 0, by Horner's rule."""
    assert g[0] == 0
    out = [Fraction(0)] * n
    for c in reversed(f[:n]):
        out = series_mul(out, g, n)
        out[0] += c
    return out


def series_reversion(g, n):
    """The x(p) with g(x(p)) = p, g[0] == 0 != g[1]: each pass of
    x <- x + (p - g(x)) / g[1] fixes one more term."""
    x = [Fraction(0)] * n
    for _ in range(n):
        gx = series_compose(g, x, n)
        x = [x[k] + ((k == 1) - gx[k]) / g[1] for k in range(n)]
    return x


def matching_counts(n, edges, k_max):
    """[m_0, ..., m_k_max]: the matchings of k edges of the graph on
    vertices 0..n-1, by a recursion over vertex bitmasks on the smallest
    vertex left, unmatched or matched to a neighbour left."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    @functools.cache
    def count(mask):
        if not mask:
            return (1,) + (0,) * k_max
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = list(count(rest))
        nbrs = adj[v] & rest
        while nbrs:
            u = nbrs & -nbrs
            nbrs ^= u
            sub = count(rest & ~u)
            for k in range(k_max):
                out[k + 1] += sub[k]
        return tuple(out)

    return list(count((1 << n) - 1))


# ---------------------------------------------------------------------------
# label-object cover builder and dict-based graph writers: oracles for the
# array-backed derived_cover, graph_to_json and graph_to_dot


def derived_cover_reference(base, volt, n=None):
    """The cover of derived_cover built one VertexLabel at a time: the fiber
    of a role is a VertexLabel per (cell, level), an edge (u, v) with
    displacement t and mask m joins (u, z, l) to (v, z + t, l xor m), and
    from_labeled_vertices numbers the vertices in canonical label order.
    With n=None a connector v* is l* on its displaced edge and r* on the
    others."""
    s = volt.s
    levels = [format(lev, f"0{s}b")[::-1] if s else "" for lev in range(1 << s)]
    cells = [ZERO3] if n is None else [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
    cell_index = {z: i for i, z in enumerate(cells)}
    fibers = {}
    roles = base_roles(base)

    def fiber(v, t):
        r = roles[v]
        if n is None and r in UNIT:
            r = ("l" if t != ZERO3 else "r") + r[1]
        if r not in fibers:
            fibers[r] = [[VertexLabel(r, lev, z) for lev in levels] for z in cells]
        return fibers[r]

    edges = []
    for u, v in base.graph.edges:
        t = edge_disp(base, u, v)
        m = edge_bits(volt, u, v)
        above_u, above_v = fiber(u, t), fiber(v, t)
        for i, z in enumerate(cells):
            j = i if n is None else cell_index[(z[0] + t[0]) % n, (z[1] + t[1]) % n, (z[2] + t[2]) % n]
            at_u, at_v = above_u[i], above_v[j]
            edges.extend((at_u[lev], at_v[lev ^ m]) for lev in range(1 << s))
    labels = [lab for above in fibers.values() for row in above for lab in row]
    return from_labeled_vertices(labels, edges, base.d)


# ---------------------------------------------------------------------------
# subset-enumeration census: the oracle for census() on graphs up to 16
# vertices

_BRUTE_LIMIT = 16
# the three distinct 4-cycles on four labeled vertices, as cyclic orders
_FOUR_ORDERS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))


def brute_force_census(g: LabeledGraph) -> CensusReport:
    """Counts by enumerating all 4-, 5- and 6-vertex subsets directly.

    Independent of the codegree/DFS counters; guarded to 16 vertices.
    """
    n = g.vertex_count
    if n > _BRUTE_LIMIT:
        raise TooLarge(f"brute-force census guarded to {_BRUTE_LIMIT} vertices, got {n}")
    mask = [0] * n
    for u, v in g.edges:
        mask[u] |= 1 << v
        mask[v] |= 1 << u

    def adjacent(u: int, v: int) -> bool:
        return bool(mask[u] >> v & 1)

    c4 = 0
    c4_cycles = []
    for sub in itertools.combinations(range(n), 4):
        for order in _FOUR_ORDERS:
            seq = tuple(sub[i] for i in order)
            if all(adjacent(seq[i], seq[(i + 1) % 4]) for i in range(4)):
                c4 += 1
                c4_cycles.append(seq)

    theta = 0
    for sub in itertools.combinations(range(n), 5):
        for hubs in itertools.combinations(range(5), 2):
            u, v = sub[hubs[0]], sub[hubs[1]]
            mids = [sub[i] for i in range(5) if i not in hubs]
            if all(adjacent(u, m) and adjacent(v, m) for m in mids):
                theta += 1

    c6 = 0
    for sub in itertools.combinations(range(n), 6):
        sub_mask = 0
        for v in sub:
            sub_mask |= 1 << v
        if sum((mask[v] & sub_mask).bit_count() for v in sub) < 12:
            continue  # a 6-cycle needs 6 induced edges
        first, rest = sub[0], sub[1:]
        for perm in itertools.permutations(rest):
            if perm[0] > perm[-1]:
                continue  # each cycle once per direction
            seq = (first, *perm)
            if all(adjacent(seq[i], seq[(i + 1) % 6]) for i in range(6)):
                c6 += 1

    labels = vertex_labels(g)
    central = sum(1 for seq in c4_cycles if _is_central_cycle(labels, seq))
    return CensusReport(c4, central, c6, theta, n, "explicit-graph")


def _is_central_cycle(labels, seq: tuple[int, ...]) -> bool:
    labs = [labels[v] for v in seq]
    return (
        all(lab.tag in CENTRAL_TAGS for lab in labs)
        and len({lab.level for lab in labs}) == 1
        and len({lab.cell for lab in labs}) == 1
    )


# ---------------------------------------------------------------------------
# certificate oracles: the dict record LiftCertificate.to_json must write as
# json.dumps(record, indent=2, sort_keys=True), and the per-vertex role
# lookup canonical_edge_order replaced


def certificate_to_json_dict(cert):
    """Stage i is bit i of each mask, one character per base edge in base
    edge order, and edge_order the role names of those edges."""
    masks = cert.volt.masks.reshape(-1).tolist()
    return {
        "d": cert.d,
        "s": cert.s,
        "level_bits": ["".join(str(m >> i & 1) for m in masks) for i in range(cert.s)],
        "edge_order": [list(pair) for pair in canonical_edge_order_reference(BaseGraph(cert.d))],
        "flags": cert.flags.to_dict(),
        "constraint_count": cert.constraint_count,
        "seed": cert.seed,
    }


def canonical_edge_order_reference(base):
    roles = base_roles(base)
    return tuple((roles[u], roles[v]) for u, v in base.graph.edges)


def graph_to_json_dict(g):
    """The JSON record of a labeled graph, one dict per vertex; graph_to_json
    must write the bytes of json.dumps(record, indent=2, sort_keys=True) plus
    a newline."""
    labels = vertex_labels(g)
    return {
        "d": g.d if g.d is not None else 0,
        "s": g.level_length,
        "vertices": [
            {"id": v, "role": lab.role, "level": lab.level, "cell": list(lab.cell)}
            for v, lab in enumerate(labels)
        ],
        "edges": [list(e) for e in g.edges],
    }


def graph_to_dot_reference(g):
    """DOT text of a labeled graph, one line per vertex and edge; node labels
    are role@level."""
    lines = ["graph lattice {"]
    for v, lab in enumerate(vertex_labels(g)):
        name = lab.role + (f"@{lab.level}" if lab.level else "")
        lines.append(f'  v{v} [label="{name}"];')
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fraction-point embedding tries: oracles for embed's integer numerators


def try_points(t):
    """vertex id -> rational point of a try, as Fractions."""
    q = t.denom
    return {v: tuple(Fraction(c, q) for c in row) for v, row in enumerate(t.num.tolist())}


def try_from_points(points, grid_resolution):
    """The embed.Try of a vertex id -> rational point dict with keys 0..n-1:
    numerators over the lcm of the coordinate denominators."""
    assert sorted(points) == list(range(len(points)))
    denom = 1
    for p in points.values():
        for c in p:
            denom = math.lcm(denom, Fraction(c).denominator)
    rows = [[int(Fraction(c) * denom) for c in points[v]] for v in range(len(points))]
    return Try(np.array(rows, dtype=np.int64).reshape(-1, 3), denom, Fraction(grid_resolution))


def try_to_json_dict(t, attempts=None, seed=None):
    """The try as a JSON record, vertex id -> three reduced p/q coordinate
    strings: the oracle of embed.try_to_json, which writes
    json.dumps(try_to_json_dict(t, attempts, seed), indent=2, sort_keys=True)
    + newline."""
    g = np.gcd(t.num, t.denom)
    nums, dens = (t.num // g).tolist(), (t.denom // g).tolist()
    out = {
        "grid_resolution": f"{t.grid_resolution.numerator}/{t.grid_resolution.denominator}",
        "points": {str(v): [f"{a}/{b}" for a, b in zip(n, d)] for v, (n, d) in enumerate(zip(nums, dens))},
    }
    if attempts is not None:
        out["attempts"] = attempts
    if seed is not None:
        out["seed"] = seed
    return out


def try_from_json_dict(data):
    points = {int(v): tuple(Fraction(c) for c in p) for v, p in data["points"].items()}
    return try_from_points(points, Fraction(data["grid_resolution"]))


def try_to_obj_reference(t, fug):
    """The OBJ text of a try from its Fraction points and the edge tuples:
    the oracle of embed.try_to_obj."""
    lines = [f"v {float(x):.9f} {float(y):.9f} {float(z):.9f}" for x, y, z in try_points(t).values()]
    lines += [f"l {u + 1} {v + 1}" for u, v in fug.edges]
    return "\n".join(lines) + "\n"


_THIRD = Fraction(1, 3)
_CENTER = (_THIRD, 2 * _THIRD)
_OUTER = (2 * _THIRD, Fraction(1))
_BOXES = {
    "rx": (_OUTER, _CENTER, _CENTER),
    "ry": (_CENTER, _OUTER, _CENTER),
    "rz": (_CENTER, _CENTER, _OUTER),
}
_DERIVED = {"lx": ("rx", (1, 0, 0)), "ly": ("ry", (0, 1, 0)), "lz": ("rz", (0, 0, 1))}


def _grid_range_reference(lo, hi, res):
    """Integer k range with lo < k*res < hi, or GridTooCoarse."""
    kmin = math.floor(lo / res) + 1
    kmax = math.ceil(hi / res) - 1
    if kmin > kmax:
        raise GridTooCoarse(f"no grid point of resolution {res} inside ({lo},{hi})")
    return kmin, kmax


def sample_try_reference(fug, seed, grid_resolution):
    """embed.sample_try's points, as a vertex id -> Fraction point dict,
    sampled one VertexLabel at a time in Fraction arithmetic: the same
    rng.randint calls, the same rejection of repeated points, and lx/ly/lz
    found through label_index."""
    labels = vertex_labels(fug)
    res = Fraction(grid_resolution)
    if res <= 0:
        raise ValueError(f"grid resolution must be positive, got {res}")
    if res.denominator > 2**40:
        raise TooLarge(f"grid resolution {res} has a denominator above 2^40")
    rng = random.Random(seed)
    points, used = {}, set()
    by_key = label_index(fug)
    for v in range(fug.vertex_count):
        tag = labels[v].tag
        if tag in _DERIVED:
            continue
        ranges = [_grid_range_reference(lo, hi, res) for lo, hi in _BOXES.get(tag, (_CENTER,) * 3)]
        for _ in range(1000):
            p = tuple(res * rng.randint(kmin, kmax) for kmin, kmax in ranges)
            if p not in used:
                break
        else:
            raise GridTooCoarse(f"cannot place distinct points at resolution {res}")
        used.add(p)
        points[v] = p
    for v in range(fug.vertex_count):
        lab = labels[v]
        if lab.tag not in _DERIVED:
            continue
        src_tag, shift = _DERIVED[lab.tag]
        sp = points[by_key[(src_tag, lab.level, lab.cell)]]
        points[v] = (sp[0] - shift[0], sp[1] - shift[1], sp[2] - shift[2])
    return points


def scaled_reference(points):
    """(vertex id -> integer point in grid units, units per 1) of a Fraction
    point dict: the grid is the lcm of the reduced coordinate denominators."""
    denom = 1
    for p in points.values():
        for c in p:
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return {v: tuple(int(c * denom) for c in p) for v, p in points.items()}, denom
