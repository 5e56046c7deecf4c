"""Exact counts of 4-cycles, 6-cycles and theta graphs (K_{2,3} subgraphs) on
explicit graphs, and the per-cube census of the infinite derived lattice via
zero-voltage cycles.  census() is the one explicit-graph entry point, and
it counts bipartite graphs only, as every graph the package builds is.

All reported averages are exact rationals, and every count is made in
integers; nothing in this module uses floating point.  On explicit graphs
the wedges (paths u - w - v with u, v in one colour class, keyed by their
end pair) give each class's pair codegrees, and the census reads nothing
else: the runs of the larger class's sorted keys give its thetas and the
middle-vertex reuse term of a codegree-triangle identity for the
6-cycles; the smaller class's distinct keys and their counts give the
4-cycles, its thetas and that identity's triangle sum, which gathers each
candidate pair from a reusable slot table; and one more pass, over the
central subgraph alone, gives the central 4-cycles.  The per-cube census
keys each walk by one XOR of edge keys, its level bits with the parity of
its displacement above them, which is exact among the walks it compares;
the keys are uint16 up to 13 level bits, uint32 up to 29 and uint64 up to
voltage.MAX_STAGES = 61.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import MalformedGraph
from .graphs import CENTRAL_TAGS, LabeledGraph, _bfs, _csr, role_tag
from .voltage import BaseGraph, VoltageAssignment


class CensusReport(NamedTuple):
    """The four counts of a census, the vertex count its per-vertex averages
    divide by (0 averages to 0) and its scope; the stray 4-cycles and the
    averages are derived from them."""

    c4_total: int
    c4_central: int
    c6: int
    theta222: int
    vertices: int
    scope: str  # "explicit-graph" | "per-cube"

    @property
    def c4_stray(self) -> int:
        return self.c4_total - self.c4_central

    @property
    def c4_bar(self) -> Fraction:
        return self._per_vertex(self.c4_total)

    @property
    def c6_bar(self) -> Fraction:
        return self._per_vertex(self.c6)

    @property
    def theta_bar(self) -> Fraction:
        return self._per_vertex(self.theta222)

    def _per_vertex(self, count: int) -> Fraction:
        return Fraction(count, self.vertices) if self.vertices else Fraction(0)

    def to_json_dict(self) -> dict:
        return {
            "c4_total": self.c4_total,
            "c4_central": self.c4_central,
            "c4_stray": self.c4_stray,
            "c6": self.c6,
            "theta222": self.theta222,
            "per_vertex": {
                "c4_bar": _frac_str(self.c4_bar),
                "c6_bar": _frac_str(self.c6_bar),
                "theta_bar": _frac_str(self.theta_bar),
            },
            "scope": self.scope,
        }


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# wedge-key counters

# Slots of the table in _codegree_triangles.  A block has
# _TRIANGLE_BLOCK // nx table rows (one if nx is larger), so with K the
# largest degree of the codegree graph it holds at most
# max(_TRIANGLE_BLOCK, K) pairs and K times as many candidates.  Larger
# blocks raise peak memory: a `census` process on the d = 10, s = 8 full unit
# graph peaks at 48-50 MiB with 2^12 to 2^16 slots, 61 MiB with 2^18 and 88 MiB
# with 2^20 (2 vCPU, Python 3.11.7, numpy 2.4.6).
_TRIANGLE_BLOCK = 1 << 16


def _wedge_keys(start: np.ndarray, nbr: np.ndarray, middle: np.ndarray) -> np.ndarray:
    """The end-pair keys of the wedges whose middle vertex lies in middle (a
    boolean mask) of the CSR adjacency (start, nbr), ordered by the degree k
    of that vertex, then by the vertex: the neighbour pairs of all middle
    vertices of degree k at once, taken by triu_indices(k).  The key of
    the end pair u < v is u * n + v, below n^2 and so in int64 for any n
    below 3 * 10^9; the number of wedges over a pair is its codegree when
    middle holds every common neighbour of its ends."""
    n = len(start) - 1
    degree = np.diff(start)
    keys = [np.zeros(0, dtype=np.int64)]
    for k in np.unique(degree[middle & (degree >= 2)]):
        verts = np.flatnonzero(middle & (degree == k))
        rows = nbr[start[verts, None] + np.arange(k)]
        lo, hi = np.triu_indices(k, 1)
        keys.append((rows[:, lo] * n + rows[:, hi]).ravel())
    return np.concatenate(keys)


def _pairs(m: np.ndarray) -> int:
    """sum C(m,2) over the multiplicities m, such as pair codegrees (the
    4-cycles with one diagonal among the pairs) or runs of equal keys."""
    return int(np.dot(m, m - 1)) // 2


def _triples(m: np.ndarray) -> int:
    """sum C(m,3) over the multiplicities m, such as pair codegrees (the
    K_{2,3} subgraphs with their hub pair among the pairs)."""
    return int(np.dot(m * (m - 1), m - 2)) // 6


def _runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs of two or more equal keys in the rows of a row-sorted 2-D
    array: the flat index of each run's first key, and its multiplicity m
    (through _exact), for _pairs and _triples.

    The equal-neighbour mask of the flat rows has one False before it and
    one at each row start, so no run crosses rows; its changes alternate
    between the start of a run of m - 1 equal neighbours and its end.
    """
    n = rows.shape[1]
    flat = rows.reshape(-1)
    same = np.empty(flat.size + 1, dtype=bool)
    same[0] = False
    np.equal(flat[1:], flat[:-1], out=same[1:-1])
    same[n :: n or 1] = False  # with no keys, same is the one False
    change = (same[1:] != same[:-1]).nonzero()[0]
    first = change[::2]
    return first, _exact(change[1::2] - first + 1, flat.size)


def _exact(m: np.ndarray, size: int) -> np.ndarray:
    """The multiplicities m, whose sum is at most size, as Python ints where
    _pairs or _triples of them might pass int64: both sums are below
    max(m)^2 * size."""
    return m.astype(object) if int(m.max(initial=0)) ** 2 * size >> 63 else m


def _codegree_triangles(keys: np.ndarray, codegree: np.ndarray, n: int) -> int:
    """Sum over the triangles a < b < c of the codegree graph of
    c_ab * c_bc * c_ac, given its ascending pair keys a * n + b.

    The forward neighbours c > b of b are the run of keys whose first vertex
    is b.  Each pair (a, b) and each forward neighbour c of b make one
    candidate (a, c), so every triangle is found once, from its two smallest
    vertices.  The nx vertices that lie in a pair are ranked to columns
    0..nx-1.  For one block of consecutive first vertices a0 <= a, a slot
    table holds c_ac at row rank(a) - rank(a0), column rank(c), and 0 where
    (a, c) is no pair; every candidate of the block is one gather from it,
    and only the slots written for the block are reset afterwards.
    """
    if not len(keys):
        return 0
    first, second = np.divmod(keys, n)
    count = np.bincount(first, minlength=n)
    in_pair = count > 0
    in_pair[second] = True
    rank = np.cumsum(in_pair) - 1
    nx = int(rank[-1]) + 1
    row, col = rank[first], rank[second]
    del first, in_pair, rank
    # The candidates of pair i are numbered cand_end[i] - run_len[i] to
    # cand_end[i] - 1, one for each pair (b, c) of b = second[i]; candidate t
    # takes pair t + jump[i] as its (b, c).  jump is built in place and each
    # pair-length array freed once read, so at most six are held at once.
    run_len = count[second]
    cand_end = np.cumsum(run_len)
    jump = (np.cumsum(count) - count)[second]
    del second
    jump -= cand_end
    jump += run_len
    rows = max(1, _TRIANGLE_BLOCK // nx)
    table = np.zeros(rows * nx, dtype=np.int64)
    # A codegree is at most the maximum degree D, and D < 2^21 (a vertex of
    # degree 2^21 alone has 2^41 wedges, a table no memory holds), so each
    # term c_ab * c_bc * c_ac is below 2^63 and per_dot of them sum inside
    # int64; per_dot is 2^60 at codegrees up to 2, so the loop below runs
    # once.  The running total is a Python int.
    per_dot = (2**63 - 1) // int(codegree.max()) ** 3
    # pairs i..j-1 have their first vertices in one block of table rows
    bounds = np.unique(np.searchsorted(row, np.arange(0, nx + rows, rows)))
    total = 0
    for i, j in itertools.pairwise(bounds.tolist()):
        slot_row = (row[i:j] - row[i]) * nx
        written = slot_row + col[i:j]
        table[written] = codegree[i:j]
        runs = run_len[i:j]
        bc = jump[i:j].repeat(runs) + np.arange(cand_end[i] - runs[0], cand_end[j - 1])
        terms = codegree[bc] * table[slot_row.repeat(runs) + col[bc]]
        weights = codegree[i:j].repeat(runs)
        for k in range(0, len(terms), per_dot):
            total += int(np.dot(weights[k : k + per_dot], terms[k : k + per_dot]))
        table[written] = 0
    return total


def census(g: LabeledGraph) -> CensusReport:
    """The explicit-graph census of g: its 4-cycles (c4_total), the central
    ones among them (the 4-cycles of the central subgraph, the edges whose
    two ends have hub/spoke roles at one (level, cell)) and the stray rest,
    its 6-cycles and its K_{2,3} subgraphs (theta222), each also per vertex.
    MalformedGraph names the first edge, in edge_array order, whose ends the
    breadth-first colouring puts in one class: g is not bipartite, and is
    not counted.

    With X the smaller colour class and Y the other, the wedges centred in
    X key the Y pairs and those centred in Y the X pairs; the number of
    wedges over a pair is its codegree c.  Each 4-cycle has one diagonal in
    X, so c4 = sum C(c_xx', 2), and each K_{2,3} its hub pair in X or in Y,
    so theta222 = sum C(c, 3) over the pairs of both classes.  With chat
    the X codegree matrix with zero diagonal and, for y in Y, S_y the sum
    of c_xx' over x < x' in N(y), which counts each y'' once for every pair
    in N(y) & N(y''), so that S_y = C(deg_y, 2) + sum over y' != y of
    C(c_yy', 2),

        C6 = tr(chat^3)/6 - sum_y (deg_y - 2) S_y + 2 sum_y C(deg_y, 3).

    The first term sums c_ab c_bc c_ac over the codegree triangles a < b < c
    (_codegree_triangles), the others remove triples that reuse a middle
    vertex.  As (deg_y - 2) C(deg_y, 2) = 3 C(deg_y, 3), this is

        C6 = tr(chat^3)/6 - sum_{y < y'} C(c_yy', 2) (deg_y + deg_y' - 4)
             - sum_y C(deg_y, 3),

    whose middle sum reads each run of equal sorted Y keys off its first
    key.  The Y keys are sorted in place and freed before the X table (the
    distinct X keys and their counts) is built, and that is freed before
    the central subgraph's X keys are enumerated.
    """
    n, ends = g.vertex_count, g.edge_array
    start, nbr = _csr(n, ends)
    _, parity = _bfs(start, nbr)
    same = parity[ends[:, 0]] == parity[ends[:, 1]]
    if same.any():
        u, v = ends[int(np.argmax(same))].tolist()
        raise MalformedGraph(f"census counts bipartite graphs only: edge ({u},{v}) closes an odd cycle")
    in_y = parity != int(2 * parity.sum() < n)  # X is colour 1 only if it is the smaller class
    degree = np.diff(start)

    y_keys = _wedge_keys(start, nbr, ~in_y)
    y_keys.sort()
    first, m = _runs(y_keys[None])
    y, y2 = np.divmod(y_keys[first], n)
    weight = degree[y] + degree[y2] - 4
    # each term C(m, 2) * weight is at most max(weight) * C(m, 2)
    if int(weight.max(initial=0)) * _pairs(m) >> 63:
        weight = weight.astype(object)
    reuse = int(np.dot(m * (m - 1) // 2, weight))
    theta_y = _triples(m)
    del y_keys, first, m, y, y2, weight
    closed = _triples(_exact(degree[in_y], len(ends)))  # the degrees of Y sum to the edge count

    keys, codegree = np.unique(_wedge_keys(start, nbr, in_y), return_counts=True)
    del start, nbr  # the central subgraph has a CSR of its own
    c6 = _codegree_triangles(keys, codegree, n) - reuse - closed
    codegree = _exact(codegree, int(codegree.sum()))
    c4, theta_x = _pairs(codegree), _triples(codegree)
    del keys, codegree

    central = np.array([role_tag(r) in CENTRAL_TAGS for r in g.roles], dtype=bool)[g.role_codes]
    u, v = ends.T
    inside = central[u] & central[v] & (g.levels[u] == g.levels[v]) & (g.cells[u] == g.cells[v]).all(axis=1)
    central_keys = _wedge_keys(*_csr(n, ends[inside]), in_y)
    central_keys.sort()
    c4_central = _pairs(_runs(central_keys[None])[1])
    return CensusReport(c4, c4_central, c6, theta_y + theta_x, n, "explicit-graph")


# ---------------------------------------------------------------------------
# per-cube census of the infinite lattice

def _edge_keys(base: BaseGraph, volt: VoltageAssignment) -> np.ndarray:
    """The census keys of the white -> black edges as a C-ordered whites x
    blacks array: the edge's level mask, with the parity of its displacement
    in the three bits above it, mask | p << s.  The key type is the narrowest
    of uint16, uint32 and uint64 that holds s + 3 bits, which uint64 does up
    to s = MAX_STAGES.

    The keys are exact only where each axis moves at most one base edge, by
    a unit step (voltage_census); a base graph whose shifts do not is
    refused with a ValueError.
    """
    shifts = base.shifts
    moved = shifts != 0
    if (np.abs(shifts) > 1).any() or (moved.sum(axis=(0, 1)) > 1).any():
        raise ValueError("parity keys need at most one moved base edge per axis, by a unit step")
    s = volt.s
    key = next(t for t in (np.uint16, np.uint32, np.uint64) if s + 3 <= np.iinfo(t).bits)
    parity = (moved.transpose(1, 0, 2) @ np.array([1, 2, 4])).astype(key)
    return np.ascontiguousarray(volt.masks.T.astype(key) | parity << s)


def voltage_census(base: BaseGraph, volt: VoltageAssignment) -> CensusReport:
    """Per-cube counts for the infinite lattice.

    A base cycle contributes one cycle to the derived cover per fiber element,
    so per fundamental cube C4 = 2^s * #{4-cycles with zero total voltage},
    C6 likewise, and theta counts hub pairs with three common-neighbor paths
    of equal total voltage.  Averages divide by the 2^s * 2d vertices a cube
    owns.

    Every comparison is between walks of one row: the 2-paths of one white
    pair, the 2-paths of one black pair, or the 3-walks i -> a -> j -> b
    (j > i) of one (i, b).  A walk's key is the XOR of its edges' keys
    mask | p << s (_edge_keys), p the parity of the edge's displacement, so
    it holds the walk's level bits and the parity of its displacement.
    Within a row that parity fixes the displacement, as each axis component
    takes only the values 0 and one sign that the row fixes.  Say the axis
    moves the one edge w -> c by sigma = +-1 (for the cube, vx -> c1 by
    +e_x, and so for y and z).  A 2-path i -> c' -> j uses that edge at most
    once, as w = i (sign sigma) or as w = j (sign -sigma), and a 2-path of a
    black pair likewise as its first or its last black.  A 3-walk with
    w = i has j != w, so its component is sigma [a = c]; with w != i it is
    [j = w] sigma ([b = c] - [a = c]), of one sign for the row's b.  So two
    walks of one row have equal keys exactly when they have equal voltages
    in Z^3 x GF(2)^s.  A hub pair with runs of m equal path keys has
    sum C(m,2) zero 4-cycles and sum C(m,3) thetas, read off the runs of
    the sorted keys (_runs).

    6-cycles meet in the middle, rooted at their smallest white.  For each
    white i and black b, sorting the keys of the (nw - 1 - i) * nb 3-walks
    i -> a -> j -> b with j > i gives sum m^2 ordered pairs of equal-voltage
    walks (rows.size + 2 * sum C(m,2)); Q is their total over all i and b.
    The pair i -> a -> j -> b, i -> a' -> j' -> b closes the 6-walk
    i a j b j' a' of voltage zero, and in the bipartite base graph it is one
    of four kinds:
      - a walk paired with itself: nb^2 * C(nw, 2) pairs;
      - a = a' = b and j != j', which cancels to nothing:
        2 * nb * C(nw, 3) pairs;
      - a 4-cycle of voltage zero with one edge hung on it.  With its white
        positions w < w' and blacks c, c', it is seen from i = w 2 * nb
        times as j = j' = w' (any b) and 4 * (nw - 2 - w) times as a = b or
        a' = b with the other walk through w' (the free j above w, not w'),
        and from each of the w smaller whites i 4 times, with a = a' and b
        its blacks and j, j' its whites, each in either order.  That is
        2 * nb + 4 * (nw - 2) pairs for every zero 4-cycle;
      - a 6-cycle of voltage zero, seen from its smallest white in 2
        directions.
    So 2 * zero6 = Q - nb^2 * C(nw, 2) - 2 * nb * C(nw, 3)
    - (2 * nb + 4 * (nw - 2)) * zero4.
    """
    d, s = base.d, volt.s
    key = _edge_keys(base, volt)
    key_t = np.ascontiguousarray(key.T)
    nw, nb = key.shape
    scale = 1 << s

    # the keys of the paths i -> c -> j over the blacks c, one row per white
    # pair i < j
    iu, ju = np.triu_indices(nw, 1)
    pair_keys = key[iu] ^ key[ju]
    pair_keys.sort(axis=1)
    _, runs = _runs(pair_keys)
    zero4, theta = _pairs(runs), _triples(runs)
    hubs = pair_keys[:1]  # the white pair (0, 1) is the hub pair (t, b)
    assert not hubs.any(), "central hub paths must carry zero voltage"
    central4 = comb(nb, 2)

    # theta hubs may also be a black pair with three white middles (4-cycles
    # and 6-cycles are already counted once via their white diagonals/triples)
    ib, jb = np.triu_indices(nb, 1)
    black_keys = key_t[ib] ^ key_t[jb]
    black_keys.sort(axis=1)
    theta += _triples(_runs(black_keys)[1])
    del pair_keys, black_keys  # not held beside the walk buffer

    # equal-key pairs of 3-walks i -> a -> j -> b with j > i, one white i at
    # a time: walk[b, j - i - 1, a] is the key of i -> a -> j -> b, and each
    # row b of keys over (j, a) is sorted in place.  The rows of white i are
    # the front (nb, nw - 1 - i, nb) of the flat buffer.
    walk_buf = np.empty(nb * (nw - 1) * nb, dtype=key.dtype)
    equal_pairs = 0
    for i in range(nw - 1):
        size = nb * (nw - 1 - i) * nb
        walk = walk_buf[:size].reshape(nb, nw - 1 - i, nb)
        np.bitwise_xor(key[i] ^ key[i + 1 :], key_t[:, i + 1 :, None], out=walk)
        rows = walk.reshape(nb, -1)
        rows.sort(axis=1)
        equal_pairs += size + 2 * _pairs(_runs(rows)[1])
    degenerate = nb * nb * comb(nw, 2) + 2 * nb * comb(nw, 3) + (2 * nb + 4 * (nw - 2)) * zero4
    zero6, rest = divmod(equal_pairs - degenerate, 2)
    assert rest == 0, "the equal walk pairs on 6-cycles come two to a cycle"

    return CensusReport(scale * zero4, scale * central4, scale * zero6, scale * theta, scale * 2 * d, "per-cube")
