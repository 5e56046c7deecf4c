"""Exact counts of 4-cycles, 6-cycles and theta graphs (K_{2,3} subgraphs) on
explicit graphs, a subset-enumeration oracle for small graphs, and the
per-cube census of the infinite derived lattice via zero-voltage cycles.

All reported averages are exact rationals.  The per-cube census works on
integer voltage keys (int64, or Python ints above 48 level bits) and never
uses floating point.  On explicit graphs the dense 6-cycle path multiplies
float64 matrices whose entries are integers; it checks that its sums stay
below 2**53, where float64 is exact, and raises TooLarge otherwise.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .errors import MalformedGraph, TooLarge
from .graphs import CENTRAL_TAGS, LabeledGraph, two_coloring
from .voltage import BaseGraph, VoltageAssignment

# explicit 6-cycle counting switches to the dense bipartite formula above this
_DENSE_C6_THRESHOLD = 96


@dataclass(frozen=True)
class CensusReport:
    c4_total: int
    c4_central: int
    c4_stray: int
    c6: int
    theta222: int
    c4_bar: Fraction
    c6_bar: Fraction
    theta_bar: Fraction
    scope: str  # "explicit-graph" | "per-cube"

    def __post_init__(self):
        assert self.c4_total == self.c4_central + self.c4_stray

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
# codegree-based counters

def _codegrees(g: LabeledGraph) -> Counter:
    """codeg(u,v) for all unordered pairs with a common neighbor."""
    cod: Counter = Counter()
    for w in range(g.vertex_count):
        nbrs = g.adjacency[w]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                cod[(nbrs[i], nbrs[j])] += 1
    return cod


def _c4_and_theta(g: LabeledGraph) -> tuple[int, int]:
    """(4-cycles, K_{2,3} subgraphs) from one pass of pair codegrees."""
    cod = _codegrees(g).values()
    total = sum(comb(c, 2) for c in cod)
    assert total % 2 == 0
    return total // 2, sum(comb(c, 3) for c in cod)


def count_c4(g: LabeledGraph) -> int:
    """Number of 4-cycle subgraphs: half the sum over unordered vertex pairs
    of C(codegree, 2) (each 4-cycle is seen from both diagonals)."""
    return _c4_and_theta(g)[0]


def count_theta222(g: LabeledGraph) -> int:
    """Number of K_{2,3} subgraphs: sum over unordered vertex pairs of
    C(codegree, 3) (the hub pair of a theta graph is unique)."""
    return _c4_and_theta(g)[1]


def count_c6(g: LabeledGraph) -> int:
    """Exact number of 6-cycle subgraphs.

    Small or non-bipartite graphs count the 6-cycles of the min-rooted
    short-cycle enumeration.  Larger bipartite graphs use the dense
    codegree-triple formula, which is cross-checked against the enumeration
    in the test suite.
    """
    coloring = two_coloring(g)
    if coloring is not None and g.vertex_count > _DENSE_C6_THRESHOLD:
        return _count_c6_bipartite_dense(g, coloring)
    return sum(1 for seq in _short_cycles(g) if len(seq) == 6)


def _short_cycles(g: LabeledGraph) -> list[tuple[int, ...]]:
    """All simple cycles of length <= 6 by min-rooted DFS.

    Structurally independent of the pair/triple constraint enumeration in
    certify and of the codegree counters: generic path extension with
    vertex-order pruning, direction fixed by requiring the second vertex
    below the last.
    """
    cycles: list[tuple[int, ...]] = []
    for root in range(g.vertex_count):
        _extend_path(g.adjacency, root, [root], {root}, cycles)
    return cycles


def _extend_path(
    adj: tuple[tuple[int, ...], ...],
    root: int,
    path: list[int],
    on_path: set[int],
    cycles: list[tuple[int, ...]],
) -> None:
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


def _count_c6_bipartite_dense(g: LabeledGraph, coloring: list[int]) -> int:
    """6-cycles of a bipartite graph from same-side codegrees.

    With X one side, Y the other, chat the X-side codegree matrix with zero
    diagonal, and for w in Y q_w = x_w^T chat x_w over its neighborhood x_w:

        C6 = tr(chat^3)/6 - sum_w (deg_w - 2) q_w / 2 + 2 sum_w C(deg_w, 3)

    The first term counts ordered codegree triangles, the others remove
    triples that reuse a middle vertex.
    """
    xs = [v for v in range(g.vertex_count) if coloring[v] == 0]
    ys = [v for v in range(g.vertex_count) if coloring[v] == 1]
    if len(ys) < len(xs):
        xs, ys = ys, xs
    ix = {v: i for i, v in enumerate(xs)}
    iy = {v: i for i, v in enumerate(ys)}
    a = np.zeros((len(xs), len(ys)))
    for u, v in g.edges:
        if u in ix:
            a[ix[u], iy[v]] = 1.0
        else:
            a[ix[v], iy[u]] = 1.0
    chat = a @ a.T
    np.fill_diagonal(chat, 0.0)
    tr3 = float((chat * (chat @ chat)).sum())
    q = (a * (chat @ a)).sum(axis=0)
    deg = a.sum(axis=0)
    t2 = float(((deg - 2.0) * q).sum())
    t3 = float((deg * (deg - 1.0) * (deg - 2.0)).sum())
    # float64 arithmetic on integers is exact below 2**53; refuse anything bigger
    if not (tr3 < 2**53 and abs(t2) < 2**53 and t3 < 2**53):
        raise TooLarge("graph too large for exact dense 6-cycle counting")
    num = round(tr3) - 3 * round(t2) + round(t3) * 2
    if num % 6:
        raise AssertionError("6-cycle identity produced a non-integral count")
    return num // 6


# ---------------------------------------------------------------------------
# subset-enumeration oracle

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

    central = sum(1 for seq in c4_cycles if _is_central_cycle(g, seq))
    return _explicit_report(g, c4, central, c6, theta)


def _is_central_cycle(g: LabeledGraph, seq: tuple[int, ...]) -> bool:
    if g.labels is None:
        return False
    labs = [g.labels[v] for v in seq]
    return (
        all(lab.role.tag in CENTRAL_TAGS for lab in labs)
        and len({lab.level for lab in labs}) == 1
        and len({lab.cell for lab in labs}) == 1
    )


def _explicit_report(
    g: LabeledGraph, c4: int, central: int, c6: int, theta: int
) -> CensusReport:
    n = g.vertex_count
    return CensusReport(
        c4_total=c4,
        c4_central=central,
        c4_stray=c4 - central,
        c6=c6,
        theta222=theta,
        c4_bar=Fraction(c4, n) if n else Fraction(0),
        c6_bar=Fraction(c6, n) if n else Fraction(0),
        theta_bar=Fraction(theta, n) if n else Fraction(0),
        scope="explicit-graph",
    )


def _central_c4(g: LabeledGraph) -> int:
    """4-cycles inside the central copies: those of the subgraph of edges
    whose endpoints both have hub/spoke roles at one (cell, level)."""
    assert g.labels is not None
    copy = [(lab.cell, lab.level) if lab.role.tag in CENTRAL_TAGS else None for lab in g.labels]
    edges = tuple((u, v) for u, v in g.edges if copy[u] is not None and copy[u] == copy[v])
    return count_c4(LabeledGraph(g.vertex_count, edges))


def classify_c4(g: LabeledGraph) -> tuple[int, int]:
    """(central, stray) 4-cycle counts.

    Central 4-cycles have all four vertices with hub/spoke roles at one
    (cell, level); they are counted inside the central copies, stray is the
    remainder of the full count.
    """
    if g.labels is None:
        raise MalformedGraph("classify_c4 needs a labeled graph")
    central = _central_c4(g)
    return central, count_c4(g) - central


def census(g: LabeledGraph) -> CensusReport:
    """Full explicit-graph census using the fast counters, with one codegree
    pass over g."""
    c4, theta = _c4_and_theta(g)
    if g.labels is not None and {lab.role.tag for lab in g.labels} >= {"t", "b", "c"}:
        central = _central_c4(g)
    else:
        central = 0
    return _explicit_report(g, c4, central, count_c6(g), theta)


# ---------------------------------------------------------------------------
# per-cube census of the infinite lattice

# A displacement (dx, dy, dz) is coded as dx + 16 dy + 256 dz.  The code is
# additive, and injective while every component stays within +-7; an edge
# moves a component by at most 1, so the sums of two paths compared below
# stay within +-4.
_CODE_RADIX = 16
# Keys code * 2^s + bits fit int64 up to this many level bits: |code| <= 1092
# < 2^11, so |key| < 2^(11 + s) <= 2^59.  Wider voltages use Python ints.
_INT64_MAX_S = 48


def _edge_keys(base: BaseGraph, volt: VoltageAssignment):
    """(codes, bits): the voltages of the white -> black edges as
    whites x blacks arrays, int64 or (above _INT64_MAX_S level bits) object."""
    whites, blacks = base.whites, base.blacks
    dtype = np.int64 if volt.s <= _INT64_MAX_S else object
    codes = np.zeros((len(whites), len(blacks)), dtype=dtype)
    bits = np.zeros((len(whites), len(blacks)), dtype=dtype)
    for i, w in enumerate(whites):
        for j, c in enumerate(blacks):
            dx, dy, dz = volt.disp(w, c)
            if max(abs(dx), abs(dy), abs(dz)) > 1:
                raise ValueError(f"edge ({w}, {c}) displacement {(dx, dy, dz)} is not a unit step")
            codes[i, j] = dx + _CODE_RADIX * (dy + _CODE_RADIX * dz)
            bits[i, j] = volt.bits(w, c)
    return codes, bits


def _run_counts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a row-sorted array: sum C(m,2) and sum C(m,3) over its runs
    of m equal keys."""
    pos = np.arange(rows.shape[1])
    new_run = np.ones(rows.shape, dtype=bool)
    new_run[:, 1:] = rows[:, 1:] != rows[:, :-1]
    # equal keys before each one in its run: 0..m-1 over a run of length m
    before = pos - np.maximum.accumulate(np.where(new_run, pos, 0), axis=1)
    return before.sum(axis=1), (before * (before - 1) // 2).sum(axis=1)


def voltage_census(base: BaseGraph, volt: VoltageAssignment) -> CensusReport:
    """Per-cube counts for the infinite lattice.

    A base cycle contributes one cycle to the derived cover per fiber element,
    so per fundamental cube C4 = 2^s * #{4-cycles with zero total voltage},
    C6 likewise, and theta counts hub pairs with three common-neighbor paths
    of equal total voltage.  Averages divide by the 2^s * 2d vertices a cube
    owns.

    Voltages in Z^3 x GF(2)^s are exact integer keys code * 2^s + bits, so
    two paths between the same ends have equal voltage iff their keys are
    equal.  A hub pair with runs of m equal path keys has sum C(m,2) zero
    4-cycles and sum C(m,3) thetas.  6-cycles come from white triples
    i < j < k: N counts black triples (ca, cb, cc), repeats allowed, with
    P_ij(ca) + P_jk(cb) = P_ik(cc).  A repeated black turns the condition
    into a 4-cycle condition on one white pair, with S = sum m^2 = d +
    2 * (its zero 4-cycles) solutions, and all three equal always closes, so
    by inclusion-exclusion zero6 = sum N - (whites - 2) * sum_pairs S
    + 2d * C(whites, 3).
    """
    d, s = base.d, volt.s
    whites = base.whites
    nw = len(whites)
    codes, bits = _edge_keys(base, volt)
    nb = codes.shape[1]
    scale = 1 << s
    # path_code[i, j, c], path_bits[i, j, c]: the path white i -> black c -> white j
    path_code = codes[:, None, :] - codes[None, :, :]
    path_bits = bits[:, None, :] ^ bits[None, :, :]
    path_keys = np.sort(path_code * scale + path_bits, axis=2)

    iu, ju = np.triu_indices(nw, 1)
    pair_c4, pair_theta = _run_counts(path_keys[iu, ju])
    zero4 = int(pair_c4.sum())
    theta = int(pair_theta.sum())
    t_pos = next(i for i, v in enumerate(whites) if base.role_of(v).tag == "t")
    b_pos = next(i for i, v in enumerate(whites) if base.role_of(v).tag == "b")
    assert not path_keys[t_pos, b_pos].any(), "central hub paths must carry zero voltage"
    central4 = int(_run_counts(path_keys[t_pos, b_pos][None, :])[0][0])

    # theta hubs may also be a black pair with three white middles (4-cycles
    # and 6-cycles are already counted once via their white diagonals/triples)
    ib, jb = np.triu_indices(nb, 1)
    black_keys = (codes[:, jb] - codes[:, ib]) * scale + (bits[:, ib] ^ bits[:, jb])
    theta += int(_run_counts(np.sort(black_keys.T, axis=1))[1].sum())

    n_all = 0
    for i in range(nw):
        for k in range(i + 2, nw):
            first_code, first_bits = path_code[i, i + 1 : k], path_bits[i, i + 1 : k]
            second_code, second_bits = path_code[i + 1 : k, k], path_bits[i + 1 : k, k]
            need = (first_code[:, :, None] + second_code[:, None, :]) * scale + (
                first_bits[:, :, None] ^ second_bits[:, None, :]
            )
            closing, counts = np.unique(path_keys[i, k], return_counts=True)
            at = np.searchsorted(closing, need).clip(max=len(closing) - 1)
            n_all += int(counts[at][closing[at] == need].sum())
    pair_squares = len(iu) * nb + 2 * zero4
    zero6 = n_all - (nw - 2) * pair_squares + 2 * nb * comb(nw, 3)

    owned = scale * 2 * d
    return CensusReport(
        c4_total=scale * zero4,
        c4_central=scale * central4,
        c4_stray=scale * (zero4 - central4),
        c6=scale * zero6,
        theta222=scale * theta,
        c4_bar=Fraction(scale * zero4, owned),
        c6_bar=Fraction(scale * zero6, owned),
        theta_bar=Fraction(scale * theta, owned),
        scope="per-cube",
    )
