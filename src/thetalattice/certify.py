"""The Wenger lift certificate and the routes that verify a lift voltage.

A constraint is a simple base cycle of length 4 or 6 with zero net
displacement that is not a central 4-cycle.  A level-bit voltage covers it
when the cycle's bits XOR to nonzero: the cycle then doubles in length at
some lift stage and never closes in the derived lattice.  A certificate is
a voltage covering every constraint.

certify gives every degree the same deterministic voltage, wenger_voltage,
whose bits are the edge labels of the Wenger graphs over GF(2^r): it covers
every constraint by a short algebraic proof, with s = 2 ceil(log2 d) stages.
verify_certificate checks any voltage, Wenger or not, with the aggregated
voltage census and, up to DFS_LIMIT constraints (d <= 20), a second,
independent route: recheck_constraints_dfs counts the constraint cycles by
a min-rooted path enumeration over numpy frontiers, in blocks of bounded
size, with exact displacement codes and exact multi-word level bits.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .census import CensusReport, voltage_census
from .voltage import (
    BaseGraph,
    CertificateFlags,
    LiftCertificate,
    VoltageAssignment,
    _canonical_shifts,
    build_base_graph,
    canonical_edge_order,
    stage_bitstrings,
    voltage_group_generated,
)


def constraint_count_formula(d: int) -> int:
    """Closed-form size of the constraint set.

    Zero-displacement cycles avoid the three displacement edges entirely (a
    simple short cycle can use each at most once and distinct axes never
    cancel), so 4-cycles are counted by white/black pair choices avoiding
    (v*, c1) incidences minus the central ones, and 6-cycles by white triples
    with injective black slot assignments keeping c1 off slots that touch a
    connector vertex.
    """
    four = comb(d, 2) ** 2 - (comb(d, 2) - comb(d - 3, 2)) * (d - 1) - comb(d, 2)
    six = (d - 1) * (d - 2) * (
        d * comb(d - 3, 3)
        + 3 * (d - 2) * comb(d - 3, 2)
        + (d - 3) * (3 * (d - 3) + 1)
    )
    return four + six


# verify_certificate also re-counts the constraint cycles by DFS (route
# "census+dfs") while there are at most this many, those of d = 20; above it
# the census alone decides
DFS_LIMIT = constraint_count_formula(20)


# ---------------------------------------------------------------------------
# verification

# a displacement (x, y, z) of the DFS as the one integer x + 16 y + 256 z
_DFS_RADIX = 16
# the displacement code of a vertex pair that is not an edge; codes of paths
# of at most 6 unit steps stay within +-6 * 273
_NO_EDGE = np.iinfo(np.int16).max
# the 6-cycles are closed in blocks of about this many (path, neighbour)
# candidates
_DFS_BLOCK = 1 << 15


def _dfs_tables(base: BaseGraph, volt: VoltageAssignment):
    """The step table of the DFS: (n, d) arrays of neighbour id, displacement
    code and level bits, a black's row over the whites and a white's over
    the blacks, in id order, and dense (n, n) arrays of the code (_NO_EDGE
    off the edges) and bits of every directed edge.  Bits are (..., words)
    arrays of 64-bit words, low word first, so every s is exact."""
    d = base.d
    n, words = 2 * d, max(1, -(-volt.s // 64))
    wide = np.abs(volt.shifts).max(axis=2, initial=0) > 1
    if wide.any():
        c, j = np.argwhere(wide)[0].tolist()
        step = tuple(volt.shifts[c, j].tolist())
        raise ValueError(f"edge ({c}, {d + j}) has a non-unit displacement {step}")
    code = (volt.shifts @ np.array([1, _DFS_RADIX, _DFS_RADIX**2])).astype(np.int16)
    masks = volt.masks.astype(object)
    bits = np.stack([(masks >> 64 * k & 0xFFFF_FFFF_FFFF_FFFF).astype(np.uint64) for k in range(words)], -1)
    edge_code = np.full((n, n), _NO_EDGE, dtype=np.int16)
    edge_code[:d, d:], edge_code[d:, :d] = code, -code.T
    edge_bits = np.zeros((n, n, words), dtype=np.uint64)
    edge_bits[:d, d:], edge_bits[d:, :d] = bits, bits.transpose(1, 0, 2)
    ids = np.arange(n, dtype=np.int16 if n < 1 << 15 else np.int32)
    step_to = np.concatenate([np.broadcast_to(ids[d:], (d, d)), np.broadcast_to(ids[:d], (d, d))])
    rows = np.arange(n)[:, None]
    return step_to, edge_code[rows, step_to], edge_bits[rows, step_to], edge_code, edge_bits


def recheck_constraints_dfs(
    base: BaseGraph, volt: VoltageAssignment
) -> tuple[int, int, int]:
    """(constraint count, uncovered 4-cycles, uncovered 6-cycles) by a
    min-rooted path enumeration that carries each path's voltage along as
    it extends it, one frontier of paths at a time.

    Min-rooted: a cycle is found from its smallest vertex r, the path is
    extended only by vertices above r, and the cycle is counted once, in the
    direction where its second vertex is below its last.  Per root, the
    frontier holds every path r p1 .. pk as arrays of first vertex p1, last
    two vertices, displacement code sum and bit XOR, and grows by one
    vertex per step through the step table (_dfs_tables), never
    stepping back (p_k != p_(k-2)).  The base graph K_{d,d} is bipartite, so
    its cycles are even and the only ones of length at most 6 are 4- and
    6-cycles.  The 4-cycles close from the k = 3 frontier: r p1 p2 p3 with
    p1 < p3, p3 a neighbour of r and the closing edge's code equal to the
    path's; a 4-cycle through both hubs t < b is central and skipped.  Every
    black id must lie below every white one (ValueError otherwise), as in
    build_base_graph: then a central 4-cycle is rooted at a black, its
    whites are p1 < p3, and the rule (p1, p3) = (t, b) skips all of them.  The
    6-cycles close from the k = 4 frontier as one (paths, deg) mask over the
    neighbours p5 of p4, so the 5-vertex paths are never built, and bits are
    compared only on the candidates that close.  Every other zero-displacement
    cycle is a constraint, uncovered when its bits XOR to zero.
    verify_certificate compares the count with constraint_count_formula, so
    a missed cycle cannot pass unseen.

    Memory barely grows with d: the k = 3 frontier is split into blocks
    whose 6-cycle candidates number about _DFS_BLOCK, vertex ids and codes
    are int16, and bits are 64-bit words, as many as s needs.

    The displacement sum is exact.  Every edge moves each axis by -1, 0 or 1
    (a larger step raises ValueError), so along a path of at most 6 edges
    each component stays within +-6 and the code within +-6 * 273.  If
    x + 16 y + 256 z = 0 then 16 divides x, and |x| < 8 forces x = 0;
    likewise y = 0, then z = 0.  So the code is 0 exactly when the
    displacement is.  The bits are exact at every s: XOR and equality act
    word by word.

    Independent of the census route: it enumerates paths, where the census
    sorts walk keys, and it imports no enumerator, key or constant from
    census.
    """
    if max(base.blacks) > min(base.whites):
        raise ValueError("the DFS re-check needs every black id below every white id")
    step_to, step_code, step_bits, edge_code, edge_bits = _dfs_tables(base, volt)
    n, deg = step_to.shape
    t, b = sorted(v for v in base.whites if base.role_of(v).tag in ("t", "b"))
    step_slot = np.arange(n * deg, dtype=np.int32).reshape(n, deg)

    def extend(first, prev, last, x, m):
        # one step of the paths of the current root r, never back to prev
        to = step_to[last]
        i, j = np.nonzero((to > r) & (to != prev[:, None]))
        last = last[i]
        return first[i], last, to[i, j], x[i] + step_code[last, j], m[i] ^ step_bits[last, j]

    n_constraints = bad4 = bad6 = 0
    for r in range(n):
        up = step_to[r] > r
        if not up.any():
            continue
        p1 = step_to[r, up]
        two = extend(p1, np.full_like(p1, r), p1, step_code[r, up], step_bits[r, up])
        p1, p2, p3, x3, m3 = extend(*two)
        if not len(p3):
            continue
        # the closing edge p -> r is r -> p reversed, so a path r .. p closes
        # with zero displacement when its code equals that of r -> p
        home = edge_code[r]
        closes = (home[p3] == x3) & (p1 < p3) & ~((p1 == t) & (p3 == b))
        n_constraints += int(np.count_nonzero(closes))
        bad4 += int(np.count_nonzero((edge_bits[r, p3[closes]] == m3[closes]).all(1)))

        # closing code and bits of the step v -> step_to[v, j] -> r
        above = step_to > r
        home_code = home[step_to]
        close_code = np.where(above & (home_code != _NO_EDGE), home_code - step_code, _NO_EDGE)
        close_bits = (edge_bits[r, step_to] ^ step_bits).reshape(-1, step_bits.shape[2])
        # each path extends to every neighbour of p3 above r but p2
        cost = np.cumsum(np.count_nonzero(above, axis=1)[p3] - 1) * deg
        cuts = np.flatnonzero(np.diff((cost - 1) // _DFS_BLOCK)) + 1
        for lo, hi in zip((0, *cuts), (*cuts, len(cost))):
            q1, q3, p4, x4, m4 = extend(p1[lo:hi], p2[lo:hi], p3[lo:hi], x3[lo:hi], m3[lo:hi])
            p5 = step_to[p4]
            hit = (close_code[p4] == x4[:, None]) & (p5 > q1[:, None]) & (p5 != q3[:, None])
            del p5  # not held through the gathers below, which set the block's peak
            per_path = np.count_nonzero(hit, axis=1)
            n_constraints += int(per_path.sum())
            closing = close_bits[step_slot[p4][hit]]
            bad6 += int(np.count_nonzero((closing == np.repeat(m4, per_path, axis=0)).all(1)))
    return n_constraints, bad4, bad6


def verification_route(d: int) -> str:
    """How verify_certificate checks a degree-d voltage: "census+dfs" when it
    also re-enumerates every constraint cycle by DFS, "census-only" when the
    constraint set is too large and the census alone decides."""
    if constraint_count_formula(d) <= DFS_LIMIT:
        return "census+dfs"
    return "census-only"


def verify_certificate(
    base: BaseGraph,
    volt: VoltageAssignment,
    seed: int = 0,
    constraint_count: int | None = None,
    report: CensusReport | None = None,
) -> LiftCertificate:
    """Re-derive the verification flags for a voltage assignment.

    Always runs the aggregated voltage census (no zero-voltage hexes, no
    stray zero-voltage 4-cycles, formula counts) and the voltage-group
    generation check; a caller that already holds voltage_census(base, volt)
    passes it as report.  On the "census+dfs" route (verification_route)
    it also re-enumerates every constraint cycle by DFS and requires both
    routes to find the same uncovered cycles.  Failures are recorded in the
    flags, never raised.
    """
    route = verification_route(base.d)
    d, s = base.d, volt.s
    if report is None:
        report = voltage_census(base, volt)
    hexes_ok = report.c6 == 0
    stray_ok = report.c4_stray == 0
    # under a valid certificate, every theta lives in a central copy
    formula_ok = report.c4_central == (1 << s) * d * (d - 1) // 2
    if stray_ok:
        formula_ok = formula_ok and report.theta222 == (1 << s) * d * (d - 1) * (d - 2) // 6
    stray_ok = stray_ok and formula_ok

    expected = constraint_count_formula(d)
    if route == "census+dfs":
        n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
        if n_cons != expected:
            raise AssertionError(
                f"constraint enumeration mismatch: dfs={n_cons} formula={expected}"
            )
        if report.c4_stray >> s != bad4 or report.c6 >> s != bad6:
            raise AssertionError("census and DFS verification routes disagree")
        hexes_ok = hexes_ok and bad6 == 0
        stray_ok = stray_ok and bad4 == 0
        constraint_count = n_cons
    elif constraint_count is None:
        constraint_count = expected

    flags = CertificateFlags(
        no_zero_voltage_hexes=hexes_ok,
        no_zero_voltage_stray4s=stray_ok,
        voltage_group_generated=voltage_group_generated(base, volt),
    )
    return LiftCertificate(
        d=d,
        s=s,
        stage_bits=stage_bitstrings(base, volt),
        edge_order=canonical_edge_order(base),
        flags=flags,
        constraint_count=constraint_count,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# end-to-end certification

def wenger_voltage(base: BaseGraph) -> VoltageAssignment:
    """The 2r-stage Wenger voltage of the base graph, r = ceil(log2 d).

    Over GF(2^r), alpha a root of the first primitive polynomial of degree
    r, the hub whites t and b get x = 0, the other d - 2 whites the distinct
    nonzero x = alpha^0, alpha^1, ... in base.whites order, and the d blacks
    the distinct y = 0, alpha^0, alpha^1, ... in base.blacks order.  Edge
    (w, c) gets the level bits x*y | (x^2*y) << r.  These are the edge labels
    of the Wenger graphs, which have no 4- or 6-cycles (R. Wenger, JCTB 52,
    1991; Lazebnik-Ustimenko 1995).  Central edges touch a hub, whose x is
    0, so their bits are zero.

    A cycle's bits are the field sums of its edges' pairs (x*y, x^2*y): XOR
    is addition in characteristic 2, where also a^2 + b^2 = (a + b)^2.
    - 4-cycle w_i c_a w_j c_b: the sum is (x_i + x_j)(y_a + y_b) and
      (x_i + x_j)^2 (y_a + y_b).  It is zero only when x_i = x_j, that is on
      the hub pair {t, b}, and every 4-cycle there is central.
    - 6-cycle w_1 c_1 w_2 c_2 w_3 c_3: put u = x_1 + x_2, v = x_2 + x_3,
      A = y_1 + y_3 and B = y_2 + y_3, where A and B are nonzero because the
      blacks are distinct.  The sum is Au + Bv and Au^2 + Bv^2.
      - Three distinct x: u, v and u + v = x_1 + x_3 are nonzero.  A zero
        sum needs Au = Bv and Au^2 = Bv^2; dividing gives u = v, so
        x_1 = x_3, a contradiction.
      - Through t and b: rotate the cycle so that x_1 = x_2 = 0.  Then
        u = 0, v = x_3 is nonzero, and the sum is B x_3 and B x_3^2.
    So every constraint is covered, not only the zero-displacement ones.
    """
    r = (base.d - 1).bit_length()
    n = (1 << r) - 1
    for poly in range(1 << r | 1, 2 << r, 2):
        power = [1]  # power[k] = alpha^k, alpha a root of poly
        for _ in range(n - 1):
            x = power[-1] << 1
            power.append(x ^ poly if x >> r else x)
        if 1 not in power[1:]:  # alpha has order n: poly is primitive
            break
    # x = alpha^i on the white at position i + 2 (the hubs at 0 and 1 have
    # x = 0), y = alpha^j on the black j + 1 (the first black has y = 0)
    d = base.d
    power = np.array(power, dtype=np.int64)
    i, j = np.arange(d - 2), np.arange(d - 1)[:, None]
    masks = np.zeros((d, d), dtype=np.int64)
    masks[1:, 2:] = power[(i + j) % n] | power[(2 * i + j) % n] << r
    return VoltageAssignment(2 * r, _canonical_shifts(d), masks)


def certify(d: int, seed: int = 0) -> tuple[LiftCertificate, BaseGraph, VoltageAssignment]:
    """Build the base graph, give it the Wenger voltage and verify it.  The
    voltage is the same for every seed, which is only recorded in the
    certificate.  DegreeTooSmall below d = 5."""
    base, _ = build_base_graph(d)
    volt = wenger_voltage(base)
    return verify_certificate(base, volt, seed=seed), base, volt
