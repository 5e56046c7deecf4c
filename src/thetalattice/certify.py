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
voltage census (census_certificate, which alone decides the flags) and, up
to DFS_LIMIT constraints (d <= 20), a second, independent route that must
agree with it: recheck_constraints_dfs writes each short cycle once
from its smallest black, as a pair of 2-paths (a 4-cycle) or of 3-paths (a
6-cycle) with equal displacement, and compares all such pairs by dense
numpy broadcasting over blocks of black pairs and triples of bounded size,
with exact displacement codes and the voltage's own int64 level masks.
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
    _check_stages,
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

# a displacement (x, y, z) of the re-check as the one integer x + 16 y + 256 z
_DFS_RADIX = 16
# each block of the re-check compares about this many path pairs, but at
# least one black pair's or triple's worth: d^2 pairs of 2-paths per black
# pair, d^3 pairs of 3-paths per black triple
_PAIR_BLOCK = 1 << 16


def recheck_constraints_dfs(
    base: BaseGraph, volt: VoltageAssignment
) -> tuple[int, int, int]:
    """(constraint count, uncovered 4-cycles, uncovered 6-cycles) by a
    min-rooted enumeration that pairs paths of equal voltage in dense blocks.

    The base graph is K_{d,d}, so its cycles of length at most 6 are 4- and
    6-cycles, each with two or three blacks and as many whites.  Every black
    id lies below every white one (BaseGraph), so a cycle's smallest vertex
    is its smallest black r, and each cycle is written once, as an explicit
    vertex tuple:
    - a 4-cycle r w_i c w_j with blacks r < c and whites i < j is the pair
      of 2-paths r -> w_i -> c and r -> w_j -> c; it has zero displacement
      when their codes are equal, and it is central (skipped) when
      (i, j) = (0, 1), the white positions of the hubs t and b;
    - a 6-cycle r p1 A p3 C p5 with blacks r < A < C (the direction that
      meets A first) and distinct whites p1, p3, p5 is the pair of 3-paths
      r -> p1 -> A -> p3 and r -> p5 -> C -> p3; it has zero displacement
      when their codes are equal.
    Every such cycle is a constraint, uncovered when the two paths' bits
    are equal too.  The pairs are compared by broadcasting: per black pair
    a (d, d) table over (i, j), per black triple a (d, d, d) table over
    (p1, p3, p5) under one fixed distinctness mask, in blocks of black
    pairs or triples of about _PAIR_BLOCK compared pairs, codes first and
    then the bits.  No path, cycle or frontier is stored, so a
    call's memory is set by the block, not by d: its traced peak is about
    0.35 MiB from d = 10 to d = 33.  verify_certificate compares the count
    with constraint_count_formula, so a missed cycle cannot pass unseen.

    The displacement test is exact.  Every step is one of the cube's unit
    steps (base.shifts), so it moves each axis by -1, 0 or 1, and the two
    paths' codes, int16 within +-3 * 273, differ by the code of the cycle's
    displacement, whose components stay within +-6.  If x + 16 y + 256 z = 0
    then 16 divides x, and |x| < 8 forces x = 0; likewise y = 0, then
    z = 0.  So the codes are equal exactly when the displacement is zero.

    Independent of the census route: it compares explicit vertex tuples
    under distinctness masks, where the census counts equal-key pairs of
    walks and subtracts the degenerate ones in closed form, and it imports
    no enumerator, key or constant from census.
    """
    # code[c, j] is the displacement code of the edge c -> d + j
    code = (base.shifts @ np.array([1, _DFS_RADIX, _DFS_RADIX**2])).astype(np.int16)
    masks, d = volt.masks, base.d
    pos = np.arange(d)  # positions of the blacks, and of the whites
    below = pos[:, None] < pos
    n_constraints = bad4 = bad6 = 0

    # 4-cycles: x[k, i] is the code (m the bits) of r -> w_i -> c for the
    # k-th black pair r < c of the block
    white_pair = below.copy()
    white_pair[0, 1] = False  # the hub pair (t, b): central 4-cycles
    r, c = np.nonzero(below)
    step = max(1, _PAIR_BLOCK // d**2)
    for lo in range(0, len(r), step):
        rr, cc = r[lo : lo + step], c[lo : lo + step]
        x = code[rr] - code[cc]
        hit = (x[:, :, None] == x[:, None]) & white_pair
        n_constraints += int(np.count_nonzero(hit))
        m = masks[rr] ^ masks[cc]
        hit &= m[:, :, None] == m[:, None]
        bad4 += int(np.count_nonzero(hit))

    # 6-cycles: x[k, p1, p3] is the code of r -> p1 -> A -> p3 and
    # y[k, p3, p5] that of r -> p5 -> C -> p3 for the k-th black triple
    # r < A < C of the block
    p1, p3, p5 = pos[:, None, None], pos[:, None], pos
    distinct = (p1 != p3) & (p3 != p5) & (p1 != p5)
    r, a, c = np.nonzero(below[:, :, None] & below)
    step = max(1, _PAIR_BLOCK // d**3)
    for lo in range(0, len(r), step):
        rr, aa, cc = r[lo : lo + step], a[lo : lo + step], c[lo : lo + step]
        x = (code[rr] - code[aa])[:, :, None] + code[aa][:, None]
        y = code[cc][:, :, None] + (code[rr] - code[cc])[:, None]
        hit = x[:, :, :, None] == y[:, None]
        hit &= distinct
        n_constraints += int(np.count_nonzero(hit))
        x = (masks[rr] ^ masks[aa])[:, :, None] ^ masks[aa][:, None]
        y = masks[cc][:, :, None] ^ (masks[rr] ^ masks[cc])[:, None]
        hit &= x[:, :, :, None] == y[:, None]
        bad6 += int(np.count_nonzero(hit))
    return n_constraints, bad4, bad6


def verification_route(d: int) -> str:
    """How verify_certificate checks a degree-d voltage: "census+dfs" when it
    also re-enumerates every constraint cycle by DFS, "census-only" when the
    constraint set is too large and the census alone decides."""
    if constraint_count_formula(d) <= DFS_LIMIT:
        return "census+dfs"
    return "census-only"


def census_certificate(
    base: BaseGraph, volt: VoltageAssignment, report: CensusReport, seed: int = 0
) -> LiftCertificate:
    """The certificate that the voltage census report = voltage_census(base,
    volt) decides, with the closed-form constraint count: no zero-voltage
    hexes, no stray zero-voltage 4-cycles and the formula counts of the
    central 4-cycles and thetas, and the voltage-group generation check.
    Failures are recorded in the flags, never raised."""
    d, s = base.d, volt.s
    # under a valid certificate, every 4-cycle and theta lives in a central copy
    stray_ok = (
        report.c4_stray == 0
        and report.c4_central == (1 << s) * comb(d, 2)
        and report.theta222 == (1 << s) * comb(d, 3)
    )
    flags = CertificateFlags(
        no_zero_voltage_hexes=report.c6 == 0,
        no_zero_voltage_stray4s=stray_ok,
        voltage_group_generated=voltage_group_generated(base, volt),
    )
    return LiftCertificate(volt, flags, constraint_count_formula(d), seed)


def verify_certificate(
    base: BaseGraph,
    volt: VoltageAssignment,
    seed: int = 0,
    constraint_count: int | None = None,
    report: CensusReport | None = None,
) -> LiftCertificate:
    """Re-derive the verification flags for a voltage assignment.

    Always decides them by census_certificate on the aggregated voltage
    census; a caller that already holds voltage_census(base, volt) passes it
    as report.  On the "census+dfs" route (verification_route) it also
    re-enumerates every constraint cycle by DFS and raises AssertionError
    unless both routes find the same constraint count and the same
    uncovered cycles, so the DFS never changes a flag.  On the
    "census-only" route a given constraint_count is recorded in place of
    the closed form.
    """
    if report is None:
        report = voltage_census(base, volt)
    cert = census_certificate(base, volt, report, seed)
    if verification_route(base.d) == "census-only":
        return cert if constraint_count is None else cert._replace(constraint_count=constraint_count)
    n_cons, bad4, bad6 = recheck_constraints_dfs(base, volt)
    if n_cons != cert.constraint_count:
        raise AssertionError(
            f"constraint enumeration mismatch: dfs={n_cons} formula={cert.constraint_count}"
        )
    if report.c4_stray >> volt.s != bad4 or report.c6 >> volt.s != bad6:
        raise AssertionError("census and DFS verification routes disagree")
    return cert


# ---------------------------------------------------------------------------
# end-to-end certification

def wenger_voltage(base: BaseGraph) -> VoltageAssignment:
    """The 2r-stage Wenger voltage of the base graph, r = ceil(log2 d).

    Over GF(2^r), alpha a root of the first primitive polynomial of degree
    r, the hub whites t and b (white positions 0 and 1) get x = 0, the
    whites at positions 2..d-1 the distinct nonzero x = alpha^0, alpha^1,
    ... in position order, and the blacks 0..d-1 the distinct y = 0,
    alpha^0, alpha^1, ... in id order.  Edge
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
    d = base.d
    r = (d - 1).bit_length()
    # the stage count and the masks before the power table, so an absurd d
    # is refused at once where the table would grow until memory runs out
    _check_stages(2 * r)
    masks = np.zeros((d, d), dtype=np.int64)
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
    power = np.array(power, dtype=np.int64)
    i, j = np.arange(d - 2), np.arange(d - 1)[:, None]
    masks[1:, 2:] = power[(i + j) % n] | power[(2 * i + j) % n] << r
    return VoltageAssignment(2 * r, masks)


def certify(d: int, seed: int = 0) -> LiftCertificate:
    """Give the degree-d base graph the Wenger voltage and verify it; the
    certificate holds the voltage (cert.volt).  The voltage is the same for
    every seed, which is only recorded in the certificate.  DegreeTooSmall
    below d = 5."""
    base = BaseGraph(d)
    return verify_certificate(base, wenger_voltage(base), seed=seed)
