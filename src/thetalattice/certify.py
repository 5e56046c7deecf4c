"""Constraint-cycle enumeration and the search for lift signings that kill
every stray zero-voltage 4-cycle and every zero-voltage 6-cycle.

A constraint is a simple base cycle of length 4 or 6 with zero net
displacement that is not a central 4-cycle.  A stage signing sigma (a GF(2)
vector over the non-central base edges) covers a constraint when their
incidence overlap is odd: the cycle then doubles in length at that lift and
can never contribute a short cycle again.  A certificate is a family
sigma_1..sigma_s covering every constraint.

For degrees whose constraint set is too large to materialize, the stages are
the parity-check rows of a binary BCH code of designed distance 7, which
cover every constraint by construction, and the aggregated voltage census
checks the same zero-voltage condition without touching individual cycles.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np

from .census import CensusReport, _edge_keys, voltage_census
from .errors import BudgetExhausted, DegreeTooSmall
from .graphs import Edge
from .voltage import (
    BaseGraph,
    CertificateFlags,
    LiftCertificate,
    VoltageAssignment,
    build_base_graph,
    canonical_edge_order,
    make_bits,
    max_connected_stages,
    stage_bitstrings,
    voltage_group_generated,
)

# above this constraint count, certify() switches to the BCH route and verify
# skips the per-cycle re-enumeration in favor of the census check
EXPLICIT_LIMIT = 300_000
_WORD = (1 << 64) - 1


@dataclass(frozen=True)
class Constraint:
    mask: int  # incidence over non-central base edges


def _word_count(width: int) -> int:
    return -(-width // 64)


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Constraint cycles as their edge masks: masks is n x ceil(width / 64)
    uint64, bit j of a mask in word j // 64 for non-central edge j.  The
    Constraint objects are built only when .constraints is read."""

    noncentral_edges: tuple[Edge, ...]
    masks: np.ndarray

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        return tuple(
            Constraint(sum(w << (64 * k) for k, w in enumerate(words)))
            for words in self.masks.tolist()
        )

    def __len__(self) -> int:
        return len(self.masks)


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


def constraint_cycles(base: BaseGraph, volt: VoltageAssignment) -> ConstraintSet:
    """The edge masks of all simple 4- and 6-cycles of the base with zero net
    displacement, excluding central 4-cycles: 4-cycles first, then 6-cycles
    one white triple at a time.

    Uses the bipartite structure: a 4-cycle is a white pair with two black
    middles, a 6-cycle a white triple i < j < k with distinct blacks on its
    three pair slots, so each cycle is found exactly once.  Only
    displacement voltages are consulted, as the integer codes of
    census._edge_keys: path[i, j, c] is the code of white i -> black c ->
    white j, and a cycle closes when its paths sum to 0.  hop[i, j, c] is
    the packed mask of the same path, the XOR of the one-hot words of its
    two edges (zero on a central edge), and a cycle's mask is the XOR of
    its hops.  A non-unit edge displacement raises ValueError.
    """
    nw, nb = len(base.whites), len(base.blacks)
    codes = _edge_keys(base, volt)[0].astype(np.int64)
    path = codes[:, None, :] - codes[None, :, :]

    # word[i, c]: the packed mask of the single edge white i -- black c
    white_pos = {v: i for i, v in enumerate(base.whites)}
    black_pos = {v: c for c, v in enumerate(base.blacks)}
    word = np.zeros((nw, nb, _word_count(len(base.noncentral_edges))), dtype=np.uint64)
    for j, (u, v) in enumerate(base.noncentral_edges):
        w, c = (u, v) if u in white_pos else (v, u)
        word[white_pos[w], black_pos[c], j // 64] = np.uint64(1) << np.uint64(j % 64)
    hop = word[:, None] ^ word[None, :]

    iu, ju = np.triu_indices(nw, 1)
    hub_lo, hub_hi = (i for i, v in enumerate(base.whites) if base.role_of(v).tag in ("t", "b"))
    keep = (iu != hub_lo) | (ju != hub_hi)  # every 4-cycle on the hub pair is central
    iu, ju = iu[keep], ju[keep]
    ca, cb = np.triu_indices(nb, 1)
    pairs = path[iu, ju]
    pair, mid = np.nonzero(pairs[:, ca] == pairs[:, cb])
    i, j = iu[pair], ju[pair]
    masks = [hop[i, j, ca[mid]] ^ hop[i, j, cb[mid]]]

    slots = np.indices((nb, nb, nb))
    distinct = (slots[0] != slots[1]) & (slots[1] != slots[2]) & (slots[0] != slots[2])
    for i, j, k in itertools.combinations(range(nw), 3):
        total = path[i, j][:, None, None] + path[j, k][None, :, None] + path[k, i][None, None, :]
        a, b, c = np.nonzero((total == 0) & distinct)
        masks.append(hop[i, j, a] ^ hop[j, k, b] ^ hop[k, i, c])

    masks = np.concatenate(masks)
    assert masks.any(axis=1).all(), "constraint cycles always use a non-central edge"
    return ConstraintSet(base.noncentral_edges, masks)


# uncovered masks scored against the candidate pool per block of rows
_SCORE_ROWS = 2048


def _pack(signings: list[int], words: int) -> np.ndarray:
    """Signings as rows of uint64 words, bit j in word j // 64."""
    return np.array(
        [[sigma >> (64 * k) & _WORD for k in range(words)] for sigma in signings],
        dtype=np.uint64,
    )


def _odd_overlaps(masks: np.ndarray, signings: np.ndarray) -> np.ndarray:
    """masks x signings array, 1 where a mask and a signing overlap in an odd
    number of edges: the parity of the popcount of the XOR of their ANDed
    words."""
    fold = masks[:, None, 0] & signings[None, :, 0]
    for k in range(1, masks.shape[1]):
        fold ^= masks[:, None, k] & signings[None, :, k]
    return np.bitwise_count(fold) & 1


def search_signings(
    constraints: ConstraintSet,
    policy: str = "greedy",
    max_s: int = 40,
    seed: int = 0,
    pool_size: int = 64,
) -> list[int]:
    """Stage signings sigma_1..sigma_s covering every constraint.

    greedy: per stage, draw pool_size uniform candidates from the seeded
    stream in order and keep the one covering the most still-uncovered
    constraints (ties to the lowest candidate index).  random: draw one
    uniform vector per stage until everything is covered.
    """
    if max_s < 1:
        raise ValueError("max_s must be >= 1")
    if policy not in ("greedy", "random"):
        raise ValueError(f"unknown policy {policy!r}")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    width = len(constraints.noncentral_edges)
    words = constraints.masks.shape[1]
    rng = random.Random(seed)
    uncovered = constraints.masks
    stages: list[int] = []
    while len(uncovered):
        if len(stages) >= max_s:
            raise BudgetExhausted(
                f"{len(uncovered)} constraints uncovered after {max_s} stages",
                uncovered=len(uncovered),
            )
        if policy == "random":
            sigma = rng.getrandbits(width)
        else:
            pool = [rng.getrandbits(width) for _ in range(pool_size)]
            packed = _pack(pool, words)
            covered = np.zeros(pool_size, dtype=np.int64)
            for start in range(0, len(uncovered), _SCORE_ROWS):
                block = uncovered[start : start + _SCORE_ROWS]
                covered += _odd_overlaps(block, packed).sum(axis=0, dtype=np.int64)
            sigma = pool[int(np.argmax(covered))]  # ties to the lowest index
        stages.append(sigma)
        uncovered = uncovered[_odd_overlaps(uncovered, _pack([sigma], words))[:, 0] == 0]
    return stages


def bits_from_stages(
    base: BaseGraph, stages: list[int]
) -> VoltageAssignment:
    """Per-edge level-bit masks from stage vectors over non-central edges."""
    s = len(stages)
    bits: dict[Edge, int] = {}
    for j, e in enumerate(base.noncentral_edges):
        mask = 0
        for i, sigma in enumerate(stages):
            if (sigma >> j) & 1:
                mask |= 1 << i
        if mask:
            bits[e] = mask
    return VoltageAssignment(s, base.displacement, make_bits(base, s, bits))


# ---------------------------------------------------------------------------
# verification

# a displacement (x, y, z) of the DFS as the one integer x + 16 y + 256 z
_DFS_RADIX = 16


def recheck_constraints_dfs(
    base: BaseGraph, volt: VoltageAssignment
) -> tuple[int, int, int]:
    """(constraint count, uncovered 4-cycles, uncovered 6-cycles) by a
    counting DFS that carries each path's voltage along as it extends it.

    Min-rooted: a cycle is found from its smallest vertex r, the path is
    extended only by vertices above r, and the cycle is counted once, in the
    direction where its second vertex is below its last.  No cycle is stored
    or walked twice.  Each directed edge above the root is looked up once
    per root as (w, displacement code, level bits); the running displacement
    sum and bit XOR grow with the path, so a cycle's voltage is known the
    moment it closes.  The base graph K_{d,d} is bipartite, so its cycles are
    even and the only ones of length at most 6 are 4- and 6-cycles: a path
    closes only after 4 or 6 vertices.  A 4-cycle through both hubs t and b
    is central and skipped; every other zero-displacement cycle is a
    constraint, uncovered when its bits XOR to zero.  verify_certificate
    compares the count with constraint_count_formula, so a missed cycle
    cannot pass unseen.

    The displacement sum is exact.  Every edge moves each axis by -1, 0 or 1
    (a larger step raises ValueError), so along a path of at most 6 edges
    each component stays within +-6.  If x + 16 y + 256 z = 0 then 16
    divides x, and |x| < 8 forces x = 0; likewise y = 0, then z = 0.  So the
    code is 0 exactly when the displacement is.

    Independent of the census route: it imports no enumerator, key or
    constant from census.
    """
    g = base.graph
    hub = tuple(sorted(v for v in base.whites if base.role_of(v).tag in ("t", "b")))
    # (displacement code, bits) of every directed base edge
    step: list[dict[int, tuple[int, int]]] = [{} for _ in range(g.vertex_count)]
    for u, v in g.edges:
        t, m = volt.disp(u, v), volt.bits(u, v)
        if any(abs(x) > 1 for x in t):
            raise ValueError(f"edge ({u}, {v}) has a non-unit displacement {t}")
        code = t[0] + _DFS_RADIX * (t[1] + _DFS_RADIX * t[2])
        step[u][v] = (code, m)
        step[v][u] = (-code, m)
    n_constraints = bad4 = bad6 = 0
    for r in range(g.vertex_count):
        up = [[(w, *step[v][w]) for w in g.adjacency[v] if w > r] for v in range(g.vertex_count)]
        # the closing edge p -> r is r -> p reversed, so a path r .. p closes
        # with zero displacement when its code equals that of r -> p
        home = step[r]
        for p1, x1, m1 in up[r]:
            for p2, x, m in up[p1]:
                x2, m2 = x1 + x, m1 ^ m
                for p3, x, m in up[p2]:
                    if p3 == p1:
                        continue
                    x3, m3 = x2 + x, m2 ^ m
                    if p1 < p3 and p3 in home:  # the 4-cycle r p1 p2 p3
                        hx, hm = home[p3]
                        if x3 == hx and (r, p2) != hub and (p1, p3) != hub:
                            n_constraints += 1
                            bad4 += m3 == hm
                    for p4, x, m in up[p3]:
                        if p4 == p2:
                            continue
                        x4, m4 = x3 + x, m3 ^ m
                        for p5, x, m in up[p4]:
                            if p1 < p5 and p5 != p3 and p5 in home:  # r p1 .. p5
                                hx, hm = home[p5]
                                if x4 + x == hx:
                                    n_constraints += 1
                                    bad6 += m4 ^ m == hm
    return n_constraints, bad4, bad6


def verification_route(d: int) -> str:
    """How verify_certificate checks a degree-d voltage: "census+dfs" when it
    also re-enumerates every constraint cycle by DFS, "census-only" when the
    constraint set is too large and the census alone decides."""
    if constraint_count_formula(d) <= EXPLICIT_LIMIT:
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

def _bch_columns(m: int, width: int) -> list[int]:
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


def certify(
    d: int,
    max_s: int = 40,
    seed: int = 0,
    pool_size: int = 64,
    explicit_limit: int = EXPLICIT_LIMIT,
) -> tuple[LiftCertificate, BaseGraph, VoltageAssignment]:
    """Build the base graph, find a covering lift sequence, and verify it.

    Greedy search over the explicit constraint set when it fits under
    explicit_limit.  Above it, the 3m stages of _bch_columns, with m the
    smallest degree with 2^m - 1 >= d^2 - 2d (the non-central edge count):
    no search, and the same stages for every seed.  BudgetExhausted when the
    greedy search needs more than max_s stages, or, before anything is
    built, when 3m is above max_s or max_connected_stages(d).
    """
    if max_s < 1:
        raise ValueError("max_s must be >= 1")
    if pool_size < 1:  # checked here too: the BCH route never searches
        raise ValueError("pool_size must be >= 1")
    if d < 5:
        raise DegreeTooSmall(f"construction requires d >= 5, got {d}")
    expected = constraint_count_formula(d)
    explicit = expected <= explicit_limit
    m = (d * d - 2 * d).bit_length()
    if not explicit and 3 * m > min(max_s, max_connected_stages(d)):
        raise BudgetExhausted(
            f"d={d} needs s={3 * m} BCH stages, above max_s={max_s} or the "
            f"{max_connected_stages(d)} stages a connected lattice allows",
            uncovered=expected,
        )
    base, volt0 = build_base_graph(d)
    if explicit:
        cons = constraint_cycles(base, volt0)
        if len(cons) != expected:
            raise AssertionError(
                f"constraint enumeration mismatch: {len(cons)} != formula {expected}"
            )
        stages = search_signings(cons, max_s=max_s, seed=seed, pool_size=pool_size)
        volt = bits_from_stages(base, stages)
        cert = verify_certificate(base, volt, seed=seed, constraint_count=len(cons))
        return cert, base, volt

    columns = _bch_columns(m, len(base.noncentral_edges))
    bits = make_bits(base, 3 * m, dict(zip(base.noncentral_edges, columns)))
    volt = VoltageAssignment(3 * m, base.displacement, bits)
    return verify_certificate(base, volt, seed=seed), base, volt
