"""Constraint-cycle enumeration and the search for lift signings that kill
every stray zero-voltage 4-cycle and every zero-voltage 6-cycle.

A constraint is a simple base cycle of length 4 or 6 with zero net
displacement that is not a central 4-cycle.  A stage signing sigma (a GF(2)
vector over the non-central base edges) covers a constraint when their
incidence overlap is odd: the cycle then doubles in length at that lift and
can never contribute a short cycle again.  A certificate is a family
sigma_1..sigma_s covering every constraint.

For degrees whose constraint set is too large to materialize, signings are
drawn uniformly at random with s ~ log2(#constraints) + slack and verified
through the aggregated voltage census, which checks exactly the same
zero-voltage condition without touching individual cycles.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from math import comb

from .census import CensusReport, _short_cycles, voltage_census
from .errors import BudgetExhausted, TooLarge
from .graphs import Edge
from .voltage import (
    BaseGraph,
    CertificateFlags,
    LiftCertificate,
    VoltageAssignment,
    ZERO3,
    build_base_graph,
    canonical_edge_order,
    make_bits,
    max_connected_stages,
    stage_bitstrings,
    vadd,
    voltage_group_generated,
)

# above this constraint count, certify() switches to the random-signing route
# and verify skips the per-cycle re-enumeration in favor of the census check
EXPLICIT_LIMIT = 300_000
_RANDOM_SLACK_BITS = 8
_RANDOM_ATTEMPTS = 4


@dataclass(frozen=True)
class Constraint:
    length: int
    vertices: tuple[int, ...]
    mask: int  # incidence over non-central base edges


@dataclass(frozen=True)
class ConstraintSet:
    d: int
    constraints: tuple[Constraint, ...]
    noncentral_edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.constraints)


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


def _cycle_displacement(volt: VoltageAssignment, seq: tuple[int, ...]):
    total = ZERO3
    for i, u in enumerate(seq):
        total = vadd(total, volt.disp(u, seq[(i + 1) % len(seq)]))
    return total


def _cycle_mask(seq: tuple[int, ...], nc_index: dict[Edge, int]) -> int:
    mask = 0
    for i, u in enumerate(seq):
        v = seq[(i + 1) % len(seq)]
        j = nc_index.get((u, v) if u < v else (v, u))
        if j is not None:
            mask ^= 1 << j
    return mask


def _canonical_cycle(seq: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate to the minimum vertex and fix direction by the smaller neighbor."""
    k = len(seq)
    i = seq.index(min(seq))
    fwd = tuple(seq[(i + j) % k] for j in range(k))
    rev = tuple(seq[(i - j) % k] for j in range(k))
    return min(fwd, rev)


def constraint_cycles(base: BaseGraph, volt: VoltageAssignment) -> ConstraintSet:
    """All simple 4- and 6-cycles of the base with zero net displacement,
    excluding central 4-cycles, in deterministic canonical order.

    Uses the bipartite structure: a 4-cycle is a white pair with two black
    middles, a 6-cycle a white triple with distinct blacks on its three
    pair slots.  Only displacement voltages are consulted.
    """
    g = base.graph
    whites, blacks = base.whites, base.blacks
    t_id = next(v for v in whites if base.role_of(v).tag == "t")
    b_id = next(v for v in whites if base.role_of(v).tag == "b")
    nc_index = {e: j for j, e in enumerate(base.noncentral_edges)}
    found: list[Constraint] = []

    for w1, w2 in itertools.combinations(whites, 2):
        if {w1, w2} == {t_id, b_id}:
            continue  # every 4-cycle on the hub pair is central
        for c1, c2 in itertools.combinations(blacks, 2):
            seq = (w1, c1, w2, c2)
            if _cycle_displacement(volt, seq) == ZERO3:
                canon = _canonical_cycle(seq)
                found.append(Constraint(4, canon, _cycle_mask(canon, nc_index)))

    for w1, w2, w3 in itertools.combinations(whites, 3):
        for ca, cb, cc in itertools.permutations(blacks, 3):
            seq = (w1, ca, w2, cb, w3, cc)
            if _cycle_displacement(volt, seq) == ZERO3:
                canon = _canonical_cycle(seq)
                found.append(Constraint(6, canon, _cycle_mask(canon, nc_index)))

    found.sort(key=lambda c: (c.length, c.vertices))
    for c in found:
        assert c.mask != 0, "constraint cycles always use a non-central edge"
    return ConstraintSet(base.d, tuple(found), base.noncentral_edges)


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
    width = len(constraints.noncentral_edges)
    rng = random.Random(seed)
    uncovered = [c.mask for c in constraints.constraints]
    stages: list[int] = []
    while uncovered:
        if len(stages) >= max_s:
            raise BudgetExhausted(
                f"{len(uncovered)} constraints uncovered after {max_s} stages",
                uncovered=len(uncovered),
            )
        if policy == "random":
            sigma = rng.getrandbits(width)
        else:
            best_sigma, best_cov = 0, -1
            for _ in range(pool_size):
                cand = rng.getrandbits(width)
                cov = sum(1 for m in uncovered if (cand & m).bit_count() & 1)
                if cov > best_cov:
                    best_sigma, best_cov = cand, cov
            sigma = best_sigma
        stages.append(sigma)
        uncovered = [m for m in uncovered if not (sigma & m).bit_count() & 1]
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
    _, volt0 = build_base_graph(base.d)
    return volt0.with_bits(s, make_bits(base, s, bits))


# ---------------------------------------------------------------------------
# verification

def recheck_constraints_dfs(
    base: BaseGraph, volt: VoltageAssignment
) -> tuple[int, int, int]:
    """(constraint count, uncovered 4-cycles, uncovered 6-cycles) via an
    independent DFS cycle enumeration and per-edge bit XOR along each cycle."""
    t_id = next(v for v in base.whites if base.role_of(v).tag == "t")
    b_id = next(v for v in base.whites if base.role_of(v).tag == "b")
    n_constraints = bad4 = bad6 = 0
    for seq in _short_cycles(base.graph):
        if _cycle_displacement(volt, seq) != ZERO3:
            continue
        if len(seq) == 4 and {t_id, b_id} <= set(seq):
            continue  # central
        n_constraints += 1
        total = 0
        for i, u in enumerate(seq):
            total ^= volt.bits(u, seq[(i + 1) % len(seq)])
        if total == 0:
            if len(seq) == 4:
                bad4 += 1
            else:
                bad6 += 1
    return n_constraints, bad4, bad6


def verification_route(d: int, recheck: str = "auto") -> str:
    """How verify_certificate checks a degree-d voltage: "census+dfs" when it
    also re-enumerates every constraint cycle by DFS, "census-only" when the
    constraint set is too large and the census alone decides."""
    if recheck not in ("auto", "always", "never"):
        raise ValueError(f"unknown recheck mode {recheck!r}")
    if recheck == "always" or (
        recheck == "auto" and constraint_count_formula(d) <= EXPLICIT_LIMIT
    ):
        return "census+dfs"
    return "census-only"


def verify_certificate(
    base: BaseGraph,
    volt: VoltageAssignment,
    seed: int = 0,
    constraint_count: int | None = None,
    recheck: str = "auto",
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
    route = verification_route(base.d, recheck)
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

def certify(
    d: int,
    policy: str = "auto",
    max_s: int = 40,
    seed: int = 0,
    pool_size: int = 64,
    explicit_limit: int = EXPLICIT_LIMIT,
) -> tuple[LiftCertificate, BaseGraph, VoltageAssignment]:
    """Build the base graph, find a covering lift sequence, and verify it.

    policy 'auto' runs greedy over the explicit constraint set when it fits
    under explicit_limit and otherwise falls back to uniform random signings
    with s = ceil(log2 #constraints) + 8 slack, verified by census.
    """
    base, volt0 = build_base_graph(d)
    expected = constraint_count_formula(d)
    explicit = expected <= explicit_limit
    if policy == "auto":
        policy = "greedy" if explicit else "random"
    if policy == "greedy" and not explicit:
        raise TooLarge(
            f"d={d} has {expected} constraint cycles; greedy needs them explicit "
            f"(limit {explicit_limit}), use policy='random' or 'auto'"
        )

    if explicit:
        cons = constraint_cycles(base, volt0)
        if len(cons) != expected:
            raise AssertionError(
                f"constraint enumeration mismatch: {len(cons)} != formula {expected}"
            )
        stages = search_signings(cons, policy=policy, max_s=max_s, seed=seed, pool_size=pool_size)
        volt = bits_from_stages(base, stages)
        cert = verify_certificate(base, volt, seed=seed, constraint_count=len(cons))
        return cert, base, volt

    # stay comfortably under the connectivity ceiling on the stage count
    s_target = min(
        max_s,
        math.ceil(math.log2(expected)) + _RANDOM_SLACK_BITS,
        max_connected_stages(d) - 3,
    )
    width = len(base.noncentral_edges)
    rng = random.Random(seed)
    for _ in range(_RANDOM_ATTEMPTS):
        stages = [rng.getrandbits(width) for _ in range(s_target)]
        volt = bits_from_stages(base, stages)
        report = voltage_census(base, volt)
        cert = verify_certificate(
            base, volt, seed=seed, constraint_count=expected, report=report
        )
        if cert.flags.all_true:
            return cert, base, volt
    # each zero-voltage constraint cycle lifts to 2^s cycles per cube
    raise BudgetExhausted(
        f"random signings with s={s_target} failed verification "
        f"{_RANDOM_ATTEMPTS} times for d={d} (max_s={max_s})",
        uncovered=(report.c4_stray + report.c6) >> s_target,
    )
