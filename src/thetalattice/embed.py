"""Straight-line placement of a full unit graph in R^3 with exact verification.

Connector vertices rx/ry/rz are sampled in the outer face boxes, everything
else in the center box; lx/ly/lz positions are the matching-level rx/ry/rz
points shifted back by one unit, realizing the gluing.  A try is good when,
over the full 3x3x3 block of unit translates, edge segments meet only at
shared endpoints.  Verdicts are decided in integer arithmetic on grid-scaled
coordinates; a float64 filter with a static error bound only ever proves a
pair skew, so verdicts are exact and platform-independent.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import AttemptsExhausted, GridTooCoarse, MalformedGraph, TooLarge
from .graphs import LabeledGraph, Role

Point = tuple[Fraction, Fraction, Fraction]
IPoint = tuple[int, int, int]

THIRD = Fraction(1, 3)
CENTER = (THIRD, 2 * THIRD)
OUTER = (2 * THIRD, Fraction(1))
DEFAULT_RESOLUTION = Fraction(1, 2**20)
# Sampled coordinates lie in (-1/3, 4/3), so a denominator up to 2^40 keeps
# block coordinates (up to two more units of shift) far below is_good_try's
# 2^53 limit.
_MAX_GRID_DENOMINATOR = 2**40
# embed refuses full unit graphs with more edges than this: is_good_try is
# quadratic in the edge count, and the 102,400 edges of d = 10, s = 10 took
# 365 s on a 2-vCPU VM
EMBED_EDGE_LIMIT = 1 << 17

# role tag -> (x-interval, y-interval, z-interval); lx/ly/lz are derived
_BOXES = {
    "rx": (OUTER, CENTER, CENTER),
    "ry": (CENTER, OUTER, CENTER),
    "rz": (CENTER, CENTER, OUTER),
}
_DERIVED = {"lx": ("rx", (1, 0, 0)), "ly": ("ry", (0, 1, 0)), "lz": ("rz", (0, 0, 1))}


@dataclass(frozen=True)
class Try:
    """One candidate placement: vertex id -> rational point."""

    points: Mapping[int, Point]
    grid_resolution: Fraction

    def scaled(self) -> tuple[dict[int, IPoint], int]:
        """Integer coordinates in grid units plus the units-per-1 scale."""
        denom = 1
        for p in self.points.values():
            for c in p:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
        scaled = {
            v: tuple(int(c * denom) for c in p) for v, p in self.points.items()
        }
        return scaled, denom


def _grid_range(lo: Fraction, hi: Fraction, res: Fraction) -> tuple[int, int]:
    """Integer k range with lo < k*res < hi, or GridTooCoarse."""
    kmin = math.floor(lo / res) + 1
    kmax = math.ceil(hi / res) - 1
    if kmin > kmax:
        raise GridTooCoarse(f"no grid point of resolution {res} inside ({lo},{hi})")
    return kmin, kmax


def sample_try(
    fug: LabeledGraph, seed: int, grid_resolution: Fraction = DEFAULT_RESOLUTION
) -> Try:
    """Uniform placement on the rational grid inside each role's open box,
    rejection-sampled to distinct points; deterministic in the seed."""
    labels = fug.labels
    if labels is None:
        raise MalformedGraph("sample_try needs a labeled full unit graph")
    res = Fraction(grid_resolution)
    if res <= 0:
        raise ValueError(f"grid resolution must be positive, got {res}")
    if res.denominator > _MAX_GRID_DENOMINATOR:
        raise TooLarge(f"grid resolution {res} has a denominator above 2^40")
    rng = random.Random(seed)
    points: dict[int, Point] = {}
    used: set[Point] = set()
    by_key = fug.label_index()
    for v in range(fug.vertex_count):
        lab = labels[v]
        tag = lab.role.tag
        if tag in _DERIVED:
            continue
        box = _BOXES.get(tag, (CENTER, CENTER, CENTER))
        ranges = [_grid_range(lo, hi, res) for lo, hi in box]
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
        if lab.role.tag not in _DERIVED:
            continue
        src_tag, shift = _DERIVED[lab.role.tag]
        src = by_key[(Role(src_tag), lab.level, lab.cell)]
        sp = points[src]
        points[v] = (sp[0] - shift[0], sp[1] - shift[1], sp[2] - shift[2])
    return Try(points, res)


# ---------------------------------------------------------------------------
# exact integer segment predicates

def _sub(a: IPoint, b: IPoint) -> IPoint:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _add(a: IPoint, b: IPoint) -> IPoint:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _cross(a: IPoint, b: IPoint) -> IPoint:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a: IPoint, b: IPoint) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def segment_pair_ok(p1: IPoint, p2: IPoint, q1: IPoint, q2: IPoint) -> bool:
    """True iff closed segments p1p2 and q1q2 meet only at a shared endpoint.

    Collinear segments that overlap beyond a shared endpoint count as bad.
    """
    shared = {p1, p2} & {q1, q2}
    if len(shared) >= 2:
        return False
    if len(shared) == 1:
        a = shared.pop()
        b = p2 if p1 == a else p1
        c = q2 if q1 == a else q1
        u, v = _sub(b, a), _sub(c, a)
        if _cross(u, v) != (0, 0, 0):
            return True
        return _dot(u, v) < 0  # opposite rays only touch at the vertex
    u = _sub(p2, p1)
    v = _sub(q2, q1)
    w = _sub(q1, p1)
    n = _cross(u, v)
    if n == (0, 0, 0):
        if _cross(w, u) != (0, 0, 0):
            return True  # parallel, different lines
        # collinear: closed parameter intervals along u must not meet
        uu = _dot(u, u)
        t1, t2 = _dot(w, u), _dot(_sub(q2, p1), u)
        lo, hi = min(t1, t2), max(t1, t2)
        return hi < 0 or lo > uu
    if _dot(w, n) != 0:
        return True  # skew lines
    den = _dot(n, n)
    s_num = _dot(_cross(w, v), n)
    t_num = _dot(_cross(w, u), n)
    if 0 <= s_num <= den and 0 <= t_num <= den:
        return False  # proper crossing or endpoint-on-interior touch
    return True


# Orientation filter.  Shewchuk's orient3d error bound A (1997), with
# epsilon = 2^-53: when |det| > (7 eps + 56 eps^2) * permanent, the float64
# determinant has the sign of the exact one.  The bound holds only when every
# input coordinate is exact in float64 and nothing underflows, so every block
# coordinate (scaled coordinate plus up to two units of shift) must be an
# integer of magnitude below 2^53.
_EPS = 2.0**-53
_ORIENT3D_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_COORD_LIMIT = 2**53
# Below this block-coordinate bound, endpoint differences stay below 2^30,
# their products below 2^60, and a cross component or a 3-term dot product
# below 3 * 2^60 < 2^63, so _shared_endpoint_ok decides in int64 exactly.
_INT64_SHARED_LIMIT = 2**29
# One representative of each translation class of pairs in the 3x3x3 block:
# (e, f + delta) and (f, e - delta) are the same pair, so delta >= 0 in
# lexicographic order.
_OFFSETS = tuple(
    delta for delta in itertools.product(range(-2, 3), repeat=3) if delta >= (0, 0, 0)
)
# pair-mask elements per chunk, so temporaries stay at a few MiB however many
# edges there are
_CHUNK = 1 << 14


def _undecided(
    start: np.ndarray, step: np.ndarray, i: np.ndarray, j: np.ndarray, shift: np.ndarray
) -> np.ndarray:
    """Positions k where the float64 orientation of segment i[k] against
    segment j[k] + shift does not certify the two lines skew.

    start and step are (3, E) int64: first endpoint and endpoint difference
    per edge.  This is Shewchuk's orient3d(p2, q1, q2, p1) fast path in the
    same evaluation order.  The differences are exact in int64 and round once
    on conversion, as a float64 subtraction of the exact inputs would.
    """
    w = start[:, j] + shift[:, None] - start[:, i]
    a = step[:, i].astype(np.float64)
    c = (w + step[:, j]).astype(np.float64)
    b = w.astype(np.float64)
    bxcy, cxby = b[0] * c[1], c[0] * b[1]
    cxay, axcy = c[0] * a[1], a[0] * c[1]
    axby, bxay = a[0] * b[1], b[0] * a[1]
    det = a[2] * (bxcy - cxby) + b[2] * (cxay - axcy) + c[2] * (axby - bxay)
    permanent = (
        (np.abs(bxcy) + np.abs(cxby)) * np.abs(a[2])
        + (np.abs(cxay) + np.abs(axcy)) * np.abs(b[2])
        + (np.abs(axby) + np.abs(bxay)) * np.abs(c[2])
    )
    return np.flatnonzero(np.abs(det) <= _ORIENT3D_BOUND * permanent)


def _shared_endpoint_ok(
    start: np.ndarray, end: np.ndarray, i: np.ndarray, j: np.ndarray, shift: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(shared, ok) for the pairs of segment i[k] against segment j[k] +
    shift: whether they share an endpoint, and where they do, whether they
    meet only there, as segment_pair_ok decides it.

    start and end are (3, E) int64 endpoints; no segment is a single point.
    Two shared endpoints make the same segment twice.  With one shared
    endpoint a and far ends b and c, the segments meet only at a unless the
    rays a->b and a->c are collinear (zero cross product) and point the same
    way (dot product >= 0).  Exact in int64 while every coordinate of the
    two segments is below _INT64_SHARED_LIMIT in magnitude.
    """
    p1, p2 = start[:, i], end[:, i]
    q1, q2 = start[:, j] + shift[:, None], end[:, j] + shift[:, None]
    p1q1, p1q2 = (p1 == q1).all(axis=0), (p1 == q2).all(axis=0)
    p2q1, p2q2 = (p2 == q1).all(axis=0), (p2 == q2).all(axis=0)
    at_p1 = p1q1 | p1q2
    at_q1 = p1q1 | p2q1
    count = p1q1.astype(np.int64) + p1q2 + p2q1 + p2q2
    a = np.where(at_p1, p1, p2)
    u = np.where(at_p1, p2, p1) - a
    v = np.where(at_q1, q2, q1) - a
    crossed = np.cross(u, v, axis=0).any(axis=0)
    ok = (count == 1) & (crossed | ((u * v).sum(axis=0) < 0))
    return count > 0, ok


def is_good_try(t: Try, fug: LabeledGraph) -> bool:
    """Exact check that over the 3x3x3 block of unit translates every pair of
    intersecting edge segments meets only at a shared endpoint.

    Every pair in the block is an integer translate of (edge e, edge f shifted
    by delta) with delta in {-2..2}^3, and every such triple occurs in the
    block; segment_pair_ok is translation-invariant, so one representative per
    class is checked (delta lexicographically >= 0, and e < f at delta = 0).
    Pairs whose closed bounding boxes are disjoint are skipped (exact, int64).
    A float64 orientation filter with Shewchuk's static bound A certifies
    skew pairs; it needs every block coordinate to be an integer below 2^53
    in magnitude, else TooLarge.  Pairs with a shared endpoint are decided by
    the vectorised int64 _shared_endpoint_ok while every block coordinate is
    below 2^29; every other pair, and above 2^29 every pair the filter leaves,
    is decided by the exact Python-int segment_pair_ok.
    """
    if fug.roles is None:
        raise MalformedGraph("is_good_try needs a labeled graph")
    missing = set(range(fug.vertex_count)) - set(t.points)
    if missing:
        raise ValueError(f"try does not cover vertices {sorted(missing)}")
    if not len(fug.edge_array):
        return True
    scaled, denom = t.scaled()
    reach = max(abs(c) for p in scaled.values() for c in p) + 2 * denom
    if reach >= _COORD_LIMIT:
        raise TooLarge(f"block coordinates reach {reach} grid units, not below 2^53")
    int64_shared = reach < _INT64_SHARED_LIMIT
    ends = [(scaled[u], scaled[v]) for u, v in fug.edges]
    # (endpoint, axis, edge)
    start, end = np.array(ends, dtype=np.int64).transpose(1, 2, 0)
    step = end - start
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    hull_lo, hull_hi = lo.min(axis=1)[:, None], hi.max(axis=1)[:, None]
    for delta in _OFFSETS:
        offset = tuple(x * denom for x in delta)
        shift = np.array(offset, dtype=np.int64)
        sh = shift[:, None]
        # only edges e that reach the shifted hull, and edges f whose shifted
        # box reaches the hull, can be in a meeting pair
        rows = np.flatnonzero(((lo <= hull_hi + sh) & (hi >= hull_lo + sh)).all(axis=0))
        cols = np.flatnonzero(((lo + sh <= hull_hi) & (hi + sh >= hull_lo)).all(axis=0))
        if not (len(rows) and len(cols)):
            continue
        col_lo, col_hi = lo[:, cols] + sh, hi[:, cols] + sh
        same = delta == (0, 0, 0)
        per_chunk = max(1, _CHUNK // len(cols))
        for first in range(0, len(rows), per_chunk):
            r = rows[first : first + per_chunk]
            # at delta = 0 only j > i is wanted, so skip columns up to r[0]
            skip = int(np.searchsorted(cols, r[0], side="right")) if same else 0
            meet = np.ones((len(r), len(cols) - skip), dtype=bool)
            for k in range(3):
                meet &= lo[k, r, None] <= col_hi[k, skip:]
                meet &= col_lo[k, skip:] <= hi[k, r, None]
            i, j = np.nonzero(meet)
            i, j = r[i], cols[skip:][j]
            if same:
                keep = i < j
                i, j = i[keep], j[keep]
            left = _undecided(start, step, i, j, shift)
            i, j = i[left], j[left]
            if int64_shared:
                shared, ok = _shared_endpoint_ok(start, end, i, j, shift)
                if not ok[shared].all():
                    return False
                i, j = i[~shared], j[~shared]
            for e, f in zip(i.tolist(), j.tolist()):
                (p1, p2), (q1, q2) = ends[e], ends[f]
                if not segment_pair_ok(p1, p2, _add(q1, offset), _add(q2, offset)):
                    return False
    return True


def find_good_try(
    fug: LabeledGraph,
    seed: int,
    max_attempts: int = 1000,
    grid_resolution: Fraction = DEFAULT_RESOLUTION,
) -> tuple[Try, int]:
    """First good try from the seed-offset attempt stream, with its attempt
    count (1-based)."""
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    for k in range(max_attempts):
        t = sample_try(fug, seed + k, grid_resolution)
        if is_good_try(t, fug):
            return t, k + 1
    raise AttemptsExhausted(f"no good try within {max_attempts} attempts")


def check_embedding_properties(t: Try, fug: LabeledGraph) -> dict[str, bool]:
    """The lattice placement checklist, computed exactly.

    straight_line_segments and integer_translation_invariant hold by
    construction (edges are stored as endpoint pairs; the block is built from
    integer shifts); vertex interiority and edge locality are computed.
    """
    interior = all(
        all(c.denominator != 1 for c in p) for p in t.points.values()
    )
    local = True
    for u, v in fug.edges:
        cu = tuple(math.floor(c) for c in t.points[u])
        cv = tuple(math.floor(c) for c in t.points[v])
        diff = sum(abs(a - b) for a, b in zip(cu, cv))
        if diff > 1:
            local = False
            break
    return {
        "straight_line_segments": True,
        "integer_translation_invariant": True,
        "vertices_interior_of_cubes": interior,
        "edges_within_cube_or_nearest_neighbor": local,
    }


# ---------------------------------------------------------------------------
# serialization

def try_to_json_dict(t: Try, attempts: int | None = None, seed: int | None = None) -> dict:
    out = {
        "grid_resolution": f"{t.grid_resolution.numerator}/{t.grid_resolution.denominator}",
        "points": {
            str(v): [f"{c.numerator}/{c.denominator}" for c in p]
            for v, p in sorted(t.points.items())
        },
    }
    if attempts is not None:
        out["attempts"] = attempts
    if seed is not None:
        out["seed"] = seed
    return out


def try_from_json_dict(data: dict) -> Try:
    points = {
        int(v): tuple(Fraction(c) for c in p) for v, p in data["points"].items()
    }
    return Try(points, Fraction(data["grid_resolution"]))


def try_to_obj(t: Try, fug: LabeledGraph) -> str:
    """OBJ-style line-set export (float coordinates, for viewers only)."""
    lines = []
    order = sorted(t.points)
    pos = {v: i + 1 for i, v in enumerate(order)}
    for v in order:
        x, y, z = (float(c) for c in t.points[v])
        lines.append(f"v {x:.9f} {y:.9f} {z:.9f}")
    for u, v in fug.edges:
        lines.append(f"l {pos[u]} {pos[v]}")
    return "\n".join(lines) + "\n"
