"""Straight-line placement of a full unit graph in R^3 with exact verification.

Connector vertices rx/ry/rz are sampled in the outer face boxes, everything
else in the center box; lx/ly/lz positions are the matching-level rx/ry/rz
points shifted back by one unit, realizing the gluing.  A try is good when,
over the full 3x3x3 block of unit translates, edge segments meet only at
shared endpoints.  A try holds integer numerators over one denominator, and
verdicts are decided in integer arithmetic on grid-scaled coordinates; a
float64 filter with a static error bound only ever proves a pair skew, so
verdicts are exact and platform-independent.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from .errors import AttemptsExhausted, GridTooCoarse, TooLarge
from .graphs import LabeledGraph, _Value, role_tag

IPoint = tuple[int, int, int]

DEFAULT_RESOLUTION = Fraction(1, 2**20)
# Sampled coordinates lie in (-1/3, 4/3), so a denominator up to 2^40 keeps
# block coordinates (up to two more units of shift) far below is_good_try's
# 2^53 limit.
_MAX_GRID_DENOMINATOR = 2**40
# embed refuses full unit graphs with more edges than this: is_good_try is
# quadratic in the edge count, and the 102,400 edges of d = 10, s = 10 took
# 365 s on a 2-vCPU VM
EMBED_EDGE_LIMIT = 1 << 17

CENTER, OUTER = (1, 2), (2, 3)  # the open intervals (a/3, b/3) as (a, b)
# role tag -> (x-interval, y-interval, z-interval); lx/ly/lz are derived,
# every other role sits in the center box
_BOXES = {"rx": (OUTER, CENTER, CENTER), "ry": (CENTER, OUTER, CENTER), "rz": (CENTER, CENTER, OUTER)}
# derived tag -> (source tag, axis of the unit shift back)
_DERIVED = {"lx": ("rx", 0), "ly": ("ry", 1), "lz": ("rz", 2)}


class Try(_Value):
    """One candidate placement: vertex v sits at num[v] / denom.

    num is a read-only (n, 3) int64 array of numerators, a copy of the one
    given, over one positive integer denominator.  A sampled try has the
    denominator q of its grid resolution p/q, so every coordinate k*p/q is
    exact.  Tries are immutable and unhashable, and equal when their
    resolutions and scaled() forms are.
    """

    __slots__ = _fields = ("num", "denom", "grid_resolution")
    __hash__ = None

    def __init__(self, num: np.ndarray, denom: int, grid_resolution: Fraction):
        if denom < 1:
            raise ValueError(f"try denominator must be positive, got {denom}")
        self._store(np.array(num, dtype=np.int64).reshape(-1, 3), denom, grid_resolution)

    def scaled(self) -> tuple[np.ndarray, int]:
        """Integer coordinates in grid units plus the units-per-1 scale: num
        and denom divided by their common gcd, so the scale is the lcm of the
        reduced coordinate denominators."""
        g = math.gcd(int(np.gcd.reduce(self.num, axis=None)), self.denom)
        return self.num // g, self.denom // g

    def _key(self) -> tuple:
        num, scale = self.scaled()
        return self.grid_resolution, scale, num.tolist()


def _grid_range(a: int, b: int, res: Fraction) -> tuple[int, int]:
    """Integer k range with a/3 < k*res < b/3, or GridTooCoarse."""
    p3, q = 3 * res.numerator, res.denominator
    kmin = a * q // p3 + 1
    kmax = -(-b * q // p3) - 1
    if kmin > kmax:
        raise GridTooCoarse(f"no grid point of resolution {res} inside ({Fraction(a, 3)},{Fraction(b, 3)})")
    return kmin, kmax


def sample_try(
    fug: LabeledGraph, seed: int, grid_resolution: Fraction = DEFAULT_RESOLUTION
) -> Try:
    """Uniform placement on the rational grid inside each role's open box,
    rejection-sampled to distinct points; deterministic in the seed.

    Each non-derived vertex in id order draws k with one rng.randint per
    axis until k is new, and sits at k * grid_resolution.
    """
    res = Fraction(grid_resolution)
    if res <= 0:
        raise ValueError(f"grid resolution must be positive, got {res}")
    if res.denominator > _MAX_GRID_DENOMINATOR:
        raise TooLarge(f"grid resolution {res} has a denominator above 2^40")
    rng = random.Random(seed)
    tags = np.array([role_tag(r) for r in fug.roles], dtype=object)[fug.role_codes].tolist()
    keys = list(zip(tags, fug.levels.tolist(), map(tuple, fug.cells.tolist())))
    ranges: dict[str, list[tuple[int, int]]] = {}
    placed: dict[IPoint, int] = {}  # k -> vertex
    for v, (tag, _, _) in enumerate(keys):
        if tag in _DERIVED:
            continue
        if tag not in ranges:
            ranges[tag] = [_grid_range(a, b, res) for a, b in _BOXES.get(tag, (CENTER,) * 3)]
        (x0, x1), (y0, y1), (z0, z1) = ranges[tag]
        for _ in range(1000):
            k = (rng.randint(x0, x1), rng.randint(y0, y1), rng.randint(z0, z1))
            if k not in placed:
                break
        else:
            raise GridTooCoarse(f"cannot place distinct points at resolution {res}")
        placed[k] = v
    num = np.zeros((len(keys), 3), dtype=np.int64)
    num[list(placed.values())] = np.array(list(placed), dtype=np.int64).reshape(-1, 3) * res.numerator
    vertex = {key: v for v, key in enumerate(keys)}
    for v, (tag, level, cell) in enumerate(keys):
        if tag in _DERIVED:
            src_tag, axis = _DERIVED[tag]
            num[v] = num[vertex[(src_tag, level, cell)]]
            num[v, axis] -= res.denominator
    return Try(num, res.denominator, res)


# ---------------------------------------------------------------------------
# exact integer segment predicates

def _sub(a: IPoint, b: IPoint) -> IPoint:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


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
# pair-mask elements per box-mask chunk (and per float-filter call), so
# temporaries stay at a few MiB however many edges there are; larger chunks
# measured slower
_CHUNK = 1 << 14
# pairs the float filter leaves that wait in the pending batch before one
# exact decision runs on all of them
_FLUSH = 1 << 12


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
    shift[:, k]: whether they share an endpoint, and where they do, whether
    they meet only there, as segment_pair_ok decides it.

    start and end are (3, E) int64 endpoints; no segment is a single point.
    Two shared endpoints make the same segment twice.  With one shared
    endpoint a and far ends b and c, the segments meet only at a unless the
    rays a->b and a->c are collinear (zero cross product) and point the same
    way (dot product >= 0).  Exact in int64 while every coordinate of the
    two segments is below _INT64_SHARED_LIMIT in magnitude.
    """
    p1, p2 = start[:, i], end[:, i]
    q1, q2 = start[:, j] + shift, end[:, j] + shift
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


def _decide(start: np.ndarray, end: np.ndarray, pending: list, int64_shared: bool) -> bool:
    """Exact verdict on a pending batch of (i, j, shift) parts, segment i[k]
    against segment j[k] + shift[:, k], as is_good_try describes it."""
    i, j, shift = (np.concatenate(part, axis=-1) for part in zip(*pending))
    if int64_shared:
        shared, ok = _shared_endpoint_ok(start, end, i, j, shift)
        if not ok[shared].all():
            return False
        i, j, shift = i[~shared], j[~shared], shift[:, ~shared]
    quads = np.stack([start[:, i], end[:, i], start[:, j] + shift, end[:, j] + shift]).transpose(2, 0, 1)
    return all(segment_pair_ok(*map(tuple, quad)) for quad in quads.tolist())


def is_good_try(t: Try, fug: LabeledGraph) -> bool:
    """Exact check that over the 3x3x3 block of unit translates every pair of
    intersecting edge segments meets only at a shared endpoint.

    Every pair in the block is an integer translate of (edge e, edge f shifted
    by delta) with delta in {-2..2}^3, and every such triple occurs in the
    block; segment_pair_ok is translation-invariant, so one representative per
    class is checked (delta lexicographically >= 0, and e < f at delta = 0).
    Only edges e whose box reaches the hull of all edges shifted by delta, and
    edges f whose box shifted by delta reaches the hull, can meet; one
    broadcast finds them for every delta.  Pairs whose closed bounding boxes
    are disjoint are skipped (exact, int64).
    A float64 orientation filter with Shewchuk's static bound A certifies
    skew pairs; it needs every block coordinate to be an integer below 2^53
    in magnitude, else TooLarge.  The pairs it leaves, from every chunk and
    offset, wait in one pending batch that _decide settles once it holds
    _FLUSH pairs, and once more at the end: pairs with a shared endpoint by
    the vectorised int64 _shared_endpoint_ok while every block coordinate is
    below 2^29; every other pair, and above 2^29 every pair the filter leaves,
    by the exact Python-int segment_pair_ok.
    """
    if len(t.num) < fug.vertex_count:
        raise ValueError(f"try places {len(t.num)} of {fug.vertex_count} vertices")
    if not len(fug.edge_array):
        return True
    scaled, denom = t.scaled()
    reach = max(-int(scaled.min()), int(scaled.max())) + 2 * denom
    if reach >= _COORD_LIMIT:
        raise TooLarge(f"block coordinates reach {reach} grid units, not below 2^53")
    int64_shared = reach < _INT64_SHARED_LIMIT
    # (axis, edge)
    start, end = scaled[fug.edge_array[:, 0]].T, scaled[fug.edge_array[:, 1]].T
    step = end - start
    lo, hi = np.minimum(start, end), np.maximum(start, end)
    # near[k, u + 2, e]: edge e's extent on axis k meets the hull's shifted by u units
    units = np.arange(-2, 3)[:, None] * denom
    hull_lo, hull_hi = lo.min(axis=1)[:, None, None] + units, hi.max(axis=1)[:, None, None] + units
    near = (lo[:, None] <= hull_hi) & (hi[:, None] >= hull_lo)
    # per delta, the edges whose box reaches the hull shifted by delta (rows)
    # and the edges whose box shifted by delta reaches the hull (columns)
    deltas = np.array(_OFFSETS)
    rows_at = near[np.arange(3), 2 + deltas].all(axis=1)
    cols_at = near[np.arange(3), 2 - deltas].all(axis=1)
    pending, waiting = [], 0  # the exact-decision batch and its pair count
    for o in np.flatnonzero(rows_at.any(axis=1) & cols_at.any(axis=1)).tolist():
        shift = deltas[o] * denom
        sh = shift[:, None]
        rows, cols = np.flatnonzero(rows_at[o]), np.flatnonzero(cols_at[o])
        col_lo, col_hi = lo[:, cols] + sh, hi[:, cols] + sh
        same = not shift.any()
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
            pending.append((i[left], j[left], sh.repeat(len(left), axis=1)))
            waiting += len(left)
            if waiting >= _FLUSH:
                if not _decide(start, end, pending, int64_shared):
                    return False
                pending, waiting = [], 0
    return not waiting or _decide(start, end, pending, int64_shared)


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
    cubes = t.num // t.denom
    u, v = fug.edge_array[:, 0], fug.edge_array[:, 1]
    return {
        "straight_line_segments": True,
        "integer_translation_invariant": True,
        "vertices_interior_of_cubes": bool((t.num % t.denom != 0).all()),
        "edges_within_cube_or_nearest_neighbor": bool((np.abs(cubes[u] - cubes[v]).sum(axis=1) <= 1).all()),
    }


# ---------------------------------------------------------------------------
# serialization

# try_to_json's document and one point record, led by its line break; the
# p/q strings are digits, '-' and '/', which JSON writes unescaped
_TRY_JSON = '{\n  "attempts": %d,\n  "grid_resolution": "%d/%d",\n  "points": %s,\n  "seed": %d\n}\n'
_POINT_JSON = '\n    "%d": [\n      "%d/%d",\n      "%d/%d",\n      "%d/%d"\n    ]'


def try_to_json(t: Try, attempts: int, seed: int) -> str:
    """The try as JSON, vertex id -> three reduced p/q coordinate strings:
    the bytes of json.dumps(record, indent=2, sort_keys=True) + newline,
    written with one format string per point, in str(id) order."""
    n, g = len(t.num), np.gcd(t.num, t.denom)
    fields = np.column_stack([np.arange(n), np.dstack([t.num // g, t.denom // g]).reshape(n, 6)])
    points = ",".join([_POINT_JSON] * n) % tuple(fields[sorted(range(n), key=str)].ravel().tolist())
    points = f"{{{points}\n  }}" if n else "{}"
    res = t.grid_resolution
    return _TRY_JSON % (attempts, res.numerator, res.denominator, points, seed)


def try_to_obj(t: Try, fug: LabeledGraph) -> str:
    """OBJ-style line-set export (float coordinates, for viewers only): a
    "v x y z" line per vertex, then an "l u v" line per edge with 1-based
    ids.  Each coordinate is the Python-int true division num / denom, the
    correctly rounded float of the rational (numpy's float division would
    round num and denom first above 2^53)."""
    q, n, m = t.denom, len(t.num), len(fug.edge_array)
    vertices = ("v %.9f %.9f %.9f\n" * n) % tuple(c / q for c in t.num.ravel().tolist())
    edges = ("l %d %d\n" * m) % tuple((fug.edge_array + 1).ravel().tolist())
    return vertices + edges
