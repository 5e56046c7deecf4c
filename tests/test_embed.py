import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    VertexLabel,
    label_index,
    labeled_graph,
    plain_graph,
    random_bits_voltage,
    sample_try_reference,
    scaled_reference,
    try_from_json_dict,
    try_from_points,
    try_to_json_dict,
    try_points,
    try_to_obj_reference,
    vertex_labels,
)
from thetalattice import embed
from thetalattice.embed import (
    Try,
    check_embedding_properties,
    find_good_try,
    is_good_try,
    sample_try,
    segment_pair_ok,
    try_to_json,
    try_to_obj,
)
from thetalattice.errors import AttemptsExhausted, GridTooCoarse, TooLarge
from thetalattice.voltage import build_base_graph, derived_cover

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned"


def _fug(d=5, s=2, seed=11):
    base, volt0 = build_base_graph(d)
    volt = random_bits_voltage(base, volt0, s, seed) if s else volt0
    return derived_cover(base, volt)


# ---------------------------------------------------------------------------
# sampling

def test_sample_try_boxes_and_shapes():
    fug = _fug(s=0)
    t = sample_try(fug, seed=1, grid_resolution=Fraction(1, 1024))
    points = try_points(t)
    assert len(points) == 13
    third = Fraction(1, 3)
    labels = vertex_labels(fug)
    for v, p in points.items():
        tag = labels[v].tag
        if tag == "rx":
            assert 2 * third < p[0] < 1 and third < p[1] < 2 * third and third < p[2] < 2 * third
        elif tag == "lx":
            assert -third < p[0] < 0
        elif tag in ("t", "b", "c", "f"):
            assert all(third < c < 2 * third for c in p)
    assert len(set(points.values())) == len(points)


def test_sample_try_derived_connector_points():
    fug = _fug(s=2)
    points = try_points(sample_try(fug, seed=5))
    ids = label_index(fug)
    for level in {lab.level for lab in vertex_labels(fug)}:
        rx = ids[("rx", level, (0, 0, 0))]
        lx = ids[("lx", level, (0, 0, 0))]
        assert points[lx] == (points[rx][0] - 1, points[rx][1], points[rx][2])


def test_sample_try_deterministic():
    fug = _fug()
    assert sample_try(fug, seed=9) == sample_try(fug, seed=9)
    assert sample_try(fug, seed=9) != sample_try(fug, seed=10)


def test_sample_try_grid_too_coarse():
    fug = _fug(s=0)
    with pytest.raises(GridTooCoarse):
        sample_try(fug, seed=1, grid_resolution=Fraction(1))



def test_sample_try_grid_resolution_limits():
    fug = _fug(s=0)
    for res in (Fraction(0), Fraction(-1, 8)):
        with pytest.raises(ValueError, match="positive"):
            sample_try(fug, seed=1, grid_resolution=res)
    with pytest.raises(TooLarge):
        sample_try(fug, seed=1, grid_resolution=Fraction(1, 2**40 + 1))
    finest = sample_try(fug, seed=1, grid_resolution=Fraction(1, 2**40))
    assert is_good_try(finest, fug)


def _scaled_as_reference(t):
    """t.scaled() in scaled_reference's form: vertex id -> integer tuple."""
    num, denom = t.scaled()
    return dict(enumerate(map(tuple, num.tolist()))), denom


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize(
    "res",
    [
        Fraction(1, 2**20), Fraction(1, 1024), Fraction(1, 8), Fraction(1, 3), Fraction(2, 7),
        Fraction(13, 20), Fraction(1, 2**40), Fraction(1), Fraction(0), Fraction(-1, 8),
        Fraction(1, 2**40 + 1),
    ],
    ids=str,
)
def test_sample_try_matches_fraction_reference(s, res):
    """The integer sampler places every vertex where the Fraction sampler
    does, for seeds 0..9 on dyadic and non-dyadic grids, raises the same
    error with the same message where the reference raises (an empty box,
    no room for distinct points, a resolution that is not positive or has a
    denominator above 2^40), and scales to the same grid."""
    fug = _fug(s=s)
    for seed in range(10):
        try:
            want = sample_try_reference(fug, seed, res)
        except (GridTooCoarse, TooLarge, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                sample_try(fug, seed, res)
            assert str(got.value) == str(exc)
            continue
        t = sample_try(fug, seed, res)
        assert try_points(t) == want
        assert t.denom == res.denominator
        assert _scaled_as_reference(t) == scaled_reference(want)


# ---------------------------------------------------------------------------
# segment predicate (integer-scaled coordinates)

def test_segments_sharing_endpoint_non_collinear_ok():
    assert segment_pair_ok((0, 0, 0), (2, 0, 0), (0, 0, 0), (0, 3, 0))


def test_segments_crossing_bad():
    assert not segment_pair_ok((0, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0))


def test_segments_collinear_overlap_bad():
    assert not segment_pair_ok((0, 0, 0), (4, 0, 0), (2, 0, 0), (6, 0, 0))


def test_segments_collinear_shared_endpoint_same_ray_bad():
    assert not segment_pair_ok((0, 0, 0), (4, 0, 0), (0, 0, 0), (2, 0, 0))


def test_segments_collinear_opposite_rays_ok():
    assert segment_pair_ok((0, 0, 0), (4, 0, 0), (0, 0, 0), (-2, 0, 0))


def test_segments_skew_ok():
    assert segment_pair_ok((0, 0, 0), (1, 0, 0), (0, 0, 1), (0, 1, 1))


def test_segments_parallel_ok():
    assert segment_pair_ok((0, 0, 0), (3, 0, 0), (0, 1, 0), (3, 1, 0))


def test_segment_endpoint_touching_interior_bad():
    assert not segment_pair_ok((0, 0, 0), (4, 0, 0), (2, 0, 0), (2, 3, 0))


def test_segment_identical_bad():
    assert not segment_pair_ok((0, 0, 0), (1, 1, 1), (0, 0, 0), (1, 1, 1))


@settings(max_examples=80)
@given(
    st.tuples(*[st.integers(-6, 6)] * 3),
    st.tuples(*[st.integers(-6, 6)] * 3),
    st.tuples(*[st.integers(-6, 6)] * 3),
    st.tuples(*[st.integers(-6, 6)] * 3),
    st.tuples(*[st.integers(-3, 3)] * 3),
)
def test_segment_predicate_translation_invariant(p1, p2, q1, q2, shift):
    if p1 == p2 or q1 == q2:
        return

    def sh(p):
        return (p[0] + shift[0], p[1] + shift[1], p[2] + shift[2])

    assert segment_pair_ok(p1, p2, q1, q2) == segment_pair_ok(sh(p1), sh(p2), sh(q1), sh(q2))


@settings(max_examples=80)
@given(
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.tuples(*[st.integers(-5, 5)] * 3),
    st.tuples(*[st.integers(-5, 5)] * 3),
)
def test_segment_predicate_symmetric(p1, p2, q1, q2):
    if p1 == p2 or q1 == q2:
        return
    assert segment_pair_ok(p1, p2, q1, q2) == segment_pair_ok(q1, q2, p1, p2)
    assert segment_pair_ok(p1, p2, q1, q2) == segment_pair_ok(p2, p1, q1, q2)


# the largest block coordinate magnitude that is_good_try admits
_E = embed._COORD_LIMIT - 1
_ray = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@st.composite
def _shared_endpoint_pairs(draw):
    """(p1, p2, q1, q2): segments a-b and a-c in either orientation, with
    rays a -> b and a -> c of small directions, often collinear in the same
    or the opposite sense, placed at the origin or within 8 of the block
    coordinate bound."""
    corner = draw(st.tuples(*[st.sampled_from([-_E + 8, 0, _E - 8])] * 3))
    a = tuple(x + draw(st.integers(-2, 2)) for x in corner)
    u = draw(_ray)
    v = draw(st.one_of(_ray, st.sampled_from([u, tuple(-x for x in u)])))
    m, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    b = tuple(x + m * y for x, y in zip(a, u))
    c = tuple(x + k * y for x, y in zip(a, v))
    p = (a, b) if draw(st.booleans()) else (b, a)
    q = (a, c) if draw(st.booleans()) else (c, a)
    return (*p, *q)


def _primitive(p, q):
    """q - p divided by the gcd of its components, in Python ints."""
    step = [b - a for a, b in zip(p, q)]
    g = math.gcd(*step) or 1
    return [x // g for x in step]


def _shared_endpoint_verdict(p1, p2, q1, q2, shift):
    """embed._shared_endpoint_ok on the one pair (p1p2, q1q2), with q1q2
    stored shifted back by shift, given as the pair's (3, 1) shift column."""
    start = np.array([p1, np.subtract(q1, shift)], dtype=np.int64).T
    end = np.array([p2, np.subtract(q2, shift)], dtype=np.int64).T
    direction = np.array([_primitive(p1, p2), _primitive(q1, q2)], dtype=np.int64).T
    shared, ok = embed._shared_endpoint_ok(
        start, end, direction, np.array([0]), np.array([1]), np.array(shift, dtype=np.int64)[:, None]
    )
    return bool(shared[0]), bool(ok[0])


@settings(max_examples=300)
@given(_shared_endpoint_pairs(), st.tuples(*[st.integers(-8, 8)] * 3))
# perpendicular rays spanning the whole coordinate range
@example(((-_E, -_E, -_E), (_E, -_E, -_E), (-_E, -_E, -_E), (-_E, _E, -_E)), (0, 0, 0))
# collinear rays, opposite and overlapping, from one bound to the other
@example(((0, 0, 0), (_E, _E, _E), (-_E, -_E, -_E), (0, 0, 0)), (1, 1, 1))
@example(((-_E, -_E, -_E), (_E, _E, _E), (_E - 2, _E - 2, _E - 2), (-_E, -_E, -_E)), (0, 0, 0))
@example(((-_E, -_E, -_E), (0, 0, 0), (0, 0, 0), (_E, _E, _E)), (0, 0, 0))
@example(((-_E, -_E, -_E), (0, 0, 0), (-_E, -_E, -_E), (_E, _E, _E)), (0, 0, 0))
# the same segment twice, and no shared endpoint
@example(((_E, 0, -_E), (-_E, 1, _E), (-_E, 1, _E), (_E, 0, -_E)), (0, 0, 0))
@example(((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)), (0, 0, 0))
def test_shared_endpoint_directions_match_segment_pair_ok(pair, shift):
    """The primitive-direction shared-endpoint test agrees with
    segment_pair_ok wherever the segments share an endpoint, with
    coordinates up to 2^53 - 1 in magnitude, and finds exactly the pairs
    that share one."""
    p1, p2, q1, q2 = pair
    shared, ok = _shared_endpoint_verdict(p1, p2, q1, q2, shift)
    assert shared == bool({p1, p2} & {q1, q2})
    if shared:
        assert ok == segment_pair_ok(p1, p2, q1, q2)


def _two_edges_from_one_vertex(corner, far):
    """Edges a-b and a-c on a grid of 4 units a cell: a within 2 units of
    corner on every axis, b one unit from a on y, and c at a + far."""
    labels = tuple(map(VertexLabel, ("t", "b", "rx")))
    fug = labeled_graph(labels, ((0, 1), (0, 2)))
    a = (corner - 2, corner - 2, corner + 1)
    points = {0: a, 1: (a[0], a[1] + 1, a[2]), 2: tuple(x + y for x, y in zip(a, far))}
    t = try_from_points({v: tuple(Fraction(c, 4) for c in p) for v, p in points.items()}, Fraction(1, 4))
    return fug, t


# block coordinates reach corner + 9: below 2^29, at 2^29 and at 2^50 + 9
_CORNERS = [2**29 - 10, 2**29 - 9, 2**50]
_FARS = [(0, 0, -1), (0, 2, 0), (0, -1, 0)]


@pytest.mark.parametrize("corner", _CORNERS)
@pytest.mark.parametrize("far", _FARS)
def test_shared_endpoint_pairs_never_reach_segment_pair_ok(monkeypatch, corner, far):
    """Two edges from one vertex a, on a grid of 4 units a cell: the largest
    coordinate is corner + 1 units, so block coordinates reach corner + 9.
    At every coordinate size the shared-endpoint pairs are decided without
    segment_pair_ok, and the verdict is the block oracle's (perpendicular,
    overlapping and opposite second edges)."""
    fug, t = _two_edges_from_one_vertex(corner, far)
    assert t.scaled()[1] == 4
    assert _scaled_as_reference(t) == scaled_reference(try_points(t))
    calls = []

    def counted(p1, p2, q1, q2):
        calls.append(bool({p1, p2} & {q1, q2}))
        return segment_pair_ok(p1, p2, q1, q2)

    monkeypatch.setattr(embed, "segment_pair_ok", counted)
    verdict = is_good_try(t, fug)
    assert not any(calls)
    monkeypatch.undo()
    assert verdict == _block_oracle_ok(t, fug) == (far != (0, 2, 0))


def _planar_oracle_ok(p1, p2, q1, q2):
    """Independent 2D orientation-sign oracle for planar segment pairs.

    Classic ccw tests plus exact collinear interval overlap; returns the same
    'meet only at a shared endpoint' verdict as segment_pair_ok.
    """
    from fractions import Fraction

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def on_segment(a, b, c):
        # c collinear with ab and inside the closed bounding box
        return (
            orient(a, b, c) == 0
            and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if ((o1 > 0) != (o2 > 0) and o1 != 0 and o2 != 0) and (
        (o3 > 0) != (o4 > 0) and o3 != 0 and o4 != 0
    ):
        intersects = True
        touch_points = None  # proper crossing
    else:
        touches = set()
        for a, b, c in ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2)):
            if on_segment(a, b, c):
                touches.add(c)
        intersects = bool(touches)
        touch_points = touches
    if not intersects:
        return True
    if touch_points is None:
        return False
    shared = {p1, p2} & {q1, q2}
    if len(shared) != 1:
        return touch_points <= shared if shared else False
    # collinear overlap beyond the shared endpoint shows up as extra touches
    return touch_points == shared


@settings(max_examples=200)
@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
)
@example((0, 0), (0, 0), (5, 1), (5, 2))  # a point off a segment, inside its line's span
@example((0, 0), (0, 0), (1, 1), (1, 1))  # two distinct points
@example((1, 1), (1, 1), (0, 0), (2, 2))  # a point strictly inside a segment
@example((2, 2), (2, 2), (0, 0), (2, 2))  # a point at a segment's end
def test_segment_predicate_matches_planar_oracle(p1, p2, q1, q2):
    """The oracle's verdict, also for single-point segments, except where a
    single point lies on an end of the other segment or the two segments
    are the same: those the package refuses.  Swapping the segments keeps
    the verdict."""
    lift = lambda p: (p[0], p[1], 0)
    ok = segment_pair_ok(lift(p1), lift(p2), lift(q1), lift(q2))
    assert ok == segment_pair_ok(lift(q1), lift(q2), lift(p1), lift(p2))
    point_on_end = (p1 == p2 and p1 in (q1, q2)) or (q1 == q2 and q1 in (p1, p2))
    if point_on_end or {p1, p2} == {q1, q2}:
        assert not ok
    else:
        assert ok == _planar_oracle_ok(p1, p2, q1, q2)


# ---------------------------------------------------------------------------
# good tries

def test_sampled_try_is_good_d5_s2():
    fug = _fug(s=2)
    t = sample_try(fug, seed=3)
    assert is_good_try(t, fug)


def test_good_try_verdict_translation_consistent():
    fug = _fug(s=1)
    t = sample_try(fug, seed=7)
    shifted = try_from_points(
        {v: (p[0] + 2, p[1] - 1, p[2] + 3) for v, p in try_points(t).items()},
        t.grid_resolution,
    )
    assert _scaled_as_reference(shifted) == scaled_reference(try_points(shifted))
    assert is_good_try(t, fug) == is_good_try(shifted, fug)


def test_crossing_placement_is_bad():
    """Force two stray edges to cross by placing four center vertices on a
    degenerate square; the exact predicate must reject it."""
    fug = _fug(s=0)
    t = sample_try(fug, seed=3, grid_resolution=Fraction(1, 1024))
    pts = try_points(t)
    ids = label_index(fug)
    # c1-t and c2-b run between these four points; make them cross
    c1 = ids[("c1", "", (0, 0, 0))]
    c2 = ids[("c2", "", (0, 0, 0))]
    tt = ids[("t", "", (0, 0, 0))]
    bb = ids[("b", "", (0, 0, 0))]
    h = Fraction(1, 2)
    q = Fraction(1, 1024)
    pts[c1] = (h - 8 * q, h - 8 * q, h)
    pts[tt] = (h + 8 * q, h + 8 * q, h)
    pts[c2] = (h - 8 * q, h + 8 * q, h)
    pts[bb] = (h + 8 * q, h - 8 * q, h)
    bad = try_from_points(pts, t.grid_resolution)
    assert _scaled_as_reference(bad) == scaled_reference(try_points(bad))
    assert not is_good_try(bad, fug)


def _block_oracle_ok(t, fug):
    """Reference for is_good_try without translation classes or floats: every
    two segments of the 3x3x3 block of unit translates whose closed bounding
    boxes overlap go through segment_pair_ok, on the grid of
    scaled_reference, which t.scaled() must match."""
    scaled, denom = scaled_reference(try_points(t))
    assert _scaled_as_reference(t) == (scaled, denom)
    units = (-denom, 0, denom)
    segs = [
        (
            (scaled[u][0] + ox, scaled[u][1] + oy, scaled[u][2] + oz),
            (scaled[v][0] + ox, scaled[v][1] + oy, scaled[v][2] + oz),
        )
        for u, v in fug.edges
        for ox in units
        for oy in units
        for oz in units
    ]
    ends = np.array(segs, dtype=np.int64)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    for i in range(len(segs)):
        overlap = ((lo[i + 1 :] <= hi[i]) & (lo[i] <= hi[i + 1 :])).all(axis=1)
        for j in np.flatnonzero(overlap) + i + 1:
            if not segment_pair_ok(*segs[i], *segs[j]):
                return False
    return True


def _sampled_tries():
    """((s, grid, seed), full unit graph, try) for d = 5, s = 0..2, grids
    1/8 to 2^-20 and seeds 0..2, skipping the grids too coarse to sample."""
    for s in (0, 1, 2):
        fug = _fug(s=s)
        for grid in (8, 16, 32, 2**20):
            for seed in range(3):
                try:
                    t = sample_try(fug, seed=seed, grid_resolution=Fraction(1, grid))
                except GridTooCoarse:
                    continue
                yield (s, grid, seed), fug, t


def test_good_try_matches_block_oracle():
    verdicts = []
    for case, fug, t in _sampled_tries():
        verdicts.append(is_good_try(t, fug))
        assert verdicts[-1] == _block_oracle_ok(t, fug), case
    # coarse grids give bad tries, fine ones good tries: both verdicts compared
    assert True in verdicts and False in verdicts


def _two_edge_graph():
    labels = tuple(map(VertexLabel, ("t", "b", "rx", "lx")))
    return labeled_graph(labels, ((0, 1), (2, 3)))


def _tries_across_offset(delta):
    """(crossing, passing) tries of _two_edge_graph: edge B crosses edge A
    only after a shift by -delta, or passes it one grid unit above."""
    e = Fraction(1, 8)
    a1, a2 = (e, 4 * e, 4 * e), (7 * e, 4 * e, 4 * e)

    def b(y, lift):
        return (4 * e + delta[0], y + delta[1], 4 * e + lift + delta[2])

    crossing = try_from_points({0: a1, 1: a2, 2: b(2 * e, 0), 3: b(6 * e, 0)}, e)
    passing = try_from_points({0: a1, 1: a2, 2: b(2 * e, e), 3: b(6 * e, e)}, e)
    return crossing, passing


_DELTAS = [(1, 0, 0), (2, 0, 0), (-2, 1, 2), (0, -1, 1)]


@pytest.mark.parametrize("delta", _DELTAS)
def test_try_bad_only_across_offset(delta):
    """Edge B crosses edge A only after a shift by -delta, which lies in the
    block; at delta = 0 the two edges are far apart."""
    fug = _two_edge_graph()
    crossing, passing = _tries_across_offset(delta)
    scaled, _ = crossing.scaled()
    assert segment_pair_ok(*map(tuple, scaled.tolist()))
    assert not is_good_try(crossing, fug)
    assert not _block_oracle_ok(crossing, fug)
    assert is_good_try(passing, fug)
    assert _block_oracle_ok(passing, fug)


def _zero_length_edge_tries():
    """(touching, apart, boxed) tries of _two_edge_graph whose edge A has
    both ends at one point: on an end of edge B, outside the boxes of edge
    B and its translates, or strictly inside edge B's box but off edge B."""
    e = Fraction(1, 8)
    a, b1, b2 = (4 * e, 4 * e, 4 * e), (2 * e, 2 * e, 3 * e), (5 * e, 6 * e, 2 * e)
    touching = try_from_points({0: a, 1: a, 2: b1, 3: a}, e)
    apart = try_from_points({0: a, 1: a, 2: b1, 3: b2}, e)
    boxed = try_from_points({0: a, 1: a, 2: b1, 3: (6 * e, 5 * e, 6 * e)}, e)
    return touching, apart, boxed


def test_zero_length_edge_is_decided_exactly():
    """A single-point edge at an end of another edge is refused; one off
    every other edge is accepted, also strictly inside another edge's
    bounding box."""
    fug = _two_edge_graph()
    assert [is_good_try(t, fug) for t in _zero_length_edge_tries()] == [False, True, True]


@pytest.fixture(scope="module")
def oracle_cases():
    """(case, full unit graph, try, _block_oracle_ok verdict) for the sampled
    tries of test_good_try_matches_block_oracle, the crossing and passing
    tries of test_try_bad_only_across_offset, the tries at every corner of
    test_shared_endpoint_pairs_never_reach_segment_pair_ok and the
    zero-length edge tries."""
    cases = list(_sampled_tries())
    for delta in _DELTAS:
        cases += [((delta, k), _two_edge_graph(), t) for k, t in enumerate(_tries_across_offset(delta))]
    for corner in _CORNERS:
        cases += [((corner, far), *_two_edges_from_one_vertex(corner, far)) for far in _FARS]
    cases += [(("zero-length", k), _two_edge_graph(), t) for k, t in enumerate(_zero_length_edge_tries())]
    return [(case, fug, t, _block_oracle_ok(t, fug)) for case, fug, t in cases]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flush", [1, 2, 7, 64])
@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
def test_batch_bounds_keep_the_verdict(oracle_cases, monkeypatch, chunk, flush):
    """Whatever the box-mask chunk and the pending batch's flush bound, the
    verdict is the block oracle's, with no numpy warning (a zero-length
    edge has gcd 0); small bounds split the exact decisions of a try over
    several batches, and a good try's batches hold each pair the float
    filter leaves once, as one unbounded batch does."""
    monkeypatch.setattr(embed, "_CHUNK", chunk)
    decide, batches = embed._decide, []

    def counted(start, end, direction, pending):
        batches[-1].append(sum(len(i) for i, _, _ in pending))
        return decide(start, end, direction, pending)

    monkeypatch.setattr(embed, "_decide", counted)

    def run(bound):
        monkeypatch.setattr(embed, "_FLUSH", bound)
        verdicts = []
        for _, fug, t, _ in oracle_cases:
            batches.append([])
            verdicts.append(is_good_try(t, fug))
        return verdicts, batches[-len(oracle_cases) :]

    whole = run(2**40)[1]
    verdicts, split = run(flush)
    assert verdicts == [want for _, _, _, want in oracle_cases]
    assert True in verdicts and False in verdicts
    # only a try's last batch may hold fewer than flush pairs
    assert all(min(sizes[:-1], default=flush) >= flush for sizes in split)
    assert max(map(len, split)) > 1
    good = [k for k, verdict in enumerate(verdicts) if verdict]
    assert [sum(split[k]) for k in good] == [sum(whole[k]) for k in good]


def test_short_try_is_one_bounded_line():
    fug = _fug(s=4)
    t = sample_try(fug, seed=1)
    with pytest.raises(ValueError) as info:
        is_good_try(Try(t.num[:3], t.denom, t.grid_resolution), fug)
    assert str(info.value) == "try places 3 of 208 vertices"


def _float_det(p1, p2, q1, q2):
    """orient3d's float64 determinant, without an error bound."""
    a, b, c = ([float(x - y) for x, y in zip(q, p1)] for q in (p2, q1, q2))
    return (
        a[2] * (b[0] * c[1] - c[0] * b[1])
        + b[2] * (c[0] * a[1] - a[0] * c[1])
        + c[2] * (a[0] * b[1] - b[0] * a[1])
    )


@pytest.mark.parametrize("lift", [0, 3])
def test_nearly_coplanar_pair_at_large_coordinates(lift, monkeypatch):
    """Segments through a common midpoint m, one of them lifted by a few grid
    units.  At lift 0 they cross, yet float64 rounding gives a nonzero
    determinant; at lift 3 they are skew, but the determinant is far below
    the error bound of its permanent.  Both must reach the exact predicate."""
    m = (2**50, 2**50, 2**50)
    u = (2**48 + 645, 2**48 + 742, 2**48 + 881)
    v = (2**47 + 124, 2**47 + 918, 2**47 + 520)
    p1 = tuple(x - y for x, y in zip(m, u))
    p2 = tuple(x + y for x, y in zip(m, u))
    q1 = (m[0] - v[0], m[1] - v[1], m[2] - v[2] + lift)
    q2 = (m[0] + v[0], m[1] + v[1], m[2] + v[2] + lift)
    assert _float_det(p1, p2, q1, q2) != 0
    points = {k: tuple(Fraction(c) for c in p) for k, p in enumerate((p1, p2, q1, q2))}
    t = try_from_points(points, Fraction(1))
    fug = _two_edge_graph()
    exact = []

    def counted(*args):
        exact.append(args)
        return segment_pair_ok(*args)

    monkeypatch.setattr(embed, "segment_pair_ok", counted)
    assert is_good_try(t, fug) == bool(lift) == _block_oracle_ok(t, fug)
    assert (p1, p2, q1, q2) in exact


def test_good_try_rejects_coordinates_beyond_float_exactness():
    fug = _two_edge_graph()
    far = Fraction(2**53 - 1)
    points = {0: (far, 0, 0), 1: (far - 1, 0, 0), 2: (0, 1, 0), 3: (0, 2, 0)}
    t = try_from_points({k: tuple(Fraction(c) for c in p) for k, p in points.items()}, Fraction(1))
    assert _scaled_as_reference(t) == scaled_reference(try_points(t))
    with pytest.raises(TooLarge):
        is_good_try(t, fug)


def test_find_good_try_returns_attempt_count():
    fug = _fug(s=2)
    t, attempts = find_good_try(fug, seed=3, max_attempts=1000)
    assert attempts >= 1
    assert is_good_try(t, fug)


def test_find_good_try_rejects_zero_attempts():
    fug = _fug(s=0)
    with pytest.raises(ValueError):
        find_good_try(fug, seed=1, max_attempts=0)


def test_find_good_try_exhaustion_reported():
    """An adversarially coarse grid cannot place distinct points at all, and
    a barely-fine one forces collisions; failures surface, never hidden."""
    fug = _fug(s=2)
    with pytest.raises((AttemptsExhausted, GridTooCoarse)):
        find_good_try(fug, seed=1, max_attempts=2, grid_resolution=Fraction(1, 2))


def test_embedding_properties_hold():
    fug = _fug(s=2)
    t, _ = find_good_try(fug, seed=3)
    props = check_embedding_properties(t, fug)
    assert props == {
        "straight_line_segments": True,
        "integer_translation_invariant": True,
        "vertices_interior_of_cubes": True,
        "edges_within_cube_or_nearest_neighbor": True,
    }
    assert all(type(value) is bool for value in props.values())


def test_embedding_properties_detect_face_points_and_long_edges():
    """A vertex moved onto a cube face breaks interiority, and an edge end
    moved two cubes away breaks locality; each check sees only its own."""
    fug = _fug(s=0)
    t = sample_try(fug, seed=2, grid_resolution=Fraction(1, 1024))
    u, v = fug.edges[0]
    on_face = try_points(t)
    on_face[u] = (Fraction(1), *on_face[u][1:])
    props = check_embedding_properties(try_from_points(on_face, t.grid_resolution), fug)
    assert props["vertices_interior_of_cubes"] is False
    far = try_points(t)
    far[v] = (far[v][0] + 2, *far[v][1:])
    props = check_embedding_properties(try_from_points(far, t.grid_resolution), fug)
    assert props["vertices_interior_of_cubes"] is True
    assert props["edges_within_cube_or_nearest_neighbor"] is False


def test_try_json_roundtrip():
    fug = _fug(s=1)
    t = sample_try(fug, seed=2)
    data = try_to_json_dict(t, attempts=1, seed=2)
    back = try_from_json_dict(data)
    assert back == t
    assert try_points(back) == try_points(t)
    assert back.grid_resolution == t.grid_resolution
    assert data["points"][str(0)][0].count("/") == 1
    assert json.loads(try_to_json(t, 1, 2)) == data


def _json_dumps_text(t, attempts, seed):
    return json.dumps(try_to_json_dict(t, attempts, seed), indent=2, sort_keys=True) + "\n"


def test_try_writer_matches_pinned_embedding():
    text = (PINNED / "embed_d5_s4_seed1.json").read_text()
    data = json.loads(text)
    t = try_from_json_dict(data)
    assert _json_dumps_text(t, data["attempts"], data["seed"]) == text
    assert try_to_json(t, data["attempts"], data["seed"]) == text


_NUMERATORS = st.one_of(st.integers(-64, 64), st.integers(-(2**62), 2**62))
_DENOMINATORS = st.one_of(st.sampled_from([1, 2, 3, 2**20, 2**40]), st.integers(1, 2**40))
_SCALARS = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@st.composite
def _tries(draw):
    """Tries of 0, 1, 2 or 11 to 120 points (so "10" sorts before "2") with
    numerators of either sign, some sharing factors with the denominator."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(11, 120)))
    num = draw(st.lists(st.tuples(_NUMERATORS, _NUMERATORS, _NUMERATORS), min_size=n, max_size=n))
    res = Fraction(draw(st.integers(1, 5)), draw(_DENOMINATORS))
    return Try(np.array(num, dtype=np.int64).reshape(-1, 3), draw(_DENOMINATORS), res)


@settings(max_examples=150, deadline=None)
@given(_tries(), _SCALARS, _SCALARS)
@example(Try(np.zeros((0, 3), dtype=np.int64), 1, Fraction(1)), 1, 1)
@example(Try(np.arange(-36, 0).reshape(12, 3), 2**40, Fraction(3, 2**40)), -(2**70), 2**70)
def test_try_writer_matches_json_dumps(t, attempts, seed):
    assert try_to_json(t, attempts, seed) == _json_dumps_text(t, attempts, seed)


def test_try_obj_export():
    fug = _fug(s=0)
    t = sample_try(fug, seed=2)
    obj = try_to_obj(t, fug)
    assert obj.count("\nl ") + obj.startswith("l ") == len(fug.edges)
    assert obj.count("v ") >= fug.vertex_count


def test_try_obj_matches_fraction_formatting():
    """try_to_obj writes the bytes of the Fraction-based writer: sampled
    tries, a try over 2^40, and numerators above 2^53, where numpy's float
    division would round the numerator first and print another value."""
    for s in range(4):
        fug = _fug(s=s)
        for resolution in (embed.DEFAULT_RESOLUTION, Fraction(1, 24)):
            t = sample_try(fug, seed=s, grid_resolution=resolution)
            assert try_to_obj(t, fug) == try_to_obj_reference(t, fug)
    ring = plain_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    num = np.array(
        [
            [2**53 + 1, -(2**53 + 1), 2**62 + 12345],
            [2**40 - 1, 1, -(2**40) + 3],
            [2**63 - 1, -(2**63), 7],
            [0, 2**54 + 3, -(2**61 + 5)],
        ],
        dtype=np.int64,
    )
    for denom in (3, 2**40, 10**15 + 37):
        t = Try(num, denom, Fraction(1, denom))
        assert try_to_obj(t, ring) == try_to_obj_reference(t, ring)
    # the case the Python-int division is for: float(2^53 + 1) / 3 is not
    # the correctly rounded (2^53 + 1) / 3
    assert (2**53 + 1) / 3 != float(np.int64(2**53 + 1)) / 3
    assert f"{(2**53 + 1) / 3:.9f}" in try_to_obj(Try(num, 3, Fraction(1, 3)), ring)
