import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectral_pattern import geometry
from spectral_pattern.errors import DegeneratePolygon, GeometryError, SelfIntersectingPolygon
from spectral_pattern.geometry import (
    FEATURE_NAMES,
    Point2,
    Polygon,
    extract_features,
    min_bounding_rect,
    polygon_area,
    polygon_centroid,
    polygons,
)
from spectral_pattern.geometry import _hulls

from conftest import NEAR_LINE_RING, rect_ring, regular_ngon


def reference_ring(ring):
    """The ring `Polygon` stored before its one-pass constructor: three
    passes over the vertices and the pairwise segment test, kept here as
    the reference.  Raises what that constructor raised."""

    def cross(ox, oy, ax, ay, bx, by):
        return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)

    def on_segment(px, py, qx, qy, rx, ry):
        return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)

    def segments_touch(p1, p2, p3, p4):
        (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
        d1 = cross(x3, y3, x4, y4, x1, y1)
        d2 = cross(x3, y3, x4, y4, x2, y2)
        d3 = cross(x1, y1, x2, y2, x3, y3)
        d4 = cross(x1, y1, x2, y2, x4, y4)
        if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
            (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
        ):
            return True
        return (
            d1 == 0 and on_segment(x3, y3, x4, y4, x1, y1)
            or d2 == 0 and on_segment(x3, y3, x4, y4, x2, y2)
            or d3 == 0 and on_segment(x1, y1, x2, y2, x3, y3)
            or d4 == 0 and on_segment(x1, y1, x2, y2, x4, y4)
        )

    pts = [Point2(*p) for p in ring]
    if pts:
        out = [pts[0]]
        for p in pts[1:]:
            (px, py), (qx, qy) = p, out[-1]
            if math.hypot(px - qx, py - qy) > 1e-12:
                out.append(p)
        (lx, ly), (fx, fy) = out[-1], out[0]
        if len(out) > 1 and math.hypot(lx - fx, ly - fy) <= 1e-12:
            out.pop()
        pts = out
    if len(pts) < 3:
        raise DegeneratePolygon(f"ring has {len(pts)} distinct vertices, need 3")
    # the line through the lowest vertex and the vertex farthest from it in
    # max-norm (the lowest such on a tie), with that distance as the scale
    (ox, oy), *rest = ordered = sorted(pts)
    offsets = [max(abs(x - ox), abs(y - oy)) for x, y in ordered]
    scale = max(offsets)
    ax, ay = ordered[offsets.index(scale)]
    scale = scale or 1.0
    if all(abs(cross(ox, oy, ax, ay, x, y)) <= 1e-12 * scale * scale for x, y in rest):
        raise DegeneratePolygon("all vertices collinear")
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        (x1, y1), (x2, y2), (bx, by) = a1, a2, pts[(i + 2) % n]
        cr = cross(x1, y1, x2, y2, bx, by)
        dot = (x2 - x1) * (bx - x2) + (y2 - y1) * (by - y2)
        if cr == 0 and dot < 0:
            raise SelfIntersectingPolygon(f"spike at vertex {(i + 1) % n}")
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if segments_touch(a1, a2, pts[j], pts[(j + 1) % n]):
                raise SelfIntersectingPolygon(f"edges {i} and {j} intersect")
    signed2 = 0.0
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        signed2 += ax * by - bx * ay
    if abs(signed2) / 2.0 < 1e-9:
        raise DegeneratePolygon(f"|area| {abs(signed2) / 2.0:g} below {1e-9:g}")
    if signed2 < 0:
        pts.reverse()
    return tuple(pts)


def construction_outcome(make, ring):
    """The stored ring, or the type and message of the rejection."""
    try:
        return make(ring)
    except (DegeneratePolygon, SelfIntersectingPolygon, ValueError, TypeError) as exc:
        return type(exc), str(exc)


# a thin triangle at a 1e7 m offset: its hull collapses to a segment
SLIVER = [(10000038.397559145, 10000026.626020757), (10000040.523604643, 10000027.068552375),
          (10000038.751657445, 10000026.699725527)]

_OFFSET = st.sampled_from([0.0, 1e6, 4_321_987.0, 1e7]) | st.floats(1e6, 1e7)


@st.composite
def footprint_rings(draw):
    """Rings with or without the faults the constructor looks for: star
    shapes (simple) of 3-10 or, less often, 50-200 vertices, free vertex
    lists (bowties and other crossings), lattice rings (exactly collinear
    edges, spikes and touching vertices) and rings along a line off it by
    a tiny amount; then repeated or nudged vertices, a closing duplicate, a
    spike or a reversal, and an offset of 0 or 1e6-1e7 m."""
    kind = draw(st.sampled_from(["star", "free", "lattice", "near-collinear"] * 4 + ["big-star"]))
    if kind == "star":
        k = draw(st.integers(3, 10))
        angles = sorted(draw(st.lists(st.floats(0.0, 6.28), min_size=k, max_size=k)))
        radii = draw(st.lists(st.floats(0.5, 30.0), min_size=k, max_size=k))
        local = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
    elif kind == "big-star":
        # drawn from a seeded stream: hundreds of drawn floats are slow to make
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        k = draw(st.integers(50, 200))
        angles, radii = np.sort(rng.uniform(0.0, 6.28, k)), rng.uniform(0.5, 30.0, k)
        local = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii.tolist())]
    elif kind == "free":
        xy = st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))
        local = draw(st.lists(xy, min_size=3, max_size=9))
    elif kind == "lattice":
        pitch = draw(st.sampled_from([1.0, 2.5, 10.0]))
        cells = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
        local = [(pitch * i, pitch * j) for i, j in draw(st.lists(cells, min_size=3, max_size=8))]
    else:
        length = draw(st.floats(1.0, 100.0))
        ang = draw(st.floats(0.0, 3.14))
        off = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-7, 1e-4]))
        ts = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=7))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(ts), max_size=len(ts)))
        local = [
            (t * length * math.cos(ang) - s * off * math.sin(ang),
             t * length * math.sin(ang) + s * off * math.cos(ang))
            for t, s in zip(ts, signs)
        ]
    for edit in draw(st.lists(st.sampled_from(["repeat", "nudge", "close", "spike", "reverse"]),
                              max_size=3)):
        i = draw(st.integers(0, len(local) - 1))
        x, y = local[i]
        if edit == "repeat":
            local.insert(i, (x, y))
        elif edit == "nudge":
            d = draw(st.sampled_from([1e-13, 5e-13, 2e-12, 1e-9]))
            local.insert(i + 1, (x + d, y - d))
        elif edit == "close":
            local.append(local[0])
        elif edit == "spike":
            # back along the edge into vertex i, exactly or halfway
            px, py = local[i - 1]
            t = draw(st.sampled_from([0.5, 1.0]))
            local.insert(i + 1, (x + t * (px - x), y + t * (py - y)))
        else:
            local.reverse()
    ox, oy = draw(_OFFSET), draw(_OFFSET)
    ring = [(ox + x, oy + y) for x, y in local]
    if draw(st.integers(0, 5)) == 0:
        # a vertex that is not a pair of finite numbers, or a pair of strings
        x, y = ring[0]
        bad = draw(st.sampled_from([
            (x,), (x, y, 0.0), [], x, None, "xy", "12", [str(x), str(y)],
            (x, math.nan), (math.inf, y), (x, -math.inf), (None, y), [True, y],
        ]))
        ring[draw(st.integers(0, len(ring) - 1))] = bad
    return ring

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
# L-shape: 2x2 square minus its upper-right 1x1 quadrant
L_SHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


class TestPoint2:
    def test_is_its_xy_pair(self):
        p = Point2(3, -0.5)
        x, y = p
        assert (x, y) == (p.x, p.y) == (3.0, -0.5)
        assert type(p.x) is float
        assert p == (3.0, -0.5) and hash(p) == hash((3.0, -0.5))
        assert repr(p) == "Point2(x=3.0, y=-0.5)"
        assert pickle.loads(pickle.dumps(p)) == p
        with pytest.raises(AttributeError):
            p.x = 1.0


class TestPolygonConstruction:
    def test_closing_vertex_dropped(self):
        p = Polygon(UNIT_SQUARE + [(0, 0)])
        assert len(p) == 4
        assert all(type(q) is Point2 for q in p.ring)

    def test_clockwise_input_reversed(self):
        p = Polygon(list(reversed(UNIT_SQUARE)))
        assert polygon_area(p) > 0
        assert p == Polygon(UNIT_SQUARE) or set(p.ring) == {
            Point2(x, y) for x, y in UNIT_SQUARE
        }

    def test_consecutive_duplicates_merged(self):
        p = Polygon([(0, 0), (0, 0), (1, 0), (1, 1), (1, 1), (0, 1)])
        assert len(p) == 4

    def test_too_few_vertices(self):
        with pytest.raises(DegeneratePolygon):
            Polygon([(0, 0), (1, 0)])

    def test_zero_area(self):
        with pytest.raises(DegeneratePolygon):
            Polygon([(0, 0), (1, 0), (2, 0)])

    def test_bowtie_rejected(self):
        with pytest.raises(SelfIntersectingPolygon):
            Polygon([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_spike_rejected(self):
        with pytest.raises(SelfIntersectingPolygon):
            Polygon([(0, 0), (2, 0), (1, 0), (1, 1)])

    @settings(max_examples=600, deadline=None)
    @given(footprint_rings())
    @example([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)])  # bowtie
    @example([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0), (1.0, 1.0)])  # spike
    @example([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)])
    @example([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (2.0, 0.0), (0.0, 4.0)])  # vertex on an edge
    @example(SLIVER)
    def test_matches_the_three_pass_constructor(self, ring):
        # same stored ring, or the same error type and message
        expected = construction_outcome(reference_polygon, ring)
        assert construction_outcome(lambda r: Polygon(r).ring, ring) == expected

    def test_a_stored_ring_builds_again(self):
        # only building its stored ring may fail
        try:
            p = Polygon(NEAR_LINE_RING)
        except GeometryError as exc:
            pytest.fail(f"the ring itself is rejected, so no stored ring is tested: {exc}")
        assert Polygon(p.xy) == p

    def test_other_vertex_types_go_through_point2(self):
        # one-shot iterators and arrays: the same point or the same error
        for make in (
            lambda: iter([0.5, 1.0]), lambda: iter([0.5, 1.0, 2.0]), lambda: iter([0.5]),
            lambda: (v for v in ("0.5", "nan")), lambda: np.array([0.5, 1.0]),
            lambda: np.array([0.5, 1.0, 2.0]), lambda: 0.5,
        ):
            want = construction_outcome(lambda q: Point2(*q), make())
            got = construction_outcome(lambda r: Polygon(r).ring[2], [(0.0, 0.0), (1.0, 0.0), make()])
            assert got == want

    def test_pickles_and_copies_with_its_measures(self):
        for ring in (L_SHAPE, regular_ngon(60, 3.0, 1e6, 2e6)):
            p = Polygon(ring)
            for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert q == p and q.ring == p.ring
                assert extract_features(q) == extract_features(p)
                assert polygon_centroid(q) == polygon_centroid(p)

    def test_nonfinite_coordinate(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 0), (float("nan"), 1)])
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="non-finite"):
                Point2(bad, 0.0)
            with pytest.raises(ValueError, match="non-finite"):
                Point2(0.0, bad)


class TestMeasures:
    def test_unit_square(self):
        p = Polygon(UNIT_SQUARE)
        assert polygon_area(p) == pytest.approx(1.0)
        assert extract_features(p).compactness == pytest.approx(math.pi / 4)
        c = polygon_centroid(p)
        assert (c.x, c.y) == pytest.approx((0.5, 0.5))

    def test_l_shape(self):
        p = Polygon(L_SHAPE)
        assert polygon_area(p) == pytest.approx(3.0)
        assert extract_features(p).compactness == pytest.approx(12 * math.pi / 64)  # P = 8

    def test_centroid_orientation_independent(self):
        a = polygon_centroid(Polygon(L_SHAPE))
        b = polygon_centroid(Polygon(list(reversed(L_SHAPE))))
        assert (a.x, a.y) == pytest.approx((b.x, b.y))

    @given(
        st.floats(-50, 50),
        st.floats(-50, 50),
        st.floats(0.1, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_translated_scaled_square(self, dx, dy, s):
        ring = [(dx + s * x, dy + s * y) for x, y in UNIT_SQUARE]
        p = Polygon(ring)
        assert polygon_area(p) == pytest.approx(s * s, rel=1e-9)
        assert extract_features(p).compactness == pytest.approx(math.pi / 4, rel=1e-9)


def reference_hull(points):
    """The one-ring monotone chain the batched hull replaced, kept here as
    the reference: counter-clockwise from the smallest point, collinear
    points left out."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts

    def half(seq):
        chain = []
        for q in seq:
            qx, qy = q
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) <= 0:
                    chain.pop()
                else:
                    break
            chain.append(q)
        return chain

    return half(pts)[:-1] + half(reversed(pts))[:-1]


def batch_hull(points, others=()):
    """The hull `_hulls` finds for `points`, stacked with the point lists
    `others` of the same length."""
    stack = np.array([points, *others], dtype=float).transpose(2, 1, 0)
    HI, h = _hulls(stack[0], stack[1])
    return [tuple(map(float, points[i])) for i in HI[: h[0], 0]]


@st.composite
def near_line_sets(draw):
    """3-11 points along a line of 1-1000 m, off it by up to 1e-13 to 1e-8
    of its length, at an offset of 0, 1e6 or 7e6 m; and a permutation."""
    n = draw(st.integers(3, 11))
    length, ang = draw(st.floats(1.0, 1000.0)), draw(st.floats(0.0, 3.14))
    off = draw(st.sampled_from([0.0, 1e6, 7e6]))
    noise = length * 10.0 ** draw(st.floats(-13.0, -8.0))
    ts = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    ds = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    c, s = math.cos(ang), math.sin(ang)
    pts = [(off + t * length * c - d * noise * s, off + t * length * s + d * noise * c)
           for t, d in zip(ts, ds)]
    return pts, draw(st.permutations(pts))


class TestCollinear:
    @settings(max_examples=300, deadline=None)
    @given(near_line_sets())
    def test_verdict_does_not_depend_on_order(self, sets):
        # rings (as columns) and centroids (one set) share the one rule
        pts, shuffled = sets
        verdict = geometry._all_collinear(pts)
        assert geometry._all_collinear(shuffled) == verdict
        X, Y = np.array([pts, shuffled]).transpose(2, 1, 0)
        assert geometry._collinear(X, Y).tolist() == [verdict, verdict]


class TestConvexHull:
    def test_square_with_interior_points(self):
        pts = UNIT_SQUARE + [(0.5, 0.5), (0.3, 0.7)]
        hull = batch_hull(pts)
        assert set(hull) == {(float(x), float(y)) for x, y in UNIT_SQUARE}
        assert len(hull) == 4

    def test_collinear_midpoint_excluded(self):
        hull = batch_hull([(0, 0), (1, 0), (2, 0), (1, 1)])
        assert len(hull) == 3
        assert (1.0, 0.0) not in hull

    def test_all_collinear_gives_extremes(self):
        hull = batch_hull([(x, x) for x in (0, 1, 2, 3)])
        assert set(hull) == {(0.0, 0.0), (3.0, 3.0)}

    def test_counter_clockwise_order(self):
        hull = batch_hull(UNIT_SQUARE)
        area2 = 0.0
        for i in range(len(hull)):
            (ax, ay), (bx, by) = hull[i], hull[(i + 1) % len(hull)]
            area2 += ax * by - bx * ay
        assert area2 > 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_the_one_ring_chain_in_any_stack(self, data):
        # distinct points, some on shared lines; stacked with other rows
        n = data.draw(st.integers(3, 24))
        cells = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        rows = [data.draw(st.lists(cells, min_size=n, max_size=n, unique=True)) for _ in range(3)]
        want = reference_hull([tuple(map(float, p)) for p in rows[0]])
        assert batch_hull(rows[0], rows[1:]) == want


def reference_min_rect(xy):
    """`_min_rect` before it skipped edges past the tie band: every hull
    edge gets its angle and centre.  Kept here as the reference."""
    hull = reference_hull(xy)
    best = None
    (x0, y0), rest = hull[0], hull[1:]
    for (ax, ay), (bx, by) in zip(hull, rest + hull[:1]):
        ex, ey = bx - ax, by - ay
        elen = math.hypot(ex, ey)
        if elen <= 1e-12:
            continue
        ux, uy = ex / elen, ey / elen
        smin = smax = x0 * ux + y0 * uy
        tmin = tmax = -x0 * uy + y0 * ux
        for qx, qy in rest:
            s = qx * ux + qy * uy
            t = -qx * uy + qy * ux
            if s < smin:
                smin = s
            elif s > smax:
                smax = s
            if t < tmin:
                tmin = t
            elif t > tmax:
                tmax = t
        eu, ev = smax - smin, tmax - tmin
        area = eu * ev
        ang_u = math.degrees(math.atan2(uy, ux)) % 180.0
        ang_v = (ang_u + 90.0) % 180.0
        if abs(eu - ev) <= 1e-12 * max(eu, ev):
            angle = min(ang_u, ang_v)
            length, width = max(eu, ev), min(eu, ev)
        elif eu > ev:
            angle, length, width = ang_u, eu, ev
        else:
            angle, length, width = ang_v, ev, eu
        sc, tc = (smin + smax) / 2.0, (tmin + tmax) / 2.0
        cx, cy = sc * ux - tc * uy, sc * uy + tc * ux
        cand = (area, angle, length, width, cx, cy)
        if best is None:
            best = cand
        elif area < best[0] * (1.0 - 1e-12):
            best = cand
        elif area <= best[0] * (1.0 + 1e-12) and angle < best[1] - 1e-9:
            best = cand
    return best


@st.composite
def rect_test_rings(draw):
    """Squares and rectangles (every edge ties in area), L-shapes and the
    footprints of `footprint_rings`, turned by any angle or a round one
    and moved by 0 or 1e6-1e7 m."""
    kind = draw(st.sampled_from(["square", "rect", "l-shape", "footprint"]))
    if kind == "footprint":
        # the stored ring: checked again, a turned ring can fail the
        # collinearity tolerance, which is taken from its first two points
        made = polygons([draw(footprint_rings())])[0]
        return [(x, y) for x, y in made.ring] if isinstance(made, Polygon) else None
    ang = draw(st.floats(0.0, 360.0) | st.sampled_from([0.0, 30.0, 45.0, 90.0, 135.0, 180.0]))
    size = draw(st.floats(0.5, 50.0))
    ox, oy = draw(_OFFSET), draw(_OFFSET)
    if kind == "square":
        return rect_ring(ox, oy, size, size, ang)
    if kind == "rect":
        return rect_ring(ox, oy, size, size * draw(st.floats(0.1, 1.0)), ang)
    a = math.radians(ang)
    ca, sa = math.cos(a), math.sin(a)
    return [(ox + size * (x * ca - y * sa), oy + size * (x * sa + y * ca)) for x, y in L_SHAPE]


class TestMinBoundingRect:
    @settings(max_examples=400, deadline=None)
    @given(rect_test_rings())
    @example([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    @example([(1.0, 0.0), (2.0, 1.0), (1.0, 2.0), (0.0, 1.0)])
    def test_matches_the_loop_over_every_edge(self, xy):
        if xy is None:
            return
        (p,) = polygons([xy])
        if not isinstance(p, Polygon):
            return
        r = min_bounding_rect(p)
        assert (r.area, r.angle, r.length, r.width, *r.center) == reference_min_rect(xy)

    def test_axis_aligned_rect(self):
        r = min_bounding_rect(Polygon(rect_ring(3, 4, 2, 1, 0)))
        assert r.length == pytest.approx(2.0)
        assert r.width == pytest.approx(1.0)
        assert r.angle == pytest.approx(0.0, abs=1e-9)
        assert (r.center.x, r.center.y) == pytest.approx((3.0, 4.0))

    def test_rotated_square_angle_45(self):
        # square rotated 45 degrees: its own sides are the optimum
        ring = [(1, 0), (2, 1), (1, 2), (0, 1)]
        r = min_bounding_rect(Polygon(ring))
        assert r.length == pytest.approx(math.sqrt(2.0))
        assert r.width == pytest.approx(math.sqrt(2.0))
        assert r.angle == pytest.approx(45.0)

    def test_l_shape_rect(self):
        r = min_bounding_rect(Polygon(L_SHAPE))
        assert r.length == pytest.approx(2.0)
        assert r.width == pytest.approx(2.0)
        assert r.area == pytest.approx(4.0)
        assert r.angle == pytest.approx(0.0, abs=1e-9)

    @given(
        st.floats(0, 179.99),
        st.floats(1.2, 9.0),
        st.floats(0.5, 1.0),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_recovers_rect_parameters(self, ang, length, width, cx, cy):
        r = min_bounding_rect(Polygon(rect_ring(cx, cy, length, width, ang)))
        assert r.length == pytest.approx(length, rel=1e-7)
        assert r.width == pytest.approx(width, rel=1e-7)
        diff = abs(r.angle - ang % 180.0)
        assert min(diff, 180.0 - diff) < 1e-6
        assert (r.center.x, r.center.y) == pytest.approx((cx, cy), abs=1e-7)

    def test_angle_in_range(self, rng):
        for _ in range(40):
            pts = rng.random((6, 2)) * 10
            hullpts = reference_hull([tuple(q) for q in pts.tolist()])
            if len(hullpts) < 3:
                continue
            r = min_bounding_rect(Polygon(hullpts))
            assert 0.0 <= r.angle < 180.0
            assert r.length >= r.width > 0


def reference_measures(ring):
    """(area, centroid, features, rect) of a ring as `reference_ring` stores
    it, by the one-ring loops the batched pass replaced, kept here as the
    reference.  Features that cannot be taken, and a rect of a hull with
    fewer than 3 points, are None."""
    xy = [tuple(q) for q in ring]
    area2 = cx = cy = perim = 0.0
    for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1]):
        w = ax * by - bx * ay
        area2 += w
        cx += (ax + bx) * w
        cy += (ay + by) * w
        perim += math.hypot(bx - ax, by - ay)
    area = area2 / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero area gives inf or nan
        centroid = (float(np.float64(cx) / (3.0 * area2)), float(np.float64(cy) / (3.0 * area2)))
    if len(reference_hull(xy)) < 3:
        return area, centroid, None, None
    _, angle, length, width, rx, ry = reference_min_rect(xy)
    if not length * width > 0:  # the loops raised ZeroDivisionError here
        return area, centroid, None, (angle, length, width, rx, ry)
    features = (
        area,
        angle,
        length / width,
        min(1.0, area / (length * width)),
        min(1.0, 4.0 * math.pi * area / (perim * perim)),
    )
    return area, centroid, features, (angle, length, width, rx, ry)


def reference_polygon(ring):
    """`reference_ring`'s stored ring, or the rejection of a ring whose
    centroid or features `reference_measures` cannot take."""
    stored = reference_ring(ring)
    _, (x, y), features, _ = reference_measures(stored)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DegeneratePolygon(f"centroid ({x:g}, {y:g}) must be finite")
    if features is None:
        raise DegeneratePolygon("hull collapsed to a segment")
    return stored


def measures_of(p):
    """`reference_measures` of a built Polygon, through the public readers."""
    r = min_bounding_rect(p)
    return (
        polygon_area(p),
        tuple(polygon_centroid(p)),
        tuple(extract_features(p)),
        (r.angle, r.length, r.width, *r.center),
    )


def reference_gather(polys):
    """The measures rows of polys as `_measures` took them before it copied
    each row once: every block they touch laid end to end, then gathered."""
    first, blocks, rows = {}, [], []
    for p in polys:
        m = p._block.measures
        if id(m) not in first:
            first[id(m)] = sum(map(len, blocks))
            blocks.append(m)
        rows.append(first[id(m)] + p._row)
    return np.concatenate(blocks)[rows]


def polygons_of_many_blocks(count, seed):
    """count footprints drawn with repeats, in random order, from two batches
    of rings of 3 to 8 vertices: one block per vertex count and batch."""
    made = [p for batch in range(2) for p in polygons(
        [regular_ngon(n, radius=1.0 + k % 7, cx=20.0 * k, phase=0.1 * batch)
         for k in range(count // 6 + 1) for n in range(3, 9)])]
    rng = np.random.default_rng(seed)
    return [made[i] for i in rng.choice(len(made), count)]


class TestMeasuresRows:
    def test_matches_the_gather_from_blocks_laid_end_to_end(self):
        polys = polygons_of_many_blocks(600, seed=3)
        assert len({id(p._block) for p in polys}) == 12
        assert geometry._measures(polys).tobytes() == reference_gather(polys).tobytes()

    def test_no_polygons_give_no_rows(self):
        assert geometry._measures([]).shape == (0, 10)

    def test_peaks_within_twice_its_output(self):
        # laying the blocks end to end first peaked at 2.6 outputs
        polys = polygons_of_many_blocks(6_000, seed=4)
        tracemalloc.start()
        try:
            out = geometry._measures(polys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestBatches:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(footprint_rings(), min_size=1, max_size=6), st.randoms(use_true_random=False))
    def test_each_ring_matches_the_one_ring_references_in_any_batch(self, rings, rnd):
        made = polygons(rings)
        # the same rings in another order, split into two batches
        order = list(range(len(rings)))
        rnd.shuffle(order)
        cut = rnd.randint(0, len(rings))
        regrouped = polygons([rings[i] for i in order[:cut]]) + polygons(
            [rings[i] for i in order[cut:]])
        for i, ring in enumerate(rings):
            want = construction_outcome(reference_polygon, ring)
            for got in (made[i], regrouped[order.index(i)]):
                if isinstance(got, Exception):
                    assert (type(got), str(got)) == want
                    continue
                assert got.ring == want
                # no reader raises on an accepted ring, and every value is finite
                area, centroid, features, rect = measures_of(got)
                assert (area, centroid, features, rect) == reference_measures(want)
                assert all(map(math.isfinite, (area, *centroid, *features, *rect)))
                assert rect[2] > 0

    def test_a_ring_whose_area_overflows_is_rejected(self):
        s = 1e160
        square = [(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)]
        with pytest.raises(DegeneratePolygon, match="must be finite"):
            Polygon(square)
        (made,) = polygons([square])
        assert isinstance(made, DegeneratePolygon)
        # a square 1e150 m across has a finite area, but its centroid overflows
        with pytest.raises(DegeneratePolygon, match=r"centroid \(.*\) must be finite"):
            Polygon([(x / 1e10, y / 1e10) for x, y in square])
        # a square 1e100 m across has a finite area, perimeter and centroid
        smaller = Polygon([(x / 1e60, y / 1e60) for x, y in square])
        assert polygon_area(smaller) == pytest.approx(1e200)

    def test_rounding_can_put_a_hull_point_in_both_chains(self):
        # nearly collinear: both chains turn left at the middle point, so the
        # hull holds 4 points of a triangle; the stack must have room for them
        ring = [(0.6229392698375061, 0.44815003991994323),
                (40.92893999240609, 29.444774121018806),
                (19.64861389613937, 14.135450321222057)]
        assert len(reference_hull(ring)) == 4
        made = polygons([ring, UNIT_SQUARE[:3]])
        assert (type(made[0]), str(made[0])) == construction_outcome(reference_polygon, ring)
        assert made[1].ring == reference_ring(UNIT_SQUARE[:3])

    def test_large_rings_split_into_several_kernel_calls(self, monkeypatch):
        # 12 rings of 200 vertices, and their 19,700 edge pairs each, over a
        # budget of 1,000 vertices or pairs per call: calls of 5 rings and
        # crossing tests of one ring and 5 first edges at a time
        def outcome(p):
            return measures_of(p) if isinstance(p, Polygon) else (type(p), str(p))

        rings = [regular_ngon(200, radius=5.0 + k, cx=30.0 * k) for k in range(12)]
        rings[7] = rings[7][:100] + [(230.0, 0.0)] + rings[7][100:]  # across its own side
        want = [outcome(polygons([ring])[0]) for ring in rings]
        monkeypatch.setattr(geometry, "_MAX_ITEMS", 1_000)
        made = polygons(rings)
        assert isinstance(made[7], SelfIntersectingPolygon)
        assert [outcome(p) for p in made] == want

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_one_long_ring_is_checked_in_bounded_memory(self):
        # its 8.4 million edge pairs, as whole arrays, would peak near 1.3 GiB
        code = (
            "import math, resource\n"
            "from spectral_pattern.geometry import Polygon\n"
            "Polygon([(math.cos(k * math.pi / 2048), math.sin(k * math.pi / 2048))\n"
            "         for k in range(4096)])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(geometry.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 256 * 1024


class TestExtractFeatures:
    def test_feature_order(self):
        f = extract_features(Polygon(UNIT_SQUARE))
        assert FEATURE_NAMES == (
            "area",
            "main_direction",
            "length_width_ratio",
            "area_ratio",
            "compactness",
        )
        assert tuple(f) == (
            f.area,
            f.main_direction,
            f.length_width_ratio,
            f.area_ratio,
            f.compactness,
        )

    def test_unit_square_values(self):
        f = extract_features(Polygon(UNIT_SQUARE))
        assert f.area == pytest.approx(1.0)
        assert f.length_width_ratio == pytest.approx(1.0)
        assert f.area_ratio == pytest.approx(1.0)
        # isoperimetric quotient of a square: pi/4
        assert f.compactness == pytest.approx(math.pi / 4.0)
        assert f.compactness == pytest.approx(0.7853981633974483)

    def test_two_by_one_rect(self):
        f = extract_features(Polygon(rect_ring(0, 0, 2, 1, 30)))
        assert f.length_width_ratio == pytest.approx(2.0)
        assert f.area_ratio == pytest.approx(1.0)
        assert f.compactness == pytest.approx(8.0 * math.pi / 36.0)
        assert f.compactness == pytest.approx(0.6981317007977318)
        assert f.main_direction == pytest.approx(30.0)

    def test_l_shape_area_ratio(self):
        f = extract_features(Polygon(L_SHAPE))
        assert f.area_ratio == pytest.approx(0.75)

    def test_clamps_hold(self):
        f = extract_features(Polygon(L_SHAPE))
        assert 0.0 < f.area_ratio <= 1.0
        assert 0.0 < f.compactness <= 1.0

    def test_compactness_increases_with_vertex_count(self):
        vals = [
            extract_features(Polygon(regular_ngon(n))).compactness
            for n in (4, 8, 64, 256)
        ]
        assert vals == sorted(vals)
        assert vals[-1] > 0.999

    @given(st.floats(0, 179.0), st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_rigid_motion_invariance(self, ang, dx, dy):
        base = extract_features(Polygon(L_SHAPE))
        a = math.radians(ang)
        ca, sa = math.cos(a), math.sin(a)
        moved = [(ca * x - sa * y + dx, sa * x + ca * y + dy) for x, y in L_SHAPE]
        f = extract_features(Polygon(moved))
        assert f.area == pytest.approx(base.area, rel=1e-9)
        assert f.length_width_ratio == pytest.approx(base.length_width_ratio, rel=1e-7)
        assert f.area_ratio == pytest.approx(base.area_ratio, rel=1e-7)
        assert f.compactness == pytest.approx(base.compactness, rel=1e-9)
