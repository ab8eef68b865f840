"""Shape measurements for individual building footprints.

Five indices are computed per footprint: area, main direction, length-width
ratio, area ratio (footprint area over its smallest bounding rectangle), and
compactness (isoperimetric quotient, 1 for a circle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegeneratePolygon, SelfIntersectingPolygon

#: Feature order used everywhere a feature matrix appears.
FEATURE_NAMES = (
    "area",
    "main_direction",
    "length_width_ratio",
    "area_ratio",
    "compactness",
)

_MIN_AREA = 1e-9
_MERGE_EPS = 1e-12


class Point2(tuple):
    """A planar point in projected meters: the pair (x, y) of finite floats.

    It unpacks, compares and hashes as that pair, so every routine below
    reads coordinates with `x, y = p`."""

    __slots__ = ()

    def __new__(cls, x, y):
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite coordinate ({x}, {y})")
        return tuple.__new__(cls, (x, y))

    def __getnewargs__(self):
        return tuple(self)

    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def __repr__(self) -> str:
        return f"Point2(x={self[0]!r}, y={self[1]!r})"


@dataclass(frozen=True)
class OrientedRect:
    """Smallest bounding rectangle; `angle` is the long-side direction."""

    center: Point2
    length: float
    width: float
    angle: float  # degrees in [0, 180)

    @property
    def area(self) -> float:
        return self.length * self.width


@dataclass(frozen=True)
class BuildingFeatures:
    area: float
    main_direction: float
    length_width_ratio: float
    area_ratio: float
    compactness: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (
            self.area,
            self.main_direction,
            self.length_width_ratio,
            self.area_ratio,
            self.compactness,
        )


class Polygon:
    """A simple closed ring, stored counter-clockwise without a closing
    duplicate.  Clockwise or explicitly closed input is normalized on
    construction; degenerate or self-intersecting rings are rejected.
    """

    __slots__ = ("ring",)

    def __init__(self, ring: Iterable):
        # one pass reads the vertices and drops each one within _MERGE_EPS
        # of the vertex kept before it; the checks run on plain pairs
        pts, xy = [], []
        for q in ring:
            # Point2's checks inline for a list or tuple pair; any other
            # vertex goes through the constructor, which raises if it is no pair
            if not isinstance(q, (list, tuple)) or len(q) != 2:
                q = Point2(*q)
            x, y = q
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite coordinate ({x}, {y})")
            if xy and math.hypot(x - xy[-1][0], y - xy[-1][1]) <= _MERGE_EPS:
                continue
            pts.append(tuple.__new__(Point2, (x, y)))
            xy.append((x, y))
        # drop explicit closing vertex
        if len(xy) > 1 and math.hypot(xy[-1][0] - xy[0][0], xy[-1][1] - xy[0][1]) <= _MERGE_EPS:
            pts.pop()
            xy.pop()
        if len(pts) < 3:
            raise DegeneratePolygon(f"ring has {len(pts)} distinct vertices, need 3")
        if _all_collinear(xy):
            raise DegeneratePolygon("all vertices collinear")
        _check_simple(xy)
        signed2 = _twice_signed_area(xy)
        if abs(signed2) / 2.0 < _MIN_AREA:
            raise DegeneratePolygon(f"|area| {abs(signed2) / 2.0:g} below {_MIN_AREA:g}")
        if signed2 < 0:
            pts.reverse()
        self.ring = tuple(pts)

    def __len__(self) -> int:
        return len(self.ring)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.ring == other.ring

    __hash__ = None

    def __repr__(self) -> str:
        return f"Polygon({len(self.ring)} vertices, area={polygon_area(self):.3f})"


def _all_collinear(pts: Sequence[tuple[float, float]]) -> bool:
    """Whether every point lies within 1e-12 * scale^2 (cross product) of
    the line through the first two; scale is the largest coordinate offset
    from the first point."""
    ox, oy = pts[0]
    scale = 0.0
    for x, y in pts:
        dx, dy = abs(x - ox), abs(y - oy)
        if dx > scale:
            scale = dx
        if dy > scale:
            scale = dy
    scale = scale or 1.0
    tol = 1e-12 * scale * scale
    ax, ay = pts[1]
    ex, ey = ax - ox, ay - oy
    for x, y in pts[2:]:
        if not abs(ex * (y - oy) - ey * (x - ox)) <= tol:
            return False
    return True


def _twice_signed_area(ring: Sequence[tuple[float, float]]) -> float:
    total = 0.0
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        total += ax * by - bx * ay
    return total


def _on_segment(px, py, qx, qy, rx, ry) -> bool:
    # assumes r collinear with p-q
    return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)


def _check_simple(pts: Sequence[tuple[float, float]]) -> None:
    """O(n^2) pairwise test of the closed edges; footprints are small so
    this is fine.  Raises at the first spike or touching pair of
    non-adjacent edges, in edge order."""
    n = len(pts)
    edges = [(x1, y1, x2, y2, x2 - x1, y2 - y1)
             for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1])]
    for i, (x1, y1, x2, y2, ex, ey) in enumerate(edges):
        # spike: the next edge folds straight back over this one
        bx, by = edges[(i + 1) % n][2:4]
        cr = ex * (by - y1) - ey * (bx - x1)
        dot = ex * (bx - x2) + ey * (by - y2)
        if cr == 0 and dot < 0:
            raise SelfIntersectingPolygon(f"spike at vertex {(i + 1) % n}")
        # edges i + 1 and, for edge 0, n - 1 share a vertex with edge i
        for j in range(i + 2, n - 1 if i == 0 else n):
            x3, y3, x4, y4, fx, fy = edges[j]
            # orientations of each segment's ends against the other segment
            d1 = fx * (y1 - y3) - fy * (x1 - x3)
            d2 = fx * (y2 - y3) - fy * (x2 - x3)
            d3 = ex * (y3 - y1) - ey * (x3 - x1)
            d4 = ex * (y4 - y1) - ey * (x4 - x1)
            if (
                ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0))
                and ((d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0))
                or d1 == 0 and _on_segment(x3, y3, x4, y4, x1, y1)
                or d2 == 0 and _on_segment(x3, y3, x4, y4, x2, y2)
                or d3 == 0 and _on_segment(x1, y1, x2, y2, x3, y3)
                or d4 == 0 and _on_segment(x1, y1, x2, y2, x4, y4)
            ):
                raise SelfIntersectingPolygon(f"edges {i} and {j} intersect")


def _perimeter(ring: Sequence[Point2]) -> float:
    total = 0.0
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        total += math.hypot(bx - ax, by - ay)
    return total


def polygon_area(p: Polygon) -> float:
    """Shoelace area; positive because rings are stored counter-clockwise."""
    return _twice_signed_area(p.ring) / 2.0


def polygon_perimeter(p: Polygon) -> float:
    return _perimeter(p.ring)


def polygon_centroid(p: Polygon) -> Point2:
    """Area centroid of the footprint."""
    ring = p.ring
    a2 = cx = cy = 0.0
    # each vertex unpacked once; a2 sums as in _twice_signed_area
    bx, by = ring[0]
    for q in ring[1:] + ring[:1]:
        ax, ay = bx, by
        bx, by = q
        w = ax * by - bx * ay
        a2 += w
        cx += (ax + bx) * w
        cy += (ay + by) * w
    x, y = cx / (3.0 * a2), cy / (3.0 * a2)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite coordinate ({x}, {y})")
    return tuple.__new__(Point2, (x, y))


def convex_hull(points: Iterable[Point2]) -> list[Point2]:
    """Monotone-chain hull in counter-clockwise order, made of the given
    points themselves.

    Collinear points are not retained; fully collinear input yields the two
    extreme points, a single repeated point yields one point.
    """
    pts = sorted(set(points))
    if not pts:
        raise ValueError("convex_hull needs at least one point")
    if len(pts) == 1:
        return pts

    def half(seq):
        chain: list[Point2] = []
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

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def min_bounding_rect(p: Polygon) -> OrientedRect:
    """Smallest-area bounding rectangle by rotating calipers.

    One side of the optimum is collinear with a hull edge, so only hull-edge
    directions are examined.  Area ties are broken by the smaller long-side
    angle; for a square the smaller of the two side angles is reported.
    """
    _, angle, length, width, cx, cy = _min_rect([(x, y) for x, y in p.ring])
    return OrientedRect(center=Point2(cx, cy), length=length, width=width, angle=angle)


def _min_rect(xy: Sequence[tuple[float, float]]) -> tuple[float, ...]:
    """(area, angle, length, width, cx, cy) of `min_bounding_rect` for the
    ring as plain (x, y) tuples: the hull and the loops below unpack each
    point many times, and CPython unpacks an exact tuple faster than a
    Point2."""
    hull = convex_hull(xy)
    if len(hull) < 3:
        raise DegeneratePolygon("hull collapsed to a segment")

    best = None  # (area, angle, length, width, cx, cy)
    (x0, y0), rest = hull[0], hull[1:]
    for (ax, ay), (bx, by) in zip(hull, rest + hull[:1]):
        ex, ey = bx - ax, by - ay
        elen = math.hypot(ex, ey)
        if elen <= _MERGE_EPS:
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
        # past the tie band this edge can replace nothing; skip the rest
        if best is not None and area > best[0] * (1.0 + 1e-12):
            continue
        ang_u = math.degrees(math.atan2(uy, ux)) % 180.0
        ang_v = (ang_u + 90.0) % 180.0
        if abs(eu - ev) <= 1e-12 * max(eu, ev):
            angle = min(ang_u, ang_v)
            length, width = max(eu, ev), min(eu, ev)
        elif eu > ev:
            angle, length, width = ang_u, eu, ev
        else:
            angle, length, width = ang_v, ev, eu
        if (
            best is None
            or area < best[0] * (1.0 - 1e-12)
            or area <= best[0] * (1.0 + 1e-12) and angle < best[1] - 1e-9
        ):
            sc, tc = (smin + smax) / 2.0, (tmin + tmax) / 2.0
            best = (area, angle, length, width, sc * ux - tc * uy, sc * uy + tc * ux)
    return best


def extract_features(p: Polygon) -> BuildingFeatures:
    """The five per-building indices, in FEATURE_NAMES order."""
    xy = [(x, y) for x, y in p.ring]
    # one pass sums what _twice_signed_area and _perimeter sum, in their order
    area2 = perim = 0.0
    for (ax, ay), (bx, by) in zip(xy, xy[1:] + xy[:1]):
        area2 += ax * by - bx * ay
        perim += math.hypot(bx - ax, by - ay)
    area = area2 / 2.0
    _, angle, length, width, _, _ = _min_rect(xy)
    ratio_lw = length / width
    ratio_area = min(1.0, area / (length * width))
    compact = min(1.0, 4.0 * math.pi * area / (perim * perim))
    return BuildingFeatures(
        area=area,
        main_direction=angle,
        length_width_ratio=ratio_lw,
        area_ratio=ratio_area,
        compactness=compact,
    )
