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
        pts = _drop_duplicate_vertices([Point2(*p) for p in ring])
        if len(pts) < 3:
            raise DegeneratePolygon(f"ring has {len(pts)} distinct vertices, need 3")
        if _all_collinear(pts):
            raise DegeneratePolygon("all vertices collinear")
        _check_simple(pts)
        signed2 = _twice_signed_area(pts)
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


def _drop_duplicate_vertices(pts: list[Point2]) -> list[Point2]:
    if not pts:
        return pts
    out = [pts[0]]
    for p in pts[1:]:
        (px, py), (qx, qy) = p, out[-1]
        if math.hypot(px - qx, py - qy) > _MERGE_EPS:
            out.append(p)
    # drop explicit closing vertex
    (lx, ly), (fx, fy) = out[-1], out[0]
    if len(out) > 1 and math.hypot(lx - fx, ly - fy) <= _MERGE_EPS:
        out.pop()
    return out


def _all_collinear(pts: Sequence[Point2]) -> bool:
    ox, oy = pts[0]
    scale = max(max(abs(x - ox), abs(y - oy)) for x, y in pts) or 1.0
    tol = 1e-12 * scale * scale
    ax, ay = pts[1]
    return all(abs(_cross(ox, oy, ax, ay, x, y)) <= tol for x, y in pts[2:])


def _twice_signed_area(ring: Sequence[Point2]) -> float:
    total = 0.0
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        total += ax * by - bx * ay
    return total


def _cross(ox, oy, ax, ay, bx, by) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


def _on_segment(px, py, qx, qy, rx, ry) -> bool:
    # assumes r collinear with p-q
    return min(px, qx) <= rx <= max(px, qx) and min(py, qy) <= ry <= max(py, qy)


def _segments_touch(p1: Point2, p2: Point2, p3: Point2, p4: Point2) -> bool:
    """Whether closed segments p1p2 and p3p4 share any point."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    d1 = _cross(x3, y3, x4, y4, x1, y1)
    d2 = _cross(x3, y3, x4, y4, x2, y2)
    d3 = _cross(x1, y1, x2, y2, x3, y3)
    d4 = _cross(x1, y1, x2, y2, x4, y4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(x3, y3, x4, y4, x1, y1):
        return True
    if d2 == 0 and _on_segment(x3, y3, x4, y4, x2, y2):
        return True
    if d3 == 0 and _on_segment(x1, y1, x2, y2, x3, y3):
        return True
    if d4 == 0 and _on_segment(x1, y1, x2, y2, x4, y4):
        return True
    return False


def _check_simple(pts: Sequence[Point2]) -> None:
    """O(n^2) pairwise segment test; footprints are small so this is fine."""
    n = len(pts)
    for i in range(n):
        a1, a2 = pts[i], pts[(i + 1) % n]
        # spike: the next edge folds straight back over this one
        (x1, y1), (x2, y2), (bx, by) = a1, a2, pts[(i + 2) % n]
        cr = _cross(x1, y1, x2, y2, bx, by)
        dot = (x2 - x1) * (bx - x2) + (y2 - y1) * (by - y2)
        if cr == 0 and dot < 0:
            raise SelfIntersectingPolygon(f"spike at vertex {(i + 1) % n}")
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue  # adjacent edges share a vertex by construction
            b1, b2 = pts[j], pts[(j + 1) % n]
            if _segments_touch(a1, a2, b1, b2):
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
    a2 = _twice_signed_area(ring)
    cx = cy = 0.0
    for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
        w = ax * by - bx * ay
        cx += (ax + bx) * w
        cy += (ay + by) * w
    return Point2(cx / (3.0 * a2), cy / (3.0 * a2))


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
    _, angle, length, width, cx, cy = _min_rect(p.ring)
    return OrientedRect(center=Point2(cx, cy), length=length, width=width, angle=angle)


def _min_rect(ring: Sequence[Point2]) -> tuple[float, ...]:
    """(area, angle, length, width, cx, cy) of `min_bounding_rect`."""
    # on plain pairs: the hull and the loops below unpack each point many
    # times, and CPython unpacks an exact tuple faster than a Point2
    hull = convex_hull([(x, y) for x, y in ring])
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


def extract_features(p: Polygon) -> BuildingFeatures:
    """The five per-building indices, in FEATURE_NAMES order."""
    ring = p.ring
    area = _twice_signed_area(ring) / 2.0
    perim = _perimeter(ring)
    _, angle, length, width, _, _ = _min_rect(ring)
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
