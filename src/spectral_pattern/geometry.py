"""Shape measurements for individual building footprints.

Five indices are computed per footprint: area, main direction, length-width
ratio, area ratio (footprint area over its smallest bounding rectangle), and
compactness (isoperimetric quotient, 1 for a circle).

`polygons` checks and measures rings as numpy stacks, one per vertex count,
with a row per vertex and a column per ring.  Each step does a one-ring
loop's float operations in its order, and maps `math.hypot` and `math.atan2`
(numpy's differ in the last bit) over the edges: results are the batch's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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
# np.hypot is within an ulp of math.hypot: a ring whose neighbouring vertices
# it puts this close, but not together, is merged by `_read_ring` instead
_NEAR = 2 * _MERGE_EPS
_MAX_RINGS = 4096  # rings per kernel call
_MAX_ITEMS = 1 << 17  # vertices or edge pairs per kernel call: 1 MiB a float array


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


class BuildingFeatures(NamedTuple):
    area: float
    main_direction: float
    length_width_ratio: float
    area_ratio: float
    compactness: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return tuple(self)


class Polygon:
    """A simple closed ring, stored counter-clockwise without a closing
    duplicate.  Clockwise or explicitly closed input is normalized on
    construction; degenerate or self-intersecting rings, and rings whose
    measures overflow or whose smallest rectangle has no area, are rejected.

    It is row `_row` of `_block`, its batch's arrays; `xy`, the ring as a
    read-only (n, 2) array, and `ring`, a tuple of Point2, are built when read.
    """

    __slots__ = ("_block", "_row")

    def __new__(cls, ring: Iterable):
        (made,) = polygons([_read_ring(ring)])
        if isinstance(made, Exception):
            raise made
        return made

    xy = property(lambda self: self._block.xy[self._row])
    ring = property(lambda self: tuple([tuple.__new__(Point2, q) for q in self.xy.tolist()]))

    def __len__(self) -> int:
        return len(self.xy)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and np.array_equal(self.xy, other.xy)

    __hash__ = None

    def __reduce__(self):  # its row of the block, restored without the checks
        return _row_polygon, (_Block(*(a[self._row : self._row + 1] for a in self._block)), 0)

    def __repr__(self) -> str:
        return f"Polygon({len(self)} vertices, area={polygon_area(self):.3f})"


class _Block(NamedTuple):
    """A batch's accepted rings, a row each: xy (B, n, 2); measures (B, 10):
    centroid x, y, area ratio, compactness, area, and min_bounding_rect's
    angle, length, width, centre x, y, so that each reader takes one slice."""

    xy: np.ndarray
    measures: np.ndarray


def _row_polygon(block: _Block, row: int) -> Polygon:
    p = object.__new__(Polygon)
    p._block, p._row = block, row
    return p


def _read_ring(ring: Iterable) -> list[tuple[float, float]]:
    """The ring's vertices as Point2 reads them, each within _MERGE_EPS of
    the vertex kept before it dropped, and then an explicit closing vertex."""
    xy: list[tuple[float, float]] = []
    for q in ring:
        x, y = Point2(*q)
        if not xy or math.hypot(x - xy[-1][0], y - xy[-1][1]) > _MERGE_EPS:
            xy.append((x, y))
    if len(xy) > 1 and math.hypot(xy[-1][0] - xy[0][0], xy[-1][1] - xy[0][1]) <= _MERGE_EPS:
        xy.pop()
    return xy


def polygons(rings: Sequence) -> list:
    """`Polygon(ring)` for each ring, or in its place the exception that
    raises.  Rings are lists or tuples of (x, y) number pairs, as JSON rings
    and the generator's are; other vertex types go through `Polygon`."""
    out: list = [None] * len(rings)
    by_len: dict[int, list[int]] = {}
    for i, ring in enumerate(rings):
        by_len.setdefault(len(ring), []).append(i)
    stacks: dict[int, list] = {}  # vertex count -> [(ring indices, X, Y)]
    slow: list[int] = []
    with np.errstate(all="ignore"):  # overflow gives inf and is checked, as with floats
        for n, idx in by_len.items():
            for lo in range(0, len(idx), _MAX_RINGS):
                slow += _stack(rings, idx[lo : lo + _MAX_RINGS], n, stacks)
        for i in slow:
            try:
                X, Y = np.array(_read_ring(rings[i]), dtype=float).reshape(-1, 2).T
            except (ValueError, TypeError, OverflowError) as exc:
                out[i] = exc
            else:
                stacks.setdefault(len(X), []).append(([i], X[:, None], Y[:, None]))
        for n, parts in stacks.items():
            idx = np.concatenate([p[0] for p in parts])
            X, Y = (np.concatenate([p[k] for p in parts], axis=1) for k in (1, 2))
            step = max(1, min(_MAX_RINGS, _MAX_ITEMS // max(n, 1)))
            for lo in range(0, len(idx), step):
                s = slice(lo, lo + step)
                _measure(X[:, s], Y[:, s], idx[s], out)
    return out


def _stack(rings, idx: list[int], n: int, stacks: dict) -> list[int]:
    """Files the rings `idx`, each of n vertices, into `stacks` under their
    vertex count once merged.  Returns the rings to read one by one: those
    numpy cannot convert, with a non-finite coordinate, or with neighbouring
    vertices within _NEAR of each other but not equal."""
    vertices = list(chain.from_iterable([rings[i] for i in idx]))
    try:
        if n < 3 or set(map(len, vertices)) != {2}:
            return idx
        # what _read_ring reads, as it unpacks each vertex into two floats
        XY = np.fromiter(chain.from_iterable(vertices), float, 2 * len(vertices))
    except (TypeError, ValueError, OverflowError):
        return idx
    X, Y = XY.reshape(len(idx), n, 2).transpose(2, 1, 0).copy()
    gaps = np.hypot(X[1:] - X[:-1], Y[1:] - Y[:-1])
    close = np.hypot(X[-1] - X[0], Y[-1] - Y[0])
    fast = np.isfinite(X).all(axis=0) & np.isfinite(Y).all(axis=0) & (gaps > _NEAR).all(axis=0)
    fast &= (close > _NEAR) | (close == 0)
    cols = np.asarray(idx)
    for closed in (False, True):  # an exact closing duplicate is dropped
        take = fast & ((close == 0) == closed)
        if take.any():
            m = n - closed
            stacks.setdefault(m, []).append((cols[take], X[:m, take], Y[:m, take]))
    return cols[~fast].tolist()


def _collinear(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per column, whether every point lies within 1e-12 * scale^2 (cross
    product) of the line through the first two; scale is the largest
    coordinate offset from the first point."""
    ox, oy = X[0], Y[0]
    scale = np.maximum(np.abs(X - ox), np.abs(Y - oy)).max(axis=0)
    scale = np.where(scale == 0, 1.0, scale)
    ex, ey = X[1] - ox, Y[1] - oy
    return (np.abs(ex * (Y[2:] - oy) - ey * (X[2:] - ox)) <= 1e-12 * scale * scale).all(axis=0)


def _all_collinear(pts: Sequence[tuple[float, float]]) -> bool:
    return bool(_collinear(*np.array(pts, dtype=float).T))


def _on_segment(px, py, qx, qy, rx, ry):
    # assumes r collinear with p-q; on floats or element-wise on arrays
    return (np.minimum(px, qx) <= rx) & (rx <= np.maximum(px, qx)) & (
        np.minimum(py, qy) <= ry) & (ry <= np.maximum(py, qy))


def _first_crossings(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Per ring (column), its first spike or touching pair of non-adjacent
    edges, in edge order with edge i's spike before its pairs: i * n + j for
    edges i and j, i * n for a spike at edge i, n * n for a simple ring."""
    n, B = X.shape
    nxt = (np.arange(n) + 1) % n
    X2, Y2 = X[nxt], Y[nxt]
    EX, EY = X2 - X, Y2 - Y
    # spike: the next edge folds straight back over this one
    BX, BY = X2[nxt], Y2[nxt]
    cr = EX * (BY - Y) - EY * (BX - X)
    dot = EX * (BX - X2) + EY * (BY - Y2)
    key = np.where((cr == 0) & (dot < 0), np.arange(n)[:, None] * n, n * n).min(axis=0)
    I, J = np.triu_indices(n, k=2)
    keep = (I > 0) | (J < n - 1)  # edges 0 and n - 1 share a vertex
    I, J = I[keep], J[keep]
    step = max(1, _MAX_ITEMS // max(I.size, 1))
    for lo in range(0, B if I.size else 0, step):
        s = slice(lo, lo + step)
        x1, y1, x2, y2, ex, ey = (a[I, s] for a in (X, Y, X2, Y2, EX, EY))
        x3, y3, x4, y4, fx, fy = (a[J, s] for a in (X, Y, X2, Y2, EX, EY))
        # orientations of each segment's ends against the other segment
        d1, d2 = fx * (y1 - y3) - fy * (x1 - x3), fx * (y2 - y3) - fy * (x2 - x3)
        d3, d4 = ex * (y3 - y1) - ey * (x3 - x1), ex * (y4 - y1) - ey * (x4 - x1)
        hit = (
            (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0)))
            & (((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0)))
            | (d1 == 0) & _on_segment(x3, y3, x4, y4, x1, y1)
            | (d2 == 0) & _on_segment(x3, y3, x4, y4, x2, y2)
            | (d3 == 0) & _on_segment(x1, y1, x2, y2, x3, y3)
            | (d4 == 0) & _on_segment(x1, y1, x2, y2, x4, y4)
        )
        key[s] = np.minimum(key[s], np.where(hit, (I * n + J)[:, None], n * n).min(axis=0))
    return key


def _ring_sum(terms: np.ndarray) -> np.ndarray:
    """Column sums added top to bottom, as a loop over the ring adds them."""
    return np.add.accumulate(terms, axis=0)[-1]


def _mapped(f, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """f(a, b) element-wise by a float function of the math module."""
    made = map(f, a.ravel().tolist(), b.ravel().tolist())
    return np.fromiter(made, float, a.size).reshape(a.shape)


def _chain(SX: np.ndarray, SY: np.ndarray, SI: np.ndarray):
    """One monotone chain per column over its points in row order, with one
    stack pointer per column: (CI, top), column b's chain the points SI
    names in CI[:top[b], b].  A point that does not turn left of the last
    two is popped."""
    n, B = SX.shape
    CX, CY, CI = np.zeros((n, B)), np.zeros((n, B)), np.zeros((n, B), dtype=np.intp)
    top, cols = np.zeros(B, dtype=np.intp), np.arange(B)
    for j in range(n):
        qx, qy = SX[j], SY[j]
        act = cols[top >= 2]
        while act.size:
            t = top[act]
            ox, oy = CX[t - 2, act], CY[t - 2, act]
            ax, ay = CX[t - 1, act], CY[t - 1, act]
            act = act[(ax - ox) * (qy[act] - oy) - (ay - oy) * (qx[act] - ox) <= 0]
            top[act] -= 1
            act = act[top[act] >= 2]
        CX[top, cols], CY[top, cols], CI[top, cols] = qx, qy, SI[j]
        top += 1
    return CI, top


def _hulls(X: np.ndarray, Y: np.ndarray):
    """Monotone-chain hulls of the columns of distinct points: (HI, h),
    column b's hull the rows HI[:h[b], b], counter-clockwise from its
    lexicographically smallest point; the rows past h[b], up to 2n - 2,
    repeat that point.  Collinear points are left out, so collinear input
    gives its two extremes."""
    n, B = X.shape
    cols = np.arange(B)
    order = np.lexsort((Y, X), axis=0)
    SX, SY = X[order, cols], Y[order, cols]
    lower, nl = _chain(SX, SY, order)
    upper, nu = _chain(SX[::-1], SY[::-1], order[::-1])
    # the lower chain and then the upper, each without its last point; on
    # nearly collinear points rounding can put a point in both
    nl, h = nl - 1, nl + nu - 2
    K = np.arange(2 * n - 2)[:, None]
    upper = upper[np.clip(K - nl, 0, n - 1), cols]
    return np.where((K < nl) | (K >= h), lower[np.where(K < nl, K, 0), cols], upper), h


def _calipers(X: np.ndarray, Y: np.ndarray, edge_len: np.ndarray):
    """Smallest-area bounding rectangle of each ring (column), given its
    edge lengths: (angle, length, width, cx, cy), width NaN where the hull
    has fewer than 3 points.  Rotating calipers over the hull edges, in hull
    order: an edge replaces the best when its area is smaller by more than
    1e-12 relative, or ties within that and has a long-side angle smaller by
    more than 1e-9; for a square the smaller side angle is reported."""
    n, B = X.shape
    cols = np.arange(B)
    HI, h = _hulls(X, Y)
    H = int(h.max())
    HI, K = HI[:H], np.arange(H)[:, None]
    NI = HI[np.where(K + 1 < h, K + 1, 0), cols]
    HX, HY = X[HI, cols], Y[HI, cols]
    EX, EY = X[NI, cols] - HX, Y[NI, cols] - HY
    # a hull edge that is a ring edge has that edge's length
    elen = edge_len[HI, cols]
    chord = (NI != (HI + 1) % n) & (K < h)
    elen[chord] = _mapped(math.hypot, EX[chord], EY[chord])
    edges = (K < h) & (elen > _MERGE_EPS)
    UX, UY = EX / elen, EY / elen
    ang_u = np.zeros((H, B))
    ang_u[edges] = _mapped(math.atan2, UY[edges], UX[edges])
    ang_u = np.degrees(ang_u) % 180.0
    ang_v = (ang_u + 90.0) % 180.0

    # extents along u = (ux, uy) and v = (-uy, ux) of each edge, one hull
    # point at a time; the repeats past the hull change nothing
    smin = smax = HX[0] * UX + HY[0] * UY
    tmin = tmax = -HX[0] * UY + HY[0] * UX
    for q in range(1, H):
        S, T = HX[q] * UX + HY[q] * UY, -HX[q] * UY + HY[q] * UX
        smin, smax = np.minimum(smin, S), np.maximum(smax, S)
        tmin, tmax = np.minimum(tmin, T), np.maximum(tmax, T)
    eu, ev = smax - smin, tmax - tmin
    area, u_long = eu * ev, eu > ev
    square = np.abs(eu - ev) <= 1e-12 * np.maximum(eu, ev)
    angle = np.where(square, np.minimum(ang_u, ang_v), np.where(u_long, ang_u, ang_v))
    sc, tc = (smin + smax) / 2.0, (tmin + tmax) / 2.0
    rect = (angle, np.where(u_long, eu, ev), np.where(u_long, ev, eu),
            sc * UX - tc * UY, sc * UY + tc * UX)

    best, found = np.zeros(B, dtype=np.intp), np.zeros(B, dtype=bool)
    b_area, b_angle = np.zeros(B), np.zeros(B)
    for k in range(H):
        a, g = area[k], angle[k]
        take = edges[k] & (~found | (a < b_area * (1.0 - 1e-12))
                           | (a <= b_area * (1.0 + 1e-12)) & (g < b_angle - 1e-9))
        best[take], b_area[take], b_angle[take] = k, a[take], g[take]
        found |= take
    angle, length, width, cx, cy = (v[best, cols] for v in rect)
    width[~found | (h < 3)] = np.nan
    return angle, length, width, cx, cy


def _measure(X: np.ndarray, Y: np.ndarray, idx: np.ndarray, out: list) -> None:
    """Checks and measures the merged rings in the columns of X and Y and
    puts each one's Polygon, or its exception, at out[idx[b]]."""
    n, B = X.shape
    if n < 3:
        for i in idx.tolist():
            out[i] = DegeneratePolygon(f"ring has {n} distinct vertices, need 3")
        return
    collinear, crossing = _collinear(X, Y), _first_crossings(X, Y)
    nxt = (np.arange(n) + 1) % n
    signed2 = _ring_sum(X * Y[nxt] - X[nxt] * Y)

    # counter-clockwise; the measures below run over the stored ring
    flip = signed2 < 0
    X, Y = np.where(flip, X[::-1], X), np.where(flip, Y[::-1], Y)
    X2, Y2 = X[nxt], Y[nxt]
    W = X * Y2 - X2 * Y
    area2 = _ring_sum(W)
    area = area2 / 2.0
    cx = _ring_sum((X + X2) * W) / (3.0 * area2)
    cy = _ring_sum((Y + Y2) * W) / (3.0 * area2)
    edge_len = _mapped(math.hypot, X2 - X, Y2 - Y)
    perim = _ring_sum(edge_len)
    angle, length, width, rcx, rcy = _calipers(X, Y, edge_len)
    area_ratio = area / (length * width)
    compact = 4.0 * math.pi * area / (perim * perim)

    # the first failing check, in the order they run on one ring; a ring
    # that passes them all has finite measures and a rectangle with area
    fault = np.select([collinear, crossing < n * n, np.abs(signed2) / 2.0 < _MIN_AREA,
                       ~(np.isfinite(area) & np.isfinite(perim)),
                       ~(np.isfinite(cx) & np.isfinite(cy)), ~(length * width > 0)],
                      [1, 2, 3, 4, 5, 6], 0)
    for b in np.flatnonzero(fault).tolist():
        i, j = divmod(int(crossing[b]), n)
        out[idx[b]] = [
            DegeneratePolygon("all vertices collinear"),
            SelfIntersectingPolygon(f"edges {i} and {j} intersect" if j
                                    else f"spike at vertex {(i + 1) % n}"),
            DegeneratePolygon(f"|area| {abs(signed2[b]) / 2.0:g} below {_MIN_AREA:g}"),
            DegeneratePolygon(f"area {area[b]:g} and perimeter {perim[b]:g} must be finite"),
            DegeneratePolygon(f"centroid ({cx[b]:g}, {cy[b]:g}) must be finite"),
            DegeneratePolygon("hull collapsed to a segment"),
        ][fault[b] - 1]
    good = fault == 0
    block = _Block(
        np.stack((X[:, good].T, Y[:, good].T), axis=2),
        np.stack((cx, cy, np.where(area_ratio < 1.0, area_ratio, 1.0),
                  np.where(compact < 1.0, compact, 1.0),
                  area, angle, length, width, rcx, rcy), axis=1)[good],
    )
    for a in block:
        a.flags.writeable = False
    for row, i in enumerate(idx[good].tolist()):
        out[i] = _row_polygon(block, row)


def polygon_area(p: Polygon) -> float:
    """Shoelace area; positive because rings are stored counter-clockwise."""
    return float(p._block.measures[p._row, 4])


def polygon_centroid(p: Polygon) -> Point2:
    """Area centroid of the footprint."""
    return tuple.__new__(Point2, p._block.measures[p._row, :2].tolist())


def min_bounding_rect(p: Polygon) -> OrientedRect:
    """Smallest-area bounding rectangle by rotating calipers over the hull
    edges.  Area ties are broken by the smaller long-side angle; for a
    square the smaller of the two side angles is reported.
    """
    angle, length, width, cx, cy = p._block.measures[p._row, 5:].tolist()
    return OrientedRect(center=Point2(cx, cy), length=length, width=width, angle=angle)


def extract_features(p: Polygon) -> BuildingFeatures:
    """The five per-building indices, in FEATURE_NAMES order."""
    area_ratio, compact, area, angle, length, width = p._block.measures[p._row, 2:8].tolist()
    return tuple.__new__(BuildingFeatures, (area, angle, length / width, area_ratio, compact))
