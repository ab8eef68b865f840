"""Spatial graphs over building centroids.

A building group becomes a weighted undirected graph: vertices are footprint
centroids, edges come from a Delaunay triangulation or its minimum spanning
tree, and weights follow a configurable scheme.  Laplacians of that graph and
their eigendecompositions are what the spectral filters operate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CollinearInput,
    DisconnectedInput,
    DuplicatePoints,
    IsolatedVertex,
    NonConvergence,
)
from .geometry import Point2, Polygon, _all_collinear, extract_features, polygon_centroid

STRUCTURES = ("dt", "mst")
WEIGHTINGS = ("binary", "invdist", "gaussian")
LAPLACIAN_KINDS = ("comb", "sym")

_COINCIDENT_EPS = 1e-9  # meters


@dataclass(frozen=True)
class GraphConfig:
    """How a building group is turned into a graph and a Laplacian.

    structure: "dt" (Delaunay) or "mst" (minimum spanning tree of the DT).
    weighting: "binary" (1 per edge), "invdist" (1/d), or "gaussian"
        (exp(-d^2 / 2 sigma^2) with sigma = mean DT edge length).
    laplacian: "comb" (D - W) or "sym" (I - D^-1/2 W D^-1/2).
    scaled: map the spectrum into [-1, 1] for stable filter powers.
    """

    structure: str = "dt"
    weighting: str = "binary"
    laplacian: str = "sym"
    scaled: bool = True

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"structure must be one of {STRUCTURES}, got {self.structure!r}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.laplacian not in LAPLACIAN_KINDS:
            raise ValueError(f"laplacian must be one of {LAPLACIAN_KINDS}, got {self.laplacian!r}")


@dataclass(frozen=True, eq=False)
class SpatialGraph:
    """Connected weighted graph with per-vertex features and positions."""

    weights: np.ndarray  # (n, n) symmetric, zero diagonal, nonnegative
    features: np.ndarray  # (n, d)
    positions: tuple[Point2, ...]

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        F = np.atleast_2d(np.asarray(self.features, dtype=float))
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "features", F)
        object.__setattr__(self, "positions", tuple(self.positions))
        n = W.shape[0]
        if W.shape != (n, n):
            raise ValueError(f"weights must be square, got {W.shape}")
        if not np.all(np.isfinite(W)) or np.any(W < 0):
            raise ValueError("weights must be finite and nonnegative")
        if np.max(np.abs(W - W.T), initial=0.0) > 1e-12:
            raise ValueError("weights must be symmetric within 1e-12")
        if np.any(np.diag(W) != 0.0):
            raise ValueError("weight diagonal must be exactly zero")
        if F.shape[0] != n or F.shape[1] < 1:
            raise ValueError(f"features must be (n, d>=1), got {F.shape}")
        if not np.all(np.isfinite(F)):
            raise ValueError("features must be finite")
        if len(self.positions) != n:
            raise ValueError("positions length must match vertex count")
        if not _connected(W):
            raise DisconnectedInput("graph is not connected")

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges (i, j, w) with i < j, sorted by (i, j)."""
        ii, jj = np.nonzero(np.triu(self.weights, k=1))
        return [(int(i), int(j), float(self.weights[i, j])) for i, j in zip(ii, jj)]


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    values: np.ndarray
    kind: str  # comb | sym
    scaled: bool

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray  # (n,)
    eigenvectors: np.ndarray  # (n, n), column l pairs with eigenvalues[l]

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _connected(W: np.ndarray) -> bool:
    n = W.shape[0]
    if n == 0:
        return False
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.nonzero(W[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


# ---------------------------------------------------------------------------
# Delaunay triangulation (incremental with a super-triangle)


def _check_distinct(pts: Sequence[tuple[float, float]]) -> None:
    n = len(pts)
    for i in range(n):
        xi, yi = pts[i]
        for j in range(i + 1, n):
            if math.hypot(pts[j][0] - xi, pts[j][1] - yi) < _COINCIDENT_EPS:
                raise DuplicatePoints(f"points {i} and {j} coincide within {_COINCIDENT_EPS:g} m")


def _circum_margin(pts, n_real, tri, p) -> float:
    """Scale-normalized margin of p against tri's circumcircle; > 0 means
    strictly inside, and points on the circle land at or below 0, which is
    what makes co-circular insertion order decisive.

    Vertices with index >= n_real belong to the super triangle and are
    treated as points at infinity: their circumcircles degenerate to
    half-planes.  That keeps every test conditioned at scene scale instead
    of mixing in the huge super-triangle coordinates."""
    px, py = p
    supers = [v for v in tri if v >= n_real]

    if not supers:
        ax, ay = pts[tri[0]]
        bx, by = pts[tri[1]]
        cx, cy = pts[tri[2]]
        # orient counter-clockwise so the determinant sign is meaningful
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
            bx, by, cx, cy = cx, cy, bx, by
        adx, ady = ax - px, ay - py
        bdx, bdy = bx - px, by - py
        cdx, cdy = cx - px, cy - py
        m = max(abs(adx), abs(ady), abs(bdx), abs(bdy), abs(cdx), abs(cdy), 1e-300)
        det = (
            (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
        )
        m4 = m * m * m * m
        return det / m4 - 1e-12

    if len(supers) == 3:
        return math.inf  # the initial super triangle spans the whole scene

    reals = [v for v in tri if v < n_real]
    if len(supers) == 1:
        # circle through a, b and a far vertex: in the limit it is the open
        # half-plane past line ab on the far vertex's side, plus the open
        # segment ab, which lies inside the circle for any far vertex
        (a, b), (s,) = reals, supers
        ax, ay = pts[a]
        bx, by = pts[b]
        sx, sy = pts[s]
        o_p = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if o_p == 0.0 and _on_open_segment(bx - ax, by - ay, px - ax, py - ay):
            return math.inf
        o_s = (bx - ax) * (sy - ay) - (by - ay) * (sx - ax)
        side = 1.0 if o_s > 0 else -1.0
        scale = max(abs(bx - ax), abs(by - ay), abs(px - ax), abs(py - ay), 1e-300)
        return side * o_p / (scale * scale) - 1e-12

    # two far vertices and one real vertex a: the limiting circle is the
    # line through a parallel to the far pair, open toward their midpoint
    (a,), (s1, s2) = reals, supers
    ax, ay = pts[a]
    s1x, s1y = pts[s1]
    s2x, s2y = pts[s2]
    dx, dy = s2x - s1x, s2y - s1y
    o_p = dx * (py - ay) - dy * (px - ax)
    mx, my = (s1x + s2x) / 2.0, (s1y + s2y) / 2.0
    o_m = dx * (my - ay) - dy * (mx - ax)
    side = 1.0 if o_m > 0 else -1.0
    dist = side * o_p / math.hypot(dx, dy)
    scale = max(abs(px - ax), abs(py - ay), 1e-300)
    return dist / scale - 1e-12


def _on_open_segment(ex, ey, dx, dy) -> bool:
    """Whether a point at offset (dx, dy) from a, already known to lie on
    line ab, lies strictly between a and b = a + (ex, ey)."""
    return 0.0 < dx * ex + dy * ey < ex * ex + ey * ey


def _triangle_record(pts, n_real, tri) -> tuple:
    """The terms of `_circum_margin` that do not depend on the query point.

    Kind 0, three real vertices: the counter-clockwise coordinates.  Kind 1,
    one super vertex: real vertex a, the edge vector to b and the side sign.
    Kind 2, two super vertices: a, the far pair's direction, the side sign
    and the direction's length.  Kind 3: the initial super triangle."""
    supers = [v for v in tri if v >= n_real]
    if not supers:
        ax, ay = pts[tri[0]]
        bx, by = pts[tri[1]]
        cx, cy = pts[tri[2]]
        if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) < 0:
            bx, by, cx, cy = cx, cy, bx, by
        return (0, ax, ay, bx, by, cx, cy)
    if len(supers) == 3:
        return (3,)
    reals = [v for v in tri if v < n_real]
    if len(supers) == 1:
        (a, b), (s,) = reals, supers
        ax, ay = pts[a]
        bx, by = pts[b]
        sx, sy = pts[s]
        o_s = (bx - ax) * (sy - ay) - (by - ay) * (sx - ax)
        return (1, ax, ay, bx - ax, by - ay, 1.0 if o_s > 0 else -1.0)
    (a,), (s1, s2) = reals, supers
    ax, ay = pts[a]
    s1x, s1y = pts[s1]
    s2x, s2y = pts[s2]
    dx, dy = s2x - s1x, s2y - s1y
    mx, my = (s1x + s2x) / 2.0, (s1y + s2y) / 2.0
    o_m = dx * (my - ay) - dy * (mx - ax)
    return (2, ax, ay, dx, dy, 1.0 if o_m > 0 else -1.0, math.hypot(dx, dy))


def _inside(rec, px, py) -> bool:
    """Exactly `_circum_margin(...) > 0` for the triangle `rec` was made from.

    Same numerator, same float operations.  The margin is that numerator over
    a positive scale minus 1e-12, so a numerator <= 0 answers False before
    the scale is computed (but for a point on the open segment of a kind-1
    edge, which is inside); `_check_distinct` keeps the scale above zero."""
    kind = rec[0]
    if kind == 0:
        _, ax, ay, bx, by, cx, cy = rec
        adx, ady = ax - px, ay - py
        bdx, bdy = bx - px, by - py
        cdx, cdy = cx - px, cy - py
        det = (
            (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
        )
        if not det > 0.0:
            return False
        m = max(abs(adx), abs(ady), abs(bdx), abs(bdy), abs(cdx), abs(cdy), 1e-300)
        return det / (m * m * m * m) - 1e-12 > 0.0
    if kind == 1:
        _, ax, ay, ex, ey, side = rec
        num = side * (ex * (py - ay) - ey * (px - ax))
        if not num > 0.0:
            return num == 0.0 and _on_open_segment(ex, ey, px - ax, py - ay)
        scale = max(abs(ex), abs(ey), abs(px - ax), abs(py - ay), 1e-300)
        return num / (scale * scale) - 1e-12 > 0.0
    if kind == 2:
        _, ax, ay, dx, dy, side, length = rec
        num = side * (dx * (py - ay) - dy * (px - ax))
        if not num > 0.0:
            return False
        scale = max(abs(px - ax), abs(py - ay), 1e-300)
        return num / length / scale - 1e-12 > 0.0
    return True


def delaunay_triangles(points: Iterable) -> list[tuple[int, int, int]]:
    """Delaunay triangles as sorted index triples, via incremental insertion.

    Points are inserted in input order; a point exactly on a circumcircle is
    treated as outside it, so co-circular configurations are resolved by
    insertion order and the result is deterministic.  A point exactly on a
    hull edge, between its ends, is inside the circle past that edge.
    """
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    if n < 3:
        raise ValueError(f"triangulation needs at least 3 points, got {n}")
    _check_distinct(pts)
    if _all_collinear(pts):
        raise CollinearInput("all points collinear")

    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cx, cy = (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
    r = max(max(xs) - min(xs), max(ys) - min(ys), 1.0) * 1e4
    all_pts = pts + [
        (cx, cy + r),
        (cx - r * math.sqrt(3.0) / 2.0, cy - r / 2.0),
        (cx + r * math.sqrt(3.0) / 2.0, cy - r / 2.0),
    ]
    # live triangles, each beside its in-circle record
    live = [((n, n + 1, n + 2), (3,))]

    for idx in range(n):
        px, py = p = all_pts[idx]
        bad, kept = [], []
        for item in live:
            (bad if _inside(item[1], px, py) else kept).append(item)
        if not bad:
            # near-co-circular slivers can push every margin to zero; take
            # the closest call so the point always enters the triangulation
            margins = [_circum_margin(all_pts, n, t, p) for t, _ in live]
            k = max(range(len(live)), key=lambda k: margins[k])
            bad, kept = [live[k]], live[:k] + live[k + 1 :]
        edge_count: dict[tuple[int, int], int] = {}
        for t, _ in bad:  # triples are sorted, so each edge is too
            for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2])):
                edge_count[e] = edge_count.get(e, 0) + 1
        live = kept
        for (u, v), k in edge_count.items():
            if k == 1:
                t = tuple(sorted((u, v, idx)))
                live.append((t, _triangle_record(all_pts, n, t)))

    real = [t for t, _ in live if t[2] < n]  # sorted triple: t[2] < n means no super vertex
    return sorted(real)


def delaunay_triangulate(points: Iterable) -> list[tuple[int, int]]:
    """Edge set of the Delaunay triangulation, as sorted (i, j) pairs."""
    edges = set()
    for a, b, c in delaunay_triangles(points):
        edges.update([(a, b), (b, c), (a, c)])
    return sorted(edges)


# ---------------------------------------------------------------------------
# Minimum spanning tree (Kruskal)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_spanning_tree(
    n: int, weighted_edges: Iterable[tuple[int, int, float]]
) -> list[tuple[int, int]]:
    """Kruskal MST; weight ties broken by lexicographic (weight, i, j).

    Returns the n-1 tree edges as sorted (i, j) pairs.
    """
    ranked = sorted(
        (float(w), min(i, j), max(i, j)) for i, j, w in weighted_edges
    )
    uf = _UnionFind(n)
    chosen = []
    for w, i, j in ranked:
        if uf.union(i, j):
            chosen.append((i, j))
            if len(chosen) == n - 1:
                break
    if len(chosen) != n - 1:
        raise DisconnectedInput(f"edge set spans {len(chosen) + 1} of {n} vertices")
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Graph construction


def _principal_axis_path(pts: list[tuple[float, float]]) -> list[tuple[int, int]]:
    # order by projection onto the direction of maximum variance
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    xs, ys = xs - xs.mean(), ys - ys.mean()
    sxx, syy, sxy = float(xs @ xs), float(ys @ ys), float(xs @ ys)
    theta = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    proj = xs * math.cos(theta) + ys * math.sin(theta)
    order = np.argsort(proj, kind="stable")
    return [(int(min(a, b)), int(max(a, b))) for a, b in zip(order[:-1], order[1:])]


def build_spatial_graph(group: Sequence[Polygon], config: GraphConfig | None = None) -> SpatialGraph:
    """Graph over centroids of a building group.

    Structure is the Delaunay triangulation or its MST (tree distances are
    centroid Euclidean distances).  Collinear centroids fall back to a path
    graph ordered along the principal axis.  Features are the raw per-building
    shape indices; standardization is a training-pipeline concern.
    """
    if config is None:
        config = GraphConfig()
    polys = list(group)
    if len(polys) < 3:
        raise ValueError(f"a group needs at least 3 buildings, got {len(polys)}")
    pts = [polygon_centroid(p) for p in polys]

    try:
        base_edges = delaunay_triangulate(pts)
    except CollinearInput:
        base_edges = _principal_axis_path(pts)

    def dist(e):
        (x1, y1), (x2, y2) = pts[e[0]], pts[e[1]]
        return math.hypot(x2 - x1, y2 - y1)

    if config.structure == "mst":
        edges = minimum_spanning_tree(len(pts), [(i, j, dist((i, j))) for i, j in base_edges])
    else:
        edges = base_edges

    if config.weighting == "gaussian":
        sigma = sum(dist(e) for e in base_edges) / len(base_edges)

    n = len(pts)
    W = np.zeros((n, n))
    for i, j in edges:
        d = dist((i, j))
        if config.weighting == "binary":
            w = 1.0
        elif config.weighting == "invdist":
            w = 1.0 / d
        else:
            w = math.exp(-(d * d) / (2.0 * sigma * sigma))
        W[i, j] = W[j, i] = w

    F = np.array([extract_features(p).as_tuple() for p in polys])
    return SpatialGraph(weights=W, features=F, positions=tuple(pts))


# ---------------------------------------------------------------------------
# Laplacians


def _weights_of(g) -> np.ndarray:
    return g.weights if isinstance(g, SpatialGraph) else np.asarray(g, dtype=float)


def matrix_of(L) -> np.ndarray:
    """The array of a LaplacianMatrix, or any other matrix as a float array."""
    return L.values if isinstance(L, LaplacianMatrix) else np.asarray(L, dtype=float)


def lambda_upper_bound(L) -> float:
    """Gershgorin bound: max over rows of diag + off-diagonal absolute sum.

    Exact arithmetic on matrix entries, so it is invariant under vertex
    relabeling, unlike an iterative eigenvalue estimate.
    """
    A = matrix_of(L)
    d = np.diag(A)
    return float(np.max(d + (np.sum(np.abs(A), axis=1) - np.abs(d))))


def laplacian(g, kind: str = "sym", scaled: bool = True) -> LaplacianMatrix:
    """Graph Laplacian of a SpatialGraph (or a raw weights matrix).

    comb: D - W.  sym: I - D^-1/2 W D^-1/2.  With scaled=True the matrix is
    mapped to 2 L / lambda_up - I with lambda_up the Gershgorin upper bound,
    which keeps the spectrum inside [-1, 1] without an eigensolve.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"kind must be one of {LAPLACIAN_KINDS}, got {kind!r}")
    W = _weights_of(g)
    deg = W.sum(axis=1)
    if kind == "comb":
        L = np.diag(deg) - W
    else:
        if np.any(deg <= 0):
            raise IsolatedVertex(f"vertex {int(np.argmin(deg))} has zero degree")
        inv_sqrt = 1.0 / np.sqrt(deg)
        L = np.eye(W.shape[0]) - (inv_sqrt[:, None] * W * inv_sqrt[None, :])
    L = (L + L.T) / 2.0  # kill rounding asymmetry
    if scaled:
        lam_up = lambda_upper_bound(L)
        if lam_up <= 0:  # zero matrix: spectrum is {0}, center it
            L = -np.eye(W.shape[0])
        else:
            L = (2.0 / lam_up) * L - np.eye(W.shape[0])
        L = (L + L.T) / 2.0
    return LaplacianMatrix(values=L, kind=kind, scaled=scaled)


# ---------------------------------------------------------------------------
# Eigendecomposition


def eigendecompose(L) -> EigenSystem:
    """Full eigensystem of a symmetric matrix (LAPACK, via numpy.linalg.eigh).

    Eigenvalues ascend.  Eigenvector sign is fixed by making each column's
    largest-magnitude entry positive (first such index on ties).
    """
    A = matrix_of(L)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError(f"matrix must be square, got {A.shape}")
    if n > 4096:
        raise ValueError(f"matrix order {n} exceeds the supported 4096")
    if np.max(np.abs(A - A.T), initial=0.0) > 1e-12 * max(1.0, float(np.linalg.norm(A))):
        raise ValueError("matrix must be symmetric")
    try:
        lam, V = np.linalg.eigh((A + A.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigensolver did not converge: {exc}") from exc
    anchor = np.argmax(np.abs(V), axis=0)
    signs = np.where(V[anchor, np.arange(n)] < 0, -1.0, 1.0)
    return EigenSystem(eigenvalues=lam, eigenvectors=V * signs[None, :])
