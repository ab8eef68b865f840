"""Spatial graphs over building centroids.

A building group becomes a weighted undirected graph: vertices are footprint
centroids, edges come from a Delaunay triangulation or its minimum spanning
tree, and weights follow a configurable scheme.  Laplacians of that graph and
their eigendecompositions are what the spectral filters operate on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CollinearInput,
    DisconnectedInput,
    DuplicatePoints,
    IsolatedVertex,
    NonConvergence,
)
from .geometry import (
    Point2,
    Polygon,
    _all_collinear,
    _on_segment,
    extract_features,
    polygon_centroid,
)

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


@dataclass(frozen=True, eq=False)
class LaplacianMatrix:
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray  # (n,)
    eigenvectors: np.ndarray  # (n, n), column l pairs with eigenvalues[l]

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _connected(W: np.ndarray) -> bool:
    """Breadth-first search from vertex 0, one frontier per step."""
    n = W.shape[0]
    if n == 0:
        return False
    A = W != 0
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = A[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


# ---------------------------------------------------------------------------
# Delaunay triangulation (incremental, with one infinite vertex)

_INFINITE = -1  # the vertex every hull edge shares with its triangle outside

# Static error bounds of the float predicates below.  With eps = 2**-53, the
# float orientation determinant lies within (3 + 16 eps) eps * P of the exact
# one and the float in-circle determinant within (10 + 96 eps) eps * P, where
# P is the permanent: the determinant with each product replaced by its
# absolute value (Shewchuk 1997, "Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates", ccwerrboundA and
# iccerrboundA).  Every rounded coordinate difference is at most
# D = max(x extent, y extent) of the point set, since rounding is monotone.
# So P <= 2 D^2 for the orientation (two products of two differences) and
# P <= 12 D^4 for the in-circle (three lifted lengths of at most 2 D^2, each
# times two products of at most D^2).  The factors below exceed 2 (3 + 16 eps)
# eps and 12 (10 + 96 eps) eps by over 0.5%, far more than the rounding of P and
# of D^k can add; a determinant beyond its bound has the exact sign.
# `_check_distinct` keeps D >= 7e-10 m, so the bounds stay far above the
# absolute error that underflow can add.
_ORIENT_BOUND = 6.7e-16
_INCIRCLE_BOUND = 1.34e-14


def _check_distinct(pts: Sequence[tuple[float, float]]) -> None:
    """Raises DuplicatePoints for the lowest (i, j) closer than
    `_COINCIDENT_EPS`.  Only pairs whose x differ by at most twice that
    are compared, which every closer pair does."""
    order = sorted(range(len(pts)), key=lambda i: pts[i][0])
    close = []
    for s, i in enumerate(order):
        for t in range(s + 1, len(order)):
            j = order[t]
            if pts[j][0] - pts[i][0] > 2.0 * _COINCIDENT_EPS:
                break
            a, b = min(i, j), max(i, j)
            (xa, ya), (xb, yb) = pts[a], pts[b]
            if math.hypot(xb - xa, yb - ya) < _COINCIDENT_EPS:
                close.append((a, b))
    if close:
        i, j = min(close)
        raise DuplicatePoints(f"points {i} and {j} coincide within {_COINCIDENT_EPS:g} m")


def _predicate_bounds(pts) -> tuple[float, float]:
    """The `bound` arguments of `_orient` and `_incircle` for points of pts."""
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    return _ORIENT_BOUND * extent * extent, _INCIRCLE_BOUND * extent * extent * extent * extent


def _orient(a, b, p, bound) -> int:
    """Exact sign of the turn a -> b -> p: 1 left, -1 right, 0 collinear.

    `bound` comes from `_predicate_bounds` of a point set holding a, b, p."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    det = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    if det > bound:
        return 1
    if det < -bound:
        return -1
    (ax, ay), (bx, by), (px, py) = [(Fraction(x), Fraction(y)) for x, y in (a, b, p)]
    det = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return (det > 0) - (det < 0)


def _incircle(a, b, c, p, bound) -> int:
    """Exact sign of p against the circle through the counter-clockwise
    triangle abc: 1 strictly inside, -1 strictly outside, 0 on it.

    `bound` comes from `_predicate_bounds` of a point set holding all four."""
    (ax, ay), (bx, by), (cx, cy), (px, py) = a, b, c, p
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    if det < -bound:
        return -1
    if det > bound:
        return 1
    (adx, ady), (bdx, bdy), (cdx, cdy) = [
        (Fraction(x) - Fraction(px), Fraction(y) - Fraction(py)) for x, y in (a, b, c)
    ]
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


def delaunay_triangles(points: Iterable) -> list[tuple[int, int, int]]:
    """Delaunay triangles as sorted index triples, via incremental insertion.

    The predicates are exact.  Points 0 and 1 and the first point not
    collinear with them make the first triangle; the rest are inserted in
    input order.  A point exactly on a circumcircle is treated as outside
    it, so co-circular configurations are resolved by insertion order and
    the result is deterministic.  Past each hull edge lies a triangle with
    the infinite vertex, whose circle is the open half-plane beyond the
    edge together with the edge's open segment: a point exactly on a hull
    edge, between its ends, is inside it.

    Each point is located by a visibility walk from the last finite
    triangle made (Devillers, Pion and Teillaud 2002, "Walking in a
    triangulation"); its conflict region, the triangles whose circle holds
    it, is then flooded over neighbours from there.  That region is
    connected and holds the triangle the walk ends in, so with exact
    predicates it is the one a test of every triangle would find.
    """
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    if n < 3:
        raise ValueError(f"triangulation needs at least 3 points, got {n}")
    _check_distinct(pts)
    if _all_collinear(pts):
        raise CollinearInput("all points collinear")

    orient_bound, incircle_bound = _predicate_bounds(pts)
    # `_all_collinear` allows far more than rounding error, so some point k
    # is exactly off the line through points 0 and 1
    for k in range(2, n):
        side = _orient(pts[0], pts[1], pts[k], orient_bound)
        if side:
            break
    a, b = (1, k) if side > 0 else (k, 1)
    # live triangles: (a, b, c) counter-clockwise, or hull triangles
    # (u, v, _INFINITE) with the outside to the left of u -> v
    start = (0, a, b)  # where the next walk begins: the last finite triangle made
    live = {start, (a, 0, _INFINITE), (b, a, _INFINITE), (0, b, _INFINITE)}
    # every live triangle under each of its directed edges; the one across
    # edge (u, v) sits under (v, u).  Entries of dead triangles are never
    # read: the reverse of a live edge is live, and a triangle made later
    # with the same edge overwrites its entry.
    across = {}
    for t in live:
        u, v, w = t
        across[u, v] = across[v, w] = across[w, u] = t

    def conflicts(t, p) -> bool:
        u, v, w = t
        if w != _INFINITE:
            return _incircle(pts[u], pts[v], pts[w], p, incircle_bound) > 0
        side = _orient(pts[u], pts[v], p, orient_bound)
        return side > 0 or side == 0 and _on_segment(*pts[u], *pts[v], *p)

    for idx in [i for i in range(2, n) if i != k]:
        p = px, py = pts[idx]
        # walk: cross any edge with p strictly to its right, until p lies
        # in the triangle or past a hull edge.  Delaunay triangulations
        # admit no cycle of such steps.
        t, entry = start, None
        while t[2] != _INFINITE:
            for u, v in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                if (v, u) == entry:
                    continue  # p is on this triangle's side of its entry edge
                (ux, uy), (vx, vy) = pts[u], pts[v]
                det = (vx - ux) * (py - uy) - (vy - uy) * (px - ux)
                if det < -orient_bound or (
                    det <= orient_bound and _orient(pts[u], pts[v], p, orient_bound) < 0
                ):
                    t, entry = across[v, u], (u, v)
                    break
            else:
                break
        # flood the conflict region; its boundary edges keep the direction
        # they have in the cavity triangle
        cavity, outside, stack, boundary = {t}, set(), [t], []
        while stack:
            u, v, w = stack.pop()
            for e in ((u, v), (v, w), (w, u)):
                nb = across[e[1], e[0]]
                if nb in cavity:
                    continue
                if nb not in outside and conflicts(nb, p):
                    cavity.add(nb)
                    stack.append(nb)
                else:
                    outside.add(nb)
                    boundary.append(e)
        # every conflicting triangle has p strictly inside its circle, so
        # the cavity is star-shaped from p: join p to each boundary edge
        live -= cavity
        for u, v in boundary:
            if u == _INFINITE:
                t = (v, idx, _INFINITE)
            elif v == _INFINITE:
                t = (idx, u, _INFINITE)
            else:
                t = start = (u, v, idx)
            live.add(t)
            u, v, w = t
            across[u, v] = across[v, w] = across[w, u] = t

    return sorted(tuple(sorted(t)) for t in live if t[2] != _INFINITE)


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
    W = g.weights if isinstance(g, SpatialGraph) else np.asarray(g, dtype=float)
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
    return LaplacianMatrix(values=L)


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
