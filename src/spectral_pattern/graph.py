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
    GraphError,
    IsolatedVertex,
    NonConvergence,
)
from .geometry import (
    Point2,
    Polygon,
    _all_collinear,
    _features,
    _measures,
    _on_segment,
    polygon_centroid,
)

STRUCTURES = ("dt", "mst")
WEIGHTINGS = ("binary", "invdist", "gaussian")
LAPLACIAN_KINDS = ("comb", "sym")

_COINCIDENT_EPS = 1e-9  # meters
_STACK_ENTRIES = 1 << 16  # weight entries per stack: bounds the arrays a stacked step holds


@dataclass(frozen=True)
class GraphConfig:
    """How a building group is turned into a graph and a Laplacian.

    structure: "dt" (Delaunay) or "mst" (minimum spanning tree of the DT).
    weighting: "binary" (1 per edge), "invdist" (1/d), or "gaussian"
        (exp(-d^2 / 2 sigma^2) with sigma = mean DT edge length).
    laplacian: "comb" (D - W) or "sym" (I - D^-1/2 W D^-1/2); the network
        always reads it with its spectrum mapped into [-1, 1].
    """

    structure: str = "dt"
    weighting: str = "binary"
    laplacian: str = "sym"

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
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weights must be square, got {W.shape}")
        n = W.shape[0]
        if not (np.isfinite(W) & (W >= 0)).all():
            raise ValueError("weights must be finite and nonnegative")
        if np.abs(W - W.T).max(initial=0.0) > 1e-12:
            raise ValueError("weights must be symmetric within 1e-12")
        if (np.diagonal(W) != 0.0).any():
            raise ValueError("weight diagonal must be exactly zero")
        if F.ndim != 2 or F.shape[0] != n or F.shape[1] < 1:
            raise ValueError(f"features must be (n, d>=1), got {F.shape}")
        if not np.isfinite(F).all():
            raise ValueError("features must be finite")
        if len(self.positions) != n:
            raise ValueError("positions length must match vertex count")
        if not _spans(n, np.argwhere(W).tolist()):
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
# absolute error that underflow can add; past D = 1e153 (orientation) and
# 1e76 (in-circle) a product could overflow, and the bound is infinite.
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
    """The `bound` arguments of `_orient` and `_incircle` for points of pts:
    infinite where the float determinant could overflow, so that it never
    decides there."""
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    e = max(max(xs) - min(xs), max(ys) - min(ys))
    return (_ORIENT_BOUND * e * e if e < 1e153 else math.inf,
            _INCIRCLE_BOUND * e * e * e * e if e < 1e76 else math.inf)


def _orient_det(a, b, p):
    """The orientation determinant of a, b, p in the coordinates' own
    arithmetic (float or Fraction), positive for a left turn."""
    (ax, ay), (bx, by), (px, py) = a, b, p
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _incircle_det(a, b, c, p):
    """The in-circle determinant of a, b, c relative to p, in the same way:
    positive when p is inside the circle through counter-clockwise abc."""
    (ax, ay), (bx, by), (cx, cy), (px, py) = a, b, c, p
    adx, ady = ax - px, ay - py
    bdx, bdy = bx - px, by - py
    cdx, cdy = cx - px, cy - py
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def _orient(a, b, p, bound) -> int:
    """Exact sign of the turn a -> b -> p: 1 left, -1 right, 0 collinear.

    `bound` comes from `_predicate_bounds` of a point set holding a, b, p.
    The float determinant decides only beyond it, so never when not finite."""
    det = _orient_det(a, b, p)
    if not abs(det) > bound:
        det = _orient_det(*[(Fraction(x), Fraction(y)) for x, y in (a, b, p)])
    return (det > 0) - (det < 0)


def _incircle(a, b, c, p, bound) -> int:
    """Exact sign of p against the circle through the counter-clockwise
    triangle abc: 1 strictly inside, -1 strictly outside, 0 on it.

    `bound` comes from `_predicate_bounds` of a point set holding all four;
    it is used as in `_orient`."""
    det = _incircle_det(a, b, c, p)
    if not abs(det) > bound:
        det = _incircle_det(*[(Fraction(x), Fraction(y)) for x, y in (a, b, c, p)])
    return (det > 0) - (det < 0)


def _live_triangles(points: Iterable) -> set[tuple[int, int, int]]:
    """The live triangles of the incremental Delaunay triangulation of
    points, as `delaunay_triangles` describes it: (a, b, c) counter-clockwise,
    and a hull triangle (u, v, _INFINITE) past each hull edge u -> v."""
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

    # The walk and the flood run the predicates' float filters inline and
    # call `_orient` or `_incircle` exactly where those would go exact: when
    # the float determinant is not beyond its bound (NaN included).
    for idx in [i for i in range(2, n) if i != k]:
        p = pts[idx]
        # walk: cross any edge with p strictly to its right, until p lies
        # in the triangle or past a hull edge.  Delaunay triangulations
        # admit no cycle of such steps, and p is strictly left of the edge
        # the walk came in by, so that edge is never crossed back.
        t = start
        while t[2] != _INFINITE:
            a, b, c = t
            for u, v in ((a, b), (b, c), (c, a)):
                det = _orient_det(pts[u], pts[v], p)
                if det < -orient_bound or not det > orient_bound and (
                    _orient(pts[u], pts[v], p, orient_bound) < 0
                ):
                    t = across[v, u]
                    break
            else:
                break
        # flood the conflict region; its boundary edges keep the direction
        # they have in the cavity triangle.  A neighbour conflicts when p is
        # strictly inside its circle, or for a hull triangle strictly past
        # its edge or on the edge's open segment.  A rim triangle next to
        # two cavity triangles is tested once from each, alike.
        cavity, stack, boundary = {t}, [t], []
        while stack:
            u, v, w = stack.pop()
            for back in ((v, u), (w, v), (u, w)):  # each edge as its neighbour has it
                nb = across[back]
                if nb in cavity:
                    continue
                a, b, c = nb
                if c != _INFINITE:
                    det = _incircle_det(pts[a], pts[b], pts[c], p)
                    hit = det > incircle_bound or not det < -incircle_bound and (
                        _incircle(pts[a], pts[b], pts[c], p, incircle_bound) > 0
                    )
                else:
                    det = _orient_det(pts[a], pts[b], p)
                    if det > orient_bound:
                        hit = True
                    elif det < -orient_bound:
                        hit = False
                    else:
                        side = _orient(pts[a], pts[b], p, orient_bound)
                        hit = side > 0 or side == 0 and _on_segment(*pts[a], *pts[b], *p)
                if hit:
                    cavity.add(nb)
                    stack.append(nb)
                else:
                    boundary.append((back[1], back[0]))
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
    return live


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
    return sorted(tuple(sorted(t)) for t in _live_triangles(points) if t[2] != _INFINITE)


def delaunay_triangulate(points: Iterable) -> list[tuple[int, int]]:
    """Edge set of the Delaunay triangulation, as sorted (i, j) pairs."""
    # each finite edge is directed one way in one live triangle and the
    # other way in the triangle across it: read it where it runs upward
    return sorted([
        (u, v)
        for a, b, c in _live_triangles(points)
        for u, v in ((a, b), (b, c), (c, a))
        if _INFINITE < u < v
    ])


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


def _spans(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the edges, (i, j) pairs, connect all n vertices; never for n = 0."""
    uf = _UnionFind(n)
    return sum(uf.union(i, j) for i, j in edges) == n - 1


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


def _group_edges(pts: list, config: GraphConfig):
    """(edges, weights) of the graph over one group's centroids pts: sorted
    (i, j) pairs, and their weights in that order, or None for binary ones.

    The edges connect the group, and every weight but a gaussian one is
    positive; gaussian weights that underflow to 0 and so cut the graph
    raise DisconnectedInput."""
    try:
        edges = delaunay_triangulate(pts)
    except CollinearInput:
        edges = _principal_axis_path(pts)
    if config.structure == "dt" and config.weighting == "binary":
        return edges, None
    dist = [math.hypot(pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]) for i, j in edges]
    if config.weighting == "gaussian":
        sigma = sum(dist) / len(dist)  # over the DT edges, also for the MST
    if config.structure == "mst":
        length = dict(zip(edges, dist))
        edges = minimum_spanning_tree(len(pts), [(i, j, d) for (i, j), d in zip(edges, dist)])
        dist = [length[e] for e in edges]
    if config.weighting == "binary":
        return edges, None
    if config.weighting == "invdist":
        return edges, [1.0 / d for d in dist]
    w = [math.exp(-(d * d) / (2.0 * sigma * sigma)) for d in dist]
    if 0.0 in w and not _spans(len(pts), [e for e, x in zip(edges, w) if x]):
        raise DisconnectedInput("graph is not connected")
    return edges, w


def _size_stacks(sizes: Sequence[int]):
    """Positions of the items of each size n >= 1, in order of first appearance,
    cut into stacks of at most `_STACK_ENTRIES` entries of n x n matrices (an
    item larger than that is a stack of its own): graph_stacks' rule and nn's."""
    by_size: dict[int, list[int]] = {}
    for i, n in enumerate(sizes):
        by_size.setdefault(n, []).append(i)
    for n, same in by_size.items():
        step = max(1, _STACK_ENTRIES // (n * n))
        for s in range(0, len(same), step):
            yield same[s : s + step]


def graph_stacks(groups: Sequence[Sequence[Polygon]], config: GraphConfig | None = None):
    """The graphs of groups of footprints, as `build_spatial_graph` makes
    them, in stacks of groups with equal vertex count n: per stack, the
    tuple (index, W, F) of the groups' indices (G,), weights (G, n, n) and
    features (G, n, 5).

    A generator: the edges are found group by group before the first stack
    is made, and the first group in order whose graph cannot be made raises
    its GraphError, with the group's index as the error's `group`.  Each
    stack's weights, of at most `_STACK_ENTRIES` entries, are made as it is
    read.
    """
    if config is None:
        config = GraphConfig()
    M = _measures([p for group in groups for p in group])
    features = _features(M)
    found, start = {}, 0  # group index: (first row in M, edges, weights)
    for i, group in enumerate(groups):
        n = len(group)
        try:
            edges, w = _group_edges(M[start : start + n, :2].tolist(), config)
        except GraphError as exc:
            exc.group = i
            raise
        found[i] = start, np.array(edges, dtype=np.intp), None if w is None else np.array(w)
        start += n
    del M

    for members in _size_stacks([len(group) for group in groups]):
        n = len(groups[members[0]])
        starts, edges, weights = zip(*[found.pop(i) for i in members])
        rows = np.array(starts)[:, None] + np.arange(n)
        E = np.concatenate(edges)
        graph = np.repeat(np.arange(len(members)), [len(e) for e in edges])
        w = 1.0 if config.weighting == "binary" else np.concatenate(weights)
        W = np.zeros((len(members), n, n))
        W[graph, E[:, 0], E[:, 1]] = w
        W[graph, E[:, 1], E[:, 0]] = w
        yield np.array(members), W, features[rows]


def build_spatial_graph(group: Sequence[Polygon], config: GraphConfig | None = None) -> SpatialGraph:
    """Graph over centroids of a building group.

    Structure is the Delaunay triangulation or its MST (tree distances are
    centroid Euclidean distances).  Collinear centroids fall back to a path
    graph ordered along the principal axis.  Features are the raw per-building
    shape indices; standardization is a training-pipeline concern.
    """
    group = list(group)
    ((_, W, F),) = graph_stacks([group], config)
    positions = [polygon_centroid(p) for p in group]
    return SpatialGraph(weights=W[0], features=F[0], positions=positions)


# ---------------------------------------------------------------------------
# Laplacians


def matrix_of(L) -> np.ndarray:
    """The array of a LaplacianMatrix, or any other matrix as a float array."""
    return L.values if isinstance(L, LaplacianMatrix) else np.asarray(L, dtype=float)


def _gershgorin(A: np.ndarray) -> np.ndarray:
    """Per matrix of A (..., n, n): max over rows of diag + off-diagonal
    absolute sum."""
    d = np.diagonal(A, axis1=-2, axis2=-1)
    return np.max(d + (np.sum(np.abs(A), axis=-1) - np.abs(d)), axis=-1)


def laplacian(g, kind: str = "sym", scaled: bool = True) -> LaplacianMatrix:
    """Graph Laplacian of a SpatialGraph, a raw weights matrix, or each
    matrix of a (G, n, n) stack of them.

    comb: D - W.  sym: I - D^-1/2 W D^-1/2.  With scaled=True the matrix is
    mapped to 2 L / lambda_up - I with lambda_up the Gershgorin upper bound,
    which keeps the spectrum inside [-1, 1] without an eigensolve.  A stack
    gives a stack, each matrix equal bit for bit to its own Laplacian.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"kind must be one of {LAPLACIAN_KINDS}, got {kind!r}")
    W = g.weights if isinstance(g, SpatialGraph) else np.asarray(g, dtype=float)
    n = W.shape[-1]
    eye = np.eye(n)
    deg = W.sum(axis=-1)
    if kind == "comb":
        L = np.zeros(W.shape)
        L[..., range(n), range(n)] = deg
        L -= W
    else:
        if np.any(deg <= 0):
            where = np.argwhere(deg <= 0)[0]  # the first graph with one
            rows = deg[tuple(where[:-1])]
            graph = f"graph {int(where[0])}: " if deg.ndim > 1 else ""
            raise IsolatedVertex(f"{graph}vertex {int(np.argmin(rows))} has zero degree")
        inv_sqrt = 1.0 / np.sqrt(deg)
        L = eye - (inv_sqrt[..., :, None] * W * inv_sqrt[..., None, :])
    L = (L + np.swapaxes(L, -1, -2)) / 2.0  # kill rounding asymmetry
    if scaled:
        lam_up = _gershgorin(L)[..., None, None]
        flat = lam_up <= 0  # zero matrix: spectrum is {0}, center it
        L = np.where(flat, -eye, (2.0 / np.where(flat, 1.0, lam_up)) * L - eye)
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
