import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_pattern.errors import (
    CollinearInput,
    DisconnectedInput,
    DuplicatePoints,
    IsolatedVertex,
)
from spectral_pattern.data import generate_synthetic_dataset
from spectral_pattern import graph
from spectral_pattern.geometry import (
    Point2,
    Polygon,
    _all_collinear,
    _on_segment,
    extract_features,
    polygon_centroid,
)
from spectral_pattern.graph import (
    _INFINITE,
    LAPLACIAN_KINDS,
    EigenSystem,
    GraphConfig,
    LaplacianMatrix,
    SpatialGraph,
    _check_distinct,
    _edge_table,
    _incircle,
    _orient,
    _predicate_bounds,
    build_spatial_graph,
    delaunay_triangles,
    delaunay_triangulate,
    eigendecompose,
    laplacian,
    minimum_spanning_tree,
)

from conftest import random_connected_graph


def exact_orient(a, b, p):
    """Sign of the turn a -> b -> p in plain Fraction arithmetic."""
    (ax, ay), (bx, by), (px, py) = [(Fraction(x), Fraction(y)) for x, y in (a, b, p)]
    det = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return (det > 0) - (det < 0)


def exact_incircle(a, b, c, p):
    """Sign of p against the circle through the counter-clockwise triangle
    abc (1 inside), in plain Fraction arithmetic: the lifted 3x3 determinant
    of a, b and c relative to p."""
    rows = [(Fraction(x) - Fraction(p[0]), Fraction(y) - Fraction(p[1])) for x, y in (a, b, c)]
    m = [(x, y, x * x + y * y) for x, y in rows]
    det = sum(
        m[0][i] * m[1][j] * m[2][k] * s
        for (i, j, k), s in [
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
        ]
    )
    return (det > 0) - (det < 0)


def scan_delaunay_triangles(points):
    """Reference Bowyer-Watson that tests every live triangle against each
    new point: the loop `delaunay_triangles` ran before it walked to the
    point and flooded its cavity.  Same start, same order, same predicates."""
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    _check_distinct(pts)
    assert not _all_collinear(pts)
    orient_bound, incircle_bound = _predicate_bounds(pts)
    for k in range(2, n):
        side = _orient(pts[0], pts[1], pts[k], orient_bound)
        if side:
            break
    a, b = (1, k) if side > 0 else (k, 1)
    live = [(0, a, b), (a, 0, _INFINITE), (b, a, _INFINITE), (0, b, _INFINITE)]
    for idx in [i for i in range(2, n) if i != k]:
        p = pts[idx]
        bad, kept = [], []
        for t in live:
            u, v, w = t
            if w != _INFINITE:
                hit = _incircle(pts[u], pts[v], pts[w], p, incircle_bound) > 0
            else:
                side = _orient(pts[u], pts[v], p, orient_bound)
                hit = side > 0 or side == 0 and _on_segment(*pts[u], *pts[v], *p)
            (bad if hit else kept).append(t)
        edges = {e for u, v, w in bad for e in ((u, v), (v, w), (w, u))}
        live = kept
        for u, v in edges:
            if (v, u) in edges:
                continue
            if u == _INFINITE:
                live.append((v, idx, _INFINITE))
            elif v == _INFINITE:
                live.append((idx, u, _INFINITE))
            else:
                live.append((u, v, idx))
    return sorted(tuple(sorted(t)) for t in live if t[2] != _INFINITE)


@pytest.fixture(scope="module")
def wide_corpus():
    """Centroids of 200 groups of 3-128 buildings: the widest spread of
    group sizes the generator makes."""
    ds = generate_synthetic_dataset(200, (3, 128), seed=977)
    return [[tuple(polygon_centroid(p)) for p in g.buildings] for g in ds.groups]


def hull_boundary_count(pts):
    """Points on the convex hull's boundary, collinear ones included; exact
    rational arithmetic throughout, so grid points on a hull edge all count
    and near-collinear hull vertices are not lost."""
    ordered = sorted(set(pts))

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and exact_orient(out[-2], out[-1], q) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    hull = chain(ordered) + chain(reversed(ordered))
    count = 0
    for x, y in pts:
        for (ox, oy), (ax, ay) in zip(hull, hull[1:] + hull[:1]):
            if exact_orient((ox, oy), (ax, ay), (x, y)) == 0 and (
                min(ox, ax) <= x <= max(ox, ax) and min(oy, ay) <= y <= max(oy, ay)
            ):
                count += 1
                break
    return count


# integer offsets keep exact grids exact
OFFSETS = (0.0, 1e6, 4_321_987.0, 1e7)


def delaunay_point_sets(rng):
    """(family, points) over uniform sets, jittered and exact grids (exact
    ones co-circular, inserted row by row and in shuffled order), the 32
    lattice points on one circle in shuffled order, and near-collinear
    sets, each at survey-scale offsets of 0 and 1e6-1e7 m;
    then near grids: 10 m grids at 1e6-1e7 m offsets, each coordinate moved
    by a few ulps, shuffled (their in-circle decisions are all close calls)."""
    for off in OFFSETS:
        ox, oy = off, off / 2.0
        n = int(rng.integers(4, 41))
        yield "uniform", [(ox + x, oy + y) for x, y in rng.random((n, 2)) * 100.0]
        rows, cols = (int(v) for v in rng.integers(2, 8, size=2))
        pitch = float(rng.choice([1.0, 2.5, 10.0]))
        grid = [(ox + pitch * i, oy + pitch * j) for i in range(rows) for j in range(cols)]
        yield "exact grid", grid
        # later points land exactly on hull edges between earlier ones
        yield "shuffled exact grid", [grid[int(k)] for k in rng.permutation(len(grid))]
        jit = rng.uniform(-0.2, 0.2, size=(rows * cols, 2)) * pitch
        yield "jittered grid", [
            (ox + pitch * i + jit[k][0], oy + pitch * j + jit[k][1])
            for k, (i, j) in enumerate(itertools.product(range(rows), range(cols)))
        ]
        circle = [(ox + x, oy + y) for x in range(-33, 34) for y in range(-33, 34)
                  if x * x + y * y == 1105]
        yield "co-circular", [circle[int(k)] for k in rng.permutation(len(circle))]
        n = int(rng.integers(4, 31))
        ang = rng.uniform(0.0, math.pi)
        along = np.sort(rng.uniform(0.0, 200.0, size=n))
        across = rng.uniform(-0.01, 0.01, size=n)
        yield "near-collinear", [
            (ox + a * math.cos(ang) - b * math.sin(ang), oy + a * math.sin(ang) + b * math.cos(ang))
            for a, b in zip(along, across)
        ]
    for off in (1e6, 5e6, 1e7):
        for jitter in (1e-9, 1e-8, 1e-7):
            for _ in range(3):
                rows, cols = (int(v) for v in rng.integers(3, 8, size=2))
                cells = [(i, j) for i in range(rows) for j in range(cols)]
                jit = rng.uniform(-jitter, jitter, size=(len(cells), 2))
                pts = [(off + 10.0 * i + dx, off / 2.0 + 10.0 * j + dy)
                       for (i, j), (dx, dy) in zip(cells, jit)]
                yield "near grid", [pts[int(k)] for k in rng.permutation(len(pts))]


def edges_of(g):
    """Edges (i, j, w) of a SpatialGraph with i < j, sorted by (i, j)."""
    ii, jj = np.nonzero(np.triu(g.weights, 1))
    return [(int(i), int(j), float(g.weights[i, j])) for i, j in zip(ii, jj)]


def squares_at(centers, side=0.2):
    h = side / 2.0
    return [
        Polygon([(x - h, y - h), (x + h, y - h), (x + h, y + h), (x - h, y + h)])
        for x, y in centers
    ]


class TestDelaunay:
    def test_triangle(self):
        edges = delaunay_triangulate([(0, 0), (1, 0), (0.4, 1)])
        assert edges == [(0, 1), (0, 2), (1, 2)]

    def test_unit_square_tie_break(self):
        # co-circular corners: insertion order keeps the lowest-index diagonal
        edges = delaunay_triangulate([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert len(edges) == 5
        assert (0, 2) in edges
        assert (1, 3) not in edges

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePoints):
            delaunay_triangulate([(0, 0), (1, 0), (1e-10, 1e-10), (0, 1)])

    def test_duplicate_points_name_the_lowest_pair(self):
        # (1, 3) and (2, 4) coincide, and the x sort meets (2, 4) first;
        # (0, 5) lie in the same x window but 1.5e-9 m apart
        pts = [(5.0, 5.0), (3.0, 3.0), (1.0, 0.0), (3.0, 3.0 + 5e-10), (1.0 + 5e-10, 0.0),
               (5.0 + 1.5e-9, 5.0), (0.0, 1.0)]
        with pytest.raises(DuplicatePoints, match="points 1 and 3 coincide"):
            delaunay_triangles(pts)

    def test_duplicate_points_match_the_pairwise_scan(self, rng):
        # few distinct x values, nudged by less and more than 1e-9 m
        for _ in range(200):
            n = int(rng.integers(3, 30))
            pts = [(float(x) + dx, float(y) + dy) for x, y, dx, dy in zip(
                rng.integers(0, 3, n), rng.integers(0, 3, n),
                rng.choice([0.0, 4e-10, -4e-10, 1.2e-9, 2e-9], n), rng.choice([0.0, 3e-10, 8e-10], n))]
            pairs = [(i, j) for i, j in itertools.combinations(range(n), 2)
                     if math.hypot(pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]) < 1e-9]
            if pairs:
                with pytest.raises(DuplicatePoints, match=f"points {pairs[0][0]} and {pairs[0][1]} "):
                    _check_distinct(pts)
            else:
                _check_distinct(pts)

    def test_collinear_points(self):
        with pytest.raises(CollinearInput):
            delaunay_triangulate([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few(self):
        with pytest.raises(ValueError):
            delaunay_triangulate([(0, 0), (1, 0)])

    def test_empty_circumcircle_property(self, rng):
        # brute-force exact oracle: no point strictly inside any triangle's
        # circumcircle, on the input coordinates and with no tolerance
        sets = [("uniform", [tuple(p) for p in rng.random((int(rng.integers(4, 51)), 2)) * 100.0])
                for _ in range(20)]
        for family, pts in sets + list(delaunay_point_sets(rng)):
            tris = delaunay_triangles(pts)
            assert tris, family
            for t in tris:
                a, b, c = (pts[i] for i in t)
                if exact_orient(a, b, c) < 0:
                    b, c = c, b
                for k in range(len(pts)):
                    if k not in t:
                        assert exact_incircle(a, b, c, pts[k]) <= 0, (family, pts[0], t, k)

    def test_exact_at_huge_coordinates(self, rng):
        # past about 1e77 m the float in-circle determinant overflows to inf
        # or NaN; the triangulation must stay the exact one, and the same as
        # for the set scaled down by an exact power of two
        for _ in range(20):
            e = float(rng.uniform(78.0, 150.0))
            n = int(rng.integers(4, 26))
            pts = [tuple(q) for q in rng.uniform(-1.0, 1.0, (n, 2)) * 10.0**e]
            tris = delaunay_triangles(pts)
            scale = 2.0 ** -math.floor(e * math.log2(10.0))
            assert tris == delaunay_triangles([(x * scale, y * scale) for x, y in pts]), e
            for t in tris:
                a, b, c = (pts[i] for i in t)
                if exact_orient(a, b, c) < 0:
                    b, c = c, b
                for k in range(len(pts)):
                    if k not in t:
                        assert exact_incircle(a, b, c, pts[k]) <= 0, (e, t, k)

    def test_euler_edge_count(self, rng):
        # a triangulation of n points with k of them on the hull boundary
        # has 3n - 3 - k edges and 2n - 2 - k triangles
        sets = [("uniform", [tuple(p) for p in rng.random((int(rng.integers(5, 41)), 2)) * 50.0])
                for _ in range(10)]
        for family, pts in sets + list(delaunay_point_sets(rng)):
            n, k = len(pts), hull_boundary_count(pts)
            assert len(delaunay_triangulate(pts)) == 3 * n - 3 - k, (family, pts[0])
            assert len(delaunay_triangles(pts)) == 2 * n - 2 - k, (family, pts[0])

    def test_walk_matches_full_scan(self, rng, wide_corpus):
        # with exact predicates the flooded cavity is the set of all
        # conflicting triangles, so the triangulations agree exactly
        families = list(delaunay_point_sets(rng)) + [("wide corpus", pts) for pts in wide_corpus]
        for family, pts in families:
            assert delaunay_triangles(pts) == scan_delaunay_triangles(pts), (family, pts[0])

    def test_edges_match_the_triangles(self, rng, wide_corpus):
        # the edges read off the live triangles are the triangles' sides
        families = list(delaunay_point_sets(rng)) + [("wide corpus", pts) for pts in wide_corpus]
        for family, pts in families:
            sides = {e for a, b, c in delaunay_triangles(pts) for e in ((a, b), (b, c), (a, c))}
            assert delaunay_triangulate(pts) == sorted(sides), (family, pts[0])

    def test_table_holds_each_live_triangle_under_its_edges(self, rng, wide_corpus):
        # the one table the triangulation keeps: every edge has its reverse,
        # and each triangle sits under exactly its three directed edges, so
        # no entry of a triangle a cavity removed is left behind
        families = list(delaunay_point_sets(rng)) + [("wide corpus", pts) for pts in wide_corpus]
        for family, pts in families:
            table = _edge_table(pts)
            assert all((v, u) in table for u, v in table), (family, pts[0])
            under = {}
            for edge, t in table.items():
                under.setdefault(t, set()).add(edge)
            for (a, b, c), edges in under.items():
                assert edges == {(a, b), (b, c), (c, a)}, (family, pts[0], (a, b, c))

    def test_incircle_calls_per_point(self, monkeypatch, wide_corpus):
        # the scan makes about 80 in-circle tests per inserted point on this
        # corpus; the walk tests only the cavity and its rim.  The flood
        # decides most tests with its own float filter; an infinite in-circle
        # bound sends every one of them through the counted `_incircle`,
        # which then decides it with the true bound.
        calls, true_bound = 0, {}
        predicate_bounds = graph._predicate_bounds

        def unbounded(pts):
            orient_bound, true_bound["incircle"] = predicate_bounds(pts)
            return orient_bound, math.inf

        def counted(a, b, c, p, bound):
            nonlocal calls
            calls += 1
            return _incircle(a, b, c, p, true_bound["incircle"])

        monkeypatch.setattr(graph, "_predicate_bounds", unbounded)
        monkeypatch.setattr(graph, "_incircle", counted)
        for pts in wide_corpus:
            delaunay_triangles(pts)
        inserted = sum(len(pts) - 3 for pts in wide_corpus)
        assert calls <= 12 * inserted, calls / inserted

    def test_exact_grid_in_shuffled_order(self):
        # some points land exactly on the open segment of a hull edge, such
        # as (0, 1) between (0, 0) and (0, 3), and must split the triangle
        # past that edge
        pts = [(float(i), float(j)) for i in range(4) for j in range(4)]
        order = [5, 0, 15, 3, 12, 9, 6, 1, 14, 2, 11, 7, 13, 4, 10, 8]
        pts = [pts[i] for i in order]
        assert len(delaunay_triangles(pts)) == 2 * 16 - 2 - hull_boundary_count(pts)

    def test_golden_output(self):
        # sha256 of the triangles and of the feature tuples (float reprs)
        # over a fixed corpus: any change to the model's inputs, down to the
        # last bit, shows here.  The features go through the platform's
        # atan2; the digests were taken on x86-64 Linux with glibc.
        ds = generate_synthetic_dataset(40, (3, 128), seed=2)
        tri_hash, feat_hash = hashlib.sha256(), hashlib.sha256()
        for g in ds.groups:
            pts = [(c.x, c.y) for c in map(polygon_centroid, g.buildings)]
            tri_hash.update(repr(delaunay_triangles(pts)).encode())
            for p in g.buildings:
                feat_hash.update(repr(tuple(extract_features(p))).encode())
        assert tri_hash.hexdigest() == (
            "f1379230c3874a2a5dfb9891868dee0ddce1644d61ac345cf815dbad9a9001eb"
        )
        assert feat_hash.hexdigest() == (
            "f2139becdb848403a77948d186b31697b13752e7c352009ad21240a8594b1ffa"
        )

    def test_accepts_point2(self):
        edges = delaunay_triangulate([Point2(0, 0), Point2(1, 0), Point2(0, 1)])
        assert len(edges) == 3
        # Point2s, tuples and numpy rows are all (x, y) pairs
        xy = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.2), (0.4, 0.3)]
        expected = delaunay_triangles(xy)
        assert delaunay_triangles([Point2(*p) for p in xy]) == expected
        assert delaunay_triangles(np.array(xy)) == expected


_COORD_OFFSET = st.sampled_from(OFFSETS) | st.floats(1e6, 1e7)
_REL_NUDGE = st.sampled_from([0.0, 1e-16, -1e-16, 1e-13, -1e-13, 1e-9, -1e-9, 1e-5, -1e-5])


@st.composite
def predicate_cases(draw):
    """Three vertices and a query point: points on and near one circle,
    slivers with the query near their long edge, points on one line (off it
    only by rounding), and small integer lattices (exactly co-circular and
    collinear cases)."""
    shape = draw(st.sampled_from(["circle", "sliver", "line", "lattice"]))
    if shape == "circle":
        r = draw(st.floats(0.5, 500.0))
        angles = draw(st.lists(st.floats(0.0, 2.0 * math.pi), min_size=4, max_size=4))
        local = [(r * math.cos(a), r * math.sin(a)) for a in angles]
        nudge = 1.0 + draw(_REL_NUDGE)
        local[3] = (local[3][0] * nudge, local[3][1] * nudge)
    elif shape == "sliver":
        length = draw(st.floats(1.0, 500.0))
        height = draw(st.floats(1e-7, 1e-2))
        t = draw(st.floats(-1.0, 2.0))
        local = [
            (0.0, 0.0),
            (length, 0.0),
            (t * length, height),
            (draw(st.floats(-length, 2.0 * length)), draw(st.floats(-2.0, 2.0)) * height),
        ]
    elif shape == "line":
        length = draw(st.floats(1.0, 500.0))
        ang = draw(st.floats(0.0, 2.0 * math.pi))
        ts = draw(st.lists(st.floats(-1.0, 2.0), min_size=4, max_size=4))
        local = [(t * length * math.cos(ang), t * length * math.sin(ang)) for t in ts]
    else:
        pitch = draw(st.sampled_from([1.0, 2.5, 10.0]))
        cells = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        local = [(pitch * i, pitch * j) for i, j in draw(st.lists(cells, min_size=4, max_size=4))]
    ox, oy = draw(_COORD_OFFSET), draw(_COORD_OFFSET)
    pts = [(ox + x, oy + y) for x, y in local]
    assume(len(set(pts)) == 4)
    return pts


class TestPredicates:
    @settings(max_examples=400, deadline=None)
    @given(predicate_cases())
    def test_match_plain_fraction_evaluation(self, pts):
        # the float filter decides most cases and Fraction the close ones;
        # either way the sign is the exact one
        orient_bound, incircle_bound = _predicate_bounds(pts)
        a, b, c, p = pts
        for u, v, w in itertools.permutations(pts, 3):
            assert _orient(u, v, w, orient_bound) == exact_orient(u, v, w), (u, v, w)
        for u, v, w in ((a, b, c), (a, c, b)):
            assert _incircle(u, v, w, p, incircle_bound) == exact_incircle(u, v, w, p), (u, v, w, p)


    def test_overflowed_determinant_does_not_decide(self):
        # at extents near 1e77 m a product of the float in-circle
        # determinant overflows, and it reads -inf with p inside the circle
        a, b, c, p = ((-3.1978055972832985e76, 7.315871516990177e75),
                      (2.401103254767681e76, -3.7505895229643954e76),
                      (-6.735321656951286e76, 8.64622889088903e76),
                      (5.6278510591571396e76, 7.702397936835904e76))
        _, incircle_bound = _predicate_bounds([a, b, c, p])
        assert exact_orient(a, b, c) == exact_incircle(a, b, c, p) == 1
        assert _incircle(a, b, c, p, incircle_bound) == 1


class TestMst:
    def test_weighted_triangle(self):
        edges = minimum_spanning_tree(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        assert edges == [(0, 1), (1, 2)]

    def test_path_is_fixed_point(self):
        path = [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0)]
        assert minimum_spanning_tree(4, path) == [(0, 1), (1, 2), (2, 3)]

    def test_tie_break_lexicographic(self):
        # equal weights: edges picked in (w, i, j) order
        edges = minimum_spanning_tree(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0), (0, 2, math.sqrt(2))]
        )
        assert edges == [(0, 1), (0, 3), (1, 2)]

    def test_disconnected(self):
        with pytest.raises(DisconnectedInput):
            minimum_spanning_tree(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_matches_exhaustive_minimum(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 8))
            all_edges = [
                (i, j, float(rng.random()) + 0.1)
                for i in range(n)
                for j in range(i + 1, n)
            ]
            got = minimum_spanning_tree(n, all_edges)
            wmap = {(i, j): w for i, j, w in all_edges}
            got_total = sum(wmap[e] for e in got)

            best = math.inf
            for combo in itertools.combinations(all_edges, n - 1):
                parent = list(range(n))

                def find(x):
                    while parent[x] != x:
                        parent[x] = parent[parent[x]]
                        x = parent[x]
                    return x

                ok = True
                for i, j, _ in combo:
                    ri, rj = find(i), find(j)
                    if ri == rj:
                        ok = False
                        break
                    parent[ri] = rj
                if ok:
                    best = min(best, sum(w for _, _, w in combo))
            assert got_total == pytest.approx(best, rel=1e-12)


class TestBuildSpatialGraph:
    CORNERS = [(0, 0), (10, 0), (10, 10), (0, 10)]

    def test_dt_binary(self):
        g = build_spatial_graph(squares_at(self.CORNERS))
        assert g.n == 4
        edges = edges_of(g)
        assert len(edges) == 5
        assert all(w == 1.0 for _, _, w in edges)
        assert g.features.shape == (4, 5)

    def test_positions_are_the_centroids(self):
        polys = squares_at(self.CORNERS)
        g = build_spatial_graph(polys)
        assert g.positions == tuple(polygon_centroid(p) for p in polys)
        assert all(type(p) is Point2 for p in g.positions)

    def test_mst_binary(self):
        cfg = GraphConfig(structure="mst")
        g = build_spatial_graph(squares_at(self.CORNERS), cfg)
        edges = [(i, j) for i, j, _ in edges_of(g)]
        assert len(edges) == 3  # spanning tree over 4 vertices
        # the long diagonal never enters the tree
        assert (0, 2) not in edges and (1, 3) not in edges
        g2 = build_spatial_graph(squares_at(self.CORNERS), cfg)
        assert [(i, j) for i, j, _ in edges_of(g2)] == edges

    def test_invdist_weights(self):
        g = build_spatial_graph(
            squares_at(self.CORNERS), GraphConfig(weighting="invdist")
        )
        for i, j, w in edges_of(g):
            d = math.hypot(
                g.positions[i].x - g.positions[j].x, g.positions[i].y - g.positions[j].y
            )
            assert w == pytest.approx(1.0 / d)

    def test_gaussian_weights_bounded(self):
        g = build_spatial_graph(
            squares_at(self.CORNERS), GraphConfig(weighting="gaussian")
        )
        for _, _, w in edges_of(g):
            assert 0.0 < w <= 1.0

    def test_collinear_fallback_path(self):
        g = build_spatial_graph(squares_at([(0, 0), (3, 3), (6, 6), (9, 9), (12, 12)]))
        edges = [(i, j) for i, j, _ in edges_of(g)]
        assert len(edges) == 4  # path over 5 vertices
        deg = np.count_nonzero(g.weights, axis=1)
        assert sorted(deg) == [1, 1, 2, 2, 2]

    def test_duplicate_centroids(self):
        with pytest.raises(DuplicatePoints):
            build_spatial_graph(squares_at([(0, 0), (0, 0), (5, 5)]))

    def test_too_few_buildings(self):
        with pytest.raises(ValueError):
            build_spatial_graph(squares_at([(0, 0), (5, 5)]))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphConfig(structure="knn")
        with pytest.raises(ValueError):
            GraphConfig(weighting="cubic")
        with pytest.raises(ValueError):
            GraphConfig(laplacian="rw")


class TestSizeStacks:
    """`_size_stacks`, the one rule that cuts the graph builder's stacks and
    the network's."""

    def test_stacks_by_size_in_order_of_first_appearance(self, monkeypatch):
        # 100 entries hold two graphs of 7, eleven of 3, one of 10; 12 is
        # oversized and makes a stack of its own
        monkeypatch.setattr(graph, "_STACK_ENTRIES", 100)
        sizes = [7, 3, 12, 7, 3, 7, 12, 3, 7, 3, 10, 7]
        assert list(graph._size_stacks(sizes)) == [
            [0, 3], [5, 8], [11], [1, 4, 7, 9], [2], [6], [10],
        ]

    @pytest.mark.parametrize("cap", [1, 50, 1 << 16])
    def test_every_position_once_and_each_stack_one_size_within_the_cap(
        self, rng, monkeypatch, cap
    ):
        monkeypatch.setattr(graph, "_STACK_ENTRIES", cap)
        sizes = rng.integers(1, 12, 200).tolist()
        stacks = list(graph._size_stacks(sizes))
        assert sorted(i for stack in stacks for i in stack) == list(range(len(sizes)))
        for stack in stacks:
            (n,) = {sizes[i] for i in stack}
            assert len(stack) == 1 or len(stack) * n * n <= cap
            assert stack == sorted(stack)
        firsts = [sizes[stack[0]] for stack in stacks]
        assert list(dict.fromkeys(firsts)) == list(dict.fromkeys(sizes))


class TestSpatialGraphInvariants:
    def feat(self, n):
        return np.ones((n, 2))

    def pos(self, n):
        return tuple(Point2(i, 0) for i in range(n))

    def test_names_the_first_invariant_it_breaks(self, rng):
        # a graph that breaks every invariant names the first; mending each
        # in turn names the next, in this order
        good = random_connected_graph(rng, 5)
        W = good.copy()
        W[0, :] = W[:, 0] = 0.0  # vertex 0 cut off
        W[1, 2] = W[2, 1] = -1.0
        W[3, 4] += 0.5
        W[4, 4] = 0.1
        F, pos = np.ones((5, 0)), self.pos(4)

        def fault(W=W):
            with pytest.raises((ValueError, DisconnectedInput)) as err:
                SpatialGraph(W, F, pos)
            return type(err.value), str(err.value)

        assert fault(W[:, :4]) == (ValueError, "weights must be square, got (5, 4)")
        assert fault() == (ValueError, "weights must be finite and nonnegative")
        W[1, 2] = W[2, 1] = 1.0
        assert fault() == (ValueError, "weights must be symmetric within 1e-12")
        W[3, 4] = W[4, 3]
        assert fault() == (ValueError, "weight diagonal must be exactly zero")
        W[4, 4] = 0.0
        assert fault() == (ValueError, "features must be (n, d>=1), got (5, 0)")
        F = np.ones((5, 2))
        F[2, 0] = np.inf
        assert fault() == (ValueError, "features must be finite")
        F[2, 0] = 1.0
        assert fault() == (ValueError, "positions length must match vertex count")
        pos = self.pos(5)
        assert fault() == (DisconnectedInput, "graph is not connected")
        W[0, :], W[:, 0] = good[0, :], good[:, 0]
        assert SpatialGraph(W, F, pos).n == 5

    def test_rejects_asymmetric(self):
        W = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            SpatialGraph(W, self.feat(2), self.pos(2))

    def test_rejects_nonzero_diagonal(self):
        W = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            SpatialGraph(W, self.feat(2), self.pos(2))

    def test_rejects_disconnected(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(DisconnectedInput):
            SpatialGraph(W, self.feat(3), self.pos(3))

    def test_rejects_negative_weight(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            SpatialGraph(W, self.feat(2), self.pos(2))

    def test_connectivity_matches_a_search_per_graph(self, rng):
        # paths in random vertex order, some cut in up to three places
        for n in (1, 2, 5, 17, 64):
            for k in range(12):
                W = np.zeros((n, n))
                order = rng.permutation(n)
                pieces = min(n, k % 4) if k % 3 else 0
                cuts = set(rng.choice(n, size=pieces, replace=False).tolist())
                for a, b in zip(order[:-1], order[1:]):
                    if a not in cuts:
                        W[a, b] = W[b, a] = 1.0
                seen, todo = {0}, [0]
                while todo:
                    for j in np.flatnonzero(W[todo.pop()]).tolist():
                        if j not in seen:
                            seen.add(j)
                            todo.append(j)
                try:
                    SpatialGraph(W, self.feat(n), self.pos(n))
                    connected = True
                except DisconnectedInput:
                    connected = False
                assert connected == (len(seen) == n), (n, k)


P2 = np.array([[0.0, 1.0], [1.0, 0.0]])
P3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


def reference_laplacian(W, kind, scaled):
    """`laplacian` as a new array at every step, with an identity matrix:
    the expressions it ran before it scaled in place."""
    n = W.shape[-1]
    eye = np.eye(n)
    deg = W.sum(axis=-1)
    if kind == "comb":
        L = np.zeros(W.shape)
        L[..., range(n), range(n)] = deg
        L -= W
    else:
        inv_sqrt = 1.0 / np.sqrt(deg)
        L = eye - (inv_sqrt[..., :, None] * W * inv_sqrt[..., None, :])
    L = (L + np.swapaxes(L, -1, -2)) / 2.0
    if scaled:
        lam_up = graph._gershgorin(L)[..., None, None]
        flat = lam_up <= 0
        L = np.where(flat, -eye, (2.0 / np.where(flat, 1.0, lam_up)) * L - eye)
    return L


def laplacian_input(name):
    """W for each shape `laplacian` takes: one matrix, a stack with a
    rescaled matrix, and the zero matrix of the scaled comb Laplacian's
    centring branch alone and within a stack."""
    rng = np.random.default_rng(7)
    if name == "one":
        return random_connected_graph(rng, 300)
    if name == "zero":
        return np.zeros((300, 300))
    W = np.stack([random_connected_graph(rng, 200) for _ in range(3)])
    W[1] *= 1e-3
    if name == "stack with zero":
        W[2] = 0.0
    return W


# (kind, input name, scaled): sym has no Laplacian of a zero matrix
LAPLACIAN_CASES = [
    (kind, name, scaled)
    for kind in LAPLACIAN_KINDS
    for name in ("one", "stack", "zero", "stack with zero")
    if kind == "comb" or "zero" not in name
    for scaled in (True, False)
]


class TestLaplacian:
    def test_two_vertex_combinatorial(self):
        L = laplacian(P2, kind="comb", scaled=False)
        assert np.array_equal(L.values, np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_path3_eigenvalues(self):
        L = laplacian(P3, kind="comb", scaled=False)
        lam = eigendecompose(L).eigenvalues
        assert lam == pytest.approx([0.0, 1.0, 3.0], abs=1e-10)

    def test_comb_row_sums_zero(self, rng):
        W = random_connected_graph(rng, 12)
        L = laplacian(W, kind="comb", scaled=False)
        assert np.allclose(L.values @ np.ones(12), 0.0, atol=1e-9)

    def test_sym_spectrum_in_0_2(self, rng):
        for _ in range(5):
            W = random_connected_graph(rng, 10)
            lam = eigendecompose(laplacian(W, kind="sym", scaled=False)).eigenvalues
            assert lam.min() >= -1e-9
            assert lam.max() <= 2.0 + 1e-9

    def test_scaled_spectrum_in_symmetric_interval(self, rng):
        for kind in ("comb", "sym"):
            for _ in range(5):
                W = random_connected_graph(rng, 9)
                lam = eigendecompose(laplacian(W, kind=kind, scaled=True)).eigenvalues
                assert lam.min() >= -1.0 - 1e-6
                assert lam.max() <= 1.0 + 1e-6

    def test_scaled_two_vertex_exact(self):
        # Gershgorin bound 2, so the scaled matrix is L - I
        L = laplacian(P2, kind="comb", scaled=True)
        assert np.allclose(L.values, np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_isolated_vertex_normalized(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(IsolatedVertex):
            laplacian(W, kind="sym", scaled=False)

    def test_psd(self, rng):
        W = random_connected_graph(rng, 15)
        lam = eigendecompose(laplacian(W, kind="comb", scaled=False)).eigenvalues
        assert lam.min() >= -1e-9
        assert abs(lam[0]) < 1e-9  # connected: lambda_1 = 0

    def test_permutation_equivariance(self, rng):
        W = random_connected_graph(rng, 8)
        perm = rng.permutation(8)
        P = np.eye(8)[perm]
        for kind in ("comb", "sym"):
            L = laplacian(W, kind=kind, scaled=True).values
            Lp = laplacian(P @ W @ P.T, kind=kind, scaled=True).values
            assert np.allclose(Lp, P @ L @ P.T, atol=1e-12)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            laplacian(P2, kind="walk")

    @pytest.mark.parametrize("n", [2, 7, 33])
    def test_stack_matches_each_matrix(self, rng, n):
        # bit for bit and with equal strides, for every kind; the zero
        # matrix takes the centring branch of the scaled comb Laplacian
        W = np.stack([random_connected_graph(rng, n) for _ in range(5)])
        W[1] *= 1e-3
        for kind in LAPLACIAN_KINDS:
            for scaled in (True, False):
                stack = laplacian(W, kind=kind, scaled=scaled).values
                assert stack.shape == W.shape
                for k in range(len(W)):
                    one = laplacian(W[k], kind=kind, scaled=scaled).values
                    assert stack[k].tobytes() == one.tobytes() and stack[k].strides == one.strides
        W[2] = 0.0
        for scaled in (True, False):
            stack = laplacian(W, kind="comb", scaled=scaled).values
            assert stack[2].tobytes() == laplacian(W[2], kind="comb", scaled=scaled).values.tobytes()

    @pytest.mark.parametrize("kind, name, scaled", LAPLACIAN_CASES)
    def test_matches_the_reference_and_leaves_its_input(self, kind, name, scaled):
        # bit for bit, signed zeros included, and W is never written
        W = laplacian_input(name)
        before = W.copy()
        L = laplacian(W, kind=kind, scaled=scaled).values
        assert L.tobytes() == reference_laplacian(W, kind, scaled).tobytes()
        assert W.tobytes() == before.tobytes()

    @pytest.mark.parametrize("kind, name, scaled", LAPLACIAN_CASES)
    def test_peaks_near_two_inputs(self, kind, name, scaled):
        # the output and one input-sized temporary; a new array at every
        # step peaked at 3.1-5 inputs for one matrix and 2.4-3.7 for a stack of 3
        W = laplacian_input(name)
        tracemalloc.start()
        try:
            laplacian(W, kind=kind, scaled=scaled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * W.nbytes

    def test_isolated_vertex_in_a_stack_names_the_graph(self, rng):
        W = np.stack([random_connected_graph(rng, 4) for _ in range(3)])
        W[2, 3, :] = W[2, :, 3] = 0.0
        with pytest.raises(IsolatedVertex, match="graph 2: vertex 3 has zero degree"):
            laplacian(W, kind="sym")


class TestEigendecompose:
    def test_two_by_two(self):
        es = eigendecompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert es.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(es.eigenvectors[:, 0], [r, r], atol=1e-12)
        assert np.allclose(es.eigenvectors[:, 1], [r, -r], atol=1e-12)

    def test_diagonal_matrix(self):
        es = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(es.eigenvalues, [1.0, 2.0, 3.0])
        expect = np.eye(3)[:, [1, 2, 0]]
        assert np.array_equal(es.eigenvectors, expect)

    def test_random_symmetric_reconstruction(self, rng):
        A = rng.standard_normal((64, 64))
        A = (A + A.T) / 2.0
        es = eigendecompose(A)
        X, lam = es.eigenvectors, es.eigenvalues
        assert np.max(np.abs(X.T @ X - np.eye(64))) < 1e-8
        assert np.max(np.abs(X @ np.diag(lam) @ X.T - A)) < 1e-8
        assert np.all(np.diff(lam) >= 0)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(lam - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_eigenvalues_permutation_invariant(self, rng):
        W = random_connected_graph(rng, 10)
        L = laplacian(W, kind="comb", scaled=False).values
        perm = rng.permutation(10)
        P = np.eye(10)[perm]
        a = eigendecompose(L).eigenvalues
        b = eigendecompose(P @ L @ P.T).eigenvalues
        assert np.allclose(a, b, atol=1e-9)

    def test_one_by_one(self):
        es = eigendecompose(np.array([[4.0]]))
        assert es.eigenvalues[0] == 4.0
        assert es.eigenvectors[0, 0] == 1.0

    def test_odd_size(self, rng):
        A = rng.standard_normal((7, 7))
        A = (A + A.T) / 2.0
        es = eigendecompose(A)
        assert np.max(np.abs(es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T - A)) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_accepts_laplacian_matrix(self):
        es = eigendecompose(laplacian(P2, kind="comb", scaled=False))
        assert es.eigenvalues == pytest.approx([0.0, 2.0], abs=1e-12)


