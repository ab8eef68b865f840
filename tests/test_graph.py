import hashlib
import itertools
import math
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
from spectral_pattern.geometry import (
    Point2,
    Polygon,
    convex_hull,
    extract_features,
    polygon_centroid,
)
from spectral_pattern.graph import (
    EigenSystem,
    GraphConfig,
    LaplacianMatrix,
    SpatialGraph,
    _circum_margin,
    _inside,
    _triangle_record,
    build_spatial_graph,
    delaunay_triangles,
    delaunay_triangulate,
    eigendecompose,
    lambda_upper_bound,
    laplacian,
    minimum_spanning_tree,
)

from conftest import random_connected_graph


def circumcircle(a, b, c):
    """Independent circumcenter via the perpendicular-bisector linear system."""
    ax, ay = a
    bx, by = b
    cx, cy = c
    A = np.array([[bx - ax, by - ay], [cx - ax, cy - ay]])
    rhs = 0.5 * np.array(
        [bx * bx - ax * ax + by * by - ay * ay, cx * cx - ax * ax + cy * cy - ay * ay]
    )
    center = np.linalg.solve(A, rhs)
    r = math.hypot(center[0] - ax, center[1] - ay)
    return center, r


def hull_boundary_count(pts):
    """Points on the convex hull's boundary, collinear ones included; exact
    rational arithmetic, so grid points on a hull edge all count."""
    hull = convex_hull([Point2(*p) for p in pts])
    count = 0
    for x, y in pts:
        for (ox, oy), (ax, ay) in zip(hull, hull[1:] + hull[:1]):
            cross = Fraction(ax - ox) * Fraction(y - oy) - Fraction(ay - oy) * Fraction(x - ox)
            if cross == 0 and min(ox, ax) <= x <= max(ox, ax) and min(oy, ay) <= y <= max(oy, ay):
                count += 1
                break
    return count


# integer offsets keep exact grids exact
OFFSETS = (0.0, 1e6, 4_321_987.0, 1e7)


def delaunay_point_sets(rng):
    """(family, points) over uniform sets, jittered and exact grids (exact
    ones co-circular, inserted row by row and in shuffled order) and
    near-collinear sets, each at survey-scale offsets of 0 and 1e6-1e7 m."""
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
        n = int(rng.integers(4, 31))
        ang = rng.uniform(0.0, math.pi)
        along = np.sort(rng.uniform(0.0, 200.0, size=n))
        across = rng.uniform(-0.01, 0.01, size=n)
        yield "near-collinear", [
            (ox + a * math.cos(ang) - b * math.sin(ang), oy + a * math.sin(ang) + b * math.cos(ang))
            for a, b in zip(along, across)
        ]


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

    def test_collinear_points(self):
        with pytest.raises(CollinearInput):
            delaunay_triangulate([(0, 0), (1, 1), (2, 2), (3, 3)])

    def test_too_few(self):
        with pytest.raises(ValueError):
            delaunay_triangulate([(0, 0), (1, 0)])

    def test_empty_circumcircle_property(self, rng):
        # brute-force oracle: no point strictly inside any triangle's circumcircle
        sets = [("uniform", [tuple(p) for p in rng.random((int(rng.integers(4, 51)), 2)) * 100.0])
                for _ in range(20)]
        for family, pts in sets + list(delaunay_point_sets(rng)):
            tris = delaunay_triangles(pts)
            assert tris, family
            # the oracle runs on coordinates relative to the first point, so
            # a 1e7 m offset does not swamp the circumcenter solve
            local = [(x - pts[0][0], y - pts[0][1]) for x, y in pts]
            for t in tris:
                center, r = circumcircle(*[local[i] for i in t])
                for k in range(len(pts)):
                    if k in t:
                        continue
                    d = math.hypot(local[k][0] - center[0], local[k][1] - center[1])
                    assert d >= r * (1.0 - 1e-9), (family, pts[0], t, k)

    def test_euler_edge_count(self, rng):
        # a triangulation of n points with k of them on the hull boundary
        # has 3n - 3 - k edges and 2n - 2 - k triangles
        sets = [("uniform", [tuple(p) for p in rng.random((int(rng.integers(5, 41)), 2)) * 50.0])
                for _ in range(10)]
        for family, pts in sets + list(delaunay_point_sets(rng)):
            n, k = len(pts), hull_boundary_count(pts)
            assert len(delaunay_triangulate(pts)) == 3 * n - 3 - k, (family, pts[0])
            assert len(delaunay_triangles(pts)) == 2 * n - 2 - k, (family, pts[0])

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
                feat_hash.update(repr(extract_features(p).as_tuple()).encode())
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
def incircle_cases(draw):
    """Three real vertices, three far (super) vertices and a query point.

    Shapes: points on and near one circle, slivers with the query near their
    long edge, and small integer lattices (exactly co-circular and collinear
    cases)."""
    shape = draw(st.sampled_from(["circle", "sliver", "lattice"]))
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
    else:
        pitch = draw(st.sampled_from([1.0, 2.5, 10.0]))
        cells = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
        local = [(pitch * i, pitch * j) for i, j in draw(st.lists(cells, min_size=4, max_size=4))]
    ox, oy = draw(_COORD_OFFSET), draw(_COORD_OFFSET)
    pts = [(ox + x, oy + y) for x, y in local]
    p = pts.pop()
    assume(all(math.hypot(p[0] - x, p[1] - y) >= 1e-9 for x, y in pts))
    far = 1e4 * max(500.0, *(abs(v - w) for q in pts for v, w in zip(q, (ox, oy))))
    supers = [
        (ox, oy + far),
        (ox - far * math.sqrt(3.0) / 2.0, oy - far / 2.0),
        (ox + far * math.sqrt(3.0) / 2.0, oy - far / 2.0),
    ]
    return pts + supers, p


class TestInCircleRecords:
    @settings(max_examples=400, deadline=None)
    @given(incircle_cases())
    def test_inside_matches_margin_for_every_record_kind(self, case):
        # indices 0-2 are real, 3-5 far: the 20 sorted triples cover three
        # real vertices (kind 0), one far (1), two far (2) and three far (3)
        pts, p = case
        for tri in itertools.combinations(range(6), 3):
            rec = _triangle_record(pts, 3, tri)
            assert _inside(rec, *p) == (_circum_margin(pts, 3, tri, p) > 0.0), (tri, rec)

    def test_record_kinds(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (0.0, 1e4), (-1e4, -1e4), (1e4, -1e4)]
        kinds = [_triangle_record(pts, 3, t)[0] for t in [(0, 1, 2), (0, 1, 3), (0, 3, 4), (3, 4, 5)]]
        assert kinds == [0, 1, 2, 3]


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
        edges = g.edge_list()
        assert len(edges) == 5
        assert all(w == 1.0 for _, _, w in edges)
        assert g.features.shape == (4, 5)

    def test_mst_binary(self):
        cfg = GraphConfig(structure="mst")
        g = build_spatial_graph(squares_at(self.CORNERS), cfg)
        edges = [(i, j) for i, j, _ in g.edge_list()]
        assert len(edges) == 3  # spanning tree over 4 vertices
        # the long diagonal never enters the tree
        assert (0, 2) not in edges and (1, 3) not in edges
        g2 = build_spatial_graph(squares_at(self.CORNERS), cfg)
        assert [(i, j) for i, j, _ in g2.edge_list()] == edges

    def test_invdist_weights(self):
        g = build_spatial_graph(
            squares_at(self.CORNERS), GraphConfig(weighting="invdist")
        )
        for i, j, w in g.edge_list():
            d = math.hypot(
                g.positions[i].x - g.positions[j].x, g.positions[i].y - g.positions[j].y
            )
            assert w == pytest.approx(1.0 / d)

    def test_gaussian_weights_bounded(self):
        g = build_spatial_graph(
            squares_at(self.CORNERS), GraphConfig(weighting="gaussian")
        )
        for _, _, w in g.edge_list():
            assert 0.0 < w <= 1.0

    def test_collinear_fallback_path(self):
        g = build_spatial_graph(squares_at([(0, 0), (3, 3), (6, 6), (9, 9), (12, 12)]))
        edges = [(i, j) for i, j, _ in g.edge_list()]
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


class TestSpatialGraphInvariants:
    def feat(self, n):
        return np.ones((n, 2))

    def pos(self, n):
        return tuple(Point2(i, 0) for i in range(n))

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


P2 = np.array([[0.0, 1.0], [1.0, 0.0]])
P3 = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


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


class TestLambdaUpperBound:
    def test_upper_bound_dominates(self, rng):
        for kind in ("comb", "sym"):
            W = random_connected_graph(rng, 14)
            L = laplacian(W, kind=kind, scaled=False)
            bound = lambda_upper_bound(L)
            true = eigendecompose(L).eigenvalues[-1]
            assert bound >= true - 1e-12

