import itertools
import json
import math

import numpy as np
import pytest

from spectral_pattern.errors import (
    CollinearInput,
    DisconnectedInput,
    DuplicatePoints,
    IsolatedVertex,
)
from spectral_pattern.geometry import Point2, Polygon, convex_hull
from spectral_pattern.graph import (
    EigenSystem,
    GraphConfig,
    LaplacianMatrix,
    SpatialGraph,
    build_spatial_graph,
    delaunay_triangles,
    delaunay_triangulate,
    eigendecompose,
    estimate_lambda_max,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
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
        for _ in range(20):
            n = int(rng.integers(4, 51))
            pts = rng.random((n, 2)) * 100.0
            tris = delaunay_triangles([tuple(p) for p in pts])
            assert tris
            for t in tris:
                center, r = circumcircle(*[pts[i] for i in t])
                for k in range(n):
                    if k in t:
                        continue
                    d = math.hypot(pts[k][0] - center[0], pts[k][1] - center[1])
                    assert d >= r * (1.0 - 1e-9), (t, k)

    def test_euler_edge_count(self, rng):
        # for points in general position: edges = 3n - 3 - hull_size
        for _ in range(10):
            n = int(rng.integers(5, 41))
            pts = [tuple(p) for p in rng.random((n, 2)) * 50.0]
            edges = delaunay_triangulate(pts)
            h = len(convex_hull([Point2(*p) for p in pts]))
            assert len(edges) == 3 * n - 3 - h

    def test_accepts_point2(self):
        edges = delaunay_triangulate([Point2(0, 0), Point2(1, 0), Point2(0, 1)])
        assert len(edges) == 3


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


class TestLambdaMax:
    def test_two_vertex(self):
        L = laplacian(P2, kind="comb", scaled=False)
        assert estimate_lambda_max(L) == pytest.approx(2.0, rel=1e-6)

    def test_identity(self):
        assert estimate_lambda_max(np.eye(5)) == pytest.approx(1.0)

    def test_random_psd_cross_check(self, rng):
        for _ in range(5):
            B = rng.standard_normal((32, 32))
            A = B @ B.T
            est = estimate_lambda_max(A)
            true = eigendecompose(A).eigenvalues[-1]
            assert est >= 0.99 * true
            assert est <= true * (1.0 + 1e-6)

    def test_upper_bound_dominates(self, rng):
        for kind in ("comb", "sym"):
            W = random_connected_graph(rng, 14)
            L = laplacian(W, kind=kind, scaled=False)
            bound = lambda_upper_bound(L)
            true = eigendecompose(L).eigenvalues[-1]
            assert bound >= true - 1e-12


class TestExport:
    def test_json_round_trip(self):
        g = build_spatial_graph(squares_at(TestBuildSpatialGraph.CORNERS))
        text = graph_to_json(g)
        obj = json.loads(text)
        assert set(obj) == {"n", "edges", "features", "positions"}
        g2 = graph_from_json(text)
        assert g2.n == g.n
        assert np.allclose(g2.weights, g.weights)
        assert np.allclose(g2.features, g.features)
        assert all(
            (a.x, a.y) == (b.x, b.y) for a, b in zip(g2.positions, g.positions)
        )

    def test_dot_output(self):
        g = build_spatial_graph(squares_at(TestBuildSpatialGraph.CORNERS))
        dot = graph_to_dot(g)
        assert dot.startswith("graph")
        assert dot.count(" -- ") == 5
