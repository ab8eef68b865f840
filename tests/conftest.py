"""Shared fixtures and helpers.

Thread pinning must happen before numpy is imported anywhere in the test
process, so it sits at the top of this file.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import math
from collections import deque

import numpy as np
import pytest

from spectral_pattern.data import load_dataset, save_dataset


# a clockwise near-line ring that is accepted, and that `Polygon` stores
# reversed: a collinearity test that reads the vertices in order can refuse
# the stored ring
NEAR_LINE_RING = [
    (35.256314649326825, 23.009202756371575), (23.06324346028213, 15.051682238196816),
    (7.6260603494919605, 4.976968539012335), (9.66823081473358, 6.309742958749768),
]


def regular_ngon(n, radius=1.0, cx=0.0, cy=0.0, phase=0.0):
    """Vertex list of a regular n-gon, counter-clockwise."""
    return [
        (
            cx + radius * math.cos(phase + 2.0 * math.pi * k / n),
            cy + radius * math.sin(phase + 2.0 * math.pi * k / n),
        )
        for k in range(n)
    ]


def rect_ring(cx, cy, length, width, angle_deg):
    """Rectangle corners, counter-clockwise, rotated by angle_deg."""
    a = math.radians(angle_deg)
    ca, sa = math.cos(a), math.sin(a)
    out = []
    for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
        u, v = sx * length / 2.0, sy * width / 2.0
        out.append((cx + u * ca - v * sa, cy + u * sa + v * ca))
    return out


def assert_round_trip(ds, path):
    """`load_dataset` reads back what `save_dataset` writes: ids, labels and
    every building's xy, bit for bit."""
    save_dataset(ds, path)
    back = load_dataset(path)
    assert [(g.group_id, g.label) for g in back.groups] == [
        (g.group_id, g.label) for g in ds.groups]
    for a, b in zip(ds.groups, back.groups):
        assert [p.xy.tobytes() for p in b.buildings] == [p.xy.tobytes() for p in a.buildings]


def triangle_centres(rng, k):
    """k points drawn at random inside the triangle (0, 0), (100, 0), (0, 100)."""
    out = []
    while len(out) < k:
        x, y = rng.uniform(0.0, 100.0, 2).tolist()
        if x + y <= 100.0:
            out.append((x, y))
    return out


def random_connected_graph(rng, n, extra_edge_prob=0.3):
    """Random weighted adjacency matrix, connected by construction.

    A random spanning tree is laid down first, then extra edges are
    sprinkled in with the given probability.  Weights are in (0.5, 1.5).
    """
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = order[i], order[rng.integers(0, i)]
        w = 0.5 + rng.random()
        W[a, b] = W[b, a] = w
    for i in range(n):
        for j in range(i + 1, n):
            if W[i, j] == 0 and rng.random() < extra_edge_prob:
                w = 0.5 + rng.random()
                W[i, j] = W[j, i] = w
    return W


def hop_distances(W, source):
    """BFS hop counts from source over nonzero entries; -1 if unreachable."""
    n = W.shape[0]
    dist = [-1] * n
    dist[source] = 0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in range(n):
            if W[u, v] != 0 and dist[v] < 0:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
