"""Correctness checks made apart from the program, with numpy and scipy.

Each check returns a list of problems (empty when the result is right),
so a run can report every problem it found rather than the first one.
"""

from __future__ import annotations

import json

import numpy as np

PROB_TOL = 1e-9
EIG_TOL = 1e-9


def ring_centroid(ring) -> tuple[float, float]:
    """Area centroid of a simple ring (shoelace), either orientation."""
    pts = np.asarray(ring, dtype=float)
    if np.array_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    a2 = w.sum()
    return float(((x + xn) * w).sum() / (3.0 * a2)), float(((y + yn) * w).sum() / (3.0 * a2))


def group_centroids(record: dict) -> np.ndarray:
    return np.array([ring_centroid(b["ring"]) for b in record["buildings"]])


def edges_of(L) -> set[tuple[int, int]]:
    """Edges (i < j) of the graph behind a Laplacian: its nonzero off-diagonal."""
    ii, jj = np.nonzero(np.triu(np.asarray(L) != 0.0, k=1))
    return {(int(i), int(j)) for i, j in zip(ii, jj)}


def scipy_delaunay_edges(points) -> set[tuple[int, int]]:
    from scipy.spatial import Delaunay

    edges = set()
    for a, b, c in Delaunay(np.asarray(points, dtype=float)).simplices:
        for i, j in ((a, b), (b, c), (a, c)):
            edges.add((int(min(i, j)), int(max(i, j))))
    return edges


def check_delaunay(group_id: str, points, edges) -> list[str]:
    want = scipy_delaunay_edges(points)
    have = {(min(i, j), max(i, j)) for i, j in edges}
    if have == want:
        return []
    return [
        f"{group_id}: Delaunay edges differ from scipy "
        f"(missing {sorted(want - have)[:5]}, extra {sorted(have - want)[:5]})"
    ]


def check_laplacian(group_id: str, L) -> list[str]:
    """A scaled symmetric Laplacian: symmetric, spectrum in [-1, 1] and
    reaching -1 (its unscaled spectrum starts at 0 on a connected graph)."""
    L = np.asarray(L, dtype=float)
    if not np.array_equal(L, L.T):
        return [f"{group_id}: Laplacian is not symmetric"]
    lam = np.linalg.eigvalsh(L)
    problems = []
    if lam[0] < -1.0 - EIG_TOL or lam[-1] > 1.0 + EIG_TOL:
        problems.append(f"{group_id}: spectrum [{lam[0]!r}, {lam[-1]!r}] leaves [-1, 1]")
    if abs(lam[0] + 1.0) > EIG_TOL:
        problems.append(f"{group_id}: smallest eigenvalue {lam[0]!r}, want -1")
    return problems


def reference_probabilities(model: dict, L, X) -> np.ndarray:
    """The network's forward pass from checkpoint weights (the JSON
    `payload.model` object), with each L^k formed explicitly."""
    L = np.asarray(L, dtype=float)
    act = np.asarray(X, dtype=float)
    for layer in model["conv_layers"]:
        theta = np.asarray(layer["theta"], dtype=float)
        Z = np.asarray(layer["bias"], dtype=float) + sum(
            np.linalg.matrix_power(L, k) @ act @ theta[k] for k in range(theta.shape[0])
        )
        act = np.maximum(Z, 0.0)
    pooled = act.mean(axis=0) if model["pool"] == "mean" else act.max(axis=0)
    logits = pooled @ np.asarray(model["dense"]["weights"]) + np.asarray(model["dense"]["bias"])
    e = np.exp(logits - logits.max())
    return e / e.sum()


def check_probabilities(group_id: str, want, have, tol: float = PROB_TOL) -> list[str]:
    diff = float(np.max(np.abs(np.asarray(want) - np.asarray(have))))
    if not diff <= tol:
        return [f"{group_id}: probabilities differ from the reference by {diff:.3g}"]
    return []


def check_prediction_lines(lines: list[str], ids: list[str], labels: list[str]) -> tuple[list[str], list]:
    """`predict` output: one JSON line per input group, in input order,
    probabilities over `labels` summing to 1 and a prediction that is
    their argmax.  Returns (problems, probability vectors)."""
    problems = []
    if len(lines) != len(ids):
        problems.append(f"{len(lines)} output lines for {len(ids)} input groups")
    probs = []
    for k, (line, gid) in enumerate(zip(lines, ids)):
        try:
            obj = json.loads(line)
            got = obj.get("id")
            p = np.array([float(obj["probabilities"][lab]) for lab in labels])
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            problems.append(f"line {k + 1}: unreadable ({type(exc).__name__}: {exc})")
            continue
        if got != gid:
            problems.append(f"line {k + 1}: id {got!r}, input has {gid!r}")
            continue
        if abs(p.sum() - 1.0) > PROB_TOL:
            problems.append(f"{gid}: probabilities sum to {p.sum()!r}")
        if obj.get("prediction") != labels[int(np.argmax(p))]:
            problems.append(f"{gid}: prediction {obj.get('prediction')!r} is not the argmax")
        probs.append(p)
    return problems, probs


def accuracy_and_log_loss(probs, label_indices) -> tuple[float, float]:
    """Share of argmax hits and mean cross-entropy (no L2 term)."""
    P = np.asarray(probs, dtype=float)
    y = np.asarray(label_indices, dtype=int)
    picked = np.maximum(P[np.arange(len(y)), y], np.finfo(float).tiny)
    return float(np.mean(P.argmax(axis=1) == y)), float(-np.mean(np.log(picked)))
