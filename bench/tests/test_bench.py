"""The benchmark's own checks reject corrupted results, and tracing leaves
the program's outputs unchanged."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("scipy")

BENCH = Path(__file__).resolve().parents[1]
for _path in (BENCH, BENCH.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
import worker  # noqa: E402
from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, TrainWorkload, make_inputs  # noqa: E402

from spectral_pattern import cli, graph, nn  # noqa: E402


@pytest.fixture
def points():
    return np.random.default_rng(7).uniform(0.0, 100.0, size=(25, 2))


def test_delaunay_check_rejects_a_dropped_edge(points):
    edges = graph.delaunay_triangulate([tuple(p) for p in points])
    assert checks.check_delaunay("g", points, edges) == []
    assert checks.check_delaunay("g", points, edges[1:])


def test_laplacian_check_rejects_asymmetry_and_a_wide_spectrum(points):
    W = np.zeros((len(points), len(points)))
    for i, j in graph.delaunay_triangulate([tuple(p) for p in points]):
        W[i, j] = W[j, i] = 1.0
    L = graph.laplacian(W, kind="sym", scaled=True).values
    assert checks.check_laplacian("g", L) == []
    skewed = L.copy()
    skewed[0, 1] += 1e-3
    assert checks.check_laplacian("g", skewed)
    assert checks.check_laplacian("g", 1.5 * L)
    assert checks.edges_of(L) == {(min(i, j), max(i, j)) for i, j in zip(*np.nonzero(W))}


def test_reference_forward_matches_and_rejects_a_perturbed_probability(tmp_path, points):
    W = np.zeros((len(points), len(points)))
    for i, j in graph.delaunay_triangulate([tuple(p) for p in points]):
        W[i, j] = W[j, i] = 1.0
    L = graph.laplacian(W).values
    X = np.random.default_rng(3).standard_normal((len(points), 5))
    model = nn.build_model(feature_dim=5, conv_channels=(6, 6), order=3, seed=1)
    nn.save_checkpoint(tmp_path / "m.json", model)
    weights = json.loads((tmp_path / "m.json").read_text())["payload"]["model"]

    have = model.forward(L, X)
    want = checks.reference_probabilities(weights, L, X)
    assert checks.check_probabilities("g", want, have) == []
    assert checks.check_probabilities("g", want, have + np.array([1e-6, -1e-6]))


def _lines(rows):
    return [
        json.dumps({"id": gid, "probabilities": {"regular": p, "irregular": 1.0 - p}, "prediction": pred})
        for gid, p, pred in rows
    ]


def test_prediction_check_rejects_reordered_perturbed_or_missing_lines():
    labels = ["regular", "irregular"]
    ids = ["a", "b", "c"]
    rows = [("a", 0.9, "regular"), ("b", 0.2, "irregular"), ("c", 0.6, "regular")]
    problems, probs = checks.check_prediction_lines(_lines(rows), ids, labels)
    assert problems == [] and len(probs) == 3

    assert checks.check_prediction_lines(_lines(rows[::-1]), ids, labels)[0]
    assert checks.check_prediction_lines(_lines(rows[:2]), ids, labels)[0]
    assert checks.check_prediction_lines(_lines(rows[:2] + [("c", 0.6, "irregular")]), ids, labels)[0]
    bad = _lines(rows)
    bad[1] = bad[1].replace('"irregular": 0.8', '"irregular": 0.8000001')
    assert checks.check_prediction_lines(bad, ids, labels)[0]


def test_prediction_check_reports_unreadable_lines_instead_of_raising():
    labels = ["regular", "irregular"]
    ids = ["a", "b", "c"]
    good = _lines([("a", 0.9, "regular"), ("b", 0.2, "irregular"), ("c", 0.6, "regular")])
    for broken in (
        good[1][: len(good[1]) // 2],  # truncated
        "not json",
        "[1, 2]",
        json.dumps({"id": "b", "probabilities": {"regular": 0.2}, "prediction": "regular"}),
        json.dumps({"id": "b", "probabilities": {"regular": "x", "irregular": 0.8}}),
    ):
        problems, probs = checks.check_prediction_lines([good[0], broken, good[2]], ids, labels)
        assert len(problems) == 1 and problems[0].startswith("line 2: unreadable"), broken
        assert len(probs) == 2


def test_accuracy_and_log_loss():
    acc, loss = checks.accuracy_and_log_loss([[0.9, 0.1], [0.4, 0.6]], [0, 0])
    assert acc == 0.5
    assert loss == pytest.approx(-(np.log(0.9) + np.log(0.4)) / 2)


TINY = {
    "train": dict(groups=20, sizes=(5, 9), models=1, min_passes=1, setup_reps=1, epochs=1),
    "predict": dict(groups=10, sizes=(5, 9), min_passes=1, setup_reps=1, checkpoint_groups=20, checkpoint_epochs=1),
}


def _tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_program_outputs_unchanged(tmp_path, name):
    w = _tiny(name)
    make_inputs(w, 5, tmp_path)
    plain = worker.run(w, tmp_path, 0.0, traced=False)
    traced = worker.run(w, tmp_path, 0.0, traced=True)

    assert plain["digests"] and traced["digests"] == plain["digests"]
    assert plain["failed"] == traced["failed"] == 0
    assert set(traced["per_layer"]) == {metric for metric, _, _ in PER_LAYER}
    layers = traced["per_layer"]
    if isinstance(w, TrainWorkload):
        n_train = plain["attempted"] // w.epochs
        assert layers["nn.epochs"] == w.epochs
        assert layers["nn.train_forward_calls"] == n_train * w.epochs
        assert layers["nn.backward_calls"] == n_train * w.epochs
    else:
        assert layers["nn.predict_forward_s"] > 0 and layers["nn.train_forward_calls"] == 0
    assert layers["graph.delaunay_points"] > 0


def test_a_pass_that_raises_is_counted_failed_and_the_run_completes(tmp_path, monkeypatch):
    w = dataclasses.replace(_tiny("predict"), min_passes=2)
    make_inputs(w, 5, tmp_path)

    def crash(argv=None):
        raise KeyError("standardizer")

    monkeypatch.setattr(cli, "main", crash)
    result = worker.run(w, tmp_path, 0.0, traced=False)
    assert result["passes"] == 2 and result["failed"] == result["attempted"] == 2 * w.groups
    assert result["pass_errors"] == ["pass 1: KeyError: 'standardizer'", "pass 2: KeyError: 'standardizer'"]
    assert "no predict pass succeeded" in result["problems"]
