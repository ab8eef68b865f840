import math

import numpy as np
import pytest

from spectral_pattern.errors import (
    CheckpointError,
    DimensionMismatch,
    DivergedLoss,
    EmptySplit,
    InvalidLabel,
    ShapeMismatch,
    StateError,
)
from spectral_pattern import graph
from spectral_pattern.geometry import Point2
from spectral_pattern.graph import GraphConfig, SpatialGraph, laplacian
from spectral_pattern.nn import (
    DenseLayer,
    GcnnModel,
    GraphConvLayer,
    GraphSample,
    TrainConfig,
    backward,
    build_model,
    conv_layer_forward,
    cross_entropy_loss,
    evaluate,
    load_checkpoint,
    optimizer_init,
    optimizer_step,
    predict,
    save_checkpoint,
    train,
)
import spectral_pattern.nn as nn
from spectral_pattern.nn import (
    _conv_stack,
    _inference_probs,
    _softmax,
    _split_metrics,
    _stacks,
)
from spectral_pattern.spectral import PolynomialKernel, polynomial_convolve

from conftest import random_connected_graph


def scaled_laplacian(rng, n):
    return laplacian(random_connected_graph(rng, n), kind="sym", scaled=True)


# the network's one pooling head, named in the ids of the tests that run it
HEAD = ["mean"]


def tiny_model(rng, d=3, channels=(4, 3), order=3, l2=0.0, dropout=0.0):
    return build_model(
        feature_dim=d,
        conv_channels=channels,
        order=order,
        n_classes=2,
        dropout_rate=dropout,
        l2_lambda=l2,
        seed=int(rng.integers(0, 2**31)),
    )


def make_samples(rng, count, n_range=(5, 9), d=3, separation=2.0):
    """Random labeled samples where class 1 features are shifted upward."""
    out = []
    for i in range(count):
        n = int(rng.integers(*n_range))
        L = scaled_laplacian(rng, n)
        label = i % 2
        X = rng.standard_normal((n, d)) + (separation if label else -separation)
        out.append(GraphSample(laplacian=L.values, features=X, label=label))
    return out


class TestConvLayerForward:
    def test_zero_theta_gives_relu_bias(self, rng):
        L = scaled_laplacian(rng, 6)
        layer = GraphConvLayer(theta=np.zeros((3, 2, 4)), bias=[1.0, -1.0, 0.5, 0.0])
        Y = conv_layer_forward(layer, L, rng.standard_normal((6, 2)))
        assert np.allclose(Y, np.tile([1.0, 0.0, 0.5, 0.0], (6, 1)))

    def test_identity_mode_reduces_to_polynomial_convolve(self, rng):
        L = scaled_laplacian(rng, 7)
        theta = rng.standard_normal(3)
        layer = GraphConvLayer(theta=theta.reshape(3, 1, 1), bias=[0.0])
        f = rng.standard_normal(7)
        got = conv_layer_forward(layer, L, f.reshape(-1, 1), activation="identity")
        want = polynomial_convolve(f, PolynomialKernel(theta=theta), L)
        assert np.allclose(got[:, 0], want, atol=1e-12)

    def test_paper_scale_output_shape(self, rng):
        # five shape indices in, 24 third-order kernels out
        L = scaled_laplacian(rng, 10)
        layer = GraphConvLayer(
            theta=rng.standard_normal((3, 5, 24)) * 0.1, bias=np.zeros(24)
        )
        Y = conv_layer_forward(layer, L, rng.standard_normal((10, 5)))
        assert Y.shape == (10, 24)

    def test_channel_mismatch(self, rng):
        L = scaled_laplacian(rng, 5)
        layer = GraphConvLayer(theta=np.zeros((2, 3, 2)), bias=np.zeros(2))
        with pytest.raises(DimensionMismatch):
            conv_layer_forward(layer, L, np.zeros((5, 4)))


def head(model):
    """(last activation, dropout mask or None, dense input, probabilities)
    of the last forward(..., retain=True): the tail of its tape."""
    return model._retained[2][-1]


def identity_model(c):
    """One first-order layer with theta = I and zero bias, so that the last
    activation is the ReLU of the features themselves."""
    layer = GraphConvLayer(theta=np.eye(c)[None], bias=np.zeros(c))
    dense = DenseLayer(weights=np.zeros((c, 2)), bias=np.zeros(2))
    return GcnnModel([layer], dense, dropout_rate=0.0, l2_lambda=0.0)


class TestPooling:
    """Pooling seen through the tape of a forward pass: with dropout off the
    dense input is the pooled embedding."""

    def pooled(self, model, L, X):
        model.forward(L, X, retain=True)
        act, mask, dropped, _ = head(model)
        assert mask is None
        return act, dropped

    def test_constant_rows(self):
        X = np.tile([2.0, 1.0, 0.5], (7, 1))
        act, pooled = self.pooled(identity_model(3), np.zeros((7, 7)), X)
        assert np.array_equal(act, X)
        assert np.array_equal(pooled, [2.0, 1.0, 0.5])

    def test_hand_mean(self):
        X = [[1.0, 2.0], [3.0, 4.0]]
        _, pooled = self.pooled(identity_model(2), np.zeros((2, 2)), X)
        assert np.array_equal(pooled, [2.0, 3.0])

    def test_permutation_invariant(self, rng):
        L = scaled_laplacian(rng, 9).values
        X = rng.standard_normal((9, 3))
        perm = rng.permutation(9)
        model = tiny_model(rng)
        _, pooled = self.pooled(model, L, X)
        _, permuted = self.pooled(model, L[np.ix_(perm, perm)], X[perm])
        assert np.allclose(pooled, permuted, atol=1e-12)


class TestDenseSoftmax:
    """The softmax head through forward: with zero dense weights the
    probabilities are the softmax of the dense bias."""

    def probs(self, rng, bias):
        model = tiny_model(rng, d=3)
        model.dense.weights[:] = 0.0
        model.dense.bias[:] = bias
        return model.forward(scaled_laplacian(rng, 6), rng.standard_normal((6, 3)))

    def test_symmetric_logits(self, rng):
        assert self.probs(rng, [0.0, 0.0]) == pytest.approx([0.5, 0.5])

    def test_large_logits_stable(self, rng):
        for p in (self.probs(rng, [1000.0, 0.0]), _softmax(np.array([[1000.0, 0.0]]))[0]):
            assert np.all(np.isfinite(p))
            assert p[0] == pytest.approx(1.0)
            assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_hand_softmax(self, rng):
        assert self.probs(rng, [math.log(3.0), 0.0]) == pytest.approx([0.75, 0.25])

    def test_sums_to_one(self, rng):
        for _ in range(20):
            c = int(rng.integers(2, 6))
            model = build_model(3, (4,), order=2, n_classes=c, seed=int(rng.integers(100)))
            model.dense.bias[:] = rng.standard_normal(c)
            p = model.forward(scaled_laplacian(rng, 6), rng.standard_normal((6, 3)), retain=True)
            _, _, dropped, probs = head(model)
            assert probs is p
            assert np.array_equal(p, _softmax(dropped @ model.dense.weights + model.dense.bias))
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0) and np.all(p < 1)


class TestCrossEntropy:
    def model_l2(self, rng, l2):
        return tiny_model(rng, l2=l2)

    def test_certain_correct_prediction(self, rng):
        m = self.model_l2(rng, 0.0)
        assert cross_entropy_loss([1.0, 0.0], 0, m) == 0.0

    def test_uniform_binary(self, rng):
        m = self.model_l2(rng, 0.0)
        assert cross_entropy_loss([0.5, 0.5], 1, m) == pytest.approx(math.log(2.0))

    def test_l2_penalty_added(self, rng):
        m = self.model_l2(rng, 1.0)
        data = -math.log(0.5)
        expect = data + m.penalty_weight_squares()
        assert cross_entropy_loss([0.5, 0.5], 0, m) == pytest.approx(expect)

    def test_invalid_label(self, rng):
        m = self.model_l2(rng, 0.0)
        with pytest.raises(InvalidLabel):
            cross_entropy_loss([0.5, 0.5], 2, m)


class TestDropout:
    """Inverted dropout on the pooled embedding, seen through the tape of
    the retained forward pass."""

    def forward(self, model, rng, training=True):
        L = scaled_laplacian(rng, 6)
        X = rng.standard_normal((6, model.feature_dim))
        probs = model.forward(L, X, training=training, rng=rng, retain=True)
        act, mask, dropped, _ = head(model)
        return probs, act.mean(axis=0), mask, dropped

    def dense(self, model, h):
        return _softmax(h @ model.dense.weights + model.dense.bias)

    def test_rate_zero_identity(self, rng):
        model = tiny_model(rng, dropout=0.0)
        probs, pooled, mask, dropped = self.forward(model, rng)
        assert mask is None
        assert np.array_equal(dropped, pooled)
        assert np.array_equal(probs, self.dense(model, pooled))

    def test_inference_identity(self, rng):
        model = tiny_model(rng, dropout=0.9)
        probs, pooled, mask, dropped = self.forward(model, rng, training=False)
        assert mask is None
        assert np.array_equal(dropped, pooled)
        assert np.array_equal(probs, self.dense(model, pooled))

    def test_expected_value_preserved(self):
        # kept entries are scaled by 1 / (1 - rate), so the mask averages 1
        rng = np.random.default_rng(3)
        model = tiny_model(rng, channels=(4, 16), dropout=0.5)
        masks = []
        for _ in range(2000):
            probs, pooled, mask, dropped = self.forward(model, rng)
            assert np.array_equal(dropped, pooled * mask)
            assert np.array_equal(probs, self.dense(model, dropped))
            masks.append(mask)
        masks = np.array(masks)
        assert set(np.unique(masks)) == {0.0, 2.0}
        assert abs(masks.mean() - 1.0) < 0.03


class TestBackward:
    def loss_of(self, model, L, X, label, rng_seed=None):
        if rng_seed is None:
            probs = model.forward(L, X, training=False)
        else:
            probs = model.forward(L, X, training=True, rng=np.random.default_rng(rng_seed))
        return cross_entropy_loss(probs, label, model)

    def fd_check(self, model, L, X, label, rng_seed=None, h=1e-5, tol=1e-4):
        if rng_seed is None:
            model.forward(L, X, training=False, retain=True)
        else:
            model.forward(L, X, training=True, rng=np.random.default_rng(rng_seed), retain=True)
        grads = backward(model, L, X, label)
        params = model.parameters()
        worst = 0.0
        for p, g in zip(params, grads):
            flat_p = p.reshape(-1)
            flat_g = g.reshape(-1)
            for i in range(flat_p.shape[0]):
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = self.loss_of(model, L, X, label, rng_seed)
                flat_p[i] = orig - h
                dn = self.loss_of(model, L, X, label, rng_seed)
                flat_p[i] = orig
                fd = (up - dn) / (2.0 * h)
                rel = abs(flat_g[i] - fd) / max(abs(flat_g[i]), abs(fd), 1e-4)
                worst = max(worst, rel)
                assert rel < tol, (p.shape, i, flat_g[i], fd)
        return worst

    def test_matches_finite_differences(self, rng):
        for seed in (11, 12, 13):
            srng = np.random.default_rng(seed)
            model = tiny_model(srng, d=3, channels=(4, 3), l2=0.0)
            n = int(srng.integers(6, 11))
            L = scaled_laplacian(srng, n)
            X = srng.standard_normal((n, 3))
            self.fd_check(model, L.values, X, label=seed % 2)

    def test_matches_finite_differences_with_l2(self, rng):
        srng = np.random.default_rng(21)
        model = tiny_model(srng, d=2, channels=(3, 2), l2=0.01)
        L = scaled_laplacian(srng, 8)
        X = srng.standard_normal((8, 2))
        self.fd_check(model, L.values, X, label=1)

    def test_matches_finite_differences_with_dropout_mask(self, rng):
        # a fresh rng with the same seed reproduces the mask, so the loss is
        # a deterministic function and finite differences still apply
        srng = np.random.default_rng(41)
        model = tiny_model(srng, d=2, channels=(4, 4), l2=0.0, dropout=0.5)
        L = scaled_laplacian(srng, 6)
        X = srng.standard_normal((6, 2))
        self.fd_check(model, L.values, X, label=1, rng_seed=7)

    def test_matches_finite_differences_for_a_non_symmetric_operator(self):
        # forward accepts any square L, so the backward Horner step needs L^T
        srng = np.random.default_rng(51)
        model = tiny_model(srng, d=3, channels=(4, 3), l2=0.0)
        L = srng.uniform(-0.5, 0.5, (6, 6))
        X = srng.standard_normal((6, 3))
        self.fd_check(model, L, X, label=0)

    def test_state_error_without_forward(self, rng):
        model = tiny_model(rng)
        L = scaled_laplacian(rng, 5)
        X = rng.standard_normal((5, 3))
        with pytest.raises(StateError):
            backward(model, L.values, X, 0)

    def test_state_error_on_stale_cache(self, rng):
        model = tiny_model(rng)
        L = scaled_laplacian(rng, 5)
        X = rng.standard_normal((5, 3))
        model.forward(L.values, X, retain=True)
        with pytest.raises(StateError):
            backward(model, L.values, X + 1.0, 0)

    def test_state_error_after_set_parameters(self, rng):
        # a tape of the old parameters would give gradients of neither set
        model = tiny_model(rng)
        L = scaled_laplacian(rng, 5)
        X = rng.standard_normal((5, 3))
        model.forward(L.values, X, retain=True)
        model.set_parameters([p + 0.5 for p in model.parameters()])
        with pytest.raises(StateError):
            backward(model, L.values, X, 0)
        model.forward(L.values, X, retain=True)
        assert len(backward(model, L.values, X, 0)) == len(model.parameters())

    def test_saturated_prediction_zeroes_data_gradients(self, rng):
        model = tiny_model(rng, d=2, channels=(2, 2), l2=0.0)
        model.dense.weights[:] = 0.0
        model.dense.bias[:] = [1000.0, 0.0]
        L = scaled_laplacian(rng, 5)
        X = rng.standard_normal((5, 2))
        probs = model.forward(L.values, X, retain=True)
        assert probs[0] == 1.0
        grads = backward(model, L.values, X, 0)
        for g in grads:
            assert np.allclose(g, 0.0)

    def test_l2_gradient_offset(self, rng):
        srng = np.random.default_rng(55)
        m0 = tiny_model(srng, d=2, channels=(3, 2), l2=0.0)
        lam = 0.02
        m1 = GcnnModel(
            [GraphConvLayer(l.theta.copy(), l.bias.copy()) for l in m0.conv_layers],
            DenseLayer(m0.dense.weights.copy(), m0.dense.bias.copy()),
            dropout_rate=0.0,
            l2_lambda=lam,
        )
        L = scaled_laplacian(srng, 6)
        X = srng.standard_normal((6, 2))
        m0.forward(L.values, X, retain=True)
        g0 = backward(m0, L.values, X, 1)
        m1.forward(L.values, X, retain=True)
        g1 = backward(m1, L.values, X, 1)
        params = m0.parameters()
        # weights pick up 2*lambda*w; biases are exempt from the penalty
        for i, (a, b) in enumerate(zip(g0, g1)):
            if params[i].ndim > 1:
                assert np.allclose(b - a, 2.0 * lam * params[i], atol=1e-12)
            else:
                assert np.allclose(b, a, atol=1e-12)


class TestOptimizer:
    def test_zero_gradient_is_identity(self, rng):
        for opt in ("adam", "sgd"):
            cfg = TrainConfig(optimizer=opt)
            params = [rng.standard_normal((3, 2)), rng.standard_normal(4)]
            state = optimizer_init(params, cfg)
            new, _ = optimizer_step(state, params, [np.zeros((3, 2)), np.zeros(4)], cfg)
            for p, q in zip(params, new):
                assert np.array_equal(p, q)

    def test_adam_first_step_bias_correction(self):
        cfg = TrainConfig(optimizer="adam", learning_rate=0.01)
        params = [np.array([2.0])]
        state = optimizer_init(params, cfg)
        new, state = optimizer_step(state, params, [np.array([1.0])], cfg)
        assert new[0][0] == pytest.approx(2.0 - 0.01 * (1.0 / (1.0 + 1e-8)), abs=1e-15)
        assert state["t"] == 1

    def test_sgd_momentum_accumulates(self):
        cfg = TrainConfig(optimizer="sgd", learning_rate=0.1)
        params = [np.array([0.0])]
        state = optimizer_init(params, cfg)
        p1, state = optimizer_step(state, params, [np.array([1.0])], cfg)
        assert p1[0][0] == pytest.approx(-0.1)
        p2, _ = optimizer_step(state, p1, [np.array([1.0])], cfg)
        # velocity: 0.9*(-0.1) - 0.1 = -0.19
        assert p2[0][0] == pytest.approx(-0.29)

    def test_shape_mismatch(self):
        cfg = TrainConfig()
        params = [np.zeros(3)]
        state = optimizer_init(params, cfg)
        with pytest.raises(ShapeMismatch):
            optimizer_step(state, params, [np.zeros(4)], cfg)
        with pytest.raises(ShapeMismatch):
            optimizer_step(state, params, [], cfg)

    def test_determinism(self, rng):
        cfg = TrainConfig(optimizer="adam")
        params = [rng.standard_normal(5)]
        grads = [rng.standard_normal(5)]
        a, _ = optimizer_step(optimizer_init(params, cfg), params, grads, cfg)
        b, _ = optimizer_step(optimizer_init(params, cfg), params, grads, cfg)
        assert np.array_equal(a[0], b[0])


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")

    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestTrain:
    def test_empty_split_rejected(self, rng):
        model = tiny_model(rng)
        with pytest.raises(EmptySplit):
            train(model, {"train": [], "val": []}, TrainConfig(epochs=1))
        with pytest.raises(EmptySplit):
            train(model, {"train": make_samples(rng, 4), "val": []}, TrainConfig(epochs=1))

    def test_loss_halves_with_full_batch_sgd(self):
        rng = np.random.default_rng(100)
        samples = make_samples(rng, 10, d=3)
        model = tiny_model(rng, d=3, channels=(4, 3), dropout=0.0, l2=0.0)
        cfg = TrainConfig(
            optimizer="sgd",
            learning_rate=0.05,
            epochs=200,
            batch_size=10,
            seed=1,
        )
        _, hist = train(model, {"train": samples, "val": samples}, cfg)
        assert hist.train_loss[-1] <= 0.5 * hist.train_loss[0]

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(200)
        samples = make_samples(rng, 8, d=2)
        splits = {"train": samples[:6], "val": samples[6:]}
        runs = []
        for _ in range(2):
            model = build_model(2, (3, 3), order=2, dropout_rate=0.3, seed=9)
            m, hist = train(model, splits, TrainConfig(epochs=5, seed=4, batch_size=3))
            runs.append((hist.train_loss, [p.copy() for p in m.parameters()]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            assert np.array_equal(a, b)

    def test_restores_best_validation_snapshot(self):
        rng = np.random.default_rng(300)
        samples = make_samples(rng, 12, d=2)
        splits = {"train": samples[:8], "val": samples[8:]}
        model = build_model(2, (3,), order=2, dropout_rate=0.4, seed=2)
        m, hist = train(model, splits, TrainConfig(epochs=12, seed=0, batch_size=4))
        assert hist.best_epoch >= 0
        # fresh stacks here, the ones train built once there: equal bit for bit
        loss, acc = _split_metrics(m, splits["val"], list(_stacks(m, splits["val"])))
        assert loss == hist.val_loss[hist.best_epoch]
        assert acc == hist.val_accuracy[hist.best_epoch]
        # so the recorded accuracy is what evaluate reports for the model
        assert evaluate(m, splits["val"])[0] == hist.val_accuracy[hist.best_epoch]

    def test_stops_when_validation_loss_stays_flat(self, monkeypatch):
        # a scripted validation loss improves for 3 epochs and then stays flat
        rng = np.random.default_rng(500)
        samples = make_samples(rng, 8, d=2)
        splits = {"train": samples[:6], "val": samples[6:]}
        model = build_model(2, (3,), order=2, dropout_rate=0.0, seed=1)
        seen = []  # the parameters of each epoch, when its validation loss is taken

        def scripted_metrics(m, split, stacks):
            if split[0] is not splits["val"][0]:
                return 1.0, 0.5
            seen.append([p.copy() for p in m.parameters()])
            return (3.0, 2.0, 1.0)[min(len(seen), 3) - 1], 0.5

        monkeypatch.setattr(nn, "_split_metrics", scripted_metrics)
        m, hist = train(model, splits, TrainConfig(epochs=100, seed=0, batch_size=3))
        assert len(hist) == len(seen) == 3 + nn._EARLY_STOP_PATIENCE
        assert hist.best_epoch == 2
        for got, want in zip(m.parameters(), seen[2]):
            assert np.array_equal(got, want)
        assert not all(np.array_equal(a, b) for a, b in zip(seen[2], seen[-1]))

    def test_diverged_loss_raises(self):
        rng = np.random.default_rng(400)
        samples = make_samples(rng, 6, d=2)
        model = tiny_model(rng, d=2, channels=(3,), l2=1e-3)
        cfg = TrainConfig(optimizer="sgd", learning_rate=1e12, epochs=60, batch_size=6, seed=0)
        with pytest.raises(DivergedLoss):
            train(model, {"train": samples, "val": samples}, cfg)

    def test_every_pass_runs_forward(self, rng, monkeypatch):
        # training steps, the metrics pass and evaluate all enter the network
        # through forward: one call per training sample, one per stack
        samples = make_samples(rng, 20, n_range=(4, 9))
        splits = {"train": samples[:14], "val": samples[14:]}
        sizes = {name: {s.features.shape[0] for s in split} for name, split in splits.items()}
        assert len(sizes["train"]) > 1 and len(sizes["val"]) > 1
        calls = {True: 0, False: 0}
        original = GcnnModel.forward

        def counted(self, L, X, training=False, rng=None, retain=False):
            calls[training] += 1
            return original(self, L, X, training=training, rng=rng, retain=retain)

        monkeypatch.setattr(GcnnModel, "forward", counted)
        model = tiny_model(rng, dropout=0.3)
        _, hist = train(model, splits, TrainConfig(epochs=3, batch_size=4, seed=0))
        assert len(hist) == 3
        assert calls == {True: 14 * 3, False: (len(sizes["train"]) + len(sizes["val"])) * 3}

        calls[False] = 0
        evaluate(model, samples)
        assert calls == {True: 14 * 3, False: len(sizes["train"] | sizes["val"])}


class TestEvaluate:
    def test_counting(self, rng):
        samples = make_samples(rng, 10, d=3)
        model = tiny_model(rng, d=3)
        preds = [
            int(np.argmax(model.forward(s.laplacian, s.features))) for s in samples
        ]
        relabeled = [
            GraphSample(s.laplacian, s.features, label=preds[i] if i else 1 - preds[i])
            for i, s in enumerate(samples)
        ]
        acc, confusion = evaluate(model, relabeled)
        assert acc == pytest.approx(0.9)
        assert confusion.sum() == 10
        assert np.trace(confusion) == 9

    def test_empty_split(self, rng):
        with pytest.raises(EmptySplit):
            evaluate(tiny_model(rng), [])


def per_sample_metrics(model, samples):
    """Reference for the batched pass: one forward and one loss per sample."""
    loss, hits = 0.0, 0
    for s in samples:
        probs = model.forward(s.laplacian, s.features)
        loss += cross_entropy_loss(probs, s.label, model)
        hits += int(np.argmax(probs)) == s.label
    return loss / len(samples), hits / len(samples)


def reference_split_metrics(model, samples, probs):
    """`_split_metrics`' loss and accuracy from given probability rows."""
    labels = np.array([s.label for s in samples])
    p_true = np.clip(probs[np.arange(len(samples)), labels], 1e-12, 1.0)
    loss = -float(np.mean(np.log(p_true))) + model.l2_lambda * model.penalty_weight_squares()
    return loss, float(np.mean(np.argmax(probs, axis=1) == labels))


def per_graph_probs(model, samples):
    return np.array([model.forward(s.laplacian, s.features) for s in samples])


def conv_stack(model, L, X):
    return _conv_stack(model.conv_layers, L, X)


class TestBatchedInference:
    def mixed(self, rng, count=16):
        # graphs of several vertex counts, several of each, with classes
        # close enough that some predictions are wrong
        samples = make_samples(rng, count, n_range=(4, 14), separation=0.2)
        sizes = [s.features.shape[0] for s in samples]
        assert 4 <= len(set(sizes)) < len(sizes)
        return samples

    def model(self, rng, **kwargs):
        # nonzero conv biases, so that each layer's bias reaches the output
        model = tiny_model(rng, **kwargs)
        for layer in model.conv_layers:
            layer.bias[:] = rng.uniform(0.1, 0.5, layer.c_out)
        return model

    @pytest.mark.parametrize("pool", HEAD)
    def test_metrics_and_evaluate_match_the_per_sample_loop(self, rng, pool):
        samples = self.mixed(rng)
        model = self.model(rng, l2=1e-3)
        probs = per_graph_probs(model, samples)
        assert np.array_equal(_inference_probs(model, samples), probs)

        loss, acc = _split_metrics(model, samples, list(_stacks(model, samples)))
        assert (loss, acc) == reference_split_metrics(model, samples, probs)
        want_loss, want_acc = per_sample_metrics(model, samples)
        assert abs(loss - want_loss) <= 1e-12
        assert acc == want_acc

        want = np.zeros((2, 2), dtype=int)
        for s, p in zip(samples, probs):
            want[s.label, int(np.argmax(p))] += 1
        assert 0 < np.trace(want) < len(samples)
        got_acc, confusion = evaluate(model, samples)
        assert np.array_equal(confusion, want)
        assert got_acc == want_acc

    @pytest.mark.parametrize("pool", HEAD)
    def test_stack_cuts_and_sample_order_change_no_probabilities(self, rng, monkeypatch, pool):
        samples = self.mixed(rng)
        model = self.model(rng)
        probs = _inference_probs(model, samples)
        perm = rng.permutation(len(samples))
        assert np.array_equal(_inference_probs(model, [samples[i] for i in perm]), probs[perm])
        monkeypatch.setattr(graph, "_STACK_ENTRIES", 1)  # one graph per stack
        assert np.array_equal(_inference_probs(model, samples), probs)

    def test_single_graph_paths_agree_with_the_batched_routine(self, rng):
        model = self.model(rng, channels=(4, 3))
        samples = make_samples(rng, 3, n_range=(7, 8))
        L = np.stack([s.laplacian for s in samples])
        X = np.stack([s.features for s in samples])
        H = conv_stack(model, L, X)
        probs = model.forward(L, X)
        assert np.array_equal(_inference_probs(model, samples), probs)
        for b, s in enumerate(samples):
            h = s.features
            for layer in model.conv_layers:
                h = conv_layer_forward(layer, s.laplacian, h)
            assert np.array_equal(H[b], h)
            assert np.array_equal(model.forward(s.laplacian, s.features), probs[b])

    def test_rejects_a_sample_of_the_wrong_width(self, rng):
        model = tiny_model(rng, d=3)
        samples = make_samples(rng, 3, d=4)
        with pytest.raises(DimensionMismatch):
            evaluate(model, samples)

    @pytest.mark.parametrize("pool", HEAD)
    def test_prebuilt_stacks_follow_new_parameters(self, rng, pool):
        # stacks as train builds them once and runs them again after every
        # optimizer step
        samples = self.mixed(rng, 21)
        model = self.model(rng, l2=1e-3)
        stacks = list(_stacks(model, samples))
        kept = [[np.copy(a) for a in stack] for stack in stacks]
        before = _split_metrics(model, samples, stacks)

        new = [p + rng.uniform(-0.3, 0.3, p.shape) for p in model.parameters()]
        model.set_parameters(new)
        after = _split_metrics(model, samples, stacks)
        assert after != before
        assert after == reference_split_metrics(model, samples, per_graph_probs(model, samples))
        for stack, arrays in zip(stacks, kept, strict=True):
            for a, k in zip(stack, arrays, strict=True):
                assert np.array_equal(a, k)

    def test_rejects_a_label_outside_the_classes(self, rng):
        model = tiny_model(rng)
        s = make_samples(rng, 1)[0]
        with pytest.raises(InvalidLabel):
            evaluate(model, [GraphSample(s.laplacian, s.features, label=-1)])


class TestStackedForward:
    """`forward` on a stack of graphs of one size: each row is its graph's
    own `forward`, bit for bit."""

    @pytest.mark.parametrize(
        "n, count, d, channels, order",
        [
            (2, 5, 1, (3,), 1),
            (5, 1, 3, (4, 3), 2),
            (9, 17, 5, (6, 5, 4), 3),
            (23, 8, 5, (24, 24, 24, 24), 3),
            (31, 4, 2, (8, 8), 6),
        ],
    )
    def test_rows_equal_the_per_graph_forward(self, rng, n, count, d, channels, order):
        model = build_model(d, channels, order=order, seed=int(rng.integers(0, 2**31)))
        for layer in model.conv_layers:
            layer.bias[:] = rng.uniform(0.0, 0.3, layer.c_out)
        Ls = [scaled_laplacian(rng, n).values for _ in range(count)]
        Xs = [rng.standard_normal((n, d)) for _ in range(count)]
        probs = model.forward(np.stack(Ls), np.stack(Xs))
        assert probs.shape == (count, 2)
        for L, X, row in zip(Ls, Xs, probs, strict=True):
            assert np.array_equal(model.forward(L, X), row)

    def test_retain_on_a_stack_raises(self, rng):
        model = tiny_model(rng)
        L = np.stack([scaled_laplacian(rng, 6).values] * 2)
        X = rng.standard_normal((2, 6, 3))
        with pytest.raises(ValueError, match="one graph"):
            model.forward(L, X, retain=True)

    @pytest.mark.parametrize(
        "L_shape, X_shape",
        [((3, 6, 6), (2, 6, 3)), ((2, 6, 6), (2, 6, 4)), ((2, 6, 6), (2, 5, 3)), ((2, 6, 6), (6, 3))],
        ids=["batch sizes", "width", "vertex count", "one signal"],
    )
    def test_stack_shape_faults(self, rng, L_shape, X_shape):
        model = tiny_model(rng)
        with pytest.raises(DimensionMismatch):
            model.forward(np.zeros(L_shape), np.ones(X_shape))


# graphs that fit no model with 3 feature channels
BAD_GRAPHS = {
    "wrong width": (np.eye(5), np.ones((5, 4))),
    "non-square Laplacian": (np.ones((5, 6)), np.ones((5, 3))),
    "no vertices": (np.zeros((0, 0)), np.zeros((0, 3))),
}


class TestGraphShapes:
    """One shape check guards forward, on one graph or a stack, and the
    stacks of evaluate and train."""

    @pytest.mark.parametrize("pool", HEAD)
    @pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
    def test_forward(self, rng, pool, case):
        L, X = BAD_GRAPHS[case]
        model = tiny_model(rng)
        with pytest.raises(DimensionMismatch):
            model.forward(L, X)

    @pytest.mark.parametrize("pool", HEAD)
    @pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
    def test_evaluate(self, rng, pool, case):
        bad = GraphSample(*BAD_GRAPHS[case], label=0, sample_id="g-bad")
        model = tiny_model(rng)
        with pytest.raises(DimensionMismatch, match="'g-bad'"):
            evaluate(model, make_samples(rng, 3) + [bad])

    @pytest.mark.parametrize("features", [(6,), (2, 6, 3)], ids=["one axis", "a stack"])
    def test_a_sample_is_one_graph(self, rng, features):
        L = np.broadcast_to(np.eye(6), features[:-1] + (6, 6))
        bad = GraphSample(L, np.ones(features), label=0, sample_id="g-bad")
        model = tiny_model(rng)
        with pytest.raises(DimensionMismatch, match="'g-bad'"):
            evaluate(model, make_samples(rng, 3) + [bad])
        with pytest.raises(DimensionMismatch, match="'g-bad'"):
            train(model, {"train": make_samples(rng, 4) + [bad], "val": make_samples(rng, 2)})

    @pytest.mark.parametrize("pool", HEAD)
    @pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
    @pytest.mark.parametrize("split", ["train", "val"])
    def test_train(self, rng, pool, case, split):
        bad = GraphSample(*BAD_GRAPHS[case], label=0, sample_id="g-bad")
        splits = {"train": make_samples(rng, 4), "val": make_samples(rng, 2)}
        splits[split].append(bad)
        model = tiny_model(rng)
        with pytest.raises(DimensionMismatch, match="'g-bad'"):
            train(model, splits, TrainConfig(epochs=1))


# ---------------------------------------------------------------------------
# The single-graph head as it stood before `forward` ran stacks of graphs:
# mean pooling, inverted dropout, then softmax(W.T h + b) on the one pooled
# vector.  Forward, backward, stacked inference and training must equal it
# bit for bit.


def reference_forward(model, L, X, training=False, rng=None):
    L = np.asarray(L, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    tape = []
    act = _conv_stack(model.conv_layers, L, X, tape)
    pooled = np.add.reduce(act, axis=0) / act.shape[0]
    mask = None
    dropped = pooled
    if training and model.dropout_rate > 0.0:
        keep = rng.random(pooled.shape[0]) >= model.dropout_rate
        mask = keep.astype(float) / (1.0 - model.dropout_rate)
        dropped = pooled * mask
    probs = _softmax(model.dense.weights.T @ dropped + model.dense.bias)
    return probs, (L, tape, act, mask, dropped, probs)


def reference_backward(model, retained, label):
    L, tape, act, mask, dropped, probs = retained
    lam = model.l2_lambda
    dlogits = probs.copy()
    dlogits[label] -= 1.0
    d_w = dropped[:, None] * dlogits + 2.0 * lam * model.dense.weights
    dh = model.dense.weights @ dlogits
    if mask is not None:
        dh = dh * mask
    dY = dh / act.shape[0]
    grads = []
    for i in range(len(model.conv_layers) - 1, -1, -1):
        layer = model.conv_layers[i]
        K, c_in, c_out = layer.theta.shape
        P, Z = tape[i]
        dZ = dY * (Z > 0.0)
        grads.append(np.add.reduce(dZ, axis=0))
        grads.append((P.T @ dZ).reshape(K, c_in, c_out) + 2.0 * lam * layer.theta)
        if i > 0:
            G = dZ @ layer.theta.reshape(K * c_in, c_out).T
            acc = G[:, (K - 1) * c_in :]
            for k in range(K - 2, -1, -1):
                acc = L @ acc + G[:, k * c_in : (k + 1) * c_in]
            dY = acc
    grads.reverse()
    return grads + [d_w, dlogits.copy()]


def reference_probs(model, samples):
    return np.array([reference_forward(model, s.laplacian, s.features)[0] for s in samples])


HEADS = [("mean", 0.0), ("mean", 0.5)]


class TestReferenceHead:
    def model(self, dropout, seed=3):
        model = build_model(3, (6, 5, 4), order=3, dropout_rate=dropout, l2_lambda=1e-3, seed=seed)
        for layer in model.conv_layers:
            layer.bias[:] = 0.1  # keeps some units alive through every layer
        return model

    @pytest.mark.parametrize("pool,dropout", HEADS)
    def test_forward_and_backward_are_bit_identical(self, pool, dropout):
        samples = make_samples(np.random.default_rng(5), 12, n_range=(4, 14), separation=0.5)
        model = self.model(dropout)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        for s in samples:
            want, _ = reference_forward(model, s.laplacian, s.features)
            assert np.array_equal(model.forward(s.laplacian, s.features), want)

            probs = model.forward(s.laplacian, s.features, training=True, rng=rng, retain=True)
            want, retained = reference_forward(model, s.laplacian, s.features, True, ref_rng)
            assert np.array_equal(probs, want)
            grads = backward(model, s.laplacian, s.features, s.label)
            for g, w in zip(grads, reference_backward(model, retained, s.label), strict=True):
                assert np.array_equal(g, w)
        assert np.array_equal(_inference_probs(model, samples), reference_probs(model, samples))

    @pytest.mark.parametrize("pool,dropout", HEADS)
    def test_train_is_bit_identical(self, monkeypatch, pool, dropout):
        samples = make_samples(np.random.default_rng(6), 24, n_range=(4, 14), separation=0.5)
        splits = {"train": samples[:18], "val": samples[18:]}
        config = TrainConfig(epochs=4, batch_size=5, seed=2)
        model, history = train(self.model(dropout), splits, config)

        def forward(model, L, X, training=False, rng=None, retain=False):
            probs, model._reference = reference_forward(model, L, X, training, rng)
            return probs

        monkeypatch.setattr(GcnnModel, "forward", forward)
        monkeypatch.setattr(nn, "backward", lambda m, L, X, y: reference_backward(m, m._reference, y))
        monkeypatch.setattr(
            nn,
            "_split_metrics",
            lambda m, samples, stacks: reference_split_metrics(m, samples, reference_probs(m, samples)),
        )
        ref_model, ref_history = train(self.model(dropout), splits, config)
        for p, q in zip(model.parameters(), ref_model.parameters(), strict=True):
            assert np.array_equal(p, q)
        assert vars(history) == vars(ref_history)


class TestPredict:
    def graph_of(self, rng, n=8, d=5):
        W = random_connected_graph(rng, n)
        return SpatialGraph(
            weights=W,
            features=rng.standard_normal((n, d)),
            positions=tuple(Point2(float(x), float(y)) for x, y in rng.random((n, 2))),
        )

    def test_zero_model_uniform(self, rng):
        g = self.graph_of(rng)
        model = build_model(5, (4,), order=2, seed=0)
        for p in model.parameters():
            p[:] = 0.0
        probs, cls = predict(model, g)
        assert probs == pytest.approx([0.5, 0.5])
        assert cls == 0

    def test_probabilities_sum_to_one(self, rng):
        g = self.graph_of(rng)
        model = build_model(5, (6, 4), order=3, seed=3)
        probs, _ = predict(model, g)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_permutation_invariance(self, rng):
        g = self.graph_of(rng, n=10)
        model = build_model(5, (8, 8), order=3, seed=5)
        probs, _ = predict(model, g, GraphConfig())
        for _ in range(5):
            perm = rng.permutation(10)
            gp = SpatialGraph(
                weights=g.weights[np.ix_(perm, perm)],
                features=g.features[perm],
                positions=tuple(g.positions[i] for i in perm),
            )
            probs_p, _ = predict(model, gp, GraphConfig())
            assert np.max(np.abs(probs_p - probs)) < 1e-9


class TestCheckpoint:
    def test_round_trip_exact(self, rng, tmp_path):
        model = build_model(5, (6, 4), order=3, dropout_rate=0.25, l2_lambda=1e-4, seed=8)
        extra = {"standardizer": {"mean": [1.0, 2.0], "std": [0.5, 0.25]}}
        path = tmp_path / "model.json"
        save_checkpoint(path, model, extra)
        loaded, got_extra = load_checkpoint(path)
        assert got_extra == extra
        assert loaded.dropout_rate == model.dropout_rate
        assert loaded.l2_lambda == model.l2_lambda
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_byte_identical_saves(self, tmp_path):
        model = build_model(3, (4,), order=2, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(p1, model, {"k": 1})
        save_checkpoint(p2, model, {"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_corruption_detected(self, tmp_path):
        model = build_model(3, (4,), order=2, seed=1)
        path = tmp_path / "m.json"
        save_checkpoint(path, model)
        text = path.read_text()
        mangled = text.replace('"pool":"mean"', '"pool":"max"')
        assert mangled != text
        path.write_text(mangled)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        import json as _json

        model = build_model(3, (4,), order=2, seed=1)
        path = tmp_path / "m.json"
        save_checkpoint(path, model)
        doc = _json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(_json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


class TestModelValidation:
    def test_channel_chain_checked(self):
        l1 = GraphConvLayer(theta=np.zeros((2, 3, 4)), bias=np.zeros(4))
        l2 = GraphConvLayer(theta=np.zeros((2, 5, 2)), bias=np.zeros(2))
        dense = DenseLayer(weights=np.zeros((2, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            GcnnModel([l1, l2], dense)

    def test_dense_chain_checked(self):
        l1 = GraphConvLayer(theta=np.zeros((2, 3, 4)), bias=np.zeros(4))
        dense = DenseLayer(weights=np.zeros((6, 2)), bias=np.zeros(2))
        with pytest.raises(ValueError):
            GcnnModel([l1], dense)

    @pytest.mark.parametrize("l2", [math.nan, math.inf, -1e-3])
    def test_l2_must_be_finite_and_nonnegative(self, l2):
        with pytest.raises(ValueError, match="l2_lambda"):
            build_model(3, (4,), l2_lambda=l2)

    @pytest.mark.parametrize("order", [0, -1])
    def test_order_must_be_at_least_1(self, order):
        with pytest.raises(ValueError, match=f"order K must be at least 1, got {order}"):
            build_model(3, (4,), order=order)

    @pytest.mark.parametrize("channels", [(0,), (-3,), (4, -1)])
    def test_channel_counts_must_be_at_least_1(self, channels):
        with pytest.raises(ValueError, match=f"at least 1, got {min(channels)}"):
            build_model(3, channels)

    def test_build_model_shapes(self):
        m = build_model(5, (24, 24, 24, 24), order=3)
        assert m.feature_dim == 5
        assert [l.theta.shape for l in m.conv_layers] == [
            (3, 5, 24), (3, 24, 24), (3, 24, 24), (3, 24, 24)
        ]
        assert m.dense.weights.shape == (24, 2)
        assert len(m.parameters()) == 10

    def test_init_bound_respected(self):
        m = build_model(5, (24,), order=3, seed=0)
        bound = math.sqrt(6.0 / (3 * 5 + 3 * 24))
        assert np.max(np.abs(m.conv_layers[0].theta)) <= bound
