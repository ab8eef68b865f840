"""Graph convolutional network over per-group spatial graphs.

Architecture: a stack of polynomial graph-convolution layers (each output
channel is a learned polynomial in the Laplacian applied across all input
channels, plus bias, through ReLU), one global pooling step that collapses
the variable vertex dimension, dropout on the pooled embedding, and a dense
softmax classifier.  Backpropagation is exact and hand-derived; training
uses mini-batch Adam or momentum SGD with early stopping on validation
loss.  Everything is deterministic for a fixed seed when single-threaded.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    DimensionMismatch,
    DivergedLoss,
    EmptySplit,
    InvalidLabel,
    ShapeMismatch,
    StateError,
)
from .graph import GraphConfig, SpatialGraph, laplacian, matrix_of

POOLS = ("mean", "max")
OPTIMIZERS = ("adam", "sgd")
_PROB_FLOOR = 1e-12
# samples per padded inference batch: larger buckets pad more and cost
# memory, smaller ones make more small products
_BUCKET = 16
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Parameters


class GraphConvLayer:
    """One spectral convolution layer.

    theta has shape (K, c_in, c_out): coefficient of L^k sending input
    channel c to output channel o sits at theta[k, c, o].  bias has shape
    (c_out,).
    """

    def __init__(self, theta, bias):
        self.theta = np.asarray(theta, dtype=float)
        self.bias = np.asarray(bias, dtype=float).reshape(-1)
        if self.theta.ndim != 3:
            raise ValueError(f"theta must be (K, c_in, c_out), got {self.theta.shape}")
        K, c_in, c_out = self.theta.shape
        if K < 1 or c_in < 1 or c_out < 1:
            raise ValueError(f"degenerate layer shape {self.theta.shape}")
        if self.bias.shape != (c_out,):
            raise ValueError(f"bias must be ({c_out},), got {self.bias.shape}")
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")

    @property
    def order(self) -> int:
        return self.theta.shape[0]

    @property
    def c_in(self) -> int:
        return self.theta.shape[1]

    @property
    def c_out(self) -> int:
        return self.theta.shape[2]


class DenseLayer:
    def __init__(self, weights, bias):
        self.weights = np.asarray(weights, dtype=float)
        self.bias = np.asarray(bias, dtype=float).reshape(-1)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be (c_in, c_classes), got {self.weights.shape}")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError("bias length must equal the class count")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("dense parameters must be finite")

    @property
    def c_in(self) -> int:
        return self.weights.shape[0]

    @property
    def c_classes(self) -> int:
        return self.weights.shape[1]


class GcnnModel:
    """Conv stack + pooling + dropout + dense softmax."""

    def __init__(self, conv_layers, dense, pool="mean", dropout_rate=0.5, l2_lambda=5e-4):
        self.conv_layers = list(conv_layers)
        self.dense = dense
        self.pool = pool
        self.dropout_rate = float(dropout_rate)
        self.l2_lambda = float(l2_lambda)
        # (L, X, tape) of the last forward(..., retain=True), for backward
        self._retained: tuple | None = None
        if not self.conv_layers:
            raise ValueError("model needs at least one conv layer")
        if pool not in POOLS:
            raise ValueError(f"pool must be one of {POOLS}, got {pool!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not (math.isfinite(self.l2_lambda) and self.l2_lambda >= 0):
            raise ValueError(f"l2_lambda must be finite and nonnegative, got {self.l2_lambda}")
        for a, b in zip(self.conv_layers, self.conv_layers[1:]):
            if a.c_out != b.c_in:
                raise ValueError(
                    f"channel chain broken: layer emits {a.c_out}, next expects {b.c_in}"
                )
        if dense.c_in != self.conv_layers[-1].c_out:
            raise ValueError(
                f"dense expects {dense.c_in} channels, last conv emits {self.conv_layers[-1].c_out}"
            )

    @property
    def feature_dim(self) -> int:
        return self.conv_layers[0].c_in

    @property
    def n_classes(self) -> int:
        return self.dense.c_classes

    def parameters(self) -> list[np.ndarray]:
        """Live references: [theta_0, bias_0, ..., dense weights, dense bias]."""
        out = []
        for layer in self.conv_layers:
            out.append(layer.theta)
            out.append(layer.bias)
        out.append(self.dense.weights)
        out.append(self.dense.bias)
        return out

    def set_parameters(self, values: Sequence[np.ndarray]) -> None:
        current = self.parameters()
        if len(values) != len(current):
            raise ShapeMismatch(f"expected {len(current)} arrays, got {len(values)}")
        for have, new in zip(current, values):
            new = np.asarray(new, dtype=float)
            if new.shape != have.shape:
                raise ShapeMismatch(f"parameter shape {new.shape} != {have.shape}")
        k = 0
        for layer in self.conv_layers:
            layer.theta = np.array(values[k], dtype=float)
            layer.bias = np.array(values[k + 1], dtype=float)
            k += 2
        self.dense.weights = np.array(values[k], dtype=float)
        self.dense.bias = np.array(values[k + 1], dtype=float)
        # a tape of the old parameters would give backward wrong gradients
        self._retained = None

    def penalty_weight_squares(self) -> float:
        """Sum of squared conv thetas and dense weights; biases excluded."""
        total = sum(float(np.sum(l.theta**2)) for l in self.conv_layers)
        return total + float(np.sum(self.dense.weights**2))

    def forward(self, L, X, training=False, rng=None, retain=False) -> np.ndarray:
        """Class probabilities for one graph, the unpadded case of `_probs`;
        optionally retains its tape for backward."""
        Lv = matrix_of(L)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        _check_graph(self, Lv, X)
        if not (training and self.dropout_rate > 0.0):
            rng = None
        elif rng is None:
            raise ValueError("training-mode forward with dropout needs an rng")

        tape = [] if retain else None
        P = _power_stack(Lv, X, self.conv_layers[0].order)
        probs = _probs(self, Lv, P, 1.0, X.shape[0], rng, tape)
        if retain:
            self._retained = (Lv, X, tape)
        return probs


# ---------------------------------------------------------------------------
# Forward pieces


def _power_stack(L, H, K) -> np.ndarray:
    """[H, L H, ..., L^(K-1) H] side by side along the channel axis, for a
    (B, n, c) stack of signals or one (n, c) signal."""
    powers = [H]
    for _ in range(1, K):
        powers.append(L @ powers[-1])
    return np.concatenate(powers, axis=-1)


def _conv_stack(layers, L, P, tape=None) -> np.ndarray:
    """Runs conv layers from `P`, the first layer's `_power_stack` of its input.

    With the powers side by side, one product with theta reshaped to
    (K*c_in, c_out) applies every coefficient of a layer; then bias and
    ReLU.  When `tape` is a list, each layer's (power stack,
    pre-activation) pair is appended to it for backward.
    """
    for i, layer in enumerate(layers):
        K, c_in, c_out = layer.theta.shape
        if i:
            P = _power_stack(L, H, K)
        Z = P @ layer.theta.reshape(K * c_in, c_out) + layer.bias
        if tape is not None:
            tape.append((P, Z))
        H = np.maximum(Z, 0.0)
    return H


def conv_layer_forward(layer: GraphConvLayer, L, X, activation="relu") -> np.ndarray:
    """Y[:, o] = act( sum_c sum_k theta[k, c, o] L^k X[:, c] + bias[o] )."""
    if activation not in ("relu", "identity"):
        raise ValueError(f"unknown activation {activation!r}")
    Lv = matrix_of(L)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != layer.c_in:
        raise DimensionMismatch(f"signal has {X.shape[1]} channels, layer expects {layer.c_in}")
    if X.shape[0] != Lv.shape[0]:
        raise DimensionMismatch(f"signal has {X.shape[0]} vertices, operator has {Lv.shape[0]}")
    tape = []
    Y = _conv_stack([layer], Lv, _power_stack(Lv, X, layer.order), tape)
    return Y if activation == "relu" else tape[0][1]


def _check_graph(model: GcnnModel, L, X, sample_id=None) -> None:
    """Raises DimensionMismatch unless X is (n, feature_dim) and L is (n, n)
    with n >= 1; the message names the sample when there is an id."""
    n = X.shape[0]
    if n == 0:
        problem = "the graph has no vertices"
    elif X.shape[1:] != (model.feature_dim,):
        problem = f"features {X.shape} do not have the model's {model.feature_dim} channels"
    elif L.shape != (n, n):
        problem = f"Laplacian {L.shape} does not match {n} vertices"
    else:
        return
    raise DimensionMismatch(problem if sample_id is None else f"sample {sample_id!r}: {problem}")


def _probs(model: GcnnModel, L, P, real, counts, rng=None, tape=None) -> np.ndarray:
    """Class probabilities of one graph, or of a padded bucket when the
    arguments carry a leading batch axis.

    `P` is the first layer's `_power_stack`; `real` is 1 on real vertices
    and 0 on padding, and `counts` the real vertices per graph.  Dropout
    is on when `rng` is given.  When `tape` is a list, it receives each
    conv layer's pair from `_conv_stack`, then (last activation, dropout
    mask or None, dense input, probabilities).
    """
    # padded rows become zero; after ReLU every real entry is >= 0, so
    # zeros there change no maximum either
    H = _conv_stack(model.conv_layers, L, P, tape) * real
    if model.pool == "mean":
        pooled = np.add.reduce(H, axis=-2) / counts  # what H.mean computes unpadded
    else:
        pooled = np.maximum.reduce(H, axis=-2)
    mask = None
    dropped = pooled
    if rng is not None:
        keep = rng.random(pooled.shape) >= model.dropout_rate
        mask = keep.astype(float) / (1.0 - model.dropout_rate)
        dropped = pooled * mask
    probs = _softmax(dropped @ model.dense.weights + model.dense.bias)
    if tape is not None:
        tape.append((H, mask, dropped, probs))
    return probs


def _softmax(logits) -> np.ndarray:
    """Softmax along the last axis, shifted by the row maximum for stability."""
    # the ufunc reductions that ndarray.max and .sum run, without their
    # Python-level wrappers
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def cross_entropy_loss(probs, label, model: GcnnModel) -> float:
    probs = np.asarray(probs, dtype=float).reshape(-1)
    label = int(label)
    if not 0 <= label < probs.shape[0]:
        raise InvalidLabel(f"label {label} outside [0, {probs.shape[0]})")
    p = min(max(float(probs[label]), _PROB_FLOOR), 1.0)
    return -math.log(p) + model.l2_lambda * model.penalty_weight_squares()


# ---------------------------------------------------------------------------
# Backward


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or np.array_equal(a, b)


def backward(model: GcnnModel, L, X, label) -> list[np.ndarray]:
    """Exact gradients of cross_entropy_loss, in parameters() order.

    Requires the tape of a forward(..., retain=True) on the same (L, X),
    run since the parameters were last set; raises StateError otherwise.
    """
    if model._retained is None:
        raise StateError(
            "backward needs a forward pass with retain=True since the parameters last changed"
        )
    Lv = matrix_of(L)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    L_kept, X_kept, tape = model._retained
    # train passes the very arrays it gave forward, so identity settles it
    # without an element-wise comparison
    if not (_same(L_kept, Lv) and _same(X_kept, X)):
        raise StateError("retained forward intermediates do not match these inputs")
    label = int(label)
    if not 0 <= label < model.n_classes:
        raise InvalidLabel(f"label {label} outside [0, {model.n_classes})")

    n = X.shape[0]
    *layer_tape, (last_act, mask, dropped, probs) = tape
    dlogits = probs.copy()
    dlogits[label] -= 1.0

    dense = model.dense
    d_w = dropped[:, None] * dlogits + 2.0 * model.l2_lambda * dense.weights
    d_b = dlogits.copy()
    dh = dense.weights @ dlogits
    if mask is not None:
        dh = dh * mask

    if model.pool == "mean":
        dY = dh / n  # the same row for every vertex, broadcast in dZ below
    else:
        dY = np.zeros_like(last_act)
        dY[np.argmax(last_act, axis=0), np.arange(dY.shape[1])] = dh

    grads: list[np.ndarray] = []
    for i in range(len(model.conv_layers) - 1, -1, -1):
        layer = model.conv_layers[i]
        K, c_in, c_out = layer.theta.shape
        P, Z = layer_tape[i]
        dZ = dY * (Z > 0.0)
        d_theta = (P.T @ dZ).reshape(K, c_in, c_out) + 2.0 * model.l2_lambda * layer.theta
        d_bias = np.add.reduce(dZ, axis=0)
        grads.append(d_bias)
        grads.append(d_theta)
        if i > 0:
            # dX = sum_k (L^k)^T (dZ theta_k^T), Horner form.  Column block
            # k of G is dZ theta_k^T.
            G = dZ @ layer.theta.reshape(K * c_in, c_out).T
            acc = G[:, (K - 1) * c_in :]
            for k in range(K - 2, -1, -1):
                acc = Lv.T @ acc + G[:, k * c_in : (k + 1) * c_in]
            dY = acc

    grads.reverse()
    grads.append(d_w)
    grads.append(d_b)
    return grads


# ---------------------------------------------------------------------------
# Optimizers


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    momentum: float = 0.9
    early_stop_patience: int = 20

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("adam betas must be in (0, 1)")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be at least 1")


def optimizer_init(params: Sequence[np.ndarray], config: TrainConfig) -> dict:
    zeros = [np.zeros_like(p) for p in params]
    if config.optimizer == "adam":
        return {"t": 0, "m": zeros, "v": [np.zeros_like(p) for p in params]}
    return {"velocity": zeros}


def optimizer_step(state: dict, params, grads, config: TrainConfig):
    """One update; returns (new_params, new_state) without mutating inputs."""
    params = list(params)
    grads = list(grads)
    if len(params) != len(grads):
        raise ShapeMismatch(f"{len(params)} parameters vs {len(grads)} gradients")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatch(f"parameter {p.shape} vs gradient {g.shape}")
    lr = config.learning_rate
    if config.optimizer == "adam":
        t = state["t"] + 1
        new_m, new_v, new_p = [], [], []
        for p, g, m, v in zip(params, grads, state["m"], state["v"]):
            m = config.beta1 * m + (1.0 - config.beta1) * g
            v = config.beta2 * v + (1.0 - config.beta2) * (g * g)
            m_hat = m / (1.0 - config.beta1**t)
            v_hat = v / (1.0 - config.beta2**t)
            new_p.append(p - lr * m_hat / (np.sqrt(v_hat) + config.eps))
            new_m.append(m)
            new_v.append(v)
        return new_p, {"t": t, "m": new_m, "v": new_v}
    new_vel, new_p = [], []
    for p, g, vel in zip(params, grads, state["velocity"]):
        vel = config.momentum * vel - lr * g
        new_p.append(p + vel)
        new_vel.append(vel)
    return new_p, {"velocity": new_vel}


# ---------------------------------------------------------------------------
# Training and evaluation


@dataclass(frozen=True, eq=False)
class GraphSample:
    """One group ready for the network: scaled Laplacian, standardized
    features, and an optional integer label (None for inference)."""

    laplacian: np.ndarray
    features: np.ndarray
    label: int | None = None
    sample_id: str | None = None


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def __len__(self) -> int:
        return len(self.train_loss)


def build_model(
    feature_dim: int,
    conv_channels: Sequence[int] = (24, 24, 24, 24),
    order: int = 3,
    n_classes: int = 2,
    pool: str = "mean",
    dropout_rate: float = 0.5,
    l2_lambda: float = 5e-4,
    seed: int = 0,
) -> GcnnModel:
    """Fresh model with seeded uniform initialization.

    Conv thetas are uniform in +-sqrt(6 / (K*c_in + K*c_out)), dense weights
    uniform in +-sqrt(6 / (c_in + c_classes)); biases start at zero.
    """
    rng = np.random.default_rng(seed)
    layers = []
    c_prev = int(feature_dim)
    for c_out in conv_channels:
        bound = math.sqrt(6.0 / (order * c_prev + order * c_out))
        theta = rng.uniform(-bound, bound, size=(order, c_prev, c_out))
        layers.append(GraphConvLayer(theta=theta, bias=np.zeros(c_out)))
        c_prev = int(c_out)
    bound = math.sqrt(6.0 / (c_prev + n_classes))
    dense = DenseLayer(
        weights=rng.uniform(-bound, bound, size=(c_prev, n_classes)),
        bias=np.zeros(n_classes),
    )
    return GcnnModel(layers, dense, pool=pool, dropout_rate=dropout_rate, l2_lambda=l2_lambda)


@dataclass(frozen=True, eq=False)
class _Bucket:
    """Up to _BUCKET samples of one split, zero-padded to the largest graph
    among them: all the metrics pass needs that the parameters do not touch."""

    rows: np.ndarray  # positions of the samples in their split
    L: np.ndarray  # (B, n_max, n_max) Laplacians
    stack: np.ndarray  # (B, n_max, K*c_in) first-layer power stacks
    real: np.ndarray  # (B, n_max, 1): 1 on a real vertex, 0 on padding
    counts: np.ndarray  # (B, 1) real vertices per graph


def _buckets(model: GcnnModel, samples: Sequence[GraphSample]) -> list[_Bucket]:
    """Sorts samples by vertex count and pads them in buckets of _BUCKET.

    Padded rows and columns of L are zero, so padded vertices never reach
    real ones; only pooling has to leave them out.
    """
    for s in samples:
        _check_graph(model, s.laplacian, s.features, s.sample_id)
    sizes = [s.features.shape[0] for s in samples]
    order = np.argsort(sizes, kind="stable")
    K = model.conv_layers[0].order
    buckets = []
    for start in range(0, len(order), _BUCKET):
        rows = order[start : start + _BUCKET]
        n_max = sizes[rows[-1]]
        L = np.zeros((len(rows), n_max, n_max))
        X = np.zeros((len(rows), n_max, model.feature_dim))
        real = np.zeros((len(rows), n_max, 1))
        for b, i in enumerate(rows):
            n = sizes[i]
            L[b, :n, :n] = samples[i].laplacian
            X[b, :n] = samples[i].features
            real[b, :n] = 1.0
        buckets.append(_Bucket(rows, L, _power_stack(L, X, K), real, real.sum(axis=1)))
    return buckets


def _inference_probs(model: GcnnModel, buckets: Sequence[_Bucket]) -> np.ndarray:
    """(N, n_classes) probabilities with dropout off, rows in sample order.

    Runs the parameter-dependent layers over buckets from `_buckets` for
    this model's architecture.  Nothing is retained.
    """
    probs = np.empty((sum(len(b.rows) for b in buckets), model.n_classes))
    for b in buckets:
        probs[b.rows] = _probs(model, b.L, b.stack, b.real, b.counts)
    return probs


def _labels(samples: Sequence[GraphSample], n_classes: int) -> np.ndarray:
    labels = np.array([-1 if s.label is None else s.label for s in samples], dtype=int)
    bad = (labels < 0) | (labels >= n_classes)
    if np.any(bad):
        s = samples[int(np.argmax(bad))]
        raise InvalidLabel(f"sample {s.sample_id!r}: label {s.label!r} outside [0, {n_classes})")
    return labels


def _split_metrics(model: GcnnModel, samples, buckets) -> tuple[float, float]:
    """(mean cross-entropy plus the L2 penalty, accuracy) with dropout off;
    `buckets` are `_buckets(model, samples)`."""
    labels = _labels(samples, model.n_classes)
    probs = _inference_probs(model, buckets)
    p_true = np.clip(probs[np.arange(len(samples)), labels], _PROB_FLOOR, 1.0)
    loss = -float(np.mean(np.log(p_true))) + model.l2_lambda * model.penalty_weight_squares()
    return loss, float(np.mean(np.argmax(probs, axis=1) == labels))


def train(model: GcnnModel, splits: Mapping[str, Sequence[GraphSample]], config: TrainConfig | None = None):
    """Mini-batch training with early stopping on validation loss.

    Returns (model, TrainHistory); the model carries the parameters of the
    best validation epoch, not the last one.
    """
    if config is None:
        config = TrainConfig()
    train_set = list(splits.get("train", ()))
    val_set = list(splits.get("val", ()))
    if not train_set:
        raise EmptySplit("training split is empty")
    if not val_set:
        raise EmptySplit("validation split is empty")

    # padded once: the metrics pass of every epoch reuses them
    train_buckets = _buckets(model, train_set)
    val_buckets = _buckets(model, val_set)
    rng = np.random.default_rng(config.seed)
    params = [p.copy() for p in model.parameters()]
    state = optimizer_init(params, config)
    history = TrainHistory()
    best_loss = math.inf
    best_params = [p.copy() for p in params]
    stale = 0

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_set))
        # overflow warnings are silenced: a diverging run produces inf/nan
        # values that the finite check below turns into DivergedLoss
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), config.batch_size):
                batch = order[start : start + config.batch_size]
                acc_grads = None
                for idx in batch:
                    s = train_set[int(idx)]
                    model.forward(s.laplacian, s.features, training=True, rng=rng, retain=True)
                    g = backward(model, s.laplacian, s.features, s.label)
                    if acc_grads is None:
                        acc_grads = g
                    else:
                        for a, b in zip(acc_grads, g):
                            a += b
                grads = [g / len(batch) for g in acc_grads]
                params, state = optimizer_step(state, params, grads, config)
                model.set_parameters(params)
                params = model.parameters()

            tr_loss, tr_acc = _split_metrics(model, train_set, train_buckets)
            va_loss, va_acc = _split_metrics(model, val_set, val_buckets)
        if not (math.isfinite(tr_loss) and math.isfinite(va_loss)):
            raise DivergedLoss(
                f"non-finite loss at epoch {epoch + 1} (train {tr_loss}, val {va_loss})"
            )
        history.train_loss.append(tr_loss)
        history.train_accuracy.append(tr_acc)
        history.val_loss.append(va_loss)
        history.val_accuracy.append(va_acc)

        if va_loss < best_loss:
            best_loss = va_loss
            best_params = [p.copy() for p in params]
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break

    model.set_parameters(best_params)
    return model, history


def evaluate(model: GcnnModel, samples: Sequence[GraphSample]):
    """(accuracy, confusion matrix); confusion rows are true labels."""
    samples = list(samples)
    if not samples:
        raise EmptySplit("cannot evaluate an empty split")
    c = model.n_classes
    confusion = np.zeros((c, c), dtype=int)
    labels = _labels(samples, c)
    predicted = np.argmax(_inference_probs(model, _buckets(model, samples)), axis=1)
    np.add.at(confusion, (labels, predicted), 1)
    accuracy = float(np.trace(confusion)) / len(samples)
    return accuracy, confusion


def predict(model: GcnnModel, g: SpatialGraph, config: GraphConfig | None = None):
    """(probabilities, class index) for one graph; dropout is off.

    The graph's feature matrix is used as-is; apply the training-time
    standardizer first when the model was trained on standardized features.
    """
    if config is None:
        config = GraphConfig()
    L = laplacian(g, kind=config.laplacian, scaled=config.scaled)
    probs = model.forward(L, g.features, training=False)
    return probs, int(np.argmax(probs))


# ---------------------------------------------------------------------------
# Checkpoints


def _model_payload(model: GcnnModel) -> dict:
    return {
        "conv_layers": [
            {"theta": l.theta.tolist(), "bias": l.bias.tolist()} for l in model.conv_layers
        ],
        "dense": {"weights": model.dense.weights.tolist(), "bias": model.dense.bias.tolist()},
        "pool": model.pool,
        "dropout_rate": model.dropout_rate,
        "l2_lambda": model.l2_lambda,
    }


def _checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path, model: GcnnModel, extra: dict | None = None) -> None:
    """Versioned JSON checkpoint; nested lists are row-major (C order).

    `extra` rides along untouched (standardizer statistics, graph settings);
    it must be JSON-serializable.  A sha256 over the canonical payload guards
    corruption, and nothing time- or path-dependent is stored, so identical
    models produce byte-identical files.
    """
    payload = {"model": _model_payload(model), "extra": extra if extra is not None else {}}
    doc = {
        "version": CHECKPOINT_VERSION,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path):
    """Returns (model, extra) or raises CheckpointError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    if not isinstance(doc, dict) or "version" not in doc:
        raise CheckpointError("not a checkpoint file")
    if doc["version"] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc['version']!r}")
    payload = doc.get("payload")
    if payload is None or "checksum" not in doc:
        raise CheckpointError("checkpoint missing payload or checksum")
    if _checksum(payload) != doc["checksum"]:
        raise CheckpointError("checksum mismatch: checkpoint is corrupt")
    try:
        m = payload["model"]
        layers = [
            GraphConvLayer(theta=np.array(l["theta"]), bias=np.array(l["bias"]))
            for l in m["conv_layers"]
        ]
        dense = DenseLayer(
            weights=np.array(m["dense"]["weights"]), bias=np.array(m["dense"]["bias"])
        )
        model = GcnnModel(
            layers,
            dense,
            pool=m["pool"],
            dropout_rate=m["dropout_rate"],
            l2_lambda=m["l2_lambda"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
    return model, payload.get("extra", {})
