"""Spans around the program's public functions, recorded from outside it.

`Tracer.installed()` replaces module attributes with timing wrappers and
puts the originals back on exit.  A wrapper records (label, phase, start,
end, parent, items) in memory; nothing is written until the run ends.  A
function that no longer exists is skipped, so its metrics read zero.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
from time import perf_counter

# (metric, span label, what is summed): "self" is the span's duration minus
# its traced children, "calls" counts spans, "items" sums a per-call count.
PER_LAYER = (
    ("data.load_s", "data.load", "self"),
    ("data.samples_s", "data.samples", "self"),
    ("geometry.features_s", "geometry.features", "self"),
    ("geometry.features_calls", "geometry.features", "calls"),
    ("graph.delaunay_s", "graph.delaunay", "self"),
    ("graph.delaunay_points", "graph.delaunay", "items"),
    ("graph.build_self_s", "graph.build", "self"),
    ("graph.laplacian_s", "graph.laplacian", "self"),
    ("spectral.power_stack_s", "spectral.power_stack", "self"),
    ("spectral.power_stack_calls", "spectral.power_stack", "calls"),
    ("nn.train_forward_s", "nn.train_forward", "self"),
    ("nn.train_forward_calls", "nn.train_forward", "calls"),
    ("nn.backward_s", "nn.backward", "self"),
    ("nn.backward_calls", "nn.backward", "calls"),
    ("nn.optimizer_s", "nn.optimizer", "self"),
    ("nn.optimizer_calls", "nn.optimizer", "calls"),
    ("nn.metrics_forward_s", "nn.metrics_forward", "self"),
    ("nn.metrics_forward_calls", "nn.metrics_forward", "calls"),
    ("nn.train_self_s", "nn.train", "self"),
    ("nn.epochs", "nn.train", "items"),
    ("nn.predict_forward_s", "nn.predict_forward", "self"),
    ("nn.checkpoint_load_s", "nn.checkpoint_load", "self"),
    ("cli.predict_self_s", "cli.predict", "self"),
)


def unit_of(metric: str) -> str:
    return "s" if metric.endswith("_s") else "count"


def _forward_label(parent_label, args, kwargs):
    # GcnnModel.forward(self, L, X, training=False, ...): which caller it
    # serves decides the layer it is charged to
    if parent_label == "nn.train":
        training = kwargs.get("training", args[3] if len(args) > 3 else False)
        return "nn.train_forward" if training else "nn.metrics_forward"
    if parent_label == "cli.predict":
        return "nn.predict_forward"
    return "nn.forward_other"


def _patch_list(modules):
    """(owner, attribute, label, items) for every traced function."""
    cli, data, graph, nn = modules["cli"], modules["data"], modules["graph"], modules["nn"]
    n_points = lambda args, kwargs, result: len(args[0])
    n_epochs = lambda args, kwargs, result: len(result[1])
    return [
        (data, "load_dataset", "data.load", None),
        (cli, "load_dataset", "data.load", None),
        (data, "prepare_training_samples", "data.samples", None),
        (data, "prepare_inference_samples", "data.samples", None),
        (cli, "prepare_inference_samples", "data.samples", None),
        (data, "build_spatial_graph", "graph.build", None),
        (graph, "delaunay_triangulate", "graph.delaunay", n_points),
        (graph, "extract_features", "geometry.features", None),
        (data, "laplacian", "graph.laplacian", None),
        (nn, "power_stack", "spectral.power_stack", None),
        (getattr(nn, "GcnnModel", None), "forward", _forward_label, None),
        (nn, "backward", "nn.backward", None),
        (nn, "optimizer_step", "nn.optimizer", None),
        (nn, "train", "nn.train", n_epochs),
        (nn, "load_checkpoint", "nn.checkpoint_load", None),
        (cli, "load_checkpoint", "nn.checkpoint_load", None),
        (cli, "cmd_predict", "cli.predict", None),
    ]


class Tracer:
    """In-memory span recorder.  `phase` tags spans as "setup" or "main";
    spans recorded while it is None are kept but charged to no metric."""

    def __init__(self):
        self.spans: list[list] = []  # [label, phase, start, end, parent, items]
        self.phase: str | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, label, items):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            name = label
            if callable(label):
                name = label(tracer.spans[parent][0] if parent >= 0 else None, args, kwargs)
            span = [name, tracer.phase, perf_counter(), 0.0, parent, 0]
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            span[5] = items(args, kwargs, result) if items else 1
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        undo = []
        try:
            for owner, attr, label, items in _patch_list(modules):
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(original, label, items))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def per_layer(self, rounds: dict[str, int]) -> dict[str, float]:
        """Every PER_LAYER metric per round: each phase's total divided by
        the number of rounds that phase ran (`rounds[phase]`)."""
        child = [0.0] * len(self.spans)
        for label, phase, start, end, parent, items in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[tuple[str, str], float] = {}
        for i, (label, phase, start, end, parent, items) in enumerate(self.spans):
            if phase not in rounds:
                continue
            for kind, value in (("self", end - start - child[i]), ("calls", 1), ("items", items)):
                key = (label, kind)
                totals[key] = totals.get(key, 0.0) + value / rounds[phase]
        out = {}
        for metric, label, kind in PER_LAYER:
            value = totals.get((label, kind), 0.0)
            out[metric] = value if kind == "self" else round(value, 6)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["label", "phase", "start", "end", "parent", "items"], "spans": self.spans},
                fh,
            )
