"""Command-line surface for the full pipeline.

Subcommands: generate, train, eval, predict, sweep-k, ablate-features.
Every command that takes --seed is fully reproducible: identical
invocations write identical artifacts (run single-threaded, e.g. with
SPECTRAL_PATTERN_THREADS=1, for bit-exact numerics).

Exit codes: 0 success, 2 a bad flag (usage error), 3 data or file problem,
4 numeric divergence, 1 any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import (
    LABELS,
    Standardizer,
    _SPLIT_NAMES,
    _check_ratios,
    _mask_indices,
    generate_synthetic_dataset,
    load_dataset,
    prepare_inference_samples,
    save_dataset,
    split_dataset,
    split_graphs,
    training_samples,
)
from .errors import (
    CheckpointError,
    DataError,
    EmptySplit,
    NumericError,
    SpectralPatternError,
    UsageError,
)
from .geometry import FEATURE_NAMES
from .graph import LAPLACIAN_KINDS, STRUCTURES, WEIGHTINGS, GraphConfig
from .nn import (
    OPTIMIZERS,
    TrainConfig,
    _inference_probs,
    _json_numbers,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


@dataclass
class ExperimentReport:
    """One row per completed configuration; stable, documented schema."""

    columns: tuple[str, ...]
    rows: list[tuple]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def to_table(self) -> str:
        cells = [tuple(str(c) for c in row) for row in (self.columns, *self.rows)]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def _write_report(report: ExperimentReport, out_path) -> None:
    print(report.to_table())
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report.to_csv())
        print(f"report written to {out_path}")


# ---------------------------------------------------------------------------
# Shared pipeline plumbing


def _parse_ratios(text: str) -> tuple[float, ...]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--split must be three comma-separated numbers, got {text!r}") from None
    if len(parts) != 3:
        raise UsageError(f"--split must have exactly three parts, got {text!r}")
    try:
        return _check_ratios(parts)
    except ValueError as exc:
        raise UsageError(f"{exc} (--split {text!r})") from None


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise UsageError(f"--seed must be at least 0, got {seed}")


def _graph_config(args) -> GraphConfig:
    return GraphConfig(structure=args.structure, weighting=args.weighting, laplacian=args.laplacian)


# the checkpoint's "train" block: these flags, under their own names
_TRAIN_FLAGS = (
    "k", "layers", "channels", "lr", "epochs", "batch", "dropout", "l2", "optimizer", "seed",
)

# the flag of each setting whose check `_runs` reports as a usage error
_SETTING_FLAGS = {
    "batch_size": "--batch",
    "epochs": "--epochs",
    "learning_rate": "--lr",
    "dropout_rate": "--dropout",
    "l2_lambda": "--l2",
}


def _runs(args, variants, tested=False):
    """Trains one model per (name, K, feature mask) variant on the split and
    graphs the flags ask for; yields (model, history, samples, standardizer,
    seconds) per variant, in order.

    Every flag is checked, and every model and the TrainConfig made, before
    the data file is read, so a bad flag fails at once.  A caller that
    scores each model on the test split sets `tested`, so an empty test
    split fails before any training.  The graphs are built once, since
    neither K nor a mask changes them.  A failure is prefixed with its
    variant's name, if any.
    """
    _check_seed(args.seed)
    ratios = _parse_ratios(args.split)
    config = _graph_config(args)
    try:
        channels = (args.channels,) * args.layers
    except OverflowError:
        raise UsageError(f"--layers is too large, got {args.layers}") from None
    try:
        models = [
            build_model(
                feature_dim=len(_mask_indices(mask)),
                conv_channels=channels,
                order=order,
                dropout_rate=args.dropout,
                l2_lambda=args.l2,
                seed=args.seed,
            )
            for _, order, mask in variants
        ]
        train_config = TrainConfig(
            learning_rate=args.lr,
            epochs=args.epochs,
            batch_size=args.batch,
            seed=args.seed,
            optimizer=args.optimizer,
        )
    except ValueError as exc:  # "<setting> must be ...", said of its flag
        message = str(exc)
        setting = message.split(" ", 1)[0]
        raise UsageError(_SETTING_FLAGS.get(setting, setting) + message[len(setting):]) from None
    groups = split_dataset(load_dataset(args.data), ratios, args.seed)
    if tested and not groups["test"]:
        raise EmptySplit(f"the test split of {args.data} is empty")
    graphs = split_graphs(groups, config)
    for (name, _, mask), model in zip(variants, models):
        start = time.perf_counter()
        try:
            samples, standardizer = training_samples(groups, graphs, mask)
            model, history = train(model, samples, train_config)
        except SpectralPatternError as exc:
            if name:
                exc.args = (f"{name}: {exc}",)
            raise
        yield model, history, samples, standardizer, time.perf_counter() - start


@contextlib.contextmanager
def _checkpoint_settings():
    """Turns a missing or malformed `extra` entry into a CheckpointError."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint settings missing or malformed ({type(exc).__name__}: {exc})"
        ) from exc


def _restore(checkpoint_path):
    model, extra = load_checkpoint(checkpoint_path)
    with _checkpoint_settings():
        stats = extra["standardizer"]
        std = Standardizer(
            mean=_json_numbers("standardizer mean", stats["mean"], 1),
            std=_json_numbers("standardizer std", stats["std"], 1),
        )
        graph = {**extra["graph"]}
        # older checkpoints carry "scaled": true; the network reads only the scaled Laplacian
        scaled = graph.pop("scaled", True)
        if scaled is not True:
            raise ValueError(f"graph scaled must be true, got {scaled!r}")
        config = GraphConfig(**graph)
        # eval scores and predict names classes in the data's label order
        labels = extra.get("labels", list(LABELS))
        if labels != list(LABELS):
            raise ValueError(f"labels must be {list(LABELS)!r}, got {labels!r}")
        # the standardizer's statistics and the model's inputs are in this order
        names = extra.get("feature_names", list(FEATURE_NAMES))
        if names != list(FEATURE_NAMES):
            raise ValueError(f"feature_names must be {list(FEATURE_NAMES)!r}, got {names!r}")
    if model.n_classes != len(LABELS):
        raise CheckpointError(
            f"checkpoint model has {model.n_classes} classes, the data has {len(LABELS)}"
        )
    if not (std.mean.shape[0] == len(FEATURE_NAMES) == model.feature_dim):
        raise CheckpointError(
            f"checkpoint standardizer has {std.mean.shape[0]} features and the model expects "
            f"{model.feature_dim}, but inference gives every group's {len(FEATURE_NAMES)}"
        )
    return model, extra, std, config


def _write_history_csv(history, path) -> None:
    report = ExperimentReport(
        columns=("epoch", "train_loss", "train_accuracy", "val_loss", "val_accuracy"),
        rows=[
            (e, history.train_loss[e], history.train_accuracy[e],
             history.val_loss[e], history.val_accuracy[e])
            for e in range(len(history))
        ],
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv())


# ---------------------------------------------------------------------------
# Commands


def cmd_generate(args) -> int:
    if args.groups < 2 or args.groups % 2:
        raise UsageError(f"--groups must be even and at least 2, got {args.groups}")
    if not 3 <= args.size_min <= 128:
        raise UsageError(f"--size-min must lie in [3, 128], got {args.size_min}")
    if not args.size_min <= args.size_max <= 128:
        raise UsageError(f"--size-max must lie in [--size-min, 128], got {args.size_max}")
    _check_seed(args.seed)
    dataset = generate_synthetic_dataset(
        n_groups=args.groups,
        size_range=(args.size_min, args.size_max),
        seed=args.seed,
    )
    save_dataset(dataset, args.out)
    n_buildings = sum(len(g.buildings) for g in dataset.groups)
    print(f"wrote {len(dataset)} groups ({n_buildings} buildings) to {args.out}")
    return _EXIT_OK


def cmd_train(args) -> int:
    [(model, history, _, standardizer, _)] = _runs(args, [("", args.k, None)])
    extra = {
        "labels": list(LABELS),
        "feature_names": list(FEATURE_NAMES),
        "graph": asdict(_graph_config(args)),
        "split": {"ratios": list(_parse_ratios(args.split)), "seed": args.seed},
        "standardizer": {"mean": standardizer.mean.tolist(), "std": standardizer.std.tolist()},
        "train": {flag: getattr(args, flag) for flag in _TRAIN_FLAGS},
    }
    save_checkpoint(args.checkpoint, model, extra)
    if args.history:
        _write_history_csv(history, args.history)
    print(
        f"trained {len(history)} epochs (best {history.best_epoch}); "
        f"val accuracy {history.val_accuracy[history.best_epoch]:.4f}; checkpoint {args.checkpoint}"
    )
    return _EXIT_OK


def cmd_eval(args) -> int:
    model, extra, std, config = _restore(args.checkpoint)
    dataset = load_dataset(args.data)
    # rebuild the training-time split so held-out means held-out
    with _checkpoint_settings():
        split = extra["split"]
        ratios = _json_numbers("split ratios", split["ratios"], 1)
        splits = split_dataset(dataset, tuple(ratios), _json_numbers("split seed", split["seed"], 0))
    if not splits[args.split]:
        raise EmptySplit(f"the {args.split} split of {args.data} is empty")
    samples = prepare_inference_samples(splits[args.split], std, config)
    accuracy, confusion = evaluate(model, samples)
    print(f"{args.split} accuracy: {accuracy:.4f} ({len(samples)} groups)")
    print("confusion (rows = true, cols = predicted):")
    width = max(len(l) for l in LABELS)
    for i, lab in enumerate(LABELS):
        counts = "  ".join(f"{int(c):5d}" for c in confusion[i])
        print(f"  {lab.rjust(width)}  {counts}")
    return _EXIT_OK


def cmd_predict(args) -> int:
    model, _, std, config = _restore(args.checkpoint)
    dataset = load_dataset(args.data)
    samples = prepare_inference_samples(dataset.groups, std, config)
    lines = []
    for sample, probs in zip(samples, _inference_probs(model, samples)):
        obj = {
            "id": sample.sample_id,
            "probabilities": {lab: float(p) for lab, p in zip(LABELS, probs)},
            "prediction": LABELS[int(np.argmax(probs))],
        }
        lines.append(json.dumps(obj))
    text = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(lines)} predictions to {args.out}")
    else:
        sys.stdout.write(text)
    return _EXIT_OK


def cmd_sweep_k(args) -> int:
    try:
        k_values = sorted({int(x) for x in args.k_values.split(",")})
    except ValueError:
        raise UsageError(
            f"--k-values must be comma-separated integers, got {args.k_values!r}"
        ) from None
    if any(not 1 <= k <= 6 for k in k_values):
        raise UsageError(f"--k-values must lie in [1, 6], got {args.k_values!r}")
    rows = []
    runs = _runs(args, [(f"k={k}", k, None) for k in k_values])
    for k, (_, history, _, _, seconds) in zip(k_values, runs):
        best = history.best_epoch
        rows.append((k, f"{history.val_accuracy[best]:.4f}", f"{history.val_loss[best]:.6f}",
                     best, f"{seconds:.2f}"))
    report = ExperimentReport(
        columns=("k", "val_accuracy", "val_loss", "best_epoch", "seconds"), rows=rows
    )
    _write_report(report, args.out)
    return _EXIT_OK


def cmd_ablate_features(args) -> int:
    if args.mode == "only-one":
        masks = [(i,) for i in range(len(FEATURE_NAMES))]
    else:
        masks = [tuple(j for j in range(len(FEATURE_NAMES)) if j != i)
                 for i in range(len(FEATURE_NAMES))]
    rows = []
    variants = [(f"feature={name}", args.k, mask) for name, mask in zip(FEATURE_NAMES, masks)]
    for name, mask, run in zip(FEATURE_NAMES, masks, _runs(args, variants, tested=True)):
        model, history, splits, _, seconds = run
        test_acc, _ = evaluate(model, splits["test"])
        rows.append((name, len(mask), f"{history.val_accuracy[history.best_epoch]:.4f}",
                     f"{test_acc:.4f}", f"{seconds:.2f}"))
    report = ExperimentReport(
        columns=("feature", "n_columns", "val_accuracy", "test_accuracy", "seconds"), rows=rows
    )
    _write_report(report, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_train_flags(p: argparse.ArgumentParser, with_k: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0, help="split, init, and shuffle seed")
    p.add_argument("--split", default="0.6,0.2,0.2", help="train,val,test ratios")
    if with_k:
        p.add_argument("--k", type=int, default=3, help="polynomial filter order (hop radius K-1)")
    p.add_argument("--layers", type=int, default=4, help="number of graph convolution layers")
    p.add_argument("--channels", type=int, default=24, help="channels per convolution layer")
    p.add_argument("--structure", choices=STRUCTURES, default="dt")
    p.add_argument("--weighting", choices=WEIGHTINGS, default="binary")
    p.add_argument("--laplacian", choices=LAPLACIAN_KINDS, default="sym")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32, help="mini-batch size")
    p.add_argument("--dropout", type=float, default=0.5, help="dropout on the pooled embedding")
    p.add_argument("--l2", type=float, default=5e-4, help="L2 penalty on weights")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="adam")


def _command(sub, name: str, func, **kwargs) -> argparse.ArgumentParser:
    """The subcommand `name`, run by `func`; it takes each flag only by its
    full name, so `--chan` is refused rather than read as `--channels`."""
    p = sub.add_parser(name, allow_abbrev=False, **kwargs)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-pattern",
        description="Classify building-group layouts as regular or irregular "
        "with a spectral graph convolutional network.",
        epilog="exit codes: 0 ok, 2 usage, 3 data/file, 4 numeric divergence, 1 other",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = _command(sub, "generate", cmd_generate, help="write a synthetic NDJSON dataset")
    p.add_argument("--out", required=True, help="output NDJSON path")
    p.add_argument("--groups", type=int, default=600, help="number of groups (even)")
    p.add_argument("--size-min", type=int, default=20, help="min buildings per group")
    p.add_argument("--size-max", type=int, default=40, help="max buildings per group")
    p.add_argument("--seed", type=int, default=42)

    p = _command(sub, "train", cmd_train, help="fit a classifier and save a checkpoint")
    p.add_argument("--data", required=True, help="NDJSON dataset path")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--history", help="optional CSV of per-epoch metrics")
    _add_train_flags(p)

    p = _command(sub, "eval", cmd_eval, help="accuracy and confusion matrix on a held-out split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="the dataset the model was trained on")
    p.add_argument("--split", choices=_SPLIT_NAMES, default="test")

    p = _command(sub, "predict", cmd_predict, help="per-group probabilities as NDJSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="NDJSON groups (labels optional)")
    p.add_argument("--out", help="output path (default: stdout)")

    p = _command(
        sub, "sweep-k", cmd_sweep_k,
        help="train once per filter order and report validation accuracy",
        epilog="CSV schema: k,val_accuracy,val_loss,best_epoch,seconds",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.add_argument("--k-values", default="1,2,3,4,5,6", help="comma-separated orders in [1,6]")
    _add_train_flags(p, with_k=False)

    p = _command(
        sub, "ablate-features", cmd_ablate_features,
        help="train per feature subset (mask applied before standardization)",
        epilog="CSV schema: feature,n_columns,val_accuracy,test_accuracy,seconds",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.add_argument("--mode", choices=("only-one", "all-but-one"), default="only-one")
    _add_train_flags(p)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code is not None else _EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except (SpectralPatternError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
