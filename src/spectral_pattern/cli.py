"""Command-line surface for the full pipeline.

Subcommands: generate, train, eval, predict, sweep-k, ablate-features.
Every command that takes --seed is fully reproducible: identical
invocations write identical artifacts (run single-threaded, e.g. with
SPECTRAL_PATTERN_THREADS=1, for bit-exact numerics).

Exit codes: 0 success, 2 usage error, 3 data or file problem,
4 numeric divergence, 1 any other toolkit error.
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
    _mask_indices,
    generate_synthetic_dataset,
    load_dataset,
    prepare_inference_samples,
    prepare_training_samples,
    save_dataset,
    split_dataset,
)
from .errors import CheckpointError, DataError, NumericError, SpectralPatternError
from .geometry import FEATURE_NAMES
from .graph import GraphConfig
from .nn import (
    TrainConfig,
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
        raise ValueError(f"--split must be three comma-separated numbers, got {text!r}")
    if len(parts) != 3:
        raise ValueError(f"--split must have exactly three parts, got {text!r}")
    return parts


def _train_once(dataset, args, order: int, feature_mask=None):
    """Split -> graphs -> model -> fit.  Returns everything a command needs.

    The model and the training settings are checked before any graph is
    built, so a bad flag fails at once.
    """
    ds = split_dataset(dataset, _parse_ratios(args.split), args.seed)
    config = GraphConfig(
        structure=args.structure, weighting=args.weighting, laplacian=args.laplacian
    )
    model = build_model(
        feature_dim=len(_mask_indices(feature_mask)),
        conv_channels=(args.channels,) * args.layers,
        order=order,
        dropout_rate=args.dropout,
        l2_lambda=args.l2,
        seed=args.seed,
    )
    train_config = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch,
        seed=args.seed,
        optimizer=args.optimizer,
    )
    splits, standardizer = prepare_training_samples(ds, config, feature_mask)
    model, history = train(model, splits, train_config)
    return ds, config, splits, standardizer, model, history


def _checkpoint_extra(args, config: GraphConfig, standardizer, feature_mask) -> dict:
    mask = list(feature_mask) if feature_mask is not None else None
    return {
        "labels": list(LABELS),
        "feature_names": list(FEATURE_NAMES),
        "feature_mask": mask,
        "graph": asdict(config),
        "split": {"ratios": list(_parse_ratios(args.split)), "seed": args.seed},
        "standardizer": {
            "mean": standardizer.mean.tolist(),
            "std": standardizer.std.tolist(),
        },
        "train": {
            "k": args.k,
            "layers": args.layers,
            "channels": args.channels,
            "lr": args.lr,
            "epochs": args.epochs,
            "batch": args.batch,
            "dropout": args.dropout,
            "l2": args.l2,
            "optimizer": args.optimizer,
            "seed": args.seed,
        },
    }


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
            mean=np.array(stats["mean"], dtype=float),
            std=np.array(stats["std"], dtype=float),
        )
        config = GraphConfig(**extra["graph"])
        mask = extra["feature_mask"]
        n_columns = len(_mask_indices(mask))
        labels = extra.get("labels", list(LABELS))
        if not (
            isinstance(labels, list)
            and len(labels) == model.n_classes
            and all(isinstance(lab, str) and lab for lab in labels)
            and len(set(labels)) == len(labels)
        ):
            raise ValueError(
                f"labels must be {model.n_classes} distinct non-empty strings, got {labels!r}"
            )
    if not (std.mean.shape[0] == n_columns == model.feature_dim):
        raise CheckpointError(
            f"checkpoint standardizer has {std.mean.shape[0]} features and its mask "
            f"selects {n_columns}, but the model expects {model.feature_dim}"
        )
    return model, extra, std, config, mask, labels


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
    dataset = load_dataset(args.data)
    _, config, splits, standardizer, model, history = _train_once(dataset, args, order=args.k)
    val_acc, _ = evaluate(model, splits["val"])
    save_checkpoint(args.checkpoint, model, _checkpoint_extra(args, config, standardizer, None))
    if args.history:
        _write_history_csv(history, args.history)
    print(
        f"trained {len(history)} epochs (best {history.best_epoch}); "
        f"val accuracy {val_acc:.4f}; checkpoint {args.checkpoint}"
    )
    return _EXIT_OK


def cmd_eval(args) -> int:
    model, extra, std, config, mask, labels = _restore(args.checkpoint)
    dataset = load_dataset(args.data)
    # rebuild the training-time split so held-out means held-out
    with _checkpoint_settings():
        ds = split_dataset(dataset, tuple(extra["split"]["ratios"]), extra["split"]["seed"])
    groups = ds.split_groups(args.split)
    samples = prepare_inference_samples(groups, std, config, mask)
    accuracy, confusion = evaluate(model, samples)
    print(f"{args.split} accuracy: {accuracy:.4f} ({len(samples)} groups)")
    print("confusion (rows = true, cols = predicted):")
    width = max(len(l) for l in labels)
    for i, lab in enumerate(labels):
        counts = "  ".join(f"{int(c):5d}" for c in confusion[i])
        print(f"  {lab.rjust(width)}  {counts}")
    return _EXIT_OK


def cmd_predict(args) -> int:
    model, _, std, config, mask, labels = _restore(args.checkpoint)
    dataset = load_dataset(args.data)
    samples = prepare_inference_samples(dataset.groups, std, config, mask)
    lines = []
    for sample in samples:
        probs = model.forward(sample.laplacian, sample.features)
        obj = {
            "id": sample.sample_id,
            "probabilities": {lab: float(p) for lab, p in zip(labels, probs)},
            "prediction": labels[int(np.argmax(probs))],
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
    k_values = sorted({int(x) for x in args.k_values.split(",")})
    if any(not 1 <= k <= 6 for k in k_values):
        raise ValueError(f"--k-values must lie in [1, 6], got {args.k_values!r}")
    dataset = load_dataset(args.data)
    rows = []
    for k in k_values:
        start = time.perf_counter()
        try:
            _, _, splits, _, model, history = _train_once(dataset, args, order=k)
        except SpectralPatternError as exc:
            exc.args = (f"k={k}: {exc}",)
            raise
        seconds = time.perf_counter() - start
        val_acc, _ = evaluate(model, splits["val"])
        rows.append((k, f"{val_acc:.4f}", f"{history.val_loss[history.best_epoch]:.6f}",
                     history.best_epoch, f"{seconds:.2f}"))
    report = ExperimentReport(
        columns=("k", "val_accuracy", "val_loss", "best_epoch", "seconds"), rows=rows
    )
    _write_report(report, args.out)
    return _EXIT_OK


def cmd_ablate_features(args) -> int:
    dataset = load_dataset(args.data)
    rows = []
    for i, name in enumerate(FEATURE_NAMES):
        if args.mode == "only-one":
            mask = (i,)
        else:
            mask = tuple(j for j in range(len(FEATURE_NAMES)) if j != i)
        start = time.perf_counter()
        try:
            _, _, splits, _, model, _ = _train_once(dataset, args, order=args.k, feature_mask=mask)
        except SpectralPatternError as exc:
            exc.args = (f"feature={name}: {exc}",)
            raise
        seconds = time.perf_counter() - start
        val_acc, _ = evaluate(model, splits["val"])
        test_acc, _ = evaluate(model, splits["test"])
        rows.append((name, len(mask), f"{val_acc:.4f}", f"{test_acc:.4f}", f"{seconds:.2f}"))
    report = ExperimentReport(
        columns=("feature", "n_columns", "val_accuracy", "test_accuracy", "seconds"), rows=rows
    )
    _write_report(report, args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="split, init, and shuffle seed")
    p.add_argument("--split", default="0.6,0.2,0.2", help="train,val,test ratios")
    p.add_argument("--k", type=int, default=3, help="polynomial filter order (hop radius K-1)")
    p.add_argument("--layers", type=int, default=4, help="number of graph convolution layers")
    p.add_argument("--channels", type=int, default=24, help="channels per convolution layer")
    p.add_argument("--structure", choices=("dt", "mst"), default="dt")
    p.add_argument("--weighting", choices=("binary", "invdist", "gaussian"), default="binary")
    p.add_argument("--laplacian", choices=("comb", "sym"), default="sym")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch", type=int, default=32, help="mini-batch size")
    p.add_argument("--dropout", type=float, default=0.5, help="dropout on the pooled embedding")
    p.add_argument("--l2", type=float, default=5e-4, help="L2 penalty on weights")
    p.add_argument("--optimizer", choices=("adam", "sgd"), default="adam")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-pattern",
        description="Classify building-group layouts as regular or irregular "
        "with a spectral graph convolutional network.",
        epilog="exit codes: 0 ok, 2 usage, 3 data/file, 4 numeric divergence, 1 other",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate", help="write a synthetic NDJSON dataset")
    p.add_argument("--out", required=True, help="output NDJSON path")
    p.add_argument("--groups", type=int, default=600, help="number of groups (even)")
    p.add_argument("--size-min", type=int, default=20, help="min buildings per group")
    p.add_argument("--size-max", type=int, default=40, help="max buildings per group")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a classifier and save a checkpoint")
    p.add_argument("--data", required=True, help="NDJSON dataset path")
    p.add_argument("--checkpoint", required=True, help="output checkpoint path")
    p.add_argument("--history", help="optional CSV of per-epoch metrics")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy and confusion matrix on a held-out split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="the dataset the model was trained on")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="per-group probabilities as NDJSON")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="NDJSON groups (labels optional)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser(
        "sweep-k",
        help="train once per filter order and report validation accuracy",
        epilog="CSV schema: k,val_accuracy,val_loss,best_epoch,seconds",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.add_argument("--k-values", default="1,2,3,4,5,6", help="comma-separated orders in [1,6]")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser(
        "ablate-features",
        help="train per feature subset (mask applied before standardization)",
        epilog="CSV schema: feature,n_columns,val_accuracy,test_accuracy,seconds",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="optional CSV output path")
    p.add_argument("--mode", choices=("only-one", "all-but-one"), default="only-one")
    _add_train_flags(p)
    p.set_defaults(func=cmd_ablate_features)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code is not None else _EXIT_OK
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return _EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
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
    except SpectralPatternError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
