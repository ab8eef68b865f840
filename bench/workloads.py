"""Workload settings and seeded input generation.

Inputs are made by the program's own synthetic generator and written as
NDJSON in the documented data format.  Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

SPLIT = (0.6, 0.2, 0.2)
SPLIT_SEED = 0
CHANNELS = (24, 24, 24, 24)
ORDER = 3  # K, the polynomial order of every graph convolution
BATCH = 32
# The predict checkpoint is trained on a corpus from this fixed seed, so the
# model is the same in every run and only the predicted corpus follows --seed.
CHECKPOINT_CORPUS_SEED = 1_000_003


@dataclass(frozen=True)
class Workload:
    name: str
    groups: int
    sizes: tuple[int, int]
    setup_reps: int  # set-up repetitions (each with one import probe) per run
    min_passes: int


@dataclass(frozen=True)
class TrainWorkload(Workload):
    epochs: int
    # training seeds 0 .. models-1; accuracy and log_loss average over them
    models: int


@dataclass(frozen=True)
class PredictWorkload(Workload):
    checkpoint_groups: int
    checkpoint_epochs: int


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload("train", groups=600, sizes=(20, 40), setup_reps=3, min_passes=6, epochs=3, models=6),
        PredictWorkload(
            "predict",
            groups=400,
            sizes=(20, 40),
            setup_reps=15,
            min_passes=3,
            checkpoint_groups=600,
            checkpoint_epochs=3,
        ),
    )
}


def synthetic_groups(data, n_groups: int, sizes, seed: int) -> list[dict]:
    """Group records from the program's generator, in the NDJSON format."""
    ds = data.generate_synthetic_dataset(n_groups, tuple(sizes), seed=seed)
    records = []
    for g in ds.groups:
        obj = {"id": g.group_id, "label": g.label}
        obj["buildings"] = [{"ring": [[p.x, p.y] for p in poly.ring]} for poly in g.buildings]
        records.append(obj)
    return records


def write_ndjson(path: Path, records) -> str:
    """Writes one record per line and returns the sha256 of the bytes."""
    text = "".join(json.dumps(r) + "\n" for r in records)
    raw = text.encode("utf-8")
    path.write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def read_ndjson(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def make_inputs(w: Workload, seed: int, work: Path) -> dict:
    """Writes the workload's inputs into `work`; returns their digests.

    Training workloads get `corpus.ndjson`.  `predict` gets the unlabeled
    `corpus.ndjson`, the withheld `labels.json`, and `model.json`, trained
    here by the `train` command on a corpus of its own.
    """
    from spectral_pattern import cli, data

    work.mkdir(parents=True, exist_ok=True)
    records = synthetic_groups(data, w.groups, w.sizes, seed)
    digests = {}
    if isinstance(w, TrainWorkload):
        digests["corpus"] = write_ndjson(work / "corpus.ndjson", records)
        return digests

    labels = [[r["id"], r.pop("label")] for r in records]
    digests["corpus"] = write_ndjson(work / "corpus.ndjson", records)
    (work / "labels.json").write_text(json.dumps(labels), encoding="utf-8")
    ck_records = synthetic_groups(data, w.checkpoint_groups, w.sizes, CHECKPOINT_CORPUS_SEED)
    digests["checkpoint_corpus"] = write_ndjson(work / "checkpoint-corpus.ndjson", ck_records)
    argv = [
        "train",
        "--data", str(work / "checkpoint-corpus.ndjson"),
        "--checkpoint", str(work / "model.json"),
        "--epochs", str(w.checkpoint_epochs),
        "--k", str(ORDER),
        "--seed", "0",
    ]
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"training the predict checkpoint exited {code}")
    digests["checkpoint"] = hashlib.sha256((work / "model.json").read_bytes()).hexdigest()
    return digests
