"""One workload in one fresh process: `gen` writes the seeded inputs,
`run` sets up, measures, checks and writes `result.json`.

Started by run.py with SPECTRAL_PATTERN_THREADS=1 and the BLAS thread
caps set in its environment, so numpy is single-threaded from import on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import (
    BATCH, CHANNELS, ORDER, SPLIT, SPLIT_SEED, WORKLOADS,
    PredictWorkload, TrainWorkload, Workload, make_inputs, read_ndjson,
)

ACCURACY_GATE = 0.95  # the C6 acceptance gate
REFERENCE_GROUPS = 32  # groups checked against the plain-numpy forward pass
IMPORT_PROBE = "import time; t = time.perf_counter(); import spectral_pattern.cli; print(time.perf_counter() - t)"
THREAD_VARS = (
    "SPECTRAL_PATTERN_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _modules():
    from spectral_pattern import cli, data, graph, nn

    return {"cli": cli, "data": data, "graph": graph, "nn": nn}


def _params_digest(model) -> str:
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(p.tobytes())
    return h.hexdigest()


class _NoTrace:
    phase = None

    def installed(self, modules):
        return contextlib.nullcontext()


def _import_time() -> float:
    """Time of `import spectral_pattern.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, check=True, timeout=60
    )
    return float(done.stdout)


def _measure(tracer, w: Workload, seconds: float, setup, one_pass, after_pass) -> dict:
    """Runs whole passes until `seconds` have passed and at least
    `w.min_passes` are done.  `one_pass(k)` returns the groups it pushed
    through, or None when it failed; an exception raised in it fails the
    pass too, and is kept in `pass_errors`.

    The host's speed drifts by tens of percent over seconds to minutes, so
    the set-up repetitions and import probes are spread evenly over the run
    instead of bunched at its start; the first one builds what the passes
    need."""
    setup_times, import_times, rates, errors = [], [], [], []

    def set_up():
        import_times.append(_import_time())
        tracer.phase = "setup"
        start = perf_counter()
        setup()
        setup_times.append(perf_counter() - start)
        tracer.phase = None

    set_up()
    begin = perf_counter()
    while len(rates) < w.min_passes or perf_counter() - begin < seconds:
        due = seconds * len(setup_times) / w.setup_reps
        if len(setup_times) < w.setup_reps and perf_counter() - begin >= due:
            set_up()
        tracer.phase = "main"
        start = perf_counter()
        try:
            done = one_pass(len(rates))
        except Exception as exc:  # a fault of the program fails the pass, not the run
            done = None
            errors.append(f"pass {len(rates) + 1}: {type(exc).__name__}: {exc}")
        elapsed = perf_counter() - start
        tracer.phase = None
        rates.append(float("nan") if done is None else done / elapsed)
        after_pass(len(rates) - 1, done is not None)
    while len(setup_times) < w.setup_reps:
        set_up()
    return {"setup_times": setup_times, "import_times": import_times, "rates": rates, "pass_errors": errors}


def run_training(w: TrainWorkload, work: Path, seconds: float, tracer, m) -> dict:
    data, graph, nn = m["data"], m["graph"], m["nn"]
    corpus = work / "corpus.ndjson"
    config = graph.GraphConfig()  # Delaunay, binary weights, scaled symmetric Laplacian
    state = {}

    def new_model(seed):
        return nn.build_model(feature_dim=5, conv_channels=CHANNELS, order=ORDER, seed=seed)

    def setup():
        ds = data.split_dataset(data.load_dataset(corpus), SPLIT, SPLIT_SEED)
        state["splits"], _ = data.prepare_training_samples(ds, config)
        new_model(0)

    digests, probs = [], []

    def one_pass(k):
        seed = k % w.models
        model = new_model(seed)
        state["model"], history = nn.train(
            model, state["splits"], nn.TrainConfig(epochs=w.epochs, batch_size=BATCH, seed=seed)
        )
        return len(state["splits"]["train"]) * len(history)

    def after_pass(k, ok):
        model = state.pop("model", None)
        digests.append(_params_digest(model) if ok else None)
        if ok and k < w.models:
            probs.append([model.forward(s.laplacian, s.features) for s in state["splits"]["test"]])
            if k == 0:
                nn.save_checkpoint(work / "model.json", model)

    measured = _measure(tracer, w, seconds, setup, one_pass, after_pass)
    splits = state["splits"]
    return _measured(
        measured, len(splits["train"]) * w.epochs, digests,
        lambda: _check_training(w, work, config, splits, digests, probs, m),
    )


def _measured(measured, groups_per_pass, digests, check) -> dict:
    rates = measured["rates"]
    ok = [r for r in rates if r == r]
    return {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **measured,
        "passes": len(rates),
        "attempted": groups_per_pass * len(rates),
        "failed": groups_per_pass * (len(rates) - len(ok)),
        # work completed per second over the run: total groups ÷ total pass
        # time, which weighs every second of host drift equally
        "groups_per_s": len(ok) / sum(1.0 / r for r in ok) if ok else float("nan"),
        "setup_s": statistics.median(measured["import_times"]) + statistics.median(measured["setup_times"]),
        "digests": digests,
        "_check": check,
    }


def _check_training(w, work, config, splits, digests, probs, m) -> tuple[list[str], float, float]:
    import checks

    records = {r["id"]: r for r in read_ndjson(work / "corpus.ndjson")}
    problems = []
    for name in ("train", "val", "test"):
        for s in splits[name]:
            points = checks.group_centroids(records[s.sample_id])
            problems += checks.check_delaunay(s.sample_id, points, checks.edges_of(s.laplacian))
            problems += checks.check_laplacian(s.sample_id, s.laplacian)
    if not probs:
        return problems + ["no trained model"], float("nan"), float("nan")

    test = splits["test"]
    y = [m["data"].LABELS.index(records[s.sample_id]["label"]) for s in test]
    scores = [checks.accuracy_and_log_loss(p, y) for p in probs]
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))["payload"]["model"]
    for s, p in list(zip(test, probs[0]))[:REFERENCE_GROUPS]:
        want = checks.reference_probabilities(model, s.laplacian, s.features)
        problems += checks.check_probabilities(s.sample_id, want, p)
    for k, d in enumerate(digests):
        first = digests[k % w.models]
        if d is not None and first is not None and d != first:
            problems.append(f"pass {k + 1}: parameters differ from pass {k % w.models + 1} (same seed)")
    return (
        problems,
        statistics.fmean(a for a, _ in scores),
        statistics.fmean(l for _, l in scores),
    )


def run_predict(w: PredictWorkload, work: Path, seconds: float, tracer, m) -> dict:
    cli, nn = m["cli"], m["nn"]
    checkpoint = work / "model.json"
    corpus = work / "corpus.ndjson"
    out = work / "predictions.ndjson"
    n_groups = len(read_ndjson(corpus))
    argv = ["predict", "--checkpoint", str(checkpoint), "--data", str(corpus), "--out", str(out)]
    digests = []

    measured = _measure(
        tracer, w, seconds,
        lambda: nn.load_checkpoint(checkpoint),
        lambda k: n_groups if cli.main(argv) == 0 else None,
        lambda k, ok: digests.append(hashlib.sha256(out.read_bytes()).hexdigest() if ok else None),
    )
    return _measured(measured, n_groups, digests, lambda: _check_predict(w, work, digests, m))


def _check_predict(w, work, digests, m) -> tuple[list[str], float, float]:
    import checks

    data, graph = m["data"], m["graph"]
    doc = json.loads((work / "model.json").read_text(encoding="utf-8"))["payload"]
    extra = doc["extra"]
    labels = extra["labels"]
    records = read_ndjson(work / "corpus.ndjson")
    ids = [r["id"] for r in records]
    truth = dict(json.loads((work / "labels.json").read_text(encoding="utf-8")))

    if not any(digests):
        return ["no predict pass succeeded"], float("nan"), float("nan")
    lines = (work / "predictions.ndjson").read_text(encoding="utf-8").splitlines()
    problems, probs = checks.check_prediction_lines(lines, ids, labels)
    if problems or not probs:
        return problems or ["no predictions"], float("nan"), float("nan")
    accuracy, log_loss = checks.accuracy_and_log_loss(probs, [labels.index(truth[g]) for g in ids])

    std = data.Standardizer(mean=extra["standardizer"]["mean"], std=extra["standardizer"]["std"])
    config = graph.GraphConfig(**extra["graph"])
    samples = data.prepare_inference_samples(data.load_dataset(work / "corpus.ndjson").groups, std, config)
    for r, s in zip(records, samples):
        problems += checks.check_delaunay(r["id"], checks.group_centroids(r), checks.edges_of(s.laplacian))
        problems += checks.check_laplacian(r["id"], s.laplacian)
    for s, p in list(zip(samples, probs))[:REFERENCE_GROUPS]:
        want = checks.reference_probabilities(doc["model"], s.laplacian, s.features)
        problems += checks.check_probabilities(s.sample_id, want, p)
    versions = {d for d in digests if d is not None}
    if len(versions) > 1:
        problems.append(f"predict output differs between passes ({len(versions)} versions)")
    return problems, accuracy, log_loss


def run(w: Workload, work: Path, seconds: float, traced: bool) -> dict:
    """Sets up, measures and checks one workload; returns the result."""
    from spans import Tracer

    m = _modules()
    tracer = Tracer() if traced else _NoTrace()
    runner = run_training if isinstance(w, TrainWorkload) else run_predict
    with tracer.installed(m):
        result = runner(w, work, seconds, tracer, m)
    problems, accuracy, log_loss = result.pop("_check")()
    if not accuracy >= ACCURACY_GATE:
        problems.append(f"accuracy {accuracy!r} below the {ACCURACY_GATE} gate")
    result.update(
        accuracy=accuracy,
        log_loss=log_loss,
        problems=problems,
        numpy_version=sys.modules["numpy"].__version__,
        thread_caps={k: os.environ.get(k) for k in THREAD_VARS},
    )
    if traced:
        result["per_layer"] = tracer.per_layer({"setup": w.setup_reps, "main": result["passes"]})
        tracer.write(work / "spans.json.gz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("gen", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, type=Path)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.mode == "gen":
        digests = make_inputs(w, args.seed, args.work)
        (args.work / "inputs.json").write_text(json.dumps(digests), encoding="utf-8")
        return 0
    result = run(w, args.work, args.seconds, bool(args.trace))
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
