"""Benchmark of the spectral-pattern pipeline, one workload per call.

    python3 bench/run.py --workload train --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each call makes the workload's
inputs from --seed in one child process and then runs the workload in its
own fresh, single-threaded process (bench/worker.py).  The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
the end-to-end ones with --trace 0 and the per-layer ones with --trace 1.
The full result, with its run context, is kept under bench/out/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TIME_LIMIT = 170.0  # seconds for one call, all children included

from spans import PER_LAYER, unit_of
from worker import THREAD_VARS
from workloads import WORKLOADS

END_TO_END_UNITS = {
    "groups_per_s": "groups/s",
    "setup_s": "s",
    "accuracy": "fraction",
    "log_loss": "nats",
    "peak_rss_mb": "MiB",
}
class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _child(args: list[str], deadline: float) -> str:
    """Runs a child to its end (or kills it at the deadline) and returns
    its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + " ".join(args[:3]))
    try:
        done = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args[:3])} ran past the time limit") from exc
    if done.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} exited {done.returncode}:\n{done.stderr[-4000:]}")
    return done.stdout


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # a plain source checkout: the source digest stands in
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT
    if not (SRC / "spectral_pattern" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'spectral_pattern'}; run from a source checkout")
    work = OUT / f"run-{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
        _child([str(HERE / "worker.py"), "gen", *common], deadline)
        _child(
            [str(HERE / "worker.py"), "run", *common, "--seconds", str(seconds), "--trace", str(int(trace))],
            deadline,
        )
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        inputs = json.loads((work / "inputs.json").read_text(encoding="utf-8"))
        result["context"] = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "git_sha": _git_sha(),
            "source_sha256": _source_digest(),
            "python": sys.version.split()[0],
            "numpy": result.pop("numpy_version"),
            "thread_caps": result.pop("thread_caps"),
            "inputs_sha256": inputs,
            "settings": dataclasses.asdict(WORKLOADS[workload]),
        }
        results = OUT / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = f"{workload}-s{seed}-t{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        (results / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
        if trace:
            shutil.copyfile(work / "spans.json.gz", results / f"{stem}.spans.json.gz")
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summary_line(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {m: {"value": result["per_layer"][m], "unit": unit_of(m)} for m, _, _ in PER_LAYER}
    else:
        metrics = {m: {"value": result[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def _report(result: dict) -> None:
    err = sys.stderr
    for m, u in END_TO_END_UNITS.items():
        print(f"  {m:<14} {result[m]:>14.6g} {u}", file=err)
    print(
        f"  passes {result['passes']}, groups/s per pass {[round(r, 1) for r in result['rates']]}; "
        f"setup reps {[round(t, 4) for t in result['setup_times']]}, "
        f"imports {[round(t, 4) for t in result['import_times']]}",
        file=err,
    )
    for e in result["pass_errors"][:5]:
        print(f"  FAILED {e}", file=err)
    for p in result["problems"][:20]:
        print(f"  PROBLEM {p}", file=err)
    for m, v in result.get("per_layer", {}).items():
        print(f"  {m:<28} {v:>14.6g} {unit_of(m)}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    _report(result)
    print(json.dumps({"context": result["context"]}))
    print(json.dumps(summary_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
