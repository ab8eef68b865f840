"""The package's import surface, each check in a fresh interpreter so that
no module this test process imported earlier can hide a missing import,
and the settings a caller can pass."""

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import spectral_pattern
from spectral_pattern import cli, data, graph, nn

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# every name `from spectral_pattern import ...` offers, by defining module
EXPORTS = {
    "geometry": ("Point2", "Polygon", "BuildingFeatures", "extract_features"),
    "graph": (
        "GraphConfig", "SpatialGraph", "LaplacianMatrix", "EigenSystem",
        "build_spatial_graph", "laplacian", "eigendecompose",
    ),
    "spectral": (
        "SpectralKernel", "PolynomialKernel", "gft", "igft",
        "kernel_from_polynomial", "spectral_convolve", "polynomial_convolve",
    ),
    "nn": ("GcnnModel", "GraphSample", "TrainConfig", "build_model", "train", "evaluate", "predict"),
    "data": (
        "BuildingGroup", "Dataset", "Standardizer", "generate_synthetic_dataset",
        "load_dataset", "save_dataset", "split_dataset",
    ),
}


def fresh_python(*args, **env):
    """Runs a new interpreter with warnings as errors, the package on its
    path, and no thread variable but those given."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(spectral_pattern.__file__).parent.parent)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        env={**base, **env}, capture_output=True, text=True, timeout=120,
    )


def test_thread_setting_reaches_every_thread_variable():
    code = f"import os, spectral_pattern; print(','.join(os.environ[v] for v in {THREAD_VARS!r}))"
    result = fresh_python("-c", code, SPECTRAL_PATTERN_THREADS="2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [",".join(["2"] * len(THREAD_VARS))]


def test_thread_setting_warns_when_numpy_came_first():
    result = fresh_python("-c", "import numpy, spectral_pattern", SPECTRAL_PATTERN_THREADS="1")
    assert result.returncode != 0
    assert "RuntimeWarning: SPECTRAL_PATTERN_THREADS=1 cannot take effect" in result.stderr


def test_thread_setting_is_silent_when_the_caps_already_match():
    caps = dict.fromkeys(THREAD_VARS, "1")
    code = "import numpy, spectral_pattern"
    result = fresh_python("-c", code, SPECTRAL_PATTERN_THREADS="1", **caps)
    assert result.returncode == 0, result.stderr


def test_thread_setting_is_silent_when_the_package_comes_first():
    result = fresh_python("-c", "import spectral_pattern, numpy", SPECTRAL_PATTERN_THREADS="1")
    assert result.returncode == 0, result.stderr


def test_every_export_is_its_defining_module_object():
    code = (
        "import importlib, spectral_pattern\n"
        f"for module, names in {EXPORTS!r}.items():\n"
        "    defining = importlib.import_module('spectral_pattern.' + module)\n"
        "    assert getattr(spectral_pattern, module) is defining, module\n"
        "    for name in names:\n"
        "        assert getattr(spectral_pattern, name) is getattr(defining, name), name\n"
        "assert spectral_pattern.errors is importlib.import_module('spectral_pattern.errors')\n"
    )
    result = fresh_python("-c", code)
    assert result.returncode == 0, result.stderr


def test_cli_runs_as_a_module_without_warnings():
    result = fresh_python("-m", "spectral_pattern.cli", "--help")
    assert result.returncode == 0, result.stderr
    assert "exit codes" in result.stdout


def test_settings_a_caller_can_pass_are_pinned():
    # a new setting, or one coming back, has to change this test too
    assert [f.name for f in dataclasses.fields(nn.TrainConfig)] == [
        "learning_rate", "epochs", "batch_size", "seed", "optimizer",
    ]
    assert list(inspect.signature(nn.build_model).parameters) == [
        "feature_dim", "conv_channels", "order", "n_classes", "dropout_rate", "l2_lambda", "seed",
    ]
    assert list(inspect.signature(nn.GcnnModel.__init__).parameters) == [
        "self", "conv_layers", "dense", "dropout_rate", "l2_lambda",
    ]
    # GcnnModel.forward is the network's one routine
    assert not hasattr(nn, "_probs") and not hasattr(nn, "_first_layer_stacks")
    assert list(inspect.signature(data.generate_synthetic_dataset).parameters) == [
        "n_groups", "size_range", "seed",
    ]
    assert not hasattr(data, "GeneratorProfile")
    assert list(inspect.signature(data.prepare_inference_samples).parameters) == [
        "groups", "standardizer", "graph_config",
    ]
    # a split is split_dataset's {"train", "val", "test"} group lists, not dataset state
    assert [f.name for f in dataclasses.fields(data.Dataset)] == ["groups"]
    assert list(inspect.signature(data.split_dataset).parameters) == ["dataset", "ratios", "seed"]
    assert list(inspect.signature(data.split_graphs).parameters) == ["splits", "graph_config"]
    assert list(inspect.signature(data.training_samples).parameters) == [
        "splits", "graphs", "feature_mask",
    ]
    assert list(inspect.signature(data.prepare_training_samples).parameters) == [
        "splits", "graph_config", "feature_mask",
    ]
    # the three graph flags; the network always reads the scaled Laplacian
    assert [f.name for f in dataclasses.fields(graph.GraphConfig)] == [
        "structure", "weighting", "laplacian",
    ]


def test_command_options_are_pinned():
    # a new flag, or one coming back, has to change this test too
    train_flags = [
        "--seed", "--split", "--k", "--layers", "--channels", "--structure", "--weighting",
        "--laplacian", "--lr", "--epochs", "--batch", "--dropout", "--l2", "--optimizer",
    ]
    expected = {
        "generate": ["--out", "--groups", "--size-min", "--size-max", "--seed"],
        "train": ["--data", "--checkpoint", "--history", *train_flags],
        "eval": ["--checkpoint", "--data", "--split"],
        "predict": ["--checkpoint", "--data", "--out"],
        "sweep-k": ["--data", "--out", "--k-values", *train_flags],
        "ablate-features": ["--data", "--out", "--mode", *train_flags],
    }
    help_action, commands = cli.build_parser()._actions  # no top-level option but --help
    assert help_action.option_strings == ["-h", "--help"]
    options = {
        name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, sub in commands.choices.items()
    }
    assert options == expected
