"""The package's import surface, each check in a fresh interpreter so that
no module this test process imported earlier can hide a missing import."""

import os
import subprocess
import sys
from pathlib import Path

import spectral_pattern

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
