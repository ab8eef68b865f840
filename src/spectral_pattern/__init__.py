"""Spectral graph convolution for building-pattern classification.

Building footprints are summarized by shape indices, wired into a spatial
graph (Delaunay or minimum spanning tree), and classified as regular or
irregular arrangements by a small graph convolutional network whose filters
are polynomials in the graph Laplacian.

Set SPECTRAL_PATTERN_THREADS before import to pin BLAS thread counts; the
training pipeline is deterministic for a fixed seed when run single-threaded.
The setting only fills the BLAS thread variables, which numpy reads when it
loads, so importing numpy first with other caps raises a RuntimeWarning.
"""

import os as _os
import sys as _sys
import warnings as _warnings

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
_threads = _os.environ.get("SPECTRAL_PATTERN_THREADS")
if _threads is not None:
    if "numpy" in _sys.modules and any(_os.environ.get(v) != _threads for v in _THREAD_VARS):
        _warnings.warn(
            f"SPECTRAL_PATTERN_THREADS={_threads} cannot take effect: numpy was imported "
            f"before spectral_pattern; import the package first, or set "
            f"{', '.join(_THREAD_VARS)} to {_threads} before numpy loads",
            RuntimeWarning,
        )
    for _var in _THREAD_VARS:
        _os.environ.setdefault(_var, _threads)

__version__ = "0.1.0"

# these load numpy, so they follow the thread caps.  cli is left out:
# `python -m spectral_pattern.cli` would otherwise find it imported and warn
from .geometry import BuildingFeatures, Point2, Polygon, extract_features
from .graph import (
    EigenSystem,
    GraphConfig,
    LaplacianMatrix,
    SpatialGraph,
    build_spatial_graph,
    eigendecompose,
    laplacian,
)
from .spectral import (
    PolynomialKernel,
    SpectralKernel,
    gft,
    igft,
    kernel_from_polynomial,
    polynomial_convolve,
    spectral_convolve,
)
from .nn import GcnnModel, GraphSample, TrainConfig, build_model, evaluate, predict, train
from .data import (
    BuildingGroup,
    Dataset,
    Standardizer,
    generate_synthetic_dataset,
    load_dataset,
    save_dataset,
    split_dataset,
)
