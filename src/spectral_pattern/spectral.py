"""Graph Fourier transform and the two equivalent convolution routes.

A signal on graph vertices is taken to the spectral domain by projecting
onto Laplacian eigenvectors (gft), filtered there by per-eigenvalue gains,
and brought back (igft).  The same family of filters, restricted to
polynomials in the eigenvalues, can be applied directly in the vertex
domain as a short recurrence of matrix-vector products, with no
eigendecomposition at all; polynomial_convolve is that fast route, and the
two must agree to numerical precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .graph import EigenSystem, matrix_of


@dataclass(frozen=True, eq=False)
class SpectralKernel:
    """Free-form filter: gains[l] multiplies the l-th spectral coefficient."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=float).reshape(-1)
        if not np.all(np.isfinite(g)):
            raise ValueError("kernel gains must be finite")
        object.__setattr__(self, "gains", g)

    @property
    def n(self) -> int:
        return self.gains.shape[0]


@dataclass(frozen=True, eq=False)
class PolynomialKernel:
    """Filter restricted to gains = sum_k theta_k lambda^k, k = 0 .. K-1."""

    theta: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.theta, dtype=float).reshape(-1)
        if t.shape[0] < 1:
            raise ValueError("polynomial kernel needs at least one coefficient")
        if not np.all(np.isfinite(t)):
            raise ValueError("kernel coefficients must be finite")
        object.__setattr__(self, "theta", t)


def gft(f, eig: EigenSystem) -> np.ndarray:
    """Spectral coefficients of a vertex signal: fhat[l] = <eigvec_l, f>.

    Accepts a length-n vector or an (n, c) channel matrix; channels
    transform independently.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[0] != eig.n:
        raise DimensionMismatch(f"signal has {f.shape[0]} vertices, graph has {eig.n}")
    return eig.eigenvectors.T @ f


def igft(fhat, eig: EigenSystem) -> np.ndarray:
    """Vertex signal from spectral coefficients: f = sum_l fhat[l] eigvec_l."""
    fhat = np.asarray(fhat, dtype=float)
    if fhat.shape[0] != eig.n:
        raise DimensionMismatch(f"coefficients have length {fhat.shape[0]}, graph has {eig.n}")
    return eig.eigenvectors @ fhat


def kernel_from_polynomial(kernel: PolynomialKernel, eigenvalues) -> SpectralKernel:
    """Evaluate the polynomial at each eigenvalue (Horner scheme)."""
    lam = np.asarray(eigenvalues, dtype=float).reshape(-1)
    theta = kernel.theta
    gains = np.full_like(lam, theta[-1])
    for k in range(theta.shape[0] - 2, -1, -1):
        gains = gains * lam + theta[k]
    return SpectralKernel(gains=gains)


def spectral_convolve(f, kernel: SpectralKernel, eig: EigenSystem) -> np.ndarray:
    """Filter in the spectral domain: igft(gains * gft(f))."""
    if kernel.n != eig.n:
        raise DimensionMismatch(f"kernel has {kernel.n} gains, graph has {eig.n}")
    fhat = gft(f, eig)
    gains = kernel.gains if fhat.ndim == 1 else kernel.gains[:, None]
    return igft(gains * fhat, eig)


def polynomial_convolve(f, kernel: PolynomialKernel, L) -> np.ndarray:
    """Filter in the vertex domain: y = sum_k theta_k L^k f.

    Powers are applied as iterated matrix-vector products; L^k is never
    formed and no eigendecomposition happens.
    """
    A = matrix_of(L)
    f = np.asarray(f, dtype=float)
    if f.shape[0] != A.shape[0]:
        raise DimensionMismatch(f"signal has {f.shape[0]} vertices, operator has {A.shape[0]}")
    theta = kernel.theta
    p = f
    y = theta[0] * f
    for k in range(1, theta.shape[0]):
        p = A @ p
        y = y + theta[k] * p
    return y
