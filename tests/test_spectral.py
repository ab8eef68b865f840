import math

import numpy as np
import pytest

from spectral_pattern.errors import DimensionMismatch
from spectral_pattern.graph import eigendecompose, laplacian
from spectral_pattern.spectral import (
    PolynomialKernel,
    SpectralKernel,
    gft,
    igft,
    kernel_from_polynomial,
    polynomial_convolve,
    spectral_convolve,
)

from conftest import hop_distances, random_connected_graph

P2_W = np.array([[0.0, 1.0], [1.0, 0.0]])
P3_W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])


@pytest.fixture
def p2_eig():
    return eigendecompose(laplacian(P2_W, kind="comb", scaled=False))


class TestGft:
    def test_p2_delta(self, p2_eig):
        r = 1.0 / math.sqrt(2.0)
        assert gft([1.0, 0.0], p2_eig) == pytest.approx([r, r])

    def test_constant_signal_lands_on_zero_eigenvalue(self):
        eig = eigendecompose(laplacian(P3_W, kind="comb", scaled=False))
        c = 2.5
        fhat = gft(np.full(3, c), eig)
        assert fhat[0] == pytest.approx(c * math.sqrt(3.0))
        assert fhat[1:] == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_eigenvector_maps_to_basis_vector(self, rng):
        W = random_connected_graph(rng, 9)
        eig = eigendecompose(laplacian(W, kind="comb", scaled=False))
        for l in (0, 3, 8):
            fhat = gft(eig.eigenvectors[:, l], eig)
            expect = np.zeros(9)
            expect[l] = 1.0
            assert np.allclose(fhat, expect, atol=1e-10)

    def test_dimension_mismatch(self, p2_eig):
        with pytest.raises(DimensionMismatch):
            gft([1.0, 0.0, 0.0], p2_eig)


class TestIgft:
    def test_round_trip_and_parseval(self, rng):
        for n in (5, 17, 64, 128):
            W = random_connected_graph(rng, n)
            eig = eigendecompose(laplacian(W, kind="comb", scaled=False))
            f = rng.standard_normal(n)
            back = igft(gft(f, eig), eig)
            assert np.max(np.abs(back - f)) < 1e-9
            assert abs(np.linalg.norm(gft(f, eig)) - np.linalg.norm(f)) < 1e-9

    def test_round_trip_multichannel(self, rng):
        W = random_connected_graph(rng, 12)
        eig = eigendecompose(laplacian(W, kind="sym", scaled=False))
        F = rng.standard_normal((12, 3))
        assert np.max(np.abs(igft(gft(F, eig), eig) - F)) < 1e-9

    def test_basis_vector_gives_eigenvector(self, p2_eig):
        e1 = np.array([0.0, 1.0])
        assert np.allclose(igft(e1, p2_eig), p2_eig.eigenvectors[:, 1])

    def test_dimension_mismatch(self, p2_eig):
        with pytest.raises(DimensionMismatch):
            igft(np.zeros(5), p2_eig)


class TestKernelFromPolynomial:
    def test_identity_coefficient(self):
        k = kernel_from_polynomial(PolynomialKernel(theta=[1.0, 0.0, 0.0]), [0.0, 0.7, 2.0])
        assert np.array_equal(k.gains, [1.0, 1.0, 1.0])

    def test_linear_coefficient(self):
        k = kernel_from_polynomial(PolynomialKernel(theta=[0.0, 1.0]), [0.0, 2.0])
        assert np.array_equal(k.gains, [0.0, 2.0])

    def test_hand_evaluation(self):
        # 1 + 2*2 + 3*4 = 17
        k = kernel_from_polynomial(PolynomialKernel(theta=[1.0, 2.0, 3.0]), [2.0])
        assert k.gains[0] == pytest.approx(17.0)

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            PolynomialKernel(theta=[])
        with pytest.raises(ValueError):
            PolynomialKernel(theta=[1.0, float("inf")])
        with pytest.raises(ValueError):
            SpectralKernel(gains=[1.0, float("nan")])


class TestSpectralConvolve:
    def test_unit_gains_identity(self, rng):
        W = random_connected_graph(rng, 10)
        eig = eigendecompose(laplacian(W, kind="comb", scaled=False))
        f = rng.standard_normal(10)
        out = spectral_convolve(f, SpectralKernel(gains=np.ones(10)), eig)
        assert np.max(np.abs(out - f)) < 1e-9

    def test_zero_gains(self, p2_eig):
        out = spectral_convolve([1.0, -2.0], SpectralKernel(gains=np.zeros(2)), p2_eig)
        assert np.allclose(out, 0.0)

    def test_gains_lambda_reproduce_laplacian(self, p2_eig):
        out = spectral_convolve([1.0, 0.0], SpectralKernel(gains=p2_eig.eigenvalues), p2_eig)
        assert out == pytest.approx([1.0, -1.0])

    def test_kernel_length_checked(self, p2_eig):
        with pytest.raises(DimensionMismatch):
            spectral_convolve([1.0, 0.0], SpectralKernel(gains=np.ones(3)), p2_eig)


class TestPolynomialConvolve:
    def test_order_one_is_scaling(self, rng):
        L = laplacian(random_connected_graph(rng, 8), kind="comb", scaled=False)
        f = rng.standard_normal(8)
        assert np.array_equal(polynomial_convolve(f, PolynomialKernel(theta=[1.0]), L), f)

    def test_p2_laplacian_action(self):
        L = laplacian(P2_W, kind="comb", scaled=False)
        out = polynomial_convolve([1.0, 0.0], PolynomialKernel(theta=[0.0, 1.0]), L)
        assert out == pytest.approx([1.0, -1.0])

    def test_multichannel_shape(self, rng):
        L = laplacian(random_connected_graph(rng, 7), kind="sym", scaled=True)
        F = rng.standard_normal((7, 4))
        out = polynomial_convolve(F, PolynomialKernel(theta=[0.5, -0.2, 0.1]), L)
        assert out.shape == (7, 4)

    def test_dimension_mismatch(self):
        L = laplacian(P2_W, kind="comb", scaled=False)
        with pytest.raises(DimensionMismatch):
            polynomial_convolve(np.zeros(3), PolynomialKernel(theta=[1.0]), L)


class TestEquivalence:
    """The module's core property: both convolution routes agree."""

    def test_routes_agree(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 65))
            W = random_connected_graph(rng, n)
            kind = "comb" if rng.random() < 0.5 else "sym"
            L = laplacian(W, kind=kind, scaled=bool(rng.integers(0, 2)))
            eig = eigendecompose(L)
            K = int(rng.integers(1, 7))
            theta = PolynomialKernel(theta=rng.standard_normal(K))
            f = rng.standard_normal(n)
            fast = polynomial_convolve(f, theta, L)
            exact = spectral_convolve(
                f, kernel_from_polynomial(theta, eig.eigenvalues), eig
            )
            scale = max(float(np.max(np.abs(exact))), 1e-12)
            assert np.max(np.abs(fast - exact)) / scale < 1e-8

    def test_routes_agree_multichannel(self, rng):
        W = random_connected_graph(rng, 20)
        L = laplacian(W, kind="sym", scaled=True)
        eig = eigendecompose(L)
        theta = PolynomialKernel(theta=rng.standard_normal(4))
        F = rng.standard_normal((20, 3))
        fast = polynomial_convolve(F, theta, L)
        exact = spectral_convolve(F, kernel_from_polynomial(theta, eig.eigenvalues), eig)
        assert np.max(np.abs(fast - exact)) / np.max(np.abs(exact)) < 1e-8


class TestLocality:
    def test_filter_support_is_k_minus_1_hops(self, rng):
        for _ in range(10):
            n = int(rng.integers(8, 30))
            W = (random_connected_graph(rng, n) > 0).astype(float)  # unit weights
            L = laplacian(W, kind="comb", scaled=False)
            v = int(rng.integers(0, n))
            hops = hop_distances(W, v)
            delta = np.zeros(n)
            delta[v] = 1.0
            for K in (1, 2, 3, 4):
                y = polynomial_convolve(delta, PolynomialKernel(theta=rng.standard_normal(K)), L)
                for u in range(n):
                    if hops[u] > K - 1:
                        assert abs(y[u]) <= 1e-12, (n, v, u, K)


class TestLinearity:
    def test_linear_in_signal_and_coefficients(self, rng):
        W = random_connected_graph(rng, 11)
        L = laplacian(W, kind="comb", scaled=False)
        f1, f2 = rng.standard_normal(11), rng.standard_normal(11)
        a, b = 1.7, -0.4
        th1, th2 = rng.standard_normal(3), rng.standard_normal(3)
        k1, k2 = PolynomialKernel(theta=th1), PolynomialKernel(theta=th2)
        lhs = polynomial_convolve(a * f1 + b * f2, k1, L)
        rhs = a * polynomial_convolve(f1, k1, L) + b * polynomial_convolve(f2, k1, L)
        assert np.allclose(lhs, rhs, atol=1e-10)
        ksum = PolynomialKernel(theta=th1 + th2)
        lhs2 = polynomial_convolve(f1, ksum, L)
        rhs2 = polynomial_convolve(f1, k1, L) + polynomial_convolve(f1, k2, L)
        assert np.allclose(lhs2, rhs2, atol=1e-10)
