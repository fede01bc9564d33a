"""Tests for the Gaussian/Laplacian baseline kernels and KDE."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sosrep as sp
from sosrep.baseline_kernels import kernel_and_gradient_closed_form
from sosrep.errors import DataError, ValidationError
from sosrep.harness import ClosedFormRepresenterModel


class TestClosedFormKernel:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="cubic", sigma=1.0, d=1)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=0.0, d=1)
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=float("nan"), d=1)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValidationError):
            sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=0)


class TestGaussianKernel:
    def test_diagonal_value(self):
        # normalization sigma^{-d}: equals 1 at sigma=1
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        assert sp.eval_kernel(k, [0.3, -1.2], [0.3, -1.2]) == 1.0

    def test_known_offdiagonal(self):
        # ||x-y||^2 = 2 at sigma=1: exp(-1)
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        np.testing.assert_allclose(
            sp.eval_kernel(k, [0.0, 0.0], [1.0, 1.0]), math.exp(-1.0), rtol=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(7, 3))
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.8, d=3)
        K = sp.kernel_matrix_closed_form(k, X, X)
        np.testing.assert_allclose(K, K.T, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        with pytest.raises(DataError):
            sp.kernel_matrix_closed_form(k, np.zeros((2, 3)), np.zeros((2, 3)))


class TestLaplacianKernel:
    def test_known_value(self):
        # sigma^{-d} exp(-|dx|/sigma) at sigma=2, d=1, |dx|=2: e^{-1}/2
        k = sp.ClosedFormKernel(family="laplacian", sigma=2.0, d=1)
        np.testing.assert_allclose(
            sp.eval_kernel(k, [0.0], [2.0]), math.exp(-1.0) / 2.0, rtol=1e-12
        )

    def test_matches_sdo_closed_form_up_to_half(self):
        # 1-d sampled-kernel closed form is exp(-|dx|/sqrt(a)) / (2 sqrt(a)):
        # exactly half the Laplacian with sigma = sqrt(a)
        a = 0.09
        rng = np.random.default_rng(3)
        X, Y = rng.normal(size=(5, 1)), rng.normal(size=(4, 1))
        k = sp.ClosedFormKernel(family="laplacian", sigma=math.sqrt(a), d=1)
        K = sp.kernel_matrix_closed_form(k, X, Y)
        expected = 2.0 * sp.closed_form_kernel_1d(X, Y.T, a)
        np.testing.assert_allclose(K, expected, rtol=1e-12)

    def test_multivariate_uses_l2_norm(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.0, d=2)
        np.testing.assert_allclose(
            sp.eval_kernel(k, [0.0, 0.0], [3.0, 4.0]), math.exp(-5.0), rtol=1e-12
        )


class TestKernelGradient:
    def test_gaussian_gradient_matches_finite_difference(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.9, d=3)
        rng = np.random.default_rng(7)
        X = rng.normal(size=(4, 3))
        Y = rng.normal(size=(3, 3))
        G = sp.kernel_gradient_closed_form(k, X, Y)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            num = (
                sp.kernel_matrix_closed_form(k, X, Y + e)
                - sp.kernel_matrix_closed_form(k, X, Y - e)
            ) / (2.0 * h)
            np.testing.assert_allclose(G[:, :, j], num, atol=1e-8)

    def test_laplacian_gradient_matches_finite_difference(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.3, d=2)
        rng = np.random.default_rng(8)
        X = rng.normal(size=(4, 2))
        Y = rng.normal(size=(3, 2)) + 5.0  # keep away from the kink at x = y
        G = sp.kernel_gradient_closed_form(k, X, Y)
        h = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            num = (
                sp.kernel_matrix_closed_form(k, X, Y + e)
                - sp.kernel_matrix_closed_form(k, X, Y - e)
            ) / (2.0 * h)
            np.testing.assert_allclose(G[:, :, j], num, atol=1e-7)

    def test_laplacian_gradient_zero_at_coincidence(self):
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.0, d=2)
        X = np.array([[1.0, 2.0]])
        G = sp.kernel_gradient_closed_form(k, X, X)
        np.testing.assert_array_equal(G, np.zeros((1, 1, 2)))


class TestKde:
    def test_single_training_point_peak(self):
        X = np.array([[0.0, 0.0]])
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=2)
        np.testing.assert_allclose(sp.kde_density(X, X, k), [1.0])

    def test_reflection_symmetry(self):
        # density at +c of a mass at 0 equals density at 0 of a mass at +c
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.7, d=1)
        v1 = sp.kde_density(np.array([[0.0]]), np.array([[1.5]]), k)
        v2 = sp.kde_density(np.array([[1.5]]), np.array([[0.0]]), k)
        np.testing.assert_allclose(v1, v2, rtol=1e-15)

    def test_mixture_linearity(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        q = rng.normal(size=(6, 2))
        k = sp.ClosedFormKernel(family="laplacian", sigma=1.2, d=2)
        both = sp.kde_density(np.vstack([A, B]), q, k)
        va = sp.kde_density(A, q, k)
        vb = sp.kde_density(B, q, k)
        np.testing.assert_allclose(both, (3 * va + 5 * vb) / 8.0, rtol=1e-12)

    def test_gaussian_total_mass(self):
        # sigma^{-d} normalization integrates to (2 pi)^{d/2}, not 1
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 1))
        grid = np.linspace(-12.0, 12.0, 4001).reshape(-1, 1)
        k = sp.ClosedFormKernel(family="gaussian", sigma=0.5, d=1)
        dens = sp.kde_density(X, grid, k)
        total = np.trapezoid(dens, grid[:, 0])
        np.testing.assert_allclose(total, math.sqrt(2.0 * np.pi), rtol=1e-6)

    def test_empty_training_set_rejected(self):
        k = sp.ClosedFormKernel(family="gaussian", sigma=1.0, d=1)
        with pytest.raises(DataError):
            sp.kde_density(np.zeros((0, 1)), np.zeros((1, 1)), k)

    def test_sampled_kernel_rejected(self):
        # the sampled-kernel KDE is SdoKdeModel; kde_density is closed-form only
        fs = sp.sample_frequencies(sp.SdoParams(a=0.5, d=2, m=2), 256, seed=11)
        with pytest.raises(ValidationError, match="ClosedFormKernel"):
            sp.kde_density(np.zeros((3, 2)), np.zeros((1, 2)), fs)


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "laplacian"]),
    sigma=st.floats(min_value=0.1, max_value=5.0),
    seed=st.integers(0, 100),
)
def test_gram_psd_property(family, sigma, seed):
    """Both families are positive definite, so Grams have no negative spectrum."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(12, 2))
    k = sp.ClosedFormKernel(family=family, sigma=sigma, d=2)
    K = sp.kernel_matrix_closed_form(k, X, X)
    eigs = np.linalg.eigvalsh((K + K.T) / 2.0)
    assert eigs.min() >= -1e-10 * max(1.0, np.trace(K))


def _broadcast_reference(k, X, Y):
    """(values, gradients) by the length-d broadcasts the per-coordinate
    construction replaced, kept verbatim as its bitwise oracle."""
    diff = X[:, None, :] - Y[None, :, :]  # (N, M, d)
    norm = k.sigma ** (-k.d)
    if k.family == "gaussian":
        sq = np.einsum("nmd,nmd->nm", diff, diff)
        vals = norm * np.exp(-sq / (2.0 * k.sigma**2))
        return vals, vals[:, :, None] * diff / k.sigma**2
    dist = np.sqrt(np.einsum("nmd,nmd->nm", diff, diff))
    vals = norm * np.exp(-dist / k.sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = diff / dist[:, :, None]
    unit[~np.isfinite(unit)] = 0.0
    return vals, vals[:, :, None] * unit / k.sigma


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(["gaussian", "laplacian"]),
    d=st.integers(1, 13),
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    sigma=st.floats(min_value=0.05, max_value=5.0),
    spread=st.floats(min_value=0.01, max_value=10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_path_is_bitwise_the_broadcast(family, d, n, m, sigma, spread, seed):
    rng = np.random.default_rng(seed)
    X = spread * rng.normal(size=(n, d))
    Y = spread * rng.normal(size=(m, d))
    Y[0] = X[-1]  # coinciding points: the Laplacian's zero gradient
    k = sp.ClosedFormKernel(family=family, sigma=sigma, d=d)
    alpha = rng.random(n)
    vals, grads = _broadcast_reference(k, X, Y)

    def same(a, b):
        return a.shape == b.shape and np.array_equal(a, b)

    both = kernel_and_gradient_closed_form(k, X, Y)
    assert same(both[0], vals) and same(both[1], grads)
    assert same(sp.kernel_matrix_closed_form(k, X, Y), vals)
    assert same(sp.kernel_gradient_closed_form(k, X, Y), grads)
    assert same(sp.kde_density(X, Y, k), vals.mean(axis=0))
    f, G = ClosedFormRepresenterModel(X, alpha, k, squared=True).f_and_grad(Y)
    assert same(f, alpha @ vals)
    assert same(G, np.einsum("n,nmd->md", alpha, grads))
    if family == "laplacian":
        assert not grads[-1, 0].any()
